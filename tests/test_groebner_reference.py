"""The packed-integer Buchberger engine against the tuple engine it replaced.

The reference below is that engine as it was, on dense exponent tuples with
a support bitmask per lead, with `TermOrder.dense_key` kept here as
`dense_key`.  For random binomial sets, homogeneous or not, at I = 2 and 3
and under grevlex, grevlex with a chosen last variable and elimination
orders, the package's `buchberger`, `saturate` and `reduce_basis` must give
the reference's lists, or its error, after the same S-pairs in the same
order with the same remainders.  The packed primitives are checked against their tuple
definitions up to the field limit, and a term past the degree limit must
raise.
"""

import heapq
from itertools import combinations
from operator import add, le, neg, sub
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagonal_effect import (
    BudgetExceededError,
    CellPolynomial,
    InputError,
    InvariantViolationError,
    ModelFamily,
    ModelForm,
    ModelSpec,
    SizeMismatchError,
    TermOrder,
    design_matrix,
    groebner,
    lattice_binomials,
)
from diagonal_effect.polynomials import Monomial

# ---------------------------------------------------------------------------
# reference engine
# ---------------------------------------------------------------------------

MAX_PAIRS = 100_000  # S-pairs one basis computation may process

Exponents = Tuple[int, ...]


def dense_key(order: TermOrder, dense: Sequence[int]):
    """`order.key` of the monomial whose exponents, listed in the order of
    `order.variables`, are `dense`."""
    if order.block:
        head, tail = dense[: order.block], dense[order.block:]
        return (
            sum(head),
            tuple(map(neg, reversed(head))),
            sum(tail),
            tuple(map(neg, reversed(tail))),
        )
    return (sum(dense), tuple(map(neg, reversed(dense))))


class _Binomial(NamedTuple):
    """x^lead - x^tail, with `lead` the larger term; step = tail - lead."""

    mask: int  # support of lead, one bit per variable position
    lead: Exponents
    tail: Exponents
    step: Exponents


def _binomial(a: Exponents, b: Exponents, order: TermOrder) -> Optional[_Binomial]:
    """The monic binomial of x^a - x^b, or None when it is zero."""
    if a == b:
        return None
    if dense_key(order, a) < dense_key(order, b):
        a, b = b, a
    return _Binomial(_support(a), a, b, tuple(map(sub, b, a)))


def _support(m: Exponents) -> int:
    mask = 0
    for k, e in enumerate(m):
        if e:
            mask |= 1 << k
    return mask


def _exponents(m: Monomial, slot: Dict[int, int]) -> Exponents:
    """Exponent vector of `m`, counting each id into its position `slot[id]`."""
    dense = [0] * len(slot)
    for v in m:
        if v not in slot:
            raise InputError(f"variable {v} is outside the term order")
        dense[slot[v]] += 1
    return tuple(dense)


def _encode(polys: Sequence[CellPolynomial], order: TermOrder, size: int) -> List[_Binomial]:
    """Monic binomials of the nonzero `polys`, which must be c * (x^a - x^b)
    over `size` x `size` tables."""
    slot = {v: k for k, v in enumerate(order.variables)}
    out = []
    for p in polys:
        if p.size != size:
            raise SizeMismatchError(f"polynomial over {p.size}x{p.size} cells, expected {size}x{size}")
        if p.is_zero():
            continue
        if p.num_terms() != 2 or sum(p.terms.values()) != 0:
            raise InputError(f"not a binomial c*(x^a - x^b): {p}")
        a, b = p.terms
        out.append(_binomial(_exponents(a, slot), _exponents(b, slot), order))
    return out


def _monomial(dense: Exponents, order: TermOrder) -> Monomial:
    return tuple(sorted(v for v, e in zip(order.variables, dense) for _ in range(e)))


def _decode(basis: Sequence[_Binomial], order: TermOrder, size: int) -> List[CellPolynomial]:
    return [CellPolynomial(size, {_monomial(g.lead, order): 1, _monomial(g.tail, order): -1})
            for g in basis]


def _reduce(m: Exponents, basis: Sequence[_Binomial]) -> Exponents:
    """Normal form of the monomial x^m: while the lead of a basis element
    divides it, the first such element in basis order replaces that lead
    by its tail."""
    while True:
        mask = _support(m)
        for g_mask, lead, _, step in basis:
            if g_mask & mask == g_mask and all(map(le, lead, m)):
                m = tuple(map(add, m, step))
                break
        else:
            return m


def _s_remainder(
    f: _Binomial, g: _Binomial, basis: Sequence[_Binomial], order: TermOrder
) -> Optional[_Binomial]:
    """Normal form of the S-polynomial of f and g modulo `basis`, or None
    when it is zero.  The lcm terms cancel, leaving each lcm with its lead
    replaced by its tail; a binomial basis reduces each term on its own."""
    lcm = tuple(map(max, f.lead, g.lead))
    u = _reduce(tuple(map(add, lcm, f.step)), basis)
    return _binomial(u, _reduce(tuple(map(add, lcm, g.step)), basis), order)


def buchberger(gens: Sequence[CellPolynomial], order: TermOrder) -> List[CellPolynomial]:
    """Reduced Groebner basis of the ideal generated by `gens`."""
    if not gens:
        return []
    size = gens[0].size
    return _decode(_groebner(_encode(gens, order, size), order), order, size)


def _groebner(basis: List[_Binomial], order: TermOrder) -> List[_Binomial]:
    """The reduced basis of `basis`, which Buchberger's loop extends in place."""
    heap: List[tuple] = []
    alive = {}  # (i, j) -> (lcm, its support mask), pairs not yet discarded

    def add_generator_pairs(t: int):
        t_mask, lt, _, _ = basis[t]
        lcms = [(tuple(map(max, g.lead, lt)), g.mask | t_mask) for g in basis[:t]]
        # chain criterion on existing pairs: (i, j) is redundant once the
        # new leading term divides its lcm and both flanking pairs differ
        for (i, j), (lcm_ij, mask_ij) in list(alive.items()):
            if t_mask & mask_ij == t_mask and all(map(le, lt, lcm_ij)):
                if lcm_ij not in (lcms[i][0], lcms[j][0]):
                    del alive[(i, j)]
        keep: List[int] = []
        for i, (lcm_i, mask_i) in enumerate(lcms):
            if not basis[i].mask & t_mask:
                continue  # coprime leads: the S-polynomial reduces to zero
            if any(
                mask_j & mask_i == mask_j and lcm_j != lcm_i and all(map(le, lcm_j, lcm_i))
                for lcm_j, mask_j in lcms
            ):
                continue  # properly divisible lcm: covered by a smaller pair
            if any(lcms[j][0] == lcm_i for j in keep):
                continue  # one representative per lcm
            keep.append(i)
        for i in keep:
            lcm_i = lcms[i][0]
            alive[(i, t)] = lcms[i]
            heapq.heappush(heap, (sum(lcm_i), dense_key(order, lcm_i), i, t))

    for t in range(len(basis)):
        add_generator_pairs(t)

    processed = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        if alive.pop((i, j), None) is None:
            continue  # pruned after scheduling
        processed += 1
        if processed > MAX_PAIRS:
            raise BudgetExceededError(f"S-pair budget of {MAX_PAIRS} pairs exceeded")
        r = _s_remainder(basis[i], basis[j], basis, order)
        if r is not None:
            basis.append(r)
            add_generator_pairs(len(basis) - 1)

    return _reduced(basis, order)


def saturate(gens: Sequence[CellPolynomial], variables: Sequence[int]) -> List[CellPolynomial]:
    """Reduced grevlex basis of the saturation of a homogeneous binomial
    ideal by the product of `variables`."""
    if not gens:
        return []
    size = gens[0].size
    order = TermOrder.grevlex(variables)
    basis = _encode(gens, order, size)
    if any(sum(g.lead) != sum(g.tail) for g in basis):
        raise InvariantViolationError("saturation shortcut requires homogeneous generators")
    for v in variables:
        last = TermOrder.grevlex_last(variables, v)
        slots = [order.variables.index(u) for u in last.variables]
        basis = [_binomial(tuple(g.lead[k] for k in slots), tuple(g.tail[k] for k in slots), last)
                 for g in basis]
        order = last
        basis = _groebner(basis, order)
        # a homogeneous grevlex lead has the lower power of the last variable
        basis = [_binomial(g.lead[:-1] + (0,), g.tail[:-1] + (g.tail[-1] - g.lead[-1],), order)
                 for g in basis]
    return _decode(_reduced(basis, order), order, size)  # order is grevlex(variables)


def reduce_basis(basis: Sequence[CellPolynomial], order: TermOrder) -> List[CellPolynomial]:
    """Minimalize and tail-reduce a binomial Groebner basis."""
    if not basis:
        return []
    size = basis[0].size
    return _decode(_reduced(_encode(basis, order, size), order), order, size)


def _reduced(basis: Sequence[_Binomial], order: TermOrder) -> List[_Binomial]:
    # drop duplicates and any generator whose leading monomial another divides
    minimal: List[_Binomial] = []
    for g in sorted(basis, key=lambda g: dense_key(order, g.lead)):
        if not any(all(map(le, other.lead, g.lead)) for other in minimal):
            minimal.append(g)
    # no other lead divides a minimal lead, so tail reduction keeps every
    # lead and the basis stays sorted by leading term
    return [
        _binomial(g.lead, _reduce(g.tail, minimal[:k] + minimal[k + 1:]), order)
        for k, g in enumerate(minimal)
    ]


# ---------------------------------------------------------------------------
# packed primitives
# ---------------------------------------------------------------------------

LIMIT = groebner.MAX_DEGREE


@st.composite
def exponent_vectors(draw, n: int, total: int):
    """n exponents summing to at most `total`, any one of which may take
    all of it."""
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n, max_size=n)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts))


@st.composite
def vector_pairs(draw, total: int = LIMIT):
    """A term order over 1 to 17 variables and two exponent vectors over
    it, each of degree at most `total`."""
    n = draw(st.integers(1, 17))
    variables = draw(st.permutations(range(n)))
    block = draw(st.integers(0, n - 1))
    order = TermOrder(variables=tuple(variables), block=block)
    a = draw(exponent_vectors(n, total))
    b = draw(st.one_of(st.just(a), exponent_vectors(n, total)))
    return order, a, b


def _pack(dense: Sequence[int]) -> int:
    return sum(e << (k * groebner._WIDTH) for k, e in enumerate(dense))


def _sign(x, y) -> int:
    return (x > y) - (x < y)


@settings(max_examples=300, deadline=None)
@given(vector_pairs())
@example((TermOrder(tuple(range(17))), (LIMIT,) + (0,) * 16, (0,) * 16 + (LIMIT,)))
@example((TermOrder(tuple(range(17)), 16), (0,) * 16 + (LIMIT,), (0,) * 16 + (LIMIT - 1,)))
@example((TermOrder(tuple(range(2)), 1), (LIMIT, 0), (LIMIT - 1, 1)))
def test_packed_primitives_match_tuples(case):
    order, a, b = case
    guards = groebner._guards(order)
    pa, pb = _pack(a), _pack(b)
    # a lead is never the constant 1, which every order puts below any
    # other term, so only a nonconstant one is filed
    for (lead, x), (m, y) in (((pa, a), (pb, b)), ((pb, b), (pa, a))):
        if lead:
            filed = groebner._Filed([groebner._Binomial(lead, 0, 0)], order)
            assert (groebner._first_divisor(m, filed) is not None) == all(map(le, x, y))
    assert groebner._lcm(pa, pb, guards) == _pack(tuple(map(max, a, b)))
    assert pa % groebner._FIELD == sum(a)
    assert _sign(groebner._key(pa, order), groebner._key(pb, order)) == _sign(
        dense_key(order, a), dense_key(order, b))
    grevlex = TermOrder.grevlex(order.variables)
    assert _sign(groebner._key(pa, grevlex), groebner._key(pb, grevlex)) == _sign(
        dense_key(grevlex, a), dense_key(grevlex, b))


@settings(max_examples=100, deadline=None)
@given(vector_pairs())
@example((TermOrder(tuple(range(3))), (LIMIT, 0, 0), (0, 0, LIMIT)))
def test_encode_decode_round_trip(case):
    order, a, b = case
    if a == b:
        return
    size = 5  # any size: the engine reads only the ids
    poly = CellPolynomial(size, {_monomial(a, order): 1, _monomial(b, order): -1})
    (g,) = groebner._encode([poly], order)
    assert (g.lead, g.tail) in ((_pack(a), _pack(b)), (_pack(b), _pack(a)))
    assert groebner._decode([g], order, size) in ([poly], [-poly])


# ---------------------------------------------------------------------------
# the degree limit
# ---------------------------------------------------------------------------

X, Y, Z, S, T = range(5)


def _binomial_poly(a: Monomial, b: Monomial) -> CellPolynomial:
    return CellPolynomial(3, {a: 1, b: -1})


def test_generator_past_the_limit_is_an_input_error():
    order = TermOrder.grevlex([X, Y])
    at_limit = _binomial_poly((X,) * LIMIT, (Y,) * LIMIT)
    assert groebner.buchberger([at_limit], order) == [at_limit]
    with pytest.raises(InputError, match=f"degree {LIMIT + 1} passes the engine's limit"):
        groebner.buchberger([_binomial_poly((X,) * (LIMIT + 1), (Y,) * (LIMIT + 1))], order)


def test_s_polynomial_past_the_limit_raises_at_the_real_limit():
    # t - x^LIMIT and t*y - z: the S-polynomial's term y * x^LIMIT is one
    # degree past the limit, and its x field would reach the guard bit
    order = TermOrder.elimination([T], [X, Y, Z])
    gens = [_binomial_poly((T,), (X,) * LIMIT), _binomial_poly((Y, T), (Z,))]
    with pytest.raises(BudgetExceededError, match=f"degree {LIMIT + 1} passes the engine's limit"):
        groebner.buchberger(gens, order)


def test_s_polynomial_past_a_lowered_limit_raises(monkeypatch):
    monkeypatch.setattr(groebner, "MAX_DEGREE", 3)
    order = TermOrder.elimination([T], [X, Y, Z])
    gens = [_binomial_poly((T,), (X, X, X)), _binomial_poly((Y, T), (Z,))]
    with pytest.raises(BudgetExceededError, match="degree 4 passes the engine's limit of 3"):
        groebner.buchberger(gens, order)
    with pytest.raises(InputError, match="degree 4 passes the engine's limit of 3"):
        groebner.buchberger([_binomial_poly((X,) * 4, (Y,) * 4)], TermOrder.grevlex([X, Y]))


def test_reduction_step_past_a_lowered_limit_raises(monkeypatch):
    # under the block (s, t), s^2 - s*t has lead s^2 and t - x^2 lead t;
    # tail-reducing s*t by t gives s*x^2, of degree 3
    order = TermOrder.elimination([S, T], [X])
    gens = [_binomial_poly((S, S), (S, T)), _binomial_poly((T,), (X, X))]
    expected = [_binomial_poly((T,), (X, X)), _binomial_poly((S, S), (X, X, S))]
    assert groebner.reduce_basis(gens, order) == reduce_basis(gens, order) == expected
    monkeypatch.setattr(groebner, "MAX_DEGREE", 2)
    with pytest.raises(BudgetExceededError, match="degree 3 passes the engine's limit of 2"):
        groebner.reduce_basis(gens, order)


# ---------------------------------------------------------------------------
# differential properties
# ---------------------------------------------------------------------------

# a budget that stops the rare runaway draw early, the same in both engines
PAIR_BUDGET = 400


def _outcome(fn, *args):
    """fn's result, or the type and message of the package error it raised."""
    try:
        return fn(*args)
    except (BudgetExceededError, InputError, InvariantViolationError) as exc:
        return type(exc), str(exc)


def _run_both(name: str, *args):
    """(outcome, S-pair steps) of the package's and the reference's `name`
    on `args`, each under `PAIR_BUDGET`.  A step is the pair's two leads and
    its remainder, as monomials: the reduced basis is the same whichever
    divisor reduces a term, the remainders on the way are not."""
    ours, theirs = [], []

    def recorded(steps, step, monomial):
        def counted(f, g, basis, order):
            r = step(f, g, basis, order)
            steps.append((monomial(f.lead, order), monomial(g.lead, order),
                          r and (monomial(r.lead, order), monomial(r.tail, order))))
            return r
        return counted

    with mock.patch.object(groebner, "_s_remainder",
                           recorded(ours, groebner._s_remainder, groebner._monomial)), \
            mock.patch.object(groebner, "MAX_PAIRS", PAIR_BUDGET), \
            mock.patch.dict(globals(), {"_s_remainder": recorded(theirs, _s_remainder, _monomial),
                                        "MAX_PAIRS": PAIR_BUDGET}):
        got = _outcome(getattr(groebner, name), *args)
        want = _outcome(globals()[name], *args)
    return (got, ours), (want, theirs)


@st.composite
def monomials(draw, variables, degree):
    return tuple(sorted(draw(st.lists(st.sampled_from(variables), min_size=degree, max_size=degree))))


@st.composite
def binomial_sets(draw, homogeneous: Optional[bool] = None):
    """(size, variables, generators): 2 to 5 binomials of degree at most 3
    over a random ordering of the cells, with one auxiliary variable on
    some draws; homogeneous when asked, or either way."""
    size = draw(st.sampled_from([2, 3]))
    cells = list(range(size * size))
    variables = draw(st.permutations(cells + ([size * size] if draw(st.booleans()) else [])))
    if homogeneous is None:
        homogeneous = draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(2, 5))):
        d = draw(st.integers(1, 3))
        a = draw(monomials(variables, d))
        b = draw(monomials(variables, d if homogeneous else draw(st.integers(0, 3))))
        if a != b:
            gens.append(CellPolynomial(size, {a: 1, b: -1}))
    return size, variables, gens


@st.composite
def orders(draw, variables):
    kind = draw(st.sampled_from(["grevlex", "grevlex_last", "elimination"]))
    if kind == "grevlex":
        return TermOrder.grevlex(variables)
    if kind == "grevlex_last":
        return TermOrder.grevlex_last(variables, draw(st.sampled_from(variables)))
    block = draw(st.integers(1, min(3, len(variables) - 1)))
    return TermOrder.elimination(variables[:block], variables[block:])


@settings(max_examples=150, deadline=None)
@given(binomial_sets(), st.data())
def test_buchberger_matches_reference(case, data):
    _, variables, gens = case
    order = data.draw(orders(variables))
    ours, theirs = _run_both("buchberger", gens, order)
    assert ours == theirs


@settings(max_examples=150, deadline=None)
@given(binomial_sets(), st.data())
def test_s_remainder_matches_reference(case, data):
    # the drawn generators are seldom a Groebner basis, so a term often
    # has several reducers, and the remainder shows which one was taken
    size, variables, gens = case
    order = data.draw(orders(variables))
    ours, theirs = groebner._Filed(groebner._encode(gens, order), order), _encode(gens, order, size)
    for i, j in combinations(range(len(ours)), 2):
        got = groebner._s_remainder(ours[i], ours[j], ours, order)
        want = _s_remainder(theirs[i], theirs[j], theirs, order)
        got, want = ([r] if r else [] for r in (got, want))
        assert groebner._decode(got, order, size) == _decode(want, order, size)


@settings(max_examples=40, deadline=None)
@given(binomial_sets(homogeneous=True))
# the common-diagonal lattice ideal at I = 3, whose saturation is pinned
# at 211 S-pairs in tests/test_toricideal.py
@example((3, list(range(9)), lattice_binomials(design_matrix(
    ModelSpec(ModelFamily.COMMON_DIAGONAL_EFFECT, ModelForm.TORIC, 3)))))
def test_saturate_matches_reference(case):
    _, variables, gens = case
    ours, theirs = _run_both("saturate", gens, variables)
    assert ours == theirs


@settings(max_examples=30, deadline=None)
@given(binomial_sets(homogeneous=False))
def test_saturate_rejects_what_the_reference_rejects(case):
    _, variables, gens = case
    ours, theirs = _run_both("saturate", gens, variables)
    assert ours == theirs


@settings(max_examples=100, deadline=None)
@given(binomial_sets(), st.data())
def test_reduce_basis_matches_reference(case, data):
    _, variables, gens = case
    order = data.draw(orders(variables))
    ours, theirs = _run_both("reduce_basis", gens, order)
    assert ours == theirs
    with mock.patch.dict(globals(), {"MAX_PAIRS": PAIR_BUDGET}):
        basis = _outcome(buchberger, gens, order)
    if isinstance(basis, list):
        assert groebner.reduce_basis(basis, order) == reduce_basis(basis, order) == basis
