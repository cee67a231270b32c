"""Buchberger's algorithm for binomial ideals, on packed integer monomials.

Every ideal this package computes is generated by binomials x^a - x^b
(lattice ideals, and t * prod - 1 on the elimination route), and the
engine accepts only such generators.  Inside, a monic binomial is a pair
of monomials packed into ints (Bachmann and Schoenemann, ISSAC 1998): the
exponent of the variable at significance position k of the term order
sits in bits [kW, (k+1)W), W = `_WIDTH`, whose top bit is a guard that a
valid exponent never sets.  With G the guards, lead divides m exactly when
((m | G) - lead) & G == G, as no field borrows; the lcm takes each field
from whichever operand keeps its guard; reduction is m - lead + tail; the
degree is m mod (2^W - 1); and grevlex compares the ints degree, then
-m.  A term's degree may not pass `MAX_DEGREE` = 2^(W-1) - 1, which keeps
every field clear of its guard and the degree exact: `_encode` rejects a
longer generator term, and a reduction step taken that forms one (only
an elimination order lets a tail outweigh its lead) raises rather than
carry into the next field.  `CellPolynomial` stays the type at the
boundary, and `saturate` keeps the toric ideals' per-variable steps
inside.  It saturates by the product of the variables `by` names, all of
them by default.  Many cells need no step: a unit pivot of the lattice basis, a
cell that no basis row touches, and a touched cell that a row witnesses;
`toricideal.saturation_cells` picks the cells that remain and gives the
proof.  Pairs follow the normal selection strategy with the Gebauer-Moller
criteria (J. Symb. Comput. 1988): a new lead's pairs are kept one per
minimal lcm, found by comparing each distinct lcm, in increasing degree,
with the minimal lcms before it, and the chain criterion takes one pass
over the live pairs.  Every basis is filed (`_Filed`), so one search,
`_first_divisor`, tests only the leads filed under the nonzero fields of
the term, both to reduce a term and to minimalize the basis.  An S-pair's
two terms are reduced together, the larger one step at a time, and stop
where their chains meet, as about 90% of them do at I = 4.  The S-pair
budget `MAX_PAIRS` turns a runaway computation into a loud error.
Common-diagonal I = 4 saturation, 2,812 S-pairs over 4 steps, takes about
0.07 s of process time on a 2-core x86 host under Python 3.11 (5,667
S-pairs over 8 steps and about 0.13 s by every non-pivot cell; 13,879
S-pairs over 16 steps and about 0.42 s by every cell from the echelon
basis).
"""

from __future__ import annotations

import heapq
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import BudgetExceededError, InputError, InvariantViolationError
from .polynomials import CellPolynomial, Monomial, TermOrder, check_distinct, require_polynomials
from .tables import require_instance

MAX_PAIRS = 100_000  # S-pairs one basis computation may process

_WIDTH = 16  # bits per exponent field, its guard bit included
_FIELD = (1 << _WIDTH) - 1  # one field of ones; m % _FIELD is the degree of m
MAX_DEGREE = (1 << (_WIDTH - 1)) - 1  # highest degree of a term the engine forms


class _Binomial(NamedTuple):
    """x^lead - x^tail, packed, with `lead` the larger term; `rise` is the
    degree of tail less that of lead, positive only under an elimination
    order."""

    lead: int
    tail: int
    rise: int


def _guards(order: TermOrder) -> int:
    """G: the guard bit of each of the order's exponent fields."""
    return ((1 << (len(order.variables) * _WIDTH)) - 1) // _FIELD << (_WIDTH - 1)


def _lcm(a: int, b: int, guards: int) -> int:
    """lcm(x^a, x^b): each field of `a` that keeps its guard in
    (a | G) - b is at least b's, and the rest are taken from `b`."""
    keep = ((a | guards) - b) & guards
    return b ^ ((a ^ b) & (keep - (keep >> (_WIDTH - 1))))


def _key(m: int, order: TermOrder):
    """`order.key` of the packed monomial `m`: the elimination block sits
    in the low fields, and -m ranks the least significant variable's
    exponent first, smaller first."""
    if order.block:
        split = order.block * _WIDTH
        head, tail = m & ((1 << split) - 1), m >> split
        return (head % _FIELD, -head, tail % _FIELD, -tail)
    return (m % _FIELD, -m)


def _above(a: int, b: int, order: TermOrder) -> bool:
    """x^a > x^b under `order`; grevlex compares m % _FIELD, then -m."""
    if order.block:
        return _key(a, order) > _key(b, order)
    da, db = a % _FIELD, b % _FIELD
    return da > db or da == db and a < b


def _binomial(a: int, b: int, order: TermOrder) -> Optional[_Binomial]:
    """The monic binomial of x^a - x^b, or None when it is zero."""
    if a == b:
        return None
    if _above(b, a, order):
        a, b = b, a
    return _Binomial(a, b, b % _FIELD - a % _FIELD)


def _past_limit(degree: int) -> str:
    return f"a term of degree {degree} passes the engine's limit of {MAX_DEGREE}"


def _pack(m: Monomial, shift: dict) -> int:
    """Packed form of `m`, adding 1 << (k * W) for each id at position k."""
    if len(m) > MAX_DEGREE:
        raise InputError(_past_limit(len(m)))
    packed = 0
    for v in m:
        if v not in shift:
            raise InputError(f"variable {v} is outside the term order")
        packed += shift[v]
    return packed


def _encode(polys: Sequence[CellPolynomial], order: TermOrder) -> List[_Binomial]:
    """Monic binomials of the nonzero `polys`, which must be c * (x^a - x^b),
    under `order`, which must be a TermOrder."""
    shift = {v: 1 << (k * _WIDTH) for k, v in enumerate(require_instance(order, TermOrder, "order").variables)}
    out = []
    for p in polys:
        if p.is_zero():
            continue
        if p.num_terms() != 2 or sum(p.terms.values()) != 0:
            raise InputError(f"not a binomial c*(x^a - x^b): {p}")
        a, b = p.terms
        out.append(_binomial(_pack(a, shift), _pack(b, shift), order))
    return out


def _monomial(m: int, order: TermOrder) -> Monomial:
    ids = []
    k = 0  # the field of `order` that sits at the bottom of m
    while m:
        skip = ((m & -m).bit_length() - 1) // _WIDTH  # zero fields
        k += skip
        m >>= skip * _WIDTH
        ids += [order.variables[k]] * (m & _FIELD)
        m >>= _WIDTH
        k += 1
    return tuple(sorted(ids))


def _decode(basis: Sequence[_Binomial], order: TermOrder, size: int) -> List[CellPolynomial]:
    # `_monomial` sorts the ids, and a _Binomial's lead and tail differ
    return [CellPolynomial._nonzero_ints(size, {_monomial(g.lead, order): 1, _monomial(g.tail, order): -1})
            for g in basis]


class _Filed(list):
    """A basis list whose elements are also filed, as (index, lead, tail,
    rise), by the lowest nonzero field of their leads.  It keeps `guards`,
    the G of its order, computed once, and `filed`, a mask of ones over
    every field whose file is not empty.  A lead divides x^m only if m is
    nonzero in the lead's field, so `_first_divisor` tests only the files
    of the nonzero fields of m & filed."""

    __slots__ = ("files", "filed", "guards")

    def __init__(self, basis: Sequence[_Binomial], order: TermOrder):
        super().__init__()
        self.files: List[list] = [[] for _ in order.variables]
        self.filed = 0
        self.guards = _guards(order)
        for g in basis:
            self.append(g)

    def append(self, g: _Binomial) -> None:
        k = ((g.lead & -g.lead).bit_length() - 1) // _WIDTH
        self.files[k].append((len(self), *g))
        self.filed |= _FIELD << (k * _WIDTH)
        super().append(g)


def _first_divisor(m: int, basis: _Filed) -> Optional[tuple]:
    """The filed entry (index, lead, tail, rise) of the first element, in
    basis order, whose lead divides x^m, or None: for each nonzero field of
    m with a file, the first lead in it that divides m and comes before
    every divisor found so far."""
    files, guards = basis.files, basis.guards
    mg = m | guards
    first, found = len(basis), None
    rest, k = m & basis.filed, 0  # those fields from field k up, shifted down
    while rest:
        skip = ((rest & -rest).bit_length() - 1) // _WIDTH  # zero fields
        k += skip
        for entry in files[k]:
            if entry[0] >= first:
                break
            if (mg - entry[1]) & guards == guards:  # its lead divides m
                first, found = entry[0], entry
                break
        rest >>= (skip + 1) * _WIDTH
        k += 1
    return found


def _step(m: int, found: tuple) -> int:
    """x^m with the lead of the filed entry `found` replaced by its tail."""
    _, lead, tail, rise = found
    m = m - lead + tail
    # a rise of at most MAX_DEGREE keeps every field below 2^W: m % _FIELD is exact
    if rise > 0 and m % _FIELD > MAX_DEGREE:
        raise BudgetExceededError(_past_limit(m % _FIELD))
    return m


def _reduce(m: int, basis: _Filed) -> int:
    """Normal form of the monomial x^m: while the lead of a basis element
    divides it, the first such element in basis order replaces that lead
    by its tail."""
    while (found := _first_divisor(m, basis)) is not None:
        m = _step(m, found)
    return m


def _s_remainder(f: _Binomial, g: _Binomial, basis: _Filed, order: TermOrder) -> Optional[_Binomial]:
    """Normal form of the S-polynomial of f and g modulo `basis`, or None
    when it is zero.  The lcm terms cancel, leaving x^u - x^v.  A binomial
    basis reduces each term on its own, along a descending chain, so the
    larger takes the next step until the two meet or it is irreducible."""
    lcm = _lcm(f.lead, g.lead, basis.guards)
    degree = lcm % _FIELD + max(f.rise, g.rise)  # exact: lcm's degree is below 2^W - 1
    if degree > MAX_DEGREE:
        raise BudgetExceededError(_past_limit(degree))
    u, v = lcm - f.lead + f.tail, lcm - g.lead + g.tail
    while u != v:
        if _above(v, u, order):
            u, v = v, u
        if (found := _first_divisor(u, basis)) is None:
            return _binomial(u, _reduce(v, basis), order)
        u = _step(u, found)
    return None


def buchberger(gens: Sequence[CellPolynomial], order: TermOrder) -> List[CellPolynomial]:
    """Reduced Groebner basis of the ideal generated by `gens`.

    Each generator must be c*(x^a - x^b), over one table size, in the
    variables of `order`, with terms of degree at most `MAX_DEGREE`;
    otherwise InputError (SizeMismatchError for the size) is raised.  Pairs
    are processed in increasing lcm degree (normal strategy) and pruned
    with the Gebauer-Moller criteria: coprime leads, the M-criterion (one
    pair per lcm that no other lcm of the new lead properly divides, found
    against the minimal lcms only) and the chain criterion.  Processing
    more than `MAX_PAIRS` S-pairs, or forming a term past `MAX_DEGREE`,
    raises BudgetExceededError.
    """
    size = require_polynomials(gens, "generators")
    return _decode(_groebner(_encode(gens, order), order), order, size)


def _update_pairs(leads: List[int], t: int, alive: dict, guards: int) -> List[Tuple[int, int]]:
    """The pair update for lead t against leads[:t], with the Gebauer-Moller
    criteria: deletes from `alive`, which maps a pair (i, j) to its lcm,
    the pairs that the chain criterion makes redundant, adds the new pairs
    (i, t) that survive, and returns them as (i, lcm)."""
    lt = leads[t]
    low = _WIDTH - 1
    # lcm(lead_i, lt) for each i < t, as `_lcm` computes it
    lcms = [lt ^ ((a ^ lt) & (keep - (keep >> low)))
            for a in leads[:t] for keep in (((a | guards) - lt) & guards,)]
    # chain criterion on existing pairs: (i, j) is redundant once the new
    # lead divides its lcm and both flanking pairs differ
    chained = [pair for pair, lcm_ij in alive.items()
               if ((lcm_ij | guards) - lt) & guards == guards  # lt divides lcm_ij
               and lcm_ij != lcms[pair[0]] and lcm_ij != lcms[pair[1]]]
    for pair in chained:
        del alive[pair]
    # each distinct lcm, with the first i giving it whose lead is not
    # coprime to lt; None if every such lead is (coprime leads give an
    # S-polynomial that reduces to zero)
    first = {}
    for i, (a, lcm_i) in enumerate(zip(leads, lcms)):
        if lcm_i == a + lt:
            first.setdefault(lcm_i, None)
        elif first.get(lcm_i) is None:
            first[lcm_i] = i
    # M-criterion: a pair is covered by a smaller one when another lcm
    # properly divides its lcm.  A proper divisor has lower degree, and a
    # divisor of a divisor divides, so taken in increasing degree a lcm is
    # minimal exactly when no minimal lcm met before it divides it
    minimal: List[int] = []
    new = []
    for lcm_i in sorted(first, key=_FIELD.__rmod__):  # m % _FIELD, the degree
        lcm_i_g = lcm_i | guards
        for m in minimal:
            if (lcm_i_g - m) & guards == guards:  # m divides lcm_i
                break
        else:
            minimal.append(lcm_i)
            i = first[lcm_i]
            if i is not None:  # one pair per minimal lcm
                alive[(i, t)] = lcm_i
                new.append((i, lcm_i))
    return new


def _groebner(basis: Sequence[_Binomial], order: TermOrder) -> List[_Binomial]:
    """The reduced basis of the ideal generated by `basis`."""
    basis = _Filed(basis, order)
    guards = basis.guards
    leads = [g.lead for g in basis]  # basis[k].lead, kept beside the basis
    heap: List[tuple] = []
    alive = {}  # (i, j) -> lcm of the two leads, pairs not yet discarded

    def add_generator_pairs(t: int):
        for i, lcm_i in _update_pairs(leads, t, alive, guards):
            heapq.heappush(heap, (lcm_i % _FIELD, _key(lcm_i, order) if order.block else -lcm_i, i, t))

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
            leads.append(r.lead)
            add_generator_pairs(len(basis) - 1)

    return _reduced(basis, order)


def _move(m: int, s: int, t: int) -> int:
    """`m` with the field at slot s moved to slot t: the span of slots from
    s to t rotates by one, the fields between shifting towards s."""
    lo, k = min(s, t), abs(t - s) * _WIDTH
    mask = (1 << (k + _WIDTH)) - 1  # the span's fields
    span = (m >> (lo * _WIDTH)) & mask
    if s < t:
        moved = span >> _WIDTH | (span & _FIELD) << k
    else:
        moved = (span << _WIDTH) & mask | span >> k
    return m ^ (span ^ moved) << (lo * _WIDTH)


def saturate(
    gens: Sequence[CellPolynomial], variables: Sequence[int], by: Optional[Sequence[int]] = None
) -> List[CellPolynomial]:
    """Reduced grevlex(`variables`) basis of the saturation of a homogeneous
    binomial ideal by the product of `by`, all of `variables` by default.

    A basis with one variable last, divided by that variable's powers, spans
    the saturation by it (Sturmfels, Groebner Bases and Convex Polytopes,
    ch. 12), so the steps take the variables of `by` in the order of
    `variables`, each last in its turn; `toricideal.saturation_cells` says
    which cells a toric ideal needs.  Consecutive orders differ only in
    which variable sits last, so the fields between the two slots shift by
    one.  `by` must hold the last of `variables`, whose step leaves the
    basis in grevlex(`variables`).  A variable repeated in `variables` or in
    `by`, one of `by` outside `variables`, or a `by` without the last
    variable raises InputError before any step.  `MAX_PAIRS` holds per
    step."""
    size = require_polynomials(gens, "generators")
    order = TermOrder.grevlex(variables)
    names = order.variables
    n = len(names)
    steps = names
    if by is not None:
        check_distinct(by, "the saturating product")
        for v in by:
            if v not in steps:
                raise InputError(f"variable {v} is outside the term order")
        if names and names[-1] not in by:
            raise InputError(f"the saturating product must hold the last variable {names[-1]}")
        steps = [v for v in steps if v in by]
    basis = _encode(gens, order)
    if any(g.rise for g in basis):
        raise InvariantViolationError("saturation shortcut requires homogeneous generators")
    top = (n - 1) * _WIDTH  # the last variable's field
    slot = n - 1  # the slot in `names` of the variable that sits last
    for v in steps:
        to = names.index(v)
        order = TermOrder.grevlex_last(names, v)
        basis = [_binomial(_move(_move(g.lead, n - 1, slot), to, n - 1),
                           _move(_move(g.tail, n - 1, slot), to, n - 1), order) for g in basis]
        slot = to
        basis = _groebner(basis, order)
        # a homogeneous grevlex lead has the lower power of the last variable
        divided = []
        for g in basis:
            power = (g.lead >> top) << top
            divided.append(_binomial(g.lead - power, g.tail - power, order))
        basis = divided
    return _decode(_reduced(basis, order), order, size)


def reduce_basis(basis: Sequence[CellPolynomial], order: TermOrder) -> List[CellPolynomial]:
    """Minimalize and tail-reduce a binomial Groebner basis; output is the
    reduced basis, monic, deterministically sorted by leading monomial."""
    size = require_polynomials(basis, "basis elements")
    return _decode(_reduced(_encode(basis, order), order), order, size)


def _reduced(basis: Sequence[_Binomial], order: TermOrder) -> List[_Binomial]:
    # drop duplicates and any generator whose leading monomial another divides
    minimal = _Filed((), order)
    for g in sorted(basis, key=lambda g: _key(g.lead, order)):
        if _first_divisor(g.lead, minimal) is None:
            minimal.append(g)
    # no other lead divides a minimal lead, so tail reduction keeps every
    # lead and the basis stays sorted by leading term.  Every term met while
    # reducing g's tail is below g's lead in the order, so g's own lead,
    # which divides only terms at or above it, is never the reducer: reducing
    # by all of `minimal` is reducing by the others
    return [_binomial(g.lead, _reduce(g.tail, minimal), order) for g in minimal]
