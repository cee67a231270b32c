"""The Buchberger engine's pair update and filed divisor search against the
plain scans they replace, at sizes the I = 2, 3 differential tests never
reach.

`reference_update` is the pair update as it was: every new lcm compared
with every other lcm, and the chain criterion over a copy of the live
pairs.  `groebner._update_pairs` must keep the same new pairs and leave the
same live pairs, for 50 to 400 random packed leads.  The order in which
the new pairs come back does not matter: the heap orders pairs by (degree,
key, i, j), which no two pairs share.  Reduction through `_Filed` must give
the plain first-divisor scan's normal form for bases of 1 to 200
elements, the minimalization the plain scan's reduced basis, and a whole
run the reference engine's S-pairs, remainders and basis.  The joint
reduction of an S-binomial's two terms must give the remainder of
`reference_s_remainder`, which reduces each term to its normal form on
its own.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagonal_effect import BudgetExceededError, CellPolynomial, TermOrder, groebner

from test_groebner_reference import _run_both
from test_toricideal import count_divisor_searches

W = groebner._WIDTH


def reference_update(leads, t, alive, guards):
    """The quadratic pair update: `alive` loses the chain-criterion pairs
    and gains the kept pairs (i, t), which are returned as (i, lcm)."""
    lt = leads[t]
    lcms = [groebner._lcm(a, lt, guards) for a in leads[:t]]
    for (i, j), lcm_ij in list(alive.items()):
        if ((lcm_ij | guards) - lt) & guards == guards:  # lt divides lcm_ij
            if lcm_ij not in (lcms[i], lcms[j]):
                del alive[(i, j)]
    keep = []
    for i, lcm_i in enumerate(lcms):
        if lcm_i == leads[i] + lt:
            continue  # coprime leads
        lcm_i_g = lcm_i | guards
        if any((lcm_i_g - lcm_j) & guards == guards and lcm_j != lcm_i for lcm_j in lcms):
            continue  # properly divisible lcm
        if any(lcms[j] == lcm_i for j in keep):
            continue  # one representative per lcm
        keep.append(i)
    for i in keep:
        alive[(i, t)] = lcms[i]
    return [(i, lcms[i]) for i in keep]


def _random_monomial(rng, n, top, density):
    """A packed monomial over n fields, each nonzero with chance `density`
    and then at most `top`."""
    return sum(rng.randint(1, top) << (k * W) for k in range(n) if rng.random() < density)


def _random_leads(rng, n, count, top, density):
    """`count` nonconstant packed leads; about one in ten repeats an
    earlier lead, so that equal lcms are common."""
    leads = []
    while len(leads) < count:
        if leads and rng.random() < 0.1:
            leads.append(rng.choice(leads))
        elif lead := _random_monomial(rng, n, top, density):
            leads.append(lead)
    return leads


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 25), count=st.integers(50, 400), top=st.integers(1, 3),
       density=st.sampled_from([0.1, 0.25, 0.5]), seed=st.integers(0, 2**32 - 1))
def test_pair_update_matches_the_quadratic_scan(n, count, top, density, seed):
    rng = random.Random(seed)
    leads = _random_leads(rng, n, count, top, density)
    guards = groebner._guards(TermOrder.grevlex(range(n)))
    # live pairs among the leads before the last three, as a run would
    # leave some of them, then the updates for the last three leads
    start = count - 3
    pairs = {(i, j) for _ in range(2 * count) for i, j in [sorted(rng.sample(range(start), 2))]}
    alive = {(i, j): groebner._lcm(leads[i], leads[j], guards) for i, j in sorted(pairs)}
    theirs = dict(alive)
    for t in range(start, count):
        got = groebner._update_pairs(leads, t, alive, guards)
        want = reference_update(leads, t, theirs, guards)
        assert sorted(got) == sorted(want)
        assert alive == theirs


def _order(kind, variables):
    if kind == "grevlex":
        return TermOrder.grevlex(variables)
    if kind == "grevlex_last":
        return TermOrder.grevlex_last(variables, variables[len(variables) // 2])
    return TermOrder.elimination(variables[:2], variables[2:])


def reference_reduce(m, basis, guards):
    """The plain scan: while some lead divides x^m, the first in basis
    order replaces it by its tail."""
    while True:
        for lead, tail, _ in basis:
            if ((m | guards) - lead) & guards == guards:  # lead divides m
                m = m - lead + tail
                break
        else:
            return m


def reference_reduced(basis, order):
    """The minimalization and tail reduction by plain scans: leads in
    increasing order, each kept unless a kept lead divides it, then every
    kept tail reduced by the kept elements."""
    guards = groebner._guards(order)
    minimal = []
    for g in sorted(basis, key=lambda g: groebner._key(g.lead, order)):
        if not any(((g.lead | guards) - other.lead) & guards == guards for other in minimal):
            minimal.append(g)
    return [groebner._binomial(g.lead, reference_reduce(g.tail, minimal, guards), order) for g in minimal]


def _random_basis(rng, n, count, top, order):
    """`count` random binomials with nonconstant leads."""
    basis = []
    while len(basis) < count:
        g = groebner._binomial(_random_monomial(rng, n, top, 0.3), _random_monomial(rng, n, top, 0.3), order)
        if g is not None and g.lead:
            basis.append(g)
    return basis


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 25), count=st.integers(1, 200), top=st.integers(1, 2),
       kind=st.sampled_from(["grevlex", "grevlex_last", "elimination"]), seed=st.integers(0, 2**32 - 1))
def test_filed_reduction_matches_the_plain_scan(n, count, top, kind, seed):
    # a random binomial set is seldom a Groebner basis, so a term often has
    # several reducers, and its normal form shows which one was taken
    rng = random.Random(seed)
    order = _order(kind, list(range(n)))
    guards = groebner._guards(order)
    basis = _random_basis(rng, n, count, top, order)
    filed = groebner._Filed(basis, order)
    assert list(filed) == basis and filed.guards == guards
    for _ in range(50):
        m = _random_monomial(rng, n, 2 * top, 0.4)
        assert groebner._reduce(m, filed) == reference_reduce(m, basis, guards)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 25), count=st.integers(1, 120), top=st.integers(1, 2),
       kind=st.sampled_from(["grevlex", "grevlex_last", "elimination"]), seed=st.integers(0, 2**32 - 1))
def test_minimalization_matches_the_plain_scan(n, count, top, kind, seed):
    # about one element in five repeats an earlier lead, and one in five
    # has an earlier lead times a random monomial, so that many leads are
    # dropped as divisible
    rng = random.Random(seed)
    order = _order(kind, list(range(n)))
    basis = _random_basis(rng, n, count, top, order)
    for k in range(1, count):
        roll = rng.random()
        if roll < 0.4:
            lead = rng.choice(basis[:k]).lead + (_random_monomial(rng, n, 1, 0.2) if roll >= 0.2 else 0)
            tail = _random_monomial(rng, n, top, 0.3)
            if groebner._key(tail, order) >= groebner._key(lead, order):
                tail = 0  # the constant 1, below every other term
            basis[k] = groebner._binomial(lead, tail, order)
    assert groebner._reduced(basis, order) == reference_reduced(basis, order)


@st.composite
def binomial_sets(draw):
    """(variables, generators): 4 to 12 homogeneous or inhomogeneous
    binomials of degree at most 3 over the cells of a 3x3 or 4x4 table."""
    size = draw(st.sampled_from([3, 4]))
    variables = draw(st.permutations(range(size * size)))
    monomials = st.lists(st.sampled_from(variables), min_size=1, max_size=3).map(lambda m: tuple(sorted(m)))
    gens = [CellPolynomial(size, {a: 1, b: -1})
            for a, b in draw(st.lists(st.tuples(monomials, monomials), min_size=4, max_size=12)) if a != b]
    return variables, gens


@settings(max_examples=40, deadline=None)
@given(binomial_sets(), st.sampled_from(["grevlex", "grevlex_last", "elimination"]))
def test_filed_run_matches_the_plain_run(case, kind):
    # the reference engine reduces by a plain scan of its basis: the same
    # S-pairs, remainders and basis, or the same error, on 3x3 and 4x4 draws
    variables, gens = case
    ours, theirs = _run_both("buchberger", gens, _order(kind, variables))
    assert ours == theirs


def test_filed_reduction_step_past_a_lowered_limit_raises(monkeypatch):
    # under the block (s, t), s^2 - s*t has lead s^2 and t - x^2 lead t;
    # tail-reducing s*t by t gives s*x^2, of degree 3
    S, T, X = range(3)
    order = TermOrder.elimination([S, T], [X])
    gens = [CellPolynomial(3, {(S, S): 1, (S, T): -1}), CellPolynomial(3, {(T,): 1, (X, X): -1})]
    assert groebner.reduce_basis(gens, order) == [CellPolynomial(3, {(T,): 1, (X, X): -1}),
                                                  CellPolynomial(3, {(S, S): 1, (S, X, X): -1})]
    monkeypatch.setattr(groebner, "MAX_DEGREE", 2)
    with pytest.raises(BudgetExceededError, match="degree 3 passes the engine's limit of 2"):
        groebner.reduce_basis(gens, order)


def reference_s_remainder(f, g, basis, order):
    """The S-remainder with each of its two terms reduced to its normal
    form on its own: the engine's remainder, with no early stop."""
    lcm = groebner._lcm(f.lead, g.lead, basis.guards)
    u = groebner._reduce(lcm - f.lead + f.tail, basis)
    return groebner._binomial(u, groebner._reduce(lcm - g.lead + g.tail, basis), order)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 12), count=st.integers(1, 80), top=st.integers(1, 2),
       kind=st.sampled_from(["grevlex", "grevlex_last", "elimination"]), seed=st.integers(0, 2**32 - 1))
def test_joint_reduction_matches_two_normal_forms(n, count, top, kind, seed):
    # f and g are drawn from the basis and from binomials outside it; on
    # such draws about a quarter of the remainders are zero, and a quarter
    # of those meet at a term that reduces further
    rng = random.Random(seed)
    order = _order(kind, list(range(n)))
    basis = groebner._Filed(_random_basis(rng, n, count, top, order), order)
    others = _random_basis(rng, n, 10, top, order)
    for _ in range(40):
        f, g = (rng.choice(rng.choice((basis, others))) for _ in range(2))
        assert groebner._s_remainder(f, g, basis, order) == reference_s_remainder(f, g, basis, order)


def test_chains_that_meet_stop_before_their_normal_form(monkeypatch):
    # grevlex over (w, x, y, z): the S-binomial of w - x and w - y is x - y,
    # and x - y reduces x to y, where the chains meet; y would reduce on to z
    order = TermOrder.grevlex(range(4))
    w, x, y, z = (1 << (k * W) for k in range(4))
    basis = groebner._Filed([groebner._binomial(x, y, order), groebner._binomial(y, z, order)], order)
    f, g = groebner._binomial(w, x, order), groebner._binomial(w, y, order)
    assert groebner._first_divisor(y, basis) is not None
    calls = count_divisor_searches(monkeypatch)
    assert groebner._s_remainder(f, g, basis, order) is None
    assert len(calls) == 1
    assert reference_s_remainder(f, g, basis, order) is None


# the elimination order of t over (x, y, z): the S-binomial of t*x - t*y and
# x - z is t*y - t*z, whose terms reduce by t - x^3 to a degree-4 term
T_XYZ = TermOrder.elimination([0], [1, 2, 3])
_T, _X, _Y, _Z = (1 << (k * W) for k in range(4))
_F, _G = groebner._binomial(_T + _X, _T + _Y, T_XYZ), groebner._binomial(_X, _Z, T_XYZ)
_RISE = groebner._binomial(_T, 3 * _X, T_XYZ)  # t - x^3


def test_a_step_in_the_shared_tail_is_not_taken(monkeypatch):
    # t*y - t*z reduces t*y to t*z, where the chains meet; their shared
    # step t*z -> x^3*z would pass a limit of 3, but it is never taken
    basis = groebner._Filed([groebner._binomial(_T + _Y, _T + _Z, T_XYZ), _RISE], T_XYZ)
    assert groebner._s_remainder(_F, _G, basis, T_XYZ) is None
    assert reference_s_remainder(_F, _G, basis, T_XYZ) is None
    monkeypatch.setattr(groebner, "MAX_DEGREE", 3)
    calls = count_divisor_searches(monkeypatch)
    assert groebner._s_remainder(_F, _G, basis, T_XYZ) is None
    assert len(calls) == 1
    with pytest.raises(BudgetExceededError, match="degree 4 passes the engine's limit of 3"):
        reference_s_remainder(_F, _G, basis, T_XYZ)


def test_a_joint_step_past_a_lowered_limit_raises(monkeypatch):
    # t*y, the larger term, is reduced first, to x^3*y
    basis = groebner._Filed([_RISE], T_XYZ)
    assert groebner._s_remainder(_F, _G, basis, T_XYZ) == groebner._binomial(3 * _X + _Y, 3 * _X + _Z, T_XYZ)
    monkeypatch.setattr(groebner, "MAX_DEGREE", 3)
    with pytest.raises(BudgetExceededError, match="degree 4 passes the engine's limit of 3"):
        groebner._s_remainder(_F, _G, basis, T_XYZ)
