"""The exact point arithmetic against a plain-`Fraction` oracle.

`params` and `membership` compute model points on integer numerators over
common denominators.  The oracle below is the textbook formula, one
`Fraction` operation at a time: N = sum zeta_r * sum zeta_c, cells
zeta_r[i] zeta_c[j] (times zeta_g[i] on the diagonal) over N_T, mixture
cells alpha r_i c_j plus (1 - alpha) d_i on the diagonal, and the closed
forms of the membership witness.  Each result must have the oracle's
`repr`, so its values, types and reduced forms agree, and every rejected
input must raise the same `InputError` with the same message.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diagonal_effect import (
    InputError,
    MixtureParams,
    ProbTable,
    ToricParams,
    mixture_point,
    normalizers,
    toric_point,
)
from diagonal_effect.membership import (
    MembershipVerdict,
    ToricOnlyCase,
    VerdictKind,
    classify_toric_point,
    mixture_to_toric,
)
from diagonal_effect.params import Normalizers


class Q(Fraction):
    """A Fraction subclass: accepted as exact, stored as a plain Fraction."""


# --------------------------------------------------------------------------
# the oracle
# --------------------------------------------------------------------------

def oracle_normalizers(p: ToricParams) -> Normalizers:
    n = sum(p.zeta_r) * sum(p.zeta_c)
    excess = sum(p.zeta_r[i] * p.zeta_c[i] * (p.zeta_g[i] - 1) for i in range(p.size))
    return Normalizers(N=n, N_T=n + excess)


def oracle_toric_point(p: ToricParams):
    norms = oracle_normalizers(p)
    if norms.N_T <= 0:
        raise InputError("degenerate parameters: N_T must be positive")
    rows = []
    for i, zr in enumerate(p.zeta_r):
        scale = zr / norms.N_T
        row = [scale * zc for zc in p.zeta_c]
        row[i] *= p.zeta_g[i]
        rows.append(tuple(row))
    return ProbTable(size=p.size, cells=tuple(rows)), norms


def oracle_mixture_point(p: MixtureParams) -> ProbTable:
    a = p.alpha
    rows = []
    for i, r in enumerate(p.r):
        scale = a * r
        row = [scale * c for c in p.c]
        row[i] += (1 - a) * p.d[i]
        rows.append(tuple(row))
    return ProbTable(size=p.size, cells=tuple(rows))


def oracle_mixture_to_toric(p: MixtureParams) -> ToricParams:
    if p.alpha == 0:
        raise InputError("alpha = 0 has no toric representation (pure diagonal table)")
    if any(x == 0 for x in p.r) or any(x == 0 for x in p.c):
        raise InputError("mixture_to_toric needs strictly positive r and c")
    a = p.alpha
    zeta_g = tuple(1 + (1 - a) * p.d[i] / (a * p.r[i] * p.c[i]) for i in range(p.size))
    return ToricParams(zeta_r=p.r, zeta_c=tuple(a * x for x in p.c), zeta_g=zeta_g)


def oracle_classify(p: ToricParams) -> MembershipVerdict:
    if not all(x > 0 for vec in (p.zeta_r, p.zeta_c, p.zeta_g) for x in vec):
        raise InputError(
            "classification needs strictly positive parameters; "
            "use boundary_membership_check for tables with zero cells"
        )
    I = p.size
    norms = oracle_normalizers(p)
    n, nt = norms.N, norms.N_T
    if nt < n:
        return MembershipVerdict(VerdictKind.TORIC_ONLY, ToricOnlyCase.NORMALIZER_DEFICIT, None, norms)
    r = tuple(x / sum(p.zeta_r) for x in p.zeta_r)
    c = tuple(x / sum(p.zeta_c) for x in p.zeta_c)
    if nt == n:
        if any(g != 1 for g in p.zeta_g):
            return MembershipVerdict(
                VerdictKind.TORIC_ONLY, ToricOnlyCase.EQUAL_WITH_NONUNIT_DIAGONAL, None, norms)
        witness = MixtureParams(alpha=Fraction(1), r=r, c=c, d=tuple(Fraction(1, I) for _ in range(I)))
    elif any(g < 1 for g in p.zeta_g):
        return MembershipVerdict(
            VerdictKind.TORIC_ONLY, ToricOnlyCase.EXCESS_WITH_SMALL_DIAGONAL, None, norms)
    else:
        d = tuple(p.zeta_r[i] * p.zeta_c[i] * (p.zeta_g[i] - 1) / (nt - n) for i in range(I))
        witness = MixtureParams(alpha=n / nt, r=r, c=c, d=d)
    assert oracle_mixture_point(witness) == oracle_toric_point(p)[0]
    return MembershipVerdict(VerdictKind.IN_BOTH_WITH_WITNESS, None, witness, norms)


def outcome(fn, *args) -> str:
    """The repr of what `fn` returns, or the type and message of the
    InputError it raises."""
    try:
        return repr(fn(*args))
    except InputError as exc:
        return f"{type(exc).__name__}: {exc}"


# --------------------------------------------------------------------------
# inputs: zeros, ints, unreduced and large denominators, Fraction subclasses
# --------------------------------------------------------------------------

BIG = 10 ** 30


@st.composite
def entries(draw, positive: bool = False):
    low = 1 if positive else 0
    kind = draw(st.sampled_from(("int", "small", "unreduced", "large", "subclass")))
    if kind == "int":
        return draw(st.integers(low, 40))
    if kind == "large":
        return Fraction(draw(st.integers(low, BIG)), draw(st.integers(1, BIG)))
    num, den = draw(st.integers(low, 60)), draw(st.integers(1, 60))
    if kind == "unreduced":
        k = draw(st.integers(2, 12))
        return Fraction(num * k, den * k)
    return Q(num, den) if kind == "subclass" else Fraction(num, den)


def vectors(size: int, positive: bool = False):
    return st.lists(entries(positive), min_size=size, max_size=size).map(tuple)


@st.composite
def toric_params(draw, positive: bool = False):
    size = draw(st.integers(1, 5))
    zeta_r, zeta_c = draw(vectors(size, positive)), draw(vectors(size, positive))
    assume(any(zeta_r) and any(zeta_c))
    # diagonal parameters near 1 reach every membership case
    near_one = st.sampled_from((1, 2, Fraction(1, 2), Q(3, 2), Fraction(10, 10)))
    zeta_g = tuple(draw(st.one_of(entries(positive), near_one)) for _ in range(size))
    return ToricParams(zeta_r=zeta_r, zeta_c=zeta_c, zeta_g=zeta_g)


@st.composite
def probability_vectors(draw, size: int, positive: bool = False):
    weights = draw(st.lists(st.integers(1 if positive else 0, draw(st.sampled_from((9, BIG)))),
                            min_size=size, max_size=size))
    assume(any(weights))
    total = sum(weights)
    out = []
    for w in weights:
        x = Fraction(w, total)
        style = draw(st.sampled_from(("plain", "subclass", "unreduced")))
        if x.denominator == 1:
            out.append(x.numerator)
        elif style == "subclass":
            out.append(Q(x))
        elif style == "unreduced":
            out.append(Fraction(x.numerator * 7, x.denominator * 7))
        else:
            out.append(x)
    return tuple(out)


@st.composite
def mixture_params(draw, positive: bool = False):
    size = draw(st.integers(1, 5))
    alpha = draw(st.one_of(st.sampled_from((0, 1, Q(1, 3))),
                           st.builds(Fraction, st.integers(0, 97), st.just(97)),
                           st.builds(Fraction, st.integers(0, BIG), st.just(BIG))))
    r, c = draw(probability_vectors(size, positive)), draw(probability_vectors(size, positive))
    return MixtureParams(alpha=alpha, r=r, c=c, d=draw(probability_vectors(size)))


# --------------------------------------------------------------------------
# agreement
# --------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(toric_params())
@example(ToricParams(zeta_r=(1, 0), zeta_c=(1, 0), zeta_g=(0, 0)))  # N_T = 0
@example(ToricParams(zeta_r=(Fraction(1, 3),) * 3, zeta_c=(Fraction(1, 2),) * 3, zeta_g=(0, 0, 0)))
def test_toric_point_matches_oracle(p):
    assert repr(normalizers(p)) == repr(oracle_normalizers(p))
    assert outcome(toric_point, p) == outcome(oracle_toric_point, p)


@settings(max_examples=150, deadline=None)
@given(mixture_params())
def test_mixture_point_matches_oracle(p):
    assert repr(mixture_point(p)) == repr(oracle_mixture_point(p))


@settings(max_examples=150, deadline=None)
@given(mixture_params())
@example(MixtureParams(alpha=0, r=(Fraction(1, 2),) * 2, c=(Fraction(1, 2),) * 2, d=(1, 0)))
@example(MixtureParams(alpha=Fraction(1, 2), r=(1, 0), c=(Fraction(1, 2),) * 2, d=(1, 0)))
def test_mixture_to_toric_matches_oracle(p):
    assert outcome(mixture_to_toric, p) == outcome(oracle_mixture_to_toric, p)


@settings(max_examples=150, deadline=None)
@given(mixture_params(positive=True))
def test_mixture_round_trip_matches_oracle(p):
    assume(p.alpha != 0)
    ours, ref = mixture_to_toric(p), oracle_mixture_to_toric(p)
    assert outcome(toric_point, ours) == outcome(oracle_toric_point, ref)


@settings(max_examples=150, deadline=None)
@given(st.one_of(toric_params(positive=True), toric_params()))
# N_T = N with a diagonal parameter other than 1: case ii
@example(ToricParams(zeta_r=(1, 1, 1), zeta_c=(1, 1, 1), zeta_g=(2, Fraction(1, 2), Fraction(1, 2))))
@example(ToricParams(zeta_r=(1, 1, 1), zeta_c=(1, 1, 1), zeta_g=(1, 1, 1)))  # pure independence
@example(ToricParams(zeta_r=(1, 1, 1), zeta_c=(1, 1, 1), zeta_g=(2, 2, 2)))  # a witness
@example(ToricParams(zeta_r=(1, 1, 1), zeta_c=(1, 1, 1), zeta_g=(2, 1, Fraction(1, 2))))  # case iii
@example(ToricParams(zeta_r=(1, 1), zeta_c=(1, 1), zeta_g=(Fraction(1, 2), 1)))  # case i
def test_classify_matches_oracle(p):
    assert outcome(classify_toric_point, p) == outcome(oracle_classify, p)


def test_oracle_reaches_every_case():
    verdicts = [oracle_classify(ToricParams(zeta_r=(1, 1, 1), zeta_c=(1, 1, 1), zeta_g=g))
                for g in ((2, Fraction(1, 2), Fraction(1, 2)), (1, 1, 1), (2, 2, 2),
                          (2, 1, Fraction(1, 2)), (Fraction(1, 2), 1, 1))]
    assert [(v.kind.value, v.case and v.case.value) for v in verdicts] == [
        ("ToricOnly", "ii"), ("InBothWithWitness", None), ("InBothWithWitness", None),
        ("ToricOnly", "iii"), ("ToricOnly", "i")]


# --------------------------------------------------------------------------
# the rejected inputs keep their messages
# --------------------------------------------------------------------------

half = Fraction(1, 2)
MIX = dict(alpha=half, r=(half, half), c=(half, half), d=(half, half))
TOR = dict(zeta_r=(1, 2), zeta_c=(1, 2), zeta_g=(1, 1))


@pytest.mark.parametrize("build, message", [
    (lambda: ToricParams(**{**TOR, "zeta_r": (1, -1)}), "zeta_r has a negative entry"),
    (lambda: ToricParams(**{**TOR, "zeta_g": (Fraction(-1, 3), 1)}), "zeta_g has a negative entry"),
    (lambda: ToricParams(**{**TOR, "zeta_r": (0, Fraction(0, 5))}),
     "zeta_r is identically zero; table cannot be normalized"),
    (lambda: ToricParams(**{**TOR, "zeta_c": (0, 0)}),
     "zeta_c is identically zero; table cannot be normalized"),
    (lambda: ToricParams(**{**TOR, "zeta_r": (1, True)}), "zeta_r[1] is not an int or a Fraction: True"),
    (lambda: ToricParams(**{**TOR, "zeta_c": (0.5, 1)}), "zeta_c[0] is not an int or a Fraction: 0.5"),
    (lambda: toric_point(ToricParams(zeta_r=(1, 0), zeta_c=(1, 0), zeta_g=(0, 0))),
     "degenerate parameters: N_T must be positive"),
    (lambda: MixtureParams(**{**MIX, "r": (Fraction(3, 2), -half)}), "r has a negative entry"),
    (lambda: MixtureParams(**{**MIX, "c": (half, Fraction(1, 3))}), "c must sum to exactly 1"),
    (lambda: MixtureParams(**{**MIX, "d": (Fraction(10 ** 5000 + 1, 10 ** 5000), 0)}),
     "d must sum to exactly 1"),
    (lambda: MixtureParams(**{**MIX, "alpha": Fraction(3, 2)}), "alpha must lie in [0,1], got 3/2"),
    (lambda: MixtureParams(**{**MIX, "alpha": -1}), "alpha must lie in [0,1], got -1"),
    (lambda: MixtureParams(**{**MIX, "alpha": False}), "alpha is not an int or a Fraction: False"),
    (lambda: MixtureParams(**{**MIX, "d": (0.5, 0.5)}), "d[0] is not an int or a Fraction: 0.5"),
    (lambda: MixtureParams(**{**MIX, "r": (half, half, 0)}), "r, c, d must share one length"),
    (lambda: ProbTable(size=1, cells=((Fraction(-1),),)), "probability at (1,1) is negative: -1"),
])
def test_rejected_inputs_keep_their_messages(build, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()


def test_exact_fractions_are_kept_and_others_become_fractions():
    x = Fraction(2, 3)
    params = ToricParams(zeta_r=(x, 1), zeta_c=(Q(1, 2), 3), zeta_g=(1, x))
    assert params.zeta_r[0] is x and params.zeta_g[1] is x
    assert all(type(v) is Fraction for v in params.zeta_r + params.zeta_c + params.zeta_g)
