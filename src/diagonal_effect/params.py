"""Model parametrizations, normalizing constants, and fitted expected counts.

The toric form uses three nonnegative parameter vectors (row, column,
diagonal); the mixture form blends a rank-one table with a diagonal table.
All points are exact.  Each parameter vector is held as integer numerators
over the lcm of its denominators, and the point arithmetic runs on those
integers.  A point leaves as its cell numerators over one denominator,
both divided by their gcd, which is the stored form of `ProbTable`: no
cell `Fraction` exists until its `cells` are read.  The cells read back
and the normalizers are the values, types and reduced forms that one
`Fraction` operation at a time gives, at one gcd per point (and one per
cell read) instead of one per operation.  The iterative proportional fit
at the bottom is the one deliberately floating-point computation: its
limit is irrational in general, and it only feeds the chi-square
statistic of the exact tests, never the exact algebra.  It is one
trace-constrained fit; the diagonal-effect fit is its trace-0 case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .errors import ConvergenceError, InputError
from .tables import (
    CountTable,
    ModelFamily,
    ModelForm,
    ModelSpec,
    ProbTable,
    _point,
    over_lcm,
    require_instance,
    require_int,
    require_rational,
    require_sequence,
    require_sized,
)

IPF_TOLERANCE = 1e-10
IPF_MAX_SWEEPS = 10_000

# Random rational points draw numerators uniformly from 1..100 over a fixed
# prime denominator: strictly positive, and coefficient growth in downstream
# exact evaluations stays bounded.
_RAND_NUM_MAX = 100
_RAND_DEN = 101


def _fraction_vector(values: Sequence, name: str) -> tuple:
    return tuple(v if v.__class__ is Fraction else Fraction(require_rational(v, f"{name}[{k}]"))
                 for k, v in enumerate(require_sequence(values, name)))


@dataclass(frozen=True)
class ToricParams:
    """Parameters (zeta_r, zeta_c, zeta_g) of the toric form.

    Off-diagonal cells get zeta_r[i]*zeta_c[j]; diagonal cells pick up the
    extra factor zeta_g[i].  For the common-diagonal variant all entries of
    zeta_g are equal.
    """

    zeta_r: tuple
    zeta_c: tuple
    zeta_g: tuple

    def __post_init__(self):
        object.__setattr__(self, "zeta_r", _fraction_vector(self.zeta_r, "zeta_r"))
        object.__setattr__(self, "zeta_c", _fraction_vector(self.zeta_c, "zeta_c"))
        object.__setattr__(self, "zeta_g", _fraction_vector(self.zeta_g, "zeta_g"))
        if not (len(self.zeta_r) == len(self.zeta_c) == len(self.zeta_g)):
            raise InputError("zeta vectors must share one length")
        for name, vec in (("zeta_r", self.zeta_r), ("zeta_c", self.zeta_c), ("zeta_g", self.zeta_g)):
            if any(x.numerator < 0 for x in vec):
                raise InputError(f"{name} has a negative entry")
        if not any(x.numerator for x in self.zeta_r):
            raise InputError("zeta_r is identically zero; table cannot be normalized")
        if not any(x.numerator for x in self.zeta_c):
            raise InputError("zeta_c is identically zero; table cannot be normalized")

    @property
    def size(self) -> int:
        return len(self.zeta_r)

    def is_strictly_positive(self) -> bool:
        return all(x.numerator > 0 for vec in (self.zeta_r, self.zeta_c, self.zeta_g) for x in vec)

    def has_common_diagonal(self) -> bool:
        return len(set(self.zeta_g)) == 1


@dataclass(frozen=True)
class MixtureParams:
    """Parameters (alpha, r, c, d) of the mixture form.

    r, c, d are probability vectors; the table is alpha * (r c outer
    product) plus (1-alpha) on the diagonal d.  The common-diagonal variant
    fixes d to the uniform vector.
    """

    alpha: Fraction
    r: tuple
    c: tuple
    d: tuple

    def __post_init__(self):
        if self.alpha.__class__ is not Fraction:
            object.__setattr__(self, "alpha", Fraction(require_rational(self.alpha, "alpha")))
        object.__setattr__(self, "r", _fraction_vector(self.r, "r"))
        object.__setattr__(self, "c", _fraction_vector(self.c, "c"))
        object.__setattr__(self, "d", _fraction_vector(self.d, "d"))
        if not (0 <= self.alpha.numerator <= self.alpha.denominator):
            raise InputError(f"alpha must lie in [0,1], got {self.alpha}")
        if not (len(self.r) == len(self.c) == len(self.d)):
            raise InputError("r, c, d must share one length")
        for name, vec in (("r", self.r), ("c", self.c), ("d", self.d)):
            if any(x.numerator < 0 for x in vec):
                raise InputError(f"{name} has a negative entry")
            numerators, den = over_lcm(vec)
            if sum(numerators) != den:
                # no value in the message: an exact sum can pass the digit limit of str()
                raise InputError(f"{name} must sum to exactly 1")

    @property
    def size(self) -> int:
        return len(self.r)

    def has_common_diagonal(self) -> bool:
        I = self.size
        return all(x == Fraction(1, I) for x in self.d)


@dataclass(frozen=True)
class Normalizers:
    """N = sum zeta_r_i zeta_c_j; N_T = same sum with the diagonal factors."""

    N: Fraction
    N_T: Fraction


def toric_numerators(params: ToricParams) -> tuple:
    """(a, b, c, C, n, T, Normalizers) with zeta_r = a/A, zeta_c = b/B and
    zeta_g = c/C over lcm denominators, n = sum(a) sum(b) and
    T = n C + sum_i a_i b_i (c_i - C), so that N = n/AB and N_T = T/ABC."""
    a, A = over_lcm(require_instance(params, ToricParams, "params").zeta_r)
    b, B = over_lcm(params.zeta_c)
    c, C = over_lcm(params.zeta_g)
    n = sum(a) * sum(b)
    T = n * C + sum(ai * bi * (ci - C) for ai, bi, ci in zip(a, b, c))
    return a, b, c, C, n, T, Normalizers(N=Fraction(n, A * B), N_T=Fraction(T, A * B * C))


def normalizers(params: ToricParams) -> Normalizers:
    """Exact normalizing constants of the toric parametrization."""
    *_, norms = toric_numerators(params)
    return norms


def toric_point(params: ToricParams) -> Tuple[ProbTable, Normalizers]:
    """The normalized probability table of the toric parametrization.

    Raw cells are zeta_r[i]*zeta_c[j] off the diagonal and
    zeta_r[i]*zeta_c[i]*zeta_g[i] on it; dividing by N_T puts the point in
    the probability simplex.  Over the common denominators of
    `toric_numerators` cell (i, j) is a_i b_j C / T, and a_i b_i c_i / T on
    the diagonal.  So every cell is over the one denominator T, checked
    positive below, and is nonnegative since a, b, c >= 0 and C > 0.  The
    numerators sum to C sum(a) sum(b) + sum_i a_i b_i (c_i - C), which is T
    by its definition, so the cells sum to exactly 1 and the table is built
    without re-checking that.
    """
    a, b, c, C, _, T, norms = toric_numerators(params)
    if T <= 0:
        raise InputError("degenerate parameters: N_T must be positive")
    I = params.size
    bC = [bj * C for bj in b]
    nums = [ai * x for ai in a for x in bC]
    for i in range(I):
        nums[i * (I + 1)] = a[i] * b[i] * c[i]
    return _point(I, nums, T), norms


def mixture_point(params: MixtureParams) -> ProbTable:
    """alpha * rank-one table + (1 - alpha) * diagonal table, exactly.

    With alpha = p/q, r = rho/R, c = gamma/G and d = delta/D over lcm
    denominators, every cell is a numerator over q R G D: p rho_i gamma_j D,
    plus (q - p) delta_i R G on the diagonal.  Every cell is nonnegative,
    since 0 <= p <= q and rho, gamma, delta >= 0.  As sum(rho) = R,
    sum(gamma) = G and sum(delta) = D, the numerators sum to
    p R G D + (q - p) D R G = q R G D, so the cells sum to exactly 1 and
    the table is built without re-checking that.
    """
    p, q = require_instance(params, MixtureParams, "params").alpha.numerator, params.alpha.denominator
    rho, R = over_lcm(params.r)
    gamma, G = over_lcm(params.c)
    delta, D = over_lcm(params.d)
    I = params.size
    gammaD = [x * p * D for x in gamma]
    nums = [ri * x for ri in rho for x in gammaD]
    for i in range(I):
        nums[i * (I + 1)] += (q - p) * delta[i] * R * G
    return _point(I, nums, q * R * G * D)


def random_rational_point(model: ModelSpec, seed: int) -> Union[ToricParams, MixtureParams]:
    """Deterministic-in-seed strictly positive parameters for `model`."""
    require_instance(model, ModelSpec, "model")
    require_int(seed, "seed")
    # String seeding is hashed with sha512 by random.seed and therefore
    # stable across processes, unlike tuple seeding.
    rng = random.Random(
        f"rational-point|{model.family.value}|{model.form.value}|{model.size}|{seed}"
    )
    I = model.size

    def raw():
        return Fraction(rng.randint(1, _RAND_NUM_MAX), _RAND_DEN)

    def raw_vector():
        return tuple(raw() for _ in range(I))

    def simplex_vector():
        # the draws of raw_vector, each over their sum: the same Fractions
        v = [rng.randint(1, _RAND_NUM_MAX) for _ in range(I)]
        s = sum(v)
        return tuple(Fraction(x, s) for x in v)

    if model.form is ModelForm.TORIC:
        zeta_r = raw_vector()
        zeta_c = raw_vector()
        if model.family is ModelFamily.COMMON_DIAGONAL_EFFECT:
            g = raw()
            zeta_g = tuple(g for _ in range(I))
        elif model.family is ModelFamily.INDEPENDENCE:
            zeta_g = tuple(Fraction(1) for _ in range(I))
        else:
            zeta_g = raw_vector()
        return ToricParams(zeta_r=zeta_r, zeta_c=zeta_c, zeta_g=zeta_g)

    alpha = Fraction(rng.randint(1, _RAND_NUM_MAX), _RAND_DEN)
    r = simplex_vector()
    c = simplex_vector()
    if model.family is ModelFamily.COMMON_DIAGONAL_EFFECT:
        d = (Fraction(1, I),) * I
    else:
        d = simplex_vector()
    return MixtureParams(alpha=alpha, r=r, c=c, d=d)


def _trace_constrained_support(rows, cols, diag_total) -> set:
    """Cells that can be positive given row/column margins and a fixed trace.

    Over the real polytope the trace ranges over
    [max(0, max_k(rows_k + cols_k - S)), sum_k min(rows_k, cols_k)];
    a cell is in the support iff shaving epsilon off its margins (and off
    the trace, for a diagonal cell) keeps the target trace in that range.

    At trace 0 this is Gale's condition for the transportation polytope
    with a forbidden diagonal: the off-diagonal block with margins
    (rows, cols) is feasible iff rows_k + cols_k <= S for every k, so cell
    (i, j) can carry positive mass iff rows_i, cols_j > 0 and every other
    index still satisfies the inequality after the transfer, i.e. strictly.
    """
    I = len(rows)
    S = sum(rows)
    excess = [rows[k] + cols[k] - S for k in range(I)]
    trace_max = sum(min(rows[k], cols[k]) for k in range(I))
    supp = set()
    for i in range(I):
        if rows[i] == 0:
            continue
        for j in range(I):
            if cols[j] == 0:
                continue
            if i == j:
                if diag_total > 0 and all(excess[k] < diag_total for k in range(I) if k != i):
                    supp.add((i, j))
            else:
                if diag_total == trace_max and not (rows[i] > cols[i] and cols[j] > rows[j]):
                    continue
                if all(excess[k] < diag_total for k in range(I) if k not in (i, j)):
                    supp.add((i, j))
    return supp


def _fsum(values) -> float:
    # Left to right, the order of the pinned fits (numpy's on rows of up to
    # 7 cells); the built-in sum() compensates from Python 3.12 on and would
    # change the last bits.
    s = 0.0
    for v in values:
        s += v
    return s


def _scale(lines, targets) -> list:
    """Scale each line (a row, or a column of the transposed table) to its target."""
    out = []
    for line, t in zip(lines, targets):
        s = _fsum(line)
        if s > 0.0:
            factor = t / s
            line = [v * factor for v in line]
        elif t != 0.0:
            raise ConvergenceError(f"cannot fit a positive margin of {t} over an all-zero stratum")
        out.append(line)
    return out


def _ipf(rows, cols, trace) -> List[List[float]]:
    """Iterative proportional fit to row margins, column margins and trace.

    Cells that no table with these margins can make positive are removed
    up front; without that reduction the scaling limit can sit on the
    model boundary and margin gaps decay only like 1/sweeps.  At trace 0
    the diagonal stays 0.0, so the diagonal step neither scales nor raises.
    """
    I = len(rows)
    support = _trace_constrained_support(rows, cols, trace)
    row_targets, col_targets = [float(x) for x in rows], [float(x) for x in cols]
    diag_target = float(trace)
    e = [[float((i, j) in support) for j in range(I)] for i in range(I)]

    for _ in range(IPF_MAX_SWEEPS):
        e = _scale(e, row_targets)
        e = [list(row) for row in zip(*_scale(zip(*e), col_targets))]
        dsum = _fsum(e[i][i] for i in range(I))
        if dsum > 0.0:
            factor = diag_target / dsum
            for i in range(I):
                e[i][i] *= factor
        elif diag_target != 0.0:
            raise ConvergenceError("cannot fit a positive diagonal total over a zero diagonal")
        margins = [*zip(e, row_targets), *zip(zip(*e), col_targets),
                   ([e[i][i] for i in range(I)], diag_target)]
        if max(abs(_fsum(line) - t) for line, t in margins) < IPF_TOLERANCE:
            return e
    raise ConvergenceError(f"IPF did not converge within {IPF_MAX_SWEEPS} sweeps")


def quasi_independence_fit(table: CountTable) -> List[List[float]]:
    """Expected counts under the diagonal-effect (quasi-independence) model.

    The diagonal counts are sufficient, so the fitted diagonal equals the
    observed one; off-diagonal cells are fitted to the off-diagonal row and
    column margins at trace 0.
    """
    diag = require_instance(table, CountTable, "table").diag_vector()
    e = _ipf([r - d for r, d in zip(table.row_margins(), diag)],
             [c - d for c, d in zip(table.col_margins(), diag)], 0)
    for i, d in enumerate(diag):
        e[i][i] = float(d)
    return e


def common_diagonal_fit(table: CountTable) -> List[List[float]]:
    """Expected counts fitted to row margins, column margins, and the
    diagonal total (common-diagonal-effect model)."""
    return _ipf(require_instance(table, CountTable, "table").row_margins(), table.col_margins(), table.diag_sum())


def expected_counts(table: CountTable, model: ModelSpec) -> List[List[float]]:
    """The model's fitted expected counts for `table`, a list of rows."""
    require_sized(table, CountTable, "table", require_instance(model, ModelSpec, "model").size, "model")
    if model.form is not ModelForm.TORIC:
        raise InputError("expected-count fits exist only for toric-form models")
    if model.family is ModelFamily.DIAGONAL_EFFECT:
        return quasi_independence_fit(table)
    if model.family is ModelFamily.COMMON_DIAGONAL_EFFECT:
        return common_diagonal_fit(table)
    raise InputError(f"no expected-count fit implemented for {model.family.value}")
