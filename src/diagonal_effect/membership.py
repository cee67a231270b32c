"""Membership of toric points in the mixture model, with exact witnesses.

For a strictly positive toric point the comparison of the two normalizing
constants N and N_T decides everything: N_T < N excludes a mixture
representation outright; N_T = N forces a pure rank-one table; N_T > N
admits a mixture representation exactly when every diagonal parameter is
at least one, in which case the witness is unique and constructed in
closed form.  Boundary points fall outside that trichotomy and get a
support-pattern necessary-condition check instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .errors import InputError, InvariantViolationError
from .invariants import check_vanishing, gens_diag_effect
from .params import (
    MixtureParams,
    Normalizers,
    ToricParams,
    mixture_point,
    toric_numerators,
    toric_point,
)
from .tables import ProbTable, require_instance


class VerdictKind(Enum):
    IN_BOTH_WITH_WITNESS = "InBothWithWitness"
    TORIC_ONLY = "ToricOnly"


class ToricOnlyCase(Enum):
    """Which exclusion clause fired, in the order they are usually cited."""

    NORMALIZER_DEFICIT = "i"            # N_T < N
    EQUAL_WITH_NONUNIT_DIAGONAL = "ii"  # N_T = N, some diagonal parameter != 1
    EXCESS_WITH_SMALL_DIAGONAL = "iii"  # N_T > N, some diagonal parameter < 1


@dataclass(frozen=True)
class MembershipVerdict:
    kind: VerdictKind
    case: Optional[ToricOnlyCase]
    witness: Optional[MixtureParams]
    norms: Normalizers


def classify_toric_point(params: ToricParams) -> MembershipVerdict:
    """Decide whether a strictly positive toric point admits a mixture form.

    Requires every parameter entry strictly positive (the interior case).
    When a witness exists it is returned and verified: recomposing it
    reproduces the toric probability table cell for cell, exactly.
    """
    if not require_instance(params, ToricParams, "params").is_strictly_positive():
        raise InputError(
            "classification needs strictly positive parameters; "
            "use boundary_membership_check for tables with zero cells"
        )
    I = params.size
    # N = n/AB and N_T = T/ABC, so N_T - N = E/ABC and zeta_g[i] - 1 = (c_i - C)/C
    a, b, c, C, n, T, norms = toric_numerators(params)
    E = T - n * C

    if E < 0:
        return MembershipVerdict(VerdictKind.TORIC_ONLY, ToricOnlyCase.NORMALIZER_DEFICIT, None, norms)

    sum_a, sum_b = sum(a), sum(b)
    r = tuple(Fraction(x, sum_a) for x in a)
    col = tuple(Fraction(x, sum_b) for x in b)

    if E == 0:
        if any(ci != C for ci in c):
            return MembershipVerdict(
                VerdictKind.TORIC_ONLY, ToricOnlyCase.EQUAL_WITH_NONUNIT_DIAGONAL, None, norms
            )
        # pure independence: alpha = 1, any d works; fix the uniform one
        witness = MixtureParams(alpha=Fraction(1), r=r, c=col, d=(Fraction(1, I),) * I)
        return _verified(params, witness, norms)

    if any(ci < C for ci in c):
        return MembershipVerdict(
            VerdictKind.TORIC_ONLY, ToricOnlyCase.EXCESS_WITH_SMALL_DIAGONAL, None, norms
        )
    # alpha = N/N_T = nC/T and d_i = zeta_r[i] zeta_c[i] (zeta_g[i] - 1) / (N_T - N)
    d = tuple(Fraction(a[i] * b[i] * (c[i] - C), E) for i in range(I))
    witness = MixtureParams(alpha=Fraction(n * C, T), r=r, c=col, d=d)
    return _verified(params, witness, norms)


def _verified(params: ToricParams, witness: MixtureParams, norms: Normalizers) -> MembershipVerdict:
    table, _ = toric_point(params)
    if mixture_point(witness) != table:
        raise InvariantViolationError("witness does not recompose to the toric point")
    return MembershipVerdict(VerdictKind.IN_BOTH_WITH_WITNESS, None, witness, norms)


def mixture_to_toric(params: MixtureParams) -> ToricParams:
    """Closed-form toric parameters of a strictly positive mixture point.

    zeta_r = r, zeta_c = alpha * c, and the diagonal parameters absorb the
    diagonal surplus; the resulting toric normalizer is exactly 1, so the
    toric point equals the mixture point cell for cell.
    """
    if require_instance(params, MixtureParams, "params").alpha.numerator == 0:
        raise InputError("alpha = 0 has no toric representation (pure diagonal table)")
    if any(x.numerator == 0 for x in params.r) or any(x.numerator == 0 for x in params.c):
        raise InputError("mixture_to_toric needs strictly positive r and c")
    # alpha = p/q, so zeta_g[i] = 1 + (q - p) d_i / (p r_i c_i), written
    # over the product of d_i's, r_i's and c_i's own denominators
    p, q = params.alpha.numerator, params.alpha.denominator
    zeta_g = []
    for d, r, c in zip(params.d, params.r, params.c):
        den = p * d.denominator * r.numerator * c.numerator
        zeta_g.append(Fraction(den + (q - p) * d.numerator * r.denominator * c.denominator, den))
    zeta_c = tuple(Fraction(p * x.numerator, q * x.denominator) for x in params.c)
    return ToricParams(zeta_r=params.r, zeta_c=zeta_c, zeta_g=tuple(zeta_g))


class BoundaryVerdict(Enum):
    RULED_OUT_M1 = "RuledOutM1"
    RULED_OUT_M2 = "RuledOutM2"
    RULED_OUT_BOTH = "RuledOutBoth"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class BoundaryReport:
    verdict: BoundaryVerdict
    invariants_vanish: bool
    toric_exclusions: tuple    # cells whose zero pattern excludes the toric form
    mixture_exclusions: tuple  # diagonal indices whose zero pattern excludes the mixture form


def boundary_membership_check(P: ProbTable) -> BoundaryReport:
    """Necessary-condition support checks for tables with zero cells.

    A zero diagonal cell with nonzero row and column cannot come from the
    mixture form (such a table is never diagonal); a zero off-diagonal
    cell with nonzero row and column cannot come from the toric form.
    Strictly positive tables are inconclusive here; classify a
    parametrization instead.
    """
    I = require_instance(P, ProbTable, "P").size
    nums = P.nums  # cell (i, j) is nums[i * I + j] / P.den
    rows_nonzero = [any(nums[i * I:(i + 1) * I]) for i in range(I)]
    cols_nonzero = [any(nums[j::I]) for j in range(I)]

    mixture_exclusions = [i + 1 for i in range(I)
                          if nums[i * (I + 1)] == 0 and rows_nonzero[i] and cols_nonzero[i]]
    toric_exclusions = [(i + 1, j + 1) for i in range(I) for j in range(I)
                        if i != j and nums[i * I + j] == 0 and rows_nonzero[i] and cols_nonzero[j]]

    if I >= 3:
        vanish = check_vanishing(gens_diag_effect(I), P).all_zero
    else:
        vanish = True  # no invariants below I = 3

    if toric_exclusions and mixture_exclusions:
        verdict = BoundaryVerdict.RULED_OUT_BOTH
    elif toric_exclusions:
        verdict = BoundaryVerdict.RULED_OUT_M1
    elif mixture_exclusions:
        verdict = BoundaryVerdict.RULED_OUT_M2
    else:
        verdict = BoundaryVerdict.INCONCLUSIVE
    return BoundaryReport(
        verdict=verdict,
        invariants_vanish=vanish,
        toric_exclusions=tuple(toric_exclusions),
        mixture_exclusions=tuple(mixture_exclusions),
    )
