"""Diagonal-effect models for square contingency tables.

Exact-rational parametrizations (toric and mixture), model invariants with
exact vanishing checks, membership classification between the two forms,
Markov-basis fiber sampling with exact conditional tests, and toric ideal
recomputation from design matrices.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    ConvergenceError,
    DiagonalEffectError,
    InputError,
    InvariantViolationError,
    SizeMismatchError,
)
from .tables import (
    CountTable,
    ModelFamily,
    ModelForm,
    ModelSpec,
    Move,
    ProbTable,
    SufficientStat,
    apply_move,
    likelihood,
    normalize,
    sufficient_statistic,
    zero_support_cells,
)
from .params import (
    MixtureParams,
    Normalizers,
    ToricParams,
    common_diagonal_fit,
    expected_counts,
    independence_factorize,
    mixture_point,
    normalizers,
    quasi_independence_fit,
    random_rational_point,
    toric_point,
)
from .polynomials import CellPolynomial, TermOrder
from .invariants import (
    Invariant,
    VanishingReport,
    check_vanishing,
    gens_common_mixture_families,
    gens_common_mixture_listed3,
    gens_common_toric_listed3,
    gens_diag_effect,
    gens_independence,
    listed_mixture_term_counts,
    moves_to_binomials,
    nonvanishing_variants_report,
)
from .markov import (
    ConnectivityReport,
    Fiber,
    Stationary,
    SweepReport,
    TestResult,
    WalkConfig,
    enumerate_fiber,
    exact_test,
    exact_test_chains,
    fiber_walk,
    is_connected,
    moves_common_diag,
    moves_diag_effect,
    moves_for_model,
    pearson_statistic,
    verify_connectivity,
)
from .membership import (
    BoundaryReport,
    BoundaryVerdict,
    MembershipVerdict,
    ToricOnlyCase,
    VerdictKind,
    boundary_membership_check,
    classify_toric_point,
    mixture_to_toric,
    toric_params_from_table,
)
from .toricideal import (
    DesignMatrix,
    design_matrix,
    ideal_equal,
    integer_kernel,
    lattice_binomials,
    toric_ideal,
    transpose_apply,
)

__all__ = [name for name in dir() if not name.startswith("_")]
