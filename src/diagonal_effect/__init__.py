"""Diagonal-effect models for square contingency tables.

Exact-rational parametrizations (toric and mixture), model invariants with
exact vanishing checks, membership classification between the two forms,
Markov-basis fiber sampling with exact conditional tests, and toric ideal
recomputation from design matrices.

Importing the package loads none of its submodules.  Each exported name
loads its submodule on first use (PEP 562) and is then bound here, as the
very object the submodule holds.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# every submodule, with the names the package exports from it
_EXPORTS = {
    "errors": (
        "BudgetExceededError",
        "ConvergenceError",
        "DiagonalEffectError",
        "InputError",
        "InvariantViolationError",
        "SizeMismatchError",
    ),
    "tables": (
        "CountTable",
        "ModelFamily",
        "ModelForm",
        "ModelSpec",
        "Move",
        "ProbTable",
        "SufficientStat",
        "apply_move",
        "likelihood",
        "normalize",
        "sufficient_statistic",
    ),
    "params": (
        "MixtureParams",
        "Normalizers",
        "ToricParams",
        "common_diagonal_fit",
        "expected_counts",
        "mixture_point",
        "normalizers",
        "quasi_independence_fit",
        "random_rational_point",
        "toric_point",
    ),
    "polynomials": ("CellPolynomial", "TermOrder"),
    "invariants": (
        "Invariant",
        "VanishingReport",
        "check_vanishing",
        "gens_common_mixture_families",
        "gens_common_mixture_listed3",
        "gens_common_toric_listed3",
        "gens_diag_effect",
        "gens_independence",
        "moves_to_binomials",
        "nonvanishing_variants_report",
    ),
    "moves": ("moves_common_diag", "moves_diag_effect", "moves_for_model"),
    "fibers": ("ConnectivityReport", "Fiber", "enumerate_fiber", "is_connected"),
    "walk": ("Stationary", "WalkConfig", "fiber_walk"),
    "markov": (
        "SweepReport",
        "TestResult",
        "exact_test",
        "exact_test_chains",
        "pearson_statistic",
        "verify_connectivity",
    ),
    "membership": (
        "BoundaryReport",
        "BoundaryVerdict",
        "MembershipVerdict",
        "ToricOnlyCase",
        "VerdictKind",
        "boundary_membership_check",
        "classify_toric_point",
        "mixture_to_toric",
    ),
    "toricideal": (
        "DesignMatrix",
        "design_matrix",
        "ideal_equal",
        "integer_kernel",
        "lattice_binomials",
        "toric_ideal",
        "transpose_apply",
    ),
    "groebner": (),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
