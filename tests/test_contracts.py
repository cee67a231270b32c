"""Cross-module contract checks that don't belong to a single module."""

import importlib
import inspect
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagonal_effect
from diagonal_effect import (
    CellPolynomial,
    CountTable,
    DiagonalEffectError,
    InputError,
    Invariant,
    MixtureParams,
    ModelFamily,
    ModelForm,
    ModelSpec,
    ProbTable,
    SizeMismatchError,
    Stationary,
    SufficientStat,
    TermOrder,
    ToricParams,
    WalkConfig,
    apply_move,
    boundary_membership_check,
    check_vanishing,
    classify_toric_point,
    common_diagonal_fit,
    design_matrix,
    enumerate_fiber,
    exact_test,
    exact_test_chains,
    expected_counts,
    fiber_walk,
    gens_independence,
    is_connected,
    likelihood,
    mixture_point,
    mixture_to_toric,
    moves_for_model,
    moves_to_binomials,
    nonvanishing_variants_report,
    normalize,
    normalizers,
    pearson_statistic,
    quasi_independence_fit,
    random_rational_point,
    sufficient_statistic,
    toric_point,
    verify_connectivity,
)
from diagonal_effect.cli import parse_count_table, parse_params
from diagonal_effect.markov import moves_common_diag, moves_diag_effect
from diagonal_effect.polynomials import binomial_from_vector

from conftest import model, random_count_table


class TestMovePreservation:
    def test_statistic_preserved_up_to_size_6(self):
        rng = random.Random("preserve-6")
        for I in (4, 5, 6):
            for family, moves in (
                (ModelFamily.DIAGONAL_EFFECT, moves_diag_effect(I)),
                (ModelFamily.COMMON_DIAGONAL_EFFECT, moves_common_diag(I)),
            ):
                m = model(family, I)
                for _ in range(5):
                    t = random_count_table(rng, I, rng.randint(4, 12))
                    before = sufficient_statistic(t, m)
                    for move in moves:
                        out = apply_move(t, move, 1)
                        if out is not None:
                            assert sufficient_statistic(out, m) == before

    def test_apply_then_undo(self):
        rng = random.Random("undo")
        moves = moves_common_diag(3)
        for _ in range(30):
            t = random_count_table(rng, 3, rng.randint(3, 9))
            for move in moves:
                mid = apply_move(t, move, 1)
                if mid is not None:
                    assert apply_move(mid, move, -1) == t


class TestStructuralZeroDiagonal:
    def test_fiber_never_touches_diagonal(self):
        # the diagonal-effect statistic fixes every diagonal count
        m = ModelSpec(ModelFamily.DIAGONAL_EFFECT, ModelForm.TORIC, 3)
        t = CountTable.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        fiber = enumerate_fiber(sufficient_statistic(t, m), m)
        assert len(fiber) >= 1
        for member in fiber.tables:
            assert member.diag_vector() == (0, 0, 0)


class TestUnitGammaIsIndependence:
    def test_all_minors_vanish_and_table_factors(self):
        for seed in range(20):
            params = random_rational_point(model(ModelFamily.INDEPENDENCE, 3), seed)
            assert params.zeta_g == (1, 1, 1)
            table, _ = toric_point(params)
            for inv in gens_independence(3):
                assert inv.poly.evaluate(table) == 0
            # a rank-one table factors into its margins
            r = [sum(row) for row in table.cells]
            c = [sum(col) for col in zip(*table.cells)]
            assert all(
                r[i] * c[j] == table.cells[i][j] for i in range(3) for j in range(3)
            )


class TestSerializationRoundTrips:
    def test_csv_round_trip(self):
        rng = random.Random("csv")
        for _ in range(10):
            t = random_count_table(rng, 3, rng.randint(0, 12))
            text = "\n".join(",".join(str(x) for x in row) for row in t.cells)
            assert parse_count_table(text) == t

    def test_params_json_round_trip(self):
        mix = parse_params(json.dumps(
            {"alpha": "3/4", "r": ["1/3"] * 3, "c": ["1/3"] * 3, "d": ["1/3"] * 3}
        ))
        text = json.dumps({
            "alpha": str(mix.alpha),
            "r": [str(x) for x in mix.r],
            "c": [str(x) for x in mix.c],
            "d": [str(x) for x in mix.d],
        })
        assert parse_params(text) == mix
        toric = parse_params(json.dumps(
            {"zeta_r": ["2", "1", "1"], "zeta_c": [1, 1, 3], "zeta_gamma": ["1/2", "2", "1"]}
        ))
        text = json.dumps({
            "zeta_r": [str(x) for x in toric.zeta_r],
            "zeta_c": [str(x) for x in toric.zeta_c],
            "zeta_gamma": [str(x) for x in toric.zeta_g],
        })
        assert parse_params(text) == toric


def test_import_leaves_numpy_unloaded():
    # The package and its CLI depend on the standard library only.
    src = str(Path(diagonal_effect.__file__).resolve().parents[1])
    code = "import sys, diagonal_effect, diagonal_effect.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_groebner_resolves_to_the_engine_module():
    # no package export shadows the submodule of the same name
    assert diagonal_effect.groebner is importlib.import_module("diagonal_effect.groebner")
    for removed in ("GroebnerBasis", "in_ideal"):
        assert not hasattr(diagonal_effect, removed)
    assert not hasattr(diagonal_effect.groebner, "normal_form")


_TABLE = CountTable.from_rows([[1, 2, 3], [2, 1, 2], [3, 1, 1]])
_COMMON3 = model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3)
_STAT = sufficient_statistic(_TABLE, _COMMON3)
_COMMON4 = model(ModelFamily.COMMON_DIAGONAL_EFFECT, 4)
_TABLE4 = CountTable.from_rows([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 1, 0], [0, 1, 0, 1]])
_UNIFORM = WalkConfig(steps=10, stationary=Stationary.UNIFORM)


@pytest.mark.parametrize("call, message", [
    # integer counts with a floor
    pytest.param(lambda: enumerate_fiber(_STAT, _COMMON3, -1),
                 "node_budget must be an integer of at least 0, got -1", id="enumerate_fiber-node_budget"),
    pytest.param(lambda: WalkConfig(steps=0),
                 "steps must be an integer of at least 1, got 0", id="WalkConfig-steps"),
    pytest.param(lambda: WalkConfig(steps=10, burn_in=-1),
                 "burn_in must be an integer of at least 0, got -1", id="WalkConfig-burn_in"),
    pytest.param(lambda: WalkConfig(steps=10, thinning=0),
                 "thinning must be an integer of at least 1, got 0", id="WalkConfig-thinning"),
    pytest.param(lambda: exact_test(_TABLE, _COMMON3, WalkConfig(steps=10), node_budget=1.5),
                 "node_budget must be an integer of at least 0, got 1.5", id="exact_test-node_budget"),
    pytest.param(lambda: exact_test_chains(_TABLE, _COMMON3, WalkConfig(steps=10), True),
                 "chains must be an integer of at least 1, got True", id="exact_test_chains-chains"),
    pytest.param(lambda: verify_connectivity(ModelFamily.DIAGONAL_EFFECT, 3, -1),
                 "max_n must be an integer of at least 0, got -1", id="verify_connectivity-max_n"),
    pytest.param(lambda: ModelSpec(ModelFamily.DIAGONAL_EFFECT, ModelForm.TORIC, 1),
                 "table size must be an integer of at least 2, got 1", id="ModelSpec-size"),
    # instances of a class
    pytest.param(lambda: ModelSpec("diag", ModelForm.TORIC, 3),
                 "family must be a ModelFamily, got 'diag'", id="ModelSpec-family"),
    pytest.param(lambda: ModelSpec(ModelFamily.DIAGONAL_EFFECT, "toric", 3),
                 "form must be a ModelForm, got 'toric'", id="ModelSpec-form"),
    pytest.param(lambda: WalkConfig(steps=10, stationary="uniform"),
                 "stationary must be a Stationary, got 'uniform'", id="WalkConfig-stationary"),
    pytest.param(lambda: random_rational_point("common", 0),
                 "model must be a ModelSpec, got 'common'", id="random_rational_point-model"),
    pytest.param(lambda: moves_for_model("common"), "model must be a ModelSpec, got 'common'",
                 id="moves_for_model"),
    pytest.param(lambda: normalize(None), "table must be a CountTable, got None", id="normalize"),
    pytest.param(lambda: quasi_independence_fit(None), "table must be a CountTable, got None",
                 id="quasi_independence_fit"),
    pytest.param(lambda: common_diagonal_fit(None), "table must be a CountTable, got None",
                 id="common_diagonal_fit"),
    pytest.param(lambda: is_connected(None, moves_common_diag(3)), "fiber must be a Fiber, got None",
                 id="is_connected-fiber"),
    pytest.param(lambda: boundary_membership_check(_TABLE),
                 f"P must be a ProbTable, got {_TABLE!r}", id="boundary_membership_check"),
    pytest.param(lambda: mixture_point(None), "params must be a MixtureParams, got None",
                 id="mixture_point"),
    pytest.param(lambda: mixture_to_toric(None), "params must be a MixtureParams, got None",
                 id="mixture_to_toric"),
    pytest.param(lambda: classify_toric_point(None), "params must be a ToricParams, got None",
                 id="classify_toric_point"),
    pytest.param(lambda: toric_point(None), "params must be a ToricParams, got None", id="toric_point"),
    pytest.param(lambda: normalizers(None), "params must be a ToricParams, got None", id="normalizers"),
    pytest.param(lambda: sufficient_statistic(_TABLE.cells, _COMMON3),
                 f"table must be a CountTable, got {_TABLE.cells!r}", id="sufficient_statistic-table"),
    pytest.param(lambda: apply_move(_TABLE, None), "move must be a Move, got None", id="apply_move-move"),
    pytest.param(lambda: likelihood(_TABLE, _TABLE), f"prob must be a ProbTable, got {_TABLE!r}",
                 id="likelihood-prob"),
    pytest.param(lambda: enumerate_fiber(_TABLE, _COMMON3),
                 f"statistic must be a SufficientStat, got {_TABLE!r}", id="enumerate_fiber-stat"),
    pytest.param(lambda: pearson_statistic("x", [[1.0]]), "observed grid is not a sequence: got str",
                 id="pearson_statistic-grid"),
    pytest.param(lambda: pearson_statistic([[1]], [None]), "expected row is not a sequence: got NoneType",
                 id="pearson_statistic-row"),
    # move lists
    pytest.param(lambda: moves_to_binomials([*moves_common_diag(3), "m"]),
                 "a move list holds Move objects, got 'm'", id="moves_to_binomials"),
    pytest.param(lambda: is_connected(enumerate_fiber(_STAT, _COMMON3), [*moves_common_diag(3), "m"]),
                 "a move list holds Move objects, got 'm'", id="is_connected"),
    # raises no other test reaches
    pytest.param(lambda: moves_for_model(model(ModelFamily.INDEPENDENCE, 3)),
                 "no move factory for independence", id="moves_for_model-independence"),
    pytest.param(lambda: exact_test(_TABLE, _COMMON3, method="x"), "unknown method 'x'",
                 id="exact_test-method"),
    pytest.param(lambda: exact_test_chains(_TABLE, _COMMON3, _UNIFORM, 2),
                 "the sampling test requires the hypergeometric stationary law", id="exact_test_chains-uniform"),
    pytest.param(lambda: ToricParams((1, 1), (1, 1), (1,)), "zeta vectors must share one length",
                 id="ToricParams-lengths"),
    pytest.param(lambda: expected_counts(_TABLE, model(ModelFamily.INDEPENDENCE, 3)),
                 "no expected-count fit implemented for independence", id="expected_counts-independence"),
    pytest.param(lambda: normalize(CountTable.from_rows([[0, 0], [0, 0]])),
                 "cannot normalize an all-zero count table", id="normalize-zero"),
    pytest.param(lambda: SufficientStat(ModelFamily.INDEPENDENCE, (1, 1), (1, 1), 0),
                 "independence statistic carries no diagonal component", id="SufficientStat-independence"),
    # a mixture-form model has no sufficient statistic, so no fiber
    pytest.param(lambda: sufficient_statistic(CountTable.from_rows([[1, 0], [0, 1]]),
                                              model(ModelFamily.INDEPENDENCE, 2, ModelForm.MIXTURE)),
                 "sufficient statistics exist only for toric-form models", id="sufficient_statistic-mixture"),
    pytest.param(lambda: enumerate_fiber(_STAT, model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3, ModelForm.MIXTURE)),
                 "sufficient statistics exist only for toric-form models", id="enumerate_fiber-mixture"),
])
def test_one_message_per_rule(call, message):
    # each rule has one implementation in `tables`, so each site prints its message
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: exact_test("x", _COMMON3), "table must be a CountTable, got 'x'", id="exact_test-table"),
    pytest.param(lambda: exact_test(_TABLE, "common"), "model must be a ModelSpec, got 'common'",
                 id="exact_test-model"),
    pytest.param(lambda: exact_test(_TABLE, _COMMON3, "x", method="mcmc"), "config must be a WalkConfig, got 'x'",
                 id="exact_test-config"),
    # the walk checks its arguments when it is called, before any state is asked for
    pytest.param(lambda: fiber_walk("x", moves_common_diag(3), WalkConfig(steps=10)),
                 "start must be a CountTable, got 'x'", id="fiber_walk-start"),
    pytest.param(lambda: fiber_walk(_TABLE, moves_common_diag(3), None),
                 "config must be a WalkConfig, got None", id="fiber_walk-config"),
    pytest.param(lambda: fiber_walk(_TABLE, [*moves_common_diag(3), "m"], WalkConfig(steps=10)),
                 "a move list holds Move objects, got 'm'", id="fiber_walk-moves"),
    pytest.param(lambda: exact_test_chains(_TABLE, _COMMON3, None, 2), "config must be a WalkConfig, got None",
                 id="exact_test_chains-config"),
    pytest.param(lambda: exact_test_chains(_TABLE.cells, _COMMON3, WalkConfig(steps=10), 2),
                 f"table must be a CountTable, got {_TABLE.cells!r}", id="exact_test_chains-table"),
])
def test_walk_entry_points_check_their_arguments(call, message):
    # one instance check per argument, where the call enters the package
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: sufficient_statistic(_TABLE, _COMMON4), "table size 3 != model size 4",
                 id="sufficient_statistic"),
    pytest.param(lambda: expected_counts(_TABLE, _COMMON4), "table size 3 != model size 4",
                 id="expected_counts"),
    pytest.param(lambda: enumerate_fiber(_STAT, _COMMON4), "statistic size 3 != model size 4",
                 id="enumerate_fiber"),
    pytest.param(lambda: apply_move(_TABLE, moves_common_diag(4)[0]),
                 "table size 3 != move size 4", id="apply_move"),
    pytest.param(lambda: likelihood(normalize(_TABLE4), _TABLE), "prob size 4 != table size 3",
                 id="likelihood"),
    pytest.param(lambda: is_connected(enumerate_fiber(_STAT, _COMMON3), moves_common_diag(4)),
                 "move size 4 != table size 3", id="is_connected"),
    pytest.param(lambda: fiber_walk(_TABLE, moves_common_diag(4), WalkConfig(steps=10)),
                 "move size 4 != table size 3", id="fiber_walk"),
])
def test_one_size_rule(call, message):
    # `tables.require_sized` is the one check that two arguments share a table size
    with pytest.raises(SizeMismatchError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: CellPolynomial.from_cell_terms(2, [(1, 5)]), "cells is not a sequence: got int",
                 id="from_cell_terms-cells"),
    pytest.param(lambda: CellPolynomial.from_cell_terms(2, [(1, [(1, 2, 1)])]),
                 "a cell is an (i, j) pair, got (1, 2, 1)", id="from_cell_terms-cell"),
    pytest.param(lambda: pearson_statistic([[None]], [[1.0]]),
                 "observed count must be an integer of at least 0, got None", id="pearson_statistic-observed"),
    pytest.param(lambda: pearson_statistic([[1]], [["1"]]), "expected count must be a float or an int, got '1'",
                 id="pearson_statistic-expected"),
    pytest.param(lambda: check_vanishing([Invariant("a", None)], ProbTable(2, _QUARTERS)),
                 "the poly of item 1 must be a CellPolynomial, got None", id="check_vanishing-poly"),
])
def test_entries_inside_arguments_are_checked(call, message):
    # the junk probe fills argument slots; these entries sit one level inside
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


def _cell_map(size: int) -> dict:
    return {(i, j): Fraction(1, size * size) for i in range(1, size + 1) for j in range(1, size + 1)}


@pytest.mark.parametrize("call", [
    pytest.param(lambda P: _MINOR2.evaluate(P), id="evaluate"),
    pytest.param(lambda P: check_vanishing([_MINOR2], P), id="check_vanishing"),
    pytest.param(lambda P: nonvanishing_variants_report(P), id="nonvanishing_variants_report"),
])
def test_a_point_is_a_prob_table(call):
    # a {(i, j): value} mapping is no point, whatever its size; a table of
    # another size than the polynomials is a size mismatch
    for size in (2, 3):
        with pytest.raises(InputError, match=r"^point must be a ProbTable, got \{\(1, 1\): Fraction\(1, "):
            call(_cell_map(size))
    with pytest.raises(SizeMismatchError, match=r"^polynomial over (\d)x\1 cells, table is 4x4$"):
        call(normalize(_TABLE4))


@pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(2), Fraction(0), 0.5, 2.0], ids=repr)
@pytest.mark.parametrize("build", [
    pytest.param(lambda c: CellPolynomial(2, {(0,): c}), id="CellPolynomial"),
    pytest.param(lambda c: CellPolynomial.from_cell_terms(2, [(c, [(1, 1)])]), id="from_cell_terms"),
])
def test_a_coefficient_is_an_int(build, coeff):
    # an integral Fraction is no int either: every polynomial has int coefficients
    with pytest.raises(InputError, match=f"^coefficient must be an integer, got {re.escape(repr(coeff))}$"):
        build(coeff)


# the junk of the public-API probe; 7 and the other valid sizes are left
# out, since `gens_common_mixture_families(7)` alone builds 37,450 polynomials
JUNK = [None, "x", 1.5, -1, 0, True, [], [[1]], {}, object(), float("nan")]

# the names of `__all__` the probe leaves out
EXEMPT = {
    # exceptions
    "BudgetExceededError", "ConvergenceError", "DiagonalEffectError", "InputError", "InvariantViolationError",
    "SizeMismatchError",
    # Enums, whose lookup raises ValueError by Python's contract
    "BoundaryVerdict", "ModelFamily", "ModelForm", "Stationary", "ToricOnlyCase", "VerdictKind",
    # the records the package returns, which keep the fields they are given
    "BoundaryReport", "ConnectivityReport", "DesignMatrix", "Fiber", "Invariant", "MembershipVerdict",
    "Normalizers", "SweepReport", "TestResult", "VanishingReport",
}

_INDEPENDENCE2 = model(ModelFamily.INDEPENDENCE, 2)
_A2 = design_matrix(_INDEPENDENCE2)
_MINOR2 = binomial_from_vector([1, -1, -1, 1], 2)
_ORDER2 = TermOrder.grevlex(range(4))
_QUARTERS = ((Fraction(1, 4),) * 2,) * 2
_HALVES = (Fraction(1, 2),) * 2
_TORIC = ToricParams((1, 1, 1), (1, 1, 1), (2, 2, 2))
_MIXTURE = MixtureParams(Fraction(1, 2), _HALVES, _HALVES, _HALVES)

# each public entry point with valid arguments, any one of which the probe
# replaces by junk
VALID = {
    "CellPolynomial": (2, {(0,): 1}),
    "CellPolynomial.from_cell_terms": (2, [(1, [(1, 1)])]),
    "CountTable": (2, ((1, 0), (0, 1))),
    "CountTable.from_rows": ([[1, 0], [0, 1]],),
    "MixtureParams": (Fraction(1, 2), _HALVES, _HALVES, _HALVES),
    "ModelSpec": (ModelFamily.DIAGONAL_EFFECT, ModelForm.TORIC, 3),
    "Move": (2, ((1, -1), (-1, 1))),
    "Move.from_rows": ([[1, -1], [-1, 1]],),
    "ProbTable": (2, _QUARTERS),
    "ProbTable.from_rows": (_QUARTERS,),
    "SufficientStat": (ModelFamily.COMMON_DIAGONAL_EFFECT, (1, 1), (1, 1), 1),
    "TermOrder": ((0, 1), 0),
    "TermOrder.elimination": ((0,), (1,)),
    "TermOrder.grevlex": ((0, 1),),
    "TermOrder.grevlex_last": ((0, 1), 0),
    "ToricParams": ((1, 1), (1, 1), (1, 1)),
    "WalkConfig": (10, 2, 1, 0, Stationary.HYPERGEOMETRIC),
    "apply_move": (_TABLE, moves_common_diag(3)[0], 1),
    "boundary_membership_check": (normalize(_TABLE),),
    "check_vanishing": ([_MINOR2], ProbTable(2, _QUARTERS)),
    "classify_toric_point": (_TORIC,),
    "common_diagonal_fit": (_TABLE,),
    "design_matrix": (_INDEPENDENCE2,),
    "enumerate_fiber": (_STAT, _COMMON3),
    "exact_test": (_TABLE, _COMMON3),
    "exact_test_chains": (_TABLE, _COMMON3, WalkConfig(steps=10), 2),
    "expected_counts": (_TABLE, _COMMON3),
    "fiber_walk": (_TABLE, moves_common_diag(3), WalkConfig(steps=10)),
    "gens_common_mixture_families": (3,),
    "gens_common_mixture_listed3": (),
    "gens_common_toric_listed3": (),
    "gens_diag_effect": (3,),
    "gens_independence": (3,),
    "groebner.buchberger": ([_MINOR2], _ORDER2),
    "groebner.reduce_basis": ([_MINOR2], _ORDER2),
    "groebner.saturate": ([_MINOR2], range(4), [3]),
    "ideal_equal": ([_MINOR2], [_MINOR2]),
    "integer_kernel": (_A2,),
    "is_connected": (enumerate_fiber(_STAT, _COMMON3), moves_common_diag(3)),
    "lattice_binomials": (_A2,),
    "likelihood": (normalize(_TABLE), _TABLE),
    "mixture_point": (_MIXTURE,),
    "mixture_to_toric": (_MIXTURE,),
    "moves_common_diag": (3,),
    "moves_diag_effect": (3,),
    "moves_for_model": (_COMMON3,),
    "moves_to_binomials": (moves_diag_effect(3),),
    "nonvanishing_variants_report": (None,),
    "normalize": (_TABLE,),
    "normalizers": (_TORIC,),
    "pearson_statistic": (_TABLE.cells, expected_counts(_TABLE, _COMMON3)),
    "quasi_independence_fit": (_TABLE,),
    "random_rational_point": (_COMMON3, 0),
    "sufficient_statistic": (_TABLE, _COMMON3),
    "toric_ideal": (_INDEPENDENCE2, "saturation"),
    "toric_point": (_TORIC,),
    "transpose_apply": (_A2, CountTable.from_rows([[1, 0], [0, 1]])),
    "verify_connectivity": (ModelFamily.DIAGONAL_EFFECT, 3, 2),
}


def _entry_points() -> dict:
    """Each public callable by the name a caller reaches it under: the
    names of `__all__` that are neither exempt nor a submodule, the public
    classmethods of its classes, and the functions of a submodule that
    exports no name, which a caller reaches through the submodule."""
    names = [name for name in diagonal_effect.__all__ if name not in EXEMPT]
    values = {name: getattr(diagonal_effect, name) for name in names}
    exported = {value.__module__ for value in values.values() if not inspect.ismodule(value)}
    found = {}
    for name, value in values.items():
        if inspect.ismodule(value):
            if value.__name__ not in exported:
                found.update((f"{name}.{key}", fn) for key, fn in vars(value).items()
                             if inspect.isfunction(fn) and fn.__module__ == value.__name__ and key[0] != "_")
            continue
        found[name] = value
        if inspect.isclass(value):
            found.update((f"{name}.{key}", getattr(value, key)) for key, fn in vars(value).items()
                         if isinstance(fn, classmethod) and key[0] != "_")
    return found


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(JUNK))
def test_public_entry_points_raise_only_package_errors_on_junk(junk):
    entry_points = _entry_points()
    # a new entry point fails here until it has valid arguments, and then below until it checks them
    assert sorted(entry_points) == sorted(VALID)
    for name, fn in entry_points.items():
        args = VALID[name]
        for slot in range(len(args)):
            call = [*args[:slot], junk, *args[slot + 1:]]
            try:
                fn(*call)
            except DiagonalEffectError:
                pass
            except Exception as exc:
                pytest.fail(f"{name} with {junk!r} in slot {slot}: {type(exc).__name__}: {exc}")
