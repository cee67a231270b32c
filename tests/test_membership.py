import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagonal_effect import (
    BoundaryVerdict,
    CountTable,
    InputError,
    MixtureParams,
    ModelFamily,
    ModelForm,
    ProbTable,
    ToricOnlyCase,
    ToricParams,
    VerdictKind,
    boundary_membership_check,
    check_vanishing,
    classify_toric_point,
    gens_diag_effect,
    mixture_point,
    mixture_to_toric,
    normalize,
    random_rational_point,
    toric_point,
)

from conftest import model

third = Fraction(1, 3)


def _positive(top: int):
    return st.builds(Fraction, st.integers(1, top), st.integers(1, 12))


@st.composite
def positive_toric_params(draw):
    """Strictly positive toric parameters at I = 3..5; diagonal parameters
    reach above and below 1, so every verdict occurs."""
    I = draw(st.integers(3, 5))
    r, c, g = (tuple(draw(st.lists(_positive(top), min_size=I, max_size=I))) for top in (12, 12, 36))
    return ToricParams(zeta_r=r, zeta_c=c, zeta_g=g)


class TestClassifier:
    def test_gamma_two_yields_witness(self):
        params = ToricParams(zeta_r=(1, 1, 1), zeta_c=(1, 1, 1), zeta_g=(2, 2, 2))
        verdict = classify_toric_point(params)
        assert verdict.kind is VerdictKind.IN_BOTH_WITH_WITNESS
        w = verdict.witness
        assert w.alpha == Fraction(3, 4)
        assert w.r == w.c == (third,) * 3
        assert w.d == (third,) * 3
        assert mixture_point(w) == toric_point(params)[0]

    def test_small_gamma_deficit_is_toric_only(self):
        params = ToricParams(zeta_r=(1, 1, 1), zeta_c=(1, 1, 1), zeta_g=(Fraction(1, 2), 1, 1))
        verdict = classify_toric_point(params)
        assert verdict.kind is VerdictKind.TORIC_ONLY
        assert verdict.case is ToricOnlyCase.NORMALIZER_DEFICIT
        assert verdict.norms.N_T == Fraction(17, 2) and verdict.norms.N == 9

    def test_unit_gamma_gives_alpha_one(self):
        params = ToricParams(zeta_r=(1, 2, 3), zeta_c=(3, 2, 1), zeta_g=(1, 1, 1))
        verdict = classify_toric_point(params)
        assert verdict.kind is VerdictKind.IN_BOTH_WITH_WITNESS
        assert verdict.witness.alpha == 1

    def test_equal_normalizers_with_skew_gamma(self):
        # gamma excesses cancel: 1*(g1-1) + 1*(g2-1) + 1*(g3-1) = 0
        params = ToricParams(
            zeta_r=(1, 1, 1), zeta_c=(1, 1, 1), zeta_g=(Fraction(1, 2), Fraction(3, 2), 1)
        )
        verdict = classify_toric_point(params)
        assert verdict.norms.N_T == verdict.norms.N
        assert verdict.case is ToricOnlyCase.EQUAL_WITH_NONUNIT_DIAGONAL

    def test_excess_with_small_gamma_entry(self):
        params = ToricParams(zeta_r=(1, 1, 1), zeta_c=(1, 1, 1), zeta_g=(Fraction(1, 2), 3, 1))
        verdict = classify_toric_point(params)
        assert verdict.norms.N_T > verdict.norms.N
        assert verdict.case is ToricOnlyCase.EXCESS_WITH_SMALL_DIAGONAL

    def test_boundary_params_rejected(self):
        params = ToricParams(zeta_r=(third,) * 3, zeta_c=(Fraction(1, 2),) * 3, zeta_g=(0, 0, 0))
        with pytest.raises(InputError):
            classify_toric_point(params)

    def test_trichotomy_and_witness_exactness(self):
        for seed in range(200):
            params = random_rational_point(model(ModelFamily.DIAGONAL_EFFECT, 3), seed)
            verdict = classify_toric_point(params)
            if verdict.kind is VerdictKind.IN_BOTH_WITH_WITNESS:
                w = verdict.witness
                assert 0 < w.alpha <= 1
                assert sum(w.d) == 1 and all(x >= 0 for x in w.d)
                assert mixture_point(w) == toric_point(params)[0]
            else:
                assert verdict.case is not None


class TestMixtureToToric:
    def test_worked_example(self):
        params = MixtureParams(alpha=Fraction(3, 4), r=(third,) * 3, c=(third,) * 3, d=(third,) * 3)
        tp = mixture_to_toric(params)
        assert tp.zeta_g == (2, 2, 2)
        assert toric_point(tp)[0] == mixture_point(params)

    def test_alpha_one_gives_unit_gamma(self):
        params = MixtureParams(alpha=1, r=(third,) * 3, c=(third,) * 3, d=(third,) * 3)
        assert mixture_to_toric(params).zeta_g == (1, 1, 1)

    def test_alpha_zero_rejected(self):
        params = MixtureParams(alpha=0, r=(third,) * 3, c=(third,) * 3, d=(third,) * 3)
        with pytest.raises(InputError):
            mixture_to_toric(params)

    def test_round_trip_recovers_parameters(self):
        for seed in range(100):
            m = random_rational_point(model(ModelFamily.DIAGONAL_EFFECT, 3, ModelForm.MIXTURE), seed)
            verdict = classify_toric_point(mixture_to_toric(m))
            assert verdict.kind is VerdictKind.IN_BOTH_WITH_WITNESS
            w = verdict.witness
            assert (w.alpha, w.r, w.c) == (m.alpha, m.r, m.c)
            if m.alpha < 1:
                assert w.d == m.d
            assert mixture_point(w) == mixture_point(m)


class TestRoundTripProperties:
    @settings(max_examples=150, deadline=None)
    @given(positive_toric_params())
    def test_witness_round_trips_through_mixture_to_toric(self, params):
        verdict = classify_toric_point(params)
        if verdict.kind is VerdictKind.IN_BOTH_WITH_WITNESS:
            assert toric_point(mixture_to_toric(verdict.witness))[0] == toric_point(params)[0]


class TestBoundaryCheck:
    def test_zero_diagonal_uniform_table(self):
        sixth = Fraction(1, 6)
        table = ProbTable.from_rows(
            [[0, sixth, sixth], [sixth, 0, sixth], [sixth, sixth, 0]]
        )
        report = boundary_membership_check(table)
        assert report.verdict is BoundaryVerdict.RULED_OUT_M2
        assert report.invariants_vanish

    def test_diagonal_table_rules_out_toric(self):
        table = ProbTable.from_rows([[third, 0, 0], [0, third, 0], [0, 0, third]])
        report = boundary_membership_check(table)
        assert report.verdict is BoundaryVerdict.RULED_OUT_M1

    def test_zeros_on_and_off_the_diagonal_rule_out_both(self):
        table = normalize(CountTable.from_rows([[0, 1, 1], [1, 1, 0], [1, 1, 1]]))
        report = boundary_membership_check(table)
        assert report.verdict is BoundaryVerdict.RULED_OUT_BOTH
        assert (report.toric_exclusions, report.mixture_exclusions) == (((2, 3),), (1,))

    def test_two_by_two_has_no_invariants(self):
        table = normalize(CountTable.from_rows([[0, 1], [1, 1]]))
        report = boundary_membership_check(table)
        assert report.verdict is BoundaryVerdict.RULED_OUT_M2
        assert report.invariants_vanish

    def test_strictly_positive_inconclusive(self):
        table = ProbTable.from_rows([[Fraction(1, 9)] * 3] * 3)
        assert boundary_membership_check(table).verdict is BoundaryVerdict.INCONCLUSIVE


@pytest.fixture(scope="module")
def harness_boundary_tables():
    """`boundary_tables` of the benchmark's invariants workload, read from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.boundary_tables


def reference_boundary(P: ProbTable) -> tuple:
    """(verdict, invariants_vanish, toric_exclusions, mixture_exclusions)
    from the Fraction grid, cell by cell, with the invariants evaluated at
    the ProbTable rebuilt from that grid."""
    I, cells = P.size, P.cells
    rows_nonzero = [any(x != 0 for x in cells[i]) for i in range(I)]
    cols_nonzero = [any(cells[i][j] != 0 for i in range(I)) for j in range(I)]
    is_diagonal = all(cells[i][j] == 0 for i in range(I) for j in range(I) if i != j)
    mixture = tuple(i + 1 for i in range(I)
                    if not is_diagonal and cells[i][i] == 0 and rows_nonzero[i] and cols_nonzero[i])
    toric = tuple((i + 1, j + 1) for i in range(I) for j in range(I)
                  if i != j and cells[i][j] == 0 and rows_nonzero[i] and cols_nonzero[j])
    vanish = I < 3 or check_vanishing(gens_diag_effect(I), ProbTable(I, cells)).all_zero
    verdict = {(True, True): BoundaryVerdict.RULED_OUT_BOTH, (True, False): BoundaryVerdict.RULED_OUT_M1,
               (False, True): BoundaryVerdict.RULED_OUT_M2,
               (False, False): BoundaryVerdict.INCONCLUSIVE}[bool(toric), bool(mixture)]
    return verdict, vanish, toric, mixture


def _report(P: ProbTable) -> tuple:
    r = boundary_membership_check(P)
    return r.verdict, r.invariants_vanish, r.toric_exclusions, r.mixture_exclusions


class TestBoundaryCheckReference:
    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_harness_tables(self, harness_boundary_tables, size):
        # the harness's zero patterns need a third row, so they start at I = 3
        tables = [normalize(CountTable.from_rows(c)) for c in harness_boundary_tables(size)]
        reports = [_report(t) for t in tables]
        assert reports == [reference_boundary(t) for t in tables]
        assert [r[0] for r in reports] == [BoundaryVerdict.RULED_OUT_M2, BoundaryVerdict.RULED_OUT_M1,
                                           BoundaryVerdict.RULED_OUT_BOTH, BoundaryVerdict.INCONCLUSIVE]

    def test_harness_patterns_that_fit_two_by_two(self):
        # the zeros at (1,1) and (1,2), and none; the (2,3) zero needs I >= 3
        tables = [normalize(CountTable.from_rows(c)) for c in ([[0, 1], [1, 1]], [[1, 0], [1, 1]], [[1, 1], [1, 1]])]
        assert [_report(t) for t in tables] == [reference_boundary(t) for t in tables]
        assert [_report(t)[0] for t in tables] == [BoundaryVerdict.RULED_OUT_M2, BoundaryVerdict.RULED_OUT_M1,
                                                   BoundaryVerdict.INCONCLUSIVE]

    @pytest.mark.parametrize("rows", [
        [[1, 0], [0, 3]],
        [[0, 0, 0], [0, 2, 0], [0, 0, 5]],
        [[0, 0, 0, 0], [0, 1, 2, 0], [0, 3, 0, 0], [0, 1, 1, 0]],
        [[2, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 1], [0, 1]],
        [[0, 0, 0, 0, 0], [0, 1, 0, 0, 2], [0, 0, 0, 0, 0], [0, 3, 0, 1, 0], [0, 0, 0, 0, 0]],
    ], ids=["diag-2", "diag-3", "zero-row-and-col-4", "zero-row-and-col-3", "zero-col-2", "zero-rows-5"])
    def test_diagonal_and_zero_line_tables(self, rows):
        table = normalize(CountTable.from_rows(rows))
        assert _report(table) == reference_boundary(table)

    def test_diagonal_only_table(self):
        # a zero diagonal cell of a diagonal table has a zero row, so it
        # excludes nothing, with or without the reference's diagonal test
        table = normalize(CountTable.from_rows([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 3]]))
        assert _report(table) == reference_boundary(table)
        assert table.den == 6 and _report(table)[3] == ()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda I: st.lists(
        st.lists(st.integers(0, 3), min_size=I, max_size=I), min_size=I, max_size=I)).filter(
        lambda rows: any(map(any, rows))))
    def test_normalized_tables(self, rows):
        table = normalize(CountTable.from_rows(rows))
        assert _report(table) == reference_boundary(table)
