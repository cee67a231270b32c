from fractions import Fraction

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
    classify_toric_point,
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
