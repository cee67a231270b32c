import re
from fractions import Fraction

import pytest

from diagonal_effect import (
    CountTable,
    InputError,
    MixtureParams,
    ModelFamily,
    ModelForm,
    SizeMismatchError,
    ToricParams,
    common_diagonal_fit,
    expected_counts,
    mixture_point,
    normalizers,
    quasi_independence_fit,
    random_rational_point,
    toric_point,
)

from conftest import model, random_count_table

third = Fraction(1, 3)


class TestToricPoint:
    def test_zero_diagonal_point(self):
        params = ToricParams(zeta_r=(third,) * 3, zeta_c=(Fraction(1, 2),) * 3, zeta_g=(0, 0, 0))
        table, norms = toric_point(params)
        assert norms.N == Fraction(3, 2) and norms.N_T == 1
        for i in range(3):
            for j in range(3):
                assert table.cells[i][j] == (0 if i == j else Fraction(1, 6))

    def test_unit_gamma_is_uniform_for_constant_params(self):
        params = ToricParams(zeta_r=(1, 1, 1), zeta_c=(1, 1, 1), zeta_g=(1, 1, 1))
        table, norms = toric_point(params)
        assert norms.N == norms.N_T == 9
        assert all(x == Fraction(1, 9) for row in table.cells for x in row)

    def test_gamma_two_splits_mass(self):
        params = ToricParams(zeta_r=(1, 1, 1), zeta_c=(1, 1, 1), zeta_g=(2, 2, 2))
        table, norms = toric_point(params)
        assert (norms.N, norms.N_T) == (9, 12)
        assert table.cells[0][1] == Fraction(1, 12)
        assert table.cells[0][0] == Fraction(1, 6)

    def test_normalizer_identity(self):
        for seed in range(25):
            params = random_rational_point(model(ModelFamily.DIAGONAL_EFFECT, 3), seed)
            norms = normalizers(params)
            excess = sum(
                params.zeta_r[i] * params.zeta_c[i] * (params.zeta_g[i] - 1) for i in range(3)
            )
            assert norms.N_T - norms.N == excess

    def test_sums_to_one_and_nonnegative(self):
        for seed in range(25):
            params = random_rational_point(model(ModelFamily.DIAGONAL_EFFECT, 4), seed)
            table, _ = toric_point(params)
            assert sum(x for row in table.cells for x in row) == 1
            assert all(x >= 0 for row in table.cells for x in row)

    def test_degenerate_normalizer_rejected(self):
        with pytest.raises(InputError):
            toric_point(ToricParams(zeta_r=(1, 0), zeta_c=(1, 0), zeta_g=(0, 0)))

    @pytest.mark.parametrize("name, bad", [("zeta_r", 0.1), ("zeta_c", True), ("zeta_g", "1/3")])
    def test_inexact_entries_rejected(self, name, bad):
        # a float is already rounded, and a bool or a string is no number
        vectors = dict(zeta_r=(1, third), zeta_c=(1, 2), zeta_g=(1, 1))
        vectors[name] = (1, bad)
        with pytest.raises(InputError, match=rf"^{name}\[1\] is not an int or a Fraction: {bad!r}$"):
            ToricParams(**vectors)

    def test_non_sequence_vector_rejected(self):
        with pytest.raises(InputError, match=r"^zeta_r is not a sequence: got int$"):
            ToricParams(zeta_r=5, zeta_c=(1, 2), zeta_g=(1, 1))


class TestMixturePoint:
    def test_alpha_zero_is_diagonal(self):
        params = MixtureParams(alpha=0, r=(third,) * 3, c=(third,) * 3, d=(third,) * 3)
        table = mixture_point(params)
        assert all(table.cells[i][i] == third for i in range(3))
        assert all(table.cells[i][j] == 0 for i in range(3) for j in range(3) if i != j)

    def test_alpha_one_is_rank_one(self):
        params = MixtureParams(alpha=1, r=(third,) * 3, c=(third,) * 3, d=(third,) * 3)
        table = mixture_point(params)
        assert all(x == Fraction(1, 9) for row in table.cells for x in row)

    def test_matches_toric_counterpart(self):
        params = MixtureParams(alpha=Fraction(3, 4), r=(third,) * 3, c=(third,) * 3, d=(third,) * 3)
        table = mixture_point(params)
        assert table.cells[0][1] == Fraction(1, 12)
        assert table.cells[0][0] == Fraction(1, 6)

    def test_sums_to_one(self):
        for seed in range(25):
            params = random_rational_point(
                model(ModelFamily.DIAGONAL_EFFECT, 3, ModelForm.MIXTURE), seed
            )
            table = mixture_point(params)
            assert sum(x for row in table.cells for x in row) == 1

    def test_invalid_vectors_rejected(self):
        with pytest.raises(InputError):
            MixtureParams(alpha=Fraction(1, 2), r=(1, 1), c=(Fraction(1, 2),) * 2, d=(Fraction(1, 2),) * 2)
        with pytest.raises(InputError):
            MixtureParams(alpha=2, r=(1,), c=(1,), d=(1,))

    @pytest.mark.parametrize("name, bad", [("alpha", 0.6), ("alpha", False), ("alpha", "3/5"),
                                           ("r", (0.5, 0.5)), ("c", (True, False)), ("d", ("1/2", "1/2"))])
    def test_inexact_entries_rejected(self, name, bad):
        # each would pass every other check once coerced to a Fraction
        half = Fraction(1, 2)
        fields = dict(alpha=Fraction(3, 5), r=(half, half), c=(half, half), d=(half, half))
        fields[name] = bad
        where, value = ("alpha", bad) if name == "alpha" else (rf"{name}\[0\]", bad[0])
        with pytest.raises(InputError, match=rf"^{where} is not an int or a Fraction: {value!r}$"):
            MixtureParams(**fields)

    def test_non_sequence_vector_rejected(self):
        half = Fraction(1, 2)
        with pytest.raises(InputError, match=r"^r is not a sequence: got NoneType$"):
            MixtureParams(alpha=1, r=None, c=(half, half), d=(half, half))

    def test_exact_entries_become_fractions(self):
        params = MixtureParams(alpha=1, r=(1, 0), c=(Fraction(1, 2),) * 2, d=(0, 1))
        assert params.alpha == 1 and type(params.alpha) is Fraction
        assert all(type(x) is Fraction for x in params.r + params.c + params.d)


class TestRandomRationalPoint:
    def test_deterministic_in_seed(self):
        m = model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3, ModelForm.MIXTURE)
        assert random_rational_point(m, 1) == random_rational_point(m, 1)
        assert random_rational_point(m, 1) != random_rational_point(m, 2)

    @pytest.mark.parametrize("seed", ["1", 1.0, True, None], ids=repr)
    def test_seed_that_is_not_an_int_rejected(self, seed):
        # the seed is formatted into a string seed, so each of these would
        # otherwise give a point, silently
        m = model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3, ModelForm.MIXTURE)
        with pytest.raises(InputError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            random_rational_point(m, seed)

    @pytest.mark.parametrize("m", ["x", None, ModelFamily.DIAGONAL_EFFECT], ids=repr)
    def test_model_that_is_not_a_model_spec_rejected(self, m):
        with pytest.raises(InputError, match=re.escape(f"model must be a ModelSpec, got {m!r}")):
            random_rational_point(m, 1)

    def test_negative_seed_accepted(self):
        m = model(ModelFamily.DIAGONAL_EFFECT, 3)
        assert random_rational_point(m, -1) == random_rational_point(m, -1)
        assert random_rational_point(m, -1) != random_rational_point(m, 1)

    def test_toric_constraints(self):
        params = random_rational_point(model(ModelFamily.COMMON_DIAGONAL_EFFECT, 4), 7)
        assert isinstance(params, ToricParams)
        assert params.is_strictly_positive()
        assert params.has_common_diagonal()

    def test_mixture_constraints(self):
        params = random_rational_point(
            model(ModelFamily.COMMON_DIAGONAL_EFFECT, 4, ModelForm.MIXTURE), 7
        )
        assert isinstance(params, MixtureParams)
        assert 0 < params.alpha < 1
        assert sum(params.r) == sum(params.c) == 1
        assert params.d == (Fraction(1, 4),) * 4


class TestFits:
    def test_symmetric_table_is_its_own_fit(self):
        t = CountTable.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        fit = quasi_independence_fit(t)
        for i in range(3):
            for j in range(3):
                assert fit[i][j] == pytest.approx(t.cells[i][j], abs=1e-9)

    def test_fit_preserves_margins_and_diagonal(self, rng):
        for _ in range(20):
            t = random_count_table(rng, 3, rng.randint(3, 10))
            fit = quasi_independence_fit(t)
            for i in range(3):
                assert fit[i][i] == pytest.approx(t.cells[i][i], abs=1e-12)
                assert sum(fit[i]) == pytest.approx(t.row_margins()[i], abs=1e-8)
                assert sum(fit[k][i] for k in range(3)) == pytest.approx(
                    t.col_margins()[i], abs=1e-8
                )

    def test_boundary_support_table(self):
        # the off-diagonal cell (2,3) is forced to zero by the margins
        t = CountTable.from_rows([[0, 1, 1], [2, 0, 0], [0, 0, 1]])
        fit = quasi_independence_fit(t)
        assert fit[1][2] == 0.0
        assert sum(fit[0]) == pytest.approx(2.0, abs=1e-9)

    def test_common_fit_margins(self, rng):
        for _ in range(20):
            t = random_count_table(rng, 3, rng.randint(3, 10))
            fit = common_diagonal_fit(t)
            assert sum(fit[i][i] for i in range(3)) == pytest.approx(t.diag_sum(), abs=1e-8)
            for i in range(3):
                assert sum(fit[i]) == pytest.approx(t.row_margins()[i], abs=1e-8)

    def test_common_fit_forced_diagonal(self):
        # trace equal to its maximum forces the diagonal table
        t = CountTable.from_rows([[2, 0], [0, 1]])
        fit = common_diagonal_fit(t)
        assert fit[0][1] == 0.0 and fit[1][0] == 0.0
        assert fit[0][0] == pytest.approx(2.0) and fit[1][1] == pytest.approx(1.0)

    @pytest.mark.parametrize("family", [ModelFamily.DIAGONAL_EFFECT, ModelFamily.COMMON_DIAGONAL_EFFECT])
    def test_expected_counts_of_another_size_rejected(self, family):
        t = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        with pytest.raises(SizeMismatchError, match="^table size 3 != model size 4$"):
            expected_counts(t, model(family, 4))

    @pytest.mark.parametrize("table, m, message", [
        (CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]]), "common",
         "model must be a ModelSpec, got 'common'"),
        (CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]]), None, "model must be a ModelSpec, got None"),
        ("x", model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3), "table must be a CountTable, got 'x'"),
        ([[1, 2], [0, 1]], model(ModelFamily.DIAGONAL_EFFECT, 2),
         "table must be a CountTable, got [[1, 2], [0, 1]]"),
    ])
    def test_expected_counts_of_other_objects_rejected(self, table, m, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            expected_counts(table, m)
