from fractions import Fraction
from functools import partial
from itertools import permutations

import pytest

from diagonal_effect import (
    CellPolynomial,
    InputError,
    ModelFamily,
    ModelForm,
    ProbTable,
    SizeMismatchError,
    VanishingReport,
    check_vanishing,
    gens_common_mixture_families,
    gens_common_mixture_listed3,
    gens_common_toric_listed3,
    gens_diag_effect,
    gens_independence,
    mixture_point,
    moves_to_binomials,
    nonvanishing_variants_report,
    random_rational_point,
    toric_point,
)
from diagonal_effect.invariants import (
    _LISTED3_EIGHT_TERM,
    _LISTED3_FOUR_TERM,
    _LISTED3_TWELVE_TERM,
    _family_poly,
    _mixed8_poly,
    _sign_flipped,
)
from diagonal_effect.markov import moves_common_diag, moves_diag_effect
from diagonal_effect.polynomials import mono_from_cells

from conftest import model


def diag_toric_point(I, seed):
    return toric_point(random_rational_point(model(ModelFamily.DIAGONAL_EFFECT, I), seed))[0]


def diag_mixture_point(I, seed):
    return mixture_point(
        random_rational_point(model(ModelFamily.DIAGONAL_EFFECT, I, ModelForm.MIXTURE), seed)
    )


def common_toric_point(I, seed):
    return toric_point(
        random_rational_point(model(ModelFamily.COMMON_DIAGONAL_EFFECT, I), seed)
    )[0]


def common_mixture_point(I, seed):
    return mixture_point(
        random_rational_point(model(ModelFamily.COMMON_DIAGONAL_EFFECT, I, ModelForm.MIXTURE), seed)
    )


class TestDiagEffectGenerators:
    def test_counts(self):
        assert len(gens_diag_effect(3)) == 1
        assert len(gens_diag_effect(4)) == 10  # 6 minors + 4 cycles
        assert len(gens_diag_effect(5)) == 40  # 30 minors + 10 cycles

    def test_single_generator_for_size_3(self):
        [inv] = gens_diag_effect(3)
        assert str(inv.poly) == "p[1,2]*p[2,3]*p[3,1] - p[1,3]*p[2,1]*p[3,2]"

    def test_avoids_diagonal_cells(self):
        for I in (3, 4, 5):
            for inv in gens_diag_effect(I):
                for m in inv.poly.terms:
                    for v in m:
                        i, j = divmod(v, I)
                        assert i != j

    def test_requires_three(self):
        with pytest.raises(InputError):
            gens_diag_effect(2)

    def test_vanish_on_both_forms(self):
        for I in (3, 4):
            gens = gens_diag_effect(I)
            for seed in range(10):
                assert check_vanishing(gens, diag_toric_point(I, seed)).all_zero
                assert check_vanishing(gens, diag_mixture_point(I, seed)).all_zero

    def test_nonzero_on_a_non_model_point(self):
        # embed a non-rank-one 2x2 block off the diagonal of a 4x4 table
        cells = [[Fraction(0)] * 4 for _ in range(4)]
        cells[0][2], cells[0][3] = Fraction(1, 3), Fraction(1, 6)
        cells[1][2], cells[1][3] = Fraction(1, 6), Fraction(1, 3)
        table = ProbTable.from_rows(cells)
        report = check_vanishing(gens_diag_effect(4), table)
        assert not report.all_zero
        assert any(name.startswith("minor[1,2|3,4]") for name, _ in report.failures())

    def test_report_lists_the_nonzero_values(self):
        report = VanishingReport((("a", Fraction(0)), ("b", Fraction(-1, 6)), ("c", Fraction(0))))
        assert not report.all_zero
        assert report.failures() == [("b", Fraction(-1, 6))]
        assert report.summary() == "1 of 3 polynomials do NOT vanish:\n  b: -1/6"
        assert VanishingReport((("a", Fraction(0)),)).summary() == "all 1 polynomials vanish exactly"


class TestCommonToricListed:
    def test_count_and_first(self):
        gens = gens_common_toric_listed3()
        assert len(gens) == 9
        assert str(gens[0].poly) == "p[1,2]*p[2,3]*p[3,1] - p[1,3]*p[2,1]*p[3,2]"

    def test_fourth_has_degree_four(self):
        poly = gens_common_toric_listed3()[3].poly
        assert max(len(m) for m in poly.terms) == 4

    def test_vanish_on_common_toric_points(self):
        gens = gens_common_toric_listed3()
        for seed in range(100):
            assert check_vanishing(gens, common_toric_point(3, seed)).all_zero


class TestCommonMixtureListed:
    def test_group_sizes(self):
        gens = gens_common_mixture_listed3()
        assert len(gens) == 20
        by_terms = {}
        for inv in gens:
            by_terms[inv.poly.num_terms()] = by_terms.get(inv.poly.num_terms(), 0) + 1
        assert by_terms == {2: 1, 4: 12, 8: 6, 12: 1}

    def test_twelve_term_contains_positive_unit_term(self):
        [twelve] = [inv.poly for inv in gens_common_mixture_listed3() if inv.poly.num_terms() == 12]
        from diagonal_effect.polynomials import mono_from_cells

        target = mono_from_cells([(1, 1), (1, 2), (2, 1)], 3)
        assert twelve.terms.get(target) == 1

    def test_vanish_on_common_mixture_points(self):
        gens = gens_common_mixture_listed3()
        for seed in range(20):
            assert check_vanishing(gens, common_mixture_point(3, seed)).all_zero

    def test_do_not_vanish_on_generic_diagonal_effect_points(self):
        # the full diagonal-effect model does not satisfy these relations
        gens = gens_common_mixture_listed3()
        hit = 0
        for seed in range(5):
            if not check_vanishing(gens, diag_mixture_point(3, seed)).all_zero:
                hit += 1
        assert hit == 5


class TestMixtureFamilies:
    def test_minor_family_empty_for_size_3(self):
        gens = gens_common_mixture_families(3)
        assert not any(inv.name.startswith("minor") for inv in gens)

    def test_cycle_family_for_size_3(self):
        cycles = [inv for inv in gens_common_mixture_families(3) if inv.name.startswith("cycle")]
        assert len(cycles) == 1
        assert str(cycles[0].poly) == "p[1,2]*p[2,3]*p[3,1] - p[1,3]*p[2,1]*p[3,2]"

    def test_vanish_for_sizes_3_4_5(self):
        for I in (3, 4, 5):
            gens = gens_common_mixture_families(I)
            for seed in range(3):
                report = check_vanishing(gens, common_mixture_point(I, seed))
                assert report.all_zero, report.summary()

    def test_family_index_counts_size_4(self):
        gens = gens_common_mixture_families(4)
        names = [inv.name.split("[")[0] for inv in gens]
        assert names.count("minor") == 6
        assert names.count("cycle") == 4
        assert names.count("mixed8") == 24  # 12 ordered pairs x 2 third indices
        assert names.count("diag12") == 4

    def test_literal_mixed8_variant_fails_vanishing(self):
        # the +1 variant of p[i,j]*p[k,k]^2, by the flip the report makes
        poly, v, _ = _family_poly(3)
        bad = [_sign_flipped(_mixed8_poly(poly, v, i, j, k), mono_from_cells([(i, j), (k, k), (k, k)], 3))
               for i, j, k in permutations(range(1, 4))]
        assert len(bad) == 6
        point = common_mixture_point(3, 0)
        report = check_vanishing(bad, point)
        assert len(report.failures()) == len(bad)


class TestCheckVanishingInput:
    def test_bare_polynomials_are_named_by_position(self):
        polys = moves_to_binomials(moves_diag_effect(4))
        report = check_vanishing(polys, diag_toric_point(4, 0))
        assert [name for name, _ in report.entries] == [f"poly #{k}" for k in range(1, 11)]
        assert report.all_zero

    @pytest.mark.parametrize("item", [5, "ab", ("n",), None], ids=repr)
    def test_other_items_rejected(self, item):
        gens = gens_diag_effect(3)
        with pytest.raises(InputError):
            check_vanishing(gens + [item], diag_toric_point(3, 0))

    @pytest.mark.parametrize("size", [2, 4], ids=repr)
    def test_polynomial_of_another_size_rejected(self, size):
        # the point's cleared values are looked up whenever the size
        # changes, and for the first polynomial whatever its size
        stray = CellPolynomial(size, {(0,): 1})
        gens = [inv.poly for inv in gens_diag_effect(3)]
        for batch in ([stray, *gens], [*gens, stray]):
            with pytest.raises(SizeMismatchError):
                check_vanishing(batch, diag_toric_point(3, 0))

    @pytest.mark.parametrize("point", ["x", None], ids=repr)
    def test_point_checked_whatever_the_batch(self, point):
        # the point is checked before the loop, so an empty batch checks it too
        for batch in ([], gens_diag_effect(3)):
            with pytest.raises(InputError, match="^point is not a mapping: got "):
                check_vanishing(batch, point)

    def test_named_tuples_rejected(self):
        gen = gens_diag_effect(3)[0]
        with pytest.raises(InputError):
            check_vanishing([(gen.name, gen.poly)], diag_toric_point(3, 0))


class TestMovesToBinomials:
    def test_degree_matches_move_family(self):
        polys = moves_to_binomials(moves_diag_effect(4))
        degrees = sorted(max(len(m) for m in p.terms) for p in polys)
        assert degrees == [2] * 6 + [3] * 4

    def test_pure_binomials(self):
        for p in moves_to_binomials(moves_common_diag(3)):
            assert p.is_pure_binomial()

    @pytest.mark.parametrize("item", ["x", None, ((1, -1), (-1, 1))], ids=repr)
    def test_non_move_entries_rejected(self, item):
        with pytest.raises(InputError, match="a move list holds Move objects"):
            moves_to_binomials(moves_diag_effect(3) + [item])

    def test_move_list_that_is_not_a_sequence_rejected(self):
        with pytest.raises(InputError, match="^moves is not a sequence: got int$"):
            moves_to_binomials(5)

    def test_binomials_vanish_on_common_toric_points(self):
        polys = moves_to_binomials(moves_common_diag(3))
        for seed in range(10):
            point = common_toric_point(3, seed)
            assert all(p.evaluate(point) == 0 for p in polys)

    @pytest.mark.parametrize("I", [3, 4, 5, 6])
    def test_diag_generators_are_the_move_binomials(self, I):
        # `toric-ideal --model diag --verify-against listed` compares the
        # toric ideal with these generators, which are the moves' binomials,
        # in order, and open the common-diagonal mixture families
        gens = [inv.poly for inv in gens_diag_effect(I)]
        assert gens == moves_to_binomials(moves_diag_effect(I))
        assert gens == [inv.poly for inv in gens_common_mixture_families(I)[:len(gens)]]


SIZED_FACTORIES = [gens_independence, gens_diag_effect, gens_common_mixture_families,
                   moves_diag_effect, moves_common_diag]


class TestFamilyBuilds:
    @pytest.mark.parametrize("factory", SIZED_FACTORIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("size", [3.0, "3", None, True], ids=repr)
    def test_malformed_size_rejected(self, factory, size):
        with pytest.raises(InputError, match="table size must be an integer"):
            factory(size)

    def test_small_size_rejected(self):
        with pytest.raises(InputError, match="^table size must be an integer of at least 3, got 2$"):
            gens_common_mixture_families(2)

    @pytest.mark.parametrize("build", [
        *(partial(factory, I) for factory in (gens_independence, gens_diag_effect,
                                              gens_common_mixture_families) for I in (3, 4, 5, 6)),
        gens_common_toric_listed3, gens_common_mixture_listed3,
    ], ids=lambda b: f"{b.func.__name__}/{b.args[0]}" if isinstance(b, partial) else b.__name__)
    def test_built_polynomials_pass_the_checked_constructor(self, build):
        # the family builders skip the constructor's checks; the checked
        # constructor keeps every term they make as it is
        for inv in build():
            p = inv.poly
            assert CellPolynomial(p.size, p.terms).terms == p.terms, inv.name
            assert all(c.__class__ is int for c in p.terms.values()), inv.name
            assert all(list(m) == sorted(m) for m in p.terms), inv.name
            if inv.name.startswith("diagbal"):
                assert p.num_terms() == 4, inv.name

    def test_family_builder_matches_from_cell_terms(self):
        # the builder takes (coefficient, ids) pairs, ids looked up in the
        # build's grid
        poly, v, _ = _family_poly(3)
        assert [v[i][1:] for i in range(1, 4)] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        cancelling = [(1, ((1, 2), (2, 1))), (2, ((3, 3),)), (-1, ((2, 1), (1, 2)))]
        for terms in [*_LISTED3_FOUR_TERM, *_LISTED3_EIGHT_TERM, *_LISTED3_TWELVE_TERM, cancelling]:
            built = poly([(c, tuple(v[i][j] for i, j in cells)) for c, cells in terms])
            assert built == CellPolynomial.from_cell_terms(3, terms)
            assert all(c.__class__ is int for c in built.terms.values())
        assert poly([(c, tuple(v[i][j] for i, j in cells)) for c, cells in cancelling]).terms == {(8,): 2}
        # the same products as id tuples in other orders: one monomial each
        assert poly([(1, (1, 3)), (2, (8,)), (-1, (3, 1))]).terms == {(8,): 2}


class TestTranscriptionReport:
    def test_report_shows_nonzero_variant_and_zero_emitted(self):
        reports = nonvanishing_variants_report()
        assert len(reports) == 2
        for rep in reports:
            assert rep["variant_value"] != 0
            assert rep["emitted_value"] == 0

    def test_emitted_listed_entry_ten_is_transpose_symmetric(self):
        gens = gens_common_mixture_listed3()
        four_term = [inv.poly for inv in gens if inv.poly.num_terms() == 4]
        transposed = {}
        for p in four_term:
            # transpose cell indices of every term
            terms = {}
            for m, c in p.terms.items():
                cells = []
                for v in m:
                    i, j = divmod(v, 3)
                    cells.append((j + 1, i + 1))
                from diagonal_effect.polynomials import mono_from_cells

                terms[mono_from_cells(cells, 3)] = c
            from diagonal_effect import CellPolynomial

            transposed[p] = CellPolynomial(3, terms)
        # equal up to sign: each transpose is an original or its negative
        originals = set()
        for p in four_term:
            originals.update((p, -p))
        for p, pt in transposed.items():
            assert pt in originals
