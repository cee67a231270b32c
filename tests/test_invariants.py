from fractions import Fraction
from functools import partial
from itertools import permutations
from unittest import mock

import pytest

from diagonal_effect import (
    CellPolynomial,
    InputError,
    Invariant,
    ModelFamily,
    ModelForm,
    ProbTable,
    SizeMismatchError,
    VanishingReport,
    check_vanishing,
    design_matrix,
    gens_common_mixture_families,
    gens_common_mixture_listed3,
    gens_common_toric_listed3,
    gens_diag_effect,
    gens_independence,
    lattice_binomials,
    mixture_point,
    moves_to_binomials,
    nonvanishing_variants_report,
    random_rational_point,
    toric_ideal,
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
from diagonal_effect import toricideal
from diagonal_effect.markov import moves_common_diag, moves_diag_effect
from diagonal_effect.polynomials import cell_var, mono_from_cells

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
        # every polynomial's size is compared with the point's, the first one's too
        stray = CellPolynomial(size, {(0,): 1})
        gens = [inv.poly for inv in gens_diag_effect(3)]
        for batch in ([stray, *gens], [*gens, stray]):
            with pytest.raises(SizeMismatchError):
                check_vanishing(batch, diag_toric_point(3, 0))

    @pytest.mark.parametrize("point", ["x", None, {(1, 1): 1}], ids=repr)
    def test_point_checked_whatever_the_batch(self, point):
        # the point is checked before the loop, so an empty batch checks it too
        for batch in ([], gens_diag_effect(3)):
            with pytest.raises(InputError, match="^point must be a ProbTable, got "):
                check_vanishing(batch, point)

    @pytest.mark.parametrize("polys", [None, 5, {}, iter([])], ids=lambda p: type(p).__name__)
    def test_batch_that_is_not_a_sequence_rejected(self, polys):
        with pytest.raises(InputError, match=f"^polys is not a sequence: got {type(polys).__name__}$"):
            check_vanishing(polys, diag_toric_point(3, 0))

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

    @pytest.mark.parametrize("I", [3, 4, 5, 6, 7])
    def test_diag_generators_are_the_move_binomials(self, I):
        # `toric-ideal --model diag --verify-against listed` compares the
        # toric ideal with these generators, which are the moves' binomials,
        # in order, and open the common-diagonal mixture families.
        # `markov._diag_effect_candidates` and
        # `invariants._offdiag_minors_and_cycles` write the same binomials
        # twice; this keeps the two writings equal.
        gens = [inv.poly for inv in gens_diag_effect(I)]
        assert gens == moves_to_binomials(moves_diag_effect(I))
        if I < 7:  # the I = 7 mixture families hold 37,450 polynomials
            assert gens == [inv.poly for inv in gens_common_mixture_families(I)[:len(gens)]]


def lattice(family, I):
    return lattice_binomials(design_matrix(model(family, I)))


def move_binomials(moves, I):
    return moves_to_binomials(moves(I))


def toric(family, I, method):
    return toric_ideal(model(family, I), method)


def rejected_variants():
    """The two sign variants that `nonvanishing_variants_report` evaluates."""
    return [_sign_flipped(CellPolynomial.from_cell_terms(3, _LISTED3_FOUR_TERM[9]),
                          mono_from_cells([(2, 2), (3, 1), (3, 2)], 3)),
            _sign_flipped(_mixed8_poly(*_family_poly(3)[:2], 1, 2, 3),
                          mono_from_cells([(1, 2), (3, 3), (3, 3)], 3))]


def elimination_generators():
    """What `toric_ideal`'s elimination route hands the engine at common
    I = 3: the lattice binomials and, last, t * (product of the cells) - 1."""
    seen = []
    with mock.patch.object(toricideal, "buchberger", lambda gens, order: seen.extend(gens) or []):
        toric_ideal(model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3), "elimination")
    assert seen[-1].terms == {tuple(range(10)): 1, (): -1}
    return seen


def build_id(build) -> str:
    if not isinstance(build, partial):
        return build.__name__
    return "/".join(getattr(a, "__name__", getattr(a, "name", str(a))) for a in (build.func, *build.args))


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
        *(partial(lattice, family, I) for family in ModelFamily for I in (3, 4, 5)),
        *(partial(move_binomials, moves, I) for moves in (moves_diag_effect, moves_common_diag) for I in (3, 4, 5)),
        # common-diagonal elimination at I = 4 takes about 19 s, so it is left out
        *(partial(toric, family, I, method)
          for family in ModelFamily for I in (2, 3, 4) for method in ("saturation", "elimination")
          if (family, I, method) != (ModelFamily.COMMON_DIAGONAL_EFFECT, 4, "elimination")),
        rejected_variants, elimination_generators,
    ], ids=build_id)
    def test_built_polynomials_pass_the_checked_constructor(self, build):
        # the package builds its own polynomials without the constructor's
        # checks; the checked constructor keeps every term they make as it is
        for k, item in enumerate(build()):
            p, name = (item.poly, item.name) if isinstance(item, Invariant) else (item, k)
            assert CellPolynomial(p.size, p.terms).terms == p.terms, name
            assert all(c.__class__ is int for c in p.terms.values()), name
            assert all(list(m) == sorted(m) for m in p.terms), name
            if str(name).startswith("diagbal"):
                assert p.num_terms() == 4, name

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


def relabelled(poly: CellPolynomial, cell) -> dict:
    """The terms of `poly` with each cell (i, j) moved to cell(i, j)."""
    I = poly.size
    image = [cell_var(*cell(v // I + 1, v % I + 1), I) for v in range(I * I)]
    return {tuple(sorted(image[v] for v in m)): c for m, c in poly.terms.items()}


def up_to_sign(terms: dict) -> frozenset:
    """The terms of the polynomial or of its negative, whichever has a
    positive coefficient at its least monomial."""
    sign = 1 if terms[min(terms)] > 0 else -1
    return frozenset((m, sign * c) for m, c in terms.items())


def maps_onto_itself(polys, cell) -> bool:
    return {up_to_sign(relabelled(p, cell)) for p in polys} == {up_to_sign(p.terms) for p in polys}


def transposed(i, j):
    return j, i


def simultaneous_permutations(I):
    return [lambda i, j, s=s: (s[i - 1], s[j - 1]) for s in permutations(range(1, I + 1))]


class TestFamilySymmetry:
    """Each model is invariant under simultaneous row and column permutation
    and under transposition; these pin which generator lists, up to sign,
    are too.  The mixture families are not closed under transposition, and
    the transcribed I = 3 lists are not closed under every permutation."""

    @pytest.mark.parametrize("I", [3, 4])
    @pytest.mark.parametrize("build", [
        lambda I: [inv.poly for inv in gens_independence(I)],
        lambda I: [inv.poly for inv in gens_diag_effect(I)],
        lambda I: moves_to_binomials(moves_diag_effect(I)),
        lambda I: moves_to_binomials(moves_common_diag(I)),
    ], ids=["gens_independence", "gens_diag_effect", "moves_diag_effect", "moves_common_diag"])
    def test_closed_under_permutations_and_transposition(self, build, I):
        polys = build(I)
        for cell in [*simultaneous_permutations(I), transposed]:
            assert maps_onto_itself(polys, cell)

    @pytest.mark.parametrize("I", [3, 4])
    def test_mixture_families_closed_under_permutations(self, I):
        polys = [inv.poly for inv in gens_common_mixture_families(I)]
        for cell in simultaneous_permutations(I):
            assert maps_onto_itself(polys, cell)

    @pytest.mark.parametrize("listed", [gens_common_toric_listed3, gens_common_mixture_listed3])
    def test_listed3_closed_under_transposition(self, listed):
        assert maps_onto_itself([inv.poly for inv in listed()], transposed)


class TestDiagbalTwins:
    @pytest.mark.parametrize("I, distinct, total", [(3, 20, 32), (4, 242, 446), (5, 1490, 2870)])
    def test_each_diagbal_is_the_negation_of_its_twin(self, I, distinct, total):
        # diagbal[i,j;k,l;m,n] = -diagbal[k,l;i,j;n,m], and no other two
        # members of the family agree up to sign
        gens = gens_common_mixture_families(I)
        by_name = {inv.name: inv.poly for inv in gens}
        twins = 0
        for name, poly in by_name.items():
            if name.startswith("diagbal"):
                (i, j), (k, l), (m, n) = (part.split(",") for part in name[8:-1].split(";"))
                assert by_name[f"diagbal[{k},{l};{i},{j};{n},{m}]"].terms == (-poly).terms, name
                twins += 1
        assert len(gens) == total
        assert len({up_to_sign(inv.poly.terms) for inv in gens}) == distinct == total - twins // 2


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
