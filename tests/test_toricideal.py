import hashlib
import json
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from diagonal_effect import (
    BudgetExceededError,
    CellPolynomial,
    CountTable,
    InputError,
    ModelFamily,
    ModelForm,
    Move,
    SizeMismatchError,
    TermOrder,
    design_matrix,
    gens_common_toric_listed3,
    gens_diag_effect,
    gens_independence,
    groebner,
    ideal_equal,
    integer_kernel,
    lattice_binomials,
    moves_to_binomials,
    random_rational_point,
    sufficient_statistic,
    toric_ideal,
    toric_point,
    transpose_apply,
)
from diagonal_effect.groebner import _encode, _move, _s_remainder, _WIDTH, buchberger, reduce_basis, saturate
from diagonal_effect.moves import moves_common_diag, moves_diag_effect
from diagonal_effect.polynomials import binomial_from_vector
from diagonal_effect.toricideal import _kernel_vectors, pivot_basis, saturation_cells

from conftest import model, random_count_table

GOLDEN = Path(__file__).parent / "golden"
FAMILIES = (ModelFamily.INDEPENDENCE, ModelFamily.DIAGONAL_EFFECT, ModelFamily.COMMON_DIAGONAL_EFFECT)


def spoly_reductions_all_zero(groebner_basis, order) -> bool:
    """Buchberger criterion as a verification: every S-polynomial of basis
    pairs reduces to zero."""
    if not groebner_basis:
        return True
    basis = groebner._Filed(_encode(groebner_basis, order), order)
    return all(_s_remainder(f, g, basis, order) is None for f, g in combinations(basis, 2))


def in_lattice(v, basis) -> bool:
    """v is an integer combination of the linearly independent `basis`:
    Gauss-Jordan over the rationals on the columns of the basis, then the
    unique coefficients must be integers."""
    k = len(basis)
    system = [[Fraction(b[i]) for b in basis] + [Fraction(v[i])] for i in range(len(v))]
    for c in range(k):
        p = next(i for i in range(c, len(system)) if system[i][c])
        system[c], system[p] = system[p], system[c]
        system[c] = [x / system[c][c] for x in system[c]]
        for i, row in enumerate(system):
            if i != c and row[c]:
                system[i] = [a - row[c] * b for a, b in zip(row, system[c])]
    consistent = not any(row[k] for row in system[k:])
    return consistent and all(row[k].denominator == 1 for row in system[:k])


def count_calls(monkeypatch, name: str) -> list:
    """A list that grows by one for each call of `groebner.<name>`."""
    calls = []
    step = getattr(groebner, name)

    def counted(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(groebner, name, counted)
    return calls


def count_s_pairs(monkeypatch) -> list:
    """A list that grows by one for each S-pair the engine processes."""
    return count_calls(monkeypatch, "_s_remainder")


def count_divisor_searches(monkeypatch) -> list:
    """A list that grows by one for each search for the first basis lead
    that divides a term: each reduction step, and each lead minimalized."""
    return count_calls(monkeypatch, "_first_divisor")


class TestDesignMatrix:
    def test_independence_identity_example(self):
        A = design_matrix(model(ModelFamily.INDEPENDENCE, 2))
        assert len(A.rows) == 4 and A.num_params == 4
        t = CountTable.from_rows([[1, 0], [0, 1]])
        assert transpose_apply(A, t) == (1, 1, 1, 1)

    def test_diag_effect_column_structure(self):
        A = design_matrix(model(ModelFamily.DIAGONAL_EFFECT, 3))
        assert A.num_params == 9
        for i in range(3):
            diag_row = A.rows[i * 3 + i]
            assert sum(diag_row) == 3
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert sum(A.rows[i * 3 + j]) == 2

    def test_transpose_matches_sufficient_statistic(self, rng):
        for family in (ModelFamily.DIAGONAL_EFFECT, ModelFamily.COMMON_DIAGONAL_EFFECT):
            m = model(family, 3)
            A = design_matrix(m)
            for _ in range(10):
                t = random_count_table(rng, 3, rng.randint(1, 9))
                stat = sufficient_statistic(t, m)
                expected = stat.rows + stat.cols
                expected += stat.diag if isinstance(stat.diag, tuple) else (stat.diag,)
                assert transpose_apply(A, t) == expected

    def test_mixture_form_rejected(self):
        with pytest.raises(InputError):
            design_matrix(model(ModelFamily.DIAGONAL_EFFECT, 3, ModelForm.MIXTURE))

    def test_tables_and_moves_only(self):
        A = design_matrix(model(ModelFamily.INDEPENDENCE, 2))
        assert transpose_apply(A, CountTable.from_rows([[1, 0], [0, 1]])) == (1, 1, 1, 1)
        assert transpose_apply(A, Move.from_rows([[1, -2], [1, 0]])) == (-1, 1, 2, -2)
        # a raw grid is neither
        for grid in ([[1, 0], [0, 1]], ((1, 0), (0, 1)), [[1.5, 0], [0, 0]]):
            with pytest.raises(InputError, match=f"^table must be a CountTable, got {re.escape(repr(grid))}$"):
                transpose_apply(A, grid)
        # a table or a move of another size fails the one size rule
        with pytest.raises(SizeMismatchError, match="^table size 3 != A size 2$"):
            transpose_apply(A, CountTable.from_rows([[1, 0, 0]] * 3))
        with pytest.raises(SizeMismatchError, match="^move size 3 != A size 2$"):
            transpose_apply(A, Move.from_rows([[1, -1, 0], [-1, 1, 0], [0, 0, 0]]))

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: design_matrix(None), "model must be a ModelSpec, got None", id="design_matrix"),
        pytest.param(lambda: toric_ideal(7), "model must be a ModelSpec, got 7", id="toric_ideal"),
        pytest.param(lambda: integer_kernel(None), "A must be a DesignMatrix, got None", id="integer_kernel"),
        pytest.param(lambda: lattice_binomials("x"), "A must be a DesignMatrix, got 'x'", id="lattice_binomials"),
        pytest.param(lambda: pivot_basis(None), "A must be a DesignMatrix, got None", id="pivot_basis"),
        pytest.param(lambda: transpose_apply([[1]], [[1]]), "A must be a DesignMatrix, got [[1]]",
                     id="transpose_apply"),
        pytest.param(lambda: toric_ideal(model(ModelFamily.INDEPENDENCE, 2), "groebner"),
                     "unknown method 'groebner'; use 'saturation' or 'elimination'", id="method"),
    ])
    def test_entry_points_check_their_arguments(self, call, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call()


class TestIntegerKernel:
    def test_independence_2(self):
        A = design_matrix(model(ModelFamily.INDEPENDENCE, 2))
        assert integer_kernel(A) == [((1, -1), (-1, 1))]

    def test_diag_effect_3_rank_one(self):
        # rows+cols+diagonal functionals have a single dependency, so the
        # kernel is spanned by the one cycle move
        A = design_matrix(model(ModelFamily.DIAGONAL_EFFECT, 3))
        basis = integer_kernel(A)
        assert len(basis) == 1
        assert basis[0] == ((0, 1, -1), (-1, 0, 1), (1, -1, 0))

    def test_common_diag_3_rank_three(self):
        A = design_matrix(model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3))
        assert len(integer_kernel(A)) == 3

    def test_kernel_vectors_have_zero_margins(self):
        for family in (ModelFamily.DIAGONAL_EFFECT, ModelFamily.COMMON_DIAGONAL_EFFECT):
            for I in (3, 4):
                A = design_matrix(model(family, I))
                for grid in integer_kernel(A):
                    assert all(sum(row) == 0 for row in grid)
                    assert all(sum(grid[i][j] for i in range(I)) == 0 for j in range(I))


@pytest.mark.parametrize("I", [2, 3, 4])
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
class TestPivotBasis:
    def test_rows_span_the_kernel_lattice(self, family, I):
        A = design_matrix(model(family, I))
        rows = pivot_basis(A)[0]
        assert all(transpose_apply(A, Move(I, [v[k:k + I] for k in range(0, I * I, I)])) == (0,) * A.num_params
                   for v in rows)
        # the flat kernel vectors are the rows of `integer_kernel`'s grids
        echelon = _kernel_vectors(A)
        assert integer_kernel(A) == [tuple(tuple(v[k:k + I]) for k in range(0, I * I, I)) for v in echelon]
        assert len(rows) == len(echelon)
        assert all(in_lattice(v, echelon) for v in rows)
        assert all(in_lattice(v, rows) for v in echelon)

    def test_pivots_are_lone_units_in_distinct_rows(self, family, I):
        rows, pivots = pivot_basis(design_matrix(model(family, I)))
        assert len(pivots) == len(rows) and None not in pivots  # every row gets one here
        assert len(set(pivots)) == len(pivots)
        assert I * I - 1 not in pivots
        for r, p in enumerate(pivots):
            assert rows[r][p] in (1, -1)
            assert all(other[p] == 0 for k, other in enumerate(rows) if k != r)


@pytest.mark.parametrize("family, I, skipping, full", [
    (ModelFamily.INDEPENDENCE, 3, 7, 9),
    (ModelFamily.DIAGONAL_EFFECT, 4, 17, 14),
    (ModelFamily.COMMON_DIAGONAL_EFFECT, 3, 7, 9),
])
def test_saturating_the_echelon_binomials_by_the_last_cell_alone_falls_short(family, I, skipping, full):
    # without unit pivots, skipping cells loses generators: the pivot rule
    # is what makes the skipped steps unnecessary
    m = model(family, I)
    n = I * I
    short = saturate(lattice_binomials(design_matrix(m)), range(n), by=[n - 1])
    ideal = toric_ideal(m)
    assert (len(short), len(ideal)) == (skipping, full)
    assert not ideal_equal(short, ideal)


def pivot_binomials(family, I):
    """The `pivot_basis` rows of a model, their pivots and their binomials."""
    rows, pivots = pivot_basis(design_matrix(model(family, I)))
    return rows, pivots, [binomial_from_vector(row, I) for row in rows]


def witnessed(rows, pivots, by, I) -> bool:
    """Every touched cell that is neither a pivot nor in `by` has a witness
    row: a row with a pivot, whose entry at the cell has the pivot entry's
    sign and whose entries of the other sign avoid every such cell."""
    skipped = [c for c in range(I * I) if c not in by and c not in pivots and any(row[c] for row in rows)]
    return all(any(row[p] * row[v] > 0 and all(row[p] * row[u] >= 0 for u in skipped)
                   for row, p in zip(rows, pivots) if p is not None)
               for v in skipped)


@pytest.mark.parametrize("family, I, steps", [
    (ModelFamily.INDEPENDENCE, 2, 3),
    (ModelFamily.INDEPENDENCE, 3, 3),
    (ModelFamily.INDEPENDENCE, 4, 4),
    (ModelFamily.DIAGONAL_EFFECT, 3, 4),
    (ModelFamily.DIAGONAL_EFFECT, 4, 6),
    (ModelFamily.DIAGONAL_EFFECT, 5, 8),
    (ModelFamily.COMMON_DIAGONAL_EFFECT, 3, 4),
    (ModelFamily.COMMON_DIAGONAL_EFFECT, 4, 4),
])
def test_saturation_cells_give_the_ideal_of_every_non_pivot_cell(family, I, steps):
    # saturating by every non-pivot cell (Hosten-Sturmfels) is the
    # reference; toric_ideal stops at I = 4, so I = 5 calls saturate
    rows, pivots, gens = pivot_binomials(family, I)
    n = I * I
    by = saturation_cells(rows, pivots, I)
    assert len(by) == steps
    reference = saturate(gens, range(n), by=[v for v in range(n) if v not in pivots])
    ideal = toric_ideal(model(family, I)) if I <= 4 else saturate(gens, range(n), by=by)
    assert ideal == reference


@pytest.mark.parametrize("I", [2, 3, 4, 5])
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_every_skipped_touched_cell_has_a_witness_row(family, I):
    rows, pivots = pivot_basis(design_matrix(model(family, I)))
    by = saturation_cells(rows, pivots, I)
    assert by == sorted(set(by)) and by[-1] == I * I - 1
    touched = {c for row in rows for c, x in enumerate(row) if x}
    assert set(by[:-1]) <= touched - set(pivots)
    assert witnessed(rows, pivots, by, I)


def test_dropping_the_first_two_non_pivots_fails_the_witness_check():
    # a witness row is enough, not needed: the diagonal-effect ideal at
    # I = 3 is one prime binomial, which needs no saturation at all
    differs = []
    for family in FAMILIES:
        rows, pivots, gens = pivot_binomials(family, 3)
        non_pivots = [v for v in range(9) if v not in pivots]
        assert not witnessed(rows, pivots, non_pivots[2:], 3)
        differs.append(saturate(gens, range(9), by=non_pivots[2:]) != toric_ideal(model(family, 3)))
    assert differs == [True, False, True]


class TestGroebner:
    def test_single_minor_is_its_own_basis(self):
        minor = CellPolynomial.from_cell_terms(
            2, [(1, [(1, 1), (2, 2)]), (-1, [(1, 2), (2, 1)])]
        )
        order = TermOrder.grevlex(range(4))
        gb = buchberger([minor], order)
        assert len(gb) == 1
        assert spoly_reductions_all_zero(gb, order)

    def test_linear_chain_reduces(self):
        # x - y and y - z over three cells triangulate to a reduced basis
        x_minus_y = CellPolynomial.from_cell_terms(2, [(1, [(1, 1)]), (-1, [(1, 2)])])
        y_minus_z = CellPolynomial.from_cell_terms(2, [(1, [(1, 2)]), (-1, [(2, 1)])])
        order = TermOrder.grevlex(range(4))
        gb = buchberger([x_minus_y, y_minus_z], order)
        assert len(gb) == 2
        assert spoly_reductions_all_zero(gb, order)

    def test_listed_nine_have_consistent_basis(self):
        gens = [inv.poly for inv in gens_common_toric_listed3()]
        order = TermOrder.grevlex(range(9))
        assert spoly_reductions_all_zero(buchberger(gens, order), order)

    def test_pair_budget_stops_buchberger(self, monkeypatch):
        # the listed nine need some number n of S-pairs: a budget of n
        # passes and a budget of n - 1 raises
        gens = [inv.poly for inv in gens_common_toric_listed3()]
        order = TermOrder.grevlex(range(9))
        calls = count_s_pairs(monkeypatch)
        expected = buchberger(gens, order)
        n = len(calls)
        monkeypatch.setattr(groebner, "MAX_PAIRS", n)
        assert buchberger(gens, order) == expected
        monkeypatch.setattr(groebner, "MAX_PAIRS", n - 1)
        with pytest.raises(BudgetExceededError, match=f"budget of {n - 1} pairs"):
            buchberger(gens, order)

    def test_pair_budget_stops_saturate(self, monkeypatch):
        gens = lattice_binomials(design_matrix(model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3)))
        monkeypatch.setattr(groebner, "MAX_PAIRS", 1)
        with pytest.raises(BudgetExceededError):
            saturate(gens, range(9))

    def test_repeated_variable_is_rejected_before_any_step(self, monkeypatch):
        # rejected up front: no S-pair is processed
        gens = lattice_binomials(design_matrix(model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3)))
        calls = count_s_pairs(monkeypatch)
        twice = list(range(9)) + [8]
        with pytest.raises(InputError, match="variable 8 appears twice in the term order"):
            saturate(gens, twice)
        with pytest.raises(InputError, match="variable 8 appears twice in the saturating product"):
            saturate(gens, range(9), by=[8, 3, 8])
        with pytest.raises(InputError, match="variable 9 is outside the term order"):
            saturate(gens, range(9), by=[9])
        with pytest.raises(InputError, match="appears twice"):
            buchberger(gens, TermOrder(tuple(twice)))
        with pytest.raises(InputError, match="appears twice"):
            reduce_basis(gens, TermOrder(tuple(twice)))
        with pytest.raises(InputError, match="appears twice"):
            TermOrder.elimination([9], twice)
        assert calls == []

    def test_saturating_by_nothing_is_rejected(self, monkeypatch):
        # the last variable's step leaves the basis in grevlex(variables);
        # without it the basis would end in another order
        gens = lattice_binomials(design_matrix(model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3)))
        calls = count_s_pairs(monkeypatch)
        for by in ([], [0, 3]):
            with pytest.raises(InputError, match="must hold the last variable 8$"):
                saturate(gens, range(9), by=by)
        assert calls == []

    def test_saturation_rejects_a_skipped_last_variable(self, monkeypatch):
        A = design_matrix(model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3))
        rows, pivots = pivot_basis(A)
        assert 0 in pivots and 8 not in pivots
        gens = [binomial_from_vector(row, 3) for row in rows]
        reversed_cells = list(reversed(range(9)))  # puts pivot 0 last
        calls = count_s_pairs(monkeypatch)
        with pytest.raises(InputError, match="must hold the last variable 0$"):
            saturate(gens, reversed_cells, by=[v for v in reversed_cells if v not in pivots])
        assert calls == []
        # the non-pivot cells of the usual order hold the last cell
        by = [v for v in range(9) if v not in pivots]
        assert saturate(gens, range(9), by=by) == saturate(gens, range(9))

    def test_move_shifts_the_fields_between(self):
        fields = [3, 1, 4, 1, 5, 9, 2, 6]
        m = sum(x << (k * _WIDTH) for k, x in enumerate(fields))
        for s in range(len(fields)):
            for t in range(len(fields)):
                moved = fields[:s] + fields[s + 1:]
                moved.insert(t, fields[s])
                assert _move(m, s, t) == sum(x << (k * _WIDTH) for k, x in enumerate(moved))


class TestToricIdeal:
    def test_independence_2_single_minor(self):
        gens = toric_ideal(model(ModelFamily.INDEPENDENCE, 2))
        assert len(gens) == 1
        assert ideal_equal(gens, [inv.poly for inv in gens_independence(2)])

    def test_diag_effect_3_matches_listed(self):
        gens = toric_ideal(model(ModelFamily.DIAGONAL_EFFECT, 3))
        assert len(gens) == 1
        assert ideal_equal(gens, [inv.poly for inv in gens_diag_effect(3)])

    def test_common_diag_3_matches_listed_nine(self):
        gens = toric_ideal(model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3))
        assert len(gens) == 9
        assert ideal_equal(gens, [inv.poly for inv in gens_common_toric_listed3()])

    def test_methods_agree_on_size_3(self):
        for family in (
            ModelFamily.INDEPENDENCE,
            ModelFamily.DIAGONAL_EFFECT,
            ModelFamily.COMMON_DIAGONAL_EFFECT,
        ):
            m = model(family, 3 if family is not ModelFamily.INDEPENDENCE else 2)
            sat = toric_ideal(m, method="saturation")
            elim = toric_ideal(m, method="elimination")
            assert [str(g) for g in sat] == [str(g) for g in elim]

    @pytest.mark.parametrize("family, I", [
        (ModelFamily.INDEPENDENCE, 3),
        (ModelFamily.DIAGONAL_EFFECT, 4),
        (ModelFamily.INDEPENDENCE, 4),
        (ModelFamily.COMMON_DIAGONAL_EFFECT, 4),
    ])
    def test_methods_agree_where_pivots_skip_most_cells(self, family, I):
        # elimination keeps the echelon basis and every cell, so it checks
        # the rule of saturation_cells from outside; common at I = 4 is the
        # largest ideal (85 generators, about 2.7 s by elimination)
        m = model(family, I)
        assert toric_ideal(m, method="saturation") == toric_ideal(m, method="elimination")

    def test_generators_are_pure_binomials(self):
        for family, I in (
            (ModelFamily.INDEPENDENCE, 3),
            (ModelFamily.DIAGONAL_EFFECT, 4),
            (ModelFamily.COMMON_DIAGONAL_EFFECT, 3),
        ):
            for g in toric_ideal(model(family, I)):
                assert g.is_pure_binomial()

    def test_generators_vanish_on_model_points(self):
        for family in (ModelFamily.DIAGONAL_EFFECT, ModelFamily.COMMON_DIAGONAL_EFFECT):
            m = model(family, 3)
            gens = toric_ideal(m)
            for seed in range(100):
                point, _ = toric_point(random_rational_point(m, seed))
                assert all(g.evaluate(point) == 0 for g in gens)

    def test_size_guard(self):
        with pytest.raises(InputError):
            toric_ideal(model(ModelFamily.DIAGONAL_EFFECT, 5))

    def test_size_4_ideals_match_their_generating_families(self):
        # the listed generators of the diagonal-effect model, and the move
        # binomials of the common-diagonal model, each generate the full
        # toric ideal at size 4
        diag4 = toric_ideal(model(ModelFamily.DIAGONAL_EFFECT, 4))
        assert ideal_equal(diag4, [inv.poly for inv in gens_diag_effect(4)])
        common4 = toric_ideal(model(ModelFamily.COMMON_DIAGONAL_EFFECT, 4))
        movebins = moves_to_binomials(moves_common_diag(4))
        assert len(common4) == 85
        assert ideal_equal(common4, movebins)

    def test_golden_files(self):
        cases = [
            ("independence_2", model(ModelFamily.INDEPENDENCE, 2)),
            ("diag_effect_3", model(ModelFamily.DIAGONAL_EFFECT, 3)),
            ("common_diag_3", model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3)),
            ("diag_effect_4", model(ModelFamily.DIAGONAL_EFFECT, 4)),
            ("independence_3", model(ModelFamily.INDEPENDENCE, 3)),
        ]
        for name, m in cases:
            expected = (GOLDEN / f"toric_ideal_{name}.txt").read_text().splitlines()
            assert [str(g) for g in toric_ideal(m)] == expected


class TestIdealEqual:
    def test_sign_flip(self):
        f = CellPolynomial.from_cell_terms(2, [(1, [(1, 1), (2, 2)]), (-1, [(1, 2), (2, 1)])])
        assert ideal_equal([f], [-f])

    def test_reordered_binomial(self):
        f = CellPolynomial.from_cell_terms(2, [(1, [(1, 1), (2, 2)]), (-1, [(1, 2), (2, 1)])])
        g = CellPolynomial.from_cell_terms(2, [(1, [(1, 2), (2, 1)]), (-1, [(1, 1), (2, 2)])])
        assert ideal_equal([f], [g])

    def test_an_all_zero_side_spans_the_zero_ideal(self):
        f = binomial_from_vector([1, -1, -1, 1], 2)
        zero = CellPolynomial(2, {})
        assert not ideal_equal([zero], [f])
        assert not ideal_equal([f], [zero, zero])
        assert ideal_equal([zero], [])
        assert ideal_equal([], [])

    @pytest.mark.parametrize("gens1, gens2, error, message", [
        pytest.param(None, [], InputError, "gens1 is not a sequence: got NoneType", id="None"),
        pytest.param([], {}, InputError, "gens2 is not a sequence: got dict", id="dict"),
        pytest.param([1], [], InputError, "each of the generators must be a CellPolynomial, got 1", id="item"),
        # every polynomial counts, a zero one too
        pytest.param([CellPolynomial(2, {})], [CellPolynomial(3, {})], SizeMismatchError,
                     "polynomial over 3x3 cells, expected 2x2", id="zeros"),
    ])
    def test_generator_lists_follow_one_rule(self, gens1, gens2, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            ideal_equal(gens1, gens2)

    def test_distinct_ideals(self):
        f = CellPolynomial.from_cell_terms(2, [(1, [(1, 1), (2, 2)]), (-1, [(1, 2), (2, 1)])])
        h = CellPolynomial.from_cell_terms(2, [(1, [(1, 1)]), (-1, [(2, 2)])])
        assert not ideal_equal([f], [h])
        # strict inclusion: (f) is a proper subideal of (f, h)
        assert not ideal_equal([f], [f, h])
        assert not ideal_equal([f, h], [f])

    def test_move_binomials_generate_the_common_ideal(self):
        # move binomials and the toric ideal generate the same ideal (size 3)
        move_polys = moves_to_binomials(moves_common_diag(3))
        ideal = toric_ideal(model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3))
        assert ideal_equal(move_polys, ideal)

    def test_diag_move_binomials_generate_the_diag_ideal(self):
        move_polys = moves_to_binomials(moves_diag_effect(3))
        ideal = toric_ideal(model(ModelFamily.DIAGONAL_EFFECT, 3))
        assert ideal_equal(move_polys, ideal)


class TestLatticeBinomials:
    def test_homogeneous_and_pure(self):
        for family in (ModelFamily.DIAGONAL_EFFECT, ModelFamily.COMMON_DIAGONAL_EFFECT):
            A = design_matrix(model(family, 3))
            for b in lattice_binomials(A):
                assert b.is_pure_binomial() or b.num_terms() == 2
                degrees = {len(m) for m in b.terms}
                assert len(degrees) == 1


def _minor2():
    return CellPolynomial.from_cell_terms(2, [(1, [(1, 1), (2, 2)]), (-1, [(1, 2), (2, 1)])])


def _minor3():
    # its leading term is coprime to that of _minor2, so no S-pair mixes them
    return CellPolynomial.from_cell_terms(3, [(1, [(2, 2), (3, 3)]), (-1, [(2, 3), (3, 2)])])


class TestBinomialBoundary:
    three_terms = CellPolynomial.from_cell_terms(
        3, [(1, [(1, 1), (2, 2)]), (-1, [(1, 2), (2, 1)]), (1, [(3, 3), (3, 3)])]
    )
    plus = CellPolynomial.from_cell_terms(3, [(1, [(1, 1), (2, 2)]), (1, [(1, 2), (2, 1)])])

    def test_groebner_rejects_mixed_sizes(self):
        with pytest.raises(SizeMismatchError):
            buchberger([_minor3(), _minor2()], TermOrder.grevlex(range(9)))

    def test_ideal_equal_rejects_mixed_sizes(self):
        with pytest.raises(SizeMismatchError):
            ideal_equal([_minor3()], [_minor3(), _minor2()])

    @pytest.mark.parametrize("first, second", [(_minor2, _minor3), (_minor3, _minor2)])
    def test_ideal_equal_rejects_sets_of_different_sizes(self, first, second):
        with pytest.raises(SizeMismatchError):
            ideal_equal([first()], [second()])

    def test_empty_lists_give_empty_bases(self):
        order = TermOrder.grevlex(range(4))
        assert buchberger([], order) == saturate([], range(4)) == reduce_basis((), order) == []

    def test_zero_generators_are_skipped(self):
        order = TermOrder.grevlex(range(4))
        f = binomial_from_vector([1, -1, -1, 1], 2)
        zero = CellPolynomial(2, {})
        assert buchberger([zero, f, zero], order) == buchberger([f], order) == [-f]
        assert saturate([zero, f], range(4)) == [-f]

    def test_variable_outside_the_order_rejected(self):
        # id 4 is an auxiliary variable at size 2, which grevlex(range(4)) does not hold
        aux = CellPolynomial(2, {(0, 4): 1, (1,): -1})
        for run in (lambda: buchberger([aux], TermOrder.grevlex(range(4))), lambda: saturate([aux], range(4))):
            with pytest.raises(InputError, match="^variable 4 is outside the term order$"):
                run()

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: buchberger([1], TermOrder.grevlex(range(4))),
                     "each of the generators must be a CellPolynomial, got 1", id="buchberger-gens"),
        pytest.param(lambda: buchberger([], None), "order must be a TermOrder, got None", id="buchberger-order"),
        pytest.param(lambda: saturate(None, range(9)), "generators is not a sequence: got NoneType",
                     id="saturate-gens"),
        pytest.param(lambda: saturate([], None), "the term order is not a sequence: got NoneType",
                     id="saturate-variables"),
        pytest.param(lambda: saturate([], range(4), by=[3, -1]), "variable id must be an integer of at least 0, got -1",
                     id="saturate-by"),
        pytest.param(lambda: reduce_basis({}, TermOrder.grevlex(range(4))),
                     "basis elements is not a sequence: got dict", id="reduce_basis-basis"),
        pytest.param(lambda: reduce_basis([], "grevlex"), "order must be a TermOrder, got 'grevlex'",
                     id="reduce_basis-order"),
    ])
    def test_engine_entry_points_check_their_arguments(self, call, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("bad", ["three_terms", "plus"])
    def test_non_binomial_generators_rejected(self, bad):
        bad = getattr(self, bad)
        good = [inv.poly for inv in gens_common_toric_listed3()]
        with pytest.raises(InputError):
            buchberger(good + [bad], TermOrder.grevlex(range(9)))
        with pytest.raises(InputError):
            ideal_equal(good, good + [bad])


# Processed S-pairs of whole toric_ideal computations.  The elimination
# rows were recorded on the general Fraction-coefficient Buchberger that
# preceded the binomial engine (calls to its s_polynomial); the engine
# processes the same pairs.  The saturation rows start from the unit-pivot
# basis and make a step only for the cells of saturation_cells: they skip
# the pivots, the cells no basis row touches and the touched cells with a
# witness row.  Beside them, the divisor searches of the run: the two terms
# of an S-binomial are reduced together and stop where their chains meet,
# and reducing each term to its normal form would search about twice as
# often, so a change that loses the joint reduction fails here.
S_PAIRS = [
    (ModelFamily.DIAGONAL_EFFECT, 4, "saturation", 249, 612),
    (ModelFamily.COMMON_DIAGONAL_EFFECT, 3, "saturation", 85, 221),
    (ModelFamily.COMMON_DIAGONAL_EFFECT, 3, "elimination", 83, 206),
    (ModelFamily.INDEPENDENCE, 3, "elimination", 67, 174),
    (ModelFamily.INDEPENDENCE, 4, "saturation", 939, 1972),
    (ModelFamily.COMMON_DIAGONAL_EFFECT, 4, "saturation", 2812, 5800),
]


@pytest.mark.parametrize("family, I, method, pairs, searches", S_PAIRS)
def test_processed_s_pairs_are_pinned(monkeypatch, family, I, method, pairs, searches):
    calls = count_s_pairs(monkeypatch)
    divisor_searches = count_divisor_searches(monkeypatch)
    toric_ideal(model(family, I), method=method)
    assert (len(calls), len(divisor_searches)) == (pairs, searches)


# The move ideal of the common-diagonal family at I = 5 with cell 0 last:
# one of the two Buchberger runs of the Markov-basis certificate (ROADMAP
# item 3).  Its counts and the basis hash were recorded on the engine's
# earlier pair update, which compared each new lcm with every other lcm.
# Its divisor searches pin the joint reduction of S-binomials, as above.
CERTIFICATE_RUN_SHA256 = "d1f83b2879b2f5f1ecb6fb6c581d53b48729b4fccebe6566ad5d267f426d7e0e"


def test_certificate_sized_run_is_pinned(monkeypatch):
    calls = count_s_pairs(monkeypatch)
    divisor_searches = count_divisor_searches(monkeypatch)
    order = TermOrder.grevlex_last(range(25), 0)
    basis = buchberger(moves_to_binomials(moves_common_diag(5)), order)
    assert (len(calls), len(basis), len(divisor_searches)) == (5479, 401, 10963)
    # no lead is divisible by the last variable, so the move ideal is
    # saturated by cell 0
    assert not any(0 in max(p.terms, key=order.key) for p in basis)
    text = json.dumps([str(p) for p in basis], separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_RUN_SHA256
