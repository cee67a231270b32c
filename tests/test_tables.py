import re
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagonal_effect import (
    CountTable,
    InputError,
    ModelFamily,
    ModelForm,
    ModelSpec,
    Move,
    ProbTable,
    SizeMismatchError,
    SufficientStat,
    apply_move,
    enumerate_fiber,
    likelihood,
    normalize,
    random_rational_point,
    sufficient_statistic,
    toric_point,
)
from diagonal_effect.markov import moves_diag_effect

from conftest import model, random_count_table

DIAG3 = model(ModelFamily.DIAGONAL_EFFECT, 3)
COMMON3 = model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3)


class Small(IntEnum):
    """An int subclass: an entry must be exactly an int, so it is rejected."""

    ONE = 1


class TestModelSpec:
    @pytest.mark.parametrize("family, form, size, message", [
        pytest.param("diag", ModelForm.TORIC, 3, "family must be a ModelFamily", id="family-str"),
        pytest.param(None, ModelForm.TORIC, 3, "family must be a ModelFamily", id="family-none"),
        pytest.param(ModelFamily.DIAGONAL_EFFECT, "toric", 3, "form must be a ModelForm", id="form-str"),
        pytest.param(ModelFamily.DIAGONAL_EFFECT, ModelForm.TORIC, 3.0, "must be an integer", id="size-float"),
        pytest.param(ModelFamily.DIAGONAL_EFFECT, ModelForm.TORIC, True, "must be an integer", id="size-bool"),
        pytest.param(ModelFamily.DIAGONAL_EFFECT, ModelForm.TORIC, "3", "must be an integer", id="size-str"),
        pytest.param(ModelFamily.DIAGONAL_EFFECT, ModelForm.TORIC, 1, "at least 2", id="size-1"),
    ])
    def test_malformed_fields_rejected(self, family, form, size, message):
        with pytest.raises(InputError, match=message):
            ModelSpec(family, form, size)


class TestCountTable:
    def test_margins_and_total(self):
        t = CountTable.from_rows([[1, 2], [3, 4]])
        assert t.n == 10
        assert t.row_margins() == (3, 7)
        assert t.col_margins() == (4, 6)
        assert t.diag_vector() == (1, 4)
        assert t.diag_sum() == 5

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            CountTable.from_rows([[1, -1], [0, 0]])

    def test_rejects_ragged(self):
        with pytest.raises(InputError):
            CountTable.from_rows([[1, 2], [3]])

    @pytest.mark.parametrize("entry", [float("nan"), "x", float("inf"), True, 2.0, Small.ONE],
                             ids=["nan", "str", "inf", "bool", "float", "int-subclass"])
    def test_rejects_non_integer_entries(self, entry):
        with pytest.raises(InputError, match=r"^count at \(1,1\) must be an integer of at least 0, got "):
            CountTable.from_rows([[entry, 0], [0, 1]])
        with pytest.raises(InputError, match=r"^move entry at \(1,1\) must be an integer, got "):
            Move.from_rows([[entry, -1], [-1, 1]])

    @pytest.mark.parametrize("cells", [
        ((True, 2.0), (0, 1)),
        ((1, 2.0), (0, 1)),
        ((Fraction(2), 0), (0, 1)),
        (("x", 0), (0, 1)),
        ((Small.ONE, 0), (0, 1)),
    ], ids=["bool-and-float", "float", "fraction", "str", "int-subclass"])
    def test_constructor_rejects_non_int_cells(self, cells):
        with pytest.raises(InputError, match="must be an integer of at least 0"):
            CountTable(size=2, cells=cells)

    @pytest.mark.parametrize("rows, message", [
        (5, r"^cells is not a sequence: got int$"),
        ([[1, 0], 5], r"^cells: row 2 is not a sequence: got int$"),
    ], ids=["table", "row"])
    def test_from_rows_rejects_non_sequences(self, rows, message):
        with pytest.raises(InputError, match=message):
            CountTable.from_rows(rows)
        with pytest.raises(InputError, match=message):
            Move.from_rows(rows)

    @pytest.mark.parametrize("build", [CountTable, ProbTable, Move], ids=lambda c: c.__name__)
    @pytest.mark.parametrize("size, cells, message", [
        (1, 5, r"^cells is not a sequence: got int$"),
        (1, None, r"^cells is not a sequence: got NoneType$"),
        (1, [5], r"^cells: row 1 is not a sequence: got int$"),
        (2, ((1, -1), 5), r"^cells: row 2 is not a sequence: got int$"),
        (2, {(1, -1), (-1, 1)}, r"^cells is not a sequence: got set$"),
    ], ids=["int", "none", "int-row", "second-row", "set"])
    def test_constructors_reject_non_sequence_grids(self, build, size, cells, message):
        # each constructor checks the grid before it takes a len
        with pytest.raises(InputError, match=message):
            build(size=size, cells=cells)

    @pytest.mark.parametrize("build, row", [(CountTable, 1), (ProbTable, Fraction(1)), (Move, 1)],
                             ids=lambda x: getattr(x, "__name__", repr(x)))
    def test_constructors_reject_non_square_grids(self, build, row):
        for cells in ((), ((row,), (row,)), ((row, row),), [[row, row], [row]]):
            with pytest.raises(InputError, match=r"^cells must form a size x size grid$"):
                build(size=2, cells=cells)

    def test_constructor_takes_list_grids(self):
        assert CountTable(size=2, cells=[[1, 0], [0, 1]]).n == 2
        assert Move(size=2, cells=[[1, -1], [-1, 1]]).degree == 2
        # a tuple-of-tuples grid is kept as the very object
        cells = ((1, 0), (0, 1))
        assert CountTable(size=2, cells=cells).cells is cells

    @pytest.mark.parametrize("build, cells", [
        (CountTable, ((1, 0), (0, 1))),
        (Move, ((1, -1), (-1, 1))),
        (ProbTable, ((Fraction(1, 2), 0), (0, Fraction(1, 2)))),
    ], ids=lambda x: getattr(x, "__name__", ""))
    @pytest.mark.parametrize("size", [2.0, True, "2", None], ids=repr)
    def test_constructors_reject_non_int_sizes(self, build, cells, size):
        with pytest.raises(InputError, match=f"^table size must be an integer, got {size!r}$"):
            build(size=size, cells=cells)

    def test_rejects_index_entries(self):
        # an `__index__` object, such as a NumPy int, is not an int: every
        # entry point rejects it rather than converting it
        class Count:
            def __index__(self):
                return 2

        with pytest.raises(InputError, match=r"^count at \(1,1\) must be an integer of at least 0"):
            CountTable.from_rows([[Count(), 0], [0, 1]])
        with pytest.raises(InputError, match=r"^move entry at \(1,1\) must be an integer"):
            Move.from_rows([[Count(), -1], [-1, 1]])


@st.composite
def table_grid(draw):
    """A kind of table and its grid as a list, a tuple or a mix of both:
    counts, a balanced nonzero move, or probabilities with int zeros."""
    size = draw(st.integers(1, 4))
    kind = draw(st.sampled_from([CountTable, Move, ProbTable]))
    if kind is Move:
        size = max(size, 2)
        flat = draw(st.lists(st.integers(-3, 3), min_size=size * size - 1, max_size=size * size - 1)
                    .filter(any))
        flat.append(-sum(flat))
    else:
        flat = draw(st.lists(st.integers(0, 5), min_size=size * size, max_size=size * size)
                    .filter(any))
        if kind is ProbTable:
            total = sum(flat)
            flat = [Fraction(x, total) if x else 0 for x in flat]
    row_types = draw(st.lists(st.sampled_from([list, tuple]), min_size=size, max_size=size))
    rows = [row_type(flat[i * size:(i + 1) * size]) for i, row_type in enumerate(row_types)]
    return kind, draw(st.sampled_from([list, tuple]))(rows)


class TestOneGrid:
    @settings(max_examples=150, deadline=None)
    @given(case=table_grid())
    def test_constructor_and_from_rows_agree(self, case):
        kind, grid = case
        built, from_rows = kind(size=len(grid), cells=grid), kind.from_rows(grid)
        assert built == from_rows and hash(built) == hash(from_rows)
        for table in (built, from_rows):
            assert type(table.cells) is tuple and all(type(row) is tuple for row in table.cells)
            assert table.cells == tuple(map(tuple, grid))


class TestProbTable:
    def test_requires_exact_unit_sum(self):
        half = Fraction(1, 2)
        ProbTable.from_rows([[half, 0], [0, half]])
        with pytest.raises(InputError):
            ProbTable.from_rows([[half, 0], [0, Fraction(1, 3)]])

    @pytest.mark.parametrize("rows, total", [
        ([[Fraction(1, 2), 0], [0, Fraction(1, 3)]], "5/6"),
        ([[Fraction(1, 6), Fraction(1, 4)], [Fraction(1, 3), Fraction(1, 5)]], "19/20"),
        ([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), 0]], "3/2"),
    ])
    def test_wrong_sum_message(self, rows, total):
        with pytest.raises(InputError, match=f"^probabilities sum to {total}, expected exactly 1$"):
            ProbTable.from_rows(rows)

    def test_cell_checks_come_in_cell_order(self):
        half = Fraction(1, 2)
        with pytest.raises(InputError, match=r"^probability at \(1,2\) is negative: -1/2$"):
            ProbTable(size=2, cells=((half, -half), (1.0, half)))
        with pytest.raises(InputError, match=r"^probability at \(2,1\) is not an int or a Fraction: 1.0$"):
            ProbTable(size=2, cells=((half, half), (1.0, -half)))

    @pytest.mark.parametrize("bad", [1.0, True, "1"])
    def test_from_rows_takes_ints_and_fractions_only(self, bad):
        # each would sum to exactly 1 once coerced to a Fraction
        assert ProbTable.from_rows([[0, 0], [0, 1]]).cells[1][1] == Fraction(1)
        with pytest.raises(InputError, match=rf"^probability at \(2,2\) is not an int or a Fraction: {bad!r}$"):
            ProbTable.from_rows([[0, 0], [0, bad]])

    @pytest.mark.parametrize("rows, message", [
        (5, r"^cells is not a sequence: got int$"),
        ([5], r"^cells: row 1 is not a sequence: got int$"),
    ], ids=["table", "row"])
    def test_from_rows_rejects_non_sequences(self, rows, message):
        with pytest.raises(InputError, match=message):
            ProbTable.from_rows(rows)

    def test_normalize_is_exact(self):
        t = CountTable.from_rows([[1, 2], [3, 4]])
        p = normalize(t)
        assert p.cells[1][1] == Fraction(4, 10)
        assert sum(x for row in p.cells for x in row) == 1


class TestSufficientStatistic:
    def test_identity_table_diag_effect(self):
        t = CountTable.from_rows([[1, 0], [0, 1]])
        s = sufficient_statistic(t, model(ModelFamily.DIAGONAL_EFFECT, 2))
        assert s.rows == (1, 1) and s.cols == (1, 1) and s.diag == (1, 1)

    def test_permutation_table_both_models(self):
        t = CountTable.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        s1 = sufficient_statistic(t, DIAG3)
        assert s1.rows == (1, 1, 1) and s1.cols == (1, 1, 1) and s1.diag == (0, 0, 0)
        s2 = sufficient_statistic(t, COMMON3)
        assert s2.diag == 0

    def test_size_mismatch(self):
        t = CountTable.from_rows([[1]])
        with pytest.raises(SizeMismatchError):
            sufficient_statistic(t, DIAG3)

    @pytest.mark.parametrize("family, rows, cols, diag, message", [
        (ModelFamily.INDEPENDENCE, (1.5, 0.5, 1), (3,), None,
         r"^row margins: entry 1 must be an integer of at least 0, got 1.5$"),
        (ModelFamily.INDEPENDENCE, (1, 1, -1), (1, 0, 0), None,
         r"^row margins: entry 3 must be an integer of at least 0, got -1$"),
        (ModelFamily.INDEPENDENCE, (1, 1, 1), (3,), None, r"^column margins has 1 entries, expected 3$"),
        (ModelFamily.DIAGONAL_EFFECT, (1, 1), (1, 1), 2, r"^diagonal vector is not a sequence: got int$"),
        (ModelFamily.DIAGONAL_EFFECT, (1, 1), (1, 1), (0, True),
         r"^diagonal vector: entry 2 must be an integer of at least 0, got True$"),
        (ModelFamily.COMMON_DIAGONAL_EFFECT, (1, 1), (1, 1), -1,
         r"^diagonal sum must be an integer of at least 0, got -1$"),
        ("diag", (1, 1), (1, 1), None, r"^family must be a ModelFamily, got 'diag'$"),
    ], ids=["float-rows", "negative-row", "short-cols", "int-diag-vector", "bool-diag", "negative-sum",
            "family-str"])
    def test_malformed_statistics_rejected(self, family, rows, cols, diag, message):
        with pytest.raises(InputError, match=message):
            SufficientStat(family, rows=rows, cols=cols, diag=diag)

    def test_list_margins_are_frozen(self):
        listed = SufficientStat(ModelFamily.DIAGONAL_EFFECT, rows=[2, 1], cols=[1, 2], diag=[1, 0])
        frozen = SufficientStat(ModelFamily.DIAGONAL_EFFECT, rows=(2, 1), cols=(1, 2), diag=(1, 0))
        assert listed == frozen and type(listed.diag) is tuple
        m = model(ModelFamily.DIAGONAL_EFFECT, 2)
        assert hash(enumerate_fiber(listed, m)) == hash(enumerate_fiber(frozen, m))

    def test_stat_type_invariants(self):
        with pytest.raises(InputError):
            SufficientStat(ModelFamily.DIAGONAL_EFFECT, rows=(1, 1), cols=(2, 1), diag=(0, 0))
        with pytest.raises(InputError):
            SufficientStat(ModelFamily.COMMON_DIAGONAL_EFFECT, rows=(1,), cols=(1,), diag=(1,))


class TestApplyMove:
    def test_triangle_move_on_permutation_table(self):
        t = CountTable.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        cycle = [m for m in moves_diag_effect(3) if m.label == "cycle"][0]
        out = apply_move(t, cycle, -1)
        assert out is not None
        assert out.to_lists() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        # moving back recovers the original table
        back = apply_move(out, cycle, +1)
        assert back == t

    def test_infeasible_returns_marker(self):
        t = CountTable.from_rows([[0, 1], [1, 0]])
        m = Move.from_rows([[1, -1], [-1, 1]])
        assert apply_move(t, m, -1) is None

    def test_preserves_statistic_for_all_small_applications(self, rng):
        moves = moves_diag_effect(3)
        for _ in range(50):
            t = random_count_table(rng, 3, rng.randint(2, 8))
            before = sufficient_statistic(t, DIAG3)
            for m in moves:
                for sign in (1, -1):
                    out = apply_move(t, m, sign)
                    if out is not None:
                        assert sufficient_statistic(out, DIAG3) == before
                        # built unchecked: it must equal the checked table
                        assert out == CountTable(size=3, cells=out.cells)

    @pytest.mark.parametrize("sign", [1.0, -1.0, True], ids=repr)
    def test_non_integer_sign_rejected(self, sign):
        # a float sign would make every count a float
        t = CountTable.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        cycle = [m for m in moves_diag_effect(3) if m.label == "cycle"][0]
        with pytest.raises(InputError, match=f"^sign must be an integer, got {sign!r}$"):
            apply_move(t, cycle, sign)

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_sign_other_than_one_rejected(self, sign):
        t = CountTable.from_rows([[0, 1], [1, 0]])
        with pytest.raises(InputError, match=f"^sign must be \\+1 or -1, got {sign}$"):
            apply_move(t, Move.from_rows([[1, -1], [-1, 1]]), sign)

    def test_zero_move_rejected(self):
        with pytest.raises(InputError):
            Move.from_rows([[0, 0], [0, 0]])

    def test_unbalanced_move_rejected(self):
        with pytest.raises(InputError):
            Move.from_rows([[1, 0], [0, 0]])

    @pytest.mark.parametrize("x", [1.0, True, Fraction(1)])
    def test_non_integer_move_rejected(self, x):
        with pytest.raises(InputError, match=r"^move entry at \(1,1\) must be an integer, got "):
            Move(size=2, cells=((x, -1), (-1, 1)))

    @pytest.mark.parametrize("label", [5, None, b"rect", ["rect"]], ids=repr)
    def test_non_str_label_rejected(self, label):
        with pytest.raises(InputError, match=f"^move label must be a str, got {re.escape(repr(label))}$"):
            Move(size=2, cells=((1, -1), (-1, 1)), label=label)
        with pytest.raises(InputError, match="^move label must be a str"):
            Move.from_rows([[1, -1], [-1, 1]], label=label)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), size=st.integers(2, 5))
    def test_entries_are_the_nonzero_row_major_cells(self, data, size):
        flat = data.draw(st.lists(st.integers(-3, 3), min_size=size * size - 1, max_size=size * size - 1)
                         .filter(any))
        flat.append(-sum(flat))
        rows = [flat[i * size:(i + 1) * size] for i in range(size)]
        move = Move.from_rows(rows, label="any")
        assert move.entries == tuple((k, x) for k, x in enumerate(flat) if x)
        # derived from the cells, it takes no part in repr, equality or hash
        assert "entries" not in repr(move)
        assert move == Move(size, tuple(map(tuple, rows)), "any") and hash(move) == hash(Move(size, rows, "any"))


class TestLikelihood:
    def test_uniform_value(self):
        I = 3
        p = ProbTable.from_rows([[Fraction(1, 9)] * 3 for _ in range(3)])
        t = CountTable.from_rows([[1, 1, 0], [0, 0, 0], [0, 0, 0]])
        assert likelihood(p, t) == Fraction(1, 81)

    def test_zero_probability_cell(self):
        p = ProbTable.from_rows([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
        t = CountTable.from_rows([[1, 0], [0, 0]])
        assert likelihood(p, t) == 0

    def test_likelihood_depends_only_on_statistic(self, rng):
        # two tables with equal diagonal-effect statistic and a toric point
        t1 = CountTable.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        t2 = CountTable.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert sufficient_statistic(t1, DIAG3) == sufficient_statistic(t2, DIAG3)
        for seed in range(10):
            params = random_rational_point(DIAG3, seed)
            table, _ = toric_point(params)
            assert likelihood(table, t1) == likelihood(table, t2)
