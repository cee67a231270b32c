import math
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import List
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diagonal_effect import fibers, markov, walk
from diagonal_effect.moves import _move_deltas
from diagonal_effect.params import expected_counts
from diagonal_effect import (
    BudgetExceededError,
    CountTable,
    InputError,
    InvariantViolationError,
    ModelFamily,
    ModelForm,
    ModelSpec,
    Move,
    SizeMismatchError,
    Stationary,
    SufficientStat,
    WalkConfig,
    apply_move,
    design_matrix,
    enumerate_fiber,
    exact_test,
    exact_test_chains,
    fiber_walk,
    is_connected,
    moves_common_diag,
    moves_diag_effect,
    moves_for_model,
    sufficient_statistic,
    transpose_apply,
    verify_connectivity,
)

from conftest import components_by_bfs, encode, fibers_by_statistic, model, move_search_only, random_count_table

DIAG3 = model(ModelFamily.DIAGONAL_EFFECT, 3)
COMMON3 = model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3)
INDEP3 = model(ModelFamily.INDEPENDENCE, 3)
INDEP6 = model(ModelFamily.INDEPENDENCE, 6)
COMMON6 = model(ModelFamily.COMMON_DIAGONAL_EFFECT, 6)
DERANGEMENT = CountTable.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
FAMILIES = [ModelFamily.DIAGONAL_EFFECT, ModelFamily.COMMON_DIAGONAL_EFFECT]
# the base tables of the `fibers` benchmark's enumeration jobs
FIBER_BASE_TABLES = [
    ("common", [[1, 0, 3], [2, 1, 0], [3, 0, 2]]),
    ("diag", [[0, 0, 1, 2], [1, 0, 0, 0], [2, 0, 0, 0], [0, 0, 1, 1]]),
    ("common", [[0, 0, 0, 0, 1], [0, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 1, 0, 0, 0], [0, 0, 0, 0, 0]]),
    ("common", [[1, 4, 4], [4, 2, 2], [2, 2, 3]]),
    ("diag", [[0, 1, 2, 0], [1, 1, 1, 7], [0, 0, 2, 1], [2, 1, 1, 2]]),
    ("common", [[1, 3, 0, 0], [0, 2, 3, 0], [0, 1, 3, 1], [1, 2, 0, 1]]),
    ("common", [[1, 0, 2, 2], [2, 2, 0, 2], [2, 2, 0, 3], [0, 1, 0, 1]]),
    ("diag", [[0, 0, 1, 2, 2], [1, 0, 0, 0, 0], [2, 1, 1, 0, 1], [0, 0, 2, 1, 0], [0, 1, 1, 0, 0]]),
    ("common", [[0, 0, 1, 2, 0], [0, 0, 2, 0, 1], [2, 0, 0, 1, 0], [1, 0, 0, 0, 2], [0, 3, 0, 0, 0]]),
]
FAMILY_NAMES = {"diag": ModelFamily.DIAGONAL_EFFECT, "common": ModelFamily.COMMON_DIAGONAL_EFFECT}
# the largest of them: a common-diagonal fiber of 9,480 tables
LARGEST = CountTable.from_rows(FIBER_BASE_TABLES[-1][1])
# those of at most 1,598 tables, and their transposes
SMALLER_FIBERS = [(f, c) for f, cells in FIBER_BASE_TABLES[:7] for c in (cells, [list(r) for r in zip(*cells)])]


def basic_moves(size: int) -> List[Move]:
    """Every 2 x 2 swap, the moves of independence: +1 at (i, j) and
    (k, h), -1 at (i, h) and (k, j), for rows i < k and columns j < h."""
    moves = []
    for i, k in combinations(range(size), 2):
        for j, h in combinations(range(size), 2):
            cells = [[0] * size for _ in range(size)]
            cells[i][j] = cells[k][h] = 1
            cells[i][h] = cells[k][j] = -1
            moves.append(Move.from_rows(cells))
    return moves


def without_first(moves: List[Move], label: str) -> List[Move]:
    """`moves` less the first move labelled `label`."""
    k = next(k for k, m in enumerate(moves) if m.label == label)
    return moves[:k] + moves[k + 1:]


def cell_by_cell_search(
    stat: SufficientStat,
    model: ModelSpec,
    node_budget: int = markov.DEFAULT_NODE_BUDGET,
) -> tuple:
    """The cell-by-cell search that walks every node of the last row, kept
    as the reference for `enumerate_fiber`'s flats and node count: it
    returns (flats, nodes) and raises on the same budgets."""
    if stat.family is not model.family:
        raise InputError("statistic and model families differ")
    if stat.size != model.size:
        raise SizeMismatchError(f"statistic size {stat.size} != model size {model.size}")
    I = stat.size
    rows, cols = stat.rows, stat.cols
    diag_vec = stat.diag if stat.family is ModelFamily.DIAGONAL_EFFECT else None
    common = stat.family is ModelFamily.COMMON_DIAGONAL_EFFECT

    flat = [0] * (I * I)  # every cell is written before a leaf reads it
    colrem = list(cols)
    on_diag = 0 if stat.diag is None else 1  # independence leaves the diagonal free
    found: List[tuple] = []
    nodes = 0
    last = I - 1

    def fill(i: int, j: int, rowrem: int, diagrem: int):
        # node (i, j) for j < I - 1; diagrem is what the diagonal cells from
        # here on must hold in total
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"fiber enumeration exceeded the {node_budget}-node budget")
        c = colrem[j]
        lo, hi = 0, rowrem if rowrem < c else c
        shift = on_diag if i == j else 0
        if i == j:
            if diag_vec is not None:
                if not lo <= diag_vec[i] <= hi:
                    return
                lo = hi = diag_vec[i]
            elif common:
                # the later diagonal cells can absorb at most their margin bounds
                cap = 0
                for k in range(i + 1, I):
                    cap += min(rows[k], colrem[k])
                lo, hi = max(0, diagrem - cap), min(hi, diagrem)
        p = i * I + j
        for v in range(lo, hi + 1):
            flat[p], colrem[j] = v, c - v
            r, d = rowrem - v, diagrem - shift * v
            if j < I - 2:
                fill(i, j + 1, r, d)
                continue
            # the row's last cell is forced to r: its node, the row-end node
            # and, in the last row, where it is diagonal, the leaf
            nodes += 1
            if r > colrem[last] or (i == last and on_diag and r != d):
                continue
            flat[p + 1] = r
            nodes += 1
            if i == last:
                nodes += 1
                found.append(tuple(flat))
            else:
                colrem[last] -= r
                fill(i + 1, 0, rows[i + 1], d)
                colrem[last] += r
        colrem[j] = c

    fill(0, 0, rows[0], sum(diag_vec) if diag_vec is not None else stat.diag or 0)
    if nodes > node_budget:  # the inline nodes at the very end
        raise BudgetExceededError(f"fiber enumeration exceeded the {node_budget}-node budget")
    return tuple(found), nodes


@lru_cache(maxsize=None)
def family_moves(family: ModelFamily, size: int) -> list:
    return moves_for_model(model(family, size))


@st.composite
def small_tables(draw):
    """A table of size 2..5 with a total small enough to enumerate quickly.
    At I = 5 the common-diagonal cap and the closed-form last rows meet
    more cases than at I <= 4."""
    size = draw(st.integers(2, 5), label="size")
    n = draw(st.integers(0, {2: 10, 3: 10, 4: 7, 5: 6}[size]), label="n")
    picks = draw(st.lists(st.integers(0, size * size - 1), min_size=n, max_size=n), label="cells")
    cells = [[0] * size for _ in range(size)]
    for k in picks:
        cells[k // size][k % size] += 1
    return cells


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_mixture_form_has_no_moves_fit_or_test(family):
    # the conditional tests condition on the toric model's sufficient statistic
    spec = model(family, 3, ModelForm.MIXTURE)
    t = CountTable.from_rows([[1, 2, 0], [0, 1, 1], [2, 0, 1]])
    with pytest.raises(InputError, match="^move families exist only for toric-form models$"):
        moves_for_model(spec)
    fit_only = "^expected-count fits exist only for toric-form models$"
    with pytest.raises(InputError, match=fit_only):
        expected_counts(t, spec)
    for method in ("auto", "mcmc", "enumerate"):
        with pytest.raises(InputError, match=fit_only):
            exact_test(t, spec, WalkConfig(steps=10, seed=1), method=method)
    with pytest.raises(InputError, match=fit_only):
        exact_test_chains(t, spec, WalkConfig(steps=10, seed=1), 2)


class TestMoveFactories:
    def test_counts_diag_effect(self):
        assert len(moves_diag_effect(3)) == 1
        assert len(moves_diag_effect(4)) == 10

    def test_moves_have_zero_diagonal_diag_effect(self):
        for I in (3, 4, 5):
            for m in moves_diag_effect(I):
                assert all(m.cells[i][i] == 0 for i in range(I))

    def test_kernel_property_all_sizes(self):
        for I in range(3, 7):
            for family, moves in (
                (ModelFamily.DIAGONAL_EFFECT, moves_diag_effect(I)),
                (ModelFamily.COMMON_DIAGONAL_EFFECT, moves_common_diag(I)),
            ):
                A = design_matrix(model(family, I))
                for m in moves:
                    assert transpose_apply(A, m) == (0,) * A.num_params

    def test_common_moves_preserve_diag_sum_not_vector(self):
        shifting = [m for m in moves_common_diag(3) if m.label == "diag-shift"]
        assert shifting
        for m in shifting:
            assert sum(m.cells[i][i] for i in range(3)) == 0
            assert any(m.cells[i][i] != 0 for i in range(3))

    def test_documented_examples_present(self):
        cells = {m.cells for m in moves_common_diag(3)}
        assert ((1, 0, -1), (0, -1, 1), (-1, 1, 0)) in cells
        double = ((1, 1, -2), (-1, -1, 2), (0, 0, 0))
        assert double in cells
        assert tuple(zip(*double)) in cells  # its transpose

    def test_small_size_rejected(self):
        with pytest.raises(InputError):
            moves_diag_effect(2)

    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from(FAMILIES), size=st.integers(3, 5),
           sign=st.sampled_from([1, -1]), data=st.data())
    def test_moves_preserve_sufficient_statistic(self, family, size, sign, data):
        spec = model(family, size)
        move = data.draw(st.sampled_from(family_moves(family, size)), label="move")
        base = data.draw(st.lists(st.integers(0, 3), min_size=size * size, max_size=size * size),
                         label="base")
        # lift the base where sign * move takes away, so the move is feasible
        cells = [[base[i * size + j] + max(0, -sign * move.cells[i][j]) for j in range(size)]
                 for i in range(size)]
        table = CountTable.from_rows(cells)
        moved = apply_move(table, move, sign)
        assert moved is not None
        assert sufficient_statistic(moved, spec) == sufficient_statistic(table, spec)


class TestEnumerateFiber:
    def test_derangement_fiber_diag_effect(self):
        fiber = enumerate_fiber(sufficient_statistic(DERANGEMENT, DIAG3), DIAG3)
        assert len(fiber) == 2
        lists = [t.to_lists() for t in fiber.tables]
        assert [[0, 0, 1], [1, 0, 0], [0, 1, 0]] in lists
        assert [[0, 1, 0], [0, 0, 1], [1, 0, 0]] in lists

    def test_derangement_fiber_common_diag(self):
        fiber = enumerate_fiber(sufficient_statistic(DERANGEMENT, COMMON3), COMMON3)
        assert len(fiber) == 2

    def test_matches_grouping_oracle(self, rng):
        # group all tables of total at most 4 by statistic: complete fibers
        for family in (ModelFamily.DIAGONAL_EFFECT, ModelFamily.COMMON_DIAGONAL_EFFECT):
            for stat, members in list(fibers_by_statistic(family, 3, 4).items())[::7]:
                assert list(enumerate_fiber(stat, model(family, 3)).flats) == members

    def test_budget_error(self):
        t = CountTable.from_rows([[3, 3, 3], [3, 3, 3], [3, 3, 3]])
        with pytest.raises(BudgetExceededError):
            enumerate_fiber(sufficient_statistic(t, COMMON3), COMMON3, node_budget=10)

    def test_family_mismatch_rejected(self):
        stat = sufficient_statistic(DERANGEMENT, DIAG3)
        with pytest.raises(InputError):
            enumerate_fiber(stat, COMMON3)

    @pytest.mark.parametrize("budget", [-1, 2.5, True])
    def test_malformed_budget_rejected(self, budget):
        stat = sufficient_statistic(DERANGEMENT, DIAG3)
        with pytest.raises(InputError, match="node_budget"):
            enumerate_fiber(stat, DIAG3, node_budget=budget)

    def test_nodes_is_the_smallest_sufficient_budget(self):
        stat = sufficient_statistic(CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]]), COMMON3)
        fiber = enumerate_fiber(stat, COMMON3)
        assert enumerate_fiber(stat, COMMON3, node_budget=fiber.nodes) == fiber
        with pytest.raises(BudgetExceededError):
            enumerate_fiber(stat, COMMON3, node_budget=fiber.nodes - 1)

    def test_budget_stops_a_search_that_would_not_end(self):
        # total 720 at I = 6: no search could count these fibers' nodes, so
        # each call returns only by stopping at its budget
        table = CountTable.from_rows([[20] * 6] * 6)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="the 1000-node budget"):
            enumerate_fiber(sufficient_statistic(table, INDEP6), INDEP6, node_budget=1000)
        result = exact_test(table, COMMON6, WalkConfig(steps=200, seed=1), method="auto")
        assert result.method == "MCMC"
        assert time.perf_counter() - start < 20

    def test_length_and_hash_build_no_tables(self):
        spec = model(ModelFamily.COMMON_DIAGONAL_EFFECT, 5)
        stat = sufficient_statistic(LARGEST, spec)
        fiber, again = enumerate_fiber(stat, spec), enumerate_fiber(stat, spec)
        assert (len(fiber), hash(fiber)) == (9480, hash(again))
        assert "flats" not in vars(fiber)
        assert fiber == again and len(fiber.flats) == 9480
        assert fiber != replace(again, nodes=again.nodes + 1)

    def test_node_count_of_largest_benchmark_fiber(self):
        # the count decides which budgets enumerate this fiber
        spec = model(ModelFamily.COMMON_DIAGONAL_EFFECT, 5)
        fiber = enumerate_fiber(sufficient_statistic(LARGEST, spec), spec)
        assert (len(fiber), fiber.nodes) == (9480, 352_789)

    @staticmethod
    def check_against_cell_by_cell_search(family, cells):
        table = CountTable.from_rows(cells)
        m = model(family, table.size)
        stat = sufficient_statistic(table, m)
        fiber = enumerate_fiber(stat, m)
        assert (fiber.flats, fiber.nodes) == cell_by_cell_search(stat, m)
        assert table.flat in fiber.flats
        # the node count is the smallest budget that enumerates the fiber
        assert enumerate_fiber(stat, m, node_budget=fiber.nodes) == fiber
        with pytest.raises(BudgetExceededError, match=f"the {fiber.nodes - 1}-node budget"):
            enumerate_fiber(stat, m, node_budget=fiber.nodes - 1)

    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from(FAMILIES + [ModelFamily.INDEPENDENCE]), cells=small_tables())
    @example(family=ModelFamily.COMMON_DIAGONAL_EFFECT, cells=[[3, 3, 3], [3, 3, 3], [3, 3, 3]])
    @example(family=ModelFamily.DIAGONAL_EFFECT, cells=[[0, 0], [0, 0]])
    # the common-diagonal cap binds in rows whose earlier cells have
    # changed the column remainders
    @example(family=ModelFamily.COMMON_DIAGONAL_EFFECT, cells=[[1, 0, 2, 2], [2, 2, 0, 2], [2, 2, 0, 3], [0, 1, 0, 1]])
    @example(family=ModelFamily.COMMON_DIAGONAL_EFFECT,
             cells=[[0, 1, 0, 0, 0], [1, 0, 0, 1, 0], [0, 0, 0, 0, 0], [1, 0, 1, 2, 0], [0, 0, 0, 0, 1]])
    def test_flats_and_nodes_match_cell_by_cell_search(self, family, cells):
        self.check_against_cell_by_cell_search(family, cells)

    @pytest.mark.parametrize("family, cells", FIBER_BASE_TABLES,
                             ids=[f"{f}-{len(c)}-{k}" for k, (f, c) in enumerate(FIBER_BASE_TABLES)])
    def test_benchmark_fibers_match_cell_by_cell_search(self, family, cells):
        self.check_against_cell_by_cell_search(FAMILY_NAMES[family], cells)

    def test_tables_built_once_from_flats(self):
        fiber = enumerate_fiber(sufficient_statistic(DERANGEMENT, COMMON3), COMMON3)
        assert fiber.tables is fiber.tables
        assert tuple(t.flat for t in fiber.tables) == fiber.flats

    @settings(max_examples=100, deadline=None)
    @given(family=st.sampled_from(FAMILIES + [ModelFamily.INDEPENDENCE]),
           size=st.integers(3, 4), data=st.data())
    def test_flats_match_grouping_oracle(self, family, size, data):
        n = data.draw(st.integers(0, 6 if size == 3 else 4), label="n")
        picks = data.draw(st.lists(st.integers(0, size * size - 1), min_size=n, max_size=n))
        cells = [[0] * size for _ in range(size)]
        for k in picks:
            cells[k // size][k % size] += 1
        m = model(family, size)
        stat = sufficient_statistic(CountTable.from_rows(cells), m)
        assert list(enumerate_fiber(stat, m).flats) == fibers_by_statistic(family, size, n)[stat]


class TestConnectivity:
    @pytest.mark.parametrize("max_n", [-1, 1.5, True])
    def test_malformed_max_n_rejected(self, max_n):
        with pytest.raises(InputError, match="max_n"):
            verify_connectivity(ModelFamily.DIAGONAL_EFFECT, 3, max_n)

    def test_derangement_fiber_connected(self):
        fiber = enumerate_fiber(sufficient_statistic(DERANGEMENT, DIAG3), DIAG3)
        assert is_connected(fiber, moves_diag_effect(3)).connected

    def test_singleton_always_connected(self):
        t = CountTable.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        fiber = enumerate_fiber(sufficient_statistic(t, DIAG3), DIAG3)
        assert len(fiber) == 1
        assert is_connected(fiber, []).connected

    def test_empty_move_list_disconnects(self):
        fiber = enumerate_fiber(sufficient_statistic(DERANGEMENT, DIAG3), DIAG3)
        report = is_connected(fiber, [])
        assert not report.connected
        assert len(report.components) == 2

    @pytest.mark.parametrize("entry", [[[1, -1], [-1, 1]], "x", None],
                             ids=["nested-list", "string", "none"])
    @pytest.mark.parametrize("entry_point", ["is_connected", "verify_connectivity", "fiber_walk"])
    def test_non_move_entry_rejected(self, entry_point, entry):
        moves = [*moves_diag_effect(3), entry]
        with pytest.raises(InputError, match="Move"):
            if entry_point == "is_connected":
                is_connected(enumerate_fiber(sufficient_statistic(DERANGEMENT, DIAG3), DIAG3), moves)
            elif entry_point == "verify_connectivity":
                verify_connectivity(ModelFamily.DIAGONAL_EFFECT, 3, 2, moves)
            else:
                next(fiber_walk(DERANGEMENT, moves, WalkConfig(steps=1, seed=0)))

    @pytest.mark.parametrize("entry_point", ["is_connected", "verify_connectivity", "fiber_walk"])
    def test_move_list_that_is_not_a_sequence_rejected(self, entry_point):
        with pytest.raises(InputError, match="^moves is not a sequence: got int$"):
            if entry_point == "is_connected":
                is_connected(enumerate_fiber(sufficient_statistic(DERANGEMENT, DIAG3), DIAG3), 5)
            elif entry_point == "verify_connectivity":
                verify_connectivity(ModelFamily.DIAGONAL_EFFECT, 3, 2, 5)
            else:
                next(fiber_walk(DERANGEMENT, 5, WalkConfig(steps=1, seed=0)))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_move_deltas_pair_each_move_with_its_negation(self, family):
        # `_encoding` codes deltas[::2] as the steps, one sign of every move
        moves = moves_for_model(model(family, 4))
        deltas = _move_deltas(moves, 4)
        assert len(deltas) == 2 * len(moves)
        for k, move in enumerate(moves):
            flat = [x for row in move.cells for x in row]
            assert deltas[2 * k] == tuple((c, v) for c, v in enumerate(flat) if v)
            assert deltas[2 * k + 1] == tuple((c, -v) for c, v in deltas[2 * k])
        shifts, steps, codes = fibers._encoding(deltas, 4, 5)
        dense = [[0] * 16 for _ in deltas]
        for flat, delta in zip(dense, deltas):
            for c, v in delta:
                flat[c] = v
        assert steps == encode(dense[::2], shifts)
        assert codes == set(encode(dense, shifts))

    def test_search_follows_size_limit(self):
        # a path of tables one move apart, as long as the largest fiber
        # compared pairwise, one table a move, and one table longer
        moves = moves_diag_effect(4)
        step = [x for row in moves[0].cells for x in row]
        for size, other in [(len(moves), "_edges_by_move"),
                            (len(moves) + 1, "_edges_by_difference")]:
            path = [tuple(size + k * x for x in step) for k in range(size)]
            # counts of the path are below 2 * size
            shifts, steps, deltas = fibers._encoding(_move_deltas(moves, 4), 4, 2 * size)
            with mock.patch.object(fibers, other, side_effect=AssertionError(f"{other} ran")):
                assert fibers._components(encode(path, shifts), steps, deltas) == [list(range(size))]

    def test_sweep_rejects_malformed_family(self):
        with pytest.raises(InputError, match="ModelFamily"):
            verify_connectivity("diag", 3, 2)

    def test_wrong_move_size_rejected(self):
        fiber = enumerate_fiber(sufficient_statistic(DERANGEMENT, DIAG3), DIAG3)
        with pytest.raises(SizeMismatchError):
            is_connected(fiber, moves_diag_effect(4))

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(FAMILIES), size=st.integers(3, 4), data=st.data())
    def test_components_match_naive_bfs(self, family, size, data):
        n = data.draw(st.integers(2, 6 if size == 3 else 4), label="n")
        stat = data.draw(st.sampled_from(sorted(fibers_by_statistic(family, size, n), key=repr)), label="stat")
        m = model(family, size)
        family_moves = moves_for_model(m)
        keep = data.draw(st.lists(st.booleans(), min_size=len(family_moves),
                                  max_size=len(family_moves)), label="keep")
        moves = [mv for mv, kept in zip(family_moves, keep) if kept]
        fiber = enumerate_fiber(stat, m)
        report = is_connected(fiber, moves)
        expected = components_by_bfs(fiber.flats, moves)
        assert report.components == tuple(tuple(fiber.tables[k] for k in comp) for comp in expected)
        assert report.connected == (len(report.components) <= 1)
        for search in self.SEARCHES:
            assert self.components_by_search(fiber, moves, search) == expected

    SEARCHES = ["difference", "move"]

    @staticmethod
    def components_by_search(fiber, moves, search) -> List[List[int]]:
        """`fibers._components` with one neighbour search forced: for the
        difference search the steps are padded to as many as the members,
        which selects it, and the move search raises if it runs; the move
        search runs in place of the difference search."""
        I, n = fiber.stat.size, sum(fiber.stat.rows)
        shifts, steps, deltas = fibers._encoding(_move_deltas(moves, I), I, n)
        if search == "difference":
            steps = steps + [0] * len(fiber)
            patch = mock.patch.object(fibers, "_edges_by_move", side_effect=AssertionError("_edges_by_move ran"))
        else:
            patch = move_search_only(steps)
        with patch:
            return fibers._components(encode(fiber.flats, shifts), steps, deltas)

    # a benchmark base table, the move labels kept (None: all), and the
    # number of components of its fiber under those moves
    SEARCH_CASES = {
        "common3-all": (0, None, 1),
        "common3-diag-shift": (0, {"diag-shift"}, 2),
        "common3-diag-double": (3, {"diag-double"}, 3),
        "diag4-all": (4, None, 1),
        "diag4-cycle": (4, {"cycle"}, 23),
        "common5-all": (2, None, 1),
        "common5-cycle": (2, {"cycle"}, 24),
    }

    @pytest.mark.parametrize("search", SEARCHES)
    @pytest.mark.parametrize("case", list(SEARCH_CASES))
    def test_each_search_matches_bfs(self, case, search):
        base, labels, count = self.SEARCH_CASES[case]
        family, cells = FIBER_BASE_TABLES[base]
        m = model(FAMILY_NAMES[family], len(cells))
        moves = [mv for mv in moves_for_model(m) if labels is None or mv.label in labels]
        fiber = enumerate_fiber(sufficient_statistic(CountTable.from_rows(cells), m), m)
        components = self.components_by_search(fiber, moves, search)
        assert components == components_by_bfs(fiber.flats, moves)
        assert len(components) == count

    def test_sweep_wrong_move_size_rejected(self):
        with pytest.raises(SizeMismatchError):
            verify_connectivity(ModelFamily.DIAGONAL_EFFECT, 3, 3, moves_diag_effect(4))

    def test_sweep_budget_is_checked_before_building(self, monkeypatch):
        # C(6 + 9, 9) = 5,005 tables: the budget admits exactly that many
        monkeypatch.setattr(markov, "DEFAULT_NODE_BUDGET", 5005)
        assert verify_connectivity(ModelFamily.DIAGONAL_EFFECT, 3, 6).tables_seen == 5005
        monkeypatch.setattr(markov, "DEFAULT_NODE_BUDGET", 5004)
        monkeypatch.setattr(markov, "_file_tables", None)  # nothing is built
        with pytest.raises(BudgetExceededError, match="5004-table budget"):
            verify_connectivity(ModelFamily.DIAGONAL_EFFECT, 3, 6)

    def test_sweep_small(self):
        report = verify_connectivity(ModelFamily.DIAGONAL_EFFECT, 3, 4)
        assert report.all_connected
        assert report.tables_seen == sum(math.comb(n + 8, 8) for n in range(5))

    # the key's repr is what `check-connectivity` prints for a disconnected
    # fiber; the family move sets connect every swept fiber, so only reduced
    # move sets show it
    REDUCED_SWEEPS = {
        "common-no-diag-shift": (
            ModelFamily.COMMON_DIAGONAL_EFFECT, 3, 4, "diag-shift", (679, 715, 3),
            "((((1, 1, 1), (1, 1, 1), 1), (1, 1, 1)), (((1, 1, 2), (1, 1, 2), 2), (1, 1, 1)), "
            "(((1, 1, 2), (1, 2, 1), 1), (1, 1, 1)), (((1, 1, 2), (2, 1, 1), 1), (1, 1, 1)), "
            "(((1, 2, 1), (1, 1, 2), 1), (1, 1, 1)), (((1, 2, 1), (1, 2, 1), 2), (1, 1, 1)), "
            "(((1, 2, 1), (2, 1, 1), 1), (1, 1, 1)), (((2, 1, 1), (1, 1, 2), 1), (1, 1, 1)), "
            "(((2, 1, 1), (1, 2, 1), 1), (1, 1, 1)), (((2, 1, 1), (2, 1, 1), 2), (1, 1, 1)))",
        ),
        "diag-no-cycle": (
            ModelFamily.DIAGONAL_EFFECT, 4, 3, "cycle", (863, 969, 3),
            "((((0, 1, 1, 1), (0, 1, 1, 1), (0, 0, 0, 0)), (1, 1)), "
            "(((1, 0, 1, 1), (1, 0, 1, 1), (0, 0, 0, 0)), (1, 1)), "
            "(((1, 1, 0, 1), (1, 1, 0, 1), (0, 0, 0, 0)), (1, 1)), "
            "(((1, 1, 1, 0), (1, 1, 1, 0), (0, 0, 0, 0)), (1, 1)))",
        ),
    }

    @pytest.mark.parametrize("case", list(REDUCED_SWEEPS))
    def test_sweep_disconnected_report_pinned(self, case):
        family, I, max_n, dropped, counts, disconnected = self.REDUCED_SWEEPS[case]
        moves = [m for m in moves_for_model(model(family, I)) if m.label != dropped]
        report = verify_connectivity(family, I, max_n, moves)
        assert (report.fibers_checked, report.tables_seen, report.largest_fiber) == counts
        assert repr(report.disconnected) == disconnected

    # a model, its moves, whether they connect every fiber of the sweep, and
    # whether simultaneous row/column relabellings keep them
    SWEEP_CASES = {
        "diag-family-moves": (DIAG3, moves_diag_effect(3), True, True),
        "diag-no-moves": (DIAG3, [], False, True),
        "common-family-moves": (COMMON3, moves_common_diag(3), True, True),
        "common-no-moves": (COMMON3, [], False, True),
        "independence-basic-moves": (INDEP3, basic_moves(3), True, True),
        "independence-no-moves": (INDEP3, [], False, True),
        "common-one-diag-shift-fewer": (COMMON3, without_first(moves_common_diag(3), "diag-shift"), True, False),
    }

    @pytest.mark.parametrize("case", list(SWEEP_CASES))
    def test_sweep_agrees_with_is_connected(self, case):
        spec, moves, connects, closed = self.SWEEP_CASES[case]
        max_n = 3
        with mock.patch.object(markov, "_file_tables", wraps=markov._file_tables) as spy, \
                mock.patch.object(markov, "_relabel_flat", wraps=markov._relabel_flat) as relabel:
            report = verify_connectivity(spec.family, 3, max_n, moves)
        # one call builds the tables of every total, and moves kept by the
        # relabellings build only tables with non-increasing row sums
        assert [call.args[2:] for call in spy.call_args_list] == [(closed, max_n)]
        # the 3! relabellings, once, and only for a disconnected fiber of a symmetric sweep
        assert relabel.call_count == (6 if closed and not connects else 0)
        # every statistic, in the order a sweep of every table by total and
        # then lexicographically first meets it
        stats = fibers_by_statistic(spec.family, 3, max_n)
        disconnected = {}
        largest = 0
        for stat in stats:
            fiber = enumerate_fiber(stat, spec)
            largest = max(largest, len(fiber))
            components = is_connected(fiber, moves).components
            if len(components) > 1:
                disconnected[(stat.rows, stat.cols, stat.diag)] = tuple(sorted(map(len, components)))
        assert report.fibers_checked == len(stats)
        assert report.tables_seen == math.comb(max_n + 9, 9)
        assert report.largest_fiber == largest
        assert report.disconnected == tuple(disconnected.items())
        assert bool(disconnected) != connects

    # (fibers_checked, tables_seen, largest_fiber) of the acceptance sweeps
    # and at I = 7 and 8, as the sweep of every table counts them
    ACCEPTANCE_SWEEPS = {
        "diag-3-6": (ModelFamily.DIAGONAL_EFFECT, 3, 6, (4785, 5005, 3)),
        "diag-4-5": (ModelFamily.DIAGONAL_EFFECT, 4, 5, (14547, 20349, 10)),
        "diag-5-4": (ModelFamily.DIAGONAL_EFFECT, 5, 4, (15101, 23751, 11)),
        "common-3-6": (ModelFamily.COMMON_DIAGONAL_EFFECT, 3, 6, (4138, 5005, 6)),
        "common-4-5": (ModelFamily.COMMON_DIAGONAL_EFFECT, 4, 5, (12219, 20349, 12)),
        "common-5-4": (ModelFamily.COMMON_DIAGONAL_EFFECT, 5, 4, (13521, 23751, 11)),
        "diag-7-2": (ModelFamily.DIAGONAL_EFFECT, 7, 2, (1065, 1275, 2)),
        "common-7-2": (ModelFamily.COMMON_DIAGONAL_EFFECT, 7, 2, (1065, 1275, 2)),
        "diag-8-2": (ModelFamily.DIAGONAL_EFFECT, 8, 2, (1725, 2145, 2)),
        "common-8-2": (ModelFamily.COMMON_DIAGONAL_EFFECT, 8, 2, (1725, 2145, 2)),
    }

    @pytest.mark.parametrize("case", list(ACCEPTANCE_SWEEPS))
    def test_acceptance_sweep_counts_pinned(self, case):
        family, I, max_n, counts = self.ACCEPTANCE_SWEEPS[case]
        # every fiber is connected, so no relabelling is built
        with mock.patch.object(markov, "_relabel_flat", side_effect=AssertionError("_relabel_flat ran")):
            report = verify_connectivity(family, I, max_n)
        assert (report.fibers_checked, report.tables_seen, report.largest_fiber) == counts
        assert report.disconnected == ()

    @pytest.mark.parametrize("I, max_n", [(3, 5), (4, 3), (5, 3), (6, 2)])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_symmetric_sweep_matches_full_sweep(self, family, I, max_n):
        # each label's moves are kept by the relabellings, so every move set
        # here takes the symmetric sweep; the full sweep is forced by
        # denying the symmetry.  Past I = 4 the orbit weights I!/prod m_v!
        # meet row sums with up to I - 1 equal entries, and dropping "rect"
        # leaves disconnected fibers, whose relabellings are built on demand
        family_moves = moves_for_model(model(family, I))
        for label in sorted({m.label for m in family_moves}):
            moves = [m for m in family_moves if m.label != label]
            deltas = _move_deltas(moves, I)
            shifts, _, coded = fibers._encoding(deltas, I, max_n)
            assert markov._symmetric(deltas, I, shifts, coded)
            report = verify_connectivity(family, I, max_n, moves)
            with mock.patch.object(markov, "_symmetric", return_value=False):
                assert verify_connectivity(family, I, max_n, moves) == report, label

    def test_sweep_refuses_wrong_weights(self, unweighted_sweep):
        with pytest.raises(InvariantViolationError, match=r"= 5005$"):
            verify_connectivity(ModelFamily.DIAGONAL_EFFECT, 3, 6)


class TestFiberWalk:
    def test_statistic_invariant_along_chain(self):
        start = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        stat = sufficient_statistic(start, COMMON3)
        config = WalkConfig(steps=300, seed=5)
        for state in fiber_walk(start, moves_common_diag(3), config):
            assert sufficient_statistic(state, COMMON3) == stat

    def test_deterministic_in_seed(self):
        start = DERANGEMENT
        config = WalkConfig(steps=100, seed=3, stationary=Stationary.UNIFORM)
        run1 = [s.cells for s in fiber_walk(start, moves_diag_effect(3), config)]
        run2 = [s.cells for s in fiber_walk(start, moves_diag_effect(3), config)]
        assert run1 == run2

    def test_uniform_frequencies_on_two_element_fiber(self):
        config = WalkConfig(steps=20_000, seed=42, stationary=Stationary.UNIFORM)
        freq = Counter(s.cells for s in fiber_walk(DERANGEMENT, moves_diag_effect(3), config))
        assert set(freq) == {
            ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
            ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
        }
        for count in freq.values():
            assert abs(count / 20_000 - 0.5) < 0.02

    def test_hypergeometric_frequencies_match_enumeration(self):
        start = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        fiber = enumerate_fiber(sufficient_statistic(start, COMMON3), COMMON3)
        weights = {}
        for t in fiber.tables:
            w = Fraction(1)
            for row in t.cells:
                for x in row:
                    w /= math.factorial(x)
            weights[t.cells] = w
        total = sum(weights.values())
        config = WalkConfig(steps=100_000, seed=11, stationary=Stationary.HYPERGEOMETRIC)
        freq = Counter(s.cells for s in fiber_walk(start, moves_common_diag(3), config))
        for cells, w in weights.items():
            target = float(w / total)
            assert abs(freq.get(cells, 0) / 100_000 - target) < 0.015

    def test_empty_moves_rejected(self):
        with pytest.raises(InputError):
            next(fiber_walk(DERANGEMENT, [], WalkConfig(steps=10)))

    def test_wrong_move_size_rejected(self):
        with pytest.raises(SizeMismatchError):
            next(fiber_walk(DERANGEMENT, moves_diag_effect(4), WalkConfig(steps=10)))

    @pytest.mark.parametrize("field, value", [
        ("thinning", 0), ("thinning", 1.5), ("burn_in", 2.5), ("steps", True),
        ("seed", 1.5), ("seed", True), ("seed", "x"),
        ("stationary", "hypergeometric"), ("stationary", None),
    ])
    def test_bad_schedule_rejected(self, field, value):
        with pytest.raises(InputError, match=field):
            WalkConfig(**{"steps": 10, field: value})

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from([ModelFamily.DIAGONAL_EFFECT, ModelFamily.COMMON_DIAGONAL_EFFECT]),
        size=st.integers(3, 4),
        data=st.data(),
        stationary=st.sampled_from(list(Stationary)),
        seed=st.integers(0, 2**32),
        steps=st.integers(1, 80),
        burn_in=st.integers(0, 20),
        thinning=st.integers(1, 4),
    )
    def test_walk_states_stay_in_fiber(self, family, size, data, stationary, seed, steps, burn_in, thinning):
        m = model(family, size)
        cells = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=size, max_size=size),
                                   min_size=size, max_size=size))
        start = CountTable.from_rows(cells)
        stat = sufficient_statistic(start, m)
        config = WalkConfig(steps=steps, burn_in=burn_in, thinning=thinning, seed=seed,
                            stationary=stationary)
        previous = None
        for state in fiber_walk(start, moves_for_model(m), config):
            assert sufficient_statistic(state, m) == stat
            assert all(x >= 0 for row in state.cells for x in row)
            # the walk builds its tables unchecked: each must equal the checked one
            checked = CountTable(size=size, cells=state.cells)
            assert (state, hash(state), repr(state)) == (checked, hash(checked), repr(checked))
            if previous is not None:
                # an unmoved state is re-emitted as the very same object
                assert (state is previous) == (state.cells == previous.cells)
            previous = state


def reference_pearson(cells, expected) -> float:
    """Pearson chi-square cell by cell, returning at the first infinite term:
    the reference for the per-value term lookups."""
    chi2 = 0.0
    for orow, erow in zip(cells, expected):
        for o, e in zip(orow, erow):
            if e > 0.0:
                chi2 += (o - e) ** 2 / e
            elif o != 0:
                return math.inf
    return chi2


class TestPearsonStatistic:
    @pytest.mark.parametrize("family, cells", FIBER_BASE_TABLES[:5])
    def test_matches_memoised_terms_bit_for_bit(self, family, cells):
        # `pearson_statistic` fixes the order in which the walk and the
        # enumeration sum their cached per-cell terms
        table = CountTable.from_rows(cells)
        m = model(FAMILY_NAMES[family], table.size)
        expected = expected_counts(table, m)
        fit = [e for row in expected for e in row]
        terms = [{} for _ in fit]
        fiber = enumerate_fiber(sufficient_statistic(table, m), m)
        assert len(fiber.tables) > 1
        for t in fiber.tables:
            assert (markov.pearson_statistic(t.cells, expected).hex()
                    == markov._pearson_flat(markov._add_terms(fit, terms, t.flat), t.flat).hex())

    def test_positive_count_on_zero_fit_is_infinite(self):
        expected = [[0.0, 2.0], [1.5, 0.5]]
        assert markov.pearson_statistic([[0, 2], [1, 1]], expected) < math.inf
        assert markov.pearson_statistic([[1, 1], [1, 1]], expected) == math.inf
        assert markov.pearson_statistic([[3, 0], [0, 0]], [[3.0, 0.0], [0.0, 0.0]]) == 0.0

    @pytest.mark.parametrize("expected", [[[1.0]], [[1.0, 2.0]], [[1.0, 2.0], [3.0]],
                                          [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]], ids=repr)
    def test_shapes_must_match(self, expected):
        with pytest.raises(SizeMismatchError, match="observed and expected grids differ in shape"):
            markov.pearson_statistic([[1, 2], [3, 4]], expected)


def reference_indicators(table: CountTable, m: ModelSpec, config: WalkConfig) -> tuple:
    """The MCMC branch of `exact_test` with the statistic computed cell by
    cell: the observed statistic, and for each state of the public walk
    whether its statistic reaches the observed one."""
    expected = expected_counts(table, m)
    observed = reference_pearson(table.cells, expected)
    threshold = markov._chi2_threshold(observed)
    indicators = []
    last = indicator = None
    for state in fiber_walk(table, moves_for_model(m), config):
        if state is not last:
            last = state
            indicator = 1.0 if reference_pearson(state.cells, expected) >= threshold else 0.0
        indicators.append(indicator)
    return observed, indicators


def reference_chains(table: CountTable, m: ModelSpec, config: WalkConfig, chains: int) -> tuple:
    """The walks with seeds seed, ..., seed + chains - 1 pooled: the share of
    all their indicators, and the standard error from the batch means of
    every walk together, each walk cut into min(64, max(8, n // 500))
    batches of n // batches values (the binomial error when that is 0, and
    0.0 below 2 values); (statistic, p-value, stderr, samples)."""
    runs = [reference_indicators(table, m, replace(config, seed=config.seed + k)) for k in range(chains)]
    walks = [indicators for _, indicators in runs]
    n = sum(len(w) for w in walks)
    p = sum(x for w in walks for x in w) / n
    batches = min(64, max(8, len(walks[0]) // 500))
    length = len(walks[0]) // batches
    means = [sum(w[b * length:(b + 1) * length]) / length for w in walks for b in range(batches)] if length else []
    if n < 2:
        stderr = 0.0
    elif not means:
        stderr = math.sqrt(p * (1 - p) / n)
    else:
        grand = sum(means) / len(means)
        stderr = math.sqrt(sum((x - grand) ** 2 for x in means) / (len(means) - 1) / len(means))
    return runs[0][0], p, stderr, n


def reference_mcmc(table: CountTable, m: ModelSpec, config: WalkConfig) -> tuple:
    return reference_chains(table, m, config, 1)


def oracle_cases() -> list:
    """(family, table, config) over both families at I = 3..5: seeded random
    tables under several seeds, one short burn-in with thinning, and one
    table with a zero row, whose expected counts have zero cells."""
    rng = random.Random(2009)
    cases = []
    for family in FAMILIES:
        for size in (3, 4, 5):
            table = random_count_table(rng, size, 3 * size * size)
            for seed in (1, 8, 31):
                cases.append((family, table, WalkConfig(steps=2_000, seed=seed)))
    cases.append((ModelFamily.COMMON_DIAGONAL_EFFECT, random_count_table(rng, 4, 40),
                  WalkConfig(steps=2_000, burn_in=7, thinning=3, seed=5)))
    zero_row = CountTable.from_rows([[0, 0, 0, 0], [1, 3, 0, 2], [2, 1, 4, 0], [3, 0, 2, 1]])
    for family in FAMILIES:
        cases.append((family, zero_row, WalkConfig(steps=2_000, seed=2)))
    return cases


ORACLE_CASES = oracle_cases()
ORACLE_IDS = [f"{f.value}-I{t.size}-n{t.n}-seed{c.seed}-thin{c.thinning}" for f, t, c in ORACLE_CASES]


class TestWalkOracle:
    """`exact_test` scores walk states from per-value Pearson lookups; every
    number must equal the cell-by-cell reference, to the last bit."""

    @pytest.mark.parametrize("family, table, config", ORACLE_CASES, ids=ORACLE_IDS)
    def test_mcmc_matches_reference(self, family, table, config):
        m = model(family, table.size)
        result = exact_test(table, m, config, method="mcmc")
        got = (result.statistic_observed, result.p_value, result.monte_carlo_stderr, result.samples_used)
        assert repr(got) == repr(reference_mcmc(table, m, config))

    @pytest.mark.parametrize("family, table, config", ORACLE_CASES[::4], ids=ORACLE_IDS[::4])
    def test_chains_match_reference(self, family, table, config):
        m = model(family, table.size)
        result = exact_test_chains(table, m, config, chains=3)
        got = (result.statistic_observed, result.p_value, result.monte_carlo_stderr, result.samples_used)
        assert repr(got) == repr(reference_chains(table, m, config, 3))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("steps", [1, 2, 7])
    def test_short_chains_match_reference(self, family, steps):
        # below 8 values per walk the error is binomial, and 0.0 below 2 values
        table = CountTable.from_rows([[2, 5, 3], [4, 1, 6], [5, 3, 2]])
        m = model(family, 3)
        config = WalkConfig(steps=steps, burn_in=3, seed=11)
        for chains in (1, 3):
            result = exact_test_chains(table, m, config, chains=chains)
            got = (result.statistic_observed, result.p_value, result.monte_carlo_stderr, result.samples_used)
            assert repr(got) == repr(reference_chains(table, m, config, chains))
            n, p = steps * chains, result.p_value
            assert result.samples_used == n
            assert result.monte_carlo_stderr == (0.0 if n < 2 else math.sqrt(p * (1 - p) / n))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("steps", [1, 2, 7, 2_000])
    def test_one_chain_is_exact_test(self, family, steps):
        table = CountTable.from_rows([[2, 5, 3], [4, 1, 6], [5, 3, 2]])
        m = model(family, 3)
        config = WalkConfig(steps=steps, seed=3)
        assert (repr(exact_test_chains(table, m, config, 1))
                == repr(exact_test(table, m, config, method="mcmc")))

    def test_two_chain_error_bars_cover_the_exact_p(self):
        # pooled batch means: 11 of 100 seeds miss by more than 2 stderr;
        # the spread of the two chain means missed 34
        table = CountTable.from_rows([[1, 4, 4], [4, 2, 2], [2, 2, 3]])
        exact = exact_test(table, COMMON3, method="enumerate").p_value
        assert round(exact, 6) == 0.649659
        misses = 0
        for seed in range(100):
            result = exact_test_chains(table, COMMON3, WalkConfig(steps=2_000, burn_in=100, seed=seed), chains=2)
            misses += abs(result.p_value - exact) > 2 * result.monte_carlo_stderr
        assert misses <= 15

    def test_cases_have_zero_expected_cells_and_open_p_values(self):
        for family, table, _ in ORACLE_CASES[-2:]:
            assert expected_counts(table, model(family, table.size))[0] == [0.0] * table.size
        p_values = [reference_mcmc(table, model(family, table.size), config)[1]
                    for family, table, config in ORACLE_CASES]
        assert sum(0.0 < p < 1.0 for p in p_values) >= len(ORACLE_CASES) // 2


def independence_fit(table: CountTable, m: ModelSpec) -> list:
    """The classical independence fit r_i c_j / n, for which the package
    has no `expected_counts`; it takes the same arguments."""
    cols = [sum(col) for col in zip(*table.cells)]
    return [[sum(row) * c / table.n for c in cols] for row in table.cells]


def fit_for(family: ModelFamily):
    return independence_fit if family is ModelFamily.INDEPENDENCE else expected_counts


def reference_enumeration_test(table: CountTable, m: ModelSpec) -> tuple:
    """The enumeration branch of `exact_test` table by table: each table of
    `cell_by_cell_search` weighted by the integer n!/prod f!, its Pearson
    statistic from `_pearson_flat`, and the p-value as an int division;
    (statistic, p-value, tables)."""
    observed, hit, total, tables = reference_weights(table, m)
    return observed, hit / total, tables


def reference_weights(table: CountTable, m: ModelSpec) -> tuple:
    """`reference_enumeration_test`'s integers: (statistic, weight of the
    tables at least as extreme, weight of all tables, tables)."""
    fit = [e for row in fit_for(m.family)(table, m) for e in row]
    terms = markov._add_terms(fit, [{} for _ in fit], table.flat)
    observed = markov._pearson_flat(terms, table.flat)
    threshold = markov._chi2_threshold(observed)
    flats, _ = cell_by_cell_search(sufficient_statistic(table, m), m)
    n_fact = math.factorial(table.n)
    hit = total = 0
    for state in flats:
        w = n_fact // math.prod(map(math.factorial, state))
        total += w
        if markov._pearson_flat(markov._add_terms(fit, terms, state), state) >= threshold:
            hit += w
    return observed, hit, total, len(flats)


def shrink_cell_budget(monkeypatch, cells: int) -> None:
    """`_CELL_BUDGET` set to `cells` in both modules that read it: `walk`
    for the walk's numbered states and `markov` for the MCMC test's scores."""
    for module in (walk, markov):
        monkeypatch.setattr(module, "_CELL_BUDGET", cells)


def spy_pearson(monkeypatch) -> List[tuple]:
    """The flat tables `markov._pearson_flat` scores, in call order.  A call
    that meets a count without a term raises KeyError and scores nothing:
    the caller makes the terms (`_add_terms`) and calls again."""
    calls = []
    real = markov._pearson_flat

    def counted(terms, state):
        state = tuple(state)
        chi2 = real(terms, state)
        calls.append(state)
        return chi2

    monkeypatch.setattr(markov, "_pearson_flat", counted)
    return calls


class TestExactTest:
    def test_enumeration_on_fit_shaped_table(self):
        t = CountTable.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        result = exact_test(t, DIAG3, method="enumerate")
        assert result.method == "Enumeration"
        assert result.monte_carlo_stderr == 0.0
        assert result.statistic_observed == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0)

    def test_enumeration_reports_nodes_visited(self):
        t = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        fiber = enumerate_fiber(sufficient_statistic(t, COMMON3), COMMON3)
        result = exact_test(t, COMMON3, method="enumerate")
        assert result.config == {"node_budget": 200_000, "nodes_visited": fiber.nodes}

    def test_enumeration_on_large_total_with_small_fiber(self):
        # n = 30,003, but the fiber holds only this 3-cycle and its reverse:
        # the weights need the factorials of the cell values 0, 1 and 10,000
        t = CountTable.from_rows([[10_000, 1, 0], [0, 10_000, 1], [1, 0, 10_000]])
        result = exact_test(t, DIAG3)
        assert (result.method, result.samples_used, result.p_value) == ("Enumeration", 2, 1.0)

    @staticmethod
    def check_against_reference(family, cells):
        table = CountTable.from_rows(cells)
        m = model(family, table.size)
        fibers = []

        def enumerate_and_keep(*args):
            fibers.append(enumerate_fiber(*args))
            return fibers[-1]

        # the package fits no independence model: the test takes the reference's fit
        with mock.patch.object(markov, "expected_counts", fit_for(family)), \
                mock.patch.object(markov, "enumerate_fiber", enumerate_and_keep):
            result = exact_test(table, m, method="enumerate", node_budget=markov.DEFAULT_NODE_BUDGET)
        got = (result.statistic_observed, result.p_value, result.samples_used)
        assert repr(got) == repr(reference_enumeration_test(table, m))
        # the test weighs the row network: no table is built
        fiber, = fibers
        assert len(fiber) == result.samples_used
        assert "flats" not in vars(fiber) and "tables" not in vars(fiber)

    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from(FAMILIES + [ModelFamily.INDEPENDENCE]), cells=small_tables())
    @example(family=ModelFamily.COMMON_DIAGONAL_EFFECT, cells=[[3, 3, 3], [3, 3, 3], [3, 3, 3]])
    @example(family=ModelFamily.INDEPENDENCE, cells=[[0, 0, 0], [1, 3, 0], [2, 1, 4]])
    def test_p_value_matches_table_by_table_weighting(self, family, cells):
        assume(any(map(any, cells)))
        self.check_against_reference(family, cells)

    @pytest.mark.parametrize("family, cells", FIBER_BASE_TABLES,
                             ids=[f"{f}-{len(c)}-{k}" for k, (f, c) in enumerate(FIBER_BASE_TABLES)])
    def test_benchmark_p_values_match_table_by_table_weighting(self, family, cells):
        self.check_against_reference(FAMILY_NAMES[family], cells)

    @pytest.mark.parametrize("family, cells", SMALLER_FIBERS,
                             ids=[f"{f}-{len(c)}-{k}" for k, (f, c) in enumerate(SMALLER_FIBERS)])
    def test_forward_sum_weights_match_table_by_table_weighting(self, family, cells):
        table = CountTable.from_rows(cells)
        m = model(FAMILY_NAMES[family], table.size)
        fit, terms, observed = markov._fit_terms(table, m)
        fiber = enumerate_fiber(sufficient_statistic(table, m), m)
        hit, total = markov._tail_weights(fiber, fit, terms, markov._chi2_threshold(observed))
        _, ref_hit, ref_total, _ = reference_weights(table, m)
        assert Fraction(hit, total) == Fraction(ref_hit, ref_total)
        # a table weighs prod_i r_i!/prod f! in the forward sum, n!/prod f! in the reference
        n_fact, row_facts = math.factorial(table.n), math.prod(math.factorial(sum(r)) for r in cells)
        assert (hit * n_fact, total * n_fact) == (ref_hit * row_facts, ref_total * row_facts)

    def test_pvalue_in_unit_interval(self, rng):
        for _ in range(5):
            t = random_count_table(rng, 3, 6)
            result = exact_test(t, COMMON3, method="enumerate")
            assert 0.0 <= result.p_value <= 1.0

    def test_mcmc_close_to_enumeration(self):
        t = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        exact = exact_test(t, COMMON3, method="enumerate")
        mcmc = exact_test(t, COMMON3, WalkConfig(steps=40_000, seed=9), method="mcmc")
        assert mcmc.method == "MCMC"
        gap = abs(mcmc.p_value - exact.p_value)
        assert gap <= max(3 * mcmc.monte_carlo_stderr, 1e-9)
        assert gap <= 0.02

    def test_pearson_once_per_distinct_state(self, monkeypatch):
        t = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        config = WalkConfig(steps=2_000, seed=4)
        unpatched = exact_test(t, COMMON3, config, method="mcmc")
        calls = spy_pearson(monkeypatch)
        assert exact_test(t, COMMON3, config, method="mcmc") == unpatched
        states = list(fiber_walk(t, moves_common_diag(3), config))
        distinct = list(dict.fromkeys(s.flat for s in states))
        changes = sum(a is not b for a, b in zip(states, states[1:]))
        assert len(distinct) < changes  # the walk revisits tables
        assert calls == [t.flat] + distinct  # the observed table, then each table once
        # a revisited table is the same object
        by_cells = {s.cells: s for s in states}
        assert all(s is by_cells[s.cells] for s in states)

    def test_intern_cap_keeps_the_stream(self, monkeypatch):
        t = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        config = WalkConfig(steps=2_000, seed=4)
        moves = moves_common_diag(3)

        def run(config):
            states = list(fiber_walk(t, moves, config))
            return (states, exact_test(t, COMMON3, config, method="mcmc"),
                    exact_test_chains(t, COMMON3, config, chains=3))

        # a walk past the probe that keeps its tables: a revisit is the same object
        states, test, chains = run(config)
        assert config.burn_in + config.steps > walk._PROBE
        by_cells = {s.cells: s for s in states}
        assert len(by_cells) > 3 and all(s is by_cells[s.cells] for s in states)
        # Room for two states: numbering a third one drops the tables, here
        # within the burn-in.  The stream stays, and from then on each change
        # builds a new table.
        shrink_cell_budget(monkeypatch, 2 * 9)
        dropped, dropped_test, dropped_chains = run(config)
        assert [s.cells for s in dropped] == [s.cells for s in states]
        assert (dropped_test, dropped_chains) == (test, chains)
        changes = sum(a is not b for a, b in zip(dropped, dropped[1:]))
        assert len(by_cells) < 1 + changes == len({id(s) for s in dropped})
        # With no burn-in the first two tables are emitted while the walk
        # keeps them, and the third is the last table the tables build.
        config = replace(config, burn_in=0)
        monkeypatch.undo()
        kept = list(fiber_walk(t, moves, config))
        shrink_cell_budget(monkeypatch, 2 * 9)
        dropped = list(fiber_walk(t, moves, config))
        assert [s.cells for s in dropped] == [s.cells for s in kept]
        cells = [s.cells for s in dropped]
        third = cells.index(list(dict.fromkeys(cells))[2])
        head, tail = dropped[:third], dropped[third:]
        # the walk goes back to its first table before it meets the third
        assert sum(a is not b for a, b in zip(head, head[1:])) == 2
        assert len({id(s) for s in head}) == 2
        changes = sum(a is not b for a, b in zip(tail, tail[1:]))
        assert len({s.cells for s in tail}) < 1 + changes == len({id(s) for s in tail})

    @pytest.mark.parametrize("cells, config, cell_budget, kept, drop", [
        ([[1, 2, 0], [0, 1, 2], [2, 0, 1]], WalkConfig(steps=2_000, seed=4), 2 * 9, 2, 3),
        # the benchmark's common I = 5 table under the shipped constants:
        # 8,192 // 25 = 327 tables
        ([[1, 0, 0, 0, 1], [1, 0, 1, 0, 1], [2, 2, 0, 0, 0], [0, 1, 0, 1, 0], [1, 0, 0, 2, 0]],
         WalkConfig(steps=10_000, seed=1), None, 327, 356),
    ], ids=["budget", "shipped"])
    def test_scores_memo_dropped_by_the_rule(self, monkeypatch, cells, config, cell_budget, kept, drop):
        t = CountTable.from_rows(cells)
        spec, moves = model(ModelFamily.COMMON_DIAGONAL_EFFECT, t.size), moves_common_diag(t.size)
        unpatched = exact_test(t, spec, config, method="mcmc")
        states = [s.flat for s in fiber_walk(t, moves, config)]
        changes = [s for k, s in enumerate(states) if k == 0 or s != states[k - 1]]
        if cell_budget is not None:
            shrink_cell_budget(monkeypatch, cell_budget)
        calls = spy_pearson(monkeypatch)
        assert exact_test(t, spec, config, method="mcmc") == unpatched
        # The memo keeps the scores of the first `kept` tables and is dropped
        # at the next new table, the state change at index `drop`: from then
        # on every state change is scored again.
        first = list(dict.fromkeys(changes))[:kept]
        assert drop == next(k for k, s in enumerate(changes) if s not in first)
        assert calls == [t.flat] + first + changes[drop:]

    def test_pearson_once_per_distinct_state_over_chains(self, monkeypatch):
        t = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        config = WalkConfig(steps=2_000, seed=4)
        calls = spy_pearson(monkeypatch)
        exact_test_chains(t, COMMON3, config, chains=3)
        visited = {s.flat for k in range(3)
                   for s in fiber_walk(t, moves_common_diag(3), replace(config, seed=config.seed + k))}
        assert calls[0] == t.flat  # the observed table
        walked = calls[1:]
        assert len(walked) == len(set(walked)) == len(visited)
        assert set(walked) == visited

    def test_term_dicts_hold_only_the_counts_met(self, monkeypatch):
        # n = 10^6: a term for every count a cell could hold would be up to
        # 10^6 terms per cell; the walk meets at most one count per state
        t = CountTable.from_rows([[400_000, 50_000, 30_000], [60_000, 200_000, 40_000],
                                  [20_000, 70_000, 130_000]])
        assert t.n == 10**6
        fits, walked = [], []
        real_fit, real_walk = markov._fit_terms, markov.fiber_walk

        def fit_terms(*args):
            fits.append(real_fit(*args))
            return fits[-1]

        def recording_walk(*args):
            for state in real_walk(*args):
                walked.append(state.flat)
                yield state

        monkeypatch.setattr(markov, "_fit_terms", fit_terms)
        monkeypatch.setattr(markov, "fiber_walk", recording_walk)
        config = WalkConfig(steps=1_000, seed=3)
        result = exact_test(t, COMMON3, config, method="mcmc")
        [(fit, terms, _)] = fits
        assert len(walked) == 1_000 and len(set(walked)) > 1
        assert [set(term) for term in terms] == [{t.flat[k]} | {s[k] for s in walked} for k in range(9)]
        assert all(term[o] == markov._pearson_term(o, e) for e, term in zip(fit, terms) for o in term)
        monkeypatch.undo()
        assert exact_test(t, COMMON3, config, method="mcmc") == result

    def test_infinite_statistic_threshold(self):
        assert markov._chi2_threshold(math.inf) == math.inf

    @pytest.mark.parametrize("chains", [0, 1.5, True])
    def test_malformed_chains_rejected(self, chains):
        t = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        with pytest.raises(InputError, match="chains"):
            exact_test_chains(t, COMMON3, WalkConfig(steps=100, seed=1), chains=chains)

    def test_chain_merge_is_deterministic(self):
        t = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        config = WalkConfig(steps=5_000, seed=1)
        r1 = exact_test_chains(t, COMMON3, config, chains=3)
        r2 = exact_test_chains(t, COMMON3, config, chains=3)
        assert r1.p_value == r2.p_value
        assert r1.config["chains"] == 3

    @pytest.mark.parametrize("method", ["auto", "mcmc", "enumerate"])
    def test_negative_node_budget_rejected(self, method):
        t = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        with pytest.raises(InputError, match="node_budget"):
            exact_test(t, COMMON3, WalkConfig(steps=100, seed=1), method=method, node_budget=-5)

    def test_auto_past_the_budget_walks_the_default_length(self):
        t = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        result = exact_test(t, COMMON3, method="auto", node_budget=0)
        assert result.method == "MCMC"
        assert result.samples_used == 50_000
        assert result.config == WalkConfig(steps=50_000).to_dict()

    def test_enumerate_past_the_budget_raises_where_auto_walks(self):
        # the fiber takes 397 nodes
        t = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        config = WalkConfig(steps=100, seed=1)
        with pytest.raises(BudgetExceededError, match="the 396-node budget"):
            exact_test(t, COMMON3, config, method="enumerate", node_budget=396)
        assert exact_test(t, COMMON3, config, method="auto", node_budget=396).method == "MCMC"

    def test_zero_table_rejected(self):
        with pytest.raises(InputError):
            exact_test(CountTable.from_rows([[0, 0], [0, 0]]), model(ModelFamily.DIAGONAL_EFFECT, 2))

    def test_result_embeds_config(self):
        t = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        result = exact_test(t, COMMON3, WalkConfig(steps=2_000, seed=77), method="mcmc")
        assert result.config["seed"] == 77
        assert result.config["stationary"] == "hypergeometric"
