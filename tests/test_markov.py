import math
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagonal_effect import markov
from diagonal_effect import (
    BudgetExceededError,
    CountTable,
    InputError,
    ModelFamily,
    SizeMismatchError,
    Stationary,
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

from conftest import all_tables, model, random_count_table

DIAG3 = model(ModelFamily.DIAGONAL_EFFECT, 3)
COMMON3 = model(ModelFamily.COMMON_DIAGONAL_EFFECT, 3)
DERANGEMENT = CountTable.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
# the `fibers` benchmark's largest base table: a common-diagonal fiber of 9,480 tables
LARGEST = CountTable.from_rows(
    [[0, 0, 1, 2, 0], [0, 0, 2, 0, 1], [2, 0, 0, 1, 0], [1, 0, 0, 0, 2], [0, 3, 0, 0, 0]])
FAMILIES = [ModelFamily.DIAGONAL_EFFECT, ModelFamily.COMMON_DIAGONAL_EFFECT]


def flat(table: CountTable) -> tuple:
    return tuple(x for row in table.cells for x in row)


@lru_cache(maxsize=None)
def fibers_by_grouping(family: ModelFamily, size: int, n: int) -> dict:
    """Every fiber of total n, as sorted flat tables, by grouping all tables."""
    m = model(family, size)
    groups = {}
    for t in all_tables(size, n):
        groups.setdefault(sufficient_statistic(t, m), []).append(flat(t))
    return {stat: sorted(members) for stat, members in groups.items()}


def components_by_bfs(fiber, moves) -> tuple:
    """Connected components by breadth-first search over `apply_move`, each
    in fiber order, ordered by their first table."""
    position = {t.cells: k for k, t in enumerate(fiber.tables)}
    component = {}
    for start in range(len(fiber)):
        if start in component:
            continue
        component[start] = start
        queue = deque([fiber.tables[start]])
        while queue:
            table = queue.popleft()
            for move in moves:
                for sign in (1, -1):
                    nxt = apply_move(table, move, sign)
                    k = position.get(nxt.cells) if nxt is not None else None
                    if k is not None and k not in component:
                        component[k] = start
                        queue.append(nxt)
    return tuple(tuple(fiber.tables[k] for k in range(len(fiber)) if component[k] == root)
                 for root in sorted(set(component.values())))


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
        # group all tables of a fixed total by statistic: complete fibers
        for family in (ModelFamily.DIAGONAL_EFFECT, ModelFamily.COMMON_DIAGONAL_EFFECT):
            m = model(family, 3)
            groups = {}
            for t in all_tables(3, 4):
                groups.setdefault(sufficient_statistic(t, m), []).append(t)
            for stat, members in list(groups.items())[::7]:
                fiber = enumerate_fiber(stat, m)
                assert sorted(t.cells for t in fiber.tables) == sorted(t.cells for t in members)

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

    def test_node_count_of_largest_benchmark_fiber(self):
        # the count decides which budgets enumerate this fiber
        spec = model(ModelFamily.COMMON_DIAGONAL_EFFECT, 5)
        fiber = enumerate_fiber(sufficient_statistic(LARGEST, spec), spec)
        assert (len(fiber), fiber.nodes) == (9480, 352_789)

    def test_tables_built_once_from_flats(self):
        fiber = enumerate_fiber(sufficient_statistic(DERANGEMENT, COMMON3), COMMON3)
        assert fiber.tables is fiber.tables
        assert tuple(flat(t) for t in fiber.tables) == fiber.flats

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
        assert list(enumerate_fiber(stat, m).flats) == fibers_by_grouping(family, size, n)[stat]


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

    def test_wrong_move_size_rejected(self):
        fiber = enumerate_fiber(sufficient_statistic(DERANGEMENT, DIAG3), DIAG3)
        with pytest.raises(SizeMismatchError):
            is_connected(fiber, moves_diag_effect(4))

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(FAMILIES), size=st.integers(3, 4), data=st.data())
    def test_components_match_naive_bfs(self, family, size, data):
        n = data.draw(st.integers(2, 6 if size == 3 else 4), label="n")
        fibers = fibers_by_grouping(family, size, n)
        stat = data.draw(st.sampled_from(sorted(fibers, key=repr)), label="stat")
        m = model(family, size)
        family_moves = moves_for_model(m)
        keep = data.draw(st.lists(st.booleans(), min_size=len(family_moves),
                                  max_size=len(family_moves)), label="keep")
        moves = [mv for mv, kept in zip(family_moves, keep) if kept]
        fiber = enumerate_fiber(stat, m)
        report = is_connected(fiber, moves)
        assert report.components == components_by_bfs(fiber, moves)
        assert report.connected == (len(report.components) <= 1)

    def test_sweep_wrong_move_size_rejected(self):
        with pytest.raises(SizeMismatchError):
            verify_connectivity(ModelFamily.DIAGONAL_EFFECT, 3, 3, moves_diag_effect(4))

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

    @pytest.mark.parametrize("family_moves", [True, False], ids=["family-moves", "no-moves"])
    @pytest.mark.parametrize("spec", [DIAG3, COMMON3], ids=["diag", "common"])
    def test_sweep_agrees_with_is_connected(self, spec, family_moves):
        max_n = 3
        moves = moves_for_model(spec) if family_moves else []
        report = verify_connectivity(spec.family, 3, max_n, moves)
        stats = {sufficient_statistic(t, spec) for n in range(max_n + 1) for t in all_tables(3, n)}
        disconnected = {}
        for stat in stats:
            components = is_connected(enumerate_fiber(stat, spec), moves).components
            if len(components) > 1:
                disconnected[(stat.rows, stat.cols, stat.diag)] = tuple(sorted(map(len, components)))
        assert report.fibers_checked == len(stats)
        assert dict(report.disconnected) == disconnected
        assert bool(disconnected) != family_moves


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
            if previous is not None:
                # an unmoved state is re-emitted as the very same object
                assert (state is previous) == (state.cells == previous.cells)
            previous = state


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

    def test_pearson_only_for_new_states(self, monkeypatch):
        t = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        config = WalkConfig(steps=2_000, seed=4)
        calls = []
        real = markov.pearson_statistic
        monkeypatch.setattr(markov, "pearson_statistic", lambda cells, e: calls.append(cells) or real(cells, e))
        exact_test(t, COMMON3, config, method="mcmc")
        states = list(fiber_walk(t, moves_common_diag(3), config))
        new_states = 1 + sum(a is not b for a, b in zip(states, states[1:]))
        assert new_states < len(states)
        assert len(calls) == 1 + new_states  # the observed table, then each new state

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

    def test_zero_table_rejected(self):
        with pytest.raises(InputError):
            exact_test(CountTable.from_rows([[0, 0], [0, 0]]), model(ModelFamily.DIAGONAL_EFFECT, 2))

    def test_result_embeds_config(self):
        t = CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
        result = exact_test(t, COMMON3, WalkConfig(steps=2_000, seed=77), method="mcmc")
        assert result.config["seed"] == 77
        assert result.config["stationary"] == "hypergeometric"
