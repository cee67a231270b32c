"""The fiber walk, the move factories and the connectivity sweep against
their earlier or plainer forms.

`reference_fiber_walk` is the walk as it drew proposals with
`Random.randrange` and branched on each move entry for its sign and the
stationary law; the reference builders made each candidate move a dense
grid, fixed its sign on the grid and checked every `Move`.  The package's
kernel and factories must give exactly what these give: the same states
from the same seeds, and the same moves in the same order.  The kernel
must give them whether it keeps its proposal tables or has dropped them,
wherever it drops them.  `reference_sweep` builds every table as a tuple,
groups the tables by `sufficient_statistic` and finds components by
breadth-first search; `verify_connectivity` must report what it reports.
"""

import math
import random
from itertools import combinations, permutations
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagonal_effect import (
    CountTable,
    ModelFamily,
    Move,
    Stationary,
    SweepReport,
    WalkConfig,
    fiber_walk,
    moves_common_diag,
    moves_diag_effect,
    verify_connectivity,
)
from diagonal_effect import fibers, markov, walk
from diagonal_effect.moves import _move_deltas as package_move_deltas
from diagonal_effect.tables import rectangle_indices, require_int, triple_indices

from conftest import components_by_bfs, encode, fibers_by_statistic, move_search_only

# ---------------------------------------------------------------------------
# reference move builders
# ---------------------------------------------------------------------------


def _canonical_signed(cells: tuple) -> tuple:
    """The grid `cells` or its negative, whichever has a positive first
    nonzero entry."""
    first = next((x for row in cells for x in row if x != 0), 0)
    if first < 0:
        return tuple(tuple(-x for x in row) for row in cells)
    return cells


def _family(I: int, grids: Iterable[Tuple[str, tuple]]) -> List[Move]:
    """One Move per distinct canonical grid among the (label, grid) pairs,
    in order of first appearance and with that appearance's label."""
    seen: Dict[tuple, str] = {}
    for label, cells in grids:
        seen.setdefault(_canonical_signed(cells), label)
    return [Move(size=I, cells=cells, label=label) for cells, label in seen.items()]


def _grid(I: int, entries: Dict[Tuple[int, int], int]) -> tuple:
    g = [[0] * I for _ in range(I)]
    for (i, j), v in entries.items():
        g[i - 1][j - 1] = v
    return tuple(tuple(row) for row in g)


def _with_transposes(label: str, grids: List[tuple]) -> List[Tuple[str, tuple]]:
    """The grids under `label`, then their transposes under `label^T`."""
    return [(label, g) for g in grids] + [(label + "^T", tuple(zip(*g))) for g in grids]


def _diag_effect_grids(I: int) -> Iterator[Tuple[str, tuple]]:
    for i, k, j, h in rectangle_indices(I):
        yield "rect", _grid(I, {(i, j): 1, (i, h): -1, (k, j): -1, (k, h): 1})
    for a, b, c in triple_indices(I):
        yield "cycle", _grid(I, {
            (a, b): 1, (a, c): -1,
            (b, a): -1, (b, c): 1,
            (c, a): 1, (c, b): -1,
        })


def reference_moves_diag_effect(I: int) -> List[Move]:
    require_int(I, "table size", 3)
    return _family(I, _diag_effect_grids(I))


def reference_moves_common_diag(I: int) -> List[Move]:
    require_int(I, "table size", 3)
    grids = list(_diag_effect_grids(I))
    idx = range(1, I + 1)

    for (a, b, c) in permutations(idx, 3):
        # the three diagonal-shift variants on rows/columns (a, b, c)
        grids.append(("diag-shift", _grid(I, {
            (a, a): 1, (a, c): -1,
            (b, b): -1, (b, c): 1,
            (c, a): -1, (c, b): 1,
        })))
        grids.append(("diag-shift", _grid(I, {
            (a, a): 1, (a, b): -1,
            (b, a): -1, (b, c): 1,
            (c, b): 1, (c, c): -1,
        })))
        grids.append(("diag-shift", _grid(I, {
            (a, b): -1, (a, c): 1,
            (b, a): -1, (b, b): 1,
            (c, a): 1, (c, c): -1,
        })))

    for (i, k, j, h) in permutations(idx, 4):
        # rows (i, k, h), columns (i, k, j)
        grids.append(("diag-shift-rect", _grid(I, {
            (i, i): 1, (i, j): -1,
            (k, k): -1, (k, j): 1,
            (h, i): -1, (h, k): 1,
        })))

    grids += _with_transposes("diag-double", [
        _grid(I, {
            (i, i): 1, (i, k): 1, (i, j): -2,
            (k, i): -1, (k, k): -1, (k, j): 2,
        })
        for i, k in combinations(idx, 2) for j in idx if j not in (i, k)
    ])
    grids += _with_transposes("diag-quad", [
        _grid(I, {
            (i, i): 1, (i, k): 1, (i, j): -1, (i, h): -1,
            (k, i): -1, (k, k): -1, (k, j): 1, (k, h): 1,
        })
        for i, k, j, h in rectangle_indices(I)
    ])
    return _family(I, grids)


FACTORIES = {
    ModelFamily.DIAGONAL_EFFECT: (moves_diag_effect, reference_moves_diag_effect),
    ModelFamily.COMMON_DIAGONAL_EFFECT: (moves_common_diag, reference_moves_common_diag),
}


# ---------------------------------------------------------------------------
# reference kernel
# ---------------------------------------------------------------------------


def _move_deltas(moves: Sequence[Move]) -> List[tuple]:
    """Each move's nonzero flat entries as (cell, change) pairs, followed
    by the same entries negated."""
    deltas = []
    for m in moves:
        flat = [x for row in m.cells for x in row]
        entries = tuple((k, v) for k, v in enumerate(flat) if v)
        deltas.append(entries)
        deltas.append(tuple((k, -v) for k, v in entries))
    return deltas


def reference_walk_plans(moves: Sequence[Move]) -> List[tuple]:
    """One plan (downs, ups, delta) per signed move, from its grid: downs
    holds (cell, j) for j < d for each count the move lowers by d, and ups
    (cell, j) for 1 <= j <= u for each count it raises by u."""
    plans = []
    for delta in _move_deltas(moves):
        downs = tuple((k, j) for k, v in delta if v < 0 for j in range(-v))
        ups = tuple((k, j) for k, v in delta if v > 0 for j in range(1, v + 1))
        plans.append((downs, ups, delta))
    return plans


def reference_fiber_walk(start: CountTable, moves: Sequence[Move], config: WalkConfig,
                         trace: Optional[list] = None) -> Iterator[CountTable]:
    """The walk's emitted states; `trace`, when given, gets each step's
    (state, draw) as (flat tuple, move index)."""
    I = start.size
    deltas = _move_deltas(moves)
    rows = [slice(i * I, (i + 1) * I) for i in range(I)]
    rng = random.Random(f"fiber-walk|{config.seed}")
    randrange, count = rng.randrange, len(deltas)
    hypergeometric = config.stationary is Stationary.HYPERGEOMETRIC
    flat = [x for row in start.cells for x in row]
    last = state = None
    moved = True
    until_emit = config.burn_in
    for _ in range(config.burn_in + config.steps):
        r = randrange(count)
        if trace is not None:
            trace.append((tuple(flat), r))
        delta = deltas[r]
        num = den = 1
        for k, v in delta:
            old = flat[k]
            new = old + v
            if new < 0:
                break  # infeasible: a stay-in-place step
            if hypergeometric:
                # f! / f'! is 1 / ((f+1)...f') when a count rises, f...(f'+1) when it falls
                if v > 0:
                    den *= new if v == 1 else math.perm(new, v)
                else:
                    num *= old if v == -1 else math.perm(old, -v)
        else:
            if num < den:
                a, b = rng.random().as_integer_ratio()  # accept when a / b < num / den
            if num >= den or a * den < num * b:
                for k, v in delta:
                    flat[k] += v
                moved = True
        if until_emit:
            until_emit -= 1
            continue
        until_emit = config.thinning - 1
        if moved:
            out = tuple(flat)
            if out != last:
                last = out
                state = CountTable(size=I, cells=tuple(map(out.__getitem__, rows)))
            moved = False
        yield state


# ---------------------------------------------------------------------------
# reference connectivity sweep
# ---------------------------------------------------------------------------


def reference_sweep(family: ModelFamily, I: int, max_n: int, moves: Sequence[Move]) -> SweepReport:
    """The report of a sweep of every table: each statistic is a fiber, and
    a disconnected fiber is listed with its sorted component sizes, in the
    order the sweep first meets it."""
    fibers = fibers_by_statistic(family, I, max_n)
    disconnected = []
    for stat, members in fibers.items():
        sizes = list(map(len, components_by_bfs(members, moves)))
        if len(sizes) > 1:
            disconnected.append(((stat.rows, stat.cols, stat.diag), tuple(sorted(sizes))))
    return SweepReport(
        family=family,
        size=I,
        max_n=max_n,
        fibers_checked=len(fibers),
        tables_seen=sum(map(len, fibers.values())),
        largest_fiber=max(map(len, fibers.values())),
        disconnected=tuple(disconnected),
    )


def emitted(states: Iterable[CountTable]) -> Tuple[list, list]:
    """The cells of each state, and for each state after the first whether
    it is the previous state's object."""
    states = list(states)
    return [s.cells for s in states], [b is a for a, b in zip(states, states[1:])]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", list(FACTORIES), ids=lambda f: f.value)
@pytest.mark.parametrize("size", range(3, 8))
def test_factories_match_reference_builders(family, size):
    factory, reference = FACTORIES[family]
    moves = factory(size)
    assert ([(m.cells, m.label, m.degree) for m in moves]
            == [(m.cells, m.label, m.degree) for m in reference(size)])
    # the factories skip the constructor's checks: each move must pass them
    for m in moves:
        checked = Move(size, m.cells, m.label)
        assert (m, hash(m), repr(m)) == (checked, hash(checked), repr(checked))


@pytest.mark.parametrize("family", list(FACTORIES), ids=lambda f: f.value)
@pytest.mark.parametrize("size", range(3, 7))
def test_factory_entries_are_the_nonzero_cells(family, size):
    for m in FACTORIES[family][0](size):
        flat = [x for row in m.cells for x in row]
        assert m.entries == tuple((k, x) for k, x in enumerate(flat) if x)
        assert type(m.entries) is tuple and all(type(e) is tuple for e in m.entries)


@pytest.mark.parametrize("family", list(FACTORIES), ids=lambda f: f.value)
@pytest.mark.parametrize("size", range(3, 7))
def test_walk_plans_of_factory_moves_match_reference(family, size):
    moves = FACTORIES[family][0](size)
    assert walk._walk_plans(moves, size) == reference_walk_plans(moves)


@st.composite
def user_moves(draw) -> Tuple[int, List[Move]]:
    """A size and a list of balanced moves of that size, entries -3..3."""
    size = draw(st.integers(2, 5))
    moves = []
    for _ in range(draw(st.integers(1, 6))):
        flat = draw(st.lists(st.integers(-3, 3), min_size=size * size - 1, max_size=size * size - 1)
                    .filter(any))
        flat.append(-sum(flat))
        moves.append(Move.from_rows([flat[i * size:(i + 1) * size] for i in range(size)]))
    return size, moves


@settings(max_examples=150, deadline=None)
@given(case=user_moves())
@example(case=(2, [Move.from_rows([[3, -3], [-3, 3]]), Move.from_rows([[-1, 1], [1, -1]])]))
def test_walk_plans_of_user_moves_match_reference(case):
    size, moves = case
    assert walk._walk_plans(moves, size) == reference_walk_plans(moves)


ZERO_ROW = [[0, 0, 0, 0], [1, 3, 0, 2], [2, 1, 4, 0], [3, 0, 2, 1]]


@settings(max_examples=120, deadline=None)
@given(
    family=st.sampled_from(list(FACTORIES)),
    size=st.integers(3, 5),
    data=st.data(),
    zero_row=st.booleans(),
    stationary=st.sampled_from(list(Stationary)),
    seed=st.integers(0, 2**32),
    steps=st.integers(1, 300),
    burn_in=st.integers(0, 30),
    thinning=st.integers(1, 4),
)
@example(family=ModelFamily.COMMON_DIAGONAL_EFFECT, size=4, data=None, zero_row=True,
         stationary=Stationary.HYPERGEOMETRIC, seed=2, steps=300, burn_in=0, thinning=1)
def test_kernel_emits_the_reference_states(family, size, data, zero_row, stationary, seed,
                                           steps, burn_in, thinning):
    if data is None:
        cells = ZERO_ROW
    else:
        cells = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=size, max_size=size),
                                   min_size=size, max_size=size))
    if zero_row:
        # every move that takes from the first row is infeasible
        cells = [[0] * len(cells)] + [list(row) for row in cells[1:]]
    start = CountTable.from_rows(cells)
    moves = FACTORIES[family][0](start.size)
    config = WalkConfig(steps=steps, burn_in=burn_in, thinning=thinning, seed=seed,
                        stationary=stationary)
    trace: list = []
    expected = emitted(reference_fiber_walk(start, moves, config, trace))
    # shorter than the probe, the walk keeps its tables to the end
    assert len(trace) <= walk._PROBE
    assert emitted(fiber_walk(start, moves, config)) == expected

    # The walk drops its tables at its (m + 1)-th miss, the first draw of a
    # (state, draw) pair, when it makes more than m misses in its probe.
    seen: set = set()
    misses = [step for step, key in enumerate(trace) if not (key in seen or seen.add(key))]

    def emits(step):
        return step >= burn_in and (step - burn_in) % thinning == 0

    drops = {"step 1": 0}
    for where, at in [("burn-in", lambda step: step < burn_in),
                      ("between two emissions", lambda step: step >= burn_in and not emits(step)),
                      ("an emission", emits)]:
        drops.update((where, m) for m, step in enumerate(misses) if at(step) and where not in drops)
    for where, m in drops.items():
        with mock.patch.object(walk, "_PROBE_HITS", walk._PROBE - m):
            assert emitted(fiber_walk(start, moves, config)) == expected, where
    # an empty probe, then the budgets: half the misses' entries, and two states
    for budget in [{"_ENTRY_BUDGET": len(misses) // 2}, {"_CELL_BUDGET": 2 * size * size}]:
        with mock.patch.multiple(walk, _PROBE=0, _PROBE_HITS=0, **budget):
            assert emitted(fiber_walk(start, moves, config)) == expected, budget


@settings(max_examples=300, deadline=None)
@given(den=st.integers(2, 2**80), data=st.data())
@example(den=2**60 + 1, data=None)
def test_chance_compares_a_draw_exactly(den, data):
    # the kernel accepts when random() < _chance(num, den); the reference
    # when a * den < num * b for a / b = random(): they must agree for every
    # draw, a multiple of 2^-53, and most of all next to num / den
    num = den - 1 if data is None else data.draw(st.integers(1, den - 1))
    chance = walk._chance(num, den)
    nearest = (num << 53) // den
    for m in range(max(0, nearest - 2), min(1 << 53, nearest + 3)):
        a, b = (m / (1 << 53)).as_integer_ratio()
        assert (m / (1 << 53) < chance) == (a * den < num * b)


# (family, size, largest max_n) of the sweeps compared with the reference
SWEEP_SIZES = [
    (ModelFamily.DIAGONAL_EFFECT, 3, 4),
    (ModelFamily.COMMON_DIAGONAL_EFFECT, 3, 4),
    (ModelFamily.DIAGONAL_EFFECT, 4, 3),
    (ModelFamily.COMMON_DIAGONAL_EFFECT, 4, 3),
]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(range(len(SWEEP_SIZES))), data=st.data())
@example(case=1, data=None)  # the common family's diag-double moves alone, entries +-2
@example(case=3, data=None)
def test_sweep_matches_reference_sweep(case, data):
    family, I, top = SWEEP_SIZES[case]
    family_moves = FACTORIES[family][0](I)
    if data is None:
        max_n, moves = top, [m for m in family_moves if m.label.startswith("diag-double")]
    else:
        max_n = data.draw(st.integers(0, top), label="max_n")
        keep = data.draw(st.lists(st.booleans(), min_size=len(family_moves), max_size=len(family_moves)),
                         label="keep")
        moves = [m for m, kept in zip(family_moves, keep) if kept]
    expected = reference_sweep(family, I, max_n, moves)
    assert verify_connectivity(family, I, max_n, moves) == expected
    steps = fibers._encoding(package_move_deltas(moves, I), I, max_n)[1]
    with move_search_only(steps):
        assert verify_connectivity(family, I, max_n, moves) == expected


@pytest.mark.parametrize("case", range(len(SWEEP_SIZES)))
@pytest.mark.parametrize("subset", ["all", "none"])
def test_sweep_matches_reference_sweep_at_the_ends(case, subset):
    # every move, and the empty set, at each size's largest max_n
    family, I, max_n = SWEEP_SIZES[case]
    moves = FACTORIES[family][0](I) if subset == "all" else []
    report = verify_connectivity(family, I, max_n, moves)
    assert report == reference_sweep(family, I, max_n, moves)
    assert report.all_connected == (subset == "all")


def test_sweep_past_size_5_matches_reference_sweep():
    # without the rect moves 90 fibers are disconnected, and the sweep
    # builds the 6! relabellings once, at the first of them
    moves = [m for m in moves_diag_effect(6) if m.label != "rect"]
    with mock.patch.object(markov, "_relabel_flat", wraps=markov._relabel_flat) as relabel:
        report = verify_connectivity(ModelFamily.DIAGONAL_EFFECT, 6, 2, moves)
    assert relabel.call_count == math.factorial(6)
    assert len(report.disconnected) == 90
    assert report == reference_sweep(ModelFamily.DIAGONAL_EFFECT, 6, 2, moves)


def test_encoding_width_separates_a_borrow():
    # t holds max_n = 4 at cell 1, and a diag-double move d lowers cell 2 by
    # s = 2, so t + d is infeasible there.  In 3 bits a cell (2^3 > n + s)
    # nothing collides; in one bit fewer the borrow from cell 1 makes t + d
    # code as u, which is not t plus or minus a move.
    moves = moves_common_diag(3)
    d = next(m for m in moves if m.entries == ((0, 1), (1, 1), (2, -2), (3, -1), (4, -1), (5, 2)))
    t = (0, 4, 0, 1, 1, 0, 0, 0, 0)
    u = (1, 4, 2, 0, 0, 2, 0, 0, 0)
    coded_u, coded_t, coded_d = encode([u, t, [x for row in d.cells for x in row]], range(16, -1, -2))
    assert coded_u == coded_t + coded_d
    shifts, steps, deltas = fibers._encoding(package_move_deltas(moves, 3), 3, 4)
    members = encode([t, u], shifts)
    assert fibers._components(members, steps, deltas) == [[0], [1]]
    with move_search_only(steps):
        assert fibers._components(members, steps, deltas) == [[0], [1]]
