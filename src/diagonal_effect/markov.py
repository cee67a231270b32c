"""Markov-basis moves, fiber enumeration, fiber walks, and exact tests.

Move factories produce canonical representatives (the opposite orientation
of every move is reached by applying it with sign -1).  Enumeration builds
a fiber as a network of row states (row index, column remainders, diagonal
remainder): each state's rows are built once with margin pruning, and the
node count of its subtree is kept, so node counts and budgets are those of
the cell-by-cell search.  The exact test sums that network forward, from
partial Pearson sums to integer weights, without building a table.  A
fiber's tables exist as row-major flat tuples only once a caller reads
them; the connectivity sweep builds its tables row by row as ints, and
the connectivity searches step between ints.  `CountTable`s are built
only for callers that ask for them.  Enumeration remains the oracle
against which the sampler is calibrated.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from functools import cached_property, reduce
from itertools import chain, combinations, permutations
from operator import add, getitem, itemgetter, lshift
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetExceededError, InputError, InvariantViolationError, SizeMismatchError
from .params import expected_counts
from .tables import (
    DEFAULT_NODE_BUDGET,
    CountTable,
    ModelFamily,
    ModelForm,
    ModelSpec,
    Move,
    SufficientStat,
    _unchecked,
    rectangle_indices,
    require_instance,
    require_int,
    require_moves,
    require_sequence,
    require_sized,
    sufficient_statistic,
    triple_indices,
)


# ---------------------------------------------------------------------------
# move factories
# ---------------------------------------------------------------------------

def _family(I: int, candidates: Iterable[Tuple[str, Dict[Tuple[int, int], int]]]) -> List[Move]:
    """One Move per candidate, in order and with its label: the factories
    list each move once up to sign.  A candidate is a label and a balanced
    move's nonzero entries {(i, j): v}, 1-based; its sign is fixed by its
    first nonzero cell in row-major order, which the move makes positive."""
    moves = []
    for label, candidate in candidates:
        entries = sorted([(I * i + j - I - 1, v) for (i, j), v in candidate.items()])
        if entries[0][1] < 0:
            entries = [(k, -v) for k, v in entries]
        # a balanced candidate: its positive and negative parts each sum to degree
        moves.append(_unchecked(Move, size=I, entries=tuple(entries), label=label,
                                degree=sum(map(abs, candidate.values())) // 2))
    return moves


def _with_transposes(label: str, candidates: List[dict]) -> List[Tuple[str, dict]]:
    """The candidates under `label`, then their transposes under `label^T`."""
    return [(label, e) for e in candidates] + [
        (label + "^T", {(j, i): v for (i, j), v in e.items()}) for e in candidates]


def _diag_effect_candidates(I: int) -> Iterator[Tuple[str, dict]]:
    for i, k, j, h in rectangle_indices(I):
        yield "rect", {(i, j): 1, (i, h): -1, (k, j): -1, (k, h): 1}
    for a, b, c in triple_indices(I):
        yield "cycle", {
            (a, b): 1, (a, c): -1,
            (b, a): -1, (b, c): 1,
            (c, a): 1, (c, b): -1,
        }


def moves_diag_effect(I: int) -> List[Move]:
    """Minimal move family of the diagonal-effect model.

    Degree-2 rectangle swaps over four pairwise distinct indices (I >= 4)
    and one degree-3 cycle per unordered triple (I >= 3).  No move touches
    a diagonal cell: diagonal counts are part of the sufficient statistic.
    """
    require_int(I, "table size", 3)
    return _family(I, _diag_effect_candidates(I))


def moves_common_diag(I: int) -> List[Move]:
    """Move family of the common-diagonal-effect model.

    The two diagonal-effect families plus four families that shift counts
    along the diagonal while preserving its total: degree-3 diagonal shifts
    on a triple (three variants), degree-3 shifts over four indices
    (I >= 4), degree-4 moves with a +-2 column, and degree-4 moves on a
    2 x 4 block (I >= 4); the last two come with their transposes.
    """
    require_int(I, "table size", 3)
    candidates = list(_diag_effect_candidates(I))
    idx = range(1, I + 1)

    for (a, b, c) in combinations(idx, 3):
        # the three diagonal-shift variants on rows/columns (a, b, c); on
        # any other order of the triple each is one of these up to sign
        candidates.append(("diag-shift", {
            (a, a): 1, (a, c): -1,
            (b, b): -1, (b, c): 1,
            (c, a): -1, (c, b): 1,
        }))
        candidates.append(("diag-shift", {
            (a, a): 1, (a, b): -1,
            (b, a): -1, (b, c): 1,
            (c, b): 1, (c, c): -1,
        }))
        candidates.append(("diag-shift", {
            (a, b): -1, (a, c): 1,
            (b, a): -1, (b, b): 1,
            (c, a): 1, (c, c): -1,
        }))

    for i, k in combinations(idx, 2):
        for j, h in permutations([x for x in idx if x not in (i, k)], 2):
            # rows (i, k, h), columns (i, k, j); swapping i and k negates it
            candidates.append(("diag-shift-rect", {
                (i, i): 1, (i, j): -1,
                (k, k): -1, (k, j): 1,
                (h, i): -1, (h, k): 1,
            }))

    candidates += _with_transposes("diag-double", [
        {
            (i, i): 1, (i, k): 1, (i, j): -2,
            (k, i): -1, (k, k): -1, (k, j): 2,
        }
        for i, k in combinations(idx, 2) for j in idx if j not in (i, k)
    ])
    candidates += _with_transposes("diag-quad", [
        {
            (i, i): 1, (i, k): 1, (i, j): -1, (i, h): -1,
            (k, i): -1, (k, k): -1, (k, j): 1, (k, h): 1,
        }
        for i, k, j, h in rectangle_indices(I)
    ])
    return _family(I, candidates)


def moves_for_model(model: ModelSpec) -> List[Move]:
    if require_instance(model, ModelSpec, "model").form is not ModelForm.TORIC:
        raise InputError("move families exist only for toric-form models")
    if model.family is ModelFamily.DIAGONAL_EFFECT:
        return moves_diag_effect(model.size)
    if model.family is ModelFamily.COMMON_DIAGONAL_EFFECT:
        return moves_common_diag(model.size)
    raise InputError(f"no move factory for {model.family.value}")


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Fiber:
    """The tables of one fiber as a network of rows, and the number of
    search nodes a cell-by-cell search visits to find them.

    A state of row i is (column remainders, diagonal remainder): what the
    rows from i on must hold in each column and on the diagonal.
    layers[i] maps each state of row i that some table passes through to
    its rows, in increasing order, each with the state of row i + 1 it
    leads to.  The last layer's rows run through both final rows, the
    last one forced by the column remainders, and lead to None.  `len`
    is the number of paths; `flats`, the tables as sorted row-major flat
    tuples, and `tables` are built from the network when first read.
    Fibers are equal when their (stat, flats, nodes) are.
    """

    stat: SufficientStat
    nodes: int
    count: int  # of tables, the paths through the network
    layers: tuple = field(repr=False)

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fiber):
            return NotImplemented
        return (self.stat, self.nodes, self.flats) == (other.stat, other.nodes, other.flats)

    def __hash__(self) -> int:
        return hash((self.stat, self.nodes, self.count))

    @cached_property
    def flats(self) -> tuple:
        found: List[tuple] = []
        for root in self.layers[0]:
            _paths(self.layers, 0, root, (), found)
        return tuple(found)

    @cached_property
    def tables(self) -> tuple:
        I, n = self.stat.size, sum(self.stat.rows)
        # each path is a table of the fiber: nonnegative counts summing to n
        return tuple(_unchecked(CountTable, size=I, flat=f, n=n) for f in self.flats)


def _paths(layers: tuple, i: int, state: tuple, prefix: tuple, found: List[tuple]) -> None:
    """Append to `found` each path from `state` of row i through the row
    network, after `prefix`, in the order of the rows."""
    for row, child in layers[i][state]:
        if child is None:
            found.append(prefix + row)
        else:
            _paths(layers, i + 1, child, prefix + row, found)


def _over_budget(node_budget: int) -> BudgetExceededError:
    return BudgetExceededError(f"fiber enumeration exceeded the {node_budget}-node budget")


def enumerate_fiber(
    stat: SufficientStat,
    model: ModelSpec,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Fiber:
    """All nonnegative integer tables with the given sufficient statistic,
    as a `Fiber`'s row network.

    A search over row states: each state of rows 0..I-2 is expanded once,
    its rows built cell by cell with column-remainder pruning (for the
    common-diagonal family the remaining diagonal total is bounded by the
    remaining margins, a bound made once per state), and the node count of
    its subtree is kept.  The column remainders force the last row, so its
    nodes are counted, not visited.  `nodes` is the count of the cell-by-cell search, a repeated
    state adding its kept count.  The count only grows, so the search
    raises BudgetExceededError as soon as it passes `node_budget` (switch
    to the sampler in that case): exactly when the cell-by-cell search
    would.
    """
    family = require_instance(model, ModelSpec, "model").family
    if require_instance(stat, SufficientStat, "statistic").family is not family:
        raise InputError("statistic and model families differ")
    if model.form is not ModelForm.TORIC:
        raise InputError("sufficient statistics exist only for toric-form models")
    require_sized(stat, SufficientStat, "statistic", model.size, "model")
    require_int(node_budget, "node_budget", 0)
    I = stat.size
    rows, cols = stat.rows, stat.cols
    diag_vec = stat.diag if stat.family is ModelFamily.DIAGONAL_EFFECT else None
    common = stat.family is ModelFamily.COMMON_DIAGONAL_EFFECT

    row = [0] * I  # every cell is written before a row is read
    colrem = list(cols)
    on_diag = 0 if stat.diag is None else 1  # independence leaves the diagonal free
    nodes = cap = 0
    last = I - 1
    layers: List[Dict[tuple, list]] = [{} for _ in range(last)]
    seen: List[Dict[tuple, tuple]] = [{} for _ in range(last)]  # state -> (nodes, tables)

    def fill(i: int, j: int, rowrem: int, diagrem: int, out: list):
        # node (i, j) for j < I - 1; diagrem is what the diagonal cells
        # from here on must hold in total.  Appends each completed row
        # with the state it leads to, or in row I - 2, each live pair of
        # final rows.
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise _over_budget(node_budget)
        c = colrem[j]
        lo, hi = 0, rowrem if rowrem < c else c
        shift = on_diag if i == j else 0
        if i == j:
            if diag_vec is not None:
                if not lo <= diag_vec[i] <= hi:
                    return
                lo = hi = diag_vec[i]
            elif common:
                # the later diagonal cells can absorb at most `cap` (`visit`)
                if diagrem > cap:
                    lo = diagrem - cap
                if diagrem < hi:
                    hi = diagrem
        if j < I - 2:
            for v in range(lo, hi + 1):
                row[j], colrem[j] = v, c - v
                fill(i, j + 1, rowrem - v, diagrem - shift * v, out)
            colrem[j] = c
            return
        # The row's last cell is forced to rowrem - v: a node for each v,
        # and a row-end node for each v that leaves it within its column.
        rest = colrem[last]
        fits = rowrem - rest
        if fits < lo:
            fits = lo
        if fits > hi:
            if hi >= lo:
                nodes += hi - lo + 1
            return
        fitting = hi - fits + 1
        nodes += (hi - lo + 1) + fitting
        if i + 1 < last:
            for v in range(fits, hi + 1):
                r = rowrem - v
                row[j], row[last] = v, r
                colrem[j], colrem[last] = c - v, rest - r
                out.append((tuple(row), (tuple(colrem), diagrem - shift * v)))
            colrem[j], colrem[last] = c, rest
            return
        # Row I - 2 leaves the last row the column remainders, so its cell k
        # ranges over 0..colrem[k]: the search visits prod(colrem[m] + 1,
        # m < k) nodes at cell k, the forced last cell being k = I - 1.
        # Cell j = I - 2 keeps c - v, so for each v that is widths +
        # width * (c - v + 2) nodes in all.  One path takes every remainder;
        # its table is live when its last cell, the diagonal one, holds
        # what the diagonal still needs, rest - rowrem + v = diagrem - v,
        # and then adds a row-end node and a leaf.
        width = 1
        widths = 0
        for k in range(j):
            widths += width
            width *= colrem[k] + 1
        nodes += fitting * widths + width * (fitting * (c + 2) - (fits + hi) * fitting // 2)
        if on_diag:
            twice = diagrem + rowrem - rest
            live = (twice // 2,) if twice % 2 == 0 and fits <= twice // 2 <= hi else ()
        else:
            live = range(fits, hi + 1)
        for v in live:
            nodes += 2
            r = rowrem - v
            out.append(((*row[:j], v, r, *colrem[:j], c - v, rest - r), None))

    def visit(i: int, state: tuple) -> int:
        # the search from node (i, 0) in `state`: counts its nodes, files
        # the state's rows if a table passes through it, and returns the
        # number of tables that do
        nonlocal nodes, cap
        kept = seen[i].get(state)
        if kept is not None:
            nodes += kept[0]
            if nodes > node_budget:
                raise _over_budget(node_budget)
            return kept[1]
        start = nodes
        edges: list = []
        colrem[:] = state[0]
        if common:
            # the later diagonal cells' margin bounds: fixed for the state,
            # since row i's cells before its diagonal change no colrem[k], k > i
            cap = sum(map(min, rows[i + 1:], colrem[i + 1:]))
        fill(i, 0, rows[i], state[1], edges)
        if nodes > node_budget:  # the counts after the checks in `fill`
            raise _over_budget(node_budget)
        if i + 1 < last:
            tables = 0
            live = []
            for edge in edges:
                below = visit(i + 1, edge[1])
                if below:
                    live.append(edge)
                    tables += below
            edges = live
        else:
            tables = len(edges)
        seen[i][state] = (nodes - start, tables)
        if tables:
            layers[i][state] = edges
        return tables

    count = visit(0, (tuple(cols), sum(diag_vec) if diag_vec is not None else stat.diag or 0))
    # each closure refers to itself: break the cycles so that the search
    # state is freed now, not by a later cyclic collection
    fill = visit = None
    return Fiber(stat=stat, nodes=nodes, count=count, layers=tuple(layers))


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    components: tuple  # of tuples of CountTable


def is_connected(fiber: Fiber, moves: Sequence[Move]) -> ConnectivityReport:
    """Graph connectivity of the fiber under single-move transitions.  Its
    tables and the moves are ints (`_encoding`), w bits a cell with 2^w
    above the fiber's total plus the largest move entry, so two tables'
    ints differ by a move's exactly when the tables do."""
    I = require_instance(fiber, Fiber, "fiber").stat.size
    shifts, steps, deltas = _encoding(_move_deltas(moves, I), I, sum(fiber.stat.rows))
    members = [sum(map(lshift, flat, shifts)) for flat in fiber.flats]
    components = tuple(tuple(fiber.tables[k] for k in comp) for comp in _components(members, steps, deltas))
    return ConnectivityReport(connected=len(components) <= 1, components=components)


def _move_deltas(moves: Sequence[Move], I: int) -> List[tuple]:
    """Each move's `entries`, followed by the same entries negated:
    deltas[2k] and deltas[2k + 1] are move k in its two signs, so
    deltas[::2] holds one sign of every move."""
    deltas = []
    for m in require_moves(moves):
        entries = require_sized(m, Move, "move", I, "table").entries
        deltas.append(entries)
        deltas.append(tuple([(k, -v) for k, v in entries]))
    return deltas


def _encoding(deltas: Sequence[tuple], I: int, n: int) -> Tuple[List[int], List[int], set]:
    """The shift of each cell, and the `_move_deltas` `deltas` as ints: one
    sign of each move, and the set of both signs.  A table t of counts at
    most n is the int sum of t[k] << shifts[k]: cell k takes w bits, cell 0
    the highest, so ints order tables lexicographically and t + d is coded
    as t's code plus d's.  w is the least width with 2^w > n + s, s the
    largest |entry| of a delta.  Then u - t - d, when not 0, has entries of
    size at most n + s, and its lowest nonzero one is not a multiple of
    2^w, so its code is not 0: u's code is t's plus d's only when u = t + d."""
    w = (n + max([abs(v) for d in deltas for _, v in d], default=0)).bit_length()
    shifts = [w * k for k in range(I * I - 1, -1, -1)]
    codes = [sum([v << shifts[k] for k, v in d]) for d in deltas]
    return shifts, codes[::2], set(codes)


def _edges_by_difference(members: Sequence[int], deltas: set) -> Iterator[Tuple[int, int]]:
    """The adjacent pairs of `members`, found by looking up each pair's
    difference among the deltas."""
    for a, t in enumerate(members):
        for b in range(a + 1, len(members)):
            if members[b] - t in deltas:
                yield a, b


def _edges_by_move(members: Sequence[int], steps: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """The adjacent pairs of `members`, found by adding each step to every
    member and looking the sums up among the members."""
    index = {m: k for k, m in enumerate(members)}
    for d in steps:
        for u in filter(index.__contains__, map(d.__add__, members)):
            yield index[u - d], index[u]


def _components(members: Sequence[int], steps: Sequence[int], deltas: set) -> List[List[int]]:
    """Connected components of the tables coded `members`, all of one
    total, as lists of member indices: t and u are adjacent when u - t is
    in `deltas`, which the coding makes exact (`_encoding`).  Two members
    one move apart are joined at once.  A fiber of k <= len(steps) members
    tests its k(k - 1)/2 pairs, a larger one adds each of `steps` to each
    member: a pair test costs about twice a step, and on enumerated fibers
    with 10 or more moves the crossover lies at 0.6 to 2 times len(steps)
    members.  Union-find joins the pairs and stops once everything is
    joined; each root is its component's least member, so the components
    come ordered by least member, members ascending."""
    count = len(members)
    if count == 2 and members[1] - members[0] in deltas:
        return [[0, 1]]
    parent = list(range(count))  # parent[k] <= k, so a root is its tree's least member
    joins_left = count - 1
    if joins_left > 0:
        if count <= len(steps):
            edges = _edges_by_difference(members, deltas)
        else:
            edges = _edges_by_move(members, steps)
        for a, b in edges:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[max(a, b)] = min(a, b)
                joins_left -= 1
                if not joins_left:
                    return [list(range(count))]
    components: Dict[int, List[int]] = {}
    for k, p in enumerate(parent):
        parent[k] = root = parent[p]  # parent[p] is already p's root
        components.setdefault(root, []).append(k)
    return list(components.values())


# ---------------------------------------------------------------------------
# fiber walk
# ---------------------------------------------------------------------------

class Stationary(Enum):
    UNIFORM = "uniform"
    HYPERGEOMETRIC = "hypergeometric"


@dataclass(frozen=True)
class WalkConfig:
    """Chain length, burn-in, thinning, seed, and target stationary law.

    The default burn-in of 10 * sqrt(steps) is an arbitrary, documented
    default; every result echoes the configuration actually used.
    """

    steps: int
    burn_in: Optional[int] = None
    thinning: int = 1
    seed: int = 0
    stationary: Stationary = Stationary.HYPERGEOMETRIC

    def __post_init__(self):
        require_int(self.steps, "steps", 1)
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", int(10 * math.isqrt(self.steps)))
        require_int(self.burn_in, "burn_in", 0)
        require_int(self.thinning, "thinning", 1)
        require_int(self.seed, "seed")
        require_instance(self.stationary, Stationary, "stationary")

    def to_dict(self) -> dict:
        return dict(asdict(self), stationary=self.stationary.value)


def _walk_plans(moves: Sequence[Move], I: int) -> List[tuple]:
    """One plan (downs, ups, delta) per signed move, in the order of
    `_move_deltas`; delta holds the move's (cell, change) entries.  A
    count f that the move lowers by d gives downs the factors (cell, 0),
    ..., (cell, d - 1), and one it raises by u gives ups (cell, 1), ...,
    (cell, u): the products of f - j over downs and of f + j over ups are
    prod f!/f'! over the lowered counts and prod f'!/f! over the raised
    ones.  The factors of each (cell, change) are built once per call and
    shared by every plan that holds it."""
    shared: Dict[tuple, tuple] = {}
    plans = []
    for delta in _move_deltas(moves, I):
        downs, ups = [], []
        for entry in delta:
            k, v = entry
            factors = shared.get(entry)
            if factors is None:
                factors = shared[entry] = tuple([(k, j) for j in (range(-v) if v < 0 else range(1, v + 1))])
            (downs if v < 0 else ups).extend(factors)
        plans.append((tuple(downs), tuple(ups), delta))
    return plans


# The walk's proposal tables (`fiber_walk`) and the MCMC test's scores
# (`_mcmc_test`) are memos that pay only when the walk revisits.  The walk
# keeps its tables while at least `_PROBE_HITS` of its first `_PROBE`
# proposals hit and within `_ENTRY_BUDGET` entries.  `_CELL_BUDGET` bounds
# both the walk's numbered states and the test's scores.  A memo past its
# rule is dropped for good.
_PROBE = 1024
_PROBE_HITS = 112  # 11%: the measured break-even of the walk's tables
_ENTRY_BUDGET = 1 << 14  # proposal entries the walk's tables may hold
_CELL_BUDGET = 1 << 13  # counts (I * I per table) either memo may hold tables of
_SURE = 2.0  # the chance of a proposal accepted without a draw
_STAY = (0.0, None)  # the entry of an infeasible proposal, which draws nothing


def _chance(num: int, den: int) -> float:
    """For 0 < num < den, the float c such that a draw x = rng.random()
    accepts a proposal of ratio num / den (`fiber_walk`) exactly when
    x < c: ceil(num * 2^53 / den) / 2^53.  A draw is m / 2^53 for an
    integer m, and m < num * 2^53 / den exactly when
    m < ceil(num * 2^53 / den), an integer of at most 2^53 and so exact
    as a float, as is its quotient by 2^53."""
    return -((-num << 53) // den) / (1 << 53)


def fiber_walk(start: CountTable, moves: Sequence[Move], config: WalkConfig) -> Iterator[CountTable]:
    """Metropolis fiber walk; emits post-burn-in, thinned states.

    Proposals draw a move and a sign uniformly, with the draws of
    `Random.randrange` made inline: `getrandbits` of the count's bit
    length, drawn again until it falls below the count.  An infeasible
    proposal is a stay-in-place step, which keeps the proposal kernel
    symmetric.  The counts a proposal lowers are checked first, by their
    product num = prod f!/f'! (`_walk_plans`), which is 0 exactly when one
    of them would go negative; the raised counts are read only for a
    feasible proposal.  Under the uniform law every feasible proposal is
    accepted, den being 1.  Under the hypergeometric law the ratio
    prod f! / prod f'! over the touched cells is num / den: the proposal
    is accepted without a draw when num >= den, and otherwise when
    rng.random() < `_chance`(num, den), the exact comparison of the
    uniform draw with the ratio.  Both phases below accept by this one
    rule and draw the same numbers.

    The walk starts with proposal tables.  It numbers each state it
    reaches and gives it a table from draw r to (chance, target id),
    filled the first time r is drawn there (`_chance`: the draw accepts
    when rng.random() < chance), the target id when that proposal is
    first accepted.  A state's CountTable is built at its first emission
    and emitted again at every revisit.  A repeated proposal is then one
    lookup, about a sixth of a plain step, and a first one, which may
    number a new state, costs 1.3 to 2 plain steps.  A walk's hit rate
    rises as its tables fill: of three sets of 27 walks of 10,000 steps
    (I = 3 to 6, both families, Python 3.11), the ones that hit in 12% or
    more of their first 1,024 proposals ran faster with the tables kept to
    the end, and the ones at 10% or less slower.  So the walk drops every table for
    good once more than `_PROBE` - `_PROBE_HITS` of its first `_PROBE` =
    1,024 proposals have missed (fewer than `_PROBE_HITS` = 112 hits,
    11%), or at the first miss once its tables hold `_ENTRY_BUDGET`
    entries or its numbered states more than `_CELL_BUDGET` counts, and
    goes on from the same state with the same draw in the plain kernel: it
    moves one flat list and builds a CountTable only when the emitted
    state changes.  In both phases an unmoved state is emitted again as
    the very same object.

    The arguments, the moves and their sizes are checked at the call, before
    the kernel (`_walk`) draws anything.
    """
    require_instance(start, CountTable, "start")
    require_instance(config, WalkConfig, "config")
    if not moves:
        raise InputError("fiber_walk needs at least one move")
    return _walk(start, _walk_plans(moves, start.size), config)


def _walk(start: CountTable, plans: List[tuple], config: WalkConfig) -> Iterator[CountTable]:
    """The kernel of `fiber_walk`, on checked arguments and the moves' plans."""
    I, n = start.size, start.n
    rng = random.Random(f"fiber-walk|{config.seed}")
    getrandbits, rand, count = rng.getrandbits, rng.random, len(plans)
    bits = count.bit_length()
    hypergeometric = config.stationary is Stationary.HYPERGEOMETRIC
    total, thinning = config.burn_in + config.steps, config.thinning
    until_emit = config.burn_in

    # with tables: flats, props and built are indexed by state id
    flats = [start.flat]
    ids = {flats[0]: 0}
    props: List[dict] = [{}]
    built: List[Optional[CountTable]] = [None]
    # a miss past `limit` entries checks the probe and the budgets
    probe, limit = _PROBE, _PROBE - _PROBE_HITS
    most_entries, most_states = _ENTRY_BUDGET, max(1, _CELL_BUDGET // (I * I))
    sid, prop, entries, state = 0, props[0], 0, None
    for step in range(total):
        r = getrandbits(bits)
        while r >= count:
            r = getrandbits(bits)
        entry = prop.get(r)
        if entry is None:
            if entries >= limit:
                if step < probe or entries >= most_entries:
                    break  # r is this step's draw: the plain kernel takes it
                limit = most_entries
            entries += 1
            downs, ups, _ = plans[r]
            flat = flats[sid]
            num = 1
            for k, j in downs:
                num *= flat[k] - j
            if num:
                chance = _SURE
                if hypergeometric:
                    den = 1
                    for k, j in ups:
                        den *= flat[k] + j
                    if num < den:
                        chance = _chance(num, den)
                entry = (chance, None)
                if chance <= 1.0:  # else accepted below, where the entry is stored with its target
                    prop[r] = entry
            else:
                entry = prop[r] = _STAY
        chance, target = entry
        if chance and (chance > 1.0 or rand() < chance):  # else a stay-in-place step
            if target is None:
                out = list(flats[sid])
                for k, v in plans[r][2]:
                    out[k] += v
                out = tuple(out)
                target = ids.setdefault(out, len(flats))
                if target == len(flats):
                    flats.append(out)
                    props.append({})
                    built.append(None)
                    if target == most_states:
                        # the states pass their budget: the next step, a
                        # miss at this new state, drops the tables
                        limit = most_entries = 0
                prop[r] = (chance, target)
            sid, prop = target, props[target]
        if until_emit:
            until_emit -= 1
            continue
        until_emit = thinning - 1
        state = built[sid]
        if state is None:
            # accepted moves keep every count nonnegative and the total
            state = built[sid] = _unchecked(CountTable, size=I, flat=flats[sid], n=n)
        yield state
    else:
        return

    # without tables, from state sid with the draw r pending
    flat = list(flats[sid])
    last = None if state is None else state.flat
    flats = ids = props = built = prop = None
    moved = True
    for step in range(step, total):
        downs, ups, delta = plans[r]
        num = 1
        for k, j in downs:
            num *= flat[k] - j
        if num:  # else infeasible: a stay-in-place step
            den = 1
            if hypergeometric:
                for k, j in ups:
                    den *= flat[k] + j
            if num >= den or rand() < _chance(num, den):
                for k, v in delta:
                    flat[k] += v
                moved = True
        if until_emit:
            until_emit -= 1
        else:
            until_emit = thinning - 1
            if moved:
                out = tuple(flat)
                if out != last:
                    last = out
                    # accepted moves keep every count nonnegative and the total
                    state = _unchecked(CountTable, size=I, flat=out, n=n)
                moved = False
            yield state
        # the next step's draw; the one after the last step goes unused
        r = getrandbits(bits)
        while r >= count:
            r = getrandbits(bits)


# ---------------------------------------------------------------------------
# exact tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestResult:
    statistic_observed: float
    p_value: float
    monte_carlo_stderr: float
    samples_used: int
    method: str  # "MCMC" | "Enumeration"
    config: dict = field(default_factory=dict)


def pearson_statistic(cells, expected) -> float:
    """Pearson chi-square against fitted expected counts.

    Cells with zero expectation contribute nothing when observed is zero
    and infinity otherwise; within a fiber the margins rule the latter out.
    Grids of different shapes raise SizeMismatchError; an observed count
    that is not an int >= 0, or an expected count that is not a float or
    an int, raises InputError.
    """
    if len(require_sequence(cells, "observed grid")) != len(require_sequence(expected, "expected grid")) or any(
            len(require_sequence(o, "observed row")) != len(require_sequence(e, "expected row"))
            for o, e in zip(cells, expected)):
        raise SizeMismatchError("observed and expected grids differ in shape")
    chi2 = 0.0
    for orow, erow in zip(cells, expected):
        for o, e in zip(orow, erow):
            require_int(o, "observed count", 0)
            if isinstance(e, bool) or not isinstance(e, (int, float)):
                raise InputError(f"expected count must be a float or an int, got {e!r}")
            chi2 += _pearson_term(o, e)
    return chi2


def _pearson_term(o: int, e: float) -> float:
    """One cell's term of `pearson_statistic`; adding inf to the running sum
    keeps it inf."""
    if e > 0.0:
        return (o - e) ** 2 / e
    return 0.0 if o == 0 else math.inf


def _pearson_flat(terms: Sequence[dict], flat: Iterable[int]) -> float:
    """`pearson_statistic` of a flat row-major table, from one dict of
    `_pearson_term`s per cell, summed left to right in the same order.  A
    count whose term its cell's dict lacks raises KeyError (`_add_terms`)."""
    chi2 = 0.0
    for term, o in zip(terms, flat):
        chi2 += term[o]
    return chi2


def _add_terms(fit: Sequence[float], terms: List[dict], counts: Iterable[int]) -> List[dict]:
    """`terms`, each cell's dict given the `_pearson_term` of its count in
    `counts` against its fit if it lacks it: the one place a term is made."""
    for e, term, o in zip(fit, terms, counts):
        if o not in term:
            term[o] = _pearson_term(o, e)
    return terms


def _tail_weights(fiber: Fiber, fit: Sequence[float], terms: List[dict], threshold: float) -> Tuple[int, int]:
    """The total weight of the fiber's tables whose Pearson statistic is at
    least `threshold`, and that of all its tables, a table weighing
    prod_i r_i!/prod_j f_ij! for row sums r_i.

    These weights are n!/prod f! times the constant prod_i r_i!/n!, so the
    two totals stand in the ratio of the hypergeometric law.  The network
    is summed forward row by row, each state holding a dict from partial
    statistic to weight: a row adds its cells' `terms` (`_add_terms`) left
    to right and multiplies by its row's factor r_i!/prod_j f_ij!, both made
    once for each distinct row of a layer.  Every table's statistic takes
    the float operations of `_pearson_flat` on its flat tuple, and equal
    partial sums are merged exactly, so each table meets the threshold
    exactly when it does table by table.
    """
    I, rows = fiber.stat.size, fiber.stat.rows
    fact = math.factorial
    last = len(fiber.layers) - 1
    dists: Dict[tuple, Dict[float, int]] = {root: {0.0: 1} for root in fiber.layers[0]}
    hit = total = 0
    for i, layer in enumerate(fiber.layers):
        row_fit, row_terms = fit[i * I:], terms[i * I:]
        # the last layer's rows run through rows i and i + 1, to no state
        numerator = fact(rows[i]) * fact(rows[i + 1]) if i == last else fact(rows[i])
        below: Dict[tuple, Dict[float, int]] = {}
        made: Dict[tuple, tuple] = {}  # row -> (its cells' terms, its factor)
        for state, edges in layer.items():
            dist = dists[state]
            for row, child in edges:
                kept = made.get(row)
                if kept is None:
                    try:
                        added = tuple(map(getitem, row_terms, row))
                    except KeyError:
                        added = tuple(map(getitem, _add_terms(row_fit, row_terms, row), row))
                    kept = made[row] = added, numerator // math.prod(map(fact, row))
                added, factor = kept
                if child is None:
                    total += sum(dist.values()) * factor
                    for chi2, w in dist.items():
                        if reduce(add, added, chi2) >= threshold:
                            hit += w * factor
                    continue
                out = below.get(child)
                if out is None:
                    out = below[child] = {}
                for chi2, w in dist.items():
                    chi2 = reduce(add, added, chi2)
                    out[chi2] = out.get(chi2, 0) + w * factor
        dists = below
    return hit, total


def _chi2_threshold(observed: float) -> float:
    if math.isinf(observed):
        return observed
    return observed - 1e-9 * (1.0 + abs(observed))


def exact_test(
    table: CountTable,
    model: ModelSpec,
    config: Optional[WalkConfig] = None,
    method: str = "auto",
    node_budget: int = 200_000,
) -> TestResult:
    """Exact conditional goodness-of-fit test on the model's fiber.

    The statistic is Pearson chi-square against the model fit, which
    depends only on the sufficient statistic and is therefore constant
    across the fiber.  The p-value is the hypergeometric-law probability of
    a statistic at least as large as observed: exact by total enumeration
    when the fiber is within `node_budget`, otherwise estimated by the
    fiber walk with a batch-means Monte Carlo standard error.  Both score
    tables from per-cell lookups: each cell's Pearson term is computed once
    per value.  Enumeration sums the fiber's row network forward
    (`_tail_weights`) and builds no table; each table's statistic is
    the float `_pearson_flat` gives it, and the p-value is the correctly
    rounded ratio of integer weights, as when each table was weighted by
    n!/prod f!.  `samples_used` is the number of tables and
    `nodes_visited` the cell-by-cell search's node count.
    """
    require_instance(table, CountTable, "table")
    require_instance(model, ModelSpec, "model")
    if config is not None:
        require_instance(config, WalkConfig, "config")
    if method not in ("auto", "mcmc", "enumerate"):
        raise InputError(f"unknown method {method!r}")
    require_int(node_budget, "node_budget", 0)
    fit, terms, observed_stat = _fit_terms(table, model)

    if method in ("auto", "enumerate"):
        try:
            fiber = enumerate_fiber(sufficient_statistic(table, model), model, node_budget)
        except BudgetExceededError:
            if method == "enumerate":
                raise
            fiber = None
        if fiber is not None:
            hit_weight, total_weight = _tail_weights(fiber, fit, terms, _chi2_threshold(observed_stat))
            p = hit_weight / total_weight  # int true division rounds correctly
            return TestResult(
                statistic_observed=observed_stat,
                p_value=p,
                monte_carlo_stderr=0.0,
                samples_used=len(fiber),
                method="Enumeration",
                config={"node_budget": node_budget, "nodes_visited": fiber.nodes},
            )

    if config is None:
        config = WalkConfig(steps=50_000, stationary=Stationary.HYPERGEOMETRIC)
    return _mcmc_test(table, model, fit, terms, observed_stat, [config])


def _fit_terms(table: CountTable, model: ModelSpec) -> Tuple[List[float], List[dict], float]:
    """The model fit as a flat row-major list, one dict of Pearson terms per
    cell holding the table's terms (`_add_terms`), and the table's
    statistic from them."""
    if table.n == 0:
        raise InputError("exact test needs a nonzero table")
    fit = list(chain.from_iterable(expected_counts(table, model)))
    terms = _add_terms(fit, [{} for _ in fit], table.flat)
    return fit, terms, _pearson_flat(terms, table.flat)


def _mcmc_test(table: CountTable, model: ModelSpec, fit: List[float], terms: List[dict],
               observed_stat: float, configs: Sequence[WalkConfig]) -> TestResult:
    """The MCMC test pooled over one walk per configuration, all of one
    length and from one fit (`fit`, `terms`) and one move family: the
    indicator of each state's statistic reaching the observed one, averaged over every
    walk, with the batch-means standard error of all walks together.  Each
    distinct table is scored once per call while the memo has room: its
    indicator is kept by its `flat` for all the walks, one lookup per state
    change, and the memo is dropped for good at the first miss once it
    holds `_CELL_BUDGET` // I^2 tables.  The result echoes the first
    configuration."""
    if any(c.stationary is not Stationary.HYPERGEOMETRIC for c in configs):
        raise InputError("the sampling test requires the hypergeometric stationary law")
    threshold = _chi2_threshold(observed_stat)
    moves = moves_for_model(model)
    scores: Optional[dict] = {}
    most = max(1, _CELL_BUDGET // (table.size * table.size))
    walks = []
    for config in configs:
        indicators = []
        last = indicator = None
        for state in fiber_walk(table, moves, config):
            # the walk re-emits an unmoved state as the same object
            if state is not last:
                last = state
                flat = state.flat
                indicator = None if scores is None else scores.get(flat)
                if indicator is None:
                    try:
                        chi2 = _pearson_flat(terms, flat)
                    except KeyError:
                        chi2 = _pearson_flat(_add_terms(fit, terms, flat), flat)
                    indicator = 1.0 if chi2 >= threshold else 0.0
                    if scores is not None:
                        if len(scores) < most:
                            scores[flat] = indicator
                        else:
                            scores = None
            indicators.append(indicator)
        walks.append(indicators)
    samples = sum(map(len, walks))
    return TestResult(
        statistic_observed=observed_stat,
        p_value=sum(map(sum, walks)) / samples,
        monte_carlo_stderr=_batch_means_stderr(walks),
        samples_used=samples,
        method="MCMC",
        config=configs[0].to_dict(),
    )


def exact_test_chains(
    table: CountTable,
    model: ModelSpec,
    config: WalkConfig,
    chains: int,
) -> TestResult:
    """The MCMC test of `exact_test` pooled over independent chains.

    Chain k reuses the base configuration with seed + k, and the model is
    fitted and its move family built once for all chains.  The p-value is
    the share of all the chains' indicators that reach the observed
    statistic, with the batch-means standard error of all chains together
    (`_batch_means_stderr`).  One chain gives exactly
    `exact_test(method="mcmc")`; more add `"chains"` to the echoed config.
    """
    require_instance(table, CountTable, "table")
    require_instance(model, ModelSpec, "model")
    require_instance(config, WalkConfig, "config")
    require_int(chains, "chains", 1)
    fit, terms, observed_stat = _fit_terms(table, model)
    result = _mcmc_test(table, model, fit, terms, observed_stat,
                        [replace(config, seed=config.seed + k) for k in range(chains)])
    return result if chains == 1 else replace(result, config=dict(result.config, chains=chains))


def _batch_means_stderr(walks: Sequence[Sequence[float]]) -> float:
    """Standard error of the mean of all values of equal-length correlated
    walks via batch means: each walk is cut into min(64, max(8, n // 500))
    batches of n // batches values, the rest left out, and the error is
    that of the mean of all the batches.  A walk shorter than its batch
    count gives the binomial error instead, and fewer than 2 values 0.0."""
    n = sum(map(len, walks))
    if n < 2:
        return 0.0
    batches = min(64, max(8, len(walks[0]) // 500))
    length = len(walks[0]) // batches
    if length < 1:
        mean = sum(map(sum, walks)) / n
        return math.sqrt(max(mean * (1 - mean), 0.0) / n)
    means = [sum(w[b * length:(b + 1) * length]) / length for w in walks for b in range(batches)]
    grand = sum(means) / len(means)
    var = sum((m - grand) ** 2 for m in means) / (len(means) - 1)
    return math.sqrt(var / len(means))


# ---------------------------------------------------------------------------
# desk-scale connectivity verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepReport:
    family: ModelFamily
    size: int
    max_n: int
    fibers_checked: int
    tables_seen: int
    largest_fiber: int
    disconnected: tuple  # of (stat, component sizes)

    @property
    def all_connected(self) -> bool:
        return not self.disconnected


def _rows_by_sum(I: int, max_n: int) -> List[List[tuple]]:
    """Every nonnegative integer row of length I with sum at most max_n,
    filed by sum, each sum's rows in lexicographic order."""
    rows = [()]
    for _ in range(I):
        rows = [r + (v,) for r in rows for v in range(max_n - sum(r) + 1)]
    by_sum: List[List[tuple]] = [[] for _ in range(max_n + 1)]
    for row in rows:
        by_sum[sum(row)].append(row)
    return by_sum


def _relabel_flat(perm: tuple, I: int) -> itemgetter:
    """The relabelling `perm` of range(I) on flat tables: it takes t to the
    table whose cell (i, j) is t[perm[i]][perm[j]]."""
    return itemgetter(*(perm[i] * I + perm[j] for i in range(I) for j in range(I)))


def _symmetric(deltas: Sequence[tuple], I: int, shifts: Sequence[int], coded: set) -> bool:
    """Whether the simultaneous row/column relabellings keep the
    `_move_deltas` `deltas` (coded `coded` by `shifts`).  Only the adjacent
    swaps, which generate S_I, are checked, on one sign of each move: swaps
    commute with negation."""
    for i in range(I - 1):
        swap = list(range(I))
        swap[i], swap[i + 1] = i + 1, i
        moved = [shifts[swap[k // I] * I + swap[k % I]] for k in range(I * I)]
        if not all(sum([v << moved[k] for k, v in d]) in coded for d in deltas[::2]):
            return False
    return True


def _file_tables(fibers, levels, descending, max_n) -> None:
    """File every table of total at most max_n: its code under its row
    sums, then under its key, the rest of its statistic.  A row's sum is at
    most what is left of max_n and, when `descending`, at most the previous
    row's, so only tables with non-increasing row sums are built.
    levels[k][s] holds the codes and keys of row k's choices of sum s; a
    table's code and key are the sums of its rows', built row by row over
    the prefixes of each row-sum vector."""
    I = len(levels)
    prefixes = {(): ([0], [0])}  # row sums -> the codes and the keys of the rows with them
    for k in range(I):
        grown = {}
        for sums, (codes, keys) in prefixes.items():
            left = max_n - sum(sums)
            for s in range((min(sums[-1], left) if descending and sums else left) + 1):
                row_codes, row_keys = levels[k][s]
                if k < I - 1:
                    grown[sums + (s,)] = ([c + r for c in codes for r in row_codes],
                                          [x + r for x in keys for r in row_keys])
                    continue
                bucket = fibers[sums + (s,)]
                for c, x in zip(row_codes, row_keys):
                    for code, key in zip(codes, keys):
                        bucket[key + x].append(code + c)
        prefixes = grown


def verify_connectivity(
    family: ModelFamily,
    I: int,
    max_n: int,
    moves: Optional[Sequence[Move]] = None,
) -> SweepReport:
    """Exhaustively check that every fiber arising from tables with total
    count up to max_n is connected under the family's moves.

    Grouping tables by sufficient statistic yields each complete fiber
    directly, independently of `enumerate_fiber`; a disconnected fiber is
    reported with its component sizes, never patched.  Tables, moves and
    the rest of each statistic are ints (`_encoding`), w bits a cell with
    2^w > max_n + s for move entries up to s, so a table's int plus a
    move's is another table's only when the move takes the one to the
    other; only a disconnected fiber's tables are decoded.  A sweep of more
    than DEFAULT_NODE_BUDGET tables raises BudgetExceededError before any
    is built.

    A simultaneous row/column relabelling maps the fiber of a statistic
    onto the fiber of the relabelled statistic, and it keeps adjacency when
    it keeps the move deltas (both signs).  When the I - 1 adjacent swaps
    keep them, the group is all of S_I and only tables with non-increasing
    row sums are built; row sums are part of the statistic, so each built
    fiber is complete.  Otherwise the group is the identity and every table
    is built.  A built fiber with row sums r stands for I!/prod m_v!
    fibers (1 under the identity), m_v counting the entries of r equal to
    v: `fibers_checked` and `tables_seen` are the weighted counts, and a
    weighted table count other than C(max_n + I*I, I*I) raises
    InvariantViolationError.  Each disconnected fiber is reported under
    every relabelling, once per statistic, ordered by total and then by
    lexicographically least member: the order in which a sweep of every
    table, by total and then lexicographically, first meets them.
    """
    require_int(max_n, "max_n", 0)
    model = ModelSpec(family=family, form=ModelForm.TORIC, size=I)
    # the tables number C(max_n + I*I, I*I) = C(max_n + I*I, min(max_n, I*I)):
    # build it up factor by factor, and stop at the budget, not at a huge number
    cells, count = I * I, 1
    for k in range(1, min(cells, max_n) + 1):
        count = count * (cells + max_n - k + 1) // k
        if count > DEFAULT_NODE_BUDGET:
            raise BudgetExceededError(
                f"a connectivity sweep of C({max_n} + {cells}, {cells}) tables exceeds "
                f"the {DEFAULT_NODE_BUDGET}-table budget")
    if moves is None:
        moves = moves_for_model(model)
    signed = _move_deltas(moves, I)
    shifts, steps, deltas = _encoding(signed, I, max_n)
    symmetric = _symmetric(signed, I, shifts, deltas)

    # a key codes the rest of a statistic as a table: the column sums in row 0, in row 1
    # the diagonal, its sum at cell (1, 0) for the common diagonal, or nothing (independence)
    common = family is ModelFamily.COMMON_DIAGONAL_EFFECT
    on_diag = family is not ModelFamily.INDEPENDENCE
    by_sum = _rows_by_sum(I, max_n)
    tops = [[sum(map(lshift, row, shifts)) for row in rows] for rows in by_sum]  # each row coded as row 0
    levels = [[([top >> (shifts[0] - shifts[k * I]) for top in row_tops],
                [top + (row[k] * on_diag << shifts[I + (0 if common else k)]) for top, row in zip(row_tops, rows)])
               for row_tops, rows in zip(tops, by_sum)] for k in range(I)]
    fibers: Dict[tuple, Dict[int, List[int]]] = defaultdict(lambda: defaultdict(list))
    _file_tables(fibers, levels, symmetric, max_n)

    relabels = [] if symmetric else [tuple]  # tuple: the identity; S_I's at the first disconnected fiber
    mask = (1 << shifts[-2]) - 1  # a cell's w bits
    fibers_checked = tables_seen = largest = 0
    found: Dict[tuple, tuple] = {}  # least member of a disconnected fiber -> component sizes
    for row_sums, bucket in fibers.items():
        weight = (math.factorial(I) // math.prod(map(math.factorial, Counter(row_sums).values()))
                  if symmetric else 1)  # I!/prod m_v!: the distinct rearrangements of row_sums
        sizes = list(map(len, bucket.values()))
        fibers_checked += weight * len(sizes)
        tables_seen += weight * sum(sizes)
        largest = max(largest, *sizes)
        for members in bucket.values():
            if len(members) > 1:
                components = _components(members, steps, deltas)
                if len(components) > 1:
                    flats = [tuple([m >> s & mask for s in shifts]) for m in members]
                    relabels = relabels or [_relabel_flat(p, I) for p in permutations(range(I))]
                    for relabel in relabels:
                        found[min(map(relabel, flats))] = tuple(sorted(map(len, components)))
    if tables_seen != count:
        raise InvariantViolationError(
            f"the sweep weighted {tables_seen} tables, not C({max_n} + {cells}, {cells}) = {count}")

    disconnected = []
    for least in sorted(found, key=lambda t: (sum(t), t)):
        # a swept table: nonnegative counts
        table = _unchecked(CountTable, size=I, flat=least, n=sum(least))
        stat = sufficient_statistic(table, model)
        disconnected.append(((stat.rows, stat.cols, stat.diag), found[least]))

    return SweepReport(
        family=family,
        size=I,
        max_n=max_n,
        fibers_checked=fibers_checked,
        tables_seen=tables_seen,
        largest_fiber=largest,
        disconnected=tuple(disconnected),
    )
