"""Fiber enumeration and the connectivity of a fiber under moves.

Enumeration builds a fiber as a network of row states (row index, column
remainders, diagonal remainder): each state's rows are built once with
margin pruning, and the node count of its subtree is kept, so node counts
and budgets are those of the cell-by-cell search.  A fiber's tables exist
as row-major flat tuples only once a caller reads them, and `CountTable`s
only for callers that ask for them.  Enumeration remains the oracle
against which the sampler is calibrated.  The connectivity searches code
tables and moves as ints (`_encoding`) and step between ints; the
connectivity sweep of `markov` shares them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import lshift
from typing import Dict, Iterator, List, Sequence, Tuple

from .errors import BudgetExceededError, InputError
from .moves import _move_deltas
from .tables import (
    DEFAULT_NODE_BUDGET,
    CountTable,
    ModelFamily,
    ModelForm,
    ModelSpec,
    Move,
    SufficientStat,
    _unchecked,
    require_instance,
    require_int,
    require_sized,
)


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
