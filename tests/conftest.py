import math
import random
from collections import deque
from functools import lru_cache
from operator import add
from typing import Dict, Iterable, Iterator, List, Sequence
from unittest import mock

import pytest

from diagonal_effect import (
    CountTable,
    ModelFamily,
    ModelForm,
    ModelSpec,
    Move,
    SufficientStat,
    fibers,
    markov,
    sufficient_statistic,
)


def model(family: ModelFamily, size: int, form: ModelForm = ModelForm.TORIC) -> ModelSpec:
    return ModelSpec(family=family, form=form, size=size)


def move_search_only(steps):
    """A patch under which `fibers._components` adds `steps` to each member
    also where it would test each pair: every fiber by the move search."""
    return mock.patch.object(fibers, "_edges_by_difference",
                             lambda members, deltas: fibers._edges_by_move(members, steps))


def random_count_table(rng: random.Random, size: int, n: int) -> CountTable:
    cells = [[0] * size for _ in range(size)]
    for _ in range(n):
        cells[rng.randrange(size)][rng.randrange(size)] += 1
    return CountTable.from_rows(cells)


def tables_of_total(cells: int, n: int) -> Iterator[tuple]:
    """Every flat nonnegative table of `cells` counts summing to n, in
    lexicographic order."""
    if cells == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in tables_of_total(cells - 1, n - first):
            yield (first,) + rest


def table_of(flat: Sequence[int]) -> CountTable:
    """The square table whose row-major counts are `flat`."""
    size = math.isqrt(len(flat))
    return CountTable.from_rows([flat[i * size:(i + 1) * size] for i in range(size)])


@lru_cache(maxsize=None)
def fibers_by_statistic(family: ModelFamily, size: int, max_n: int) -> Dict[SufficientStat, List[tuple]]:
    """Every flat table of total at most max_n, grouped by its statistic:
    each group is a complete fiber, its members ascending, and the groups
    come in the order a sweep by total and then lexicographically first
    meets them."""
    m = model(family, size)
    fibers: Dict[SufficientStat, List[tuple]] = {}
    for n in range(max_n + 1):
        for flat in tables_of_total(size * size, n):
            fibers.setdefault(sufficient_statistic(table_of(flat), m), []).append(flat)
    return fibers


def components_by_bfs(members: Sequence[tuple], moves: Sequence[Move]) -> List[List[int]]:
    """The connected components of the flat tables `members` by
    breadth-first search, each table's neighbours being itself plus or
    minus a move's dense grid: lists of member indices, each ascending,
    ordered by least index."""
    deltas = []
    for mv in moves:
        flat = tuple(x for row in mv.cells for x in row)
        deltas += [flat, tuple(-x for x in flat)]
    index = {t: k for k, t in enumerate(members)}
    component: Dict[int, int] = {}
    for start in range(len(members)):
        if start in component:
            continue
        component[start] = start
        queue = deque([members[start]])
        while queue:
            table = queue.popleft()
            for delta in deltas:
                k = index.get(tuple(map(add, table, delta)))
                if k is not None and k not in component:
                    component[k] = start
                    queue.append(members[k])
    components: Dict[int, List[int]] = {}
    for k in range(len(members)):
        components.setdefault(component[k], []).append(k)
    return list(components.values())


def encode(flats: Iterable[Sequence[int]], shifts: Sequence[int]) -> List[int]:
    """Each flat table as the int whose bits from shifts[k] on hold its
    count k, the coding of `fibers._encoding`."""
    return [sum(x << s for x, s in zip(f, shifts)) for f in flats]


@pytest.fixture
def unweighted_sweep(monkeypatch):
    """`verify_connectivity` building only the tables with non-increasing
    row sums, as for a symmetric move set, but weighing each fiber 1: its
    weighted table count falls short."""
    file_tables = markov._file_tables
    monkeypatch.setattr(markov, "_symmetric", lambda *coding: False)
    monkeypatch.setattr(markov, "_file_tables", lambda fibers, levels, _, n: file_tables(fibers, levels, True, n))


@pytest.fixture
def rng():
    return random.Random("diagonal-effect-tests")
