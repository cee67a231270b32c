import random
from unittest import mock

import pytest

from diagonal_effect import CountTable, ModelFamily, ModelForm, ModelSpec, markov


def model(family: ModelFamily, size: int, form: ModelForm = ModelForm.TORIC) -> ModelSpec:
    return ModelSpec(family=family, form=form, size=size)


def move_search_only(steps):
    """A patch under which `markov._components` adds `steps` to each member
    also where it would test each pair: every fiber by the move search."""
    return mock.patch.object(markov, "_edges_by_difference",
                             lambda members, deltas: markov._edges_by_move(members, steps))


def random_count_table(rng: random.Random, size: int, n: int) -> CountTable:
    cells = [[0] * size for _ in range(size)]
    for _ in range(n):
        cells[rng.randrange(size)][rng.randrange(size)] += 1
    return CountTable.from_rows(cells)


def all_tables(size: int, total: int):
    """Every size x size nonnegative integer table with the given total."""
    cells = size * size
    vec = [0] * cells

    def rec(pos, left):
        if pos == cells - 1:
            vec[pos] = left
            yield CountTable(
                size=size,
                cells=tuple(tuple(vec[i * size + j] for j in range(size)) for i in range(size)),
            )
            vec[pos] = 0
            return
        for v in range(left + 1):
            vec[pos] = v
            yield from rec(pos + 1, left - v)
            vec[pos] = 0

    yield from rec(0, total)


@pytest.fixture
def rng():
    return random.Random("diagonal-effect-tests")
