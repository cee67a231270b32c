"""One stored form per table, per move and per point: the grid is built on
first read.

A `CountTable` stores its counts as the row-major tuple `flat`, a `Move`
its nonzero cells as `entries` and a `ProbTable` its row-major cell
numerators `nums` over one denominator `den`; `cells` is built from them
the first time it is read, and kept.  The values the package builds itself hold no grid
until it is read, and the grid they then give must be the one the package
built eagerly before.  `golden/stored_grids.json` holds, for each source,
the number of values and the SHA-256 of the JSON list of their grids
(`(label, cells)` for moves), recorded when every grid was still built
eagerly.  Regenerate it only for a change that is meant to change a grid,
and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_stored_form.py > tests/golden/stored_grids.json
"""

import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diagonal_effect import (
    CountTable,
    InputError,
    MixtureParams,
    ModelFamily,
    Move,
    ProbTable,
    ToricParams,
    WalkConfig,
    apply_move,
    design_matrix,
    enumerate_fiber,
    fiber_walk,
    likelihood,
    mixture_point,
    moves_common_diag,
    moves_diag_effect,
    moves_for_model,
    normalize,
    sufficient_statistic,
    toric_point,
    transpose_apply,
    verify_connectivity,
)
from diagonal_effect import markov
from diagonal_effect.polynomials import CellPolynomial
from diagonal_effect.tables import _unchecked, over_lcm

from conftest import model

GOLDEN = Path(__file__).parent / "golden" / "stored_grids.json"
DIAG, COMMON = ModelFamily.DIAGONAL_EFFECT, ModelFamily.COMMON_DIAGONAL_EFFECT
TABLE3 = [[1, 2, 0], [0, 1, 2], [2, 0, 1]]
TABLE5 = [[0, 0, 1, 2, 0], [0, 0, 2, 0, 1], [2, 0, 0, 1, 0], [1, 0, 0, 0, 2], [0, 3, 0, 0, 0]]


def _walk(family, rows, steps):
    # table3 keeps the walk's proposal tables to the end, table5 drops them
    start = CountTable.from_rows(rows)
    return list(fiber_walk(start, moves_for_model(model(family, start.size)),
                           WalkConfig(steps=steps, seed=1)))


def _fiber(family, rows):
    table = CountTable.from_rows(rows)
    spec = model(family, table.size)
    return list(enumerate_fiber(sufficient_statistic(table, spec), spec).tables)


def _swept():
    """The tables the sweep builds for its disconnected fibers: without the
    cycles, the rectangle swaps leave some diagonal-effect fibers at I = 4
    disconnected."""
    seen = []
    real = markov.sufficient_statistic

    def record(table, spec):
        seen.append(table)
        return real(table, spec)
    markov.sufficient_statistic = record
    try:
        report = verify_connectivity(DIAG, 4, 3, [m for m in moves_diag_effect(4) if m.label == "rect"])
    finally:
        markov.sufficient_statistic = real
    assert len(seen) == len(report.disconnected) > 0
    return seen


SOURCES = {
    "fiber_walk/common/table3": lambda: _walk(COMMON, TABLE3, 2000),
    "fiber_walk/common/table5": lambda: _walk(COMMON, TABLE5, 2000),
    "fiber_walk/diag/table5": lambda: _walk(DIAG, TABLE5, 2000),
    "fiber_tables/common/table3": lambda: _fiber(COMMON, TABLE3),
    "fiber_tables/diag/table5": lambda: _fiber(DIAG, TABLE5),
    "sweep_disconnected/diag/4": _swept,
}
for _I in range(3, 9):
    SOURCES[f"moves_diag_effect/{_I}"] = lambda I=_I: moves_diag_effect(I)
    SOURCES[f"moves_common_diag/{_I}"] = lambda I=_I: moves_common_diag(I)


def fingerprint(values: list) -> dict:
    grids = [[m.label, [list(row) for row in m.cells]] if isinstance(m, Move) else [list(row) for row in m.cells]
             for m in values]
    text = json.dumps(grids, separators=(",", ":"))
    return {"count": len(grids), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def record() -> dict:
    return {key: fingerprint(source()) for key, source in SOURCES.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", sorted(SOURCES))
def test_grids_are_built_on_first_read(golden, key):
    values = SOURCES[key]()
    assert not any("cells" in vars(x) for x in values)
    assert fingerprint(values) == golden[key]
    # the grid is kept once built
    assert all(x.cells is x.cells for x in values)


def _reference_apply(table, move, sign):
    """table + sign * move on the grids, None when a count goes negative."""
    cells = tuple(tuple(t + sign * m for t, m in zip(trow, mrow)) for trow, mrow in zip(table.cells, move.cells))
    return None if any(x < 0 for row in cells for x in row) else cells


@st.composite
def grids(draw, lo=0, hi=4, size=None):
    size = draw(st.integers(2, 5)) if size is None else size
    return [draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)) for _ in range(size)]


@st.composite
def move_grids(draw, size):
    flat = draw(st.lists(st.integers(-3, 3), min_size=size * size - 1, max_size=size * size - 1).filter(any))
    flat.append(-sum(flat))
    return [flat[i * size:(i + 1) * size] for i in range(size)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stored_forms_read_back_the_grid(data):
    a = data.draw(grids())
    b = data.draw(st.just([list(row) for row in a]) | grids())
    ta, tb = CountTable.from_rows(a), CountTable.from_rows(b)
    assert ta.flat == tuple(x for row in a for x in row) and ta.n == sum(ta.flat)
    # equality and hash follow the stored form and decide what the grids decide
    assert (ta == tb) is (a == b)
    if a == b:
        assert hash(ta) == hash(tb)
    rebuilt = _unchecked(CountTable, size=ta.size, flat=ta.flat, n=ta.n)
    assert (rebuilt, hash(rebuilt), repr(rebuilt)) == (ta, hash(ta), repr(ta))
    assert rebuilt.cells == tuple(map(tuple, a)) and rebuilt.to_lists() == a

    size = data.draw(st.integers(2, 5))
    m = data.draw(move_grids(size))
    n = data.draw(st.just([list(row) for row in m]) | move_grids(size))
    ma, mb = Move.from_rows(m, "any"), Move.from_rows(n, "any")
    assert ma.entries == tuple((k, x) for k, x in enumerate(x for row in m for x in row) if x)
    assert (ma == mb) is (m == n)
    if m == n:
        assert hash(ma) == hash(mb)
    rebuilt = _unchecked(Move, size=size, entries=ma.entries, label="any", degree=ma.degree)
    assert (rebuilt, hash(rebuilt), repr(rebuilt)) == (ma, hash(ma), repr(ma))
    assert rebuilt.cells == tuple(map(tuple, m))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_apply_move_matches_the_grid_reference(data):
    size = data.draw(st.integers(2, 5))
    rows, changes = data.draw(grids(0, 3, size)), data.draw(move_grids(size))
    move = Move.from_rows(changes)
    # with the move's negative part added, a table takes the move with sign +1
    lifted = [[t + max(0, -m) for t, m in zip(trow, mrow)] for trow, mrow in zip(rows, changes)]
    for table in (CountTable.from_rows(rows), CountTable.from_rows(lifted)):
        for sign in (1, -1):
            out = apply_move(table, move, sign)
            expected = _reference_apply(table, move, sign)
            if expected is None:
                assert out is None
            else:
                assert "cells" not in vars(out)
                assert out == CountTable(size=size, cells=expected) and out.cells == expected


def test_transpose_apply_rejects_an_object_with_only_cells():
    class Grid:
        cells = tuple(map(tuple, TABLE3))

    with pytest.raises(InputError, match="^table must be a CountTable, got <"):
        transpose_apply(design_matrix(model(COMMON, 3)), Grid())


def _fractions(draw, size):
    return tuple(Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 7))) for _ in range(size))


def _simplex(draw, size):
    weights = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size).filter(any))
    return tuple(Fraction(x, sum(weights)) for x in weights)


@st.composite
def points(draw):
    """A point from one of the three builders, zero cells allowed: a
    normalized count table, or a toric or a mixture parametrization."""
    size = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["normalize", "toric", "mixture"]))
    if kind == "normalize":
        return normalize(CountTable.from_rows(draw(grids(0, 4, size).filter(lambda g: any(map(any, g))))))
    if kind == "mixture":
        alpha = Fraction(draw(st.integers(0, 6)), 6)
        return mixture_point(MixtureParams(alpha, _simplex(draw, size), _simplex(draw, size), _simplex(draw, size)))
    r, c = _fractions(draw, size), _fractions(draw, size)
    assume(any(r) and any(c))
    try:
        return toric_point(ToricParams(r, c, _fractions(draw, size)))[0]
    except InputError:  # N_T = 0: all the mass on zero diagonal parameters
        assume(False)


@settings(max_examples=200, deadline=None)
@given(points(), st.data())
def test_points_keep_their_numerators_over_one_denominator(point, data):
    assert "cells" not in vars(point)
    nums, den = over_lcm([p for row in point.cells for p in row])
    assert (point.nums, point.den) == (tuple(nums), den)
    assert math.gcd(den, *nums) == 1 and den > 0
    assert point.cells is point.cells
    # equality, hash and repr agree with the checked constructor's rebuild
    rebuilt = ProbTable(point.size, point.cells)
    assert (rebuilt, hash(rebuilt), repr(rebuilt)) == (point, hash(point), repr(point))
    assert repr(point).startswith(f"ProbTable(size={point.size}, cells=((Fraction(")
    # and decide what equality of the grids decides
    other = data.draw(st.just(rebuilt) | points())
    assert (point == other) is (point.cells == other.cells)


@settings(max_examples=100, deadline=None)
@given(points())
def test_evaluation_reads_the_stored_form(point):
    # each cell variable evaluates to nums[v] / den, and no grid is built
    values = [CellPolynomial(point.size, {(v,): 1}).evaluate(point) for v in range(point.size ** 2)]
    assert values == [Fraction(x, point.den) for x in point.nums]
    assert "cells" not in vars(point)
    assert values == [p for row in point.cells for p in row]


def test_normalize_divides_by_the_common_factor():
    point = normalize(CountTable.from_rows([[2, 4], [0, 6]]))
    assert (point.nums, point.den) == ((1, 2, 0, 3), 6)
    assert point == normalize(CountTable.from_rows([[1, 2], [0, 3]]))
    assert "cells" not in vars(point)
    assert point.cells == ((Fraction(1, 6), Fraction(1, 3)), (Fraction(0), Fraction(1, 2)))


def _reference_likelihood(prob, table):
    """prod p ** f, one Fraction operation at a time, cell by cell."""
    value = Fraction(1)
    for prow, frow in zip(prob.cells, table.cells):
        for p, f in zip(prow, frow):
            if f:
                if p == 0:
                    return Fraction(0)
                value *= p ** f
    return value


@settings(max_examples=150, deadline=None)
@given(points(), st.data())
def test_likelihood_matches_the_fraction_reference(point, data):
    table = CountTable.from_rows(data.draw(grids(0, 3, point.size)))
    value = likelihood(point, table)
    assert value.__class__ is Fraction and value == _reference_likelihood(point, table)


def test_likelihood_is_zero_under_a_positive_count_at_a_million():
    point = ProbTable.from_rows([[0, Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 3)]])
    table = CountTable.from_rows([[1, 333_333], [333_333, 333_333]])
    assert table.n == 10 ** 6
    assert likelihood(point, table) == _reference_likelihood(point, table) == 0
    # a zero cell read last gives an exact zero too, and no count gives 1
    flipped = ProbTable.from_rows([[Fraction(1, 3), Fraction(1, 3)], [Fraction(1, 3), 0]])
    assert likelihood(flipped, CountTable.from_rows([[333_333, 333_333], [333_333, 1]])) == 0
    assert likelihood(flipped, CountTable.from_rows([[0, 0], [0, 0]])) == 1


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
