"""Exact-arithmetic table types: counts, probabilities, moves, statistics.

Every type is an immutable value; probabilities are `fractions.Fraction`
throughout so that model-membership and invariant-vanishing questions are
decidable exactly.  No floating point enters here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional, Sequence, Tuple, Union

from .errors import InputError, SizeMismatchError

Grid = tuple


class ModelFamily(Enum):
    INDEPENDENCE = "independence"
    DIAGONAL_EFFECT = "diagonal-effect"
    COMMON_DIAGONAL_EFFECT = "common-diagonal-effect"


class ModelForm(Enum):
    TORIC = "toric"
    MIXTURE = "mixture"


@dataclass(frozen=True)
class ModelSpec:
    """Which model a table, move, or statistic is interpreted under."""

    family: ModelFamily
    form: ModelForm
    size: int
    structural_zero_diagonal: bool = False

    def __post_init__(self):
        if self.size < 2:
            raise InputError(f"table size must be at least 2, got {self.size}")
        if self.structural_zero_diagonal and self.family is not ModelFamily.DIAGONAL_EFFECT:
            raise InputError(
                "structural_zero_diagonal is only meaningful for the diagonal-effect family"
            )


def _freeze_int_grid(rows: Sequence[Sequence[int]], *, what: str) -> tuple:
    size = len(rows)
    out = []
    for i, row in enumerate(rows):
        if len(row) != size:
            raise InputError(f"{what}: row {i + 1} has {len(row)} entries, expected {size}")
        for x in row:
            if isinstance(x, bool) or not hasattr(x, "__index__"):
                raise InputError(f"{what}: entry {x!r} in row {i + 1} is not an integer")
        out.append(tuple(operator.index(x) for x in row))
    return tuple(out)


@dataclass(frozen=True)
class CountTable:
    """A square table of observed nonnegative integer counts."""

    size: int
    cells: Grid
    n: int = field(init=False)

    def __post_init__(self):
        if len(self.cells) != self.size or any(len(r) != self.size for r in self.cells):
            raise InputError("cells must form a size x size grid")
        total = 0
        for i, row in enumerate(self.cells):
            for j, x in enumerate(row):
                if x < 0:
                    raise InputError(f"count at ({i + 1},{j + 1}) is negative: {x}")
                total += x
        object.__setattr__(self, "n", total)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "CountTable":
        grid = _freeze_int_grid(rows, what="count table")
        return cls(size=len(grid), cells=grid)

    def row_margins(self) -> tuple:
        return tuple(sum(row) for row in self.cells)

    def col_margins(self) -> tuple:
        return tuple(sum(self.cells[i][j] for i in range(self.size)) for j in range(self.size))

    def diag_vector(self) -> tuple:
        return tuple(self.cells[i][i] for i in range(self.size))

    def diag_sum(self) -> int:
        return sum(self.cells[i][i] for i in range(self.size))

    def to_lists(self):
        return [list(row) for row in self.cells]


@dataclass(frozen=True)
class ProbTable:
    """A square table of exact rational cell probabilities summing to one."""

    size: int
    cells: Grid

    def __post_init__(self):
        if len(self.cells) != self.size or any(len(r) != self.size for r in self.cells):
            raise InputError("cells must form a size x size grid")
        total = Fraction(0)
        for i, row in enumerate(self.cells):
            for j, p in enumerate(row):
                if not isinstance(p, Fraction):
                    raise InputError(f"probability at ({i + 1},{j + 1}) is not a Fraction")
                if p < 0:
                    raise InputError(f"probability at ({i + 1},{j + 1}) is negative: {p}")
                total += p
        if total != 1:
            raise InputError(f"probabilities sum to {total}, expected exactly 1")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ProbTable":
        grid = tuple(tuple(Fraction(x) for x in row) for row in rows)
        return cls(size=len(grid), cells=grid)

    def is_strictly_positive(self) -> bool:
        return all(p > 0 for row in self.cells for p in row)

    def to_strings(self):
        return [[str(p) for p in row] for row in self.cells]


def normalize(table: CountTable) -> ProbTable:
    """Empirical probability table f/n (exact)."""
    if table.n == 0:
        raise InputError("cannot normalize an all-zero count table")
    n = table.n
    return ProbTable(
        size=table.size,
        cells=tuple(tuple(Fraction(x, n) for x in row) for row in table.cells),
    )


@dataclass(frozen=True)
class Move:
    """An integer table with balanced positive and negative parts.

    Moves generated by the factories in `markov` additionally lie in the
    kernel of the matching design-matrix transpose; that property is checked
    there (and in the test suite), not by this constructor.
    """

    size: int
    cells: Grid
    label: str = ""
    degree: int = field(init=False)

    def __post_init__(self):
        if len(self.cells) != self.size or any(len(r) != self.size for r in self.cells):
            raise InputError("cells must form a size x size grid")
        pos = sum(x for row in self.cells for x in row if x > 0)
        neg = -sum(x for row in self.cells for x in row if x < 0)
        if pos != neg:
            raise InputError(f"unbalanced move: positive part {pos}, negative part {neg}")
        if pos == 0:
            raise InputError("the zero move is not a valid move")
        object.__setattr__(self, "degree", pos)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], label: str = "") -> "Move":
        grid = _freeze_int_grid(rows, what="move")
        return cls(size=len(grid), cells=grid, label=label)

    def transposed(self, label: Optional[str] = None) -> "Move":
        cells = tuple(tuple(self.cells[j][i] for j in range(self.size)) for i in range(self.size))
        return Move(size=self.size, cells=cells, label=self.label + "^T" if label is None else label)


def rectangle_indices(I: int) -> Iterator[Tuple[int, int, int, int]]:
    """Every (i, k, j, h) over 1..I with i < k, j < h and all four distinct:
    rows {i, k} first, then columns {j, h} outside them, both ascending."""
    idx = range(1, I + 1)
    for i, k in combinations(idx, 2):
        for j, h in combinations([x for x in idx if x not in (i, k)], 2):
            yield i, k, j, h


def triple_indices(I: int) -> Iterator[Tuple[int, int, int]]:
    """Every unordered index triple a < b < c over 1..I, ascending."""
    return combinations(range(1, I + 1), 3)


@dataclass(frozen=True)
class SufficientStat:
    """Row margins, column margins, and the per-model diagonal component.

    `diag` is the full diagonal vector for the diagonal-effect family, the
    scalar diagonal sum for the common-diagonal family, and None for
    independence.  One equality predicate thus serves all fibers.
    """

    family: ModelFamily
    rows: tuple
    cols: tuple
    diag: Union[tuple, int, None]

    def __post_init__(self):
        if sum(self.rows) != sum(self.cols):
            raise InputError("row and column margins have different totals")
        if self.family is ModelFamily.DIAGONAL_EFFECT and not isinstance(self.diag, tuple):
            raise InputError("diagonal-effect statistic requires the full diagonal vector")
        if self.family is ModelFamily.COMMON_DIAGONAL_EFFECT and not isinstance(self.diag, int):
            raise InputError("common-diagonal statistic requires the scalar diagonal sum")
        if self.family is ModelFamily.INDEPENDENCE and self.diag is not None:
            raise InputError("independence statistic carries no diagonal component")

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return sum(self.rows)


def sufficient_statistic(table: CountTable, model: ModelSpec) -> SufficientStat:
    """Map a count table to its sufficient statistic under `model`."""
    if table.size != model.size:
        raise SizeMismatchError(f"table size {table.size} != model size {model.size}")
    if model.family is ModelFamily.DIAGONAL_EFFECT:
        diag: Union[tuple, int, None] = table.diag_vector()
        if model.structural_zero_diagonal and any(d != 0 for d in diag):
            raise InputError("table has positive diagonal counts under a structural-zero diagonal")
    elif model.family is ModelFamily.COMMON_DIAGONAL_EFFECT:
        diag = table.diag_sum()
    else:
        diag = None
    return SufficientStat(
        family=model.family,
        rows=table.row_margins(),
        cols=table.col_margins(),
        diag=diag,
    )


def apply_move(table: CountTable, move: Move, sign: int = 1) -> Optional[CountTable]:
    """Return table + sign*move, or None when a cell would go negative.

    The None marker is a normal outcome, not an error: the fiber walk treats
    an infeasible proposal as a stay-in-place step.
    """
    if table.size != move.size:
        raise SizeMismatchError(f"table size {table.size} != move size {move.size}")
    if sign not in (1, -1):
        raise InputError(f"sign must be +1 or -1, got {sign}")
    new_rows = []
    for trow, mrow in zip(table.cells, move.cells):
        row = tuple(t + sign * m for t, m in zip(trow, mrow))
        if any(x < 0 for x in row):
            return None
        new_rows.append(row)
    return CountTable(size=table.size, cells=tuple(new_rows))


def likelihood(prob: ProbTable, table: CountTable) -> Fraction:
    """Exact likelihood prod_{i,j} p_{i,j}^{f_{i,j}}.

    A zero probability at a cell with a positive count yields an exact zero
    (use `zero_support_cells` to see which cells caused it).
    """
    if prob.size != table.size:
        raise SizeMismatchError(f"prob size {prob.size} != table size {table.size}")
    value = Fraction(1)
    for prow, frow in zip(prob.cells, table.cells):
        for p, f in zip(prow, frow):
            if f == 0:
                continue
            if p == 0:
                return Fraction(0)
            value *= p ** f
    return value


def zero_support_cells(prob: ProbTable, table: CountTable):
    """Cells (i, j), 1-based, with positive count but zero probability."""
    if prob.size != table.size:
        raise SizeMismatchError(f"prob size {prob.size} != table size {table.size}")
    return [
        (i + 1, j + 1)
        for i in range(table.size)
        for j in range(table.size)
        if table.cells[i][j] > 0 and prob.cells[i][j] == 0
    ]
