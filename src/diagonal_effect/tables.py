"""Exact-arithmetic table types: counts, probabilities, moves, statistics.

Every type is an immutable value; probabilities are exact rationals, kept
as integer numerators over one denominator and read as
`fractions.Fraction`s, so that model-membership and invariant-vanishing
questions are decidable exactly.  No floating point enters here.
"""

from __future__ import annotations

import collections.abc
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .errors import InputError, SizeMismatchError

Grid = tuple

# the default node budget of fiber enumeration, which `fibers` and `markov`
# read under their own names; it is here so that the CLI's parser loads neither
DEFAULT_NODE_BUDGET = 10_000_000


class ModelFamily(Enum):
    INDEPENDENCE = "independence"
    DIAGONAL_EFFECT = "diagonal-effect"
    COMMON_DIAGONAL_EFFECT = "common-diagonal-effect"


class ModelForm(Enum):
    TORIC = "toric"
    MIXTURE = "mixture"


def require_int(value, what: str, least: Optional[int] = None):
    """`value` itself when it is exactly an int (not a bool or another int
    subclass, such as an IntEnum member), of at least `least` if that is
    given; anything else raises InputError naming `what`."""
    if value.__class__ is not int or least is not None and value < least:
        floor = "" if least is None else f" of at least {least}"
        raise InputError(f"{what} must be an integer{floor}, got {value!r}")
    return value


def require_instance(value, cls: type, what: str):
    """`value` itself when it is an instance of `cls`; anything else raises
    InputError naming `what` and the class."""
    if not isinstance(value, cls):
        raise InputError(f"{what} must be a {cls.__name__}, got {value!r}")
    return value


def require_sized(value, cls: type, what: str, size: int, of: str):
    """`value` itself when it is a `cls` (`require_instance`) of table size
    `size`, the size of `of`; another size raises SizeMismatchError."""
    if require_instance(value, cls, what).size != size:
        raise SizeMismatchError(f"{what} size {value.size} != {of} size {size}")
    return value


@dataclass(frozen=True)
class ModelSpec:
    """Which model a table, move, or statistic is interpreted under."""

    family: ModelFamily
    form: ModelForm
    size: int

    def __post_init__(self):
        require_instance(self.family, ModelFamily, "family")
        require_instance(self.form, ModelForm, "form")
        require_int(self.size, "table size", 2)


def require_rational(value, what: str):
    """`value` itself when it is an exact rational: an int that is not a
    bool, or a Fraction.  Anything else raises InputError naming `what`: a
    float is already rounded, and a string or a bool is no number here."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InputError(f"{what} is not an int or a Fraction: {value!r}")
    return value


def over_lcm(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """The numerators of `values` over the lcm of their denominators, and
    that lcm: one gcd-free pass instead of a gcd per Fraction operation."""
    den = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def require_sequence(value, what: str):
    """`value` itself when it is a sequence, such as a list or a tuple;
    anything else raises InputError naming `what`, before any entry is
    read.  A str or bytes is text, not a sequence of values.  A tuple or a
    list skips the abstract-class checks, which are slow."""
    if value.__class__ not in (tuple, list) and (
            isinstance(value, (str, bytes)) or not isinstance(value, collections.abc.Sequence)):
        raise InputError(f"{what} is not a sequence: got {type(value).__name__}")
    return value


def require_mapping(value, what: str):
    """`value` itself when it is a mapping, such as a dict (which skips the
    slow abstract-class check); anything else raises InputError naming `what`."""
    if value.__class__ is not dict and not isinstance(value, collections.abc.Mapping):
        raise InputError(f"{what} is not a mapping: got {type(value).__name__}")
    return value


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass `cls` holding `fields` (a table's
    or a move's stored form, or a `TermOrder`'s fields), built without its
    constructor's checks.  It is the one way the package builds a table, a
    move or a term order from values it has made and checked itself; each
    call site states why the checks would pass."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def flat_rows(flat: Sequence[int], size: int) -> Grid:
    """The row-major cells `flat` as a tuple of `size` row tuples."""
    return tuple([tuple(flat[k:k + size]) for k in range(0, size * size, size)])


def _square_grid(cells, size: int) -> Grid:
    """`cells` as a tuple of tuples, and `cells` itself when it already is
    one, if it is a sequence of `size` sequences of `size` entries each;
    anything else raises InputError before any entry is read."""
    if len(require_sequence(cells, "cells")) != size:
        raise InputError("cells must form a size x size grid")
    frozen = cells.__class__ is tuple
    for i, row in enumerate(cells):
        if row.__class__ is not tuple:
            require_sequence(row, f"cells: row {i + 1}")
            frozen = False
        if len(row) != size:
            raise InputError("cells must form a size x size grid")
    return cells if frozen else tuple(map(tuple, cells))


@dataclass(frozen=True, init=False, repr=False)
class CountTable:
    """A square table of observed nonnegative `int` counts (`require_int`),
    stored as `flat`, row-major, with their total `n`.  The grid `cells` is
    built from `flat` on first read and kept; equality and hash follow the
    stored form (size, flat, n), which decides what the grid does."""

    size: int
    flat: tuple
    n: int

    def __init__(self, size: int, cells: Grid):
        cells = _square_grid(cells, require_int(size, "table size"))
        flat = tuple([require_int(x, f"count at ({i + 1},{j + 1})", 0)
                      for i, row in enumerate(cells) for j, x in enumerate(row)])
        # the grid given is the one `cells` would build
        self.__dict__.update(size=size, flat=flat, n=sum(flat), cells=cells)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "CountTable":
        return cls(size=len(require_sequence(rows, "cells")), cells=rows)

    @cached_property
    def cells(self) -> Grid:
        return flat_rows(self.flat, self.size)

    def __repr__(self) -> str:
        return f"CountTable(size={self.size!r}, cells={self.cells!r}, n={self.n!r})"

    def row_margins(self) -> tuple:
        return tuple(map(sum, flat_rows(self.flat, self.size)))

    def col_margins(self) -> tuple:
        return tuple(sum(self.flat[j::self.size]) for j in range(self.size))

    def diag_vector(self) -> tuple:
        return self.flat[::self.size + 1]

    def diag_sum(self) -> int:
        return sum(self.flat[::self.size + 1])

    def to_lists(self):
        return list(map(list, flat_rows(self.flat, self.size)))


@dataclass(frozen=True, init=False, repr=False)
class ProbTable:
    """A square table of exact rational cell probabilities summing to one,
    given as ints or Fractions (`require_rational`).  It stores `nums`, the
    row-major cell numerators over `den`, the lcm of the cell denominators:
    the form `over_lcm` gives, unique since gcd(*nums, den) = 1.  The grid
    of Fractions `cells` is built from it on first read and kept; equality
    and hash follow the stored form (size, nums, den), which decides what
    the grid does."""

    size: int
    nums: tuple
    den: int

    def __init__(self, size: int, cells: Grid):
        flat = []
        for i, row in enumerate(_square_grid(cells, require_int(size, "table size"))):
            for j, p in enumerate(row):
                if p.__class__ is not Fraction:
                    p = Fraction(require_rational(p, f"probability at ({i + 1},{j + 1})"))
                if p.numerator < 0:
                    raise InputError(f"probability at ({i + 1},{j + 1}) is negative: {p}")
                flat.append(p)
        nums, den = over_lcm(flat)
        if sum(nums) != den:
            raise InputError(f"probabilities sum to {Fraction(sum(nums), den)}, expected exactly 1")
        self.__dict__.update(size=size, nums=tuple(nums), den=den)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ProbTable":
        return cls(size=len(require_sequence(rows, "cells")), cells=rows)

    @cached_property
    def cells(self) -> Grid:
        return flat_rows([Fraction(x, self.den) for x in self.nums], self.size)

    def __repr__(self) -> str:
        return f"ProbTable(size={self.size!r}, cells={self.cells!r})"

    def to_strings(self):
        return [[str(p) for p in row] for row in self.cells]


def _point(size: int, nums: Sequence[int], den: int) -> ProbTable:
    """The ProbTable whose row-major cells are nums[k] / den, for
    nonnegative `nums` that sum to `den`, built without the constructor's
    checks: both divided by their gcd are its stored form."""
    g = math.gcd(den, *nums)
    return _unchecked(ProbTable, size=size, nums=tuple([x // g for x in nums]), den=den // g)


def normalize(table: CountTable) -> ProbTable:
    """Empirical probability table f/n (exact): nonnegative counts over
    their total sum to exactly 1."""
    if require_instance(table, CountTable, "table").n == 0:
        raise InputError("cannot normalize an all-zero count table")
    return _point(table.size, table.flat, table.n)


@dataclass(frozen=True, init=False, repr=False)
class Move:
    """An integer table with balanced positive and negative parts and a str
    label, stored as `entries`, its nonzero cells as row-major (cell,
    change) pairs, cell i * size + j from 0, and `degree`, the sum of its
    positive part.  The grid `cells` is built from `entries` on first read
    and kept; equality and hash follow the stored form (size, entries,
    label, degree), which decides what the grid does.

    Moves generated by the factories in `moves` additionally lie in the
    kernel of the matching design-matrix transpose; that property is checked
    there (and in the test suite), not by this constructor.
    """

    size: int
    entries: tuple
    label: str
    degree: int

    def __init__(self, size: int, cells: Grid, label: str = ""):
        cells = _square_grid(cells, require_int(size, "table size"))
        require_instance(label, str, "move label")
        entries = tuple([(i * size + j, x) for i, row in enumerate(cells) for j, x in enumerate(row)
                         if require_int(x, f"move entry at ({i + 1},{j + 1})")])
        pos, neg = sum(x for _, x in entries if x > 0), -sum(x for _, x in entries if x < 0)
        if pos != neg:
            raise InputError(f"unbalanced move: positive part {pos}, negative part {neg}")
        if pos == 0:
            raise InputError("the zero move is not a valid move")
        # the grid given is the one `cells` would build
        self.__dict__.update(size=size, entries=entries, label=label, degree=pos, cells=cells)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], label: str = "") -> "Move":
        return cls(size=len(require_sequence(rows, "cells")), cells=rows, label=label)

    @cached_property
    def cells(self) -> Grid:
        nonzero = dict(self.entries)
        return flat_rows([nonzero.get(k, 0) for k in range(self.size * self.size)], self.size)

    def __repr__(self) -> str:
        return f"Move(size={self.size!r}, cells={self.cells!r}, label={self.label!r}, degree={self.degree!r})"


def require_moves(moves) -> Sequence[Move]:
    """`moves` itself when it is a sequence of Moves; anything else raises
    InputError before any move is read."""
    for m in require_sequence(moves, "moves"):
        if not isinstance(m, Move):
            raise InputError(f"a move list holds Move objects, got {m!r}")
    return moves


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
    independence.  One equality predicate thus serves all fibers.  Margins
    and a diagonal vector are kept as tuples of nonnegative `int`s, so a
    statistic hashes.
    """

    family: ModelFamily
    rows: tuple
    cols: tuple
    diag: Union[tuple, int, None]

    def __post_init__(self):
        require_instance(self.family, ModelFamily, "family")
        size = len(require_sequence(self.rows, "row margins"))

        def counts(values, what: str) -> tuple:
            if len(require_sequence(values, what)) != size:
                raise InputError(f"{what} has {len(values)} entries, expected {size}")
            return tuple(require_int(x, f"{what}: entry {k}", 0) for k, x in enumerate(values, 1))
        object.__setattr__(self, "rows", counts(self.rows, "row margins"))
        object.__setattr__(self, "cols", counts(self.cols, "column margins"))
        if sum(self.rows) != sum(self.cols):
            raise InputError("row and column margins have different totals")
        if self.family is ModelFamily.DIAGONAL_EFFECT:
            object.__setattr__(self, "diag", counts(self.diag, "diagonal vector"))
        elif self.family is ModelFamily.COMMON_DIAGONAL_EFFECT:
            require_int(self.diag, "diagonal sum", 0)
        elif self.diag is not None:
            raise InputError("independence statistic carries no diagonal component")

    @property
    def size(self) -> int:
        return len(self.rows)


def sufficient_statistic(table: CountTable, model: ModelSpec) -> SufficientStat:
    """Map a count table to its sufficient statistic under `model`."""
    require_sized(table, CountTable, "table", require_instance(model, ModelSpec, "model").size, "model")
    if model.form is not ModelForm.TORIC:
        raise InputError("sufficient statistics exist only for toric-form models")
    if model.family is ModelFamily.DIAGONAL_EFFECT:
        diag: Union[tuple, int, None] = table.diag_vector()
    elif model.family is ModelFamily.COMMON_DIAGONAL_EFFECT:
        diag = table.diag_sum()
    else:
        diag = None
    return SufficientStat(model.family, table.row_margins(), table.col_margins(), diag)


def apply_move(table: CountTable, move: Move, sign: int = 1) -> Optional[CountTable]:
    """Return table + sign*move, or None when a cell would go negative.

    The None marker is a normal outcome, not an error: the fiber walk treats
    an infeasible proposal as a stay-in-place step.
    """
    require_sized(table, CountTable, "table", require_instance(move, Move, "move").size, "move")
    if require_int(sign, "sign") not in (1, -1):
        raise InputError(f"sign must be +1 or -1, got {sign}")
    flat = list(table.flat)
    for k, x in move.entries:
        flat[k] += sign * x
        if flat[k] < 0:
            return None
    # a balanced move keeps the total
    return _unchecked(CountTable, size=table.size, flat=tuple(flat), n=table.n)


def likelihood(prob: ProbTable, table: CountTable) -> Fraction:
    """Exact likelihood prod_{i,j} p_{i,j}^{f_{i,j}}, the product of the
    numerators' powers over den^n.

    A zero probability at a cell with a positive count yields an exact zero.
    """
    require_sized(prob, ProbTable, "prob", require_instance(table, CountTable, "table").size, "table")
    value = 1
    for x, f in zip(prob.nums, table.flat):
        if f:
            if x == 0:
                return Fraction(0)
            value *= x ** f
    return Fraction(value, prob.den ** table.n)

