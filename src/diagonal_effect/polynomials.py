"""Sparse multivariate polynomials with integer coefficients in cell variables.

A variable is an integer id; the cell (i, j) of an I x I table, 1-based,
gets id (i-1)*I + (j-1).  Ids at or above I*I are auxiliary variables used
only inside elimination computations.  A monomial is the cell product
itself: the ascending tuple of its variable ids, each repeated as often as
its exponent, so p[1,1]^2*p[1,2] at I = 2 is (0, 0, 1) and the constant 1
is ().  Degree is `len`, coprimality is set disjointness, and the tuple is
hashable and cheap to compare.  A polynomial is evaluated exactly at a
`ProbTable`, from its stored form: cell v is nums[v] / den.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import neg
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError, SizeMismatchError
from .tables import ProbTable, require_instance, require_int, require_mapping
from .tables import _unchecked, require_sequence

Monomial = Tuple[int, ...]

_ZERO = Fraction(0)


def cell_var(i: int, j: int, size: int) -> int:
    """Variable id of cell (i, j), 1-based integer indices."""
    require_int(i, "cell row")
    require_int(j, "cell column")
    if not (1 <= i <= size and 1 <= j <= size):
        raise InputError(f"cell ({i},{j}) outside a {size}x{size} table")
    return (i - 1) * size + (j - 1)


def _cell(cell) -> Tuple[int, int]:
    """`cell` itself when it is an (i, j) pair; anything else raises
    InputError.  `cell_var` checks the two indices."""
    if len(require_sequence(cell, "a cell")) != 2:
        raise InputError(f"a cell is an (i, j) pair, got {cell!r}")
    return cell


def mono_from_cells(cells: Sequence[Tuple[int, int]], size: int) -> Monomial:
    """Monomial that is the product of the given cells (repeats allowed)."""
    ids = []
    for cell in require_sequence(cells, "cells"):
        if cell.__class__ is not tuple or len(cell) != 2:  # a tuple pair needs no further check
            _cell(cell)
        i, j = cell
        ids.append(cell_var(i, j, size))
    ids.sort()
    return tuple(ids)


def check_distinct(variables: Sequence[int], where: str) -> None:
    """InputError unless `variables` is a sequence of distinct variable ids, ints >= 0."""
    seen = set()
    for v in require_sequence(variables, where):
        if require_int(v, "variable id", 0) in seen:
            raise InputError(f"variable {v} appears twice in {where}")
        seen.add(v)


@dataclass(frozen=True)
class TermOrder:
    """A monomial order given by a significance-ordered variable tuple.

    Plain orders are graded reverse lexicographic over `variables`.  With
    `block` > 0 the first `block` variables form an elimination block:
    monomials are compared grevlex on the block first, then grevlex on the
    rest, so eliminating the block variables is a matter of discarding
    basis elements that mention them.  A variable is an id, an int >= 0,
    and may appear only once.
    """

    variables: tuple
    block: int = 0

    def __post_init__(self):
        check_distinct(self.variables, "the term order")
        require_int(self.block, "block", 0)

    @classmethod
    def grevlex(cls, variables: Sequence[int]) -> "TermOrder":
        return cls(variables=tuple(require_sequence(variables, "the term order")))

    @classmethod
    def grevlex_last(cls, variables: Sequence[int], last: int) -> "TermOrder":
        """Grevlex with one chosen variable moved to the least significant slot."""
        rest = tuple(v for v in require_sequence(variables, "the term order") if v != last)
        return cls(variables=rest + (last,))

    @classmethod
    def elimination(cls, block_vars: Sequence[int], main_vars: Sequence[int]) -> "TermOrder":
        block = tuple(require_sequence(block_vars, "the elimination block"))
        return cls(variables=block + tuple(require_sequence(main_vars, "the term order")), block=len(block))

    def key(self, m: Monomial):
        dense = list(map(m.count, self.variables))
        if self.block:
            head, tail = dense[: self.block], dense[self.block:]
            return (
                sum(head),
                tuple(map(neg, reversed(head))),
                sum(tail),
                tuple(map(neg, reversed(tail))),
            )
        return (sum(dense), tuple(map(neg, reversed(dense))))


class CellPolynomial:
    """Immutable-by-convention sparse polynomial: `terms` maps each monomial,
    the ascending tuple of its variable ids with repeats as powers, to its
    nonzero int coefficient.  A size below 1, a non-mapping `terms`, a key
    not such a tuple of ints >= 0 or a coefficient not an int (a Fraction
    or a float included) raises InputError."""

    __slots__ = ("size", "terms")

    def __init__(self, size: int, terms: Optional[Dict[Monomial, int]] = None):
        self.size = require_int(size, "polynomial size", 1)
        clean: Dict[Monomial, int] = {}
        if terms is not None:
            for m, c in require_mapping(terms, "polynomial terms").items():
                for v in require_instance(m, tuple, "monomial"):
                    require_int(v, "variable id", 0)
                if list(m) != sorted(m):
                    raise InputError(f"monomial {m!r} is not in ascending order")
                if require_int(c, "coefficient") != 0:
                    clean[m] = c
        self.terms = clean

    # ---- constructors ----

    @classmethod
    def _nonzero_ints(cls, size: int, terms: Dict[Monomial, int]) -> "CellPolynomial":
        """The polynomial `terms`, whose monomials are ascending id tuples and
        whose coefficients are nonzero ints, built without the checks, which
        would keep every term as it is: the one way the package builds a
        polynomial it has made itself.  Each call site says why."""
        poly = object.__new__(cls)
        poly.size = size
        poly.terms = terms
        return poly

    @classmethod
    def from_cell_terms(cls, size: int, cell_terms) -> "CellPolynomial":
        """Build from (coefficient, [(i, j), ...]) pairs with repeats as
        powers; each coefficient is an int."""
        require_int(size, "polynomial size", 1)
        terms: Dict[Monomial, int] = {}
        for term in require_sequence(cell_terms, "cell terms"):
            if len(require_sequence(term, "a cell term")) != 2:
                raise InputError(f"a cell term is a (coefficient, cells) pair, got {term!r}")
            coeff, cells = term
            m = mono_from_cells(cells, size)
            terms[m] = terms.get(m, 0) + require_int(coeff, "coefficient")
        return cls(size, terms)

    def __neg__(self) -> "CellPolynomial":
        return CellPolynomial(self.size, {m: -c for m, c in self.terms.items()})

    # ---- structure ----

    def is_zero(self) -> bool:
        return not self.terms

    def num_terms(self) -> int:
        return len(self.terms)

    def variables(self) -> set:
        return set().union(*self.terms)

    def is_pure_binomial(self) -> bool:
        """Two terms with opposite unit-normalizable coefficients and coprime monomials."""
        if len(self.terms) != 2:
            return False
        (m1, c1), (m2, c2) = sorted(self.terms.items())
        return c1 == -c2 and set(m1).isdisjoint(m2)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CellPolynomial)
            and self.size == other.size
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.size, tuple(sorted(self.terms.items()))))

    # ---- evaluation and rendering ----

    def evaluate(self, P: ProbTable) -> Fraction:
        """Exact value at the ProbTable P.  Anything else raises InputError,
        and a P of another size SizeMismatchError."""
        if require_instance(P, ProbTable, "point").size != self.size:
            raise table_size_error(self.size, P)
        return self.evaluate_cleared(P.nums, P.den, {})

    def evaluate_cleared(self, nums: Sequence[int], den: int,
                         monomials: Dict[Monomial, int]) -> Fraction:
        """Exact value where variable v is nums[v] / den, in one integer loop.
        The sum is held over D^deg, deg the highest term degree met so far:
        a term c*x^m of degree d <= deg adds c * N^m * D^(deg - d), and one
        of higher degree first multiplies the sum by D^(d - deg).  So a
        homogeneous polynomial, as every invariant is, takes no power of D
        until the final division.  `monomials` holds N^m for each monomial m
        already met at these `nums` and gains the ones this polynomial adds,
        so that a batch of polynomials evaluated at one point shares them.
        Every zero value is the one shared `Fraction(0)`: an invariant at a
        point of its model builds no Fraction."""
        total = deg = 0
        for m, c in self.terms.items():
            x = monomials.get(m)
            if x is None:
                x = monomials[m] = _monomial_value(m, nums)
            d = len(m)
            if d == deg:
                total += c * x
            elif d < deg:
                total += c * x * den ** (deg - d)
            else:
                if total:
                    total *= den ** (d - deg)
                total += c * x
                deg = d
        if not total:
            return _ZERO
        return Fraction(total, den ** deg)

    def render_monomial(self, m: Monomial) -> str:
        if not m:
            return "1"
        size = self.size
        cells = size * size
        parts = []
        last = None
        for v in m:
            if v == last:
                continue  # m is sorted: v's run was rendered with its count
            last = v
            # the name straight from the id, which the constructor checked
            name = f"p[{v // size + 1},{v % size + 1}]" if v < cells else f"t{v - cells}"
            e = m.count(v)
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # the polynomial's own ids, sorted and distinct, are a valid grevlex order
        order = _unchecked(TermOrder, variables=tuple(sorted(self.variables())) or (0,), block=0)
        chunks = []
        for m in sorted(self.terms, key=order.key, reverse=True):
            c = self.terms[m]
            mono = self.render_monomial(m)
            mag = abs(c)
            body = mono if mag == 1 and m else (str(mag) if not m else f"{mag}*{mono}")
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"CellPolynomial(size={self.size}, {str(self)})"


def table_size_error(size: int, P: ProbTable) -> SizeMismatchError:
    """The error for a polynomial over size x size cells evaluated at the
    ProbTable P, of another size."""
    return SizeMismatchError(f"polynomial over {size}x{size} cells, table is {P.size}x{P.size}")


def _monomial_value(m: Monomial, nums: Sequence[int]) -> int:
    """N^m, with variable v at nums[v]."""
    if m and m[-1] >= len(nums):
        raise InputError("cannot evaluate an auxiliary variable at a table")
    x = 1
    for v in m:  # a loop, about half the time of prod(map(...)) for the families' three ids
        x *= nums[v]
    return x


def binomial_from_vector(flat: Sequence[int], size: int) -> CellPolynomial:
    """p^{v+} - p^{v-} for an integer cell vector in row-major order."""
    if len(flat) != size * size:
        raise SizeMismatchError(f"expected {size * size} entries, got {len(flat)}")
    return binomial_from_entries([(v, x) for v, x in enumerate(flat) if x], size)


def binomial_from_entries(entries: Sequence[Tuple[int, int]], size: int) -> CellPolynomial:
    """`binomial_from_vector` of the nonzero entries (v, x), v ascending."""
    pos: List[int] = []
    neg: List[int] = []
    for v, x in entries:
        if x > 0:
            pos += [v] * x
        else:
            neg += [v] * -x
    if not pos and not neg:
        raise InputError("the zero vector has no binomial")
    # ids ascend with v, and no id is on both sides, so the monomials differ
    return CellPolynomial._nonzero_ints(size, {tuple(pos): 1, tuple(neg): -1})


def require_polynomials(polys, what: str) -> Optional[int]:
    """The table size of `polys`, a sequence of CellPolynomials over one size,
    or None if it is empty; else InputError (SizeMismatchError for a size)."""
    for p in require_sequence(polys, what):
        if require_instance(p, CellPolynomial, f"each of the {what}").size != polys[0].size:
            size = polys[0].size
            raise SizeMismatchError(f"polynomial over {p.size}x{p.size} cells, expected {size}x{size}")
    return polys[0].size if polys else None
