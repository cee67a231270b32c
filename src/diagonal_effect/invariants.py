"""Invariant factories for every model family, plus exact vanishing checks.

An invariant of a model is a polynomial in the cell variables that is
exactly zero at every point of the model.  Factories return labeled
polynomials; `check_vanishing` evaluates a batch at a probability table and
reports the exact values.

Two of the fixed generators below circulate in a variant form that differs
by a single sign; those variants fail the vanishing test at every interior
point of the model, while the emitted forms pass it.  See
`nonvanishing_variants_report` for the evidence; nothing is adjusted
silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import InputError
from .polynomials import (
    CellPolynomial,
    Monomial,
    binomial_from_entries,
    cell_var,
    mono_from_cells,
    table_size_error,
)
from .tables import (
    Move, ProbTable, rectangle_indices, require_instance, require_int, require_moves, require_sequence,
    triple_indices,
)


@dataclass(frozen=True)
class Invariant:
    name: str
    poly: CellPolynomial


IdGrid = List[List[int]]


def _sorted3(a: int, b: int, c: int) -> Monomial:
    """The monomial of the ids a, b and c: the three sorted by compare-and-swap."""
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
        if a > b:
            a, b = b, a
    return a, b, c


def _family_poly(I: int) -> Tuple[Callable[..., CellPolynomial], IdGrid, Dict[Monomial, Monomial]]:
    """The polynomial builder of one family build at size I, its id grid
    and its monomials.

    The grid `v[i][j]` is the variable id of cell (i, j), 1-based (row and
    column 0 are padding), made once through `cell_var`, so each cell is
    range-checked once per build rather than once per term.  The factories
    look their ids up in it and hand the builder (coefficient, ids) pairs,
    `ids` a tuple of ints with repeats as powers; the families hand it
    products of two or three ids only.  The builder sorts each tuple into
    its monomial where it meets it, three ids by compare-and-swap and two
    by `sorted`.  `monos` maps each monomial of the build to the one tuple
    that stands for it, so the build's polynomials share their monomials:
    the 2,870 I = 5 mixture polynomials have 11,720 terms but only 2,050
    distinct monomials.  The diagbal loop of
    `gens_common_mixture_families` sorts and shares its monomials the same
    way, without the builder.  Coefficients of one monomial add up, and a
    product that cancels drops out.  The coefficients are ints and the
    sums that stay are nonzero, so the builder makes each polynomial
    without the constructor's checks."""
    idx = range(1, I + 1)
    v = [None] + [[None] + [cell_var(i, j, I) for j in idx] for i in idx]
    monos: Dict[Monomial, Monomial] = {}
    shared = monos.setdefault

    def poly(terms) -> CellPolynomial:
        out: Dict[Monomial, int] = {}
        for c, ids in terms:
            m = _sorted3(*ids) if len(ids) == 3 else tuple(sorted(ids))
            m = shared(m, m)
            out[m] = out.get(m, 0) + c
        if 0 in out.values():
            out = {m: c for m, c in out.items() if c}
        return CellPolynomial._nonzero_ints(I, out)

    return poly, v, monos


# ---------------------------------------------------------------------------
# independence and diagonal-effect families
# ---------------------------------------------------------------------------

def gens_independence(I: int) -> List[Invariant]:
    """All 2x2 minors p[i,j]*p[k,h] - p[i,h]*p[k,j], i<k, j<h."""
    require_int(I, "table size", 2)
    poly, v, _ = _family_poly(I)
    pairs = list(combinations(range(1, I + 1), 2))
    return [Invariant(f"minor[{i},{k}|{j},{h}]", _minor(poly, v, i, k, j, h))
            for i, k in pairs for j, h in pairs]


def _minor(poly, v: IdGrid, i: int, k: int, j: int, h: int) -> CellPolynomial:
    """p[i,j]*p[k,h] - p[i,h]*p[k,j]."""
    return poly([(1, (v[i][j], v[k][h])), (-1, (v[i][h], v[k][j]))])


def _cycle_binomial(poly, v: IdGrid, a: int, b: int, c: int) -> CellPolynomial:
    """p[a,b]*p[b,c]*p[c,a] - p[a,c]*p[c,b]*p[b,a]."""
    return poly([(1, (v[a][b], v[b][c], v[c][a])), (-1, (v[a][c], v[c][b], v[b][a]))])


def _offdiag_minors_and_cycles(I: int, poly, v: IdGrid) -> List[Invariant]:
    """The 2x2 minors over four pairwise distinct indices, then one cycle
    binomial per unordered triple."""
    out = [Invariant(f"minor[{i},{k}|{j},{h}]", _minor(poly, v, i, k, j, h))
           for i, k, j, h in rectangle_indices(I)]
    out += [Invariant(f"cycle[{a},{b},{c}]", _cycle_binomial(poly, v, a, b, c))
            for a, b, c in triple_indices(I)]
    return out


def gens_diag_effect(I: int) -> List[Invariant]:
    """Generators of the diagonal-effect toric ideal.

    Degree-2 minors over four pairwise distinct indices (nonempty only for
    I >= 4) plus one degree-3 cycle binomial per unordered index triple.
    Every generator avoids the diagonal cells, whose counts are sufficient.
    By construction these also vanish on the mixture form of the model.
    """
    require_int(I, "table size", 3)
    poly, v, _ = _family_poly(I)
    return _offdiag_minors_and_cycles(I, poly, v)


# ---------------------------------------------------------------------------
# common-diagonal-effect: fixed I=3 generator lists
# ---------------------------------------------------------------------------

def gens_common_toric_listed3() -> List[Invariant]:
    """The nine binomial generators of the common-diagonal toric ideal, I=3."""
    polys = [
        [(1, [(1, 2), (2, 3), (3, 1)]), (-1, [(1, 3), (2, 1), (3, 2)])],
        [(1, [(1, 3), (2, 2), (3, 1)]), (-1, [(1, 1), (2, 3), (3, 2)])],
        [(-1, [(1, 1), (2, 3), (3, 2)]), (1, [(1, 2), (2, 1), (3, 3)])],
        [(-1, [(2, 2), (2, 3), (3, 1), (3, 1)]), (1, [(2, 1), (2, 1), (3, 2), (3, 3)])],
        [(1, [(1, 2), (2, 2), (3, 1), (3, 1)]), (-1, [(1, 1), (2, 1), (3, 2), (3, 2)])],
        [(-1, [(1, 1), (1, 3), (3, 2), (3, 2)]), (1, [(1, 2), (1, 2), (3, 1), (3, 3)])],
        [(-1, [(1, 3), (1, 3), (2, 2), (3, 2)]), (1, [(1, 2), (1, 2), (2, 3), (3, 3)])],
        [(-1, [(1, 1), (2, 3), (2, 3), (3, 1)]), (1, [(1, 3), (2, 1), (2, 1), (3, 3)])],
        [(1, [(1, 3), (1, 3), (2, 1), (2, 2)]), (-1, [(1, 1), (1, 2), (2, 3), (2, 3)])],
    ]
    return [Invariant(f"common-toric-3 #{k}", CellPolynomial.from_cell_terms(3, terms))
            for k, terms in enumerate(polys, 1)]


_LISTED3_BINOMIAL = [
    [(1, [(1, 2), (2, 3), (3, 1)]), (-1, [(1, 3), (2, 1), (3, 2)])],
]

_LISTED3_FOUR_TERM = [
    [(1, [(1, 3), (2, 1), (2, 2)]), (-1, [(1, 2), (2, 1), (2, 3)]),
     (1, [(1, 3), (2, 3), (3, 1)]), (-1, [(1, 3), (2, 1), (3, 3)])],
    [(-1, [(1, 2), (1, 3), (2, 2)]), (1, [(1, 2), (1, 2), (2, 3)]),
     (-1, [(1, 3), (1, 3), (3, 2)]), (1, [(1, 2), (1, 3), (3, 3)])],
    [(1, [(1, 3), (2, 1), (3, 1)]), (-1, [(1, 1), (2, 3), (3, 1)]),
     (1, [(2, 2), (2, 3), (3, 1)]), (-1, [(2, 1), (2, 3), (3, 2)])],
    [(1, [(1, 2), (1, 3), (3, 1)]), (-1, [(1, 1), (1, 3), (3, 2)]),
     (1, [(1, 3), (2, 2), (3, 2)]), (-1, [(1, 2), (2, 3), (3, 2)])],
    [(1, [(1, 3), (2, 1), (2, 1)]), (-1, [(1, 1), (2, 1), (2, 3)]),
     (-1, [(2, 3), (2, 3), (3, 1)]), (1, [(2, 1), (2, 3), (3, 3)])],
    [(1, [(1, 3), (1, 3), (2, 1)]), (-1, [(1, 1), (1, 3), (2, 3)]),
     (1, [(1, 3), (2, 2), (2, 3)]), (-1, [(1, 2), (2, 3), (2, 3)])],
    [(1, [(1, 2), (1, 3), (2, 1)]), (-1, [(1, 1), (1, 2), (2, 3)]),
     (-1, [(1, 3), (2, 3), (3, 2)]), (1, [(1, 2), (2, 3), (3, 3)])],
    [(-1, [(2, 1), (2, 2), (3, 1)]), (-1, [(2, 3), (3, 1), (3, 1)]),
     (1, [(2, 1), (2, 1), (3, 2)]), (1, [(2, 1), (3, 1), (3, 3)])],
    [(-1, [(1, 2), (2, 2), (3, 1)]), (1, [(1, 2), (2, 1), (3, 2)]),
     (-1, [(1, 3), (3, 1), (3, 2)]), (1, [(1, 2), (3, 1), (3, 3)])],
    # Only this sign on the third term vanishes on the model; it also makes
    # the entry the transpose of entry 6, like the rest of the family.
    # nonvanishing_variants_report evaluates the variant with it flipped.
    [(1, [(1, 2), (3, 1), (3, 1)]), (-1, [(1, 1), (3, 1), (3, 2)]),
     (1, [(2, 2), (3, 1), (3, 2)]), (-1, [(2, 1), (3, 2), (3, 2)])],
    [(1, [(1, 2), (2, 1), (3, 1)]), (-1, [(1, 1), (2, 1), (3, 2)]),
     (-1, [(2, 3), (3, 1), (3, 2)]), (1, [(2, 1), (3, 2), (3, 3)])],
    [(1, [(1, 2), (1, 2), (3, 1)]), (-1, [(1, 1), (1, 2), (3, 2)]),
     (-1, [(1, 3), (3, 2), (3, 2)]), (1, [(1, 2), (3, 2), (3, 3)])],
]

_LISTED3_EIGHT_TERM = [
    [(1, [(1, 1), (1, 3), (2, 2)]), (-1, [(1, 3), (2, 2), (2, 2)]),
     (-1, [(1, 1), (1, 2), (2, 3)]), (1, [(1, 2), (2, 2), (2, 3)]),
     (1, [(1, 3), (1, 3), (3, 1)]), (-1, [(1, 3), (2, 3), (3, 2)]),
     (-1, [(1, 1), (1, 3), (3, 3)]), (1, [(1, 3), (2, 2), (3, 3)])],
    [(1, [(1, 1), (1, 3), (2, 1)]), (-1, [(1, 1), (1, 1), (2, 3)]),
     (-1, [(1, 2), (2, 1), (2, 3)]), (1, [(1, 1), (2, 2), (2, 3)]),
     (1, [(2, 3), (2, 3), (3, 2)]), (-1, [(1, 3), (2, 1), (3, 3)]),
     (1, [(1, 1), (2, 3), (3, 3)]), (-1, [(2, 2), (2, 3), (3, 3)])],
    [(-1, [(1, 1), (2, 2), (3, 1)]), (1, [(2, 2), (2, 2), (3, 1)]),
     (-1, [(1, 3), (3, 1), (3, 1)]), (1, [(1, 1), (2, 1), (3, 2)]),
     (-1, [(2, 1), (2, 2), (3, 2)]), (1, [(2, 3), (3, 1), (3, 2)]),
     (1, [(1, 1), (3, 1), (3, 3)]), (-1, [(2, 2), (3, 1), (3, 3)])],
    [(1, [(1, 1), (1, 2), (3, 1)]), (-1, [(1, 1), (1, 1), (3, 2)]),
     (-1, [(1, 2), (2, 1), (3, 2)]), (1, [(1, 1), (2, 2), (3, 2)]),
     (1, [(2, 3), (3, 2), (3, 2)]), (-1, [(1, 2), (3, 1), (3, 3)]),
     (1, [(1, 1), (3, 2), (3, 3)]), (-1, [(2, 2), (3, 2), (3, 3)])],
    [(1, [(1, 2), (2, 1), (2, 1)]), (-1, [(1, 1), (2, 1), (2, 2)]),
     (-1, [(1, 1), (2, 3), (3, 1)]), (-1, [(2, 1), (2, 3), (3, 2)]),
     (1, [(1, 1), (2, 1), (3, 3)]), (1, [(2, 1), (2, 2), (3, 3)]),
     (1, [(2, 3), (3, 1), (3, 3)]), (-1, [(2, 1), (3, 3), (3, 3)])],
    [(1, [(1, 2), (1, 2), (2, 1)]), (-1, [(1, 1), (1, 2), (2, 2)]),
     (-1, [(1, 1), (1, 3), (3, 2)]), (-1, [(1, 2), (2, 3), (3, 2)]),
     (1, [(1, 1), (1, 2), (3, 3)]), (1, [(1, 2), (2, 2), (3, 3)]),
     (1, [(1, 3), (3, 2), (3, 3)]), (-1, [(1, 2), (3, 3), (3, 3)])],
]

_LISTED3_TWELVE_TERM = [
    [(1, [(1, 1), (1, 2), (2, 1)]), (-1, [(1, 1), (1, 1), (2, 2)]),
     (-1, [(1, 2), (2, 1), (2, 2)]), (1, [(1, 1), (2, 2), (2, 2)]),
     (-1, [(1, 1), (1, 3), (3, 1)]), (1, [(2, 2), (2, 3), (3, 2)]),
     (1, [(1, 1), (1, 1), (3, 3)]), (-1, [(2, 2), (2, 2), (3, 3)]),
     (1, [(1, 3), (3, 1), (3, 3)]), (-1, [(2, 3), (3, 2), (3, 3)]),
     (-1, [(1, 1), (3, 3), (3, 3)]), (1, [(2, 2), (3, 3), (3, 3)])],
]

_LISTED3_GROUPS = (("binomial", _LISTED3_BINOMIAL), ("4-term", _LISTED3_FOUR_TERM),
                   ("8-term", _LISTED3_EIGHT_TERM), ("12-term", _LISTED3_TWELVE_TERM))


def gens_common_mixture_listed3() -> List[Invariant]:
    """The twenty generators of the common-diagonal mixture model, I=3.

    Grouped by term count: 1 binomial, 12 four-term, 6 eight-term and one
    twelve-term polynomial.  Entry 10 of the four-term group carries a
    one-sign correction documented in `nonvanishing_variants_report`.
    """
    return [Invariant(f"common-mixture-3 {group} #{k}", CellPolynomial.from_cell_terms(3, terms))
            for group, lists in _LISTED3_GROUPS for k, terms in enumerate(lists, 1)]


# ---------------------------------------------------------------------------
# common-diagonal-effect: mixture invariant families for general I
# ---------------------------------------------------------------------------

def _mixed8_poly(poly, v: IdGrid, i, j, k) -> CellPolynomial:
    return poly([
        (1, (v[i][j], v[i][i], v[k][k])),
        (1, (v[i][j], v[j][j], v[k][k])),
        (-1, (v[i][j], v[i][i], v[j][j])),
        (-1, (v[i][j], v[k][k], v[k][k])),
        (1, (v[k][k], v[i][k], v[k][j])),
        (-1, (v[i][i], v[i][k], v[k][j])),
        (1, (v[i][j], v[i][j], v[j][i])),
        (-1, (v[i][j], v[k][j], v[j][k])),
    ])


def _diag12_poly(poly, v: IdGrid, i, j, k) -> CellPolynomial:
    return poly([
        (1, (v[i][i], v[j][j], v[j][j])),
        (1, (v[i][i], v[i][i], v[k][k])),
        (1, (v[j][j], v[k][k], v[k][k])),
        (-1, (v[i][i], v[i][i], v[j][j])),
        (-1, (v[j][j], v[j][j], v[k][k])),
        (-1, (v[i][i], v[k][k], v[k][k])),
        (1, (v[i][i], v[i][j], v[j][i])),
        (-1, (v[i][i], v[i][k], v[k][i])),
        (1, (v[j][j], v[j][k], v[k][j])),
        (-1, (v[j][j], v[j][i], v[i][j])),
        (1, (v[k][k], v[k][i], v[i][k])),
        (-1, (v[k][k], v[k][j], v[j][k])),
    ])


def gens_common_mixture_families(I: int) -> List[Invariant]:
    """Structured invariant families of the common-diagonal mixture model.

    Five families over explicit index sets:

    - minor: 2x2 off-diagonal minors over four pairwise distinct indices
      (empty for I=3),
    - cycle: one degree-3 cycle binomial per unordered triple,
    - diagbal: four-term relations balancing two diagonal cells against a
      pair of off-diagonal products, over all tuples (i,j,k,l,m,n) with
      (i,j) != (k,l) off-diagonal, m outside {i,j}, n outside {k,l}, m != n,
    - mixed8: eight-term relations on (i,j,k) with i != j, k outside {i,j},
    - diag12: twelve-term relations in the diagonal cells, one per
      unordered triple.

    The p[i,j]*p[k,k]^2 term of mixed8 has sign -1, the only choice that
    vanishes on the model (see `nonvanishing_variants_report` for the +1
    variant).
    """
    require_int(I, "table size", 3)
    poly, v, monos = _family_poly(I)
    out = _offdiag_minors_and_cycles(I, poly, v)
    idx = range(1, I + 1)
    new = CellPolynomial._nonzero_ints
    shared = monos.setdefault
    for i, j in permutations(idx, 2):
        vij = v[i][j]
        for k, l in permutations(idx, 2):
            if (k, l) == (i, j):
                continue
            vkl = v[k][l]
            # the monomials that do not depend on m, for each n: p[i,j]*p[k,l]*p[n,n],
            # which is also the third monomial at n = m, and p[i,j]*p[n,l]*p[k,n]
            diag = [None] * (I + 1)
            cross = [None] * (I + 1)
            for n in idx:
                t = _sorted3(vij, vkl, v[n][n])
                diag[n] = shared(t, t)
                if n != k and n != l:
                    t = _sorted3(vij, v[n][l], v[k][n])
                    cross[n] = shared(t, t)
            head = f"diagbal[{i},{j};{k},{l};"
            for m in idx:
                if m == i or m == j:
                    continue
                t = _sorted3(vkl, v[m][j], v[i][m])
                t4 = shared(t, t)
                name = f"{head}{m},"
                for n in idx:
                    if n == k or n == l or n == m:
                        continue
                    # The four monomials are distinct, so none adds to or
                    # cancels another: i != j, k != l and m not in {i, j}
                    # leave p[n,n] and p[m,m] the only diagonal cells, and
                    # n != m tells them apart; p[k,l] is in the fourth but
                    # not the second, as n not in {k, l} and (k, l) != (i, j).
                    terms = {diag[n]: 1, cross[n]: -1, diag[m]: -1, t4: 1}
                    out.append(Invariant(f"{name}{n}]", new(I, terms)))
    for i, j, k in permutations(idx, 3):
        out.append(Invariant(f"mixed8[{i},{j},{k}]", _mixed8_poly(poly, v, i, j, k)))
    for a, b, c in triple_indices(I):
        out.append(Invariant(f"diag12[{a},{b},{c}]", _diag12_poly(poly, v, a, b, c)))
    return out


# ---------------------------------------------------------------------------
# moves and vanishing reports
# ---------------------------------------------------------------------------

def moves_to_binomials(moves: Sequence[Move]) -> List[CellPolynomial]:
    """The pure binomial p^{m+} - p^{m-} of each move, from its entries."""
    return [binomial_from_entries(move.entries, move.size) for move in require_moves(moves)]


@dataclass(frozen=True)
class VanishingReport:
    """Exact values of a batch of polynomials at one probability table."""

    entries: tuple  # of (name, Fraction)

    @property
    def all_zero(self) -> bool:
        return all(v == 0 for _, v in self.entries)

    def failures(self) -> List[Tuple[str, Fraction]]:
        return [(name, v) for name, v in self.entries if v != 0]

    def summary(self) -> str:
        bad = self.failures()
        if not bad:
            return f"all {len(self.entries)} polynomials vanish exactly"
        lines = [f"{len(bad)} of {len(self.entries)} polynomials do NOT vanish:"]
        lines += [f"  {name}: {value}" for name, value in bad]
        return "\n".join(lines)


def _as_invariants(polys) -> List[Invariant]:
    out = []
    for k, item in enumerate(polys, 1):
        if isinstance(item, Invariant):
            if not isinstance(item.poly, CellPolynomial):
                raise InputError(f"the poly of item {k} must be a CellPolynomial, got {item.poly!r}")
        elif isinstance(item, CellPolynomial):
            item = Invariant(f"poly #{k}", item)
        else:
            raise InputError(f"item {k} is neither an Invariant nor a CellPolynomial: {item!r}")
        out.append(item)
    return out


def check_vanishing(polys, P: ProbTable) -> VanishingReport:
    """Evaluate every polynomial exactly at the ProbTable P; pass iff every
    value is 0.

    `polys` is a sequence of `Invariant`s or bare `CellPolynomial`s, which
    are named "poly #k" by position; anything else, or a P that is not a
    ProbTable, raises InputError, whatever `polys` holds, and every item is
    checked before any is evaluated.  Each polynomial goes through
    `CellPolynomial.evaluate_cleared` at P's stored form (`nums`, `den`)
    with the N^m already met, so each N^m is computed once per call.  A
    polynomial of another size than P raises SizeMismatchError."""
    size = require_instance(P, ProbTable, "point").size
    require_sequence(polys, "polys")
    nums, den = P.nums, P.den
    monomials = {}  # the value N^m of each monomial m met so far
    entries = []
    for inv in _as_invariants(polys):
        poly = inv.poly
        if poly.size != size:
            raise table_size_error(poly.size, P)
        entries.append((inv.name, poly.evaluate_cleared(nums, den, monomials)))
    return VanishingReport(entries=tuple(entries))


def _sign_flipped(poly: CellPolynomial, m: Monomial) -> CellPolynomial:
    """`poly` with the coefficient of its monomial `m` negated."""
    # negating one of `poly`'s nonzero int coefficients keeps it one
    return CellPolynomial._nonzero_ints(poly.size, {**poly.terms, m: -poly.terms[m]})


def nonvanishing_variants_report(point: Optional[ProbTable] = None) -> List[dict]:
    """Evidence for the two single-sign choices in the generator lists.

    Evaluates the rejected sign variants at an interior common-diagonal
    mixture point and returns, for each, the failing polynomial, the
    monomial whose sign distinguishes the forms, and the nonzero witness
    value.  Each variant is its emitted form with the coefficient of that
    monomial negated.  The emitted forms evaluate to exactly zero at the
    same point.
    """
    from .params import MixtureParams, mixture_point

    if point is None:
        third = Fraction(1, 3)
        point = mixture_point(MixtureParams(
            alpha=Fraction(3, 5),
            r=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            c=(Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)),
            d=(third, third, third),
        ))
    poly, v, _ = _family_poly(3)
    reports = []
    for name, emitted, suspect in (
        ("common-mixture-3 4-term #10", CellPolynomial.from_cell_terms(3, _LISTED3_FOUR_TERM[9]),
         [(2, 2), (3, 1), (3, 2)]),
        ("mixed8[1,2,3]", _mixed8_poly(poly, v, 1, 2, 3), [(1, 2), (3, 3), (3, 3)]),
    ):
        m = mono_from_cells(suspect, 3)
        variant = _sign_flipped(emitted, m)
        reports.append({
            "name": name,
            "suspect_monomial": emitted.render_monomial(m),
            "variant_value": variant.evaluate(point),
            "emitted_value": emitted.evaluate(point),
            "variant_polynomial": str(variant),
            "emitted_polynomial": str(emitted),
        })
    return reports
