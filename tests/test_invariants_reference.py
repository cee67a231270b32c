"""The invariant families, their exact evaluation and their text against
plain references.

The reference builders write each family from its definition as
(coefficient, cells) terms and sort every term's ids into a monomial; the
package's builders sort each product where they make it and share one
tuple per monomial, and must give the same names, the same term dicts in
the same insertion order and the same text.  `check_vanishing` evaluates
a batch at one point, sharing the monomial values, and must give what
`CellPolynomial.evaluate` gives one polynomial at a time.
`reference_str` renders a polynomial as `CellPolynomial.__str__` did
with a checked grevlex order and each cell's indices from its variable id.
"""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagonal_effect import (
    CellPolynomial,
    CountTable,
    InputError,
    Invariant,
    ProbTable,
    SizeMismatchError,
    check_vanishing,
    gens_common_mixture_families,
    gens_diag_effect,
    gens_independence,
    normalize,
)
from diagonal_effect.polynomials import TermOrder

# ---------------------------------------------------------------------------
# reference families
# ---------------------------------------------------------------------------


def _minor(i, k, j, h):
    return f"minor[{i},{k}|{j},{h}]", [(1, [(i, j), (k, h)]), (-1, [(i, h), (k, j)])]


def _cycle(a, b, c):
    return f"cycle[{a},{b},{c}]", [(1, [(a, b), (b, c), (c, a)]), (-1, [(a, c), (c, b), (b, a)])]


def _offdiag(I):
    """Minors over four distinct indices, rows first, then the cycles."""
    idx = range(1, I + 1)
    out = [_minor(i, k, j, h) for i, k in combinations(idx, 2)
           for j, h in combinations([x for x in idx if x not in (i, k)], 2)]
    return out + [_cycle(a, b, c) for a, b, c in combinations(idx, 3)]


def reference_independence(I):
    pairs = list(combinations(range(1, I + 1), 2))
    return [_minor(i, k, j, h) for i, k in pairs for j, h in pairs]


def reference_diag_effect(I):
    return _offdiag(I)


def reference_mixture_families(I):
    idx = range(1, I + 1)
    out = _offdiag(I)
    for (i, j), (k, l) in permutations(list(permutations(idx, 2)), 2):
        for m in idx:
            for n in idx:
                if m in (i, j) or n in (k, l) or n == m:
                    continue
                out.append((f"diagbal[{i},{j};{k},{l};{m},{n}]", [
                    (1, [(i, j), (k, l), (n, n)]), (-1, [(i, j), (n, l), (k, n)]),
                    (-1, [(i, j), (k, l), (m, m)]), (1, [(k, l), (m, j), (i, m)])]))
    for i, j, k in permutations(idx, 3):
        out.append((f"mixed8[{i},{j},{k}]", [
            (1, [(i, j), (i, i), (k, k)]), (1, [(i, j), (j, j), (k, k)]),
            (-1, [(i, j), (i, i), (j, j)]), (-1, [(i, j), (k, k), (k, k)]),
            (1, [(k, k), (i, k), (k, j)]), (-1, [(i, i), (i, k), (k, j)]),
            (1, [(i, j), (i, j), (j, i)]), (-1, [(i, j), (k, j), (j, k)])]))
    for i, j, k in combinations(idx, 3):
        out.append((f"diag12[{i},{j},{k}]", [
            (1, [(i, i), (j, j), (j, j)]), (1, [(i, i), (i, i), (k, k)]),
            (1, [(j, j), (k, k), (k, k)]), (-1, [(i, i), (i, i), (j, j)]),
            (-1, [(j, j), (j, j), (k, k)]), (-1, [(i, i), (k, k), (k, k)]),
            (1, [(i, i), (i, j), (j, i)]), (-1, [(i, i), (i, k), (k, i)]),
            (1, [(j, j), (j, k), (k, j)]), (-1, [(j, j), (j, i), (i, j)]),
            (1, [(k, k), (k, i), (i, k)]), (-1, [(k, k), (k, j), (j, k)])]))
    return out


def reference_terms(I, cell_terms):
    """The term dict of the (coefficient, cells) terms: every term's ids
    sorted, coefficients of one monomial added, zero sums dropped."""
    out = {}
    for c, cells in cell_terms:
        m = tuple(sorted((i - 1) * I + (j - 1) for i, j in cells))
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def reference_str(poly):
    """`CellPolynomial.__str__` as it was: a checked grevlex order over the
    polynomial's variables, and each cell's name from its variable id."""
    if not poly.terms:
        return "0"
    order = TermOrder.grevlex(sorted(poly.variables()) or [0])
    size = poly.size

    def monomial(m):
        if not m:
            return "1"
        parts = []
        for v in sorted(set(m)):
            if v < size * size:
                i, j = divmod(v, size)
                name = f"p[{i + 1},{j + 1}]"
            else:
                name = f"t{v - size * size}"
            e = m.count(v)
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    chunks = []
    for m in sorted(poly.terms, key=order.key, reverse=True):
        c = poly.terms[m]
        mag = abs(c)
        body = monomial(m) if mag == 1 and m else (str(mag) if not m else f"{mag}*{monomial(m)}")
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(chunks)


FAMILIES = [
    (gens_common_mixture_families, reference_mixture_families),
    (gens_diag_effect, reference_diag_effect),
    (gens_independence, reference_independence),
]


@pytest.mark.parametrize("I", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("build, reference", FAMILIES, ids=lambda f: getattr(f, "__name__", ""))
def test_families_match_the_reference_builders(build, reference, I):
    got = build(I)
    want = reference(I)
    assert [inv.name for inv in got] == [name for name, _ in want]
    for inv, (name, cell_terms) in zip(got, want):
        terms = reference_terms(I, cell_terms)
        # the same insertion order too, which the text of a dict shows
        assert list(inv.poly.terms.items()) == list(terms.items()), name
        assert inv.poly.size == I
        assert str(inv.poly) == reference_str(inv.poly), name


@pytest.mark.parametrize("I", [3, 4, 5])
def test_a_build_keeps_one_tuple_per_monomial(I):
    monomials = [m for inv in gens_common_mixture_families(I) for m in inv.poly.terms]
    assert len({id(m) for m in monomials}) == len(set(monomials))


# ---------------------------------------------------------------------------
# check_vanishing against one-at-a-time evaluation
# ---------------------------------------------------------------------------

coefficients = st.integers(-5, 5)


@st.composite
def polynomials(draw, size, aux=0):
    """A polynomial over the size x size cells, and `aux` auxiliary
    variables when asked: constants, mixed degrees and int coefficients,
    up to five terms of degree at most 4."""
    ids = st.integers(0, size * size - 1 + aux)
    monomial = st.lists(ids, max_size=4).map(lambda m: tuple(sorted(m)))
    homogeneous = draw(st.booleans())
    if homogeneous:
        d = draw(st.integers(0, 3))
        monomial = st.lists(ids, min_size=d, max_size=d).map(lambda m: tuple(sorted(m)))
    terms = draw(st.dictionaries(monomial, coefficients.filter(bool), max_size=5))
    return CellPolynomial(size, terms)


@st.composite
def points(draw, size):
    """A ProbTable with some zero cells: a normalized grid of counts."""
    weights = draw(st.lists(st.integers(0, 6), min_size=size * size, max_size=size * size))
    if not any(weights):
        weights[0] = 1
    return normalize(CountTable.from_rows([weights[k:k + size] for k in range(0, size * size, size)]))


@st.composite
def batches(draw):
    size = draw(st.sampled_from([2, 3]))
    polys = draw(st.lists(polynomials(size), max_size=8))
    # repeats share monomials, as the invariant families do
    polys += draw(st.lists(st.sampled_from(polys), max_size=3)) if polys else []
    return polys, draw(points(size))


@settings(max_examples=200, deadline=None)
@given(batches())
def test_check_vanishing_matches_evaluate(case):
    polys, point = case
    entries = check_vanishing(polys, point).entries
    assert [name for name, _ in entries] == [f"poly #{k}" for k in range(1, len(polys) + 1)]
    for (_, value), poly in zip(entries, polys):
        want = poly.evaluate(point)
        assert value == want and value.__class__ is Fraction
    named = [Invariant(f"inv {k}", p) for k, p in enumerate(polys)]
    assert check_vanishing(named, point).entries == tuple((inv.name, v) for inv, (_, v) in zip(named, entries))


def test_zero_values_share_one_fraction():
    gens = gens_common_mixture_families(3)
    point = ProbTable(3, [[Fraction(1, 9)] * 3] * 3)
    values = [v for _, v in check_vanishing(gens + [CellPolynomial(3)], point).entries]
    assert all(v == 0 for v in values)
    assert len({id(v) for v in values}) == 1


@pytest.mark.parametrize("aux", [
    {(9,): 1},                         # homogeneous, the only term
    {(0, 9): 1, (4, 8): -1},           # homogeneous, the second term
    {(9,): 1, (): 2},                  # mixed degrees
], ids=["degree-1", "degree-2", "mixed"])
def test_auxiliary_variable_raises_input_error(aux):
    table = ProbTable(3, [[Fraction(1, 9)] * 3] * 3)
    for batch in ([CellPolynomial(3, aux)], [*gens_diag_effect(3), CellPolynomial(3, aux)]):
        with pytest.raises(InputError, match="^cannot evaluate an auxiliary variable at a table$"):
            check_vanishing(batch, table)


def test_mixed_sizes_raise_size_mismatch():
    table = normalize(CountTable.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]]))
    gens = [inv.poly for inv in gens_diag_effect(3)]
    # a polynomial of another size than the table raises wherever it stands in the batch
    for stray in (CellPolynomial(4, {(0, 1, 2): 1}), CellPolynomial(2, {(): 1, (0,): 1})):
        n = stray.size
        for batch in ([stray, *gens], [*gens, stray], [*gens, stray, *gens]):
            with pytest.raises(SizeMismatchError, match=f"^polynomial over {n}x{n} cells, table is 3x3$"):
                check_vanishing(batch, table)


def test_items_are_checked_before_any_is_evaluated():
    # the size-4 polynomial would raise SizeMismatchError and the aux one
    # InputError at evaluation; the junk item after them is found first
    table = ProbTable(3, [[Fraction(1, 9)] * 3] * 3)
    junk = ("junk", None)
    for batch in ([CellPolynomial(4, {(0,): 1}), junk],
                  [*gens_diag_effect(3), CellPolynomial(4, {(0,): 1}), 5],
                  [CellPolynomial(3, {(9,): 1}), junk]):
        k = len(batch)
        with pytest.raises(InputError, match=f"^item {k} is neither an Invariant nor a CellPolynomial: "):
            check_vanishing(batch, table)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 3]).flatmap(lambda size: polynomials(size, aux=3)))
def test_str_matches_the_reference_renderer(poly):
    assert str(poly) == reference_str(poly)


@pytest.mark.parametrize("poly, text", [
    (CellPolynomial(2, {(4,): 1, (): 3}), "t0 + 3"),
    (CellPolynomial(2, {(0, 5, 5): -5, (1, 2): 2}), "-5*p[1,1]*t1^2 + 2*p[1,2]*p[2,1]"),
    (CellPolynomial(3, {(): -1}), "-1"),
    (CellPolynomial(3), "0"),
])
def test_str_of_aux_variables_and_constants(poly, text):
    assert str(poly) == text == reference_str(poly)
