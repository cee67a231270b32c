"""Differential check of the binomial Buchberger against sympy's groebner.

Reduced Groebner bases are unique for a given term order, so the two must
agree generator for generator.  sympy is a test-only dependency; the file
is skipped without it.
"""

import pytest

from diagonal_effect import (
    ModelFamily,
    TermOrder,
    design_matrix,
    gens_independence,
    lattice_binomials,
    moves_to_binomials,
    toric_ideal,
)
from diagonal_effect.groebner import buchberger
from diagonal_effect.markov import moves_common_diag, moves_diag_effect

from conftest import model

sympy = pytest.importorskip("sympy")

CELLS = list(range(9))
SYMBOLS = sympy.symbols("x0:9")
FAMILIES = {
    "independence": ModelFamily.INDEPENDENCE,
    "diag": ModelFamily.DIAGONAL_EFFECT,
    "common": ModelFamily.COMMON_DIAGONAL_EFFECT,
}


def _generators(source: str, family: str):
    m = model(FAMILIES[family], 3)
    if source == "lattice":
        return lattice_binomials(design_matrix(m))
    if source == "toric":
        return toric_ideal(m)
    if family == "independence":
        return [inv.poly for inv in gens_independence(3)]
    return moves_to_binomials((moves_diag_effect if family == "diag" else moves_common_diag)(3))


def _expr(poly):
    return sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(SYMBOLS[v] for v in m))
        for m, c in poly.terms.items()
    )


CASES = [
    (source, family)
    for source in ("lattice", "moves", "toric")
    for family in FAMILIES
]


@pytest.mark.parametrize("source, family", CASES)
@pytest.mark.parametrize("last", [None, 4])
def test_buchberger_matches_sympy_grevlex(source, family, last):
    gens = _generators(source, family)
    order = TermOrder.grevlex(CELLS) if last is None else TermOrder.grevlex_last(CELLS, last)
    ours = buchberger(gens, order)
    # sympy's grevlex ranks its symbols first-most-significant, as TermOrder
    # ranks `variables`
    theirs = sympy.groebner(
        [_expr(g) for g in gens], *(SYMBOLS[v] for v in order.variables), order="grevlex"
    )
    assert sorted(map(str, theirs.exprs)) == sorted(str(sympy.expand(_expr(g))) for g in ours)
