import random
from fractions import Fraction

import pytest

from diagonal_effect import CellPolynomial, InputError, ProbTable, TermOrder
from diagonal_effect.polynomials import (
    binomial_from_vector,
    cell_var,
    mono_coprime,
    mono_div,
    mono_from_cells,
    mono_mul,
    var_cell,
)


def rand_poly(rng: random.Random, size: int = 2, max_terms: int = 4) -> CellPolynomial:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        cells = [
            (rng.randint(1, size), rng.randint(1, size)) for _ in range(rng.randint(0, 3))
        ]
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        terms.append((coeff, cells))
    return CellPolynomial.from_cell_terms(size, terms)


def rand_point(rng: random.Random, size: int = 2) -> ProbTable:
    vals = [Fraction(rng.randint(1, 20)) for _ in range(size * size)]
    s = sum(vals)
    vals = [v / s for v in vals]
    return ProbTable.from_rows([vals[i * size:(i + 1) * size] for i in range(size)])


class TestMonomials:
    def test_cell_variable_round_trip(self):
        for i in range(1, 4):
            for j in range(1, 4):
                assert var_cell(cell_var(i, j, 3), 3) == (i, j)

    def test_mul_div_coprime(self):
        a = mono_from_cells([(1, 1), (1, 2)], 2)
        b = mono_from_cells([(1, 2), (2, 2)], 2)
        ab = mono_mul(a, b)
        assert mono_div(ab, b) == a
        assert not mono_coprime(a, b)
        assert mono_coprime(mono_from_cells([(1, 1)], 2), mono_from_cells([(2, 2)], 2))


class TestRingLaws:
    def test_ring_axioms_on_random_polynomials(self):
        rng = random.Random("ring-laws")
        for _ in range(60):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_eval_is_ring_homomorphism(self):
        rng = random.Random("eval-hom")
        for _ in range(40):
            a, b = rand_poly(rng), rand_poly(rng)
            point = rand_point(rng)
            assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
            assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)

    def test_eval_examples(self):
        minor = CellPolynomial.from_cell_terms(
            2, [(1, [(1, 1), (2, 2)]), (-1, [(1, 2), (2, 1)])]
        )
        uniform = ProbTable.from_rows([[Fraction(1, 4)] * 2] * 2)
        assert minor.evaluate(uniform) == 0
        skew = ProbTable.from_rows(
            [[Fraction(1, 3), Fraction(1, 6)], [Fraction(1, 6), Fraction(1, 3)]]
        )
        assert minor.evaluate(skew) == Fraction(1, 12)


class TestTermOrders:
    def test_grevlex_grades_first(self):
        order = TermOrder.grevlex(range(4))
        low = mono_from_cells([(1, 1)], 2)
        high = mono_from_cells([(1, 1), (2, 2)], 2)
        assert order.key(high) > order.key(low)

    def test_grevlex_last_variable_is_cheapest(self):
        order = TermOrder.grevlex_last(range(4), 0)
        # same degree; the monomial avoiding variable 0 wins
        with_v0 = mono_from_cells([(1, 1), (2, 2)], 2)
        without_v0 = mono_from_cells([(1, 2), (2, 1)], 2)
        assert order.key(without_v0) > order.key(with_v0)

    def test_elimination_block_dominates(self):
        order = TermOrder.elimination([4], range(4))
        aux_mono = ((4, 1),)
        big_plain = mono_from_cells([(1, 1), (1, 2), (2, 1), (2, 2)], 2)
        assert order.key(aux_mono) > order.key(big_plain)


class TestRendering:
    def test_paper_style_strings(self):
        p = CellPolynomial.from_cell_terms(
            3, [(1, [(1, 2), (2, 3), (3, 1)]), (-1, [(1, 3), (2, 1), (3, 2)])]
        )
        assert str(p) == "p[1,2]*p[2,3]*p[3,1] - p[1,3]*p[2,1]*p[3,2]"

    def test_powers_and_coefficients(self):
        p = CellPolynomial.from_cell_terms(2, [(2, [(1, 1), (1, 1)]), (Fraction(-1, 3), [])])
        assert str(p) == "2*p[1,1]^2 - 1/3"

    def test_zero(self):
        assert str(CellPolynomial.zero(2)) == "0"


class TestBinomials:
    def test_from_vector(self):
        p = binomial_from_vector([1, -1, -1, 1], 2)
        assert p.is_pure_binomial()
        assert p.num_terms() == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(InputError):
            binomial_from_vector([0, 0, 0, 0], 2)

    def test_purity_detects_common_factor(self):
        pure = CellPolynomial.from_cell_terms(
            2, [(1, [(1, 1), (2, 2)]), (-1, [(1, 2), (2, 1)])]
        )
        impure = CellPolynomial.from_cell_terms(
            2, [(1, [(1, 1), (2, 2)]), (-1, [(1, 1), (2, 1)])]
        )
        assert pure.is_pure_binomial()
        assert not impure.is_pure_binomial()
