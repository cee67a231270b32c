import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagonal_effect import (
    CellPolynomial,
    CountTable,
    InputError,
    ProbTable,
    SizeMismatchError,
    TermOrder,
    check_vanishing,
    normalize,
)
from diagonal_effect.polynomials import (
    binomial_from_vector,
    cell_var,
    mono_from_cells,
    require_polynomials,
)


class TestMonomials:
    def test_cell_variables_are_row_major(self):
        assert [cell_var(i, j, 3) for i in range(1, 4) for j in range(1, 4)] == list(range(9))

    def test_monomial_is_sorted_cell_product(self):
        # each id repeated as often as its exponent, ascending
        assert mono_from_cells([(1, 2), (1, 1), (1, 1)], 2) == (0, 0, 1)
        assert mono_from_cells([(2, 2), (1, 2), (2, 1), (1, 2)], 2) == (1, 1, 2, 3)
        assert mono_from_cells([], 2) == ()
        with pytest.raises(InputError, match="outside"):
            mono_from_cells([(1, 3)], 2)
        assert str(CellPolynomial(2, {(0, 0, 1): 1, (): -1})) == "p[1,1]^2*p[1,2] - 1"
        assert binomial_from_vector([2, -1, 0, -1], 2).terms == {(0, 0): 1, (1, 3): -1}

    @pytest.mark.parametrize("index", [1.0, 1.5, True, "1", None], ids=repr)
    def test_cell_indices_that_are_not_ints_rejected(self, index):
        # a float or a bool index would otherwise give a float or a
        # shifted variable id, or a TypeError on lookup
        with pytest.raises(InputError, match="must be an integer"):
            cell_var(index, 1, 3)
        with pytest.raises(InputError, match="must be an integer"):
            cell_var(1, index, 3)
        with pytest.raises(InputError, match="must be an integer"):
            mono_from_cells([(index, 1)], 3)


class TestRingLaws:
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


def naive_value(cell_terms, values) -> Fraction:
    """Term-by-term Fraction value of sum(coeff * prod(cells)) where the cell
    (i, j) is values[i, j]; the oracle for `evaluate`."""
    total = Fraction(0)
    for coeff, cells in cell_terms:
        term = Fraction(coeff)
        for cell in cells:
            term *= values[cell]
        total += term
    return total


coefficients = st.integers(-9, 9)


@st.composite
def cell_terms_and_point(draw):
    """Random (coeff, cells) terms of mixed degree 0..4 over a 2x2 or 3x3
    table, the cell values of a point, where some cells are 0, and the
    point: the ProbTable of those values."""
    size = draw(st.integers(2, 3))
    cell = st.tuples(st.integers(1, size), st.integers(1, size))
    terms = draw(st.lists(st.tuples(coefficients, st.lists(cell, max_size=4)), max_size=6))
    values = draw(prob_values(size))
    return size, terms, values, prob_table(size, values)


def prob_values(size: int):
    """{(i, j): probability} over every cell, from integer weights 0..30, so
    some cells are 0."""
    all_cells = [(i, j) for i in range(1, size + 1) for j in range(1, size + 1)]
    weights = st.lists(st.integers(0, 30), min_size=size * size, max_size=size * size).filter(any)
    return weights.map(lambda w: {c: Fraction(x, sum(w)) for c, x in zip(all_cells, w)})


def prob_table(size: int, values) -> ProbTable:
    return ProbTable.from_rows([[values[(i, j)] for j in range(1, size + 1)]
                                for i in range(1, size + 1)])


@st.composite
def batch_and_values(draw):
    """A batch of polynomials over a 2x2 or 3x3 table, and the cell values
    of a ProbTable.  Terms have mixed degree 0..4 within a polynomial and
    draw their cell products from one small pool, so the batch shares
    monomials across polynomials."""
    size = draw(st.integers(2, 3))
    cell = st.tuples(st.integers(1, size), st.integers(1, size))
    pool = draw(st.lists(st.lists(cell, max_size=4), min_size=1, max_size=6))
    term = st.tuples(coefficients, st.sampled_from(pool))
    batch = draw(st.lists(st.lists(term, max_size=6), min_size=1, max_size=5))
    return size, batch, draw(prob_values(size))


_CORNER3 = {(i, j): Fraction(int((i, j) == (1, 1))) for i in (1, 2, 3) for j in (1, 2, 3)}

QUARTERS = {(1, 1): Fraction(1, 2), (1, 2): Fraction(1, 4), (2, 1): Fraction(1, 8),
            (2, 2): Fraction(1, 8)}


class TestExactEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(cell_terms_and_point())
    @example((2, [], QUARTERS, prob_table(2, QUARTERS)))  # the zero polynomial
    @example((3, [(-7, [])], _CORNER3, prob_table(3, _CORNER3)))  # a constant only
    def test_agrees_with_term_by_term_fractions(self, case):
        size, terms, values, point = case
        value = CellPolynomial.from_cell_terms(size, terms).evaluate(point)
        assert type(value) is Fraction
        assert value == naive_value(terms, values)

    @settings(max_examples=200, deadline=None)
    @given(batch_and_values())
    # a higher-degree term after a lower-degree one, in a polynomial whose
    # degree-1 monomial the next polynomial shares
    @example((2, [[(2, [(1, 1)]), (-1, [(1, 2), (2, 1), (2, 2)]), (5, [])],
                  [(3, [(1, 1)]), (-7, [(2, 2), (2, 2)])]], QUARTERS))
    @example((2, [[(-7, [])]], QUARTERS))  # a constant only
    @example((2, [[], [(1, [(1, 2)]), (-1, [(1, 2)])]], QUARTERS))  # the zero polynomial
    def test_batch_agrees_with_term_by_term_fractions(self, case):
        size, batch, values = case
        polys = [CellPolynomial.from_cell_terms(size, terms) for terms in batch]
        report = check_vanishing(polys, prob_table(size, values))
        assert [name for name, _ in report.entries] == [f"poly #{k}" for k in range(1, len(batch) + 1)]
        assert all(type(value) is Fraction for _, value in report.entries)
        assert [value for _, value in report.entries] == [naive_value(t, values) for t in batch]

    @pytest.mark.parametrize("size", [1, 3])
    def test_a_point_of_another_size(self, size):
        point = normalize(CountTable.from_rows([[1] * size] * size))
        with pytest.raises(SizeMismatchError, match=f"^polynomial over 2x2 cells, table is {size}x{size}$"):
            binomial_from_vector([1, -1, -1, 1], 2).evaluate(point)

    def test_zero_values_share_one_fraction(self):
        # every zero value is one shared Fraction, equal to any other zero
        minor = binomial_from_vector([1, -1, -1, 1], 2)
        uniform = ProbTable.from_rows([[Fraction(1, 4)] * 2] * 2)
        values = [minor.evaluate(uniform), CellPolynomial(2, {}).evaluate(uniform)]
        assert values[0] is values[1]
        assert type(values[0]) is Fraction and values[0] == 0

    def test_binomial_coefficients_are_ints(self):
        for c in binomial_from_vector([1, -1, -1, 1], 2).terms.values():
            assert type(c) is int

    @pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(6, 3), 0.1, 2.0, "1/3", True], ids=repr)
    def test_coefficients_that_are_not_ints_rejected(self, coeff):
        with pytest.raises(InputError, match="coefficient"):
            CellPolynomial(2, {(0,): coeff})
        with pytest.raises(InputError, match="coefficient"):
            CellPolynomial.from_cell_terms(2, [(coeff, [(1, 2)])])

    @pytest.mark.parametrize("size", [None, "x", 1.5, True, 0], ids=repr)
    def test_size_that_is_not_a_positive_int_rejected(self, size):
        with pytest.raises(InputError, match="^polynomial size must be an integer of at least 1, got "):
            CellPolynomial(size, {(0,): 1})

    @pytest.mark.parametrize("key, message", [
        pytest.param("ab", "monomial must be a tuple, got 'ab'", id="str"),
        pytest.param((0.5,), "variable id must be an integer of at least 0, got 0.5", id="float-id"),
        pytest.param((True,), "variable id must be an integer of at least 0, got True", id="bool-id"),
        pytest.param((-1,), "variable id must be an integer of at least 0, got -1", id="negative-id"),
        pytest.param((1, 0), "monomial (1, 0) is not in ascending order", id="descending"),
    ])
    def test_key_that_is_not_a_monomial_rejected(self, key, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            CellPolynomial(2, {(0,): 1, key: 1})

    @pytest.mark.parametrize("terms, got", [
        pytest.param([((0,), 1)], "list", id="pairs"),
        pytest.param("ab", "str", id="str"),
        pytest.param(5, "int", id="int"),
    ])
    def test_terms_that_are_not_a_mapping_rejected(self, terms, got):
        with pytest.raises(InputError, match=f"^polynomial terms is not a mapping: got {got}$"):
            CellPolynomial(2, terms)

    @pytest.mark.parametrize("point", ["x", None, 5, [((1, 1), 1)], QUARTERS], ids=repr)
    def test_point_that_is_not_a_table_rejected(self, point):
        minor = binomial_from_vector([1, -1, -1, 1], 2)
        with pytest.raises(InputError, match="^point must be a ProbTable, got "):
            minor.evaluate(point)

    def test_one_monomial_cannot_hold_two_terms(self):
        # p[1,2]*p[1,1] - p[1,1]*p[1,2] written with an unsorted key would keep two terms
        with pytest.raises(InputError, match="not in ascending order"):
            CellPolynomial(2, {(1, 0): 1, (0, 1): -1})
        assert CellPolynomial.from_cell_terms(2, [(1, [(1, 2), (1, 1)]), (-1, [(1, 1), (1, 2)])]).is_zero()

    def test_errors_kept(self):
        minor = binomial_from_vector([1, -1, -1, 1], 2)
        with pytest.raises(SizeMismatchError):
            minor.evaluate(ProbTable.from_rows([[Fraction(1, 9)] * 3] * 3))
        with pytest.raises(InputError):
            minor.evaluate({(3, 1): 1})
        aux = CellPolynomial(2, {(4,): 1})
        with pytest.raises(InputError, match="auxiliary"):
            aux.evaluate(ProbTable.from_rows([[Fraction(1, 4)] * 2] * 2))

    @pytest.mark.parametrize("value", [0.02, True, "1/50"])
    def test_inexact_values_rejected(self, value):
        # a float is already rounded, so its exact value would make the
        # vanishing minor look nonzero: the ProbTable that is the point
        # takes exact values only
        rows = [[Fraction(2, 100), Fraction(8, 100)], [Fraction(18, 100), Fraction(72, 100)]]
        assert binomial_from_vector([1, -1, -1, 1], 2).evaluate(ProbTable.from_rows(rows)) == 0
        rows[0][0] = value
        with pytest.raises(InputError, match=r"^probability at \(1,1\) is not an int or a Fraction: "):
            ProbTable.from_rows(rows)


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
        aux_mono = (4,)
        big_plain = mono_from_cells([(1, 1), (1, 2), (2, 1), (2, 2)], 2)
        assert order.key(aux_mono) > order.key(big_plain)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: TermOrder(None), "the term order is not a sequence: got NoneType", id="None"),
        pytest.param(lambda: TermOrder.grevlex(None), "the term order is not a sequence: got NoneType",
                     id="grevlex-None"),
        pytest.param(lambda: TermOrder((0, "1")), "variable id must be an integer of at least 0, got '1'",
                     id="str-id"),
        pytest.param(lambda: TermOrder((0, -1)), "variable id must be an integer of at least 0, got -1",
                     id="negative-id"),
        pytest.param(lambda: TermOrder((0, 1), block="x"), "block must be an integer of at least 0, got 'x'",
                     id="block"),
        pytest.param(lambda: TermOrder.grevlex_last([0, 1], None),
                     "variable id must be an integer of at least 0, got None", id="grevlex_last-None"),
        pytest.param(lambda: TermOrder.grevlex_last([0, 1, 1], 0), "variable 1 appears twice in the term order",
                     id="grevlex_last-twice"),
        pytest.param(lambda: TermOrder.elimination(5, [0]), "the elimination block is not a sequence: got int",
                     id="elimination-block"),
        pytest.param(lambda: TermOrder.elimination([4], [0, 4]), "variable 4 appears twice in the term order",
                     id="elimination-twice"),
    ])
    def test_variables_follow_the_monomial_id_rule(self, call, message):
        # a term order's variables are distinct ids, ints >= 0, as in a monomial
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call()


class TestPolynomialLists:
    def test_size_of_the_list(self):
        minor = binomial_from_vector([1, -1, -1, 1], 2)
        assert require_polynomials([minor, CellPolynomial(2, {})], "generators") == 2
        assert require_polynomials((), "generators") is None

    @pytest.mark.parametrize("polys, message", [
        pytest.param(None, "generators is not a sequence: got NoneType", id="None"),
        pytest.param({}, "generators is not a sequence: got dict", id="dict"),
        pytest.param([1], "each of the generators must be a CellPolynomial, got 1", id="int-item"),
        pytest.param("x", "generators is not a sequence: got str", id="str"),
    ])
    def test_what_is_not_a_list_of_polynomials_rejected(self, polys, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            require_polynomials(polys, "generators")

    def test_second_size_rejected(self):
        polys = [CellPolynomial(2, {}), CellPolynomial(3, {})]
        with pytest.raises(SizeMismatchError, match="^polynomial over 3x3 cells, expected 2x2$"):
            require_polynomials(polys, "generators")


class TestRendering:
    def test_paper_style_strings(self):
        p = CellPolynomial.from_cell_terms(
            3, [(1, [(1, 2), (2, 3), (3, 1)]), (-1, [(1, 3), (2, 1), (3, 2)])]
        )
        assert str(p) == "p[1,2]*p[2,3]*p[3,1] - p[1,3]*p[2,1]*p[3,2]"

    def test_powers_and_coefficients(self):
        p = CellPolynomial.from_cell_terms(2, [(2, [(1, 1), (1, 1)]), (-3, [])])
        assert str(p) == "2*p[1,1]^2 - 3"

    def test_zero(self):
        assert str(CellPolynomial(2, {})) == "0"

    def test_auxiliary_variables_are_named_t(self):
        # ids from size * size on are the elimination's auxiliary variables
        assert str(CellPolynomial(2, {(0, 1, 2, 3, 4): 1, (): -1})) == "p[1,1]*p[1,2]*p[2,1]*p[2,2]*t0 - 1"
        assert str(CellPolynomial(2, {(0, 4, 4): 1, (5,): -2})) == "p[1,1]*t0^2 - 2*t1"


class TestBinomials:
    def test_from_vector(self):
        p = binomial_from_vector([1, -1, -1, 1], 2)
        assert p.is_pure_binomial()
        assert p.num_terms() == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(InputError):
            binomial_from_vector([0, 0, 0, 0], 2)

    def test_vector_of_another_size_rejected(self):
        with pytest.raises(SizeMismatchError, match="^expected 4 entries, got 9$"):
            binomial_from_vector([1, -1, 0, -1, 1, 0, 0, 0, 0], 2)

    @pytest.mark.parametrize("terms", [{}, {(0,): 1}, {(0,): 1, (1,): -1, (2, 3): 1}], ids=len)
    def test_pure_binomials_have_two_terms(self, terms):
        assert not CellPolynomial(2, terms).is_pure_binomial()

    def test_purity_detects_common_factor(self):
        pure = CellPolynomial.from_cell_terms(
            2, [(1, [(1, 1), (2, 2)]), (-1, [(1, 2), (2, 1)])]
        )
        impure = CellPolynomial.from_cell_terms(
            2, [(1, [(1, 1), (2, 2)]), (-1, [(1, 1), (2, 1)])]
        )
        assert pure.is_pure_binomial()
        assert not impure.is_pure_binomial()
