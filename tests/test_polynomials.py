import operator
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pipedream import BetaPolynomial, MultivariatePolynomial
from pipedream.polynomials import kronecker_bits

polys = st.builds(BetaPolynomial.from_coeffs,
                  st.lists(st.integers(-50, 50), max_size=6))


class TestBetaPolynomial:
    def test_normalization(self):
        assert BetaPolynomial.from_coeffs([1, 2, 0, 0]).coeffs == (1, 2)
        assert BetaPolynomial.from_coeffs([0, 0]).coeffs == ()

    def test_text_descending_powers(self):
        assert str(BetaPolynomial.from_coeffs([3, 3, 1])) == "b^2+3b+3"
        assert str(BetaPolynomial.from_coeffs([0, 1, 1])) == "b^2+b"
        assert str(BetaPolynomial.zero()) == "0"
        assert str(BetaPolynomial.from_coeffs([1, -2])) == "-2b+1"

    def test_eval(self):
        p = BetaPolynomial.from_coeffs([3, 3, 1])
        assert p(0) == 3
        assert p(1) == 7
        assert p(2) == 13

    def test_huge_values_stay_exact(self):
        p = BetaPolynomial.from_coeffs([2]) ** 300
        assert p.coeffs == (2 ** 300,)
        assert p(1) == 2 ** 300

    def test_power(self):
        b = BetaPolynomial.beta()
        assert b ** 0 == BetaPolynomial.one()
        assert (b + 1) ** 3 == BetaPolynomial.from_coeffs([1, 3, 3, 1])
        with pytest.raises(ValueError, match="negative exponent"):
            b ** -1

    def test_foreign_operand_is_not_coerced(self):
        with pytest.raises(TypeError, match="for -:"):
            "x" - BetaPolynomial.one()
        with pytest.raises(TypeError, match="for \\+:"):
            BetaPolynomial.one() + "x"
        with pytest.raises(TypeError, match="for -:"):
            BetaPolynomial.one() - "x"

    def test_monomial_with_zero_coefficient_is_zero(self):
        assert BetaPolynomial.monomial(3, 0) == BetaPolynomial.zero()
        assert BetaPolynomial.monomial(3, 0).coeffs == ()

    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == BetaPolynomial.zero()

    @given(polys, polys, st.integers(-5, 5))
    def test_evaluation_is_a_homomorphism(self, a, b, x):
        assert (a + b)(x) == a(x) + b(x)
        assert (a * b)(x) == a(x) * b(x)

    def test_subtraction_is_adding_the_negative(self):
        small = [BetaPolynomial.from_coeffs(c)
                 for k in range(4) for c in product(range(-2, 3), repeat=k)]
        for p in small:
            for q in small:
                diff = p - q
                assert diff == p + (-q)
                assert diff.coeffs[-1:] != (0,)
                assert (diff.coeffs == ()) == (p == q)
        assert 3 - BetaPolynomial.beta() == BetaPolynomial.from_coeffs([3, -1])


class TestKronecker:
    def test_slot_width(self):
        assert [kronecker_bits(n) for n in (0, 1, 7, 8, 9)] == [2, 3, 30, 38, 47]

    def test_round_trip(self):
        # zero, zeros at either end, and the widest coefficients the
        # signed digits hold, +-(2^(S-1) - 1), in every sign pattern
        for n in range(10):
            bits = kronecker_bits(n)
            edge = (1 << (bits - 1)) - 1
            cases = [(), (0, 0, 1), (0, 0, -edge), (1, -2, 0, 0), (edge, 0, 0)]
            cases += product((edge, -edge), repeat=5)
            cases += product((edge, 0, -edge), repeat=4)
            for coeffs in cases:
                p = BetaPolynomial.from_coeffs(coeffs)
                assert BetaPolynomial.from_kronecker(p(1 << bits), bits) == p, coeffs
                assert p.to_kronecker(bits) == p(1 << bits), coeffs
                assert BetaPolynomial.from_kronecker(p.to_kronecker(bits), bits) == p, coeffs


class TestMultivariate:
    def test_text_graded_order(self):
        x1 = MultivariatePolynomial.variable(2, 1)
        x2 = MultivariatePolynomial.variable(2, 2)
        p = x1 + x2 + BetaPolynomial.beta() * (x1 * x2)
        assert str(p) == "x1+x2+b*x1*x2"

    def test_constant(self):
        assert str(MultivariatePolynomial.constant(0, 1)) == "1"
        assert str(MultivariatePolynomial.constant(3, 0)) == "0"

    def test_all_ones(self):
        x1 = MultivariatePolynomial.variable(2, 1)
        x2 = MultivariatePolynomial.variable(2, 2)
        p = x1 * x1 + x2 + MultivariatePolynomial.constant(2, 4)
        assert p.all_ones() == BetaPolynomial.const(6)

    def test_at_beta(self):
        x1 = MultivariatePolynomial.variable(1, 1)
        p = BetaPolynomial.beta() * x1 + x1
        assert p.at_beta(0) == x1
        assert p.at_beta(1) == 2 * x1

    def test_zero_terms_dropped(self):
        x1 = MultivariatePolynomial.variable(1, 1)
        assert not (x1 - x1).terms
        assert not x1 - x1

    def test_subtraction_text(self):
        x1 = MultivariatePolynomial.variable(2, 1)
        x2 = MultivariatePolynomial.variable(2, 2)
        b = BetaPolynomial.beta()
        assert str(x1 - x2) == "x1-x2"
        assert str(x2 - x1 * 2) == "-2*x1+x2"
        assert str(x1 * x1 - x2 * (b + 1)) == "(-b-1)*x2+x1^2"

    def test_parenthesized_coefficients(self):
        x1 = MultivariatePolynomial.variable(1, 1)
        p = BetaPolynomial.from_coeffs([1, 1]) * x1
        assert str(p) == "(b+1)*x1"

    def test_foreign_operands(self):
        # a foreign operand gives NotImplemented, so Python raises the
        # TypeError; another variable count is a ValueError
        x1 = MultivariatePolynomial.variable(2, 1)
        for other in (3, "a", None):
            for op in (operator.add, operator.sub):
                with pytest.raises(TypeError):
                    op(x1, other)
        for other in ("a", None, 1.5):
            with pytest.raises(TypeError):
                x1 * other
        assert x1.__add__(3) is NotImplemented
        assert x1.__sub__("a") is NotImplemented
        assert x1.__mul__("a") is NotImplemented
        assert x1.__rmul__("a") is NotImplemented
        assert str(3 * x1 - x1 * 3) == "0"
        assert str(BetaPolynomial.beta() * x1) == "b*x1"
        y1 = MultivariatePolynomial.variable(3, 1)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError):
                op(x1, y1)
        for op in ("__add__", "__sub__", "__mul__", "__rmul__"):
            assert op in MultivariatePolynomial.__dict__

    def test_constructor_rejects_bad_terms(self):
        with pytest.raises(ValueError, match="arity"):
            MultivariatePolynomial(2, {(1,): 1})
        with pytest.raises(TypeError, match="got float"):
            MultivariatePolynomial(2, {(1, 0): 1.5})
