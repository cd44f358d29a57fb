"""Canonical rational functions: reduction, arithmetic, substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ajlab.errors import DomainError, PoleError
from ajlab.poly import LaurentMPoly, parse_poly
from ajlab.ratfun import (
    RationalFunction,
    format_ratfun,
    ratfun_from_json,
    ratfun_to_json,
)

P = parse_poly


def rf(num, den="1"):
    return RationalFunction(P(num), P(den))


@st.composite
def small_polys(draw, vars=("q", "Q"), allow_zero=True):
    # gcd reduction is exact-arithmetic PRS; keep the operands small enough
    # that triple products stay tractable
    n = draw(st.integers(0 if allow_zero else 1, 3))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(-1, 2)) for _ in vars)
        c = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
        if c:
            terms[e] = terms.get(e, 0) + c
    return LaurentMPoly(vars, terms)


@st.composite
def ratfuns(draw):
    num = draw(small_polys())
    den = draw(small_polys(allow_zero=False))
    if den.is_zero():
        den = LaurentMPoly.const(1)
    return RationalFunction(num, den)


class TestCanonicalForm:
    def test_reduction(self):
        assert rf("Q^2 - 1", "Q - 1") == rf("Q + 1")
        assert rf("2*Q", "4") == rf("Q", "2")
        assert rf("0", "Q^5 - 3") == RationalFunction.zero()

    def test_monomial_content_moves_up(self):
        # denominators never keep invertible monomial factors
        a = rf("1", "q*Q")
        assert a.den == P("1")
        assert a.num == P("q^-1*Q^-1")
        b = rf("Q + 1", "q^2*Q - q^2")
        assert b.den == P("Q - 1")
        assert b.num == P("q^-2*Q + q^-2")

    def test_sign_convention(self):
        a = rf("1", "-Q + 1")
        assert a.den.leading()[1] > 0
        assert a == rf("-1", "Q - 1")

    def test_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            RationalFunction(P("1"), P("0"))

    def test_hash_agrees_with_equality(self):
        for x in (0, 1, 3, Fraction(-5, 7)):
            same = [x, Fraction(x), LaurentMPoly.const(x),
                    RationalFunction.const(x)]
            assert all(y == same[0] for y in same)
            assert len(set(same)) == 1
        poly = P("Q^2 - q")
        assert rf("Q^2 - q") == poly
        assert len({rf("Q^2 - q"), poly, rf("Q^2*q - q^2", "q")}) == 1

    @given(num=small_polys(), den=small_polys(allow_zero=False),
           mul=small_polys(allow_zero=False))
    @settings(max_examples=60, deadline=None)
    def test_common_factors_never_survive(self, num, den, mul):
        if den.is_zero() or mul.is_zero():
            return
        a = RationalFunction(num, den)
        b = RationalFunction(num * mul, den * mul)
        assert a == b
        assert a.num == b.num and a.den == b.den


class TestArithmetic:
    @given(a=ratfuns(), b=ratfuns(), c=ratfuns())
    @settings(max_examples=30, deadline=None)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + RationalFunction.zero() == a
        assert a * RationalFunction.one() == a
        assert a - a == RationalFunction.zero()
        if not a.is_zero():
            assert a * a.inverse() == RationalFunction.one()

    def test_division_and_powers(self):
        a = rf("q*Q - 1", "Q + 2")
        assert a / a == RationalFunction.one()
        assert a ** -2 == (a.inverse()) ** 2
        assert a ** 0 == RationalFunction.one()
        with pytest.raises(DomainError):
            a / RationalFunction.zero()
        with pytest.raises(DomainError):
            RationalFunction.zero().inverse()

    def test_mixed_operands(self):
        a = rf("Q", "Q + 1")
        assert a + 1 == rf("2*Q + 1", "Q + 1")
        assert 2 * a == rf("2*Q", "Q + 1")
        assert a - Fraction(1, 2) == rf("Q - 1", "2*Q + 2")


class TestSubstitution:
    def test_polynomial_binding(self):
        a = rf("1 - q*Q*Qt1", "Qt1 - Q")
        out = a.subst({"Qt1": rf("q*Qt1")})
        assert out == rf("1 - q^2*Q*Qt1", "q*Qt1 - Q")

    def test_partial_leaves_rest(self):
        a = rf("q*Q + Qt1")
        assert a.subst({"Q": rf("2")}) == rf("2*q + Qt1")

    def test_vanishing_denominator_reported(self):
        a = rf("1", "Q - 1")
        with pytest.raises(DomainError, match="denominator vanishes"):
            a.subst({"Q": rf("1")})

    def test_value_substitution_full(self):
        a = rf("(1 - Q)*(1 - q*Q*Qt1)", "(Qt1 - Q)*(1 - q*Q)")
        env = {"q": Fraction(2), "Q": Fraction(4), "Qt1": Fraction(8)}
        want = Fraction((1 - 4) * (1 - 2 * 4 * 8), (8 - 4) * (1 - 2 * 4))
        assert a.eval_exact(env) == want

    def test_pole_named(self):
        a = rf("1", "Q - 1")
        with pytest.raises(PoleError):
            a.eval_exact({"Q": Fraction(1)})


class TestTextAndJson:
    def test_format(self):
        assert format_ratfun(rf("Q + 1", "Q - 1")) == "(Q + 1) / (Q - 1)"
        assert format_ratfun(rf("Q")) == "Q"
        assert format_ratfun(rf("1", "Q")) == "Q^-1"

    @given(a=ratfuns())
    @settings(max_examples=80, deadline=None)
    def test_json_round_trip(self, a):
        assert ratfun_from_json(ratfun_to_json(a)) == a
