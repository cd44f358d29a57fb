"""Canonical rational functions: reduction, arithmetic, substitution."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ajlab.errors import DomainError, PoleError
from ajlab.poly import LaurentMPoly, parse_poly
from ajlab.ratfun import (
    RationalFunction,
    as_ratfun,
    format_ratfun,
    parse_ratfun,
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
                    as_ratfun(x)]
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


    def test_constant_constructors_skip_the_gcd(self, monkeypatch):
        one = LaurentMPoly.const(1)
        want = [RationalFunction(LaurentMPoly.zero(), one),
                RationalFunction(one, one),
                RationalFunction(LaurentMPoly.var("Q"), one),
                RationalFunction(LaurentMPoly.var("q", -3), one)]

        def refuse(*args):
            raise AssertionError("gcd_cofactors called")

        monkeypatch.setattr("ajlab.ratfun.gcd_cofactors", refuse)
        got = [RationalFunction.zero(), RationalFunction.one(),
               RationalFunction.var("Q"), RationalFunction.var("q", -3)]
        for g, w in zip(got, want):
            assert g == w and (g.num, g.den) == (w.num, w.den)
        assert got[0].is_zero() and got[1].is_one()
        with pytest.raises(AssertionError):
            RationalFunction(P("Q - 1"), P("Q + 1"))


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


def to_sympy(p, gens):
    """p as a sympy expression in the symbols gens, Laurent powers
    included."""
    import sympy

    out = 0
    for e, c in p.terms.items():
        t = sympy.Rational(c.numerator, c.denominator)
        for v, k in zip(p.vars, e):
            t *= gens[v] ** k
        out += t
    return out


class TestSympyReferee:
    """The canonical form against sympy's `cancel`, an independent
    reduction: the same pair up to a rational and monomial unit, with the
    denominator honest, integer-primitive, free of monomial content and
    positive in its leading coefficient."""

    @staticmethod
    def check(f, expr):
        sympy = pytest.importorskip("sympy")
        gens = {v: sympy.Symbol(v) for v in ("q", "Q")}
        num, den = sympy.fraction(sympy.cancel(expr(gens)))
        fn, fd = to_sympy(f.num, gens), to_sympy(f.den, gens)
        assert sympy.cancel(fn / fd - num / den) == 0
        for part in sympy.fraction(sympy.cancel(den / fd)):
            assert sympy.Poly(part, gens["q"], gens["Q"]).is_monomial
        d = f.den
        assert all(k >= 0 for e in d.terms for k in e)
        assert all(d.min_degree(v) == 0 for v in d.vars)
        assert all(c.denominator == 1 for c in d.terms.values())
        assert math.gcd(*(c.numerator for c in d.terms.values())) == 1
        assert d.leading()[1] > 0

    @given(num=small_polys(), den=small_polys(allow_zero=False),
           mul=small_polys(allow_zero=False))
    @settings(max_examples=40, deadline=None)
    def test_construction(self, num, den, mul):
        if den.is_zero() or mul.is_zero():
            return
        n, d = num * mul, den * mul
        self.check(RationalFunction(n, d),
                   lambda g: to_sympy(n, g) / to_sympy(d, g))

    @given(a=ratfuns(), b=ratfuns())
    @settings(max_examples=40, deadline=None)
    def test_sum_and_product(self, a, b):
        def value(f, g):
            return to_sympy(f.num, g) / to_sympy(f.den, g)

        self.check(a + b, lambda g: value(a, g) + value(b, g))
        self.check(a * b, lambda g: value(a, g) * value(b, g))


def term_by_term_subst(f, bindings):
    """Oracle: the substitution written term by term, each term rebuilt
    through RationalFunction products and the terms summed, for any
    rational-function bindings."""
    bound = {v: as_ratfun(x) for v, x in bindings.items()}

    def through(p):
        acc = RationalFunction.zero()
        for e, c in p.terms.items():
            t = as_ratfun(c)
            for v, k in zip(p.vars, e):
                g = bound.get(v)
                if k == 0:
                    continue
                if g is None:
                    t = t * RationalFunction.var(v, k)
                elif g.is_zero() and k < 0:
                    raise DomainError(
                        f"negative power of {v} with {v} bound to zero")
                else:
                    t = t * g ** k
            acc = acc + t
        return acc

    dn = through(f.den)
    if dn.is_zero():
        names = ", ".join(sorted(set(f.den.vars) & set(bound)))
        raise DomainError(
            f"denominator vanishes under the substitution of {names}")
    return through(f.num) / dn


def subst_outcome(fn, f, bindings):
    try:
        out = fn(f, bindings)
    except DomainError as exc:
        return ("DomainError", str(exc))
    return (out.num, out.den)


SUBST_VARS = ("q", "Q", "Qt1")


@st.composite
def monomial_bindings(draw):
    """Bindings of some of q, Q, Qt1 to zero, a rational constant, or a
    rational multiple of a Laurent monomial, as int, Fraction,
    LaurentMPoly or RationalFunction (a monomial over a monomial
    included)."""
    out = {}
    for v in draw(st.sets(st.sampled_from(SUBST_VARS), min_size=1)):
        kind = draw(st.sampled_from(["zero", "const", "mono", "ratio"]))
        c = Fraction(draw(st.integers(-4, 4).filter(bool)),
                     draw(st.integers(1, 3)))
        powers = {u: draw(st.integers(-2, 2)) for u in
                  draw(st.sets(st.sampled_from(SUBST_VARS), max_size=2))}
        mono = LaurentMPoly.monomial(c, powers)
        if kind == "zero":
            out[v] = draw(st.sampled_from([0, Fraction(0),
                                           LaurentMPoly.zero()]))
        elif kind == "const":
            out[v] = draw(st.sampled_from([c, as_ratfun(c)]))
        elif kind == "mono":
            out[v] = draw(st.sampled_from([mono, as_ratfun(mono)]))
        else:
            out[v] = RationalFunction(mono, LaurentMPoly.monomial(
                draw(st.integers(1, 3)), {draw(st.sampled_from(SUBST_VARS)):
                                          draw(st.integers(0, 2))}))
    return out


class TestSubstitution:
    @given(num=small_polys(SUBST_VARS),
           den=small_polys(SUBST_VARS, allow_zero=False),
           bindings=monomial_bindings())
    @settings(max_examples=150, deadline=None)
    def test_matches_term_by_term(self, num, den, bindings):
        f = RationalFunction(num, den if den else LaurentMPoly.const(1))
        assert (subst_outcome(RationalFunction.subst, f, bindings)
                == subst_outcome(term_by_term_subst, f, bindings))

    def test_oracle_cases(self):
        # zero bindings: positive powers vanish, negative ones raise, a
        # denominator that vanishes is reported before the numerator
        cases = [
            (rf("q^2*Q + Q^-1*Qt1", "Q + 2"), {"Q": 0}),
            (rf("q*Q + 1", "q + 1"), {"Q": 0}),
            (rf("q", "Q"), {"Q": rf("2", "q")}),
            (rf("q^-1*Q", "Q - q"), {"Q": rf("q"), "q": 0}),
            (rf("1 - q*Q*Qt1", "Qt1 - Q"), {"Qt1": rf("q*Qt1"),
                                            "Q": Fraction(-1, 3)}),
            (rf("Q^-2 + q", "1 + q*Q"), {"Q": P("-1/2*q^-1*Qt1^2")}),
        ]
        for f, b in cases:
            assert (subst_outcome(RationalFunction.subst, f, b)
                    == subst_outcome(term_by_term_subst, f, b)), (f, b)
        with pytest.raises(DomainError, match="bound to zero"):
            rf("Q^-1 + q").subst({"Q": 0})
        with pytest.raises(DomainError, match="denominator vanishes"):
            rf("Q^-1", "q + 1").subst({"Q": 0, "q": -1})

    def test_non_monomial_binding_rejected(self):
        a = rf("q*Q + 1", "Q - q")
        for image in (rf("q + 1"), rf("1", "q + 1"), P("Q^2 - q"),
                      rf("q", "1 - Qt1")):
            with pytest.raises(DomainError, match="not a monomial"):
                a.subst({"Q": image})
        with pytest.raises(DomainError, match="not a monomial"):
            a.subst({"Qt1": rf("q + 1")})  # checked even where unused

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
    """The text form, which is also what a JSON report carries."""

    def test_format(self):
        assert format_ratfun(rf("Q + 1", "Q - 1")) == "(Q + 1) / (Q - 1)"
        assert format_ratfun(rf("Q")) == "Q"
        assert format_ratfun(rf("1", "Q")) == "Q^-1"

    def test_text_reads_back(self):
        # seeded quotients with rational coefficients and Laurent
        # exponents: "(num) / (den)" parses back to the same function and
        # formats to the same text
        rng = random.Random(16)

        def poly():
            terms = {tuple(rng.randint(-2, 3) for _ in range(3)):
                     Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(rng.randint(1, 4))}
            return LaurentMPoly(("q", "Q", "Qt1"), terms)

        quotients = 0
        for _ in range(300):
            den = poly()
            if den.is_zero():
                continue
            f = RationalFunction(poly(), den)
            text = format_ratfun(f)
            back = parse_ratfun(text)
            assert back == f, text
            assert format_ratfun(back) == text
            quotients += not f.is_polynomial()
        assert quotients > 200

    def test_reader_divides_by_polynomials(self):
        assert parse_ratfun("(Q*Qt1 - 1) / (Q - Qt1)") == rf("Q*Qt1 - 1",
                                                           "Q - Qt1")
        assert parse_ratfun("1/2 / (q - 1)") == rf("1", "2*q - 2")
        assert parse_ratfun("((q - 1)/(q + 1))^-2") == rf("(q + 1)^2",
                                                          "(q - 1)^2")
        assert parse_ratfun("q / (q + 1)", "q^-1") == rf("q^2", "q + 1")
        with pytest.raises(DomainError, match="zero rational function"):
            parse_ratfun("q / (q - q)")
        assert parse_ratfun("(q - 1)^-1") == rf("1", "q - 1")
        with pytest.raises(DomainError, match="zero to a negative power"):
            parse_ratfun("(q - q)^-1")
        with pytest.raises(DomainError, match="nonzero integer"):
            parse_poly("(Q*Qt1 - 1) / (Q - Qt1)")
        # a single term to a negative power reads whatever its coefficient
        assert parse_ratfun("(2*q)^-1") == parse_ratfun("1/(2*q)") \
            == rf("1", "2*q")
        assert parse_ratfun("(-2/3*q^2*Q)^-2") == rf("9/4*q^-4*Q^-2")
        with pytest.raises(DomainError, match="more than one term"):
            parse_poly("(q - 1)^-1")
