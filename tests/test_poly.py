"""Exact polynomial layer: arithmetic, gcd, resultants, serialization."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ajlab import ore as ore_module, poly as poly_module, qhg as qhg_module
from ajlab.errors import DomainError, PoleError
from ajlab.figure8 import cubic_operator, p0_operator
from ajlab.laurent import LaurentMPoly, format_poly, limit_at_one, var_sort_key
from ajlab.ore import OreOperator, epsilon_eval_with_unit, ore_mul
from ajlab.poly import (
    _content_and_primitive_wrt,
    _dense_divide,
    _digits,
    _eval_last,
    _heap_divide,
    _horner,
    _interpolate,
    _prs_gcd,
    exact_divide,
    gcd_cofactors,
    normalized,
    parse_poly,
    poly_gcd,
    rational_content,
    resultant,
    signed_content,
    squarefree_part,
)
from ajlab.qhg import (
    build_crossing,
    epsilon_ratio,
    habiro_figure_eight,
    shift_ratio,
)
from ajlab.ratfun import RationalFunction, _push_units

P = parse_poly


def divides(b, a):
    try:
        exact_divide(a, b)
        return True
    except DomainError:
        return False


def poly_terms(varnames, max_deg=4, max_terms=5, coeff_range=6, laurent=False,
               min_terms=0):
    lo = -max_deg if laurent else 0
    exps = st.tuples(*[st.integers(lo, max_deg) for _ in varnames])
    coeff = st.fractions(
        min_value=-coeff_range, max_value=coeff_range, max_denominator=4)
    if min_terms:
        coeff = coeff.filter(bool)
    return st.dictionaries(exps, coeff, min_size=min_terms,
                           max_size=max_terms).map(
        lambda d: LaurentMPoly(varnames, d))


polys2 = poly_terms(("Q", "E"))
polys2_laurent = poly_terms(("Q", "E"), laurent=True)
polys3 = poly_terms(("q", "Q", "E"), max_deg=3, max_terms=4)


class TestConstruction:
    def test_zero_coeffs_dropped(self):
        p = LaurentMPoly(("Q",), {(1,): 0, (2,): 3})
        assert p.terms == {(2,): Fraction(3)}

    def test_unused_vars_pruned(self):
        p = LaurentMPoly(("Q", "E"), {(2, 0): 1})
        assert p.vars == ("Q",)

    def test_var_order_canonical(self):
        p = LaurentMPoly(("E", "Q"), {(1, 2): 1})
        assert p.vars == ("Q", "E")
        assert p.terms == {(2, 1): Fraction(1)}

    def test_equal_regardless_of_route(self):
        a = P("Q^2*E - E + 1")
        b = P("1") + P("E") * (P("Q^2") - 1)
        assert a == b
        assert hash(a) == hash(b)

    def test_duplicate_var_rejected(self):
        with pytest.raises(DomainError):
            LaurentMPoly(("Q", "Q"), {(1, 1): 1})

    def test_indexed_family_order(self):
        names = ["x", "w2", "alpha", "w1", "l", "Qt2", "Qt1", "q"]
        assert sorted(names, key=var_sort_key) == [
            "q", "Qt1", "Qt2", "l", "alpha", "w1", "w2", "x"]


class TestArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(polys3, polys3, polys3)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + LaurentMPoly.zero() == a
        assert a * LaurentMPoly.const(1) == a
        assert a - a == LaurentMPoly.zero()

    @settings(max_examples=50, deadline=None)
    @given(polys2_laurent, polys2_laurent)
    def test_laurent_closure(self, a, b):
        s = a * b
        assert isinstance(s, LaurentMPoly)
        if not a.is_zero() and not b.is_zero():
            # an integral domain: the extreme parts multiply to nonzero
            assert s.total_degree() == a.total_degree() + b.total_degree()
            for v in set(a.vars) | set(b.vars):
                assert s.degree(v) == a.degree(v) + b.degree(v)
                assert s.min_degree(v) == a.min_degree(v) + b.min_degree(v)

    def test_pow(self):
        assert P("Q + 1") ** 3 == P("Q^3 + 3*Q^2 + 3*Q + 1")
        assert P("Q") ** 0 == P("1")
        with pytest.raises(DomainError):
            P("Q + 1") ** -1

    @settings(max_examples=100, deadline=None)
    @given(polys2, polys2,
           st.fractions(min_value=-5, max_value=5, max_denominator=3),
           st.fractions(min_value=-5, max_value=5, max_denominator=3))
    def test_eval_is_ring_hom(self, a, b, x, y):
        pt = {"Q": x, "E": y}
        assert (a + b).eval_exact(pt) == a.eval_exact(pt) + b.eval_exact(pt)
        assert (a * b).eval_exact(pt) == a.eval_exact(pt) * b.eval_exact(pt)

    def test_eval_negative_power_of_zero(self):
        p = LaurentMPoly(("Q",), {(-1,): 1})
        with pytest.raises(DomainError):
            p.eval_exact({"Q": 0})
        assert p.eval_exact({"Q": Fraction(1, 2)}) == 2

    def test_eval_complex_at_a_pole(self):
        p = P("x^-1 + 1")
        with pytest.raises(PoleError):
            p.eval_complex({"x": 0j})
        assert p.eval_complex({"x": 2j}) == 1 - 0.5j

    def test_derivative(self):
        p = P("Q^3*E + 2*Q*E^2 - 5")
        assert p.derivative("Q") == P("3*Q^2*E + 2*E^2")
        assert p.derivative("E") == P("Q^3 + 4*Q*E")
        assert p.derivative("x") == LaurentMPoly.zero()


class TestDivision:
    def test_exact_quotient(self):
        a = P("Q^2 - 1") * P("Q^3 + 2*Q - 7")
        assert exact_divide(a, P("Q^2 - 1")) == P("Q^3 + 2*Q - 7")

    def test_not_divisible(self):
        with pytest.raises(DomainError):
            exact_divide(P("Q^2 + 1"), P("Q + 1"))

    def test_laurent_units_handled(self):
        a = LaurentMPoly(("Q",), {(-1,): 1, (1,): 1})  # Q^-1 + Q
        b = LaurentMPoly(("Q",), {(-1,): 1})           # Q^-1
        assert exact_divide(a, b) == P("Q^2 + 1")

    @settings(max_examples=100, deadline=None)
    @given(polys2, polys2)
    def test_product_always_divides(self, a, b):
        if b.is_zero():
            return
        assert exact_divide(a * b, b) == a

    def test_divide_by_zero(self):
        with pytest.raises(DomainError):
            exact_divide(P("Q"), LaurentMPoly.zero())


class TestContentGcd:
    def test_rational_content(self):
        p = P("4*Q/6 + 2*E/3")  # 2/3 * (Q + E)
        assert rational_content(p) == Fraction(2, 3)
        assert normalized(p) == P("Q + E")
        assert normalized(-p) == P("Q + E")
        assert signed_content(-p) == Fraction(-2, 3)

    def test_signed_content_in_a_main_variable(self):
        # graded-lex the leading term is -2*E^3; the top power of Q
        # carries +4*Q*E
        p = P("4*Q*E - 2*E^3 + 6")
        assert signed_content(p) == -2
        assert signed_content(p, main="Q") == 2
        assert normalized(p, main="Q") == P("2*Q*E - E^3 + 3")
        # a main variable that does not occur falls back to graded-lex
        assert normalized(p, main="l") == normalized(p)
        assert signed_content(LaurentMPoly.zero(), main="Q") == 1

    @settings(max_examples=100, deadline=None)
    @given(polys2_laurent, st.fractions(min_value=-9, max_value=9,
                                        max_denominator=5).filter(bool),
           st.sampled_from([None, "Q", "E"]))
    def test_normalized_is_the_class_representative(self, p, c, main):
        if p.is_zero():
            return
        n = normalized(p, main)
        assert rational_content(n) == 1
        top = n if main is None else n.coeff_of(main, n.degree(main))
        assert top.leading()[1] > 0
        assert normalized(p * c, main) == n
        assert n * signed_content(p, main) == p

    def test_content_fold_does_not_depend_on_term_order(self, monkeypatch):
        # two l-coefficients share Q + 1, the third is coprime to both:
        # folding the shared pair first takes two gcds, the coprime one
        # first takes one
        calls = []

        def counting_gcd(a, b):
            calls.append((a, b))
            return poly_gcd(a, b)

        monkeypatch.setattr(poly_module, "poly_gcd", counting_gcd)
        coeffs = [P("(Q + 1)*(Q^2 + 3)"), P("(Q + 1)*(Q^3 + 5)"), P("Q + 7")]
        results, counts = [], []
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            terms = {}
            for k in order:
                for (e,), c in coeffs[k].terms.items():
                    terms[(e, k)] = c
            p = LaurentMPoly(("Q", "l"), terms)
            assert list(p.as_univariate("l")) == order
            calls.clear()
            results.append(_content_and_primitive_wrt(p, "l"))
            counts.append(len(calls))
        assert counts == [1, 1, 1]
        assert results == [(P("1"), p)] * 3

    def test_gcd_simple(self):
        a = P("Q^2 - 1")
        b = P("Q^2 - 2*Q + 1")
        assert poly_gcd(a, b) == P("Q - 1")

    def test_gcd_multivariate(self):
        g = P("Q*E + 1")
        a = g * P("Q - 3")
        b = g * P("E + 5")
        assert poly_gcd(a, b) == g

    def test_gcd_coprime(self):
        assert poly_gcd(P("Q + 1"), P("E + 1")) == P("1")

    def test_gcd_sign_and_content(self):
        a = P("-2*Q^2 + 2")
        b = P("4*Q - 4")
        g = poly_gcd(a, b)
        assert g == P("Q - 1")
        assert g.leading()[1] > 0

    @settings(max_examples=60, deadline=None)
    @given(polys2, polys2, polys2)
    def test_gcd_divides_and_absorbs(self, g, a, b):
        if g.is_zero():
            return
        ga, gb = g * a, g * b
        d = poly_gcd(ga, gb)
        if ga.is_zero() and gb.is_zero():
            assert d.is_zero()
            return
        assert divides(d, ga) and divides(d, gb)
        # the planted factor's primitive part must divide the gcd
        gp = normalized(g.clear_laurent()[0])
        assert divides(gp, d)

    def test_gcd_has_no_monomial_content(self):
        # the PRS once kept an x factor the inner content gcd had cleared
        a = P("(x+y+1)*(x+y)")
        b = P("(x+y+1)*(x-y)")
        assert poly_gcd(a, b) == P("x + y + 1")
        assert _prs_gcd(a, b) == P("x + y + 1")

    def test_gcd_when_an_evaluation_point_is_a_root(self):
        # xi = 31 at both levels: the inner image of (q - Q) is q - 31,
        # which vanishes at the inner xi = 31
        a = P("(q^2*Q - q*Q^2)*(Q + 1)")
        b = P("Q + 1")
        assert poly_gcd(a, b) == poly_gcd(b, a) == P("Q + 1")

    def test_gcd_with_zero(self):
        a = P("2*Q^2 - 2")
        assert poly_gcd(a, LaurentMPoly.zero()) == P("Q^2 - 1")
        assert poly_gcd(LaurentMPoly.zero(), LaurentMPoly.zero()).is_zero()


@st.composite
def planted_pairs(draw, names=None):
    """(a, b, g): a and b share the factor g, each times its own cofactor
    and Laurent monomial; 1 to 3 variables unless names are given,
    rational coefficients."""
    names = names or draw(st.sampled_from([("q",), ("Q", "E"),
                                           ("q", "Q", "E")]))
    factor = poly_terms(names, max_deg=3, max_terms=4, coeff_range=5,
                        min_terms=1)
    g = draw(poly_terms(names, max_deg=3, max_terms=4, coeff_range=5,
                        min_terms=2))
    unit = st.dictionaries(st.sampled_from(names), st.integers(-3, 3))
    a = g * draw(factor) * LaurentMPoly.monomial(1, draw(unit))
    b = g * draw(factor) * LaurentMPoly.monomial(1, draw(unit))
    return a, b, g


def prs_reference(a, b):
    """poly_gcd's contract computed by the PRS alone, for nonzero a, b."""
    a, b = a.clear_laurent()[0], b.clear_laurent()[0]
    if a.is_constant() or b.is_constant():
        return P("1")
    return _prs_gcd(a, b)


def sympy_gcd(a, b):
    """gcd from sympy over the integers, brought back in canonical form."""
    sympy = pytest.importorskip("sympy")
    a, b = a.clear_laurent()[0], b.clear_laurent()[0]
    names = LaurentMPoly._merge_vars(a, b)
    gens = sympy.symbols(names)

    def to_sympy(p):
        terms = normalized(p)._embedded(names)
        return sympy.Poly.from_dict({e: int(c) for e, c in terms.items()},
                                    *gens, domain=sympy.ZZ)

    h = to_sympy(a).gcd(to_sympy(b))
    return normalized(LaurentMPoly(
        names, {e: int(c) for e, c in h.as_dict().items()}))


class TestGcdDifferential:
    """The heuristic gcd and the integer division against independent
    paths: the PRS gcd, sympy, and multiplication."""

    @settings(max_examples=80, deadline=None)
    @given(planted_pairs())
    def test_heuristic_matches_prs(self, pair):
        a, b, g = pair
        d = poly_gcd(a, b)
        assert d == prs_reference(a, b)
        gp = normalized(g.clear_laurent()[0])
        assert divides(gp, d)

    @settings(max_examples=40, deadline=None)
    @given(planted_pairs())
    def test_heuristic_matches_sympy(self, pair):
        a, b, _ = pair
        assert poly_gcd(a, b) == sympy_gcd(a, b)

    @settings(max_examples=80, deadline=None)
    @given(planted_pairs())
    def test_exact_division(self, pair):
        a, b, g = pair
        assert exact_divide(a * b, b) == a
        assert exact_divide(a, g) * g == a
        # g is no unit, so it cannot divide a * b + 1
        with pytest.raises(DomainError):
            exact_divide(a * b + 1, g)

    @settings(max_examples=40, deadline=None)
    @given(planted_pairs())
    def test_prs_fallback_when_heuristic_fails(self, pair):
        a, b, _ = pair
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly_module, "_heu_gcd", lambda f, g: None)
            d = poly_gcd(a, b)
        assert d == prs_reference(a, b)


@st.composite
def cofactor_pairs(draw):
    """(a, b): a planted pair, or one with a zero input or an input that
    is constant up to a Laurent monomial on either side."""
    a, b, _ = draw(planted_pairs())
    special = st.sampled_from([None, P("0"), P("-3/2"), P("2*q^-1*Q^2")])
    x, y = draw(special), draw(special)
    return (a if x is None else x), (b if y is None else y)


def gcd_reference(a, b):
    """poly_gcd's contract from the PRS, or from normalization when an
    input is zero."""
    if a.is_zero() or b.is_zero():
        return normalized((a + b).clear_laurent()[0])
    return prs_reference(a, b)


class TestGcdCofactors:
    """gcd_cofactors is the one cancellation rule: its gcd is the PRS
    gcd, its cofactors multiply back to the inputs, and the GCDHEU check
    leaves the cofactors so that rational-function arithmetic never
    divides."""

    @staticmethod
    def check(a, b, triple):
        g, qa, qb = triple
        assert g * qa == a and g * qb == b
        assert g == gcd_reference(a, b)

    @settings(max_examples=80, deadline=None)
    @given(cofactor_pairs())
    def test_cofactors_multiply_back(self, pair):
        a, b = pair
        triple = gcd_cofactors(a, b)
        self.check(a, b, triple)
        assert triple[0] == poly_gcd(a, b)

    @settings(max_examples=40, deadline=None)
    @given(cofactor_pairs())
    def test_same_triple_when_heuristic_gives_up(self, pair):
        a, b = pair
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly_module, "_heu_gcd", lambda f, g: None)
            fallback = gcd_cofactors(a, b)
        self.check(a, b, fallback)
        assert fallback == gcd_cofactors(a, b)

    def test_coprime_and_zero_inputs_come_back_untouched(self):
        a, b = P("q^-1*Q + 3/2"), P("2*Q^2 - q")
        _, qa, qb = gcd_cofactors(a, b)
        assert qa is a and qb is b
        zero = LaurentMPoly.zero()
        assert gcd_cofactors(zero, b)[1] is zero
        assert gcd_cofactors(zero, zero) == (zero, zero, zero)
        assert gcd_cofactors(zero, P("-4*q^-2*Q^2 + 2")) == (
            P("q^2 - 2*Q^2"), zero, P("2*q^-2"))

    @settings(max_examples=40, deadline=None)
    @given(planted_pairs(), poly_terms(("q", "Q"), max_deg=2, max_terms=3,
                                       coeff_range=4, laurent=True,
                                       min_terms=1))
    def test_ratfun_arithmetic_never_divides(self, pair, c):
        a, b, _ = pair
        gave_up, divided = [], []
        heu = poly_module._heu_gcd

        def spy_heu(f, g):
            out = heu(f, g)
            gave_up.append(out is None)
            return out

        def spy_divide(x, y):
            divided.append((x, y))
            return exact_divide(x, y)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly_module, "_heu_gcd", spy_heu)
            mp.setattr(poly_module, "exact_divide", spy_divide)
            x = RationalFunction(a, b)  # cancels the planted factor
            y = RationalFunction(c, a)
            z = RationalFunction(c + 1, b)
            total = y + z  # the denominators share the planted factor
            prod = y * RationalFunction(b, c)  # cross-cancels it
        assume(not any(gave_up))
        assert not divided
        assert x * y == RationalFunction(c, b)
        assert total * RationalFunction(a * b, P("1")) == RationalFunction(
            c * b + (c + 1) * a, P("1"))
        assert prod == RationalFunction(b, a)


def sylvester_matrix(a, b, v):
    da, db = a.degree(v), b.degree(v)
    au, bu = a.as_univariate(v), b.as_univariate(v)
    zero = LaurentMPoly.zero()
    rows = []
    for i in range(db):
        row = [zero] * (da + db)
        for k in range(da + 1):
            row[i + k] = au.get(da - k, zero)
        rows.append(row)
    for i in range(da):
        row = [zero] * (da + db)
        for k in range(db + 1):
            row[i + k] = bu.get(db - k, zero)
        rows.append(row)
    return rows


def sylvester_resultant(a, b, v):
    """The resultant as a fraction-free (Bareiss) Sylvester determinant:
    slow, but independent of the subresultant PRS in `resultant`."""
    a, b = a.clear_negative(), b.clear_negative()
    m = sylvester_matrix(a, b, v)
    n = len(m)
    sign = 1
    prev = LaurentMPoly.const(1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return LaurentMPoly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = exact_divide(num, prev)
            m[i][k] = LaurentMPoly.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


class TestResultant:
    def test_univariate_known(self):
        # res_x(x^2 - 1, x - 2) = (2)^2 - 1 = 3
        a = P("x^2 - 1")
        b = P("x - 2")
        with pytest.raises(DomainError):
            resultant(a, P("5"), "x")
        r = resultant(a, b, "x")
        assert r == P("3")

    def test_common_root_gives_zero(self):
        a = P("x^2 - 1") * P("x - 7")
        b = P("x^2 - 1") * P("x + 3")
        assert resultant(a, b, "x").is_zero()

    def test_eliminates_variable(self):
        a = P("x^2 - Q")
        b = P("x - E")
        r = resultant(a, b, "x")
        assert r == P("E^2 - Q")

    def test_sign_matches_determinant(self):
        a = P("x^2 + Q*x + 1")
        b = P("x^3 - E")
        assert resultant(a, b, "x") == sylvester_resultant(a, b, "x")
        assert resultant(b, a, "x") == sylvester_resultant(b, a, "x")

    @settings(max_examples=60, deadline=None)
    @given(poly_terms(("Q", "x"), max_deg=3, max_terms=4, coeff_range=4),
           poly_terms(("Q", "x"), max_deg=3, max_terms=4, coeff_range=4))
    def test_agrees_with_sylvester(self, a, b):
        if a.degree("x") <= 0 or b.degree("x") <= 0:
            return
        assert resultant(a, b, "x") == sylvester_resultant(a, b, "x")

    @settings(max_examples=40, deadline=None)
    @given(poly_terms(("x",), max_deg=3, max_terms=3, coeff_range=4),
           poly_terms(("x",), max_deg=3, max_terms=3, coeff_range=4),
           poly_terms(("x",), max_deg=2, max_terms=3, coeff_range=4))
    def test_multiplicative_in_first_slot(self, a, b, c):
        if a.degree("x") <= 0 or b.degree("x") <= 0 or c.degree("x") <= 0:
            return
        lhs = resultant(a * b, c, "x")
        rhs = resultant(a, c, "x") * resultant(b, c, "x")
        assert lhs == rhs

    def test_evaluation_specialization(self):
        # res_x of (x - u)(x - v) against (x - w) is (w - u)(w - v)
        a = P("x^2 - 5*x + 6")   # roots 2, 3
        b = P("x - Q")
        r = resultant(a, b, "x")
        assert r.eval_exact({"Q": 2}) == 0
        assert r.eval_exact({"Q": 3}) == 0
        assert r.eval_exact({"Q": 4}) == 2


class TestSquarefree:
    def test_strips_multiplicity(self):
        p = P("l^2 - 2*l + 1")  # (l-1)^2
        assert squarefree_part(p, "l") == P("l - 1")

    def test_keeps_distinct_factors(self):
        p = P("l - 1") * P("l + 1") * P("l + 1")
        sf = squarefree_part(p, "l")
        assert normalized(sf) == P("l^2 - 1")

    def test_other_variable_content_untouched(self):
        p = P("Q^2") * P("l - 1") ** 2
        sf = squarefree_part(p, "l")
        assert sf == P("Q^2") * P("l - 1")

    def test_var_absent(self):
        p = P("Q^2 + 1")
        assert squarefree_part(p, "l") == p


class TestSubstMonomials:
    @settings(max_examples=100, deadline=None)
    @given(poly_terms(("q", "Q", "E"), max_deg=3, max_terms=4, laurent=True),
           st.dictionaries(
               st.sampled_from(["q", "Q", "E"]),
               st.tuples(st.fractions(-3, 3, max_denominator=3).filter(bool),
                         st.dictionaries(st.sampled_from(["q", "Q", "E", "s"]),
                                         st.integers(-2, 2), max_size=2))))
    def test_commutes_with_evaluation(self, p, spec):
        images = {v: LaurentMPoly.monomial(c, powers)
                  for v, (c, powers) in spec.items()}
        point = {"q": Fraction(2), "Q": Fraction(-3, 2), "E": Fraction(5, 7),
                 "s": Fraction(-1, 3)}
        moved = {v: images[v].eval_exact(point) if v in images else x
                 for v, x in point.items()}
        assert (p.subst_monomials(images).eval_exact(point)
                == p.eval_exact(moved))

    def test_zero_images(self):
        p = P("q^2*Q + Q^-1*E + 3")
        assert p.subst_monomials({"q": LaurentMPoly.zero()}) == P(
            "Q^-1*E + 3")
        with pytest.raises(DomainError, match="bound to zero"):
            p.subst_monomials({"Q": LaurentMPoly.zero()})
        assert p.subst_monomials({"x": P("q")}) is p
        with pytest.raises(DomainError, match="not a monomial"):
            p.subst_monomials({"q": P("Q + 1")})


def to_sympy(p, names):
    """p (an honest polynomial) as a sympy Poly over QQ in names."""
    sympy = pytest.importorskip("sympy")
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator)
         for e, c in p._embedded(names).items()} or {(0,) * len(names): 0},
        *sympy.symbols(names), domain=sympy.QQ)


def from_sympy(expr, names):
    sympy = pytest.importorskip("sympy")
    poly = sympy.Poly(expr, *sympy.symbols(names), domain=sympy.QQ)
    return LaurentMPoly(names, {
        e: Fraction(int(c.p), int(c.q)) for e, c in poly.as_dict().items()})


bivariate = poly_terms(("Q", "x"), max_deg=3, max_terms=4, coeff_range=4)
trivariate = poly_terms(("Q", "E", "x"), max_deg=2, max_terms=4,
                        coeff_range=4, laurent=True)


class TestAgainstSympy:
    """resultant and squarefree_part against sympy (skipped without it)."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.tuples(bivariate, bivariate),
                     st.tuples(trivariate, trivariate)))
    def test_resultant(self, pair):
        sympy = pytest.importorskip("sympy")
        a, b = (p.clear_negative() for p in pair)
        da, db = a.degree("x"), b.degree("x")
        assume(da > 0 and db > 0)
        names = ("Q", "E", "x")
        # sympy 1.14 returns res(b, a) = (-1)^(da*db) res(a, b) when
        # da < db (res(x + 1, x^3) comes back as 1, not the Sylvester
        # determinant -1), so it gets the higher degree first
        first, second, sign = ((a, b, 1) if da >= db
                               else (b, a, (-1) ** (da * db)))
        want = sign * from_sympy(sympy.resultant(
            to_sympy(first, names).as_expr(),
            to_sympy(second, names).as_expr(), sympy.Symbol("x")), names)
        assert resultant(*pair, "x") == want
        assert sylvester_resultant(a, b, "x") == want

    @settings(max_examples=60, deadline=None)
    @given(poly_terms(("Q", "l"), max_deg=2, max_terms=3, coeff_range=3,
                      min_terms=1),
           poly_terms(("Q", "l"), max_deg=2, max_terms=3, coeff_range=3,
                      min_terms=1),
           poly_terms(("Q", "l"), max_deg=1, max_terms=2, coeff_range=3,
                      laurent=True, min_terms=1),
           st.integers(1, 3), st.integers(1, 2))
    def test_squarefree_part(self, f, g, h, j, k):
        # repeated factors planted in l, with Laurent monomials and content
        pytest.importorskip("sympy")
        a = f ** j * g ** k * h
        assume(not a.is_zero() and a.degree("l") > 0)
        names = ("Q", "l")
        got = squarefree_part(a, "l")
        # the l-free content passes through; up to units it is a's
        cont_a, pp_a = _content_and_primitive_wrt(a.clear_laurent()[0], "l")
        cont_g, pp_g = _content_and_primitive_wrt(got.clear_laurent()[0], "l")
        assert normalized(cont_g) == normalized(cont_a)
        # the l-primitive part is sympy's square-free part, up to units
        want = from_sympy(to_sympy(pp_a, names).sqf_part().as_expr(), names)
        assert normalized(pp_g) == normalized(want)


def _set_one(p, v):
    """p with v set to 1, by adding up the coefficients."""
    if v not in p.vars:
        return p
    i = p.vars.index(v)
    out = {}
    for e, c in p.terms.items():
        out[e[:i] + e[i + 1:]] = out.get(e[:i] + e[i + 1:], 0) + c
    return LaurentMPoly(p.vars[:i] + p.vars[i + 1:], out)


def divide_loop_limit(p):
    """The limit at q = 1 as it was first defined, kept as the oracle for
    `limit_at_one`: clear the Laurent unit, divide by (q - 1) while the
    value at q = 1 vanishes, then set q = 1 with the unit put back."""
    if p.is_zero():
        raise DomainError("limit of zero")
    body, unit = p.clear_laurent()
    gauge = LaurentMPoly(("q",), {(1,): 1, (0,): -1})
    k = 0
    while _set_one(body, "q").is_zero():
        body = exact_divide(body, gauge)
        k += 1
    return k, _set_one(LaurentMPoly.monomial(1, unit) * body, "q")


laurent3 = poly_terms(("q", "Q", "E"), max_deg=3, max_terms=4, laurent=True,
                      min_terms=1)

#: every summand the package builds, with every shift it accepts
BUILTIN_SHIFTS = (
    (habiro_figure_eight(), ("E", "Em", "Et1")),
    (build_crossing(True), ("Em", "Et1", "Et2", "Et3", "Et4")),
    (build_crossing(False), ("Em", "Et1", "Et2", "Et3", "Et4")),
)


def _random_times_p0(seed):
    """L * P0 for a seeded random L of E-degree at most 2 over (q, Q)."""
    rng = random.Random(seed)
    coeffs = {}
    for k in range(rng.randint(1, 3)):
        num = LaurentMPoly(("q", "Q"), {
            (rng.randint(-2, 2), rng.randint(0, 2)): rng.randint(-3, 3)
            for _ in range(rng.randint(1, 3))})
        den = LaurentMPoly(("q", "Q"), {(1, 0): 1, (0, rng.randint(0, 1)): -1})
        coeffs[(k,)] = RationalFunction(num, den) if num else 1
    return ore_mul(OreOperator(0, coeffs), p0_operator())


class TestLimitAtOne:
    def test_known_cases(self):
        assert limit_at_one(P("q^2 - 2*q + 1")) == (2, P("1"))
        assert limit_at_one(P("q*Q - Q")) == (1, P("Q"))
        assert limit_at_one(P("Q - Qt1")) == (0, P("Q - Qt1"))
        # Laurent powers of q need no clearing: q^-1 - 1 = -(q - 1)/q
        assert limit_at_one(P("q^-1 - 1")) == (1, P("-1"))
        assert limit_at_one(P("q^-2*Q^-1 - 2*q^-1*Q^-1 + Q^-1")) == (
            2, P("Q^-1"))
        assert limit_at_one(P("q^3 - 1")) == (1, P("3"))
        with pytest.raises(DomainError):
            limit_at_one(LaurentMPoly.zero())

    @settings(max_examples=150, deadline=None)
    @given(laurent3, st.integers(0, 4))
    def test_planted_order(self, p, k):
        at_one = RationalFunction(p, LaurentMPoly.const(1)).subst(
            {"q": 1}).as_polynomial()
        assume(not at_one.is_zero())
        gauge = LaurentMPoly(("q",), {(1,): 1, (0,): -1})
        assert limit_at_one(gauge ** k * p) == (k, at_one)

    @settings(max_examples=150, deadline=None)
    @given(laurent3, laurent3, st.integers(0, 3))
    def test_matches_divide_loop(self, p, r, k):
        # r - r(q=1) vanishes at q = 1, so sums of both kinds mix orders
        f = P("q - 1") ** k * p + (r - _set_one(r, "q"))
        assume(not f.is_zero())
        assert limit_at_one(f) == divide_loop_limit(f)

    def test_shift_ratios_match_the_oracle(self):
        for term, shifts in BUILTIN_SHIFTS:
            for which in shifts:
                r = shift_ratio(term, which)
                fast = [limit_at_one(p) for p in (r.num, r.den)]
                fast_ratio = epsilon_ratio(term, which)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(qhg_module, "limit_at_one", divide_loop_limit)
                    assert epsilon_ratio(term, which) == fast_ratio
                assert fast == [divide_loop_limit(p) for p in (r.num, r.den)]

    @pytest.mark.parametrize("op", [
        p0_operator(), cubic_operator(),
        *(_random_times_p0(seed) for seed in range(4))])
    def test_operator_limits_match_the_oracle(self, op):
        for c in op.terms.values():
            for p in (c.num, c.den):
                assert limit_at_one(p) == divide_loop_limit(p)
        fast = epsilon_eval_with_unit(op)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ore_module, "limit_at_one", divide_loop_limit)
            assert epsilon_eval_with_unit(op) == fast


class TestTextFormat:
    def test_known_strings(self):
        assert format_poly(P("Q^2*E^2 - E + Q*E")) == "Q^2*E^2 + Q*E - E"
        assert format_poly(LaurentMPoly.zero()) == "0"
        assert format_poly(P("-Q + 1/2")) == "-Q + 1/2"

    def test_laurent_exponents(self):
        p = LaurentMPoly(("Q",), {(-2,): Fraction(3, 2), (1,): -1})
        s = format_poly(p)
        assert s == "-Q + 3/2*Q^-2"
        assert parse_poly(s) == p

    @settings(max_examples=150, deadline=None)
    @given(poly_terms(("q", "Q", "E"), max_deg=4, max_terms=5, laurent=True))
    def test_round_trip_bit_exact(self, p):
        s = format_poly(p)
        assert parse_poly(s) == p
        assert format_poly(parse_poly(s)) == s

    def test_parse_parentheses_and_products(self):
        assert P("(Q + 1)*(Q - 1)") == P("Q^2 - 1")
        assert P("(Q*E)^-2") == LaurentMPoly(("Q", "E"), {(-2, -2): 1})
        assert P("3/4*Q") == LaurentMPoly(("Q",), {(1,): Fraction(3, 4)})
        # a negative power of one term: c^k * x^(k*e) for any coefficient
        assert P("(2*q)^-1") == LaurentMPoly(("q",), {(-1,): Fraction(1, 2)})
        assert P("(-2/3*q^2*Q)^-3") == LaurentMPoly(
            ("q", "Q"), {(-6, -3): Fraction(-27, 8)})
        assert P("(-Q)^-1") == P("-Q^-1")
        assert P("2^-3") == P("1/8")

    def test_parse_rejects_garbage(self):
        for bad in ("Q +", "(Q", "Q^^2", "Q^x", "1 @ 2", "Q/(E+1)"):
            with pytest.raises(DomainError):
                parse_poly(bad)
        with pytest.raises(DomainError, match="more than one term"):
            parse_poly("(2*q + Q)^-1")
        with pytest.raises(DomainError, match="zero to a negative power"):
            parse_poly("(q - q)^-2")


class TestJson:
    """A JSON report (``--format json``) carries a polynomial as its text
    form, the one serialization: one string field that reads back
    exactly, and malformed text is one DomainError."""

    @settings(max_examples=100, deadline=None)
    @given(poly_terms(("Q", "E"), laurent=True))
    def test_round_trip(self, p):
        doc = json.loads(json.dumps({"poly": format_poly(p)}))
        assert parse_poly(doc["poly"]) == p

    def test_shape(self):
        doc = {"poly": format_poly(P("Q^2 - 1/3"))}
        assert json.dumps(doc) == '{"poly": "Q^2 - 1/3"}'

    def test_malformed(self):
        for bad in ("", "   ", "Q^", "3*", "Q E"):
            with pytest.raises(DomainError):
                parse_poly(bad)

    def test_zero_denominator_is_a_domain_error(self):
        for bad in ("Q/0", "1/0*Q", "(Q + 1)/0"):
            with pytest.raises(DomainError, match="nonzero integer"):
                parse_poly(bad)

    def test_integer_round_trip_keeps_int_terms(self):
        p = P("3*Q^2*E^-1 - 7*E + 12")
        back = parse_poly(format_poly(p))
        assert back.vars == p.vars and back.terms == p.terms
        assert all(type(c) is int for c in back.terms.values())


# -- canonical coefficients: int when integral, Fraction only when not -------

def assert_canonical(p):
    """The stored form: each coefficient an int, or a Fraction whose
    denominator is not 1; variables used and in canonical order."""
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert c != 0
    assert list(p.vars) == sorted(p.vars, key=var_sort_key)
    assert all(any(e[i] for e in p.terms) for i in range(len(p.vars)))


class TestIntegerCoefficientsStayExact:
    """Python's int / int and int ** negative give floats; every path that
    can meet them on int coefficients keeps an exact Fraction."""

    def test_eval_at_an_integral_point(self):
        p = P("x^-1")
        for x in (2, Fraction(2)):
            v = p.eval_exact({"x": x})
            assert type(v) is Fraction and v == Fraction(1, 2)
        v = P("3*x^-2*y + y^-1").eval_exact({"x": 2, "y": -1})
        assert type(v) is Fraction and v == Fraction(-7, 4)
        v = P("x^-1 + 2*x^-2").eval_exact({"x": Fraction(-2, 3)})
        assert v == Fraction(-3, 2) + Fraction(9, 2)
        assert type(P("5").eval_exact({})) is Fraction

    def test_subst_under_a_negative_power(self):
        p = P("x^-1 + 3*x^-2*y").subst_monomials(
            {"x": LaurentMPoly.monomial(2, {"z": 1})})
        assert p.terms == {(1, -2): Fraction(3, 4), (0, -1): Fraction(1, 2)}
        assert_canonical(p)

    def test_constant_values_are_fractions(self):
        r = RationalFunction(LaurentMPoly.const(3), LaurentMPoly.const(2))
        assert type(r.constant_value()) is Fraction
        assert r.constant_value() == Fraction(3, 2)
        one = RationalFunction(LaurentMPoly.const(3), LaurentMPoly.const(1))
        assert type(one.constant_value()) is Fraction
        assert type(LaurentMPoly.const(4).constant_value()) is Fraction
        assert type(LaurentMPoly.zero().constant_value()) is Fraction
        v = RationalFunction(P("x"), P("x + 1")).eval_exact({"x": 1})
        assert type(v) is Fraction and v == Fraction(1, 2)

    def test_scalars_and_normalized_keep_the_form(self):
        p = P("2*x + 4")
        assert (p * 2).terms == {(1,): 4, (0,): 8}
        half = p * Fraction(1, 2)
        assert half.terms == {(1,): 1, (0,): 2}
        assert (p * Fraction(1, 3)).terms == {(1,): Fraction(2, 3),
                                              (0,): Fraction(4, 3)}
        assert normalized(P("1/2*x + 1/3")).terms == {(1,): 3, (0,): 2}
        assert normalized(p).terms == {(1,): 1, (0,): 2}
        assert LaurentMPoly.const(Fraction(4, 2)).terms == {(): 2}
        for q in (p * 2, half, p * Fraction(1, 3), normalized(p),
                  LaurentMPoly.const(Fraction(4, 2)),
                  LaurentMPoly.monomial(Fraction(6, 3), {"y": 1, "x": 2})):
            assert_canonical(q)


def old_canon(vars, terms):
    """The canonical form by the rules of the Fraction-only constructor,
    on plain {exponent: Fraction} dicts: the test-side oracle."""
    vars = tuple(vars)
    clean = {}
    for e, c in terms.items():
        e = tuple(int(x) for x in e)
        clean[e] = clean.get(e, Fraction(0)) + Fraction(c)
    clean = {e: c for e, c in clean.items() if c}
    used = [i for i in range(len(vars)) if any(e[i] for e in clean)]
    order = sorted(used, key=lambda i: var_sort_key(vars[i]))
    return (tuple(vars[i] for i in order),
            {tuple(e[i] for i in order): c for e, c in clean.items()})


def oracle(p):
    return p.vars, {e: Fraction(c) for e, c in p.terms.items()}


def o_embed(o, vars):
    return {tuple(e[o[0].index(v)] if v in o[0] else 0 for v in vars): c
            for e, c in o[1].items()}


def o_add(a, b):
    vars = tuple(dict.fromkeys(a[0] + b[0]))
    out = dict(o_embed(a, vars))
    for e, c in o_embed(b, vars).items():
        out[e] = out.get(e, Fraction(0)) + c
    return old_canon(vars, out)


def o_mul(a, b):
    vars = tuple(dict.fromkeys(a[0] + b[0]))
    out = {}
    for ea, ca in o_embed(a, vars).items():
        for eb, cb in o_embed(b, vars).items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return old_canon(vars, out)


def o_scale(a, c):
    return old_canon(a[0], {e: x * Fraction(c) for e, x in a[1].items()})


def o_eval(a, point):
    total = Fraction(0)
    for e, c in a[1].items():
        for v, k in zip(a[0], e):
            x = Fraction(point[v])
            if k < 0 and x == 0:
                raise DomainError("zero to a negative power")
            c *= x ** k
        total += c
    return total


NAMES = ("q", "Q", "x")
coeffs = st.one_of(st.integers(-6, 6),
                   st.fractions(-6, 6, max_denominator=4),
                   st.integers(-6, 6).map(Fraction))


@st.composite
def raw_polys(draw, max_terms=4):
    """(vars, terms): 1-3 variables in any order, Laurent exponents, int,
    integral Fraction and non-integral Fraction coefficients."""
    vars = draw(st.permutations(NAMES))[:draw(st.integers(1, 3))]
    exps = st.tuples(*[st.integers(-2, 3) for _ in vars])
    return tuple(vars), draw(st.dictionaries(exps, coeffs, max_size=max_terms))


def built(raw):
    p = LaurentMPoly(*raw)
    assert_canonical(p)
    assert oracle(p) == old_canon(*raw)
    return p


def check(p, want):
    assert_canonical(p)
    assert oracle(p) == want


class TestAgainstFractionOracle:
    """Every operation against plain Fraction dicts canonicalized by the
    old rules, with the int-or-Fraction invariant after each one."""

    @settings(max_examples=150, deadline=None)
    @given(raw_polys(), coeffs)
    def test_construction_parse_json_and_maps(self, raw, c):
        p = built(raw)
        check(parse_poly(format_poly(p)), oracle(p))
        check(p.map_coeffs(lambda x: x * Fraction(c)), o_scale(oracle(p), c))
        want = old_canon(p.vars, {e: x / signed_content(p)
                                  for e, x in oracle(p)[1].items()})
        check(normalized(p), want)
        check(LaurentMPoly.const(c), old_canon((), {(): c}))

    @settings(max_examples=150, deadline=None)
    @given(raw_polys(), raw_polys(), coeffs, st.integers(0, 3))
    def test_ring_operations(self, ra, rb, c, n):
        a, b = built(ra), built(rb)
        oa, ob = oracle(a), oracle(b)
        check(a + b, o_add(oa, ob))
        check(a - b, o_add(oa, o_scale(ob, -1)))
        check(-a, o_scale(oa, -1))
        check(a * b, o_mul(oa, ob))
        check(a * c, o_scale(oa, c))
        check(c + a, o_add(oa, old_canon((), {(): c})))
        want = old_canon((), {(): 1})
        for _ in range(n):
            want = o_mul(want, oa)
        check(a ** n, want)

    @settings(max_examples=150, deadline=None)
    @given(raw_polys(), st.sampled_from(NAMES), st.integers(-2, 3),
           st.dictionaries(st.sampled_from(NAMES),
                           st.tuples(coeffs.filter(bool),
                                     st.dictionaries(st.sampled_from(NAMES),
                                                     st.integers(-2, 2),
                                                     max_size=2)),
                           max_size=2))
    def test_structure_and_substitution(self, raw, v, k, spec):
        p = built(raw)
        vars, terms = oracle(p)
        i = vars.index(v) if v in vars else None
        rest = vars if i is None else vars[:i] + vars[i + 1:]
        by_power = {}  # exponent of v -> the terms without v
        for e, c in terms.items():
            j, r = (0, e) if i is None else (e[i], e[:i] + e[i + 1:])
            by_power.setdefault(j, {})[r] = c
        check(p.coeff_of(v, k), old_canon(rest, by_power.get(k, {})))
        buckets = p.as_univariate(v)
        assert set(buckets) == set(by_power)
        for j, c in buckets.items():
            check(c, old_canon(rest, by_power[j]))
        check(p.derivative(v), old_canon(vars, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in terms.items()} if i is not None else {}))
        cleared, unit = p.clear_laurent()
        lows = {u: min(e[j] for e in terms) for j, u in enumerate(vars)}
        assert unit == {u: m for u, m in lows.items() if m}
        check(cleared, old_canon(vars, {
            tuple(x - lows[u] for u, x in zip(vars, e)): c
            for e, c in terms.items()}))
        # each bound variable v -> c * prod u^a, term by term in Fractions
        images = {u: LaurentMPoly.monomial(c, powers)
                  for u, (c, powers) in spec.items()}
        names = tuple(dict.fromkeys(vars + NAMES))
        out = {}
        for e, c in terms.items():
            ne = dict.fromkeys(names, 0)
            for u, x in zip(vars, e):
                if u in spec:
                    c *= Fraction(spec[u][0]) ** x
                    for w, a in spec[u][1].items():
                        ne[w] += a * x
                else:
                    ne[u] += x
            key = tuple(ne.values())
            out[key] = out.get(key, Fraction(0)) + c
        check(p.subst_monomials(images), old_canon(names, out))

    @settings(max_examples=150, deadline=None)
    @given(raw_polys(), st.tuples(*[coeffs for _ in NAMES]))
    def test_eval_exact(self, raw, values):
        p = built(raw)
        point = dict(zip(NAMES, values))
        try:
            want = o_eval(oracle(p), point)
        except DomainError:
            with pytest.raises(DomainError):
                p.eval_exact(point)
            return
        got = p.eval_exact(point)
        assert type(got) is Fraction and got == want

    @settings(max_examples=60, deadline=None)
    @given(raw_polys(), raw_polys(), raw_polys(max_terms=3))
    def test_gcd_cofactors(self, ra, rb, rg):
        g0 = built(rg)
        a, b = built(ra) * g0, built(rb) * g0
        g, qa, qb = gcd_cofactors(a, b)
        for p in (g, qa, qb):
            assert_canonical(p)
        assert o_mul(oracle(g), oracle(qa)) == oracle(a)
        assert o_mul(oracle(g), oracle(qb)) == oracle(b)


# -- constant factors and monomial divisors take the scalar path ------------

CONSTANTS = (1, -1, 0, 3, Fraction(2, 3))
any_polys = st.one_of(raw_polys(), st.just(((), {})),
                      coeffs.map(lambda c: ((), {(): c})))


class TestScalarPaths:
    @settings(max_examples=150, deadline=None)
    @given(any_polys)
    def test_constant_products_match_the_generic_product(self, raw):
        p = built(raw)
        for c in CONSTANTS:
            k = LaurentMPoly.const(c)
            want = o_mul(oracle(p), oracle(k))
            check(p * k, want)
            check(k * p, want)
            check(p * c, want)

    def test_multiplying_by_one_returns_the_operand(self):
        one = LaurentMPoly.const(1)
        for p in (P("2*x - y/3 + x^-1"), P("q")):
            assert p * one is p
            assert one * p is p
            assert p * 1 is p
        for p in (LaurentMPoly.const(Fraction(5, 7)), LaurentMPoly.zero()):
            assert p * one == p and one * p == p

    @settings(max_examples=100, deadline=None)
    @given(raw_polys(), coeffs.filter(bool),
           st.dictionaries(st.sampled_from(NAMES), st.integers(-2, 2),
                           max_size=2))
    def test_monomial_divisor_skips_the_long_division(self, raw, c, powers):
        def refuse(a, b):
            raise AssertionError("integer long division reached")

        p = built(raw)
        b = LaurentMPoly.monomial(c, powers)
        want = o_mul(oracle(p), oracle(LaurentMPoly.monomial(
            1 / Fraction(c), {v: -k for v, k in powers.items()})))
        original = poly_module._zz_divide
        poly_module._zz_divide = refuse
        try:
            got = exact_divide(p, b)
            with pytest.raises(DomainError):
                exact_divide(p, LaurentMPoly.zero())
        finally:
            poly_module._zz_divide = original
        check(got, want)
        assert got * b == p

    def test_other_divisors_still_divide(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("integer long division reached")

        monkeypatch.setattr(poly_module, "_zz_divide", refuse)
        assert exact_divide(P("2*q^2*Q"), P("4*q^-1")) == P("q^3*Q/2")
        assert exact_divide(P("q - 1"), P("-1")) == P("1 - q")
        with pytest.raises(AssertionError, match="long division"):
            exact_divide(P("q^2 - 1"), P("q + 1"))


# -- univariate kernels against the sparse multivariate path ---------------

def int_polys(min_size=0, max_deg=8):
    """Univariate integer polynomials as the integer core holds them:
    {(exponent,): nonzero int}, exponents >= 0."""
    return st.dictionaries(st.tuples(st.integers(0, max_deg)),
                           st.integers(-40, 40).filter(bool),
                           min_size=min_size, max_size=6)


def int_mul(a, b):
    out = {}
    for (ea,), ca in a.items():
        for (eb,), cb in b.items():
            out[(ea + eb,)] = out.get((ea + eb,), 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def int_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


@st.composite
def division_cases(draw):
    """(a, b): a = b * c, plus with even odds a remainder r whose terms all
    lie below the degree of b, so only the low-degree terms are left once
    every quotient term has been taken."""
    b = draw(int_polys(min_size=1))
    a = int_mul(b, draw(int_polys()))
    db = max(b)[0]
    if db and draw(st.booleans()):
        a = int_add(a, draw(int_polys(min_size=1, max_deg=db - 1)))
    return a, b


def sympy_quotient(a, b):
    """a / b over the integers by sympy's division over QQ: the quotient
    when the remainder is 0 and every coefficient is integral, else None."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(f):
        return sympy.Poly.from_dict({e: c for e, c in f.items()}, x,
                                    domain=sympy.QQ)

    q, r = to_sympy(a).div(to_sympy(b))
    if not r.is_zero or not all(c.is_integer for c in q.coeffs()):
        return None
    return {e: int(c) for e, c in q.as_dict().items()}


def sparse_gcd_path(monkeypatch):
    """Send GCDHEU's univariate steps through the multivariate helpers."""
    monkeypatch.setattr(poly_module, "_horner", _eval_last)
    monkeypatch.setattr(poly_module, "_digits", _interpolate)
    monkeypatch.setattr(poly_module, "_dense_divide", _heap_divide)


class TestUnivariateKernels:
    """Each univariate kernel gives what the sparse multivariate code
    gives on the same one-variable input, term order included."""

    @settings(max_examples=150, deadline=None)
    @given(poly_terms(("q",), laurent=True), poly_terms(("q",), laurent=True))
    def test_products_match_the_tuple_key_product(self, a, b):
        # a * x is in two variables, so (a * x) * b takes the tuple-key
        # product; its x-coefficient is a * b
        want = ((a * LaurentMPoly.var("x")) * b).coeff_of("x", 1)
        got = a * b
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())
        assert_canonical(got)

    @settings(max_examples=200, deadline=None)
    @given(division_cases())
    def test_division_matches_the_heap_division(self, case):
        a, b = case
        got = _dense_divide(a, b)
        want = _heap_divide(a, b)
        assert got == want
        if got is not None:
            assert list(got.items()) == list(want.items())
            assert int_mul(got, b) == a

    def test_remainder_below_the_divisor_degree_is_seen(self):
        # x^3 + x^2 + 3 = (x^2 + 1)(x + 1) + (-x + 2): the quotient
        # terms all divide, the remainder sits below degree 2
        a = {(3,): 1, (2,): 1, (0,): 3}
        b = {(2,): 1, (0,): 1}
        assert _dense_divide(a, b) is None
        assert _heap_divide(a, b) is None
        assert _dense_divide(int_add(a, {(1,): 1, (0,): -2}), b) == {
            (1,): 1, (0,): 1}
        assert _dense_divide({(0,): 5}, b) is None
        assert _dense_divide({}, b) == {}

    @settings(max_examples=150, deadline=None)
    @given(division_cases())
    def test_division_against_sympy(self, case):
        a, b = case
        assert _dense_divide(a, b) == sympy_quotient(a, b)

    @settings(max_examples=200, deadline=None)
    @given(int_polys(min_size=1), st.integers(3, 10 ** 6), st.integers(0, 50))
    def test_evaluation_and_lifting_round_trip(self, f, xi, extra):
        image = _horner(f, xi)
        assert image == _eval_last(f, xi)
        assert list(_digits(image, xi).items()) == list(
            _interpolate(image, xi).items())
        # beyond twice the largest coefficient the digits give f back
        big = 2 * max(map(abs, f.values())) + 1 + extra
        assert _digits(_horner(f, big), big) == f
        assert _interpolate(_eval_last(f, big), big) == f

    @settings(max_examples=60, deadline=None)
    @given(planted_pairs(("q",)))
    def test_gcd_matches_the_sparse_path_and_sympy(self, pair):
        a, b, _ = pair
        got = gcd_cofactors(a, b)
        with pytest.MonkeyPatch.context() as mp:
            sparse_gcd_path(mp)
            want = gcd_cofactors(a, b)
        assert got == want
        assert [list(p.terms.items()) for p in got] == [
            list(p.terms.items()) for p in want]
        assert got[0] == sympy_gcd(a, b)

    @settings(max_examples=100, deadline=None)
    @given(poly_terms(("q", "Q", "E"), laurent=True))
    def test_laurent_unit_is_the_minimum_degree(self, p):
        assert p.laurent_unit() == {v: p.min_degree(v) for v in p.vars}

    @settings(max_examples=100, deadline=None)
    @given(int_polys(min_size=1), st.integers(1, 12))
    def test_integer_content_is_one_gcd(self, f, k):
        c = rational_content(LaurentMPoly(("q",), {
            e: k * c for e, c in f.items()}))
        assert type(c) is Fraction and c == k * math.gcd(*f.values())


class TestSingleTermEarlyExit:
    """A single term is coprime to every nonzero polynomial: gcd_cofactors
    hands both inputs back untouched without running GCDHEU."""

    SINGLE = (P("3/2*q^-2*Q"), P("-7*Q^3"), P("5"), P("-2/3"))
    MULTI = (P("q^2*Q - 3"), P("q^-1 + Q/2"), P("2*q^3 - 4*q"))

    def test_single_term_against_multi_term(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("GCDHEU or unit clearing reached")

        monkeypatch.setattr(poly_module, "_heu_gcd", refuse)
        # at once: not even the Laurent units are cleared
        monkeypatch.setattr(LaurentMPoly, "clear_laurent", refuse)
        for a in self.SINGLE:
            for b in self.MULTI + self.SINGLE:
                for x, y in ((a, b), (b, a)):
                    g, qx, qy = gcd_cofactors(x, y)
                    assert g == LaurentMPoly.const(1)
                    assert qx is x and qy is y

    def test_zero_inputs_keep_their_triples(self, monkeypatch):
        def refuse(f, g):
            raise AssertionError("GCDHEU reached")

        monkeypatch.setattr(poly_module, "_heu_gcd", refuse)
        zero, one = LaurentMPoly.zero(), LaurentMPoly.const(1)
        m, c = P("-3/2*q^-2*Q"), P("-5")
        g, qm, qz = gcd_cofactors(m, zero)
        assert (g, qm, qz) == (one, m, zero) and qz is zero
        g, qz, qm = gcd_cofactors(zero, m)
        assert (g, qz, qm) == (one, zero, m) and qz is zero
        assert gcd_cofactors(c, zero) == (one, c, zero)
        assert gcd_cofactors(zero, zero) == (zero, zero, zero)

    def test_denominator_one_is_already_canonical(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("unit clearing reached")

        num, one = P("q^-1 - 2*Q"), LaurentMPoly.const(1)
        monkeypatch.setattr(LaurentMPoly, "clear_laurent", refuse)
        got = _push_units(num, one)
        assert got[0] is num and got[1] is one
