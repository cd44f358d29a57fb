"""Skew-operator algebra: products, certificates, limits."""

import random
import re
from fractions import Fraction

import pytest

from ajlab.errors import DomainError
from ajlab.figure8 import (
    alpha_operator,
    cubic_displayed,
    cubic_operator,
    jones_evaluator,
    p0_operator,
    p_full,
    recurrence_report,
    x_cofactor,
)
from ajlab.ore import (
    OreOperator,
    _twist_images,
    _twist_rf,
    epsilon_eval_with_unit,
    expand_at_one,
    ore_apply,
    ore_mul,
)
from ajlab.poly import LaurentMPoly, exact_divide, parse_poly, poly_lcm
from ajlab.qhg import habiro_figure_eight, jones_eval, jones_symbolic
from ajlab.ratfun import RationalFunction

P = parse_poly


def rf(num, den="1"):
    return RationalFunction(P(num), P(den))


def E(nu=0):
    return OreOperator.shift(0, nu)


def embed(op, nu=1):
    """A lattice-free operator in the algebra with nu lattice directions."""
    return OreOperator(nu, {e + (0,) * nu: c for e, c in op.terms.items()})


def r_certificate(nu=0):
    """R(E,Q) = X(q,E,Q) (Q-1), the lattice-direction certificate."""
    return ore_mul(x_cofactor(nu), OreOperator.scalar(rf("Q - 1"), nu))


class TestProduct:
    def test_commutation_relation(self):
        # E * Q = q * Q * E
        lhs = ore_mul(E(), OreOperator.scalar(rf("Q")))
        assert lhs == OreOperator(0, {(1,): rf("q*Q")})

    def test_lattice_commutation(self):
        et1 = OreOperator.shift(1, nu=1)
        qt1 = OreOperator.scalar(rf("Qt1"), nu=1)
        assert ore_mul(et1, qt1) == OreOperator(1, {(0, 1): rf("q*Qt1")})
        # E passes Qt1 freely, Et1 passes Q freely
        assert ore_mul(E(nu=1), qt1) == OreOperator(1, {(1, 0): rf("Qt1")})
        q_op = OreOperator.scalar(rf("Q"), nu=1)
        assert ore_mul(et1, q_op) == OreOperator(1, {(0, 1): rf("Q")})

    def test_denominators_twist_too(self):
        a = E()
        b = OreOperator.scalar(rf("1", "Q - 1"))
        assert ore_mul(a, b) == OreOperator(0, {(1,): rf("1", "q*Q - 1")})

    def test_mixed_algebras_rejected(self):
        with pytest.raises(DomainError):
            ore_mul(E(), E(nu=1))

    def test_coefficient_symbols_checked(self):
        with pytest.raises(DomainError):
            OreOperator(0, {(0,): rf("x + 1")})
        with pytest.raises(DomainError):
            OreOperator(0, {(0,): rf("Qm^2")})  # no half-meridian
        with pytest.raises(DomainError):
            OreOperator(0, {(0,): rf("Qt1")})  # no lattice at nu=0
        OreOperator(1, {(0, 0): rf("Qt1")})  # fine at nu=1

    @pytest.mark.parametrize("nu, exp", [
        (0, (1.5,)),  # int() would truncate it to E
        (0, (-0.5,)),
        (1, (0, 2.5)),
        # integral but not int: refused too, not read as E^2 or E^4
        (0, (2.0,)),
        (0, (Fraction(4),)),
        (1, (Fraction(1), 0)),
        (0, ("1",)),
    ])
    def test_non_integer_shift_exponents_are_refused(self, nu, exp):
        with pytest.raises(DomainError, match=re.escape(
                f"shift exponent {exp!r} has a non-integer entry")):
            OreOperator(nu, {exp: rf("Q")})

    def test_associativity_randomized(self):
        rng = random.Random(20260822)
        mons = [rf("q"), rf("Q"), rf("q*Q"), rf("Qt1"), rf("Q - 1"),
                rf("1", "Q + 2"), rf("q^2*Qt1 - 1"), rf("3"),
                rf("Q*Qt1", "q + 1")]

        def rand_op():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                terms[e] = rng.choice(mons)
            return OreOperator(1, terms)

        for _ in range(100):
            a, b, c = rand_op(), rand_op(), rand_op()
            assert ore_mul(ore_mul(a, b), c) == ore_mul(a, ore_mul(b, c))

    def test_distributes_over_sum(self):
        a = OreOperator(0, {(1,): rf("Q"), (0,): rf("q")})
        b = OreOperator(0, {(2,): rf("1", "Q - 1")})
        c = OreOperator(0, {(0,): rf("Q + 1")})
        assert ore_mul(a, b + c) == ore_mul(a, b) + ore_mul(a, c)

    def test_twist_needs_no_gcd(self):
        # v -> v*q^k is an automorphism of the Laurent ring, so a twisted
        # reduced pair only has its units moved; check that against the
        # full reduction for every shift and coefficient of the built-in
        # operators, plus shifts and coefficients whose twists move a
        # sign or a monomial onto the numerator
        ops = [p_full(), cubic_operator(), cubic_displayed()] + [
            embed(f(), nu) for nu in (0, 1) for f in (
                x_cofactor, r_certificate, alpha_operator, p0_operator)]
        extra = [rf("1", "q^3 - Q"), rf("Q + 2", "q*Q + 3")]
        checked = moved = 0
        for nu in (0, 1):
            same = [op for op in ops if op.nu == nu]
            coeffs = [c for op in same for c in op.terms.values()] + extra
            if nu:
                coeffs.append(rf("Qt1", "q^2 - Q*Qt1"))
            shifts = {e for op in same for e in op.terms}
            shifts |= {(-1,) + (2,) * nu, (3,) + (-1,) * nu}
            for ea in shifts:
                images = _twist_images(ea)
                for c in coeffs:
                    got = _twist_rf(c, images)
                    num = c.num.subst_monomials(images)
                    den = c.den.subst_monomials(images)
                    full = RationalFunction(num, den)
                    assert (got.num, got.den) == (full.num, full.den)
                    checked += 1
                    moved += (num, den) != (full.num, full.den)
        assert (checked, moved) == (262, 39)

    def test_cofactor_factorizations(self):
        # X = (qQ/(1-q^3Q^2) E + 1/(1-qQ^2)) (E + qQ)
        #   = (1/(1-q^3Q^2) E + qQ/(1-qQ^2)) (1 + QE)
        x = x_cofactor()
        left1 = OreOperator(0, {(1,): rf("q*Q", "1 - q^3*Q^2"),
                                (0,): rf("1", "1 - q*Q^2")})
        right1 = OreOperator(0, {(1,): rf("1"), (0,): rf("q*Q")})
        left2 = OreOperator(0, {(1,): rf("1", "1 - q^3*Q^2"),
                                (0,): rf("q*Q", "1 - q*Q^2")})
        right2 = OreOperator(0, {(1,): rf("Q"), (0,): rf("1")})
        assert ore_mul(left1, right1) == x
        assert ore_mul(left2, right2) == x

    def test_alpha_and_p_as_first_transcribed(self):
        # alpha's and P's braces written out coefficient by coefficient
        # equal X + (qQ - 1/(qQ)) E and X Et1 + (qQ - 1/(qQ)) E
        c2 = rf("q*Q", "1 - q^3*Q^2")
        c0 = rf("q*Q", "1 - q*Q^2")
        for nu in (0, 1):
            z = (0,) * nu
            braces = OreOperator(nu, {
                (2,) + z: c2,
                (1,) + z: (rf("1", "1 - q^3*Q^2") + rf("1", "1 - q*Q^2")
                           + rf("q*Q") - rf("1") - rf("q^-1*Q^-1")),
                (0,) + z: c0})
            assert (embed(alpha_operator(), nu)
                    == braces.scale(rf("1", "q*Q + 1")))
        braces = OreOperator(1, {
            (2, 1): c2,
            (1, 1): (rf("1", "1 - q^3*Q^2") + rf("1", "1 - q*Q^2")
                     - rf("1")),
            (1, 0): rf("q*Q") - rf("q^-1*Q^-1"),
            (0, 1): c0,
        })
        assert p_full() == ore_mul(braces,
                                   OreOperator.scalar(rf("Q - 1"), 1))


class TestApply:
    def test_shift_action(self):
        # E acts as n -> n+1 on a bare sequence
        assert ore_apply(E(), lambda pt, qv: Fraction(pt[0]), (4,), 2) == 5

    def test_meridian_value(self):
        def f(pt, qv):
            return Fraction(1)

        op = OreOperator.scalar(rf("Q"))
        assert ore_apply(op, f, (3,), 2) == 8
        assert ore_apply(op, f, (3,), Fraction(1, 2)) == Fraction(1, 8)

    def test_compatible_with_product(self):
        a = OreOperator(0, {(1,): rf("Q"), (0,): rf("q + 1")})
        b = OreOperator(0, {(1,): rf("1", "Q + 1"), (0,): rf("Q^2")})

        def f(pt, qv):
            return Fraction(2) ** pt[0] + pt[0]

        def bf(pt, qv):
            return ore_apply(b, f, pt, qv)

        for n in range(0, 5):
            for qv in (2, 3, Fraction(5, 2)):
                assert (ore_apply(ore_mul(a, b), f, (n,), qv)
                        == ore_apply(a, bf, (n,), qv))

    def test_inhomogeneous_action_on_full_sum(self):
        p0 = p0_operator()
        j = jones_evaluator()
        for qv in (2, 3, Fraction(5, 2), 7, 11):
            for n in range(1, 9):
                lhs = ore_apply(p0, j, (n,), qv)
                assert lhs == -(Fraction(qv) ** (n + 1) + 1), (n, qv)

    @pytest.mark.parametrize("point", [(1.9,), (2.0,), (Fraction(2),)])
    def test_non_integer_point_is_refused(self, point):
        # truncating (1.9,) to n = 1 would give -5, the value there
        with pytest.raises(DomainError, match=re.escape(
                f"point {point} has a non-integer entry")):
            ore_apply(p0_operator(), jones_evaluator(), point, 2)

    def test_full_sum_sequence_is_zero_below_color_one(self):
        jev = jones_evaluator()
        for qv in (2, Fraction(5, 2)):
            for n in range(-1, 5):
                assert jev((n,), qv) == (jones_eval(n, qv) if n >= 1 else 0)
        with pytest.raises(DomainError, match="one color, got"):
            ore_apply(p_full(), jev, (2, 0), 2)

    def test_cubic_annihilates_full_sum(self):
        cub = cubic_displayed()
        j = jones_evaluator()
        for qv in (2, 3, Fraction(5, 2), 7, 11):
            for n in range(1, 9):
                assert ore_apply(cub, j, (n,), qv) == 0, (n, qv)


class TestCertificate:
    def test_expansion_recovers_parts(self):
        p0, rs = expand_at_one(p_full())
        assert p0 == embed(p0_operator())
        assert rs == [r_certificate(nu=1)]

    def test_expansion_needs_lattice_free_coefficients(self):
        bad = OreOperator(1, {(0, 1): rf("Qt1")})
        with pytest.raises(DomainError):
            expand_at_one(bad)

    def test_expansion_of_lattice_free_input_is_trivial(self):
        p = embed(p0_operator())
        p0, rs = expand_at_one(p)
        assert p0 == p
        assert all(r.is_zero() for r in rs)

    def test_summand_annihilated_by_p(self):
        p = p_full()
        f = habiro_figure_eight().eval_exact
        for qv in (2, 3, Fraction(5, 2)):
            for n in range(1, 6):
                for i in range(0, n + 2):
                    assert ore_apply(p, f, (n, i), qv) == 0, (n, i, qv)

    def test_telescoped_residual_matches_bottom_row(self,
                                                    telescope_sum_check):
        p0, rs = expand_at_one(p_full())
        f = habiro_figure_eight().eval_exact
        res = telescope_sum_check(p0, rs, f, 2, [(0, 3)], 2)
        assert res == -9
        for qv in (3, Fraction(5, 2), 7):
            for n in range(1, 7):
                res = telescope_sum_check(p0, rs, f, n, [(0, n + 1)], qv)
                assert res == -(Fraction(qv) ** (n + 1) + 1), (n, qv)

    def test_homogenized_matches_cubic(self):
        # P0 . J = b with b = -(qQ + 1), so (E - 1) b^-1 P0 annihilates J;
        # it is minus the cubic
        b = rf("-q*Q - 1")
        binv = OreOperator.scalar(b.inverse())
        made = ore_mul(ore_mul(E() - OreOperator.scalar(1), binv),
                       p0_operator())
        assert -made == cubic_displayed()

    def test_cubic_product_form(self):
        assert cubic_operator() == cubic_displayed()

    def test_recurrence_report_is_two_sided(self):
        rows = recurrence_report(ns=(1, 2, 3), qs=(Fraction(2),))
        assert [r["n"] for r in rows] == [1, 2, 3]
        for r in rows:
            assert r["sampled_ok"] and r["symbolic_ok"]
            assert r["samples"] == 1
            # the span a sample certificate would have to cover
            assert r["degree_span"] > r["samples"]
        spans = [r["degree_span"] for r in rows]
        assert spans == sorted(spans)
        assert spans[0] == 16  # 2(n+1)(n+2) from the widest summand + 4

    def test_recurrence_report_builds_each_color_once(self, monkeypatch):
        import ajlab.figure8 as figure8
        colors = []

        def counted(n):
            colors.append(n)
            return jones_symbolic(n)

        monkeypatch.setattr(figure8, "jones_symbolic", counted)
        figure8._jones_symbolic_cached.cache_clear()
        recurrence_report(ns=(1, 2, 3), qs=(Fraction(2),))
        assert sorted(colors) == [1, 2, 3, 4, 5]

    def test_recurrence_report_shares_colors_across_calls(self, monkeypatch):
        # the colors are kept for the process, as jones_eval's values are:
        # a second, overlapping call builds only the colors it adds
        import ajlab.figure8 as figure8
        qs = (Fraction(2), Fraction(-5, 3))
        colors = []

        def counted(n):
            colors.append(n)
            return jones_symbolic(n)

        monkeypatch.setattr(figure8, "jones_symbolic", counted)
        figure8._jones_symbolic_cached.cache_clear()
        first = recurrence_report(ns=(1, 2, 3), qs=qs)
        second = recurrence_report(ns=(2, 3, 4), qs=qs)
        assert sorted(colors) == [1, 2, 3, 4, 5, 6]
        assert first + second[-1:] == [multiplied_out_row(n, qs)
                                       for n in (1, 2, 3, 4)]
        assert second[:2] == first[1:]

    def test_recurrence_report_rejects_bad_colors(self):
        with pytest.raises(DomainError):
            recurrence_report(ns=(0,))

    def test_recurrence_report_matches_multiplied_out_oracle(self):
        qs = (Fraction(2), Fraction(-5, 3))
        assert recurrence_report(ns=range(1, 13), qs=qs) == [
            multiplied_out_row(n, qs) for n in range(1, 13)]

    def test_cached_p0_cannot_be_changed_by_a_caller(self):
        first = p0_operator()
        want = {e: (c.num, c.den) for e, c in first.terms.items()}
        first.terms.clear()
        p0_operator().terms[(9,)] = RationalFunction.one()
        again = p0_operator()
        assert {e: (c.num, c.den) for e, c in again.terms.items()} == want
        rows = recurrence_report(ns=(1, 2), qs=(Fraction(3),))
        assert all(r["sampled_ok"] and r["symbolic_ok"] for r in rows)


def _q_to_the(p, n):
    """p with Q = q^n, by expanding every term on its own."""
    out = LaurentMPoly.zero()
    for e, c in p.terms.items():
        powers = dict(zip(p.vars, e))
        out = out + LaurentMPoly.monomial(
            c, {"q": powers.get("q", 0) + n * powers.get("Q", 0)})
    return out


def _habiro(n, q):
    total, prod = Fraction(0), Fraction(1)
    for i in range(n):
        if i:
            prod *= (1 - q ** (n - i)) * (1 - q ** (n + i))
        total += prod / q ** (n * i)
    return total


def multiplied_out_row(n, qs):
    """Oracle for one `recurrence_report` row: P0's coefficients taken to
    Q = q^n term by term and the identity's parts cleared to the common
    denominator by multiplying them out; the samples use Habiro's sum."""
    coeffs = {e[0]: (_q_to_the(c.num, n), _q_to_the(c.den, n))
              for e, c in p0_operator().terms.items()}
    sampled = all(
        sum(num.eval_exact({"q": q}) / den.eval_exact({"q": q})
            * _habiro(n + a, q) for a, (num, den) in coeffs.items())
        == -(q ** (n + 1) + 1) for q in qs)
    parts = [RationalFunction(LaurentMPoly.var("q", n + 1) + 1,
                              LaurentMPoly.const(1))]
    parts += [RationalFunction(num * jones_symbolic(n + a), den)
              for a, (num, den) in coeffs.items()]
    common = LaurentMPoly.const(1)
    for t in parts:
        common = poly_lcm(common, t.den)
    cleared = [t.num * exact_divide(common, t.den) for t in parts]
    spans = [p.degree("q") - p.min_degree("q") if p else 0 for p in cleared]
    return {"n": n, "samples": len(qs), "sampled_ok": sampled,
            "symbolic_ok": sum(cleared, LaurentMPoly.zero()).is_zero(),
            "degree_span": max(spans)}


class TestLimit:
    def test_reduced_shift_polynomial(self):
        prim, unit = epsilon_eval_with_unit(p0_operator())
        assert prim == P("Q^2*E^2 + (-Q^4 + Q^3 + 2*Q^2 + Q - 1)*E + Q^2")
        assert unit == RationalFunction(P("-Q^-1"), P("Q + 1"))

    def test_unit_times_primitive_reproduces_the_limit(self):
        prim, unit = epsilon_eval_with_unit(p0_operator())
        # the outer coefficients of P0 both tend to Q(Q-1)/(1-Q^2)
        want = rf("-Q", "Q + 1")
        for k in (2, 0):
            got = unit * RationalFunction(prim.coeff_of("E", k),
                                          LaurentMPoly.const(1))
            assert got == want

    def test_scale_selection(self):
        # coefficients vanishing at different orders: only the lowest
        # order survives
        op = OreOperator(0, {(1,): rf("q - 1"), (0,): rf("(q - 1)^2*Q")})
        prim, unit = epsilon_eval_with_unit(op)
        assert prim == P("E")
        assert unit == RationalFunction.one()

    def test_pole_scale(self):
        # a simple pole sets the scale; finite coefficients then vanish
        op = OreOperator(0, {(1,): rf("Q", "q - 1"), (0,): rf("Q + 1")})
        prim, unit = epsilon_eval_with_unit(op)
        assert prim == P("E")
        assert unit == rf("Q")

    def test_lattice_operators_rejected(self):
        with pytest.raises(DomainError):
            epsilon_eval_with_unit(p_full())

    def test_sign_and_content_in_unit(self):
        op = OreOperator(0, {(1,): rf("-4*Q^3", "3"), (0,): rf("-2*Q")})
        prim, unit = epsilon_eval_with_unit(op)
        assert prim == P("2*Q^2*E + 3")
        assert unit == rf("-2*Q", "3")
