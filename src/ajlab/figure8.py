"""Built-in figure-eight data: the certificate operators for the one-index
sum, the cubic annihilator, and the target elimination polynomial.

Everything here is constructed from literal coefficient data so the
algebraic machinery can be tested against it rather than through it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .laurent import LaurentMPoly
from .ore import OreOperator, SequenceFn, ore_apply, ore_mul
from .poly import parse_poly, poly_lcm
from .qhg import _int_point, _rational_q, jones_eval, jones_symbolic
from .ratfun import RationalFunction, parse_ratfun as _rf


def x_cofactor(nu: int = 0) -> OreOperator:
    """X(q,E,Q) = qQ/(1-q^3Q^2) E^2 + (1/(1-q^3Q^2) + 1/(1-qQ^2) - 1) E
    + qQ/(1-qQ^2): the left cofactor that turns the three-term coordinate
    relation into the annihilator of the summand.  Its three coefficients
    are written here only; alpha and P are built from X."""
    c2 = _rf("q*Q", "1 - q^3*Q^2")
    c1 = (_rf("1", "1 - q^3*Q^2") + _rf("1", "1 - q*Q^2")
          - RationalFunction.one())
    c0 = _rf("q*Q", "1 - q*Q^2")
    shape = {(2,) + (0,) * nu: c2, (1,) + (0,) * nu: c1, (0,) + (0,) * nu: c0}
    return OreOperator(nu, shape)


def _beyond_x(nu: int) -> OreOperator:
    """(qQ - 1/(qQ)) E, what the braces of alpha and of P add to X."""
    return OreOperator(nu, {(1,) + (0,) * nu: _rf("q*Q - q^-1*Q^-1")})


def alpha_operator() -> OreOperator:
    """The middle factor of the cubic annihilator:
    (1/(1+qQ)) { X + (qQ - 1/(qQ)) E }."""
    braces = x_cofactor() + _beyond_x(0)
    return braces.scale(_rf("1", "q*Q + 1"))


@lru_cache(maxsize=None)
def _p0_operator() -> OreOperator:
    pre = OreOperator.scalar(_rf("q*Q + 1"))
    post = OreOperator.scalar(_rf("Q - 1"))
    return ore_mul(ore_mul(pre, alpha_operator()), post)


def p0_operator() -> OreOperator:
    """P0(E,Q) = (1+qQ) alpha(q,E,Q) (Q-1): the operator whose action on
    the full sum is inhomogeneous with right side -(q^(n+1)+1).  Built
    once; each call hands out its own copy of the term dict."""
    return OreOperator(0, _p0_operator().terms)


def p_full() -> OreOperator:
    """P(E,Q,Et1) = { X Et1 + (qQ - 1/(qQ)) E } (Q-1), the annihilator of
    the summand."""
    braces = ore_mul(x_cofactor(1), OreOperator.shift(1, 1)) + _beyond_x(1)
    return ore_mul(braces, OreOperator.scalar(_rf("Q - 1"), 1))


def cubic_displayed() -> OreOperator:
    """The cubic annihilator of the full sum, with its published
    coefficient presentation transcribed literally."""
    c3 = _rf("q^4*Q*(-1 + q^3*Q)", "(q + q^3*Q)*(q - q^6*Q^2)")
    c2 = _rf("(-q + q^3*Q)*(q^4 + q^5*Q - 2*q^6*Q - q^7*Q^2 + q^8*Q^2"
             " - q^9*Q^2 - 2*q^10*Q^3 + q^11*Q^3 + q^12*Q^4)",
             "q^4*Q*(q^2 + q^3*Q)*(-q + q^6*Q^2)")
    c1 = _rf("-(q^2 - q^3*Q)*(q^8 - 2*q^9*Q + q^10*Q - q^9*Q^2 + q^10*Q^2"
             " - q^11*Q^2 + q^10*Q^3 - 2*q^11*Q^3 + q^12*Q^4)",
             "q^5*Q*(q + q^3*Q)*(q^5 - q^6*Q^2)")
    c0 = _rf("q^5*Q*(-q^3 + q^3*Q)", "(q^2 + q^3*Q)*(-q^5 + q^6*Q^2)")
    return OreOperator(0, {(3,): c3, (2,): c2, (1,): c1, (0,): c0})


def cubic_operator() -> OreOperator:
    """(E - 1) alpha(q,E,Q) (Q - 1), built by operator multiplication;
    equal to the displayed cubic."""
    e = OreOperator.shift(0)
    one = OreOperator.scalar(1)
    return ore_mul(ore_mul(e - one, alpha_operator()),
                   OreOperator.scalar(_rf("Q - 1")))


def a_polynomial_nonabelian() -> LaurentMPoly:
    """The nonabelian factor of the A-polynomial, in (l, alpha)."""
    return parse_poly("alpha^4*l^2 + (-1 + alpha^2 + 2*alpha^4 + alpha^6"
                      " - alpha^8)*l + alpha^4")


@lru_cache(maxsize=None)
def _jones_cached(n: int, qval: Fraction) -> Fraction:
    return jones_eval(n, qval)


def jones_evaluator() -> SequenceFn:
    """The full sum as a sequence: J(n) at the point (n,), 0 for n < 1."""
    def jones(point: tuple[int, ...], qval: Fraction) -> Fraction:
        if len(point) != 1:
            raise DomainError(f"the full sum takes one color, got {point}")
        qval = _rational_q(qval)
        n, = _int_point(point)
        return _jones_cached(n, qval) if n >= 1 else Fraction(0)
    return jones


# colors overlap across n and across calls of recurrence_report
@lru_cache(maxsize=None)
def _jones_symbolic_cached(n: int) -> RationalFunction:
    return RationalFunction(jones_symbolic(n), LaurentMPoly.const(1))


SAMPLE_QS = (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(7),
             Fraction(11))


def _q_span(p: LaurentMPoly) -> int:  # p nonzero
    return p.degree("q") - p.min_degree("q")


def recurrence_report(ns=range(1, 9), qs=SAMPLE_QS) -> list[dict]:
    """Check  P0 . J(n) + q^(n+1) + 1 = 0  two ways for every color n:
    exact values at the q samples, and as an identity in the rational
    functions of q (with the meridian bound to q^n).

    Each row records the q-degree span of the cleared identity next to
    the sample count: a sample-only certificate would need more points
    than that span, so the symbolic pass is the one that proves the
    identity; the samples cross-check the evaluators.  Every part is
    univariate in q, so a part's cleared span is additive:
    span(num) + span(common denominator) - span(den), nothing multiplied.
    """
    p0 = _p0_operator()
    jev = jones_evaluator()
    rows = []
    for n in ns:
        if _int_point((n,))[0] < 1:
            raise DomainError(f"colors start at 1, got {n}")
        qvals = [_rational_q(qv) for qv in qs]
        sampled_ok = all(
            ore_apply(p0, jev, (n,), qv) == -(qv ** (n + 1) + 1)
            for qv in qvals)
        qn = LaurentMPoly.var("q", n)
        inhom = RationalFunction(
            LaurentMPoly.var("q", n + 1) + LaurentMPoly.const(1),
            LaurentMPoly.const(1))
        parts = [inhom]
        for e, c in p0.terms.items():
            parts.append(c.subst({"Q": qn})
                         * _jones_symbolic_cached(n + e[0]))
        total = RationalFunction.zero()
        for t in parts:
            total = total + t
        common = LaurentMPoly.const(1)
        for t in parts:
            common = poly_lcm(common, t.den)
        span = max(_q_span(t.num) + _q_span(common) - _q_span(t.den)
                   if t else 0 for t in parts)
        rows.append({
            "n": n,
            "samples": len(qvals),
            "sampled_ok": sampled_ok,
            "symbolic_ok": total.is_zero(),
            "degree_span": span,
        })
    return rows
