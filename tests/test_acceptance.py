"""The ten headline checks, one test per criterion.

Each test prints a single ``criterion N PASS/FAIL`` line on the real
terminal (past the capture) and then asserts, so both the human-readable
verdict and the pytest outcome agree.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from ajlab.dilog import li2
from ajlab.elim import aj_compare, eliminate, ratio_system
from ajlab.figure8 import (
    a_polynomial_nonabelian,
    alpha_operator,
    cubic_displayed,
    cubic_operator,
    jones_evaluator,
    p0_operator,
    p_full,
    recurrence_report,
)
from ajlab.ore import OreOperator, expand_at_one, ore_apply, ore_mul
from ajlab.poly import LaurentMPoly, parse_poly, resultant
from ajlab.potential import builtin_potential, prop_comp_check, solve_saddle, volume
from ajlab.qhg import habiro_figure_eight, shift_ratio
from ajlab.ratfun import RationalFunction, format_ratfun


def _verdict(capsys, num: int, ok: bool, label: str) -> None:
    with capsys.disabled():
        print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {label}",
              flush=True)


SAMPLE_NS = range(1, 9)
SAMPLE_QS = (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(7),
             Fraction(11))


def test_criterion_01_elimination_reproduces_the_curve(capsys):
    system = ratio_system(habiro_figure_eight(), "linear")
    t0 = time.perf_counter()
    cand = eliminate(system)
    dt = time.perf_counter() - t0
    ok = cand.poly == a_polynomial_nonabelian() and dt < 1.0
    _verdict(capsys, 1, ok,
             f"elimination yields the nonabelian curve exactly "
             f"({dt * 1000:.0f} ms)")
    assert cand.poly == a_polynomial_nonabelian()
    assert dt < 1.0


def test_criterion_02_shift_polynomial_matches_the_eliminant(capsys):
    cmp_ = aj_compare(p0_operator(), a_polynomial_nonabelian())
    unit_ok = (bool(cmp_.unit)
               and set(cmp_.unit.variables()) <= {"alpha"}
               and cmp_.unit.eval_exact({"alpha": Fraction(2)}) != 0)
    ok = cmp_.match and unit_ok
    _verdict(capsys, 2, ok,
             f"q = 1 operator matches the curve, unit "
             f"{format_ratfun(cmp_.unit)}")
    assert cmp_.match
    assert unit_ok


def test_criterion_03_inhomogeneous_recurrence(capsys):
    rows = recurrence_report(ns=SAMPLE_NS, qs=SAMPLE_QS)
    sampled = all(r["sampled_ok"] for r in rows)
    symbolic = all(r["symbolic_ok"] for r in rows)
    spans = [r["degree_span"] for r in rows]
    ok = sampled and symbolic and len(rows) == 8
    _verdict(capsys, 3, ok,
             "second-order recurrence with right side -(q^(n+1) + 1) "
             f"exact on the 40-point grid and symbolically in q "
             f"(identity degree spans {spans[0]}..{spans[-1]})")
    assert sampled
    assert symbolic
    # five samples never cover the cleared identity's degree span; the
    # symbolic pass above is what certifies it
    assert all(s > r["samples"] for s, r in zip(spans, rows))


def test_criterion_04_cubic_annihilator_and_its_factorization(capsys):
    cub = cubic_displayed()
    jev = jones_evaluator()
    bad = [(n, qv) for n in SAMPLE_NS for qv in SAMPLE_QS
           if ore_apply(cub, jev, (n,), qv) != 0]
    # literal reconstruction, middle scalars included:
    # (E - 1) (1+qQ)^-1 (1+qQ) alpha (Q - 1)
    e = OreOperator.shift(0)
    one = OreOperator.scalar(1)
    q_q = RationalFunction(parse_poly("q*Q + 1"), parse_poly("1"))
    chain = ore_mul(e - one, OreOperator.scalar(q_q.inverse()))
    chain = ore_mul(chain, OreOperator.scalar(q_q))
    chain = ore_mul(chain, alpha_operator())
    chain = ore_mul(chain, OreOperator.scalar(
        RationalFunction(parse_poly("Q - 1"), parse_poly("1"))))
    product_ok = chain == cub and cubic_operator() == cub
    ok = not bad and product_ok
    _verdict(capsys, 4, ok,
             "cubic annihilates the sum on the grid and equals its "
             "factored form term by term")
    assert bad == []
    assert product_ok


def test_criterion_05_all_ten_ratio_form_identities(capsys):
    rows = prop_comp_check(True) + prop_comp_check(False)
    ok = len(rows) == 10 and all(r["pass"] for r in rows)
    _verdict(capsys, 5, ok,
             "all 10 derivative-form identities hold exactly "
             "(5 per crossing sign)")
    assert len(rows) == 10
    for r in rows:
        assert r["pass"], r["identity"]


def test_criterion_06_volume(capsys):
    mpmath = pytest.importorskip("mpmath")
    t0 = time.perf_counter()
    v = volume()
    dt = time.perf_counter() - t0
    series = 2 * li2(cmath.exp(1j * math.pi / 3)).imag
    with mpmath.workdps(30):
        indep = float(2 * mpmath.polylog(2, mpmath.e ** (
            1j * mpmath.pi / 3)).imag)
    ok = (abs(v - 2.029883212819307) < 1e-9
          and abs(v - series) < 1e-9
          and abs(v - indep) < 1e-9
          and dt < 0.1)
    _verdict(capsys, 6, ok,
             f"volume {v:.15f} within 1e-9 of the dilogarithm value "
             f"({dt * 1000:.1f} ms)")
    assert abs(v - 2.029883212819307) < 1e-9
    assert abs(v - indep) < 1e-9
    assert dt < 0.1


def test_criterion_07_saddle_longitude_consistency(capsys):
    res = solve_saddle(builtin_potential(), -1.0 + 0j, 0.5 + 0.8j)
    l2_ok = abs(res.l_squared - 1) < 1e-10
    lroot = cmath.sqrt(res.l_squared)
    sq = ratio_system(habiro_figure_eight(), "squared")
    point = {"x": res.coords["x"], "alpha": -1.0 + 0j, "l": lroot}
    r_sq = sq.residual(point)
    # the one-step ratio fixes the sign of l; feed its own value back in
    lin = ratio_system(habiro_figure_eight(), "linear")
    lin_ratio = RationalFunction(parse_poly("1 - alpha^2*x"),
                                 parse_poly("x - alpha^2"))
    lval = (lin_ratio.num.eval_complex(point)
            / lin_ratio.den.eval_complex(point))
    r_lin = lin.residual({**point, "l": lval})
    ok = l2_ok and r_sq < 1e-10 and r_lin < 1e-10
    _verdict(capsys, 7, ok,
             f"l^2 = 1 within 1e-10 and the saddle satisfies the ratio "
             f"systems (residuals {r_sq:.1e}, {r_lin:.1e})")
    assert l2_ok
    assert r_sq < 1e-10
    assert r_lin < 1e-10


def test_criterion_08_asymptotic_convergence(capsys):
    from ajlab.potential import asymptotic_check
    rows = asymptotic_check()
    errs = [r["rel_err"] for r in rows]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    in_band = all(1.5 <= r <= 2.5 for r in ratios)
    ok = decreasing and in_band
    _verdict(capsys, 8, ok,
             "discrete/continuous gap shrinks monotonically with "
             f"halving ratios {['%.2f' % r for r in ratios]}")
    assert decreasing
    assert in_band


def _random_poly(rng, nvars=2, max_terms=3):
    names = ("q", "Q")[:nvars]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(-1, 2) for _ in names)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[e] = terms.get(e, 0) + c
    p = sum((LaurentMPoly.monomial(c, dict(zip(names, e)))
             for e, c in terms.items() if c), LaurentMPoly.zero())
    return p


def _random_univariate(rng, var="l", max_deg=2):
    while True:
        coeffs = [rng.randint(-4, 4) for _ in range(max_deg + 1)]
        if coeffs[-1] != 0:
            break
    return sum((LaurentMPoly.monomial(c, {var: k})
                for k, c in enumerate(coeffs) if c), LaurentMPoly.zero())


def _random_operator(rng):
    dens = [parse_poly("1"), parse_poly("q"), parse_poly("Q"),
            parse_poly("q*Q + 1")]
    terms = {}
    for k in (0, 1):
        num = _random_poly(rng)
        if num.is_zero():
            num = LaurentMPoly.const(1)
        terms[(k,)] = RationalFunction(num, rng.choice(dens))
    return OreOperator(0, terms)


def test_criterion_09_property_batteries(capsys, telescope_sum_check):
    rng = random.Random(20260822)
    failures = []

    # exact-algebra ring laws + resultant multiplicativity
    ring_cases = 0
    for _ in range(140):
        a, b, c = (_random_poly(rng) for _ in range(3))
        if (a + b) * c != a * c + b * c or a * b != b * a:
            failures.append("ring law")
        ring_cases += 1
    for _ in range(80):
        a = _random_univariate(rng)
        b = _random_univariate(rng)
        c = _random_univariate(rng)
        lhs = resultant(a * b, c, "l")
        rhs = resultant(a, c, "l") * resultant(b, c, "l")
        if lhs != rhs:
            failures.append(f"resultant multiplicativity: {a}, {b}, {c}")
        ring_cases += 1

    # shift-operator associativity
    ore_cases = 0
    for _ in range(100):
        x, y, z = (_random_operator(rng) for _ in range(3))
        if ore_mul(ore_mul(x, y), z) != ore_mul(x, ore_mul(y, z)):
            failures.append("ore associativity")
        ore_cases += 1

    # shift ratios against direct summand quotients
    term = habiro_figure_eight()
    sev = term.eval_exact
    ratio_cases = 0
    steps = {"E": (1, 0), "Em": (2, 0), "Et1": (0, 1)}
    for which, (dn, di) in steps.items():
        r = shift_ratio(term, which)
        for qv in (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7)):
            for n in range(1, 7):
                for i in range(0, n):
                    if i + di > n + dn - 1:
                        continue  # shifted point leaves the support
                    env = {"q": qv, "Q": qv ** n, "Qt1": qv ** i}
                    want = sev((n + dn, i + di), qv) / sev((n, i), qv)
                    if r.eval_exact(env) != want:
                        failures.append(f"ratio {which} at {(n, i, qv)}")
                    ratio_cases += 1

    # telescoped boundary identity
    p0, rs = expand_at_one(p_full())
    tel_cases = 0
    for qv in (Fraction(2), Fraction(5, 2)):
        for n in range(1, 9):
            got = telescope_sum_check(p0, rs, sev, n, [(0, n + 1)], qv)
            if got != -(qv ** (n + 1) + 1):
                failures.append(f"telescope at {(n, qv)}")
            tel_cases += 1

    counts_ok = (ring_cases >= 200 and ore_cases >= 100
                 and ratio_cases >= 150 and tel_cases >= 16)
    ok = not failures and counts_ok
    _verdict(capsys, 9, ok,
             f"property batteries clean ({ring_cases} algebra, "
             f"{ore_cases} associativity, {ratio_cases} ratio, "
             f"{tel_cases} telescope cases)")
    assert counts_ok
    assert failures == []


def test_criterion_10_documented_exclusion(capsys):
    # fully symbolic operator elimination at generic q is beyond desk
    # scale; the exact recurrence certificates of criteria 3 and 4 are
    # the agreed stand-in, so this line records the substitution
    ok = True
    _verdict(capsys, 10, ok,
             "generic-q operator elimination excluded; certified "
             "recurrences (criteria 3-4) stand in")
    assert ok
