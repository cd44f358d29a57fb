"""Summand data model: values, support, shift ratios, crossing tables."""

import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ajlab.cli import _load_term
from ajlab.elim import eliminate, ratio_system
from ajlab.errors import DomainError, PoleError, SupportError
from ajlab.figure8 import jones_evaluator, p0_operator, recurrence_report
from ajlab.laurent import LaurentMPoly, format_poly
from ajlab.ore import ore_apply
from ajlab.poly import parse_poly
from ajlab.qhg import (
    LinearForm,
    _SUPPORT_MAX_WIDTH,
    _SymbolicRun,
    _dense_q,
    _over_one_minus,
    _row_bounds,
    _run_sum,
    _times_one_minus,
    PochFactor,
    ProperQHTerm,
    QuadForm,
    build_crossing,
    epsilon_ratio,
    habiro_figure_eight,
    jones_eval,
    jones_symbolic,
    lattice_sum,
    shift_ratio,
)
from ajlab.ratfun import RationalFunction

P = parse_poly


def rf(num, den="1"):
    return RationalFunction(P(num), P(den))


def qp(qv, k):
    """(q)_k at an exact value."""
    prod = Fraction(1)
    for j in range(1, k + 1):
        prod *= 1 - Fraction(qv) ** j
    return prod


def value(form, env):
    """A LinearForm or QuadForm at the symbol values env, added up term by
    term from its stored coefficients: the oracle for the compiled rows."""
    if isinstance(form, QuadForm):
        return value(form.lin, env) + sum(c * env[a] * env[b]
                                          for (a, b), c in form.quad)
    return form.const + sum(c * env[s] for s, c in form.coeffs)


def coeff(form, sym):
    """The coefficient of sym in a LinearForm, 0 when it is absent."""
    return dict(form.coeffs).get(sym, 0)


def so3_plus_literal(m, k1, k2, k3, k4, qv):
    """Positive-crossing entry straight from its defining expression."""
    lengths = [m + k4 - k3, m + k4 - k1, k2 + k4 - k1 - k3,
               m + k1 - k2, m + k3 - k2]
    if any(x < 0 for x in lengths):
        return Fraction(0)
    e = (m * m + m - (k2 - k1) * (k3 - k2)
         - m * (k2 + k4 - k1 - k3))
    val = Fraction(qv) ** e if e >= 0 else 1 / Fraction(qv) ** (-e)
    val *= qp(qv, lengths[0]) * qp(qv, lengths[1])
    val /= qp(qv, lengths[2]) * qp(qv, lengths[3]) * qp(qv, lengths[4])
    return val


def so3_minus_literal(m, k1, k2, k3, k4, qv):
    lengths = [m + k1 - k4, m + k3 - k4, k1 + k3 - k2 - k4,
               m + k2 - k3, m + k2 - k1]
    if any(x < 0 for x in lengths):
        return Fraction(0)
    e = (-(m * m + m) + (k3 - k4) * (k4 - k1)
         - m * (k1 + k3 - k2 - k4))
    val = Fraction(qv) ** e if e >= 0 else 1 / Fraction(qv) ** (-e)
    val *= (-1) ** ((k1 + k3 - k2 - k4) % 2)
    val *= qp(qv, lengths[0]) * qp(qv, lengths[1])
    val /= qp(qv, lengths[2]) * qp(qv, lengths[3]) * qp(qv, lengths[4])
    return val


def support_forms(term):
    """The forms that must be nonnegative: lengths, then constraints."""
    return tuple(f.length for f in term.poch) + term.constraints


def literal_in_support(term, point):
    """Every Pochhammer length and every constraint is nonnegative."""
    env = dict(zip(term.symbols(), point))
    return all(value(f, env) >= 0 for f in support_forms(term))


# -- the support oracle: interval propagation over the stored forms --------

_SUPPORT_ROUNDS = 200  # cap on support_box's propagation rounds


def support_box(forms, fixed, free):
    """Finite bounds [lo, hi] per free symbol for the region where every
    form is nonnegative, by interval propagation; SupportError when it is
    not certified bounded, the bounds still move after _SUPPORT_ROUNDS
    rounds, or an interval is wider than _SUPPORT_MAX_WIDTH."""
    lo, hi = dict.fromkeys(free), dict.fromkeys(free)  # None: no bound yet
    # each form as its value at the fixed symbols and its free terms
    split = [(form.const + sum(c * fixed[s] for s, c in form.coeffs
                               if s in fixed),
              [(s, c) for s, c in form.coeffs if s in free and c != 0])
             for form in forms]
    for _ in range(_SUPPORT_ROUNDS):
        changed = False
        for base, fc in split:
            for s, c in fc:
                # c*s >= -base - sum of the other free parts' best case
                bound = -base
                for s2, c2 in fc:
                    if s2 != s:
                        b = hi[s2] if c2 > 0 else lo[s2]
                        if b is None:
                            break
                        bound -= c2 * b
                else:
                    bound = Fraction(bound) / c  # exact: never int / int
                    side = lo if c > 0 else hi
                    old = side[s]
                    if old is None or (bound > old if c > 0 else bound < old):
                        side[s] = bound
                        changed = True
        if not changed:
            break
    else:
        raise SupportError(f"support bounds still move after "
                           f"{_SUPPORT_ROUNDS} rounds of propagation")
    return [_certified(s, lo[s], hi[s]) for s in free]


def _certified(sym, lo, hi):
    """[ceil lo, floor hi] for sym, or the SupportError of an interval
    without both ends or wider than _SUPPORT_MAX_WIDTH."""
    if lo is None or hi is None:
        raise SupportError(f"non-finite support: no bounds for {sym} "
                           "follow from the factor lengths")
    a, b = math.ceil(lo), math.floor(hi)
    if b - a > _SUPPORT_MAX_WIDTH:
        raise SupportError(
            f"support width for {sym} exceeds {_SUPPORT_MAX_WIDTH}")
    return a, b


def literal_symbolic(term, point):
    """Per-factor oracle: every (q)_L multiplied out on its own side."""
    if not literal_in_support(term, point):
        return RationalFunction.zero()
    env = dict(zip(term.symbols(), point))
    e = value(term.quad, env)
    if e.denominator != 1:
        raise DomainError("half-integer exponent")
    num = LaurentMPoly.var("q", int(e))
    if int(value(term.sign, env)) % 2:
        num = -num
    den = LaurentMPoly.const(1)
    for f in term.poch:
        for j in range(1, int(value(f.length, env)) + 1):
            if f.denom:
                den = den * (1 - LaurentMPoly.var("q", j))
            else:
                num = num * (1 - LaurentMPoly.var("q", j))
    return RationalFunction(num, den)


def literal_exact(term, point, qv):
    """Per-factor oracle at q = qv: a vanishing (q)_L under the bar is a
    pole even where the numerator vanishes too."""
    if not literal_in_support(term, point):
        return Fraction(0)
    env = dict(zip(term.symbols(), point))
    e = value(term.quad, env)
    if e.denominator != 1:
        raise DomainError("half-integer exponent")
    if qv == 0 and e < 0:
        raise DomainError("q = 0 under a negative exponent")
    val = qv ** int(e)
    if int(value(term.sign, env)) % 2:
        val = -val
    for f in term.poch:
        prod = qp(qv, int(value(f.length, env)))
        if f.denom:
            if prod == 0:
                raise PoleError("pole")
            val /= prod
        else:
            val *= prod
    return val


def add_forms(f, g):
    """The linear form f + g."""
    d = dict(f.coeffs)
    for s, c in g.coeffs:
        d[s] = d.get(s, 0) + c
    return LinearForm.make(d, f.const + g.const)


def mul(a, b):
    """The product of two summands over the same arguments."""
    if a.colors != b.colors or a.nu != b.nu:
        raise DomainError("summands have different arguments")
    quad = dict(a.quad.quad)
    for k, c in b.quad.quad:
        quad[k] = quad.get(k, 0) + c
    lin = dict(a.quad.lin.coeffs)
    for s, c in b.quad.lin.coeffs:
        lin[s] = lin.get(s, 0) + c
    return ProperQHTerm(
        colors=a.colors, nu=a.nu, poch=a.poch + b.poch,
        quad=QuadForm.make(quad, lin, a.quad.lin.const + b.quad.lin.const),
        sign=add_forms(a.sign, b.sign),
        constraints=a.constraints + b.constraints)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DomainError, PoleError) as exc:
        return type(exc)


def trefoil():
    """The right-handed trefoil's summand: Habiro's Pochhammer factors and
    constraint times (-1)^k1 q^(k1 (k1 + 3) / 2), so its forms have
    half-integer coefficients but integer values."""
    f = habiro_figure_eight()
    return ProperQHTerm(
        colors=f.colors, nu=f.nu, poch=f.poch,
        quad=QuadForm.make({("n", "k1"): -1, ("k1", "k1"): Fraction(1, 2)},
                           {"k1": Fraction(3, 2)}),
        sign=LinearForm.make({"k1": 1}), constraints=f.constraints)


ALL_SUMMANDS = [habiro_figure_eight(), build_crossing(True), trefoil(),
                build_crossing(False)]


def random_support_points(term, rng, count, lo=-1, hi=6):
    out = []
    while len(out) < count:
        pt = tuple(rng.randint(lo, hi) for _ in term.symbols())
        if literal_in_support(term, pt):
            out.append(pt)
    return out


def constraint_only_points(term, rng, count, lo=-3, hi=6):
    """Points where every Pochhammer length is nonnegative but some extra
    constraint is not (none for a summand without constraints)."""
    out = []
    for _ in range(2000 if term.constraints else 0):
        pt = tuple(rng.randint(lo, hi) for _ in term.symbols())
        env = dict(zip(term.symbols(), pt))
        if (all(value(f.length, env) >= 0 for f in term.poch)
                and not literal_in_support(term, pt)):
            out.append(pt)
            if len(out) == count:
                break
    return out


def random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def habiro_sum(n, qv):
    """J_n = sum_{i<n} q^(-n i) prod_{j=1..i} (1 - q^(n-j)) (1 - q^(n+j))."""
    q, total = Fraction(qv), Fraction(0)
    for i in range(n):
        term = q ** (-n * i)
        for j in range(1, i + 1):
            term *= (1 - q ** (n - j)) * (1 - q ** (n + j))
        total += term
    return total


class TestAgainstPerFactorProduct:
    """The net-multiplicity evaluators against the per-factor oracle."""

    @pytest.mark.parametrize("idx", range(len(ALL_SUMMANDS)))
    def test_symbolic_matches_oracle(self, idx):
        term = ALL_SUMMANDS[idx]
        rng = random.Random(1000 + idx)
        for pt in random_support_points(term, rng, 40):
            got = term.eval_symbolic(pt)
            want = literal_symbolic(term, pt)
            assert (got.num, got.den) == (want.num, want.den), pt

    @pytest.mark.parametrize("idx", range(len(ALL_SUMMANDS)))
    def test_exact_matches_oracle(self, idx):
        term = ALL_SUMMANDS[idx]
        rng = random.Random(2000 + idx)
        points = (random_support_points(term, rng, 40)
                  + constraint_only_points(term, rng, 10))
        one, zero = Fraction(1), Fraction(0)
        for pt in points:
            r = random_rational(rng)
            for qv in (random_rational(rng), r * r, one, -one, zero):
                got = outcome(term.eval_exact, pt, qv)
                want = outcome(literal_exact, term, pt, qv)
                assert got == want, (pt, qv)

    def test_constraint_only_points_exist(self):
        # the figure-eight summand's i >= 0 is its one extra constraint
        pts = constraint_only_points(habiro_figure_eight(),
                                     random.Random(7), 10)
        assert len(pts) == 10
        assert all(pt[1] < 0 for pt in pts)


class TestPoleContract:
    def test_figure_eight_at_one_is_a_pole_in_support(self):
        f = habiro_figure_eight()
        for n in range(1, 6):
            for i in range(n):
                with pytest.raises(PoleError):
                    f.eval_exact((n, i), 1)

    def test_out_of_support_is_zero_before_any_pole(self):
        f = habiro_figure_eight()
        for pt in [(2, 5), (2, -1), (3, 3), (1, 1)]:
            assert f.eval_exact(pt, 1) == 0
            assert f.eval_exact(pt, -1) == 0

    @pytest.mark.parametrize("idx", range(len(ALL_SUMMANDS)))
    def test_minus_one_is_a_pole_iff_a_denominator_reaches_two(self, idx):
        term = ALL_SUMMANDS[idx]
        rng = random.Random(3000 + idx)
        seen = set()
        for pt in random_support_points(term, rng, 60, 0, 3):
            env = dict(zip(term.symbols(), pt))
            pole = any(f.denom and value(f.length, env) >= 2
                       for f in term.poch)
            seen.add(pole)
            if pole:
                with pytest.raises(PoleError):
                    term.eval_exact(pt, -1)
            else:
                assert term.eval_exact(pt, -1) == literal_exact(
                    term, pt, Fraction(-1))
        assert seen == {True, False}


class TestSummandValues:
    def test_figure_eight_summand_pins(self):
        f = habiro_figure_eight()
        assert f.eval_exact((2, 1), 4) == Fraction(189, 16)
        for n in range(1, 6):
            assert f.eval_exact((n, 0), 3) == 1

    def test_out_of_support_is_flagged_zero(self):
        f = habiro_figure_eight()
        for pt in ((2, 5), (2, -1)):
            assert not literal_in_support(f, pt)
            assert f.eval_exact(pt, 3) == 0
        assert not literal_in_support(f, (3, 3))
        assert literal_in_support(f, (3, 2))

    def test_product_formula_oracle(self):
        # q^(-n i) * prod_{j = n-i .. n+i, j != n} (1 - q^j)
        f = habiro_figure_eight()
        for qv in (3, Fraction(5, 2)):
            for n in range(1, 6):
                for i in range(0, n + 2):
                    expect = Fraction(qv) ** (-n * i)
                    for j in range(n - i, n + i + 1):
                        if j != n:
                            expect *= 1 - Fraction(qv) ** j
                    if i <= n - 1:
                        assert f.eval_exact((n, i), qv) == expect, (n, i)
                    else:
                        # out of support; the literal product vanishes too
                        assert f.eval_exact((n, i), qv) == 0
                        assert expect == 0

    def test_symbolic_value_is_laurent(self):
        f = habiro_figure_eight()
        v = f.eval_symbolic((3, 2))
        assert v.is_polynomial()
        assert v.eval_exact({"q": 3}) == f.eval_exact((3, 2), 3)

    def test_full_sum_pins(self):
        assert jones_symbolic(1) == P("1")
        assert jones_symbolic(2) == P("q^2 - q + 1 - q^-1 + q^-2")
        for qv in (2, Fraction(5, 2)):
            assert jones_eval(2, qv) == jones_symbolic(2).eval_exact({"q": qv})
        with pytest.raises(DomainError):
            jones_eval(0, 2)

    def test_full_sum_palindromic(self):
        for n in range(1, 13):
            j = jones_symbolic(n)
            mirrored = LaurentMPoly(
                j.vars, {tuple(-x for x in e): c for e, c in j.terms.items()})
            assert mirrored == j

    def test_full_sum_matches_habiro_sum(self):
        for n in range(1, 13):
            j = jones_symbolic(n)
            assert j.eval_exact({"q": 1}) == 1
            for qv in (Fraction(2), Fraction(-3, 5), Fraction(7, 4)):
                assert j.eval_exact({"q": qv}) == habiro_sum(n, qv), (n, qv)


class TestCrossingTables:
    def test_positive_entry_pin(self):
        r = build_crossing(True)
        assert r.eval_exact((1, 0, 0, 0, 0), 2) == 4

    def test_against_literal_expressions(self):
        rp = build_crossing(True)
        rm = build_crossing(False)
        pts = itertools.product(range(1, 3), range(0, 3), range(0, 3),
                                range(0, 2), range(0, 3))
        hits = 0
        for m, k1, k2, k3, k4 in pts:
            for qv in (2, Fraction(3, 2)):
                want_p = so3_plus_literal(m, k1, k2, k3, k4, qv)
                want_m = so3_minus_literal(m, k1, k2, k3, k4, qv)
                assert rp.eval_exact((m, k1, k2, k3, k4), qv) == want_p
                assert rm.eval_exact((m, k1, k2, k3, k4), qv) == want_m
                if want_p != 0 or want_m != 0:
                    hits += 1
        assert hits > 50

    def test_inverse_on_common_support(self):
        # wherever both signs are admissible the entries are reciprocal
        rp = build_crossing(True)
        rm = build_crossing(False)
        qv = Fraction(3)
        found = 0
        for m in range(1, 4):
            for k1, k2, k3 in itertools.product(range(0, 3), repeat=3):
                k4 = k1 + k3 - k2  # the two middle lengths force this
                pt = (m, k1, k2, k3, k4)
                if not (literal_in_support(rp, pt)
                        and literal_in_support(rm, pt)):
                    continue
                found += 1
                assert rp.eval_exact(pt, qv) * rm.eval_exact(pt, qv) == 1
        assert found >= 20

    def test_unknown_normalization(self, tmp_path):
        # a crossing is normalized as so3 only; a descriptor asking for
        # anything else is refused before a summand is built
        for norm in ("cabled", "two-color"):
            path = tmp_path / f"{norm}.json"
            path.write_text(json.dumps(
                {"crossing": {"positive": True, "normalization": norm}}))
            with pytest.raises(DomainError, match="unknown normalization"):
                _load_term(str(path))
        for positive in (True, False):
            path = tmp_path / f"so3-{positive}.json"
            path.write_text(json.dumps(
                {"crossing": {"positive": positive, "normalization": "so3"}}))
            assert _load_term(str(path)) == build_crossing(positive)


class TestShiftRatios:
    def test_figure_eight_displayed_ratios(self):
        f = habiro_figure_eight()
        assert shift_ratio(f, "E") == rf(
            "(1 - Q)*(1 - q*Q*Qt1)", "(Qt1 - Q)*(1 - q*Q)")
        assert shift_ratio(f, "Et1") == rf(
            "Q^-1*(1 - q*Q*Qt1)*(1 - q^-1*Q*Qt1^-1)")

    def test_color_shift_iterates(self):
        # the double-step ratio is the single-step ratio times its shift
        f = habiro_figure_eight()
        r1 = shift_ratio(f, "E")
        r2 = shift_ratio(f, "Em")
        pushed = r1.subst({"Q": rf("q*Q")})
        assert r2 == r1 * pushed

    def test_lattice_shift_on_wrong_colors(self):
        with pytest.raises(DomainError):
            shift_ratio(build_crossing(True), "E")
        with pytest.raises(DomainError):
            shift_ratio(habiro_figure_eight(), "Et2")
        with pytest.raises(DomainError):
            shift_ratio(habiro_figure_eight(), "F")

    @staticmethod
    def _ratio_point_env(qv, syms, pt):
        env = {"q": Fraction(qv)}
        for sym, val in zip(syms, pt):
            name = f"Qt{sym[1:]}" if sym.startswith("k") else \
                {"n": "Q", "m": "Qm"}[sym]
            env[name] = Fraction(qv) ** val
        return env

    def test_ratio_consistency_against_values(self):
        # shifted value / value == ratio at the exponential point
        cases = [
            (habiro_figure_eight(), ("E", "Em", "Et1"),
             [(n, i) for n in range(2, 5) for i in range(0, 3)]),
            (trefoil(), ("E", "Em", "Et1"),
             [(n, i) for n in range(2, 5) for i in range(0, 3)]),
            (build_crossing(True), ("Em", "Et1", "Et2", "Et3", "Et4"),
             [(m, k1, k2, k3, k4)
              for m in (2, 3) for k1 in (0, 1) for k2 in (0, 1)
              for k3 in (0, 1) for k4 in (1, 2)]),
            (build_crossing(False), ("Em", "Et1", "Et2", "Et3", "Et4"),
             [(m, k1, k2, k3, k4)
              for m in (2, 3) for k1 in (0, 1) for k2 in (1, 2)
              for k3 in (0, 1) for k4 in (0, 1)]),
        ] + [(twist_knot(p), ("E", "Em", "Et1", "Et2"),
              [(n, k1, k2) for n in range(2, 5) for k1 in range(3)
               for k2 in range(3)]) for p in (2, -2)]
        checked = 0
        for qv in (4, 9, Fraction(9, 4)):
            for term, which_list, pts in cases:
                syms = term.symbols()
                for which in which_list:
                    ratio = shift_ratio(term, which)
                    for pt in pts:
                        base = term.eval_exact(pt, qv)
                        if base == 0:
                            continue
                        # apply the shift at the argument level
                        if which == "E":
                            delta = {"n": 1}
                        elif which == "Em":
                            delta = {"n": 2} if "n" in syms else {"m": 1}
                        else:
                            delta = {f"k{which[2:]}": 1}
                        moved = tuple(v + delta.get(s, 0)
                                      for s, v in zip(syms, pt))
                        shifted = term.eval_exact(moved, qv)
                        env = self._ratio_point_env(qv, syms, pt)
                        try:
                            rv = ratio.eval_exact(env)
                        except PoleError:
                            continue
                        assert shifted == base * rv, (which, pt, qv)
                        checked += 1
        assert checked >= 150

    def test_ratio_ignores_support_constraints(self):
        # ratios are generic-point identities; the extra constraint on the
        # figure-eight summand does not enter
        f = habiro_figure_eight()
        bare = ProperQHTerm(colors=f.colors, nu=f.nu, poch=f.poch,
                            quad=f.quad, sign=f.sign)
        assert shift_ratio(f, "E") == shift_ratio(bare, "E")


class TestLimitRatios:
    def test_figure_eight_limits(self):
        f = habiro_figure_eight()
        assert epsilon_ratio(f, "E") == rf("1 - Q*Qt1", "Qt1 - Q")
        assert epsilon_ratio(f, "Em") == rf(
            "(1 - Q*Qt1)^2", "(Qt1 - Q)^2")
        assert epsilon_ratio(f, "Et1") == rf(
            "Q^-1*(1 - Q*Qt1)*(1 - Q*Qt1^-1)")

    def test_crossing_limit_sample(self):
        # one positive-crossing lattice direction, against the hand limit
        r = epsilon_ratio(build_crossing(True), "Et4")
        want = rf("Qm^-1*(1 - q*Qm*Qt4*Qt3^-1)*(1 - q*Qm*Qt4*Qt1^-1)",
                  "1 - q*Qt2*Qt4*Qt1^-1*Qt3^-1").subst(
                      {"q": RationalFunction.one()})
        assert r == want

    def test_constant_length_is_inert(self):
        t = ProperQHTerm(
            colors=("n",), nu=0,
            poch=(PochFactor(LinearForm.make({}, 1)),),
            quad=QuadForm.make({}),
        )
        # ratio of a fixed-length factor under E is 1: stays finite
        assert epsilon_ratio(t, "E") == RationalFunction.one()

    def test_limits_always_finite_for_ratios(self):
        # every moved length drags its own argument into the 1 - q^a * mono
        # factor, so nothing degenerates at q = 1: the limit is never a
        # pole and never identically zero
        for term, shifts in (
                (habiro_figure_eight(), ("E", "Em", "Et1")),
                (trefoil(), ("E", "Em", "Et1")),
                (build_crossing(True), ("Em", "Et1", "Et2", "Et3", "Et4")),
                (build_crossing(False), ("Em", "Et1", "Et2", "Et3", "Et4"))):
            for which in shifts:
                assert not epsilon_ratio(term, which).is_zero()

    def test_vanishing_order_bookkeeping(self, monkeypatch):
        # the orders of vanishing at q = 1 above and below the bar decide:
        # equal orders give the quotient of the lowest Taylor coefficients,
        # a higher order above gives zero, a higher order below a pole
        import ajlab.qhg as qhg_module
        f = habiro_figure_eight()
        for ratio, want in (
                (rf("(q^2 - 1)*Q", "(q - 1)*Qt1"), rf("2*Q", "Qt1")),
                (rf("(q - 1)^2*Q", "Qt1"), RationalFunction.zero()),
                (rf("Q", "(q - 1)*Qt1"), PoleError)):
            monkeypatch.setattr(qhg_module, "shift_ratio",
                                lambda term, which: ratio)
            assert outcome(epsilon_ratio, f, "E") == want


def ones(forms, nu):
    """The summand 1 on the region where every form (over n, k1..k_nu) is
    nonnegative: its sum counts the region's integer points."""
    return ProperQHTerm(("n",), nu, (), QuadForm.make({}), constraints=forms)


class TestLatticeSummation:
    def test_bounded_box(self):
        # the oracle bounds the twist knot's k1 and k2 by a square; the
        # outer axis k1 is bounded by the projection of the support rows,
        # and each row k2 by the support, so the rows cover the triangle
        # 0 <= k2 <= k1 <= n - 1
        f = habiro_figure_eight()
        assert support_box(support_forms(f), {"n": 3}, ["k1"]) == [(0, 2)]
        term, n = twist_knot(2), 5
        plan = term._plan
        assert support_box(support_forms(term), {"n": n},
                           ["k1", "k2"]) == [(0, n - 1), (0, n - 1)]
        assert [len(rows) for rows in plan.bounds] == [6, 11]
        assert plan.bounds[-1] is plan.support
        assert _row_bounds(plan.bounds[0], (n,), "k1") == (0, n - 1)
        for k1 in range(n):
            assert _row_bounds(plan.support, (n, k1), "k2") == (0, k1)

    def test_sum_matches_direct(self):
        f = habiro_figure_eight()
        for n in range(1, 6):
            assert lattice_sum(f, (n,), 3) == habiro_sum(n, 3)

    def test_single_crossing_has_unbounded_support(self):
        r = build_crossing(True)
        with pytest.raises(SupportError):
            lattice_sum(r, (2,), 2)

    def test_gauge_direction_named(self):
        # the crossing forms are invariant under one common shift of
        # k1..k4: no row of the projection onto k1 bounds it
        for positive, qv in itertools.product((True, False), (2, None)):
            r = build_crossing(positive)
            assert [len(rows) for rows in r._plan.bounds] == [0, 1, 2, 5]
            with pytest.raises(SupportError) as info:
                lattice_sum(r, (2,), qv)
            assert str(info.value) == ("non-finite support: no bounds for "
                                       "k1 follow from the factor lengths")

    def test_propagation_that_never_settles_is_an_error(self):
        # k1, k2 >= 0, k1 >= k2 + 1 and k2 >= k1: empty, and each round
        # moves the oracle's bounds by one, so its propagation never
        # settles; with k1 <= 1000 every bound is finite when the round
        # cap is hit, which used to end the loop silently and return a box
        chase = [LinearForm.make({"k1": 1}), LinearForm.make({"k2": 1}),
                 LinearForm.make({"k1": 1, "k2": -1}, -1),
                 LinearForm.make({"k2": 1, "k1": -1})]
        bounded = chase + [LinearForm.make({"k1": -1}, 1000)]
        for forms in (bounded, chase):
            with pytest.raises(SupportError, match="after 200 rounds"):
                support_box(forms, {}, ["k1", "k2"])
        # the projection onto k1 has the row -1 >= 0, so both chases are
        # empty and sum to 0, even without k1 <= 1000 to bound k1 above
        for forms in (bounded, chase):
            assert (-1,) + (0,) * 2 in ones(forms, 2)._plan.bounds[0]
            assert lattice_sum(ones(forms, 2), (0,), 2) == 0
            assert lattice_sum(ones(forms, 2), (0,)).is_zero()

    def test_support_wider_than_the_cap_is_an_error(self):
        # 0 <= k1 <= hi: the widest allowed row is summed, one more point
        # is refused; an outer axis is held to the same cap
        def forms(hi):
            return [LinearForm.make({"k1": 1}),
                    LinearForm.make({"k1": -1}, hi)]

        cap = _SUPPORT_MAX_WIDTH
        assert support_box(forms(cap), {}, ["k1"]) == [(0, cap)]
        assert lattice_sum(ones(forms(cap), 1), (0,), 1) == cap + 1
        strip = [LinearForm.make({"k1": 1}),
                 LinearForm.make({"k1": -1}, 10 ** 6),
                 LinearForm.make({"k2": 1, "k1": -1}),
                 LinearForm.make({"k1": 1, "k2": -1}, 1)]
        for term in (ones(forms(cap + 1), 1), ones(strip, 2)):
            with pytest.raises(SupportError) as info:
                lattice_sum(term, (0,), 2)
            assert str(info.value) == f"support width for k1 exceeds {cap}"

    def test_outer_width_is_checked_per_row(self):
        # k2 = 2 * cap * k1 on 0 <= k1 <= 1: the box of k2 is wider than
        # the cap, each row of it one point
        w = 2 * _SUPPORT_MAX_WIDTH
        steep = [LinearForm.make({"k1": 1}), LinearForm.make({"k1": -1}, 1),
                 LinearForm.make({"k2": 1, "k1": -w}),
                 LinearForm.make({"k2": -1, "k1": w})]
        with pytest.raises(SupportError, match="width for k2 exceeds"):
            support_box(steep, {}, ["k1", "k2"])
        assert lattice_sum(ones(steep, 2), (0,), 2) == 2

    def test_projection_bounds_what_propagation_cannot(self):
        # k1 = k2 with 0 <= k1 + k2 <= 10: no form bounds one symbol on its
        # own, so propagation finds no bound; the projection has 0 <= k1 <= 5
        L = LinearForm.make
        diag = [L({"k1": 1, "k2": -1}), L({"k2": 1, "k1": -1}),
                L({"k1": 1, "k2": 1}), L({"k1": -1, "k2": -1}, 10)]
        with pytest.raises(SupportError, match="no bounds for k1"):
            support_box(diag, {}, ["k1", "k2"])
        assert lattice_sum(ones(diag, 2), (0,), 2) == 6


HALF_OR_INT = st.one_of(st.integers(-3, 3),
                        st.integers(-7, 7).map(lambda k: Fraction(k, 2)))


@st.composite
def bounded_systems(draw):
    """(nu, forms, n, ranges): a simplex sigma_i k_i >= -3,
    sum sigma_i k_i <= s in random orientation sigma, which bounds the
    region, and up to four random forms over n, k1..k_nu with int or
    half-integer coefficients; ranges holds every point of the region."""
    nu = draw(st.sampled_from((2, 3)))
    syms = ["n"] + [f"k{i + 1}" for i in range(nu)]
    sigma = draw(st.lists(st.sampled_from((1, -1)), min_size=nu,
                          max_size=nu))
    s = draw(st.integers(-4, 6))
    forms = [LinearForm.make({k: c}, 3) for k, c in zip(syms[1:], sigma)]
    forms.append(LinearForm.make({k: -c for k, c in zip(syms[1:], sigma)}, s))
    forms += draw(st.lists(st.builds(
        LinearForm.make, st.dictionaries(st.sampled_from(syms), HALF_OR_INT,
                                         max_size=nu + 1),
        st.one_of(st.integers(-12, 12), HALF_OR_INT)), max_size=4))
    forms = draw(st.permutations(forms))
    top = s + 3 * (nu - 1)  # sigma_i k_i <= s minus the others' lower ends
    ranges = [range(-3, top + 1) if c > 0 else range(-top, 4) for c in sigma]
    return nu, forms, draw(st.integers(-3, 3)), ranges


class TestProjectedSupport:
    """`lattice_sum` of the summand 1 counts the integer points of its
    support: every axis bounded by the Fourier-Motzkin projection of the
    support rows, against a brute-force count over a box around it."""

    @settings(max_examples=150, deadline=None)
    @given(bounded_systems())
    def test_sum_of_ones_counts_the_support(self, system):
        nu, forms, n, ranges = system
        env = {"n": n}
        count = 0
        for ks in itertools.product(*ranges):
            env.update(zip((f"k{i + 1}" for i in range(nu)), ks))
            count += all(value(f, env) >= 0 for f in forms)
        term = ones(tuple(forms), nu)
        assert lattice_sum(term, (n,), Fraction(3, 2)) == count
        # axis i (from 1) is bounded by rows over 1, n, k1..k_i
        assert all(len(r) == i + 2 for i, rows in
                   enumerate(term._plan.bounds, 1) for r in rows)


def per_point_sum(term, colors, qval=None):
    """The oracle for `lattice_sum`: every point of the support box
    evaluated on its own and added up, exactly or as rational functions
    of q."""
    free = [f"k{i + 1}" for i in range(term.nu)]
    box = support_box(support_forms(term), dict(zip(term.colors, colors)),
                      free)
    points = [tuple(colors) + pt for pt in
              itertools.product(*(range(a, b + 1) for a, b in box))]
    if qval is None:
        total = RationalFunction.zero()
        for pt in points:
            total = total + term.eval_symbolic(pt)
        return total
    return sum((term.eval_exact(pt, qval) for pt in points), Fraction(0))


def twist_knot(p):
    """Masbaum's summand for the twist knot K_p over the lattice indices
    k = k1 and l = k2; K_-1 is the figure-eight."""
    L = LinearForm.make
    num = [L({"n": 1, "k1": 1}), L({"n": 1}, -1), L({"k2": 2}, 1),
           L({"k1": 1})]
    den = [L({"n": 1}), L({"n": 1, "k1": -1}, -1), L({"k2": 2}),
           L({"k1": 1, "k2": 1}, 1), L({"k1": 1, "k2": -1})]
    half = Fraction(1, 2)
    return ProperQHTerm(
        colors=("n",), nu=2,
        poch=tuple([PochFactor(f) for f in num]
                   + [PochFactor(f, denom=True) for f in den]),
        quad=QuadForm.make({("k1", "k1"): half, ("n", "k1"): -1,
                            ("k2", "k2"): p + half},
                           {"k1": 3 * half, "k2": p - half}),
        sign=L({"k1": 1, "k2": 1}),
        constraints=(L({"k1": 1}), L({"k2": 1})))


TWIST_GLUE_1 = ("alpha^4*x1^2*x2 - alpha^4*x1*x2 - alpha^2*x1^3*x2 "
                "+ alpha^2*x1*x2^2 - alpha^2*x1*x2 + alpha^2*x1 + x1^2*x2 "
                "- x1*x2")
TWIST_LONGITUDES = {
    "linear": "l*alpha^2 - alpha^2*x1 - l*x1 + 1",
    "squared": "l^2*alpha^4 - alpha^4*x1^2 - 2*l^2*alpha^2*x1 + l^2*x1^2 "
               "+ 2*alpha^2*x1 - 1"}


@pytest.mark.parametrize("p, kind, glue_2", [
    (1, "linear", "x1*x2^2 - x2^3 + x1*x2 - 1"),
    (-1, "linear", "x1*x2^3 - x2^2 + x1 - x2"),
    (-1, "squared", "x1*x2^3 - x2^2 + x1 - x2"),
])
def test_twist_knot_ratio_system(p, kind, glue_2):
    # two lattice directions on the full meridian: coordinates x1 and x2
    sys_ = ratio_system(twist_knot(p), kind)
    assert sys_.coordinates == ("x1", "x2")
    assert [format_poly(g) for g in sys_.gluing] == [TWIST_GLUE_1, glue_2]
    assert format_poly(sys_.longitude) == TWIST_LONGITUDES[kind]


def half_exponent():
    """q^(k1^2/2) on 0 <= k1 <= 3: a half-integer exponent at k1 = 1."""
    return ProperQHTerm(
        colors=("n",), nu=1, poch=(),
        quad=QuadForm.make({("k1", "k1"): Fraction(1, 2)}),
        constraints=(LinearForm.make({"k1": 1}),
                     LinearForm.make({"k1": -1}, 3)))


def triangle():
    """A nu = 2 summand whose rows end at k2 = k1 by a constraint alone,
    inside the support box."""
    L = LinearForm.make
    return ProperQHTerm(
        colors=("n",), nu=2,
        poch=(PochFactor(L({"n": 1, "k1": -1}, -1)),
              PochFactor(L({"n": 1, "k2": -1}, -1))),
        quad=QuadForm.make({("k1", "k2"): 1}, {"k2": -2}),
        sign=L({"k2": 1}),
        constraints=(L({"k1": 1}), L({"k2": 1}), L({"k1": 1, "k2": -1})))


def pole_ahead():
    """q^(n k1) / (q)_k1 on 0 <= k1 <= n: finite at k1 = 0 for every q,
    a pole further along the row at q = 1 and q = -1."""
    return ProperQHTerm(
        colors=("n",), nu=1,
        poch=(PochFactor(LinearForm.make({"k1": 1}), denom=True),),
        quad=QuadForm.make({("n", "k1"): 1}),
        constraints=(LinearForm.make({"n": 1, "k1": -1}),))


def error_or_value(fn, *args):
    try:
        return fn(*args)
    except (DomainError, PoleError) as exc:
        return type(exc), str(exc)


# summands with their colors: one row (nu = 1), rows that leave the
# support inside the box by a Pochhammer length or by a constraint
# (nu = 2), a pole along the row, and nothing to step (nu = 0)
STEPPED = ([(habiro_figure_eight(), n) for n in range(1, 9)]
           + [(trefoil(), n) for n in range(1, 7)]
           + [(twist_knot(p), n) for p in (-2, -1, 1, 2) for n in range(1, 7)]
           + [(triangle(), n) for n in (1, 4)] + [(pole_ahead(), 3)]
           + [(ProperQHTerm(colors=("n",), nu=0,
                            poch=(PochFactor(LinearForm.make({"n": 1})),),
                            quad=QuadForm.make({("n", "n"): 1})), 3)])


class _GcdRun(_SymbolicRun):
    """The oracle for a symbolic run's value: the partial sum over the
    product of every down factor (1 - q^j), reduced by one gcd."""

    def value(self):
        d = [1]
        for j in self.down:
            _times_one_minus(d, j)
        return RationalFunction(_dense_q(self.s, self.se), _dense_q(d))


def seeded_quotient(seed):
    """A nu = 1 summand on 0 <= k1 <= n whose two numerator and two
    denominator Pochhammer lengths and quadratic exponent are drawn by a
    seeded generator."""
    rng = random.Random(seed)
    L = LinearForm.make
    forms = [L({"k1": 1}), L({"n": 1, "k1": -1}), L({"n": 1, "k1": 1}),
             L({"k1": 2}), L({"n": 1}), L({"k1": 1}, 1)]
    num, den = rng.sample(forms, 2), rng.sample(forms, 2)
    return ProperQHTerm(
        colors=("n",), nu=1,
        poch=tuple([PochFactor(f) for f in num]
                   + [PochFactor(f, denom=True) for f in den]),
        quad=QuadForm.make({("k1", "k1"): rng.randint(-1, 1),
                            ("n", "k1"): rng.randint(-1, 1)}),
        constraints=(L({"k1": 1}), L({"n": 1, "k1": -1})))


# summands with the colors at which a symbolic sum is checked against the
# gcd-reduced value: rows with no down factor, down factors that all
# divide, and a seeded quotient where some do not (the fallback)
GCD_ORACLE = ([(habiro_figure_eight(), n) for n in range(1, 31)]
              + [(twist_knot(p), n) for p in (-2, -1, 1, 2)
                 for n in range(1, 13)]
              + [(trefoil(), n) for n in range(1, 11)]
              + [(seeded_quotient(0), n) for n in range(1, 8)])


class TestSteppedSum:
    """`lattice_sum` walks each support row by its shift ratio; the
    per-point sum is its oracle."""

    def test_figure_eight_matches_the_per_point_sum(self):
        rng = random.Random(19)
        f = habiro_figure_eight()
        for n in range(1, 26):
            for _ in range(3):
                a, b = rng.sample(range(1, 41), 2)  # never q = +-1
                qv = Fraction(rng.choice((-a, a)), b)
                got = lattice_sum(f, (n,), qv)
                assert type(got) is Fraction
                assert got == per_point_sum(f, (n,), qv)

    @pytest.mark.parametrize("idx", range(len(STEPPED)))
    def test_exact_matches_the_per_point_sum(self, idx):
        term, n = STEPPED[idx]
        rng = random.Random(4000 + idx)
        for qv in (random_rational(rng) or Fraction(1, 2), Fraction(-3, 2),
                   Fraction(5, 7)):
            got = error_or_value(lattice_sum, term, (n,), qv)
            assert type(got) in (Fraction, tuple)
            assert got == error_or_value(per_point_sum, term, (n,), qv), qv

    @pytest.mark.parametrize("idx", range(len(STEPPED)))
    def test_symbolic_matches_the_per_point_sum(self, idx):
        term, n = STEPPED[idx]
        got = lattice_sum(term, (n,))
        assert type(got) is RationalFunction
        assert got == per_point_sum(term, (n,))
        # the rational function of q takes the exact mode's values
        for qv in (Fraction(2), Fraction(-5, 3)):
            assert got.eval_exact({"q": qv}) == lattice_sum(term, (n,), qv)

    @pytest.mark.parametrize("qv", (0, 1, -1))
    def test_errors_match_the_per_point_sum(self, qv):
        # q = 0, 1 and -1 make a ratio factor vanish or a power of q
        # singular, so the walk restarts and raises what the per-point
        # sum raises, with the same message, or gives the same value
        seen = set()
        for term, n in STEPPED + [(half_exponent(), 0)]:
            got = error_or_value(lattice_sum, term, (n,), qv)
            assert got == error_or_value(per_point_sum, term, (n,), qv)
            seen.add(got[0] if type(got) is tuple else Fraction)
        assert len(seen) >= 2
        with pytest.raises(DomainError) as info:
            lattice_sum(half_exponent(), (0,))
        assert str(info.value) == "exponent 1/2 of q is not an integer"

    def test_symbolic_matches_the_gcd_reduction(self):
        # dividing each down factor out of the sum gives the value that
        # one gcd of the sum and the whole product of them gives
        for term, n in GCD_ORACLE:
            got = lattice_sum(term, (n,))
            assert type(got) is RationalFunction
            assert got == _run_sum(term, (n,), _GcdRun), n

    def test_a_down_factor_that_does_not_divide_stays_under_the_bar(self):
        term = seeded_quotient(0)
        for n in range(2, 8):  # at n = 1 the sum is a polynomial
            got = lattice_sum(term, (n,))
            assert not got.is_polynomial()
            assert got == per_point_sum(term, (n,))

    def test_jones_symbolic_is_a_laurent_polynomial(self):
        for n in range(1, 31):
            got = jones_symbolic(n)
            assert type(got) is LaurentMPoly
            assert got == _run_sum(habiro_figure_eight(), (n,),
                                   _GcdRun).as_polynomial()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-9, 9), max_size=12), st.integers(1, 6),
           st.lists(st.integers(-9, 9), max_size=6))
    def test_division_by_one_minus_q_to_the_j(self, u, j, r):
        # (1 - q^j) u divides back to u; adding r of degree < j, not 0,
        # leaves a remainder
        side = list(u)
        _times_one_minus(side, j)
        got = _over_one_minus(side, j)
        assert got is not None
        assert _dense_q(got) == _dense_q(u)
        r = r[:j]
        if any(r):
            side = side + [0] * (len(r) - len(side))
            side[:len(r)] = [a + b for a, b in zip(side, r)]
            assert _over_one_minus(side, j) is None

    def test_twist_knot_minus_one_is_the_figure_eight(self):
        for n in range(1, 7):
            assert (lattice_sum(twist_knot(-1), (n,))
                    == RationalFunction(jones_symbolic(n), P("1")))

    @staticmethod
    def counted_evaluations(monkeypatch):
        # every full evaluation, in either ring, is one start of a run
        calls = []
        original = ProperQHTerm._start

        def counted(self, point, run):
            calls.append(point)
            return original(self, point, run)

        monkeypatch.setattr(ProperQHTerm, "_start", counted)
        return calls

    def test_one_full_evaluation_per_run(self, monkeypatch):
        # the figure-eight's one row is walked from its first point, at a
        # rational q and in q; a twist-knot row k is bounded by the
        # support to 0 <= l <= k, so it too is one run
        calls = self.counted_evaluations(monkeypatch)
        jones_eval(12, Fraction(3, 2))
        assert calls == [(12, 0)]
        calls.clear()
        jones_symbolic(12)
        assert calls == [(12, 0)]
        calls.clear()
        lattice_sum(twist_knot(1), (4,), 3)
        assert calls == [(4, k, 0) for k in range(4)]

    def test_no_evaluation_outside_the_support(self, monkeypatch):
        # nu = 2: one full evaluation per non-empty row, at its head, and
        # none at a point of the box outside the support
        calls = self.counted_evaluations(monkeypatch)
        term = twist_knot(2)
        got = lattice_sum(term, (30,), Fraction(3, 2))
        assert calls == [(30, k, 0) for k in range(30)]
        assert all(literal_in_support(term, pt) for pt in calls)
        assert got == per_point_sum(term, (30,), Fraction(3, 2))


def support_outcome(fn, *args):
    try:
        return fn(*args)
    except SupportError as exc:
        return SupportError, str(exc)


HALVES = st.integers(-9, 9).map(lambda k: Fraction(k, 2))
ROW_FORMS = st.lists(st.tuples(
    st.dictionaries(st.sampled_from(("n", "k1", "k2")),
                    st.one_of(st.integers(-3, 3), HALVES), max_size=3),
    st.one_of(st.integers(-20, 20), HALVES,
              st.integers(-3 * _SUPPORT_MAX_WIDTH, 3 * _SUPPORT_MAX_WIDTH))),
    max_size=5)
CAP = _SUPPORT_MAX_WIDTH


class TestRowBounds:
    """`_row_bounds` bounds each row of the last axis from its head, by the
    compiled support rows; `support_box` on that one free symbol is the
    oracle, except that a form without the last symbol that is negative
    empties the row, before any bound or width is checked."""

    @settings(max_examples=400, deadline=None)
    @given(ROW_FORMS, st.sampled_from((1, 2)), st.integers(-12, 12),
           st.integers(-12, 12))
    @example([({"k1": 1}, 0), ({"k1": -1}, CAP)], 1, 0, 0)  # widest row
    @example([({"k1": 1}, 0), ({"k1": -1}, CAP + 1)], 1, 0, 0)  # too wide
    @example([({"k1": Fraction(1, 2)}, 0), ({"n": 1}, 0)], 1, 3, 0)
    @example([({"k1": -1}, 4), ({"n": -1}, 0)], 1, 3, 0)  # empty, unbounded
    @example([({"k2": 1}, 0), ({"k2": -2, "k1": 1}, 1), ({"n": -1}, 2)],
             2, 3, 5)  # a negative form with slope 0 empties the row
    def test_row_bound_is_support_box_for_one_symbol(self, inputs, nu, n,
                                                      k1):
        syms = ("n", "k1", "k2")[:nu + 1]
        forms = tuple(LinearForm.make({s: c for s, c in d.items()
                                       if s in syms}, c0)
                      for d, c0 in inputs)
        term = ones(forms, nu)
        head, last = (n, k1)[:nu], syms[-1]
        fixed = dict(zip(syms, head))
        got = support_outcome(_row_bounds, term._plan.support, head, last)
        if any(not coeff(f, last) and value(f, fixed) < 0 for f in forms):
            assert got == (0, -1)
        else:
            assert got == support_outcome(
                lambda: support_box(forms, fixed, [last])[0])
        assert got[0] is SupportError or all(type(b) is int for b in got)

    def test_figure_eight_rows(self):
        f = habiro_figure_eight()
        for n in range(0, 6):
            box = support_box(support_forms(f), {"n": n}, ["k1"])[0]
            got = _row_bounds(f._plan.support, (n,), "k1")
            assert got == box == (0, n - 1)


class TestAlgebra:
    def test_builtin_summand_is_shared_and_frozen(self):
        f = habiro_figure_eight()
        assert habiro_figure_eight() is f
        before = (f.poch, f.quad, f.sign, f.constraints)
        for name, value in (("nu", 2), ("poch", ()), ("constraints", ())):
            with pytest.raises(AttributeError):
                setattr(f, name, value)
        with pytest.raises(AttributeError):
            f.poch[0].length.const = Fraction(5)
        with pytest.raises(TypeError):
            f.poch[0] = f.poch[1]
        g = habiro_figure_eight()
        assert (g.poch, g.quad, g.sign, g.constraints) == before
        assert g.eval_exact((2, 1), 4) == Fraction(189, 16)

    def test_mul_concatenates(self):
        a = habiro_figure_eight()
        b = habiro_figure_eight()
        ab = mul(a, b)
        assert ab.eval_exact((3, 1), 2) == a.eval_exact((3, 1), 2) ** 2
        assert shift_ratio(ab, "E") == shift_ratio(a, "E") ** 2

    def test_mul_needs_same_arguments(self):
        with pytest.raises(DomainError):
            mul(habiro_figure_eight(), build_crossing(True))

    def test_point_arity_checked(self):
        with pytest.raises(DomainError):
            habiro_figure_eight().eval_exact((3,), 2)


FIG8 = habiro_figure_eight()


@pytest.mark.parametrize("fn, args, point", [
    # int() would truncate each of these to the int below it
    (jones_eval, (2.5, 2), "(2.5,)"),
    (lattice_sum, (FIG8, (2.5,), 2), "(2.5,)"),
    (FIG8.eval_exact, ((2.7, 1), 2), "(2.7, 1)"),
    # an empty support box, so no summand value was ever asked for
    (lattice_sum, (FIG8, (0.5,), 2), "(0.5,)"),
    (FIG8.eval_symbolic, ((3, 0.5),), "(3, 0.5)"),
    (jones_symbolic, (1.5,), "(1.5,)"),
    # integral but not int: refused too, not read as 2 or 4
    (jones_eval, (2.0, 2), "(2.0,)"),
    (lattice_sum, (FIG8, (Fraction(4),)), "(Fraction(4, 1),)"),
    (FIG8.eval_exact, ((3, 1.0), 2), "(3, 1.0)"),
    # a color goes through the same check, not a raw TypeError from n < 1
    (jones_symbolic, ("3",), "('3',)"),
    (jones_symbolic, (None,), "(None,)"),
    (jones_eval, (None, 2), "(None,)"),
    (recurrence_report, (["a"],), "('a',)"),
    (jones_evaluator(), (("a",), 2), "('a',)"),
    (jones_evaluator(), ((None,), 2), "(None,)"),
], ids=lambda v: getattr(v, "__name__", None))
def test_non_integer_points_are_refused(fn, args, point):
    with pytest.raises(DomainError, match=re.escape(
            f"point {point} has a non-integer entry")):
        fn(*args)


BAD_QS = [(float("nan"), "nan"), (float("inf"), "inf"), (0.5, "0.5"),
          ("5/2", "'5/2'"), (None, "None")]
Q_ENTRY_POINTS = {
    "eval_exact": lambda q: FIG8.eval_exact((3, 1), q),
    "eval_exact_out_of_support": lambda q: FIG8.eval_exact((3, 5), q),
    "lattice_sum": lambda q: lattice_sum(FIG8, (3,), q),
    "jones_eval": lambda q: jones_eval(3, q),
    "ore_apply": lambda q: ore_apply(p0_operator(), jones_evaluator(),
                                     (3,), q),
    "jones_evaluator": lambda q: jones_evaluator()((3,), q),
    "jones_evaluator_below_one": lambda q: jones_evaluator()((0,), q),
    "recurrence_report": lambda q: recurrence_report(ns=(1,), qs=(q,)),
}


@pytest.mark.parametrize("entry", sorted(Q_ENTRY_POINTS))
@pytest.mark.parametrize("qval, shown", BAD_QS, ids=[s for _, s in BAD_QS])
def test_q_is_an_int_or_a_fraction(entry, qval, shown):
    # nan and inf used to raise a raw ValueError and OverflowError, 0.5
    # and '5/2' were read as q, and jones_eval(3, None) gave the sum in q
    fn = Q_ENTRY_POINTS[entry]
    if qval is None and entry == "lattice_sum":
        assert fn(qval) == lattice_sum(FIG8, (3,))  # None: the sum in q
        return
    with pytest.raises(DomainError) as info:
        fn(qval)
    assert str(info.value) == f"q = {shown} is not an int or a Fraction"
    assert fn(2) == fn(Fraction(2))  # an int is read as a Fraction


@pytest.mark.parametrize("fn", [shift_ratio, epsilon_ratio])
def test_a_shift_is_named_by_a_string(fn):
    # an int raised a raw AttributeError before
    with pytest.raises(DomainError, match="unknown shift 5"):
        fn(FIG8, 5)


# -- form coefficients: int when integral, Fraction only when not ----------

def assert_canonical_form(form):
    """Each stored coefficient an int, or a Fraction whose denominator is
    not 1 (the rule of `laurent._coeff`)."""
    if isinstance(form, QuadForm):
        stored = [c for _, c in form.quad] + [c for _, c in form.lin.coeffs]
        stored.append(form.lin.const)
    else:
        stored = [c for _, c in form.coeffs] + [form.const]
    for c in stored:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
    assert all(c for c in stored[:-1])


SYMS = ("n", "k1", "k2")
# int, integral Fraction and half-integer inputs
scalars = st.one_of(st.integers(-6, 6), st.integers(-6, 6).map(Fraction),
                    st.integers(-13, 13).map(lambda k: Fraction(k, 2)))
lin_inputs = st.tuples(
    st.dictionaries(st.sampled_from(SYMS), scalars, max_size=3), scalars)
quad_inputs = st.tuples(
    st.dictionaries(st.tuples(st.sampled_from(SYMS), st.sampled_from(SYMS)),
                    scalars, max_size=4), lin_inputs)
envs = st.fixed_dictionaries({s: st.integers(-9, 9) for s in SYMS})


def as_fractions(d):
    return {k: Fraction(c) for k, c in d.items()}


def lin_oracle(coeffs, const, env):
    return sum((Fraction(c) * env[s] for s, c in coeffs.items()),
               Fraction(const))


def quad_oracle(quad, lin, env):
    return lin_oracle(*lin, env) + sum(
        (Fraction(c) * env[a] * env[b] for (a, b), c in quad.items()),
        Fraction(0))


class TestFormCoefficients:
    @settings(max_examples=200, deadline=None)
    @given(lin_inputs, lin_inputs, envs)
    def test_linear_forms(self, inp, other, env):
        coeffs, const = inp
        f = LinearForm.make(coeffs, const)
        assert_canonical_form(f)
        v = value(f, env)
        assert v == lin_oracle(coeffs, const, env)
        assert type(v) is (int if f.is_integral() else Fraction)
        for s in SYMS:
            assert coeff(f, s) == Fraction(coeffs.get(s, 0))
        # the same form from Fraction inputs: equal and hashed alike
        g = LinearForm.make(as_fractions(coeffs), Fraction(const))
        assert f == g and hash(f) == hash(g)
        h = add_forms(f, LinearForm.make(*other))
        assert_canonical_form(h)
        assert value(h, env) == v + lin_oracle(*other, env)

    @settings(max_examples=200, deadline=None)
    @given(quad_inputs, envs)
    def test_quadratic_forms(self, inp, env):
        quad, (lin, const) = inp
        f = QuadForm.make(quad, lin, const)
        assert_canonical_form(f)
        v = value(f, env)
        assert v == quad_oracle(quad, (lin, const), env)
        assert type(v) in (int, Fraction)
        g = QuadForm.make(as_fractions(quad), as_fractions(lin),
                          Fraction(const))
        assert f == g and hash(f) == hash(g)
        # the plan's step row: den times the exponent's change along an axis
        plan = ProperQHTerm(("n",), 2, (), f)._plan
        den = plan.quad[2]
        for axis, sym in enumerate(SYMS):
            for step in (1, 2):
                row = plan.step(axis, step)
                shifted = dict(env, **{sym: env[sym] + step})
                got = row[0] + sum(c * env[s] for s, c in zip(SYMS, row[1:]))
                assert Fraction(got, den) == value(f, shifted) - v

    def test_int_and_integral_fraction_inputs_agree(self):
        a = LinearForm.make({"n": 3, "k1": Fraction(4, 2)}, 3)
        b = LinearForm.make({"n": Fraction(3), "k1": 2}, Fraction(3))
        assert a == b and hash(a) == hash(b)
        assert a.coeffs == (("k1", 2), ("n", 3))
        assert all(type(c) is int for _, c in a.coeffs)
        assert type(a.const) is int and type(value(a, {"n": 1, "k1": 1})) is int
        # two half-integer entries on one unordered pair sum to an int
        q1 = QuadForm.make({("n", "k1"): Fraction(1, 2),
                            ("k1", "n"): Fraction(5, 2)}, {"n": 3}, 3)
        q2 = QuadForm.make({("k1", "n"): Fraction(3)}, {"n": Fraction(3)},
                           Fraction(3))
        assert q1 == q2 and hash(q1) == hash(q2)
        assert q1.quad == ((("k1", "n"), 3),) and type(q1.quad[0][1]) is int
        assert LinearForm.make({"n": 0, "k1": Fraction(0)}).coeffs == ()

    def test_builtin_summands_store_canonical_forms(self):
        for term in ALL_SUMMANDS:
            for form in ([f.length for f in term.poch] + [term.sign, term.quad]
                         + list(term.constraints)):
                assert_canonical_form(form)
        f = habiro_figure_eight()
        assert all(type(c) is int for _, c in f.quad.quad)
        assert type(f.eval_exact((3, 1), 2)) is Fraction
        t = trefoil()
        assert t.quad.quad == ((("k1", "k1"), Fraction(1, 2)),
                               (("k1", "n"), -1))
        assert t.quad.lin.coeffs == (("k1", Fraction(3, 2)),)
        assert type(t.eval_exact((3, 1), 2)) is Fraction

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-10 ** 18, 10 ** 18), st.integers(0, 50),
           st.integers(1, 7), st.integers(1, 7), st.integers(0, 6),
           st.integers(0, 6))
    @example(10 ** 16 - 5, 4, 1, 3, 0, 2)
    def test_support_box_bounds_are_exact(self, lo, width, c1, c2, r1, r2):
        # c1*k >= c1*lo - r1 and c2*k <= c2*(lo + width) + r2, 0 <= r < c:
        # exactly lo <= k <= lo + width; a float quotient rounds large
        # bounds to the wrong integer
        r1, r2 = r1 % c1, r2 % c2
        forms = [LinearForm.make({"k1": c1}, r1 - c1 * lo),
                 LinearForm.make({"k1": -c2}, c2 * (lo + width) + r2)]
        box = support_box(forms, {}, ["k1"])
        assert box == [(lo, lo + width)]
        assert all(type(x) is int for x in box[0])
        assert _row_bounds(ones(forms, 1)._plan.support, (0,), "k1") == box[0]

    def test_support_box_with_half_integer_coefficients(self):
        forms = [LinearForm.make({"k1": Fraction(1, 2)}, Fraction(-3, 2)),
                 LinearForm.make({"k1": Fraction(-1, 2), "n": 1},
                                 Fraction(1, 2))]
        assert support_box(forms, {"n": 4}, ["k1"]) == [(3, 9)]
        assert _row_bounds(ones(forms, 1)._plan.support, (4,), "k1") == (3, 9)
        # a bound that is not an integer goes through a Fraction: a
        # half-integer coefficient, a half-integer constant, an int
        # coefficient that does not divide, and two free symbols sharing
        # a half-integer constraint; an exact quotient stays an int
        half = Fraction(1, 2)
        L = LinearForm.make
        rows = [([L({"k1": half}, -half), L({"k1": -half, "n": half})],
                 {"n": 6}, ["k1"], [(1, 6)]),
                ([L({"k1": 1}, half), L({"k1": -1}, 5 * half)],
                 {}, ["k1"], [(0, 2)]),
                ([L({"k1": 2}, -3), L({"k1": -2}, 9)], {}, ["k1"], [(2, 4)]),
                ([L({"k1": 1}), L({"k2": 1}),
                  L({"k1": -half, "k2": -half, "n": half}, half)],
                 {"n": 2}, ["k1", "k2"], [(0, 3), (0, 3)]),
                ([L({"k1": 2}, -4), L({"k1": -3}, 12)], {}, ["k1"],
                 [(2, 4)])]
        for forms, fixed, free, want in rows:
            box = support_box(forms, fixed, free)
            assert box == want, forms
            assert all(type(x) is int for pair in box for x in pair)
            # the program's rows: k1 from the projection, k2 from the
            # support at k1 = 0
            plan = ones(forms, len(free))._plan
            n = fixed.get("n", 0)
            assert _row_bounds(plan.bounds[0], (n,), "k1") == want[0]
            if len(free) == 2:
                assert _row_bounds(plan.support, (n, 0), "k2") == want[1]

    def test_dense_q_is_canonical(self):
        assert _dense_q([1]) == LaurentMPoly.const(1)
        assert _dense_q([1]).vars == ()
        assert _dense_q([0, 0]).is_zero() and _dense_q([0, 0]).vars == ()
        assert _dense_q([1, -1, 0, 2]) == P("1 - q + 2*q^3")
        assert _dense_q([0, 3]).terms == {(1,): 3}
        # the figure-eight summand has nothing under the bar
        assert habiro_figure_eight().eval_symbolic((4, 2)).den.vars == ()

    @pytest.mark.parametrize("positive", (True, False))
    def test_half_integer_exponents_match_the_oracle(self, positive):
        # a crossing times q^(k1^2/2): its exponent is a half-integer at odd
        # k1, which the evaluators refuse as the oracle does
        crossing = build_crossing(positive)
        term = mul(crossing, ProperQHTerm(
            colors=crossing.colors, nu=crossing.nu, poch=(),
            quad=QuadForm.make({("k1", "k1"): Fraction(1, 2)})))
        rng = random.Random(3000 + positive)
        pts = random_support_points(term, rng, 120)
        assert {pt[1] % 2 for pt in pts} == {0, 1}
        for pt in pts:
            assert (outcome(term.eval_symbolic, pt)
                    == outcome(literal_symbolic, term, pt)), pt
            r = random_rational(rng) or Fraction(1, 3)
            for qv in (r * r, r * r + 1, 1, -1, 0):
                assert (outcome(term.eval_exact, pt, qv)
                        == outcome(literal_exact, term, pt, qv)), (pt, qv)


class TestIntegerExponents:
    """Form coefficients may be half-integers; values at integer points
    must be integers."""

    def test_trefoil_values(self):
        t = trefoil()
        for qv in (Fraction(2), Fraction(-3, 7)):
            j2 = qv + qv ** 3 - qv ** 4
            j3 = (qv ** 2 + qv ** 5 - qv ** 7 + qv ** 8 - qv ** 9 - qv ** 10
                  + qv ** 11)
            assert lattice_sum(t, (2,), qv) == j2
            assert lattice_sum(t, (3,), qv) == j3

    def test_trefoil_linear_eliminant(self):
        got = eliminate(ratio_system(trefoil(), "linear")).poly
        want = P("(l + alpha^6)*(l*alpha^2 + 1)")
        assert got in (want, -want)

    def test_half_integer_value_is_one_error(self):
        # k1^2/2 is 1/2 at k1 = 1, and so is the constant of its k1 shift
        t = ProperQHTerm(colors=("n",), nu=1, poch=(),
                         quad=QuadForm.make({("k1", "k1"): Fraction(1, 2)}))
        messages = set()
        for call in (lambda: t.eval_exact((0, 1), 2),
                     lambda: t.eval_symbolic((0, 1)),
                     lambda: shift_ratio(t, "Et1")):
            with pytest.raises(DomainError) as info:
                call()
            messages.add(str(info.value))
        assert messages == {"exponent 1/2 of q is not an integer"}

    @pytest.mark.parametrize("quad, lin, which, message", [
        # one exponent that is not an integer: the message names it
        ({("k1", "k1"): Fraction(3, 2)}, {}, "Et1", "3/2 of q"),
        ({("n", "k1"): Fraction(1, 2)}, {}, "Et1", "1/2 of Q"),
        ({("k1", "k2"): Fraction(1, 2)}, {}, "Et2", "1/2 of Qt1"),
        ({}, {"k2": Fraction(1, 3)}, "Et2", "1/3 of q"),
        # two or more: the first in the order q, then the term's symbols
        ({("k1", "k2"): Fraction(1, 2), ("n", "k2"): Fraction(1, 2)}, {},
         "Et2", "1/2 of Q"),
        ({("k1", "k2"): Fraction(1, 2), ("k2", "k2"): Fraction(1, 2)}, {},
         "Et2", "1/2 of q"),
        ({("k1", "k2"): Fraction(1, 2), ("n", "k2"): Fraction(1, 2),
          ("k2", "k2"): Fraction(1, 2)}, {}, "Et2", "1/2 of q"),
        ({("k1", "n"): Fraction(1, 2), ("n", "n"): Fraction(1, 3)}, {},
         "E", "1/3 of q"),
        ({("k2", "n"): Fraction(1, 2), ("k1", "n"): Fraction(1, 2)}, {},
         "E", "1/2 of Qt1"),
    ])
    def test_half_integer_shift_ratio_names_one_exponent(self, quad, lin,
                                                         which, message):
        t = ProperQHTerm(colors=("n",), nu=2, poch=(),
                         quad=QuadForm.make(quad, lin))
        for fn in (shift_ratio, epsilon_ratio):
            with pytest.raises(DomainError, match=re.escape(
                    f"exponent {message} is not an integer")):
                fn(t, which)
