"""The benchmark's workloads: seeded op lists, oracles and output checks.

Each workload has two halves.  The parent process calls `generate` (plain
JSON-able op dicts drawn from a seeded `random.Random`) and `references`
(oracle values computed without ajlab: Habiro's sum over `Fraction`,
closed-form sequence values, mpmath).  The worker process, a fresh
interpreter, calls `setup`, `calls` and `check` with the imported
``ajlab`` package; `calls` turns ops into zero-argument thunks that look
the public function up on the package at call time, so a tracer
installed later still sees every call.

Why each workload exists is written in ``README.md`` next to this file.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

VOLUME = 2.029883212819307
README_J2 = "q^2 - q + 1 - q^-1 + q^-2"


def _rational(rng, lo: int, hi: int) -> str:
    """A signed reduced fraction a/b with lo <= a, b <= hi and a != b, so
    never 0 or +-1."""
    while True:
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        if a != b and math.gcd(a, b) == 1:
            return f"{rng.choice((-1, 1)) * a}/{b}"


def habiro_jones(n: int, q: Fraction) -> Fraction:
    """J(n) = sum_i q^(-n i) prod_{j<=i} (1 - q^(n-j)) (1 - q^(n+j))."""
    total, prod = Fraction(0), Fraction(1)
    for i in range(n):
        if i:
            prod *= (1 - q ** (n - i)) * (1 - q ** (n + i))
        total += prod / q ** (n * i)
    return total


def left_apply_inhomogeneity(left, n: int, q: Fraction) -> Fraction:
    """(L g)(n) for L = E - c q^a Q^b and g(m) = -(q^(m+1) + 1), the
    right side of P0 . J = g."""
    c, a, b = left
    def g(m):
        return -(q ** (m + 1) + 1)
    return g(n + 1) - c * q ** a * q ** (n * b) * g(n)


def li2_reference(re: float, im: float) -> list[float]:
    """mpmath's dilogarithm; on the cut (1, oo) the sign of the zero
    imaginary part picks the edge, as ajlab's li2 does."""
    import mpmath
    if im == 0.0 and re > 1.0:
        im = math.copysign(1e-200, im)
    with mpmath.workdps(30):
        v = mpmath.polylog(2, mpmath.mpc(re, im))
    return [float(v.real), float(v.imag)]


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _flatten(groups):
    """Concatenate op groups, turning each op's group-local "src" (an
    index into its own group) into an index into the whole list."""
    ops = []
    for group in groups:
        base = len(ops)
        for op in group:
            if "src" in op:
                op = {**op, "src": base + op["src"]}
            ops.append(op)
    return ops


# -- jones -----------------------------------------------------------------

class Jones:
    # Six evaluations per color put the median op among those of color 5,
    # not on the boundary between two colors.
    size = {"colors": 8, "qs_per_color": 6}

    def generate(self, rng):
        size = self.size
        colors = _shuffled(rng, range(1, size["colors"] + 1))
        # seven-bit numerators and denominators, so that what an
        # evaluation costs depends on its color and not on the seed
        evals = [{"op": "jones_eval", "n": n, "q": _rational(rng, 64, 127)}
                 for n in colors for _ in range(size["qs_per_color"])]
        return ([{"op": "jones_symbolic", "n": n} for n in colors]
                + _shuffled(rng, evals))

    def references(self, ops):
        return [str(habiro_jones(op["n"], Fraction(op["q"])))
                if op["op"] == "jones_eval" else None for op in ops]

    def setup(self, aj):
        return {"summand": aj.habiro_figure_eight()}

    def calls(self, aj, env, ops, outs):
        calls = []
        for op in ops:
            if op["op"] == "jones_symbolic":
                fn = (lambda n=op["n"]: aj.jones_symbolic(n))
            else:
                fn = (lambda n=op["n"], q=Fraction(op["q"]):
                      aj.jones_eval(n, q))
            calls.append((op["op"], fn))
        return calls

    def check(self, aj, env, i, ops, outs, refs):
        op, p = ops[i], outs[i]
        if op["op"] == "jones_eval":
            if p != Fraction(refs[i]):
                return f"jones_eval({op['n']}, {op['q']}) != Habiro's sum"
            return None
        mirrored = {tuple(-e for e in exp): c for exp, c in p.terms.items()}
        if p.vars not in ((), ("q",)) or mirrored != dict(p.terms):
            return "not palindromic in q"
        if p.eval_exact({"q": 1}) != 1:
            return "J(n) at q = 1 is not 1"
        if op["n"] == 2 and aj.format_poly(p) != README_J2:
            return f"J(2) = {aj.format_poly(p)}"
        for other, ref in zip(ops, refs):
            if other["op"] == "jones_eval" and other["n"] == op["n"]:
                q = Fraction(other["q"])
                if p.eval_exact({"q": q}) != Fraction(ref):
                    return f"J({op['n']}) at q = {q} != Habiro's sum"
        return None


# -- certify ---------------------------------------------------------------

class Certify:
    # One ore_apply per L * P0 and two per L * cubic put the median op in
    # the middle of the aj_compare(L * P0) ops, whose cost hardly depends
    # on L, so op_p50_ms does not hinge on which ops the seed drew.
    size = {"colors": 4, "covers": 2, "windows": 3, "qs": 3, "lefts": 6,
            "applies": {"p0": 1, "cubic": 2}}
    ELIMS = [(source, mirror, kind) for kind in ("linear", "squared")
             for source, mirror in (("ratio", False), ("saddle", False),
                                    ("saddle", True))]

    def generate(self, rng):
        size = self.size
        m = size["colors"]
        qs = [_rational(rng, 2, 9) for _ in range(size["qs"])]
        groups = []
        # every color in 1..m lies in exactly `covers` windows
        for _ in range(size["covers"]):
            cuts = sorted(rng.sample(range(2, m + 1), size["windows"] - 1))
            for lo, hi in zip([1] + cuts, cuts + [m + 1]):
                groups.append([{"op": "recurrence_report",
                                "ns": list(range(lo, hi)), "qs": qs}])
        for _ in range(size["lefts"]):
            left = [rng.choice((-1, 1)) * rng.randint(1, 5),
                    rng.randint(-2, 2), rng.randint(-2, 2)]
            for right in ("p0", "cubic"):
                group = [{"op": "ore_mul", "left": left, "right": right},
                         {"op": "aj_compare", "src": 0, "left": left,
                          "right": right}]
                # colors stratified over 1..4, each at its own fresh q
                count = size["applies"][right]
                group += [{"op": "ore_apply", "src": 0, "left": left,
                           "right": right, "q": _rational(rng, 2, 9),
                           "n": rng.randint(1 + 4 * k // count,
                                            4 * (k + 1) // count)}
                          for k in range(count)]
                groups.append(group)
        groups.append([{"op": "expand_at_one"}])
        for source, mirror, kind in self.ELIMS:
            groups.append([{"op": "system", "source": source,
                            "mirror": mirror, "kind": kind},
                           {"op": "eliminate", "src": 0, "kind": kind}])
        groups += [[{"op": "prop_comp_check", "positive": s}]
                   for s in (True, False)]
        return _flatten(_shuffled(rng, groups))

    def references(self, ops):
        refs = []
        for op in ops:
            if op["op"] != "ore_apply":
                refs.append(None)
            elif op["right"] == "cubic":
                refs.append("0")
            else:
                refs.append(str(left_apply_inhomogeneity(
                    op["left"], op["n"], Fraction(op["q"]))))
        return refs

    def setup(self, aj):
        from ajlab.figure8 import p_full
        return {"summand": aj.habiro_figure_eight(),
                "p0": aj.p0_operator(), "cubic": aj.cubic_operator(),
                "p_full": p_full(), "curve": aj.a_polynomial_nonabelian(),
                "spec": {m: aj.builtin_potential(mirror=m)
                         for m in (False, True)},
                "jev": aj.jones_evaluator()}

    @staticmethod
    def _left(aj, left):
        c, a, b = left
        mono = aj.LaurentMPoly.monomial(-c, {"q": a, "Q": b})
        return aj.OreOperator(0, {(1,): 1, (0,): aj.RationalFunction(
            mono, aj.LaurentMPoly.const(1))})

    @staticmethod
    def _target(aj, env, left, right):
        """eps(L) * curve in (alpha, l), times (l - 1) for the cubic."""
        c, _, b = left
        eps = (aj.LaurentMPoly.var("l")
               - aj.LaurentMPoly.monomial(c, {"alpha": 2 * b}))
        curve = env["curve"]
        if right == "cubic":
            curve = curve * aj.parse_poly("l - 1")
        return eps * curve

    def calls(self, aj, env, ops, outs):
        calls = []
        for op in ops:
            kind = op["op"]
            if kind == "recurrence_report":
                fn = (lambda ns=tuple(op["ns"]),
                      qs=tuple(Fraction(q) for q in op["qs"]):
                      aj.recurrence_report(ns=ns, qs=qs))
            elif kind == "ore_mul":
                fn = (lambda lhs=self._left(aj, op["left"]),
                      rhs=env[op["right"]]: aj.ore_mul(lhs, rhs))
            elif kind == "aj_compare":
                fn = (lambda j=op["src"],
                      rhs=self._target(aj, env, op["left"], op["right"]):
                      aj.aj_compare(outs[j], rhs))
            elif kind == "ore_apply":
                fn = (lambda j=op["src"], pt=(op["n"],), q=Fraction(op["q"]),
                      jev=env["jev"]: aj.ore_apply(outs[j], jev, pt, q))
            elif kind == "expand_at_one":
                fn = (lambda p=env["p_full"]: aj.expand_at_one(p))
            elif kind == "system":
                if op["source"] == "ratio":
                    fn = (lambda t=env["summand"], k=op["kind"]:
                          aj.ratio_system(t, k))
                else:
                    fn = (lambda s=env["spec"][op["mirror"]], k=op["kind"]:
                          aj.saddle_system(s, k))
            elif kind == "eliminate":
                fn = (lambda j=op["src"]: aj.eliminate(outs[j]))
            else:
                fn = (lambda s=op["positive"]: aj.prop_comp_check(s))
            calls.append((kind, fn))
        return calls

    def check(self, aj, env, i, ops, outs, refs):
        op, out, ref = ops[i], outs[i], refs[i]
        kind = op["op"]
        if kind == "recurrence_report":
            if ([r["n"] for r in out] != op["ns"]
                    or not all(r["sampled_ok"] and r["symbolic_ok"]
                               and r["samples"] == len(op["qs"])
                               for r in out)):
                return f"recurrence fails on colors {op['ns']}"
        elif kind == "ore_mul":
            if out.e_degree() != env[op["right"]].e_degree() + 1:
                return "L * P has the wrong order in E"
        elif kind == "aj_compare":
            if not out.match:
                return f"eps(L * {op['right']}) != eps(L) * curve"
        elif kind == "ore_apply":
            if out != Fraction(ref):
                return (f"L * {op['right']} applied to J at n = {op['n']}, "
                        f"q = {op['q']} gives {out}")
        elif kind == "expand_at_one":
            p0, rs = out
            acc = p0
            for k, r in enumerate(rs, start=1):
                step = aj.OreOperator.shift(k, 1) - aj.OreOperator.scalar(1, 1)
                acc = acc + aj.ore_mul(step, r)
            if not p0.lattice_free() or acc != env["p_full"]:
                return "p0 + sum (Eti - 1) r_i != P"
        elif kind == "system":
            if out.coordinates != ("x",):
                return f"system in {out.coordinates}"
        elif kind == "eliminate":
            want = env["curve"]
            if op["kind"] == "squared":
                li = want.vars.index("l")
                want = want * aj.LaurentMPoly(want.vars, {
                    e: -c if e[li] % 2 else c for e, c in want.terms.items()})
            p = out.poly
            # equal up to a nonzero rational factor
            if p.is_zero() or p * want.leading()[1] != want * p.leading()[1]:
                return f"{op['kind']} eliminant {p}"
        elif kind == "prop_comp_check":
            if len(out) != 5 or not all(r["pass"] for r in out):
                return "a ratio/form identity fails"
        return None


# -- saddle ----------------------------------------------------------------

class Saddle:
    # The li2 points go in batches of one region each, one batch per op:
    # 50 batches (about 0.3 ms each) sort below the 200 saddles (3-6 ms)
    # and the 16 ladders above them, so the median op is a solve_saddle
    # and op_p50_ms follows Newton, parse_poly and the rebuilt forms, not
    # the harness's own few microseconds per op.
    size = {"saddles": 200, "li2_batches": 10, "li2_per_batch": 24,
            "asym": 16}

    @staticmethod
    def _li2_point(rng, region):
        if region == "cut_upper":
            return [rng.uniform(1.0, 10.0), 0.0]
        if region == "cut_lower":
            return [rng.uniform(1.0, 10.0), -0.0]
        lo, hi = {"inside": (0.0, 0.9), "near_circle": (0.97, 1.03),
                  "outside": (1.1, 5.0)}[region]
        z = rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        return [z.real, z.imag]

    def generate(self, rng):
        size = self.size
        ops = [{"op": "volume"}]
        for _ in range(size["saddles"]):
            z = (rng.uniform(0.85, 1.15)
                 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
            ops.append({"op": "solve_saddle", "mirror": rng.random() < 0.5,
                        "alpha": [z.real, z.imag]})
        for region in ("inside", "near_circle", "outside", "cut_upper",
                       "cut_lower"):
            for _ in range(size["li2_batches"]):
                zs = [self._li2_point(rng, region)
                      for _ in range(size["li2_per_batch"])]
                ops.append({"op": "li2", "zs": zs})
        for _ in range(size["asym"]):
            n0 = rng.randint(100, 1250)
            ops.append({"op": "asymptotic_check",
                        "a": str(Fraction(rng.randint(25, 45), 100)),
                        "u": str(Fraction(rng.randint(5, 20), 100)),
                        "ns": [n0 * 2 ** k for k in range(4)]})
        return _shuffled(rng, ops)

    def references(self, ops):
        refs = []
        for op in ops:
            if op["op"] == "li2":
                refs.append([li2_reference(*z) for z in op["zs"]])
            elif op["op"] == "volume":
                w = cmath.exp(1j * math.pi / 3)
                refs.append(2 * li2_reference(w.real, w.imag)[1])
            else:
                refs.append(None)
        return refs

    def setup(self, aj):
        return {"spec": {m: aj.builtin_potential(mirror=m)
                         for m in (False, True)}}

    def calls(self, aj, env, ops, outs):
        calls = []
        for op in ops:
            kind = op["op"]
            if kind == "solve_saddle":
                fn = (lambda s=env["spec"][op["mirror"]],
                      a=complex(*op["alpha"]):
                      aj.solve_saddle(s, a, 0.5 + 0.8j))
            elif kind == "li2":
                fn = (lambda zs=[complex(*z) for z in op["zs"]]:
                      [aj.li2(z) for z in zs])
            elif kind == "asymptotic_check":
                fn = (lambda a=Fraction(op["a"]), u=Fraction(op["u"]),
                      ns=tuple(op["ns"]): aj.asymptotic_check(a, u, ns))
            else:
                fn = (lambda: aj.volume())
            calls.append((kind, fn))
        return calls

    def check(self, aj, env, i, ops, outs, refs):
        op, out, ref = ops[i], outs[i], refs[i]
        kind = op["op"]
        if kind == "solve_saddle":
            # gluing equation and longitude of the figure-eight potential,
            # written out by hand
            a2 = complex(*op["alpha"]) ** 2
            x = out.coords["x"]
            glue = (1 - a2 * x) * (1 - a2 / x) / a2
            l2 = ((1 - a2 * x) / (x - a2)) ** 2
            if op["mirror"]:
                glue, l2 = 1 / glue, 1 / l2
            if (out.residual > 1e-9 or abs(glue - 1) > 1e-9
                    or abs(out.l_squared - l2) > 1e-9 * max(1, abs(l2))):
                return f"saddle at alpha = {op['alpha']} is off the curve"
        elif kind == "volume":
            if abs(out - VOLUME) > 1e-9 or abs(out - ref) > 1e-9:
                return f"volume {out!r}"
        elif kind == "li2":
            if len(out) != len(op["zs"]):
                return f"{len(out)} li2 values for {len(op['zs'])} points"
            for z, got, want in zip(op["zs"], out, ref):
                want = complex(*want)
                if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                    return f"li2({complex(*z)}) = {got}, mpmath {want}"
        else:
            errs = [r["rel_err"] for r in out]
            if (len(errs) != len(op["ns"])
                    or not all(e > f for e, f in zip(errs, errs[1:]))):
                return f"asymptotic error does not fall: {errs}"
        return None


WORKLOADS = {"jones": Jones(), "certify": Certify(), "saddle": Saddle()}
