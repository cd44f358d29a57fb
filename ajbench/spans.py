"""Span tracing of ajlab's layer entry points, from outside the package.

`Tracer.install` replaces each function in `LAYERS` at every place it is
bound: the module global of every loaded ``ajlab`` module that holds it
(the package namespace included) and every class attribute that holds it
(so ``__radd__`` follows ``__add__``).  Each call then appends one span
``[name, start, end, parent, info, probe_s]`` to an in-memory list;
`summarize` turns the list into per-layer counts and self times once the
run is over.

A call made while the innermost open span belongs to the same layer (the
recursion inside ``poly_gcd``, say) folds into that span: it is neither
counted nor timed separately.  ``LaurentMPoly`` construction and
arithmetic are deliberately not wrapped; they run hundreds of thousands
of times per op and the wrapper would dominate their cost.
"""

from __future__ import annotations

import json
import sys
import time

# (layer name, module, attribute path inside the module)
LAYERS = (
    ("poly.gcd", "poly", "poly_gcd"),
    ("poly.exact_divide", "poly", "exact_divide"),
    ("poly.resultant", "poly", "resultant"),
    ("poly.squarefree_part", "poly", "squarefree_part"),
    ("poly.parse_poly", "poly", "parse_poly"),
    ("ratfun.init", "ratfun", "RationalFunction.__init__"),
    ("ratfun.add", "ratfun", "RationalFunction.__add__"),
    ("ratfun.mul", "ratfun", "RationalFunction.__mul__"),
    ("qhg.eval_symbolic", "qhg", "ProperQHTerm.eval_symbolic"),
    ("qhg.eval_exact", "qhg", "ProperQHTerm.eval_exact"),
    ("qhg.jones_symbolic", "qhg", "jones_symbolic"),
    ("qhg.shift_ratio", "qhg", "shift_ratio"),
    ("qhg.epsilon_ratio", "qhg", "epsilon_ratio"),
    ("ore.ore_mul", "ore", "ore_mul"),
    ("ore.ore_apply", "ore", "ore_apply"),
    ("ore.expand_at_one", "ore", "expand_at_one"),
    ("ore.epsilon_eval_with_unit", "ore", "epsilon_eval_with_unit"),
    ("figure8.recurrence_report", "figure8", "recurrence_report"),
    ("elim.ratio_system", "elim", "ratio_system"),
    ("elim.eliminate", "elim", "eliminate"),
    ("elim.aj_compare", "elim", "aj_compare"),
    ("potential.solve_saddle", "potential", "solve_saddle"),
    ("potential.derivative_forms", "potential", "derivative_forms"),
    ("potential.phi_eval", "potential", "phi_eval"),
    ("dilog.li2", "dilog", "li2"),
)

RAISED = "raised"


def _coeff_bits(p) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in p.terms.values()), default=0)


# What a span records in its info slot, taken after its end time.  The
# probe's own duration is kept in the span's probe_s slot and taken out of
# the parent's self time, so no layer is charged for it.
def _gcd_info(args, out):
    a, b = args
    return (out.is_constant(), max(len(a.terms), len(b.terms)),
            max(_coeff_bits(a), _coeff_bits(b)))


PROBES = {
    "poly.gcd": _gcd_info,
    "qhg.jones_symbolic": lambda args, out: args[0],
    "potential.solve_saddle": lambda args, out: out.iterations,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                rec[1] = clock()
                out = fn(*args, **kwargs)
                rec[2] = clock()
            except BaseException:
                rec[2] = clock()
                rec[4] = RAISED
                raise
            finally:
                stack.pop()
            if probe is not None:
                t0 = clock()
                rec[4] = probe(args, out)
                rec[5] = clock() - t0
            return out

        return traced

    def install(self, ajlab) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "ajlab" or k.startswith("ajlab.")]
        for name, modname, path in LAYERS:
            owner = getattr(ajlab, modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            holders = [owner] if cls_path else modules
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        self._undo.append((holder, key, orig))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def op(self, name: str, fn):
        """Run one benchmark op as a top-level span."""
        return self._wrap("op." + name, fn)()

    # -- results -----------------------------------------------------------

    def summarize(self, jones_cache) -> dict:
        """Per-layer metrics of the spans recorded so far, plus the summed
        self time of every span, op spans included, as ``spans_self_s``.
        The traced loop's time less ``spans_self_s`` is the benchmark's
        own: its loop and the probes.

        `jones_cache` is the ``cache_info()`` of ``figure8._jones_cached``.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        cancelled: set[int] = set()
        probe_s = 0.0
        for name, t0, t1, parent, info, probe in spans:
            probe_s += probe
            if parent >= 0:
                child_time[parent] += t1 - t0 + probe
                if name == "poly.gcd" and info != RAISED and not info[0]:
                    cancelled.add(parent)
        calls = dict.fromkeys((n for n, _, _ in LAYERS), 0)
        self_s = dict.fromkeys(calls, 0.0)
        raised = dict.fromkeys(calls, 0)
        infos: dict[str, list] = {n: [] for n in PROBES}
        init_cancelled = 0
        top_s = 0.0
        for idx, (name, t0, t1, parent, info, _) in enumerate(spans):
            if parent < 0:
                top_s += t1 - t0
            if name not in calls:
                continue
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[idx]
            if info == RAISED:
                raised[name] += 1
            elif info is not None:
                infos[name].append(info)
            if name == "ratfun.init" and idx in cancelled:
                init_cancelled += 1

        def frac(num, den):
            return num / den if den else 0.0

        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        gcds = infos["poly.gcd"]
        out["poly.gcd.trivial_frac"] = frac(sum(i[0] for i in gcds), len(gcds))
        out["poly.gcd.max_in_terms"] = max((i[1] for i in gcds), default=0)
        out["poly.gcd.max_coeff_bits"] = max((i[2] for i in gcds), default=0)
        out["poly.exact_divide.failed"] = raised["poly.exact_divide"]
        out["ratfun.init.cancel_frac"] = frac(init_cancelled,
                                              calls["ratfun.init"])
        colors = infos["qhg.jones_symbolic"]
        out["qhg.jones_symbolic.repeat_frac"] = frac(
            len(colors) - len(set(colors)), calls["qhg.jones_symbolic"])
        iters = infos["potential.solve_saddle"]
        out["potential.newton_iters"] = sum(iters)
        out["potential.converged_frac"] = frac(
            len(iters), calls["potential.solve_saddle"])
        out["figure8.jones_cache.hit_frac"] = frac(
            jones_cache.hits, jones_cache.hits + jones_cache.misses)
        out["spans_self_s"] = top_s - probe_s
        return out

    def dump(self, path: str) -> None:
        """Write the raw spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, _, _ in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")
