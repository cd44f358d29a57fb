"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Reads a job from stdin (JSON: checkout root, workload, ops, references,
whether to trace, where to write spans), then

1. imports ajlab from ``<root>/src`` and builds the workload's builtins
   (timed: ``setup_s``),
2. turns the ops into calls,
3. runs the calls in a closed loop, one after the other, timing each
   (``wall_s`` is the whole loop), with the tracer installed if asked;
   `speed_probe` runs before, during and after the loop, outside every
   timed op and outside ``wall_s``,
4. reads the process's peak RSS, then checks every output against its
   reference, outside the timed region,

and writes one JSON result to stdout.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from fractions import Fraction

from spans import Tracer
from workloads import WORKLOADS


# The speed probe also runs between ops, once this much loop time has
# passed since it last ran, so that it samples the whole pass.
PROBE_EVERY_S = 0.25


def speed_probe() -> float:
    """Time a fixed pure-Python kernel: a dense bivariate product over
    Fraction, the kind of work ajlab's exact layers do, touching no ajlab
    code and with the garbage collector off.  It measures how fast this
    machine runs Python at the moment, nothing about ajlab."""
    a = {(i, j): Fraction(i - j, i + j + 1)
         for i in range(6) for j in range(12)}
    b = {(i, j): Fraction(i + j, i - j + 13)
         for i in range(12) for j in range(12)}
    gc.disable()
    try:
        t0 = time.perf_counter()
        out: dict = {}
        for (i, j), c in a.items():
            for (k, m), d in b.items():
                key = (i + k, j + m)
                out[key] = out.get(key, 0) + c * d
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_loop(calls, outs, tracer=None):
    """Call each thunk in order, storing outputs (or the exception raised)
    in `outs`.  Return per-call latencies, which calls raised, the loop's
    wall time without the probes, and the mean probe time."""
    clock = time.perf_counter
    lat = [0.0] * len(calls)
    raised = [False] * len(calls)
    probes = [speed_probe()]
    probing = 0.0
    start = last_probe = clock()
    for i, (name, fn) in enumerate(calls):
        t0 = clock()
        try:
            outs[i] = fn() if tracer is None else tracer.op(name, fn)
        except Exception as exc:  # an op that raises is a failed op
            outs[i] = exc
            raised[i] = True
        t1 = clock()
        lat[i] = t1 - t0
        if t1 - last_probe >= PROBE_EVERY_S:
            probes.append(speed_probe())
            last_probe = clock()
            probing += last_probe - t1
    wall = clock() - start - probing
    probes.append(speed_probe())
    return lat, raised, wall, sum(probes) / len(probes)


def main() -> int:
    job = json.load(sys.stdin)
    wl = WORKLOADS[job["workload"]]
    ops, refs = job["ops"], job["refs"]

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import ajlab
    env = wl.setup(ajlab)
    setup_s = time.perf_counter() - t0

    outs: list = [None] * len(ops)
    calls = wl.calls(ajlab, env, ops, outs)
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install(ajlab)
    try:
        lat, raised, wall_s, probe_s = run_loop(calls, outs, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        from ajlab.figure8 import _jones_cached
        layers = tracer.summarize(_jones_cached.cache_info())
        tracer.dump(job["spans_path"])

    failures = {}
    for i, op in enumerate(ops):
        if raised[i]:
            why = f"raised {outs[i]!r}"
        else:
            try:
                why = wl.check(ajlab, env, i, ops, outs, refs)
            except Exception as exc:  # a malformed output fails its check
                why = f"check raised {exc!r}"
        if why is not None:
            failures[i] = f"{op['op']}: {why}"

    json.dump({"setup_s": setup_s, "wall_s": wall_s, "probe_s": probe_s,
               "lat": lat, "rss_mb": rss_mb, "failures": failures,
               "layers": layers, "module": ajlab.__file__}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
