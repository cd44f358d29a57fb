"""ajlab benchmark: run one seeded workload and print its metrics.

Usage, from the root of an ajlab checkout::

    python3 ajbench/run.py --workload jones --seed 1 --seconds 20 --trace 0

The seed is turned into the workload's op list here (see workloads.py);
the program under test only ever receives the generated inputs.  Oracle
values are computed here too, before any pass starts.  Each pass then
runs in a fresh interpreter (worker.py): import and builtins (set-up),
the whole op list in a closed loop (one caller, each op starting when the
last one ended), and the output checks.  Passes repeat until --seconds
have gone by.  Each metric is the median over passes, except op_p50_ms,
the median of every op latency of every pass.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates plain (untraced)
and traced passes and reports the per-layer metrics, including the
tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when
every op passed its check, 1 when some did not, and 2 when the run could
not be made at all (no ajlab source in the current directory, a pass
that crashed or ran out of time); no result is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(".bench_build", "ajbench")
DEADLINE_S = 170.0
# Every time reported is scaled to a machine on which worker.speed_probe
# takes this long: each pass's times are multiplied by PROBE_REF_S over
# that pass's own probe time.  On a shared VM the speed of plain Python
# can change by half between runs minutes apart; the scaling takes that
# drift out and leaves what the op list itself costs.
PROBE_REF_S = 0.03

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _layer_units() -> dict[str, str]:
    from spans import LAYERS
    units = {}
    for name, _, _ in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "poly.gcd.trivial_frac": "1",
        "poly.gcd.max_in_terms": "count",
        "poly.gcd.max_coeff_bits": "bits",
        "poly.exact_divide.failed": "count",
        "ratfun.init.cancel_frac": "1",
        "qhg.jones_symbolic.repeat_frac": "1",
        "potential.newton_iters": "count",
        "potential.converged_frac": "1",
        "figure8.jones_cache.hit_frac": "1",
        "trace.overhead_frac": "1",
        "trace.loop_overhead_s": "s",
        "trace.wall_s": "s",
    })
    return units


PER_LAYER = _layer_units()


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_pass(root: str, job: dict, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, OUT_DIR, "pycache")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time after {DEADLINE_S:.0f} s")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                              input=json.dumps(job), capture_output=True,
                              text=True, env=env, cwd=root, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass ran past the {DEADLINE_S:.0f} s limit")
    if proc.returncode != 0:
        raise BenchError(f"a pass crashed:\n{proc.stderr}")
    res = json.loads(proc.stdout)
    src = os.path.realpath(os.path.join(root, "src", "ajlab"))
    if os.path.dirname(os.path.realpath(res["module"])) != src:
        raise BenchError(f"imported ajlab from {res['module']}, not {src}")
    return res


def tail(lat: list[float]) -> tuple[float, float, int]:
    """The latency at the highest percentile with at least ten ops beyond
    it (the slowest op when there are fewer than eleven), as (value,
    percentile, ops beyond)."""
    s = sorted(lat)
    k = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def _scale(p: dict) -> float:
    return PROBE_REF_S / p["probe_s"]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": med(p["setup_s"] * _scale(p) for p in passes),
        "wall_s": med(p["wall_s"] * _scale(p) for p in passes),
        "op_p50_ms": 1e3 * med([t * _scale(p) for p in passes
                                for t in p["lat"]]),
        "op_tail_ms": 1e3 * med(tail(p["lat"])[0] * _scale(p)
                                for p in passes),
        "peak_rss_mb": med(p["rss_mb"] for p in passes),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    med = statistics.median

    def scaled(p, key):
        value = p["layers"][key]
        return value * _scale(p) if key.endswith("_s") else value

    out = {k: med(scaled(p, k) for p in traced)
           for k in PER_LAYER if not k.startswith("trace.")}
    traced_wall = med(p["wall_s"] * _scale(p) for p in traced)
    plain_wall = med(p["wall_s"] * _scale(p) for p in plain)
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1
    out["trace.loop_overhead_s"] = med(
        (p["wall_s"] - p["layers"]["spans_self_s"]) * _scale(p)
        for p in traced)
    out["trace.wall_s"] = traced_wall
    return out


def measure(root, workload, ops, refs, seconds, trace, spans_path):
    """Run passes until `seconds` have gone by (at least three, or two of
    each kind when tracing, alternating plain and traced)."""
    deadline = time.monotonic() + DEADLINE_S
    start = time.monotonic()
    plain, traced = [], []
    while True:
        traced_pass = trace and len(plain) > len(traced)
        job = {"root": root, "workload": workload, "ops": ops, "refs": refs,
               "trace": traced_pass,
               "spans_path": spans_path if traced_pass else None}
        (traced if traced_pass else plain).append(run_pass(root, job, deadline))
        enough = (min(len(plain), len(traced)) >= 2 and len(plain) == len(traced)
                  if trace else len(plain) >= 3)
        if enough and time.monotonic() - start >= seconds:
            return plain, traced


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src", "ajlab")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print(f"ajbench: no ajlab source at {src}; run from the root of an "
              f"ajlab checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    ops = wl.generate(random.Random(f"{args.workload}:{args.seed}"))
    refs = wl.references(ops)
    meta = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "ops": len(ops),
        "ops_sha256": hashlib.sha256(
            json.dumps(ops, sort_keys=True).encode()).hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": _commit(root),
        "src_sha256": _sha256_files(sorted(
            os.path.join(src, f) for f in os.listdir(src) if f.endswith(".py"))),
    }
    os.makedirs(os.path.join(root, OUT_DIR, "pycache"), exist_ok=True)
    stem = os.path.join(root, OUT_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        plain, traced = measure(root, args.workload, ops, refs, args.seconds,
                                bool(args.trace), stem + ".spans.jsonl")
    except BenchError as exc:
        print(f"ajbench: {exc}", file=sys.stderr)
        return 2

    passes = plain + traced
    attempted = len(ops) * len(passes)
    failures = [(n, i, why) for n, p in enumerate(passes)
                for i, why in sorted(p["failures"].items(), key=lambda t: int(t[0]))]
    if args.trace:
        values, units = per_layer(plain, traced), PER_LAYER
    else:
        values, units = end_to_end(plain), END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    print(f"ajbench {args.workload}: seed {args.seed}, {len(ops)} ops "
          f"(sha256 {meta['ops_sha256'][:16]}), python {meta['python']}, "
          f"nproc {meta['nproc']}, commit {meta['commit'] or 'unknown'}, "
          f"src sha256 {meta['src_sha256'][:16]}")
    raw_wall = statistics.median(p["wall_s"] for p in passes)
    probe = statistics.median(p["probe_s"] for p in passes)
    print(f"closed loop, one caller; {len(plain)} plain and {len(traced)} "
          f"traced passes, each in a fresh interpreter; medians over passes")
    print(f"times scaled to a {PROBE_REF_S} s speed probe; probe here "
          f"{probe:.4g} s, unscaled wall_s {raw_wall:.4g} s")
    for k, m in metrics.items():
        print(f"  {k:36s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        _, pct, beyond = tail(plain[0]["lat"])
        print(f"  op_tail_ms is p{pct:.0f} of {len(ops)} ops per pass "
              f"({beyond} beyond it)")
    else:
        print("  per pass, the self times of all spans (layers and ops) "
              "sum to trace.wall_s less trace.loop_overhead_s, the "
              "benchmark's own time: its loop and the span probes")
    print(f"  failed_frac {len(failures) / attempted:.6g} 1 "
          f"({len(failures)} of {attempted} ops)")
    for n, i, why in failures[:20]:
        print(f"  FAILED pass {n} op {i}: {why}")

    with open(stem + ".json", "w") as fh:
        json.dump({**meta, "metrics": metrics, "failures": failures,
                   "passes": passes}, fh)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
