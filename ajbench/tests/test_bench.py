"""Tests of the benchmark itself, at a tiny size.

Run from the repository root:  python3 -m pytest -q ajbench/tests
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

# A few ops per workload; the ops are made in this process and shipped to
# the worker, so patching a workload's size here is enough.
TINY = {
    "jones": {"colors": 3, "qs_per_color": 2},
    "certify": {"colors": 2, "covers": 1, "windows": 2, "qs": 1, "lefts": 1,
                "applies": {"p0": 1, "cubic": 1}},
    "saddle": {"saddles": 4, "li2_batches": 1, "li2_per_batch": 2,
               "asym": 1},
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.chdir(ROOT)
    for name, size in TINY.items():
        monkeypatch.setattr(workloads.WORKLOADS[name], "size", size)


def _run(workload, trace="0"):
    return run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace])


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace, tiny, capsys):
    code = _run(workload, trace)
    out = capsys.readouterr().out
    assert code == 0, out
    res = _result(out)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    specs = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: m["unit"] for k, m in res["metrics"].items()} == specs
    for name, unit in specs.items():
        assert f"{name} " in out and f" {unit}\n" in out
    assert "failed_frac 0 1 (0 of" in out


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_same_seed_same_inputs():
    for name, wl in workloads.WORKLOADS.items():
        def ops(seed):
            return wl.generate(random.Random(f"{name}:{seed}"))
        assert ops(5) == ops(5)
        assert ops(5) != ops(6)


def test_saddle_median_op_is_a_saddle():
    ops = workloads.WORKLOADS["saddle"].generate(random.Random("saddle:1"))
    kinds = sorted(op["op"] for op in ops)
    cheaper = kinds.count("li2")
    dearer = kinds.count("asymptotic_check") + kinds.count("volume")
    assert cheaper < len(ops) // 2 < len(ops) - dearer


def test_wrong_reference_is_caught(tiny, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "habiro_jones", lambda n, q: q + 1)
    code = _run("jones")
    out = capsys.readouterr().out
    res = _result(out)
    assert code != 0
    assert res["correct"] is False and res["failed"] > 0
    frac = float(out.split("failed_frac ")[1].split()[0])
    assert frac == res["failed"] / res["attempted"] > 0


def test_no_source_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "ajbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join("ajbench", "run.py"), "--workload",
         "jones", "--seed", "3", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode not in (0, 1)
    assert proc.stdout == ""
