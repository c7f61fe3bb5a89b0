"""Smoke test of the benchmark: every workload, untraced and traced, at toy sizes.

Run from the repository root::

    python -m pytest -q bench/test_smoke.py
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS, Cli, GkUnique, OracleSweep, Pass, SocularQuery  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def toy(name: str, rng):
    if name == "gk-unique":
        return GkUnique(rng, per_cell=1, ranks=(4, 9))
    if name == "socular-query":
        return SocularQuery(rng, per_cell=1, ranks=(4, 7))
    if name == "oracle-sweep":
        return OracleSweep(rng, windows=(3,), max_n=2, max_total=6, expand_total=8)
    return Cli(rng, per_command=1)


def test_spec_lists_every_workload_and_keeps_the_limits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_clean(name, trace, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    result, lines = run.run_workload(toy(name, random.Random(3)), 3, 0.01, trace, SPEC, str(tmp_path))
    assert result["correct"] and result["failed"] == 0, lines
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(m["value"] >= 0 for m in result["metrics"].values())
    json.dumps(result)
    if trace:
        assert result["metrics"]["trace.ops_ratio"]["value"] > 0
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in ("setup_s", "ops_per_s", "p50_ms"))


def test_scaled_latency_cancels_host_speed():
    workload = toy("socular-query", random.Random(3))
    fast = Pass([], [100_000, 400_000], 2)
    fast.ref_ns = [200_000, 200_000]
    slow = Pass([], [170_000, 680_000], 2)
    slow.ref_ns = [340_000, 340_000]
    assert run.scaled_latencies(workload, [fast, slow, slow]) == pytest.approx([100_000, 400_000])


def test_same_seed_same_inputs():
    a, b = toy("socular-query", random.Random(5)), toy("socular-query", random.Random(5))
    assert a.pool == b.pool
    assert a.pool != toy("socular-query", random.Random(6)).pool


def test_wrong_answer_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = toy("socular-query", random.Random(3))
    real = workload.op
    monkeypatch.setattr(workload, "op", lambda inp: real(inp)[:3] + ((1,),))
    result, _ = run.run_workload(workload, 3, 0.01, False, SPEC, str(tmp_path))
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    argv = ["bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
