"""The benchmark's traced runs stay in step with the library, on several seeds.

A traced pass rebuilds ``gk_dimension`` and ``is_socular`` from their public
stages, and the harness requires it to give the same answers and the same
``rs_shape`` hits and misses as the library itself.  This runs the harness
and its workloads as they are, at toy sizes, so a change to the library's
cache keys that the traced stages do not share fails here.
"""

import json
import os
import random
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)

import run  # noqa: E402
from workloads import GkUnique, SocularQuery  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

TOYS = {
    "gk-unique": lambda rng: GkUnique(rng, per_cell=1, ranks=(4, 9)),
    "socular-query": lambda rng: SocularQuery(rng, per_cell=1, ranks=(4, 7)),
}


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("name", list(TOYS))
def test_traced_run_is_correct_with_equal_cache_counts(name, seed, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = TOYS[name](random.Random(seed))
    result, lines = run.run_workload(workload, seed, 0.01, True, SPEC, str(tmp_path))
    assert not [line for line in lines if "hits/misses differ" in line], lines
    assert result["correct"] and result["failed"] == 0, lines
