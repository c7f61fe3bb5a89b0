"""Run one workload of the socular benchmark and print its metrics.

Run from the root of a checkout, which must hold ``src/socular`` and
``BENCHMARK.json``::

    python3 bench/run.py --workload gk-unique --seed 1 --seconds 28 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json, measured with
no tracing and scaled to a reference host speed (see ``workloads.timed``); the
raw figures are printed next to them.  ``--trace 1`` spends half the time on
untraced passes and half on traced passes over the same inputs, prints every
per-layer metric, and writes the spans to ``bench/results/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every answer passed its checks.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from tracing import Tracer, busy

_clock = time.perf_counter_ns
SETUP_RUNS = 9
FLOOR_RUNS = 9
SETUP_CODE = "import socular, time; print(time.perf_counter_ns())"
# A set-up is scaled by a bare interpreter start taken right after it, which
# takes out the host's speed at that moment (NOTES.md, scaled latency).
BARE_CODE = "import time; print(time.perf_counter_ns())"
BARE_REF_S = 0.055


def spawn_seconds(code: str) -> float:
    """Seconds from spawning a cold interpreter running ``code`` until it prints the clock.

    The child reads the same monotonic clock as this process, so with
    ``SETUP_CODE`` the span ends when the first operation could be sent;
    interpreter exit is not counted.
    """
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    start = _clock()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return (int(proc.stdout.split()[-1]) - start) / 1e9


def run_passes(workload, one_pass, seconds: float, rs_shape, between=None) -> list:
    """Repeat passes until ``seconds`` have gone, each from a cold rs_shape cache.

    ``between`` runs after each pass, outside its timing.
    """
    passes = []
    start = _clock()
    while not passes or _clock() - start < seconds * 1e9:
        gc.collect()
        if workload.in_process:
            rs_shape.cache_clear()
        p = one_pass()
        if workload.in_process:
            info = rs_shape.cache_info()
            p.cache = (info.hits, info.misses, info.currsize)
        passes.append(p)
        if between is not None:
            between()
    return passes


def count_failed(workload, passes, reference, bad) -> int:
    """Failed operations: any answer that failed a check or differs from the reference pass."""
    return sum(
        workload.weight(ans)
        for p in passes
        for i, ans in enumerate(p.answers)
        if i in bad or ans != reference[i]
    )


def nearest_rank(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def best_latencies(passes) -> list[int]:
    """Each input's fastest latency over the passes, in pool order (the raw figures)."""
    return [min(col) for col in zip(*(p.latencies_ns for p in passes))]


def throughput(workload, passes) -> float:
    """Operations per second of a pass made of every input's best latency.

    With one caller and nothing between operations, a pass's wall time is the
    sum of its latencies.
    """
    return workload.ops_per_pass() / (sum(best_latencies(passes)) / 1e9)


def scaled_latencies(workload, passes) -> list[float]:
    """Each input's latency at the reference host speed, in ns, in pool order.

    Every call was followed by the workload's reference; the call over that
    reference, median over the passes, times the reference's scale.
    """
    return [
        statistics.median(c / r for c, r in zip(calls, refs)) * workload.ref_scale_ns
        for calls, refs in zip(zip(*(p.latencies_ns for p in passes)), zip(*(p.ref_ns for p in passes)))
    ]


def scaled_throughput(workload, passes) -> float:
    return workload.ops_per_pass() / (sum(scaled_latencies(workload, passes)) / 1e9)


def _ms_median(values_ns) -> float:
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


def layer_metrics(workload, untraced, traced, floor_spans) -> dict:
    """Every per-layer value the traced passes give; absent layers are left out."""
    per_pass = []
    for p in traced:
        totals: dict[str, float] = {}
        for name, row in busy(p.spans).items():
            totals[f"{name}.calls"] = row[0]
            totals[f"{name}.ms"] = row[1] / 1e6
            totals[f"{name}.self_ms"] = row[2] / 1e6
        for name, start, end, _, op in p.spans:
            rank = workload.rank(op) if name == "tableaux.rs_shape" else None
            if rank is not None:
                key = f"tableaux.rs_shape.n{rank}.ms"
                totals[key] = totals.get(key, 0.0) + (end - start) / 1e6
        per_pass.append(totals)
    # every traced pass makes the same calls; busy times keep the fastest pass
    out = {k: min(t.get(k, 0) for t in per_pass) for k in set().union(*per_pass)}
    if workload.in_process:
        hits, misses, entries = traced[0].cache
        out["tableaux.rs_shape.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["tableaux.rs_shape.entries"] = entries
    else:
        spans = [s for p in traced for s in p.spans]
        for metric, name in (("cli.import_ms", "cli.import"), ("cli.command_ms", "cli.command")):
            out[metric] = _ms_median([e - s for n, s, e, _, _ in spans if n == name])
        out["cli.interpreter_ms"] = _ms_median([e - s for _, s, e, _, _ in floor_spans])
    out["trace.ops_ratio"] = scaled_throughput(workload, traced) / scaled_throughput(workload, untraced)
    return out


def run_workload(workload, seed: int, seconds: float, trace: bool, spec: dict, out_dir: str):
    """Measure one workload; return the result object and the report lines."""
    from socular import rs_shape

    lines = [f"workload {workload.name}  seed {seed}  seconds {seconds}  trace {int(trace)}"]
    facts = {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "ops_per_pass": workload.ops_per_pass(),
        "loop": "closed, one caller, one process",
    }
    if not trace:
        spawn_seconds(SETUP_CODE)  # may write bytecode caches; not counted
    workload.warm_up()
    problems = []
    if not trace:
        setup, bare = [], []

        def sample_host():
            # a cold set-up with a bare start next to it, after each pass, so
            # the pairs sample the whole run
            setup.append(spawn_seconds(SETUP_CODE))
            bare.append(spawn_seconds(BARE_CODE))

        passes = run_passes(workload, workload.timed_pass, seconds, rs_shape, sample_host)
        while len(setup) < SETUP_RUNS:
            sample_host()
        usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
        untraced, traced = passes, []
    else:
        untraced = run_passes(workload, workload.timed_pass, seconds / 2, rs_shape)
        floor = Tracer()
        if not workload.in_process:
            workload.interpreter_floor(floor, FLOOR_RUNS)
        traced = run_passes(workload, lambda: workload.traced_pass(Tracer()), seconds / 2, rs_shape)
        passes = untraced + traced
        if workload.in_process and traced[0].cache[:2] != untraced[0].cache[:2]:
            problems.append(
                f"rs_shape hits/misses differ: traced {traced[0].cache[:2]}, untraced {untraced[0].cache[:2]}"
            )

    reference = untraced[0].answers
    bad = workload.check(reference, random.Random(seed))
    attempted = sum(p.ops for p in passes)
    failed = count_failed(workload, passes, reference, bad) + len(problems)
    problems += [f"op {i}: {msg}" for i, msg in sorted(bad.items())[:20]]
    digest = hashlib.sha256(repr(reference).encode()).hexdigest()[:16]
    facts.update(passes=len(untraced), traced_passes=len(traced), attempted=attempted, digest=digest)
    lines.append(
        f"facts: nproc {facts['nproc']}, python {facts['python']}, {facts['ops_per_pass']} ops per pass, "
        f"{len(untraced)} untraced + {len(traced)} traced passes, {attempted} ops"
    )

    if not trace:
        lat = sorted(best_latencies(passes))
        raw = {
            "setup_s": statistics.median(setup),
            "ops_per_s": throughput(workload, passes),
            "p50_ms": nearest_rank(lat, 0.5) / 1e6,
            "p90_ms": nearest_rank(lat, 0.9) / 1e6,
        }
        lat = sorted(scaled_latencies(workload, passes))
        values = {
            "setup_s": statistics.median(s / b for s, b in zip(setup, bare)) * BARE_REF_S,
            "ops_per_s": scaled_throughput(workload, passes),
            "p50_ms": nearest_rank(lat, 0.5) / 1e6,
            "p90_ms": nearest_rank(lat, 0.9) / 1e6,
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "setup_s": (
                f"median over {len(setup)} cold `import socular` runs, one after each pass (at least "
                f"{SETUP_RUNS}), of its time over a bare start next to it, times {BARE_REF_S} s; "
                f"raw median {raw['setup_s']} s"
            ),
            "ops_per_s": (
                f"{workload.ops_per_pass()} ops over the summed input latencies, each the median over "
                f"{len(passes)} passes of call / reference next to it, times {workload.ref_scale_ns / 1e6} ms; "
                f"raw (summed best latencies) {raw['ops_per_s']}"
            ),
            "p50_ms": f"{len(lat)} samples, one per input over {len(passes)} passes; raw {raw['p50_ms']}",
            "p90_ms": f"{len(lat)} samples, {len(lat) - math.ceil(0.9 * len(lat))} beyond; raw {raw['p90_ms']}",
            "peak_rss_mb": (
                f"this process, rs_shape entries {passes[-1].cache[2]} after a pass"
                if workload.in_process
                else "largest child process"
            ),
        }
        facts.update(raw=raw)
        wanted = spec["end_to_end"]
    else:
        values = layer_metrics(workload, untraced, traced, floor.spans)
        notes = {"trace.ops_ratio": "traced over untraced ops_per_s, both scaled"}
        wanted = spec["per_layer"]
        facts["spans_file"] = os.path.join(out_dir, f"{workload.name}.spans.json")
    metrics = {}
    for m in wanted:
        v = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        note = notes.get(m["name"])
        lines.append(f"{m['name']} {v} {m['unit']}" + (f"  ({note})" if note else ""))
    lines.append(f"failed_ratio {failed / attempted} ratio  ({failed} of {attempted} ops failed)")
    lines.append(f"digest {digest}")
    lines.extend(f"FAILED {msg}" for msg in problems)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload.name}.trace{int(trace)}.json"), "w") as fh:
        json.dump({"facts": facts, "metrics": metrics, "notes": notes, "problems": problems}, fh, indent=1)
    if trace:
        spans = {"fields": ["name", "start_ns", "end_ns", "parent", "op"], "floor": floor.spans}
        spans["passes"] = [p.spans for p in traced]
        with open(facts["spans_file"], "w") as fh:
            json.dump(spans, fh)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "socular", "__init__.py")):
        print("error: run from the root of a socular checkout (no src/socular here)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](random.Random(args.seed))
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
    result, lines = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec, out_dir)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
