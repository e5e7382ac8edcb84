"""Benchmark for the intcyclic package in this checkout.

    python3 perfbench/run.py --workload scan|search|structure --seed N \
        --seconds S --trace 0|1

The program is imported from `src/` next to this directory and driven in one
process with one worker (`jobs=1`).  A run makes its inputs from the seed
(see inputs.py), then repeats passes over them, each item a closed loop with
one client, until S seconds have gone by and at least three passes are
done.  Every answer is checked (see workloads.py); a run with any failed item
reports `"correct": false`.

Times are calibrated.  On a shared machine other tenants slow every
interpreter-bound loop alike, by up to 1.8x, and the slowdown changes within
a second as well as over minutes.  So a fixed reference loop (`reference`)
is timed before and after every item, and the item's time is scaled by
REFERENCE_S over the mean of those two: it reads as it would at the nominal
speed.  The raw figures are kept in the info line.

With --trace 0 the last line of stdout carries the end-to-end metrics.  An
item's latency is the median of its calibrated latencies over the passes, and
the percentiles are taken over those per-item latencies.  With --trace 1
untraced and traced passes alternate, the last line carries per-layer metrics
(median over traced passes) and the tracing overhead, and the spans go to
`.perfbench_out/`.  The line before the last records the Python version,
commit, nproc, budgets, seed, input properties and failures by kind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from tracing import UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import Runner  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 15
REFERENCE_S = 0.0013  # median time of reference() on a 2-core x86-64 VM

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "decided_share": "fraction",
    "nodes_explored": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def reference(loops: int = 4000) -> int:
    """About a millisecond of integer, dict and branch work, like the
    solver's inner loop but independent of the program."""
    total = 0
    table: dict[int, int] = {}
    for i in range(loops):
        key = i & 1023
        total += (i * 2654435761 >> 7) & 0xFF
        table[key] = total
        if table.get(key ^ 1, 0) > total:
            total -= 1
    return total


def time_reference() -> float:
    start = perf_counter()
    reference()
    return perf_counter() - start


# Run in a fresh interpreter: the program's own set-up is importing the
# package with every layer (the CLI imports all of them); it does no other
# work once per process before its first call.  The reference loop right
# after the import calibrates it.
SETUP_CODE = """
import sys, time, statistics
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import intcyclic, intcyclic.cli
elapsed = time.perf_counter() - start
if not intcyclic.__file__.startswith(sys.argv[1]):
    sys.exit("imported intcyclic from outside " + sys.argv[1])
sys.path.insert(0, sys.argv[2])
from run import time_reference
print(elapsed, statistics.median(time_reference() for _ in range(15)))
"""


def load_program():
    """Import `intcyclic` from this checkout's sources, never from elsewhere."""
    if not (SRC / "intcyclic" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC}/intcyclic")
    sys.path.insert(0, str(SRC))
    import intcyclic
    import intcyclic.cli  # noqa: F401  (imports every layer)
    if not intcyclic.__file__.startswith(str(SRC)):
        raise SystemExit(f"error: intcyclic was imported from {intcyclic.__file__}")
    return intcyclic


def measure_setup() -> tuple[float, float]:
    """Median calibrated and raw import time over fresh interpreters."""
    calibrated, raw = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed, ref = map(float, proc.stdout.split())
        calibrated.append(elapsed * REFERENCE_S / ref)
        raw.append(elapsed)
    return statistics.median(calibrated), statistics.median(raw)


def load_expected(workload: str) -> dict:
    return json.loads((HERE / "expected.json").read_text())[workload]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Pass:
    """One pass over all items; `refs` holds the reference times taken
    between items, one more than there are items."""

    def __init__(self, traced: bool, results: list, spans: list, refs: list[float]):
        self.traced = traced
        self.results = results
        self.spans = spans
        self.scales = [2 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
        self.scale = REFERENCE_S / statistics.median(refs)
        # Memory is taken after the first pass: later passes repeat its work,
        # and would only add allocator fragmentation that depends on the
        # order of the items.
        self.max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(runner: Runner, items, seconds: float, traced_passes: bool) -> list[Pass]:
    """Passes over all items until `seconds` are up; with `traced_passes`
    every second pass is traced."""
    passes: list[Pass] = []
    deadline = perf_counter() + seconds
    while True:
        traced = traced_passes and len(passes) % 2 == 1
        runner.traced = traced
        runner.tracer.spans = []
        results, refs = [], [time_reference()]
        for i, item in enumerate(items):
            results.append(runner.run(i, item))
            refs.append(time_reference())
        passes.append(Pass(traced, results, runner.tracer.spans, refs))
        done_traced = sum(p.traced for p in passes)
        done_untraced = len(passes) - done_traced
        if traced_passes:
            enough = done_untraced >= 2 and done_traced >= 2
        else:
            enough = done_untraced >= MIN_PASSES
        if enough and perf_counter() >= deadline:
            return passes


def item_latencies(passes: list[Pass], calibrated: bool = True) -> list[float]:
    """Each item's median latency over the given passes."""
    return [statistics.median(p.results[i].latency * (p.scales[i] if calibrated else 1.0)
                              for p in passes)
            for i in range(len(passes[0].results))]


def summarize(items, passes: list[Pass]) -> tuple[dict, dict, int, int]:
    """End-to-end metrics over untraced passes, plus failure accounting."""
    untraced = [p for p in passes if not p.traced]
    failures: dict[str, int] = {}
    attempted = failed = 0
    for p in passes:
        for r in p.results:
            attempted += 1
            if not r.ok:
                failed += 1
                for kind in r.errors:
                    failures[kind] = failures.get(kind, 0) + 1
    bad, mismatches = [], 0
    for i in range(len(items)):
        runs = [p.results[i] for p in untraced]
        if len({r.nodes for r in runs}) != 1:
            failures["nondeterministic-nodes"] = failures.get("nondeterministic-nodes", 0) + 1
            failed += 1
        bad.append(not all(r.ok for r in runs))
        mismatches += runs[0].node_mismatch

    def timing(latencies: list[float]) -> tuple[float, float, float]:
        slowest = max(latencies)
        # failed items rank as slowest
        ranked = sorted(slowest if b else x for b, x in zip(bad, latencies))
        return ((len(items) - sum(bad)) / sum(latencies),
                percentile(ranked, 0.5) * 1e3, percentile(ranked, 0.9) * 1e3)

    first = untraced[0].results
    per_s, p50, p90 = timing(item_latencies(untraced))
    metrics = {
        "items_per_s": per_s,
        "item_p50_ms": p50,
        "item_p90_ms": p90,
        "decided_share": sum(r.decided for r in first) / len(first),
        "nodes_explored": sum(r.nodes for r in first),
    }
    raw = timing(item_latencies(untraced, calibrated=False))
    info = {"failures_by_kind": failures, "node_mismatch_items": mismatches,
            "latency_samples": len(items), "passes": len(untraced),
            "traced_passes": len(passes) - len(untraced),
            "speed_scale": [round(p.scale, 4) for p in passes],
            "raw": dict(zip(("items_per_s", "item_p50_ms", "item_p90_ms"), raw))}
    return metrics, info, attempted, failed


def trace_summary(passes: list[Pass]) -> dict:
    """Per-layer metrics as medians over traced passes; times are scaled by
    the pass's median reference time."""
    per_pass = []
    for p in passes:
        if p.traced:
            m = layer_metrics(p.spans)
            for name, unit in UNITS.items():
                if unit == "s":
                    m[name] *= p.scale
                elif unit == "nodes/s":
                    m[name] /= p.scale
            per_pass.append(m)
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    plain = sum(item_latencies([p for p in passes if not p.traced]))
    traced = sum(item_latencies([p for p in passes if p.traced]))
    out["trace.overhead_share"] = traced / plain - 1
    return out


def write_spans(workload: str, seed: int, items, passes: list[Pass]) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    doc = {"fields": ["item", "layer", "name", "start", "end", "parent", "info"],
           "items": [it.id for it in items],
           "passes": [p.spans for p in passes if p.traced]}
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return path


def benchmark(workload: str, seed: int, seconds: float, trace: bool, items=None):
    """One run; returns (result line, info line).  `items` replaces the
    seeded sample (the self-check uses a few)."""
    ic = load_program()
    if items is None:
        items = inputs.sample(workload, seed)
    tracer = Tracer()
    workdir = OUT / f"{workload}-{os.getpid()}"
    runner = Runner(ic, tracer, workdir, load_expected(workload))
    try:
        runner.prepare(items)
        if trace:
            tracer.install(ic)
        try:
            passes = run_passes(runner, items, seconds, trace)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, info, attempted, failed = summarize(items, passes)
    info.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "commit": commit(),
        "nproc": os.cpu_count(), "jobs": 1, "reference_s": REFERENCE_S,
        "budgets": {"scan": inputs.SCAN_BUDGET, "search": inputs.SEARCH_BUDGET,
                    "structure": inputs.STRUCTURE_BUDGET},
        "inputs": inputs.properties(items),
    })
    if trace:
        metrics, units = trace_summary(passes), UNITS
        info["spans"] = str(write_spans(workload, seed, items, passes).relative_to(ROOT))
    else:
        metrics["setup_s"], info["raw"]["setup_s"] = measure_setup()
        metrics["peak_rss_mb"] = passes[0].max_rss_mb
        info["setup_samples"] = SETUP_SAMPLES
        units = END_TO_END_UNITS
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, info = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        samples = (info["traced_passes"] if args.trace else
                   info["setup_samples"] if name == "setup_s" else info["latency_samples"])
        print(f"{name:<32} {metric['value']:>16.6f} {metric['unit']:<9} n={samples}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
