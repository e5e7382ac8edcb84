"""Quick self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

For each workload it runs the six smallest items of a seeded sample,
untraced and traced, and asserts that every metric BENCHMARK.json names is
reported with its unit and that the answers pass the gate.  Then it injects
a wrong answer (`decide` reports feasible color counts as infeasible) and
asserts that the affected items count as failed.
"""

from __future__ import annotations

import json
import sys

import inputs
from run import ROOT, benchmark, load_program

TINY = 6


def tiny_items(workload: str) -> list:
    return sorted(inputs.sample(workload, 0), key=lambda it: (it.edge_count, it.id))[:TINY]


def check_metrics(result: dict, declared: list[dict]) -> None:
    reported = result["metrics"]
    for metric in declared:
        got = reported.get(metric["name"])
        assert got is not None, f"missing metric {metric['name']}"
        assert got["unit"] == metric["unit"], f"{metric['name']}: unit {got['unit']}"
    assert set(reported) == {m["name"] for m in declared}, sorted(reported)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    for workload in inputs.WORKLOADS:
        items = tiny_items(workload)
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, info = benchmark(workload, 0, 0, trace, items)
            check_metrics(result, declared)
            assert result["correct"] and result["failed"] == 0, info["failures_by_kind"]
        print(f"{workload}: {len(items)} items, metrics and answers ok")

    solver = load_program().solver
    decide = solver.decide

    def wrong_decide(g, t, node_budget=None):
        out = decide(g, t, node_budget)
        if out.decision != solver.FEASIBLE:
            return out
        return solver.SolveOutcome(solver.INFEASIBLE, t, None, out.nodes_explored, out.elapsed)

    solver.decide = wrong_decide
    try:
        for workload in ("scan", "search"):
            result, info = benchmark(workload, 0, 0, False, tiny_items(workload))
            assert not result["correct"] and result["failed"] > 0, result
            assert "wrong-answer" in info["failures_by_kind"] or \
                "oracle-mismatch" in info["failures_by_kind"], info["failures_by_kind"]
            print(f"{workload}: injected wrong answer counted, "
                  f"{result['failed']} of {result['attempted']} failed")
    finally:
        solver.decide = decide
    return 0


if __name__ == "__main__":
    sys.exit(main())
