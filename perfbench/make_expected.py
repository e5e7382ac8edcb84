"""Regenerate expected.json: the answer of every item any seed can draw.

    python3 perfbench/make_expected.py

Run it only when the inputs change, at a commit whose answers are trusted;
every item must pass the independent checks (witness validation, cycle and
tree oracles, parity) before its facts are recorded.
"""

from __future__ import annotations

import json
import shutil
import sys

import inputs
from run import HERE, OUT, load_program
from tracing import Tracer
from workloads import Runner


def main() -> int:
    ic = load_program()
    expected = {}
    for workload in inputs.WORKLOADS:
        items = inputs.pool_items(workload)
        workdir = OUT / f"expected-{workload}"
        runner = Runner(ic, Tracer(), workdir, None)
        try:
            runner.prepare(items)
            facts = {}
            for i, item in enumerate(items):
                result = runner.run(i, item)
                if not result.ok:
                    print(f"{item.id}: {result.errors}", file=sys.stderr)
                    return 1
                facts[item.id] = result.facts
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        expected[workload] = facts
        print(f"{workload}: {len(facts)} items", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
