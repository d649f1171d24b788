"""Self-test of the benchmark's tracing: a tiny traced run of every workload.

    python3 perfbench/selftest.py

For each per-layer metric it checks the number of spans the metric was built
from: non-zero on every workload that ``workloads.REACHED_ON`` assigns it to,
zero on the others.  A function renamed or no longer called through the
wrapped binding then fails here instead of reporting 0.  It also checks that
the named epoch phases never exceed the epoch time they are part of, and
that every run's output checks passed.  Exits non-zero on any failure.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT, run_once, scratch_dir  # noqa: E402
from spans import PER_LAYER_UNITS  # noqa: E402
from workloads import REACHED_ON, WORKLOADS, seed_for  # noqa: E402


def check(name: str, result: dict) -> list:
    problems = []
    layers = result["layers"]
    for metric in PER_LAYER_UNITS:
        if metric == "trace.overhead_s":
            continue
        calls = layers[metric][1]
        if name in REACHED_ON[metric] and calls == 0:
            problems.append(f"{metric}: no spans, expected some")
        if name not in REACHED_ON[metric] and calls != 0:
            problems.append(f"{metric}: {calls} spans, expected none")
    if layers["trainer.other.s"][0] < 0:
        problems.append("trainer phases overlap: trainer.other.s < 0")
    if result["rc"] != 0 or not all(result["ops_ok"]):
        problems.append(f"output checks failed: exit {result['rc']}, ops {result['ops_ok']}")
    return problems


def main() -> int:
    failures = 0
    with scratch_dir("selftest") as work:
        for name, workload in WORKLOADS.items():
            seed = seed_for(workload, 0, ROOT, smoke=True)
            result = run_once(work, workload, seed, 0, trace=True, smoke=True)
            problems = check(name, result)
            failures += len(problems)
            print(f"{name}: {'ok' if not problems else 'FAILED'}")
            for p in problems:
                print(f"  {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
