"""Self-test of the benchmark's tracer and counters.

For each workload it runs one untraced and two traced passes (fresh
interpreters, default seed) and checks that:

* every layer records calls on the workloads where it runs, and none where
  the workload bypasses it (for example ``operators`` on ``halfspace``);
* traced outputs equal untraced outputs exactly, so the wrappers change no
  result;
* every count metric (nodes, refinements, exhausted budgets, cache calls and
  hits, jet ops, points, bytes) is identical between the two traced passes.

Usage, from the repository root:
    python3 perfbench/selftest.py
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys

from run import layer_unit, run_child
from tracer import MODULES
from workloads import DEFAULT_SEED, WORKLOADS, make_ops

# layers each workload bypasses; every other layer must record calls
BYPASSED = {
    "cli-standard": {"halfspace"},
    "lib-origin": {"halfspace", "cli", "reports"},
    "halfspace": {"quadrature", "operators", "verify", "identities"},
}


def check(workload: str) -> list[str]:
    ops = make_ops(workload, DEFAULT_SEED)
    plain = run_child(ops, trace=False, timeout=170.0)
    traced = [run_child(ops, trace=True, timeout=170.0) for _ in range(2)]
    problems = []
    layers = traced[0]["layers"]
    for layer in MODULES:
        calls = layers[f"{layer}.layer_calls"]
        if layer in BYPASSED[workload] and calls:
            problems.append(f"{workload}: bypassed layer {layer} recorded {calls} calls")
        if layer not in BYPASSED[workload] and not calls:
            problems.append(f"{workload}: layer {layer} recorded no calls")
    for i, run in enumerate(traced):
        if run["outcomes"] != plain["outcomes"]:
            problems.append(f"{workload}: traced pass {i} outputs differ from the untraced pass")
    for name, value in layers.items():
        if layer_unit(name) != "s" and traced[1]["layers"][name] != value:
            problems.append(f"{workload}: count {name} reads {value} then {traced[1]['layers'][name]}")
    return problems


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        found = check(workload)
        print(f"{workload}: {'ok' if not found else f'{len(found)} problems'}")
        problems += found
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
