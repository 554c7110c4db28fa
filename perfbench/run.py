"""Certification benchmark for poincare-hardy.

Usage, from the repository root:
    python3 perfbench/run.py --workload {cli-standard,lib-origin,halfspace}
                             [--seed N] [--seconds S] [--trace 0|1]

One client sends one workload's operations in sequence (a closed loop) to a
fresh child interpreter per pass, so every ``lru_cache`` starts cold and each
pass pays interpreter set-up as a CLI user does.  BLAS threads are pinned to
1.  Passes repeat until ``--seconds`` have elapsed (at least three); every
output is checked against the recorded reference (``reference.py``) and
against the other passes.  With ``--trace 0`` the last line carries the
end-to-end metrics, medians over the untraced passes; with ``--trace 1``
traced and untraced passes alternate and the last line carries the
per-layer metrics of the traced passes.  The lines before it give every
metric, the sample counts, the environment and the tracing overhead.

Exit code 0 with a result line; 1 without one, when the benchmark itself
cannot run (no ``src/poincare_hardy`` next to it, a child crashed or hung).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
CHILD = HERE / "child.py"

SETUP_SAMPLES = 3  # set-up-only interpreters before each pass
MIN_PASSES = 3  # untraced; a traced run needs two of each kind
LAUNCH_LIMIT_S = 120.0  # no new pass starts later than this into a run
CHILD_LIMIT_S = 170.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# metrics reported in the result line; times of layers a workload bypasses
# (always exactly 0 there) are printed on the detail lines only
END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verdict_pass_ratio": "ratio",
    "worst_noise_rel": "ratio",
}
PER_LAYER = (
    "quadrature.nodes",
    "quadrature.nodes_in_support_ratio",
    "quadrature.final_nodes_ratio",
    "quadrature.refinements_per_converge",
    "quadrature.budget_exhausted",
    "quadrature.converge.calls",
    "quadrature.integrate.calls",
    "operators.radial_table.calls",
    "operators.radial_table.hit_ratio",
    "operators.tower.builds",
    "jets.ops",
    "jets.ops.s",
    "jets.coef_bytes",
    "profiles.jet.calls",
    "profiles.jet.lanes",
    "profiles.jet.s",
    "halfspace.points",
    "halfspace.converge.calls",
    "halfspace.refinements_per_converge",
    "halfspace.budget_exhausted",
    "verify.margin.calls",
    "identities.check.calls",
    "constants.calls",
    "constants.s",
    "cli.main.calls",
    "reports.bytes",
    "trace.overhead_s",
)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if "ratio" in name:
        return "ratio"
    return "bytes" if "bytes" in name else "count"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = str(REPO / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(ops: list[dict] | None, trace: bool, timeout: float) -> dict:
    """One fresh interpreter: set-up only when ops is None, else one pass over ops."""
    argv = [sys.executable, str(CHILD), "--spawned", repr(time.monotonic())]
    if ops is None:
        argv.append("--setup-only")
    if trace:
        argv.append("--trace")
    try:
        proc = subprocess.run(
            argv,
            input="" if ops is None else json.dumps(ops),
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=REPO,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child exited with {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "p25": qs[0], "p75": qs[2], "min": min(values), "max": max(values), "n": len(values)}


def _output_metrics(outcomes: list[dict]) -> tuple[float, float]:
    """PASS share of all verdicts, and the largest noise/scale of any margin."""
    verdicts, passed, worst = 0, 0, 0.0
    for outcome in outcomes:
        for item in outcome.get("items", ()):
            if item[0] in ("m", "i"):
                verdicts += 1
                passed += bool(item[2])
            if item[0] == "m":
                noise, scale = item[4], item[5]
                worst = max(worst, noise / scale if scale > 0 else float("inf"))
    return (passed / verdicts if verdicts else 0.0), worst


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    from reference import load, problem
    from workloads import make_ops, op_key

    if not (REPO / "src" / "poincare_hardy" / "__init__.py").is_file():
        raise BenchError(f"no poincare_hardy package under {REPO / 'src'}")
    ops = make_ops(workload, seed)
    try:
        reference = load(workload)
    except OSError as exc:
        raise BenchError(f"no recorded reference for {workload}: {exc}") from exc

    start = time.monotonic()
    deadline = start + seconds

    def remaining() -> float:
        return CHILD_LIMIT_S - (time.monotonic() - start)

    run_child(None, False, remaining())  # warm the file cache and bytecode; not counted
    setup: list[float] = []
    modes = (False, True) if trace else (False,)
    passes: list[tuple[bool, dict]] = []
    min_passes = 4 if trace else MIN_PASSES
    while len(passes) < min_passes or time.monotonic() < deadline:
        if passes and time.monotonic() - start > LAUNCH_LIMIT_S:
            break
        setup += [run_child(None, False, remaining())["setup_s"] for _ in range(SETUP_SAMPLES)]
        traced = modes[len(passes) % len(modes)]
        result = run_child(ops, traced, remaining())
        passes.append((traced, result))
        setup.append(result["setup_s"])

    notes = []
    first = passes[0][1]["outcomes"]
    consistent = all(r["outcomes"] == first for _, r in passes)
    if not consistent:
        notes.append("outputs differ between passes (traced and untraced passes must agree exactly)")
    failed_per_pass = 0
    for op, outcome in zip(ops, first):
        why = problem(outcome, reference.get(op_key(op)))
        if why:
            failed_per_pass += 1
            notes.append(f"failed: {op_key(op)}: {why}")

    plain = [r for t, r in passes if not t]
    pass_ratio, worst_noise = _output_metrics(first)
    e2e = {
        "run_s": _summary([r["run_s"] for r in plain]),
        "cpu_s": _summary([r["cpu_s"] for r in plain]),
        "setup_s": _summary(setup),
        "peak_rss_mb": _summary([r["peak_rss_mb"] for r in plain]),
    }
    values = {name: s["median"] for name, s in e2e.items()}
    values.update({"verdict_pass_ratio": pass_ratio, "worst_noise_rel": worst_noise})

    layers = {}
    if trace:
        traced = [r for t, r in passes if t]
        counts = {k: v for k, v in traced[0]["layers"].items() if layer_unit(k) != "s"}
        for r in traced[1:]:
            if {k: v for k, v in r["layers"].items() if layer_unit(k) != "s"} != counts:
                consistent = False
                notes.append("count metrics differ between traced passes")
        # counts repeat exactly (checked above); times are medians over the traced passes
        layers = {
            k: statistics.median(r["layers"][k] for r in traced) if layer_unit(k) == "s" else v
            for k, v in traced[0]["layers"].items()
        }
        traced_run = statistics.median(r["run_s"] for r in traced)
        layers["trace.overhead_s"] = traced_run - values["run_s"]
        layers["trace.run_s"] = traced_run

    attempted = len(ops) * len(passes)
    failed = failed_per_pass * len(passes)
    lines = [
        f"perfbench workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
        f"operations_per_pass={len(ops)} untraced_passes={len(plain)} traced_passes={len(passes) - len(plain)}",
        "environment " + json.dumps(passes[0][1]["env"], sort_keys=True),
    ]
    for name, stats in e2e.items():
        lines.append(
            f"end_to_end {name} {stats['median']!r} {END_TO_END[name]} (median of {stats['n']}; "
            f"p25 {stats['p25']:.6g}, p75 {stats['p75']:.6g}, min {stats['min']:.6g}, max {stats['max']:.6g})"
        )
    lines.append(f"end_to_end verdict_pass_ratio {pass_ratio!r} ratio")
    lines.append(f"end_to_end worst_noise_rel {worst_noise!r} ratio")
    lines.append(f"end_to_end fail_ratio {failed / attempted!r} ratio ({failed} of {attempted} operations)")
    lines += [f"per_layer {name} {value!r} {layer_unit(name)}" for name, value in layers.items()]

    result = {
        "correct": consistent and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": (
            {name: {"value": layers[name], "unit": layer_unit(name)} for name in PER_LAYER}
            if trace
            else {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        ),
    }
    return result, lines + notes[:20]


def main(argv=None) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time; at least three passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from traced passes")
    args = parser.parse_args(argv)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
