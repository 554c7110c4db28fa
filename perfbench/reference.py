"""Recorded outputs of every benchmark operation, and the rule that checks against them.

An operation fails when it exits with code 2 or 64, raises, or breaks the
comparison with its recorded output:

* verdicts must match (a FAIL verdict, exit code 1, is an outcome, not a failure);
* a margin must agree with the recorded one to within the two runs' combined
  reported noise plus ``tol * scale``;
* an identity residual recorded under its ``tol`` must stay under it;
* a sharpness quotient must agree to a relative 1e-8 (100 times the radial
  quadrature's ``rel_tol``);
* an exact constant table must match character for character.

Record the reference (after a deliberate change of outputs only) with
    python3 perfbench/reference.py
from the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
SHARPNESS_REL = 1e-8


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def load(workload: str) -> dict[str, dict]:
    with open(reference_path(workload)) as fh:
        return json.load(fh)["ops"]


def _item_problem(item: list, ref: list) -> str | None:
    kind = ref[0]
    if item[0] != kind or item[1] != ref[1]:
        return f"item {item[:2]} where the reference has {ref[:2]}"
    if kind == "m":
        _, label, verdict, margin, noise, _, _ = item
        _, _, ref_verdict, ref_margin, ref_noise, ref_scale, ref_tol = ref
        if verdict != ref_verdict:
            return f"{label}: verdict {verdict}, reference {ref_verdict}"
        allowed = noise + ref_noise + ref_tol * ref_scale
        if not abs(margin - ref_margin) <= allowed:
            return f"{label}: margin {margin!r} differs from {ref_margin!r} by more than {allowed:.3e}"
    elif kind == "i":
        _, label, verdict, max_rel, tol = item
        if verdict != ref[2]:
            return f"{label}: verdict {verdict}, reference {ref[2]}"
        if ref[2] and not max_rel <= tol:
            return f"{label}: residual {max_rel:.3e} above tol {tol:.1e}"
    elif kind == "s":
        if not abs(item[2] - ref[2]) <= SHARPNESS_REL * abs(ref[2]):
            return f"sharpness param {item[1]}: quotient {item[2]!r}, reference {ref[2]!r}"
    elif item[2] != ref[2]:
        return f"{item[1]}: exact constants {item[2]} differ from {ref[2]}"
    return None


def problem(outcome: dict, ref: dict | None) -> str | None:
    """Why an operation's outcome counts as failed, or None when it passed."""
    if outcome["status"] != "ok":
        return f"{outcome['status']}: {outcome.get('detail', '')}"
    if ref is None:
        return "no recorded reference for this operation"
    if outcome.get("code") != ref.get("code"):
        return f"exit code {outcome.get('code')}, reference {ref.get('code')}"
    items, ref_items = outcome["items"], ref["items"]
    if len(items) != len(ref_items):
        return f"{len(items)} results, reference has {len(ref_items)}"
    for item, ref_item in zip(items, ref_items):
        why = _item_problem(item, ref_item)
        if why:
            return why
    return None


def record() -> None:
    """Run every operation any seed can produce once, untraced, and store the outputs."""
    from run import REPO, run_child
    from workloads import WORKLOADS, all_ops, op_key

    for workload in WORKLOADS:
        ops = all_ops(workload)
        result = run_child(ops, trace=False, timeout=900.0)
        bad = [(op_key(op), o) for op, o in zip(ops, result["outcomes"]) if o["status"] != "ok"]
        if bad:
            raise SystemExit(f"{workload}: cannot record a reference, operations failed: {bad[:3]}")
        rows = sorted(f"{json.dumps(op_key(op))}: {json.dumps(o)}" for op, o in zip(ops, result["outcomes"]))
        path = reference_path(workload)
        path.write_text(f'{{"workload": "{workload}", "ops": {{\n' + ",\n".join(rows) + "\n}}\n")
        print(f"{workload}: {len(rows)} operations -> {path.relative_to(REPO)}")


if __name__ == "__main__":
    record()
