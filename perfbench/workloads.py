"""Operation mixes for the three benchmark workloads.

An operation is a JSON-serialisable dict, so the parent process can hand the
generated inputs to a fresh child interpreter over a pipe.  Two kinds exist:

* ``{"op": "cli", "argv": [...]}``: one in-process ``cli.main(argv)`` call;
* ``{"op": "lib", "call": <name>, ...}``: one library call, with test
  functions given as suite descriptors (``profiles.profile_from_descriptor``).

The seed only permutes the CLI command order and draws the extra ``lib-origin``
bumps from a fixed pool, so every operation a seed can produce has an entry in
the recorded reference (``reference/<workload>.json``).
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("cli-standard", "lib-origin", "halfspace")
DEFAULT_SEED = 1511

# Bumps whose support is [0, 2c]: they reach the origin like the `origin`
# suite.  Every member evaluates the same number of nodes, Laplacian towers and
# jet operations over the workload's calls (3,577,856, 66 and 1,206 when
# chosen), so the seed changes the inputs but not the amount of work.
ORIGIN_POOL = tuple(
    {"kind": "bump", "center": c, "width": c, "power": 1} for c in (0.6, 0.8, 1.15, 1.55, 1.6, 1.7)
)
EXTRA_BUMPS = 2


def op_key(op: dict) -> str:
    """Canonical text of an operation; the reference is keyed by it."""
    return json.dumps(op, sort_keys=True, separators=(",", ":"))


def _cli(*argv) -> dict:
    return {"op": "cli", "argv": [str(a) for a in argv] + ["--format", "json"]}


def _cli_standard_ops() -> list[dict]:
    # One verify command per case over the whole `standard` suite (case-major),
    # with N spread over 5..10 so every family and jet order appears once.
    return [
        _cli("verify", "--case", "thm21", "--N", 5),
        _cli("verify", "--case", "rellich", "--N", 6),
        _cli("verify", "--case", "poincare", "--N", 5),
        _cli("verify", "--case", "yang", "--beta", 2, "--N", 7),
        _cli("verify", "--case", "general", "--k", 1, "--l", 0, "--N", 8),
        _cli("verify", "--case", "general", "--k", 2, "--l", 0, "--N", 5),
        _cli("verify", "--case", "general", "--k", 3, "--l", 2, "--N", 10),
        # k = 4 exhausts the doubling budget on part of the suite: known FAILs
        _cli("verify", "--case", "general", "--k", 4, "--l", 1, "--N", 9),
        _cli("verify", "--case", "hardy1d"),
        _cli("identity", "--which", "ph1", "--N", 5),
        _cli("identity", "--which", "trans1", "--N", 9),
        _cli("identity", "--which", "estimate1", "--N", 5, "--n", 0),
        _cli("identity", "--which", "estimate2", "--N", 7, "--n", 1),
    ]


def _halfspace_ops() -> list[dict]:
    ops = [
        _cli("halfspace", "--which", which, "--N", 5, "--suite", suite)
        for suite in ("standard", "pole")
        for which in ("rellich1", "rellich2", "hardy_mazya", "pf1", "pf2")
    ]
    # the sharpened constants depend on N
    ops += [
        _cli("halfspace", "--which", which, "--N", 6, "--suite", suite)
        for suite in ("standard", "pole")
        for which in ("rellich1", "rellich2")
    ]
    # the finest grid of gate 8: 32 -> 64 panels per axis, up to 2048 x 2048 points
    ops.append(_cli("halfspace", "--which", "rellich1", "--N", 5, "--suite", "pole", "--panels", 32, "--doublings", 1))
    return ops


def _lib_function_ops(u: dict) -> list[dict]:
    """Every margin family and identity on one test function (function-major)."""
    ops = []
    for N in range(5, 11):
        ops += [
            {"op": "lib", "call": "margin_thm21", "u": u, "N": N},
            {"op": "lib", "call": "margin_rellich", "u": u, "N": N},
            {"op": "lib", "call": "margin_poincare_hardy", "u": u, "N": N},
        ]
        ops += [{"op": "lib", "call": "margin_yang", "u": u, "N": N, "beta": b} for b in (0, 2) if N > b + 4]
        ops += [
            {"op": "lib", "call": "margin_general", "u": u, "k": k, "l": l, "N": N}
            for k in (1, 2, 3)
            if N > 2 * k
            for l in range(k)
        ]
    ops.append({"op": "lib", "call": "check_1d_lemmas", "u": u})
    for N in (5, 7, 9):
        ops += [{"op": "lib", "call": which, "u": u, "N": N} for which in ("check_ph1", "check_trans1")]
        ops += [
            {"op": "lib", "call": which, "u": u, "n": n, "N": N}
            for which in ("check_estimate1", "check_estimate2")
            for n in (0, 2)
        ]
    # order-10 jets; the origin supports keep every budget unexhausted
    ops += [
        {"op": "lib", "call": "margin_general", "u": u, "k": 4, "l": l, "N": N}
        for N in (9, 12)
        for l in range(4)
    ]
    return ops


def _lib_tail_ops() -> list[dict]:
    ops = [{"op": "lib", "call": "sharpness_probe", "case": case, "N": 5} for case in ("poincare_k1", "thm21_r2")]
    ops += [
        {"op": "lib", "call": "constant_table", "k": k, "l": l, "N": N}
        for k in range(1, 7)
        for l in range(k)
        for N in (2 * k + 1, 2 * k + 4)
    ]
    return ops


def _origin_suite() -> list[dict]:
    """The members of the shipped `origin` suite, as descriptors."""
    return [
        {"kind": "bump", "center": c, "width": c, "power": p}
        for c in (0.5, 1.0, 2.0)
        for p in (0, 2)
    ]


def make_ops(workload: str, seed: int) -> list[dict]:
    """The workload's operations for one seed, in the order they are sent."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-standard":
        ops = _cli_standard_ops()
        rng.shuffle(ops)
        return ops
    if workload == "halfspace":
        ops = _halfspace_ops()
        rng.shuffle(ops)
        return ops
    if workload == "lib-origin":
        functions = _origin_suite() + rng.sample(ORIGIN_POOL, EXTRA_BUMPS)
        return [op for u in functions for op in _lib_function_ops(u)] + _lib_tail_ops()
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def all_ops(workload: str) -> list[dict]:
    """Every operation any seed can produce for the workload (for the reference)."""
    if workload == "lib-origin":
        functions = _origin_suite() + list(ORIGIN_POOL)
        return [op for u in functions for op in _lib_function_ops(u)] + _lib_tail_ops()
    return make_ops(workload, DEFAULT_SEED)
