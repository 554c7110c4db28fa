"""One benchmark pass in a fresh interpreter.

Reads a JSON list of operations on stdin, runs them in order with cold
``lru_cache``s, and prints one JSON object on stdout: set-up seconds, wall and
CPU seconds of the pass, peak RSS, a summary of every operation's output and,
with ``--trace``, the per-layer metrics.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):
    python3 perfbench/child.py --spawned <time.monotonic() at spawn> [--setup-only] [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time


def _setup(spawned: float) -> float:
    """Import the CLI and load every shipped suite, as a CLI user pays it."""
    import poincare_hardy.cli  # noqa: F401
    from poincare_hardy.halfspace import halfspace_suite
    from poincare_hardy.profiles import halfspace_suite_names, load_suite, suite_names

    for name in suite_names():
        load_suite(name)
    for name in halfspace_suite_names():
        halfspace_suite(name)
    return time.monotonic() - spawned


def _margin_item(d: dict) -> list:
    label = f"{d['case']}|{d['function_id']}|{d['N']}"
    return ["m", label, d["verdict"], d["margin"], d["noise"], d["scale"], d["tol"]]


def _identity_item(d: dict) -> list:
    alpha = d["details"].get("alpha")
    label = f"{d['identity']}|{d['function_id']}|{d['N']}|{d['n']}|{alpha}"
    return ["i", label, d["verdict"], d["max_rel_residual"], d["tol"]]


def _report_items(reports) -> list:
    items = []
    for d in reports:
        items.append(_margin_item(d) if d["kind"] == "margin" else _identity_item(d))
    return items


def _constants_item(table) -> list:
    chain = ",".join(str(c) for c in table.chain)
    aux = ",".join(f"{k}={v}" for k, v in sorted(table.aux.items()))
    exact = (
        f"poincare={table.poincare};chain={chain};large_r={table.leading_large_r};"
        f"small_r={table.leading_small_r};aux={aux}"
    )
    return ["c", f"k{table.case.k}_l{table.case.l}_N{table.case.N}", exact]


def _run_cli(argv: list[str]) -> dict:
    from poincare_hardy import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit through SystemExit
            code = exc.code
    if code not in (0, 1):
        return {"status": f"exit {code}", "detail": err.getvalue().strip()[-300:]}
    payload = json.loads(out.getvalue())
    return {"status": "ok", "code": code, "items": _report_items(payload["reports"])}


def _run_lib(op: dict) -> dict:
    from poincare_hardy import constants, identities, profiles, verify

    call = op["call"]
    u = profiles.profile_from_descriptor(op["u"]) if "u" in op else None
    if call in ("margin_thm21", "margin_rellich", "margin_poincare_hardy"):
        result = getattr(verify, call)(u, op["N"])
    elif call == "margin_yang":
        result = verify.margin_yang(u, op["N"], op["beta"])
    elif call == "margin_general":
        result = verify.margin_general(constants.CaseSpec(op["k"], op["l"], op["N"]), u)
    elif call == "check_1d_lemmas":
        result = identities.check_1d_lemmas(u)
    elif call in ("check_ph1", "check_trans1"):
        result = getattr(identities, call)(u, op["N"])
    elif call in ("check_estimate1", "check_estimate2"):
        result = getattr(identities, call)(u, op["n"], op["N"])
    elif call == "sharpness_probe":
        rows = verify.sharpness_probe(op["case"], op["N"])
        return {"status": "ok", "items": [["s", row["param"], row["quotient"]] for row in rows]}
    elif call == "constant_table":
        table = constants.constant_table(constants.CaseSpec(op["k"], op["l"], op["N"]))
        return {"status": "ok", "items": [_constants_item(table)]}
    else:
        raise ValueError(f"unknown library call {call!r}")
    reports = result if isinstance(result, list) else [result]
    return {"status": "ok", "items": _report_items(r.to_dict() for r in reports)}


def run_op(op: dict) -> dict:
    """Run one operation; a raised exception is an outcome to report, not a crash."""
    try:
        return _run_cli(op["argv"]) if op["op"] == "cli" else _run_lib(op)
    except Exception as exc:  # every failure mode of the program is counted by the parent
        return {"status": f"raised {type(exc).__name__}", "detail": str(exc)[:300]}


def _environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "nproc": os.cpu_count(),
        **{name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spawned", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true", help="measure set-up and exit")
    parser.add_argument("--trace", action="store_true", help="record spans and per-layer metrics")
    args = parser.parse_args()

    setup_s = _setup(args.spawned)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    ops = json.load(sys.stdin)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    outcomes = [run_op(op) for op in ops]
    run_s = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "outcomes": outcomes,
        "env": _environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
