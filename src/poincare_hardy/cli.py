"""Command-line interface.

Commands: ``constants`` (exact rational tables), ``verify`` (margin
certificates over a test suite), ``identity`` (substitution and estimate
identities), ``sharpness`` (quotient tables above a sharp constant), and
``halfspace`` (the upper half-space corollaries).  Output formats: text,
canonical JSON (sorted keys, no timestamps), and long-form CSV with columns
(case, N, function_id, term, value).

Exit codes: 0 all verdicts pass, 1 at least one verdict failed, 2 numerical,
memory or internal failure, 64 usage or hypothesis error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from .constants import CaseSpec, constant_table
from .errors import HypothesisError, InternalConsistencyError, QuadratureError
from .halfspace import (
    PlaneQuadratureSpec,
    check_pf1,
    check_pf2,
    halfspace_suite,
    margin_halfspace,
    margin_hardy_mazya,
)
from .identities import check_1d_lemmas, check_estimate1, check_estimate2, check_ph1, check_trans1
from .profiles import load_suite, suite_version
from .quadrature import QuadratureSpec
from .reports import dumps_csv, dumps_json, encode_fraction, long_rows
from .verify import (
    margin_general,
    margin_thm21,
    margin_poincare_hardy,
    margin_rellich,
    margin_yang,
    sharpness_probe,
)

__all__ = ["main"]

_OUTDIR_ENV = "POINCARE_HARDY_OUTDIR"


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is >= 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


@functools.cache  # parse_args keeps no state on the parser, so in-process callers share one
def _build_parser() -> _Parser:
    parser = _Parser(prog="poincare-hardy", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text", help="output format")
        p.add_argument(
            "--out",
            type=Path,
            default=None,
            help=f"output file (default: stdout, or ${_OUTDIR_ENV}/<auto-name> if set)",
        )

    def tolerance(text):
        """A verdict tolerance: at tol >= 1 every margin passes, whatever the integrals are."""
        value = float(text)
        if not 0.0 < value < 1.0:
            raise argparse.ArgumentTypeError(f"must satisfy 0 < tol < 1, got {text!r}")
        return value

    def finite(text):
        """A power alpha: a non-finite one comes from the command line, so it is a usage error."""
        try:
            value = float(text)
        except ValueError:  # argparse's own message for type=float
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        return value

    def add_tol(p):
        p.add_argument("--tol", type=tolerance, default=None, help="verdict tolerance, 0 < tol < 1")

    def add_quad(p):
        p.add_argument("--panels", type=int, default=None, help="quadrature panels per axis")
        p.add_argument("--nodes", type=int, default=None, help="Gauss-Legendre nodes per panel")
        p.add_argument("--doublings", type=int, default=None, help="panel doubling budget")

    c = sub.add_parser("constants", help="exact rational constant table for a case (k, l, N)")
    c.add_argument("--k", type=int, required=True, help="left derivative order")
    c.add_argument("--l", type=int, default=0, help="right derivative order (default 0)")
    c.add_argument("--N", type=int, required=True, help="hyperbolic dimension")
    add_common(c)

    v = sub.add_parser("verify", help="numerical margin certificates over a test suite")
    v.add_argument("--case", choices=tuple(_CHECKS["verify"]), required=True, help="which inequality to certify")
    v.add_argument("--N", type=int, default=None, help="hyperbolic dimension (ignored for hardy1d)")
    v.add_argument("--beta", type=int, default=0, help="weight exponent for --case yang")
    v.add_argument("--k", type=int, default=None, help="left order for --case general")
    v.add_argument("--l", type=int, default=None, help="right order for --case general")
    v.add_argument("--suite", default="standard", help="test function suite name")
    add_tol(v)
    add_quad(v)
    add_common(v)

    i = sub.add_parser("identity", help="substitution and estimate identity residuals")
    i.add_argument("--which", choices=tuple(_CHECKS["identity"]), required=True)
    i.add_argument("--N", type=int, default=5, help="hyperbolic dimension (default 5)")
    i.add_argument("--n", type=int, default=0, help="spherical mode for the estimate identities")
    i.add_argument("--suite", default="standard", help="test function suite name")
    add_tol(i)
    add_quad(i)
    add_common(i)

    s = sub.add_parser("sharpness", help="quotient table above a sharp constant")
    s.add_argument("--case", choices=("poincare_k1", "thm21_r2"), required=True)
    s.add_argument("--N", type=int, default=5, help="hyperbolic dimension (default 5)")
    s.add_argument("--params", default=None, help="comma-separated decay rates or bump centers")
    add_quad(s)
    add_common(s)

    h = sub.add_parser("halfspace", help="half-space corollaries and transplantation identities")
    h.add_argument("--which", choices=tuple(_CHECKS["halfspace"]), required=True)
    h.add_argument("--N", type=int, default=5, help="dimension (default 5)")
    h.add_argument("--alpha", type=finite, action="append", default=None, help="power(s) for pf1/pf2")
    h.add_argument("--suite", default="standard", help="half-space suite name")
    add_tol(h)
    add_quad(h)
    add_common(h)
    return parser


def _spec(cls, args):
    """A QuadratureSpec or PlaneQuadratureSpec with the flags the user set."""
    given = {"panels": args.panels, "nodes_per_panel": args.nodes, "max_doublings": args.doublings}
    return cls(**{name: value for name, value in given.items() if value is not None})


def _cmd_constants(args):
    case = CaseSpec(args.k, args.l, args.N)
    table = constant_table(case)
    chain = {f"c{i}": value for i, value in enumerate(table.chain, start=1)}

    payload = {
        "command": "constants",
        "case": {"k": case.k, "l": case.l, "N": case.N},
        "poincare": encode_fraction(table.poincare),
        "chain": {name: encode_fraction(value) for name, value in chain.items()},
        "leading_large_r": encode_fraction(table.leading_large_r),
        "leading_small_r": encode_fraction(table.leading_small_r),
        "aux": {name: encode_fraction(value) for name, value in sorted(table.aux.items())},
    }
    named = [("poincare", table.poincare)]
    if case.k == 1 and case.l == 0:
        payload["hardy"] = encode_fraction(table.chain[0])
        named.append(("hardy", table.chain[0]))
    named.extend(chain.items())
    named.extend(sorted(table.aux.items()))

    rows = long_rows(f"k{case.k}_l{case.l}", case.N, "exact", named)
    width = max(len(name) for name, _ in named)
    lines = [f"constants for k={case.k} l={case.l} N={case.N}"]
    lines.extend(f"  {name:<{width}}  {value}  ({float(value)!r})" for name, value in named)
    return payload, rows, "\n".join(lines), 0


# command -> {name: (u, args, spec, suite, **tol) -> reports of one test function}.
# The lambdas look the checks up at call time, so a wrapper installed on this module's
# names sees every call.  ``tol`` is given only with --tol: defaults live in the checks.
# ``suite=`` lets the radial integral checks share one pipeline per grid; it changes no result.
_CHECKS = {
    "verify": {
        "thm21": lambda u, a, spec, suite, **tol: [margin_thm21(u, a.N, spec, **tol, suite=suite)],
        "rellich": lambda u, a, spec, suite, **tol: [margin_rellich(u, a.N, spec, **tol, suite=suite)],
        "poincare": lambda u, a, spec, suite, **tol: [margin_poincare_hardy(u, a.N, spec, **tol, suite=suite)],
        "yang": lambda u, a, spec, suite, **tol: [margin_yang(u, a.N, a.beta, spec, **tol, suite=suite)],
        "general": lambda u, a, spec, suite, **tol: [margin_general(CaseSpec(a.k, a.l, a.N), u, spec, **tol, suite=suite)],
        "hardy1d": lambda u, a, spec, suite, **tol: check_1d_lemmas(u, spec, **tol, suite=suite),
    },
    "identity": {
        "ph1": lambda u, a, spec, suite, **tol: [check_ph1(u, a.N, **tol)],
        "trans1": lambda u, a, spec, suite, **tol: [check_trans1(u, a.N, **tol)],
        "estimate1": lambda u, a, spec, suite, **tol: [check_estimate1(u, a.n, a.N, spec, **tol, suite=suite)],
        "estimate2": lambda u, a, spec, suite, **tol: [check_estimate2(u, a.n, a.N, spec, **tol, suite=suite)],
    },
    "halfspace": {
        "rellich1": lambda v, a, spec, suite, **tol: [margin_halfspace("rellich1", v, a.N, spec, **tol)],
        "rellich2": lambda v, a, spec, suite, **tol: [margin_halfspace("rellich2", v, a.N, spec, **tol)],
        "hardy_mazya": lambda v, a, spec, suite, **tol: [margin_hardy_mazya(v, a.N, spec, **tol)],
        "pf1": lambda v, a, spec, suite, **tol: [check_pf1(v, alpha, a.N, spec, **tol) for alpha in _alphas(a)],
        "pf2": lambda v, a, spec, suite, **tol: [check_pf2(v, alpha, a.N, **tol) for alpha in _alphas(a)],
    },
}


def _alphas(args) -> list[float]:
    return args.alpha if args.alpha else [(args.N - 2) / 2.0, (args.N - 4) / 2.0]


def _cmd_checks(args):
    """verify, identity and halfspace: one check per suite member, one payload."""
    halfspace = args.command == "halfspace"
    spec = _spec(PlaneQuadratureSpec if halfspace else QuadratureSpec, args)
    suite = halfspace_suite(args.suite) if halfspace else load_suite(args.suite)
    if args.command == "verify":
        name = args.case
        if name != "hardy1d" and args.N is None:
            raise HypothesisError(f"--case {name} requires --N")
        if name == "general" and (args.k is None or args.l is None):
            raise HypothesisError("--case general requires --k and --l")
        extra = {"case": name, "N": None if name == "hardy1d" else args.N}
    else:
        name = args.which
        extra = {"which": name, "N": args.N}
        if args.command == "identity":
            extra["n"] = None if name in ("ph1", "trans1") else args.n
        elif name in ("pf1", "pf2"):
            extra["alphas"] = _alphas(args)
    tol = {} if args.tol is None else {"tol": args.tol}
    reports = [r for u in suite for r in _CHECKS[args.command][name](u, args, spec, suite, **tol)]
    all_pass = all(r.verdict for r in reports)
    code = 0 if all_pass else 1
    if args.format == "json":
        return {
            "command": args.command,
            **extra,
            "tol": reports[0].tol,  # every suite has a member
            "suite": {"name": args.suite, "version": suite_version()},
            "reports": [r.to_dict() for r in reports],
            "all_pass": all_pass,
        }, None, None, code
    if args.format == "csv":
        return None, [row for r in reports for row in r.csv_rows()], None, code
    passed = sum(1 for r in reports if r.verdict)
    lines = [*(r.line() for r in reports), f"{'PASS' if all_pass else 'FAIL'}: {passed}/{len(reports)} checks passed"]
    return None, None, "\n".join(lines), code


def _cmd_sharpness(args):
    params = [float(x) for x in args.params.split(",")] if args.params else None
    rows_data = sharpness_probe(args.case, args.N, params, _spec(QuadratureSpec, args))
    payload = {"command": "sharpness", "case": args.case, "N": args.N, "rows": rows_data}
    case_id = f"sharpness_{args.case}"
    rows = [row for r in rows_data for row in long_rows(case_id, args.N, f"param_{r['param']}", [("quotient", r["quotient"])])]
    lines = [f"{'param':>12}  {'quotient':>18}"]
    lines.extend(f"{row['param']:>12.6g}  {row['quotient']:>18.12g}" for row in rows_data)
    return payload, rows, "\n".join(lines), 0


def _default_name(args) -> str:
    """``<command>[_<case or which>][_<flags>]_N<N>.<ext>``, distinct for commands that compute different reports.

    The flags named are k and l (``constants``, ``verify --case general``), beta
    (``yang``), n (``estimate1``, ``estimate2``) and the suite, the last three
    only when they differ from their defaults; then alpha, params, tol, panels,
    nodes and doublings, each only when given (``halfspace_pf1_alpha1.0_N5.json``).
    Default commands keep their short names.
    """
    bits = [args.command]
    name = getattr(args, "case", None) or getattr(args, "which", None)
    if name:
        bits.append(name)
    if args.command == "constants" or name == "general":
        bits.append(f"k{args.k}_l{args.l}")
    elif name == "yang" and args.beta:
        bits.append(f"b{args.beta}")
    elif name in ("estimate1", "estimate2") and args.n:
        bits.append(f"n{args.n}")
    suite = getattr(args, "suite", "standard")
    if suite != "standard":
        bits.append(suite)
    for flag in ("alpha", "params", "tol", "panels", "nodes", "doublings"):
        value = getattr(args, flag, None)
        if value is not None and value != "":  # --params= runs the default params
            bits.append(flag + (",".join(map(str, value)) if isinstance(value, list) else str(value)))
    n = getattr(args, "N", None)
    if n is not None:
        bits.append(f"N{n}")
    ext = {"text": "txt", "json": "json", "csv": "csv"}[args.format]
    return "_".join(bits) + "." + ext


def _render(args, payload, rows, text) -> str:
    if args.format == "json":
        try:
            return dumps_json(payload)
        except ValueError as exc:  # canonical JSON has no inf or nan
            raise FloatingPointError(f"non-finite value in the report: {exc}") from exc
    if args.format == "csv":
        return dumps_csv(rows)
    return text if text.endswith("\n") else text + "\n"


def _emit(args, content: str) -> None:
    path = args.out
    if path is None:
        outdir = os.environ.get(_OUTDIR_ENV)
        if outdir:
            path = Path(outdir) / _default_name(args)
    if path is None:
        sys.stdout.write(content)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)


_HANDLERS = {
    "constants": _cmd_constants,
    "verify": _cmd_checks,
    "identity": _cmd_checks,
    "sharpness": _cmd_sharpness,
    "halfspace": _cmd_checks,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, rows, text, code = _HANDLERS[args.command](args)
        content = _render(args, payload, rows, text)
    except ValueError as exc:  # HypothesisError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid or field too large for this machine
        print(f"memory failure: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args, content)
    except OSError as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
