"""Typed result records for margin and identity checks, with serialization.

A margin report stores the signed term contributions of one inequality on one
test function: left-hand-side integrals enter positively, right-hand-side
ones negatively, so the margin is just the sum.  The verdict demands both a
nonnegative margin (up to tol * scale) and a quadrature noise estimate small
enough to trust that sign.  All serialization is deterministic: sorted keys,
no timestamps, rationals carried as exact numerator/denominator strings.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "MarginReport",
    "IdentityResidualReport",
    "encode_fraction",
    "margin_csv_rows",
    "identity_csv_rows",
    "dumps_json",
    "dumps_csv",
]


def ordered_sum(values) -> float:
    """Sum added left to right, as a plain loop: builtin ``sum`` compensates float rounding from Python 3.12 on."""
    total = 0.0
    for x in values:
        total += x
    return float(total)


def encode_fraction(x: Fraction) -> dict:
    """Exact rational as strings plus a float approximation for reading."""
    return {"num": str(x.numerator), "den": str(x.denominator), "decimal": float(x)}


@dataclass(frozen=True)
class MarginReport:
    """Signed term contributions of one inequality on one test function."""

    case: str
    function_id: str
    N: int | None
    terms: dict[str, float]
    noise: float
    tol: float

    @classmethod
    def from_integrals(cls, case, function_id, N, vals, errs, coef, tol) -> "MarginReport":
        """Signed terms ``c * vals[key]`` and noise ``sum |c| * errs[key]`` over ``coef``'s keys.

        ``coef`` maps each term to its exact coefficient: positive for a
        left-hand term, negative for a right-hand one.  Raises ValueError
        when every integral is exactly 0: the test function vanishes on the
        whole grid, and a margin of 0 at scale 0 certifies nothing.
        """
        if all(vals[key] == 0.0 for key in coef):
            raise ValueError(f"{case}: every term integral of {function_id} is 0; it vanishes on the quadrature grid")
        terms = {key: float(c) * vals[key] for key, c in coef.items()}
        noise = ordered_sum(abs(float(c)) * errs[key] for key, c in coef.items())
        return cls(case=case, function_id=function_id, N=N, terms=terms, noise=noise, tol=tol)

    @property
    def margin(self) -> float:
        return ordered_sum(self.terms.values())

    @property
    def lhs(self) -> float:
        return ordered_sum(v for v in self.terms.values() if v > 0)

    @property
    def rhs(self) -> float:
        return -ordered_sum(v for v in self.terms.values() if v < 0)

    @property
    def scale(self) -> float:
        return self.lhs + self.rhs

    @property
    def verdict(self) -> bool:
        gate = self.tol * self.scale
        return self.margin >= -gate and self.noise <= gate

    def to_dict(self) -> dict:
        return {
            "kind": "margin",
            "case": self.case,
            "function_id": self.function_id,
            "N": self.N,
            "terms": dict(sorted(self.terms.items())),
            "noise": self.noise,
            "tol": self.tol,
            "margin": self.margin,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "scale": self.scale,
            "verdict": self.verdict,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MarginReport":
        return cls(
            case=d["case"],
            function_id=d["function_id"],
            N=d["N"],
            terms=dict(d["terms"]),
            noise=d["noise"],
            tol=d["tol"],
        )


@dataclass(frozen=True)
class IdentityResidualReport:
    """Residuals of one pointwise or integral identity on one test function.

    ``max_rel_residual`` is the largest |lhs - rhs| divided by the largest
    magnitude either side attains on the sample grid, so critical points of
    the two sides do not blow up the measure.
    """

    identity: str
    function_id: str
    N: int
    n: int | None
    max_abs_residual: float
    max_rel_residual: float
    tol: float
    details: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_sides(cls, identity, function_id, N, n, lhs, rhs, tol, details=None) -> "IdentityResidualReport":
        """Residuals of ``lhs == rhs``, given as scalars or as arrays over sample points.

        Raises ValueError when both sides are identically 0: the identity
        then holds on the zero function, and a residual of 0 certifies nothing.
        """
        lhs = np.asarray(lhs, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        # a nan residual would compare below every tolerance and certify nothing
        if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
            raise FloatingPointError(f"{identity} on {function_id}: a side of the identity is not finite")
        if not (lhs.any() or rhs.any()):
            raise ValueError(f"{identity}: both sides are identically 0; {function_id} vanishes where it is evaluated")
        max_abs = float(np.max(np.abs(lhs - rhs)))
        scale = float(max(np.max(np.abs(lhs)), np.max(np.abs(rhs))))
        return cls(
            identity=identity,
            function_id=function_id,
            N=N,
            n=n,
            max_abs_residual=max_abs,
            max_rel_residual=max_abs / scale,
            tol=tol,
            details=dict(details or {}),
        )

    @property
    def verdict(self) -> bool:
        return self.max_rel_residual <= self.tol

    def to_dict(self) -> dict:
        return {
            "kind": "identity",
            "identity": self.identity,
            "function_id": self.function_id,
            "N": self.N,
            "n": self.n,
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "tol": self.tol,
            "details": dict(sorted(self.details.items())),
            "verdict": self.verdict,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IdentityResidualReport":
        return cls(
            identity=d["identity"],
            function_id=d["function_id"],
            N=d["N"],
            n=d["n"],
            max_abs_residual=d["max_abs_residual"],
            max_rel_residual=d["max_rel_residual"],
            tol=d["tol"],
            details=dict(d["details"]),
        )


def _long_rows(label: str, N: int | None, function_id: str, items) -> list[tuple[str, str, str, str, str]]:
    """Long-format rows (label, N, function_id, name, value), one per ``(name, value)`` item."""
    n_str = "" if N is None else str(N)
    return [(label, n_str, function_id, name, repr(value)) for name, value in items]


def margin_csv_rows(report: MarginReport) -> list[tuple[str, str, str, str, str]]:
    """Rows (case, N, function_id, term_name, value): the sorted terms, then the summary."""
    r = report
    summary = [("lhs", r.lhs), ("rhs", r.rhs), ("margin", r.margin), ("scale", r.scale), ("noise", r.noise)]
    return _long_rows(r.case, r.N, r.function_id, [*sorted(r.terms.items()), *summary, ("verdict", float(r.verdict))])


def identity_csv_rows(report: IdentityResidualReport) -> list[tuple[str, str, str, str, str]]:
    """Rows labelled with the identity and its mode n: the sorted details, then the residuals."""
    r = report
    label = r.identity if r.n is None else f"{r.identity}_n{r.n}"
    summary = [("max_abs_residual", r.max_abs_residual), ("max_rel_residual", r.max_rel_residual)]
    return _long_rows(label, r.N, r.function_id, [*sorted(r.details.items()), *summary, ("verdict", float(r.verdict))])


def dumps_json(payload: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def dumps_csv(rows: list[tuple], header: tuple[str, ...]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
