"""Typed result records for margin and identity checks, with serialization.

A margin report stores the signed term contributions of one inequality on one
test function: left-hand-side integrals enter positively, right-hand-side
ones negatively, so the margin is just the sum.  The verdict demands both a
nonnegative margin (up to tol * scale) and a quadrature noise estimate small
enough to trust that sign.  All serialization is deterministic: sorted keys,
no timestamps, rationals carried as exact numerator/denominator strings.
Each report also renders its own text line and its long-format CSV rows
(case, N, function_id, term, value); ``dumps_csv`` writes that header.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

__all__ = [
    "MarginReport",
    "IdentityResidualReport",
    "encode_fraction",
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


_CSV_HEADER = ("case", "N", "function_id", "term", "value")


def long_rows(label: str, N: int | None, function_id: str, items) -> list[tuple[str, str, str, str, str]]:
    """Long-format CSV rows (label, N, function_id, name, str(value)), one per ``(name, value)`` item."""
    n_str = "" if N is None else str(N)
    return [(label, n_str, function_id, name, str(value)) for name, value in items]


def _fields(report) -> dict:
    """The stored fields in declaration order, dict-valued ones sorted by key."""
    values = {f.name: getattr(report, f.name) for f in fields(report)}
    return {name: dict(sorted(v.items())) if isinstance(v, dict) else v for name, v in values.items()}


def _from_dict(cls, d: dict):
    """The report stored in ``d``, a ``to_dict`` payload: computed keys are ignored, dicts copied."""
    return cls(**{f.name: dict(d[f.name]) if isinstance(d[f.name], dict) else d[f.name] for f in fields(cls)})


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
        left-hand term, negative for a right-hand one.  Raises
        FloatingPointError when a term is not finite, and ValueError when
        every integral is exactly 0: the test function vanishes on the whole
        grid, and a margin of 0 at scale 0 certifies nothing.
        """
        terms = {key: float(c) * vals[key] for key, c in coef.items()}
        # a nan margin would print as a certificate in text and csv
        if not all(math.isfinite(v) for v in terms.values()):
            raise FloatingPointError(f"{case} on {function_id}: a term integral is not finite")
        if all(vals[key] == 0.0 for key in coef):
            raise ValueError(f"{case}: every term integral of {function_id} is 0; it vanishes on the quadrature grid")
        noise = ordered_sum(abs(float(c)) * errs[key] for key, c in coef.items())
        return cls(case=case, function_id=function_id, N=N, terms=terms, noise=noise, tol=tol)

    @functools.cached_property  # each summary is computed once per report
    def margin(self) -> float:
        return ordered_sum(self.terms.values())

    @functools.cached_property
    def lhs(self) -> float:
        return ordered_sum(v for v in self.terms.values() if v > 0)

    @functools.cached_property
    def rhs(self) -> float:
        return -ordered_sum(v for v in self.terms.values() if v < 0)

    @functools.cached_property
    def scale(self) -> float:
        return self.lhs + self.rhs

    @functools.cached_property
    def verdict(self) -> bool:
        gate = self.tol * self.scale
        return self.margin >= -gate and self.noise <= gate

    def to_dict(self) -> dict:
        return {
            "kind": "margin",
            **_fields(self),
            "margin": self.margin,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "scale": self.scale,
            "verdict": self.verdict,
        }

    from_dict = classmethod(_from_dict)

    def line(self) -> str:
        """The text-format line: verdict, case, function, N, then margin, scale and noise."""
        n_part = "" if self.N is None else f" N={self.N}"
        return (
            f"{'PASS' if self.verdict else 'FAIL'} {self.case} {self.function_id}{n_part} "
            f"margin={self.margin:.6e} scale={self.scale:.6e} noise={self.noise:.3e}"
        )

    def csv_rows(self) -> list[tuple[str, str, str, str, str]]:
        """Rows (case, N, function_id, term_name, value): the sorted terms, then the summary."""
        summary = [(name, getattr(self, name)) for name in ("lhs", "rhs", "margin", "scale", "noise")]
        items = [*sorted(self.terms.items()), *summary, ("verdict", float(self.verdict))]
        return long_rows(self.case, self.N, self.function_id, items)


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
        return {"kind": "identity", **_fields(self), "verdict": self.verdict}

    from_dict = classmethod(_from_dict)

    def line(self) -> str:
        """The text-format line: verdict, identity, function, N and n, then the residuals."""
        n_part = "" if self.n is None else f" n={self.n}"
        return (
            f"{'PASS' if self.verdict else 'FAIL'} {self.identity} {self.function_id} N={self.N}{n_part} "
            f"max_rel={self.max_rel_residual:.3e} max_abs={self.max_abs_residual:.3e}"
        )

    def csv_rows(self) -> list[tuple[str, str, str, str, str]]:
        """Rows labelled with the identity and its mode n: the sorted details, then the residuals."""
        label = self.identity if self.n is None else f"{self.identity}_n{self.n}"
        summary = [(name, getattr(self, name)) for name in ("max_abs_residual", "max_rel_residual")]
        items = [*sorted(self.details.items()), *summary, ("verdict", float(self.verdict))]
        return long_rows(label, self.N, self.function_id, items)


def dumps_json(payload: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def dumps_csv(rows: list[tuple]) -> str:
    """CSV text: the (case, N, function_id, term, value) header, then ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    writer.writerows(rows)
    return buf.getvalue()
