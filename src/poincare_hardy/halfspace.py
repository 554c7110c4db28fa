"""Fourth-order inequalities transplanted to the upper half-space model.

Points are (x, y) with x in R^{N-1}, y > 0, hyperbolic metric delta/y^2 and
volume element y^{-N} dx dy.  Test functions are separable products
v = phi(rho) psi(y) with rho = |x|, so every integral reduces to a
two-dimensional tensor quadrature carrying the flat factor rho^{N-2}; the
area of the unit (N-2)-sphere is omitted throughout, which rescales both
sides of every inequality identically.  The geodesic distance to the point
(0, 1) weights the sharpened remainder terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np

from .constants import halfspace_constants
from .errors import HypothesisError
from .profiles import RadialProfile, load_halfspace_suite
from .quadrature import _chebyshev, _check_spec, _doubling, _panel_rule
from .reports import IdentityResidualReport, MarginReport

__all__ = [
    "HalfspacePoint",
    "geodesic_distance",
    "SeparableTestFunction",
    "halfspace_suite",
    "PlaneQuadratureSpec",
    "PlaneGrid",
    "build_plane_grid",
    "converge_plane_terms",
    "margin_halfspace",
    "margin_hardy_mazya",
    "check_pf1",
    "check_pf2",
]


@dataclass(frozen=True)
class HalfspacePoint:
    """A point of the upper half-space, reduced to (|x|, y)."""

    rho: float
    y: float

    def __post_init__(self):
        if self.y <= 0:
            raise HypothesisError(f"requires y > 0, got y={self.y}")


def _distance_values(rho, y):
    rho = np.asarray(rho, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.arccosh(1.0 + ((y - 1.0) ** 2 + rho**2) / (2.0 * y))


def geodesic_distance(p: HalfspacePoint) -> float:
    """Hyperbolic distance from p to (0, 1): arcosh(1 + ((y-1)^2 + rho^2)/(2y))."""
    return float(_distance_values(p.rho, p.y))


@dataclass(frozen=True)
class SeparableTestFunction:
    """v(x, y) = phi(|x|) psi(y) with compactly supported smooth factors."""

    phi: RadialProfile
    psi: RadialProfile

    def __post_init__(self):
        if self.phi.support is None or self.psi.support is None:
            raise ValueError("separable members need compactly supported factors")
        if self.psi.support[0] <= 0:
            raise ValueError("psi must be supported away from y = 0")

    @property
    def id(self) -> str:
        return f"{self.phi.id}|{self.psi.id}"

    @property
    def box(self) -> tuple[float, float, float]:
        """(rho_hi, y_lo, y_hi) bounding the support."""
        return (self.phi.support[1], self.psi.support[0], self.psi.support[1])


def halfspace_suite(name: str = "standard") -> tuple[SeparableTestFunction, ...]:
    return tuple(SeparableTestFunction(phi, psi) for phi, psi in load_halfspace_suite(name))


@dataclass(frozen=True)
class PlaneQuadratureSpec:
    """Tensor Gauss-Legendre policy for the (rho, y) plane."""

    panels: int = 8
    nodes_per_panel: int = 32
    rel_tol: float = 1e-9
    abs_tol: float = 1e-30
    max_doublings: int = 2

    def __post_init__(self):
        _check_spec(self)


class PlaneGrid:
    """Tensor rule on [0, rho_hi] x [y_lo, y_hi]; values are (n_rho, n_y) arrays."""

    __slots__ = ("rho", "wr", "y", "wy", "refine")

    def __init__(self, rho, wr, y, wy, refine):
        self.rho = rho
        self.wr = wr
        self.y = y
        self.wy = wy
        self.refine = refine

    def integrate(self, values: np.ndarray) -> float:
        return float(self.wr @ values @ self.wy)


def build_plane_grid(spec: PlaneQuadratureSpec, box: tuple[float, float, float], refine: int = 0) -> PlaneGrid:
    rho_hi, y_lo, y_hi = box
    panels = spec.panels * (1 << refine)
    rho, wr = _panel_rule(np.linspace(0.0, rho_hi, panels + 1), spec.nodes_per_panel)
    y, wy = _panel_rule(np.linspace(y_lo, y_hi, panels + 1), spec.nodes_per_panel)
    return PlaneGrid(rho, wr, y, wy, refine)


def converge_plane_terms(fn, spec: PlaneQuadratureSpec, box):
    """Plane analog of ``quadrature.converge_terms``; same (values, errors) contract."""
    return _doubling(fn, spec, lambda refine: build_plane_grid(spec, box, refine))


class _PlaneTable:
    """Separable jets of v expanded to the tensor points ``rho x y``, shared by all integrands."""

    def __init__(self, v: SeparableTestFunction, N: int, rho: np.ndarray, y: np.ndarray):
        pj = v.phi.jet(rho, 2)
        qj = v.psi.jet(y, 2)
        outer = np.multiply.outer
        self.v = outer(pj.value(), qj.value())
        self.v_rho = outer(pj.derivative(1), qj.value())
        self.v_y = outer(pj.value(), qj.derivative(1))
        self.v_yy = outer(pj.value(), qj.derivative(2))
        lap_x = pj.derivative(2) + (N - 2) * pj.derivative(1) / rho
        self.lap_x_v = outer(lap_x, qj.value())
        self.lap = self.lap_x_v + self.v_yy
        self.grad_sq = self.v_rho**2 + self.v_y**2
        self.ymesh = np.broadcast_to(y, self.v.shape)
        self.dist = _distance_values(rho[:, None], y[None, :])


def _plane_integrals(v, N, spec, integrands):
    """Converged ``{term: integral}`` of ``{term: f(_PlaneTable) -> values}`` times the flat factor rho^{N-2}."""

    def fn(grid):
        table = _PlaneTable(v, N, grid.rho, grid.y)
        rho_pow = grid.rho ** (N - 2)
        return {key: grid.integrate(make(table) * rho_pow[:, None]) for key, make in integrands.items()}

    return converge_plane_terms(fn, spec or PlaneQuadratureSpec(), v.box)


def _plane_margin(case, v, N, table, spec, tol) -> MarginReport:
    """Evaluate one inequality table ``{term: (integrand, coef)}`` on v."""
    vals, errs = _plane_integrals(v, N, spec, {key: make for key, (make, _) in table.items()})
    coef = {key: c for key, (_, c) in table.items()}
    return MarginReport.from_integrals(case, v.id, N, vals, errs, coef, tol)


def margin_halfspace(
    which: str,
    v: SeparableTestFunction,
    N: int,
    spec: PlaneQuadratureSpec | None = None,
    tol: float = 1e-7,
) -> MarginReport:
    """Margin of one of the two sharpened fourth-order half-space inequalities.

    "rellich1": int y^2 (Lap v)^2 + c_grad |grad v|^2 dx dy bounds the
    v^2/y^2 term plus distance-sharpened remainders v^2/(y^2 d^2) and
    v^2/(y^2 d^4).  "rellich2": int (Lap v)^2 + c_grad |grad v|^2/y^2 dx dy
    bounds v^2/y^4 with remainders v^2/(y^4 d^2), v^2/(y^4 d^4).
    """
    c = halfspace_constants(which, N)
    if which == "rellich1":
        table = {
            "lap2_y2": (lambda t: t.ymesh**2 * t.lap**2, 1),
            "grad": (lambda t: t.grad_sq, c["grad"]),
            "y2": (lambda t: t.v**2 / t.ymesh**2, -c["y2"]),
            "d2": (lambda t: t.v**2 / (t.ymesh**2 * t.dist**2), -c["d2"]),
            "d4": (lambda t: t.v**2 / (t.ymesh**2 * t.dist**4), -c["d4"]),
        }
    else:
        table = {
            "lap2": (lambda t: t.lap**2, 1),
            "grad_y2": (lambda t: t.grad_sq / t.ymesh**2, c["grad"]),
            "y4": (lambda t: t.v**2 / t.ymesh**4, -c["y4"]),
            "d2": (lambda t: t.v**2 / (t.ymesh**4 * t.dist**2), -c["d2"]),
            "d4": (lambda t: t.v**2 / (t.ymesh**4 * t.dist**4), -c["d4"]),
        }
    return _plane_margin(f"halfspace_{which}", v, N, table, spec, tol)


def margin_hardy_mazya(
    v: SeparableTestFunction, N: int, spec: PlaneQuadratureSpec | None = None, tol: float = 1e-7
) -> MarginReport:
    """int |grad v|^2 dx dy >= (1/4) int v^2/y^2 dx dy on the half-space."""
    table = {"grad": (lambda t: t.grad_sq, 1), "y2": (lambda t: t.v**2 / t.ymesh**2, -F(1, 4))}
    return _plane_margin("hardy_mazya", v, N, table, spec, tol)


def check_pf1(
    v: SeparableTestFunction,
    alpha: float,
    N: int,
    spec: PlaneQuadratureSpec | None = None,
    tol: float = 1e-8,
) -> IdentityResidualReport:
    """Energy transplantation for u = y^alpha v, as an integral identity.

    int y^{2-N} |grad(y^alpha v)|^2 dx dy equals
    int y^{2 alpha + 2 - N} |grad v|^2 dx dy
    + alpha (N - 1 - alpha) int y^{2 alpha - N} v^2 dx dy.
    The left side is evaluated by differentiating y^alpha v directly.
    """

    def energy_u(t):
        u_rho = t.ymesh**alpha * t.v_rho
        u_y = alpha * t.ymesh ** (alpha - 1.0) * t.v + t.ymesh**alpha * t.v_y
        return t.ymesh ** (2.0 - N) * (u_rho**2 + u_y**2)

    integrands = {
        "lhs": energy_u,
        "grad_v": lambda t: t.ymesh ** (2.0 * alpha + 2.0 - N) * t.grad_sq,
        "v2": lambda t: t.ymesh ** (2.0 * alpha - N) * t.v**2,
    }
    vals, _ = _plane_integrals(v, N, spec, integrands)
    lhs = vals["lhs"]
    rhs = vals["grad_v"] + alpha * (N - 1.0 - alpha) * vals["v2"]
    details = {"alpha": alpha, "lhs": lhs, "rhs": rhs}
    return IdentityResidualReport.from_sides("pf1", v.id, N, None, lhs, rhs, tol, details)


def check_pf2(
    v: SeparableTestFunction, alpha: float, N: int, tol: float = 1e-8, counts: tuple[int, int] = (10, 5)
) -> IdentityResidualReport:
    """Laplacian transplantation for u = y^alpha v, pointwise on a sample grid.

    y^2 Lap u - (N-2) y u_y equals
    y^{alpha+2} Lap v + (2 alpha - (N-2)) y^{alpha+1} v_y
    + alpha (alpha - (N-1)) y^alpha v.
    The middle power alpha+1 is forced: both sides scale the same way in y
    only with it, and the pointwise residual confirms the exponent.  The
    residual of the variant with middle power alpha is reported in details.
    """
    rho_hi, y_lo, y_hi = v.box
    y = _chebyshev(y_lo, y_hi, counts[1])
    t = _PlaneTable(v, N, _chebyshev(0.0, rho_hi, counts[0]), y)
    ym = y[None, :]

    # left side from derivatives of u = y^alpha v itself
    u_y = alpha * ym ** (alpha - 1.0) * t.v + ym**alpha * t.v_y
    u_yy = (
        alpha * (alpha - 1.0) * ym ** (alpha - 2.0) * t.v
        + 2.0 * alpha * ym ** (alpha - 1.0) * t.v_y
        + ym**alpha * t.v_yy
    )
    lap_u = ym**alpha * t.lap_x_v + u_yy
    lhs = ym**2 * lap_u - (N - 2) * ym * u_y

    rhs = (
        ym ** (alpha + 2.0) * t.lap
        + (2.0 * alpha - (N - 2)) * ym ** (alpha + 1.0) * t.v_y
        + alpha * (alpha - (N - 1.0)) * ym**alpha * t.v
    )
    rhs_flat_mid = (
        ym ** (alpha + 2.0) * t.lap
        + (2.0 * alpha - (N - 2)) * ym**alpha * t.v_y
        + alpha * (alpha - (N - 1.0)) * ym**alpha * t.v
    )
    scale = float(max(np.max(np.abs(lhs)), np.max(np.abs(rhs))))
    flat_abs = float(np.max(np.abs(lhs - rhs_flat_mid)))
    details = {"alpha": alpha, "flat_middle_max_rel": flat_abs / scale if scale > 0 else 0.0}
    return IdentityResidualReport.from_sides("pf2", v.id, N, None, lhs, rhs, tol, details)
