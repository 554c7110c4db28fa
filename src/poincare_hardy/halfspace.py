"""Fourth-order inequalities transplanted to the upper half-space model.

Points are (x, y) with x in R^{N-1}, y > 0, hyperbolic metric delta/y^2 and
volume element y^{-N} dx dy.  Test functions are separable products
v = phi(rho) psi(y) with rho = |x|, integrated against the flat factor
rho^{N-2}; the area of the unit (N-2)-sphere is omitted throughout, which
rescales both sides of every inequality identically.  Every weight but the
geodesic distance to the point (0, 1) is a power of y, so by Fubini each such
integral is a sum of products of one-dimensional Gauss-Legendre integrals,
one in rho^{N-2} drho and one in dy.  Only the distance-sharpened remainders
are two-dimensional: they share one field d^-2 on the tensor grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np

from .constants import halfspace_constants
from .errors import HypothesisError
from .profiles import RadialProfile, load_halfspace_suite
from .quadrature import QuadratureSpec, _chebyshev, _doubling, _panel_rule
from .reports import IdentityResidualReport, MarginReport, ordered_sum

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


def geodesic_distance(p: HalfspacePoint) -> float:
    """Hyperbolic distance from p to (0, 1): arcosh(1 + ((y-1)^2 + rho^2)/(2y))."""
    return math.acosh(1.0 + ((p.y - 1.0) ** 2 + p.rho**2) / (2.0 * p.y))


def _inverse_distance_sq(rho: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d^-2 on the tensor points rho x y, built in place in one (n_rho, n_y) array."""
    field = np.add.outer(rho**2, (y - 1.0) ** 2)
    field /= 2.0 * y
    field += 1.0
    np.arccosh(field, out=field)
    field *= field
    return np.reciprocal(field, out=field)


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
class PlaneQuadratureSpec(QuadratureSpec):
    """Tensor Gauss-Legendre policy for the (rho, y) plane: the radial policy with coarser defaults."""

    panels: int = 8
    nodes_per_panel: int = 32
    rel_tol: float = 1e-9
    max_doublings: int = 2


@dataclass(frozen=True, slots=True)
class PlaneGrid:
    """Tensor rule on [0, rho_hi] x [y_lo, y_hi]: one composite Gauss-Legendre rule per axis."""

    rho: np.ndarray
    wr: np.ndarray
    y: np.ndarray
    wy: np.ndarray
    refine: int

    def integrate(self, values: np.ndarray, rows=1.0, cols=1.0) -> float:
        """Tensor sum of an (n_rho, n_y) array times ``rows`` (over rho) and ``cols`` (over y)."""
        return float((self.wr * rows) @ values @ (self.wy * cols))


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
    """The 1-D jets of phi on the rho nodes and of psi on the y nodes, shared by all integrands."""

    def __init__(self, v: SeparableTestFunction, N: int, rho: np.ndarray, y: np.ndarray):
        pj = v.phi.jet(rho, 2)
        qj = v.psi.jet(y, 2)
        self.p, self.p1 = pj.value(), pj.derivative(1)
        self.lap_x = pj.derivative(2) + (N - 2) * self.p1 / rho  # Laplacian of phi(|x|) on R^{N-1}
        self.q, self.q1, self.q2 = qj.value(), qj.derivative(1), qj.derivative(2)
        self.y = y


# |grad v|^2 and (Lap v)^2 = (lap_x phi psi + phi psi'')^2 times w(y), as (rho factor, y factor) pairs
def _grad_sq(t, w):
    return [(t.p1**2, w * t.q**2), (t.p**2, w * t.q1**2)]


def _lap_sq(t, w):
    return [(t.lap_x**2, w * t.q**2), (2.0 * t.lap_x * t.p, w * t.q * t.q2), (t.p**2, w * t.q2**2)]


def _plane_integrals(v, N, spec, integrands, y_power=None):
    """Converged ``{term: integral}`` over rho^{N-2} drho dy of ``{term: f(_PlaneTable) -> pairs}``.

    By Fubini a term is the sum over its pairs (a, b) of int a rho^{N-2} drho
    times int b dy.  With ``y_power`` p it adds "d2" and "d4", the integrals of
    v^2 y^-p d^-2 and v^2 y^-p d^-4, from one field on the tensor grid.
    """

    def fn(grid):
        t = _PlaneTable(v, N, grid.rho, grid.y)
        flat = grid.rho ** (N - 2)
        wr = grid.wr * flat
        out = {key: ordered_sum(float(wr @ a) * float(grid.wy @ b) for a, b in make(t)) for key, make in integrands.items()}
        if y_power is not None:
            rows, cols = t.p**2 * flat, t.q**2 * grid.y ** -float(y_power)
            field = _inverse_distance_sq(grid.rho, grid.y)
            out["d2"] = grid.integrate(field, rows, cols)
            field *= field
            out["d4"] = grid.integrate(field, rows, cols)
        return out

    return converge_plane_terms(fn, spec or PlaneQuadratureSpec(), v.box)


def _plane_margin(case, v, N, table, spec, tol, y_power=None) -> MarginReport:
    """Evaluate one inequality table ``{term: (integrand, coef)}`` on v; integrand None marks "d2" and "d4"."""
    vals, errs = _plane_integrals(v, N, spec, {key: make for key, (make, _) in table.items() if make}, y_power)
    coef = {key: c for key, (_, c) in table.items()}
    return MarginReport.from_integrals(case, v.id, N, vals, errs, coef, tol)


def margin_halfspace(
    which: str, v: SeparableTestFunction, N: int, spec: PlaneQuadratureSpec | None = None, tol: float = 1e-7
) -> MarginReport:
    """Margin of one of the two sharpened fourth-order half-space inequalities.

    "rellich1": int y^2 (Lap v)^2 + c_grad |grad v|^2 dx dy bounds the
    v^2/y^2 term plus distance-sharpened remainders v^2/(y^2 d^2) and
    v^2/(y^2 d^4).  "rellich2": int (Lap v)^2 + c_grad |grad v|^2/y^2 dx dy
    bounds v^2/y^4 with remainders v^2/(y^4 d^2), v^2/(y^4 d^4).
    """
    c = halfspace_constants(which, N)
    s = 0.0 if which == "rellich1" else 2.0  # rellich2 carries one more factor y^-2 throughout
    lap, grad, low = ("lap2_y2", "grad", "y2") if which == "rellich1" else ("lap2", "grad_y2", "y4")
    table = {
        lap: (lambda t: _lap_sq(t, t.y ** (2.0 - s)), 1),
        grad: (lambda t: _grad_sq(t, t.y**-s), c["grad"]),
        low: (lambda t: [(t.p**2, t.y ** (-2.0 - s) * t.q**2)], -c[low]),
        "d2": (None, -c["d2"]),
        "d4": (None, -c["d4"]),
    }
    return _plane_margin(f"halfspace_{which}", v, N, table, spec, tol, y_power=2.0 + s)


def margin_hardy_mazya(
    v: SeparableTestFunction, N: int, spec: PlaneQuadratureSpec | None = None, tol: float = 1e-7
) -> MarginReport:
    """int |grad v|^2 dx dy >= (1/4) int v^2/y^2 dx dy on the half-space."""
    table = {"grad": (lambda t: _grad_sq(t, 1.0), 1), "y2": (lambda t: [(t.p**2, t.q**2 / t.y**2)], -F(1, 4))}
    return _plane_margin("hardy_mazya", v, N, table, spec, tol)


# a huge alpha overflows y^alpha to inf or nan; from_sides turns that into a numerical failure
@np.errstate(over="ignore", invalid="ignore")
def check_pf1(
    v: SeparableTestFunction, alpha: float, N: int, spec: PlaneQuadratureSpec | None = None, tol: float = 1e-8
) -> IdentityResidualReport:
    """Energy transplantation for u = y^alpha v, as an integral identity.

    int y^{2-N} |grad(y^alpha v)|^2 dx dy equals
    int y^{2 alpha + 2 - N} |grad v|^2 dx dy
    + alpha (N - 1 - alpha) int y^{2 alpha - N} v^2 dx dy.
    The left side is evaluated by differentiating y^alpha v directly.
    """

    def energy_u(t):
        # u_rho = phi' (y^alpha psi) and u_y = phi (alpha y^{alpha-1} psi + y^alpha psi')
        ya, w = t.y**alpha, t.y ** (2.0 - N)
        return [(t.p1**2, w * (ya * t.q) ** 2), (t.p**2, w * (alpha * t.y ** (alpha - 1.0) * t.q + ya * t.q1) ** 2)]

    integrands = {
        "lhs": energy_u,
        "grad_v": lambda t: _grad_sq(t, t.y ** (2.0 * alpha + 2.0 - N)),
        "v2": lambda t: [(t.p**2, t.y ** (2.0 * alpha - N) * t.q**2)],
    }
    vals, _ = _plane_integrals(v, N, spec, integrands)
    lhs = vals["lhs"]
    rhs = vals["grad_v"] + alpha * (N - 1.0 - alpha) * vals["v2"]
    details = {"alpha": alpha, "lhs": lhs, "rhs": rhs}
    return IdentityResidualReport.from_sides("pf1", v.id, N, None, lhs, rhs, tol, details)


# Chebyshev samples of check_pf2 on the rho and the y axis
_PF2_COUNTS = (10, 5)


@np.errstate(over="ignore", invalid="ignore")  # as in check_pf1
def check_pf2(v: SeparableTestFunction, alpha: float, N: int, tol: float = 1e-8) -> IdentityResidualReport:
    """Laplacian transplantation for u = y^alpha v, pointwise on a sample grid.

    y^2 Lap u - (N-2) y u_y equals
    y^{alpha+2} Lap v + (2 alpha - (N-2)) y^{alpha+1} v_y
    + alpha (alpha - (N-1)) y^alpha v.
    The middle power alpha+1 is forced: both sides scale the same way in y
    only with it, and the pointwise residual confirms the exponent.  The
    residual of the variant with middle power alpha is reported in details.
    """
    rho_hi, y_lo, y_hi = v.box
    y = _chebyshev(y_lo, y_hi, _PF2_COUNTS[1])
    t = _PlaneTable(v, N, _chebyshev(0.0, rho_hi, _PF2_COUNTS[0]), y)
    ym, p = y[None, :], t.p[:, None]
    vv, v_y, v_yy, lap_x_v = p * t.q, p * t.q1, p * t.q2, t.lap_x[:, None] * t.q
    lap = lap_x_v + v_yy

    # left side from derivatives of u = y^alpha v itself
    u_y = alpha * ym ** (alpha - 1.0) * vv + ym**alpha * v_y
    u_yy = (
        alpha * (alpha - 1.0) * ym ** (alpha - 2.0) * vv
        + 2.0 * alpha * ym ** (alpha - 1.0) * v_y
        + ym**alpha * v_yy
    )
    lap_u = ym**alpha * lap_x_v + u_yy
    lhs = ym**2 * lap_u - (N - 2) * ym * u_y

    def rhs_with(mid):  # the right side with middle power y^mid
        middle = (2.0 * alpha - (N - 2)) * ym**mid * v_y
        return ym ** (alpha + 2.0) * lap + middle + alpha * (alpha - (N - 1.0)) * ym**alpha * vv

    rhs, rhs_flat_mid = rhs_with(alpha + 1.0), rhs_with(alpha)
    scale = float(max(np.max(np.abs(lhs)), np.max(np.abs(rhs))))
    flat_abs = float(np.max(np.abs(lhs - rhs_flat_mid)))
    details = {"alpha": alpha, "flat_middle_max_rel": flat_abs / scale if scale > 0 else 0.0}
    return IdentityResidualReport.from_sides("pf2", v.id, N, None, lhs, rhs, tol, details)
