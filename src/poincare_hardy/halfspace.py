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

``build_plane_grid`` caches its grids (64 of them, keyed by spec, box and
refine), so both doubling loops of a margin, and every later check on the
same box, walk the same ``PlaneGrid`` objects.  Each grid memoises in
``_terms``, per member v, what does not depend on N or on the check: the
order-2 jets of phi and psi, and the distance field's per-row sums.  The
memo lives on the grid, so it goes when the cache drops the grid; an entry
is stored only once it is complete, so a raise leaves nothing behind.

The remainders "d2" and "d4", the integrals of v^2 y^-p d^-2 and
v^2 y^-p d^-4, differ between N and between ``rellich1`` (p = 2) and
``rellich2`` (p = 4) only in the row weight wr phi^2 rho^{N-2} and in the
column power y^-p.  So one field per (member, grid) serves all of them: every
row is summed over y against the two columns wy psi^2 y^-2 and wy psi^2 y^-4,
for d^-2 and for d^-4, and the N-dependent row weight is applied when the
sums are read.  The field is built and contracted one block of rows at a
time, in one buffer that every block reuses, so it is never held whole;
cosh d is a rank-2 product of row and column factors, one ``matmul`` per
block.  Rows and columns with weight exactly 0 are skipped, and a grid over
``_FIELD_POINTS`` points is refused before any block is built (the first
grid's size is checked before that grid is built).

"d2" and "d4" converge in a doubling loop of their own, run before the one
with the one-dimensional terms, so a 1-D term that needs a finer grid never
builds another field.  That loop stops once both change by at most
``rel_tol * max(|d2|, |d4|)``, a stricter scale than the family's largest
term.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np

from .constants import halfspace_constants
from .errors import HypothesisError, QuadratureError
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


# points of the distance field built at once, and the most one field may have
# (16384^2, which would be 2 GiB held whole)
_FIELD_BLOCK = 1 << 16
_FIELD_POINTS = 1 << 28


def _require_field_fits(n_rho: int, n_y: int) -> None:
    """Refuse a distance field on n_rho x n_y nodes over ``_FIELD_POINTS`` points."""
    points = n_rho * n_y
    if points > _FIELD_POINTS:
        raise QuadratureError(
            f"the distance field on {n_rho} x {n_y} nodes has {points} points, "
            f"over the limit of {_FIELD_POINTS}; use fewer panels or nodes per panel"
        )


def _field_integrals(grid: PlaneGrid, rows: np.ndarray, cols: np.ndarray, block: int = _FIELD_BLOCK):
    """Per-row sums over y of d^-2 and of d^-4 against each column of ``wy * cols``, as (keep_r, d2, d4).

    ``cols`` is (n_y, k); ``keep_r`` indexes the rows where ``rows`` is
    nonzero, and d2, d4 are their (len(keep_r), k) sums, so
    ``grid.integrate`` of d^-2 times ``rows`` and column j is
    ``(grid.wr * rows)[keep_r] @ d2[:, j]``.  Rows left out and columns whose
    weights are all exactly 0 are never evaluated.  The rest of the field is
    built in blocks of whole rows, about ``block`` points each, in one reused
    buffer: cosh d = rho^2 h + c, with h = 1/(2y) and c = 1 + (y - 1)^2 h, is
    one ``matmul`` of the rows' [rho^2, 1] by the columns' [h; c].  Each block
    becomes d^-2 in place, is summed against the column weights in one
    product (their Fortran order keeps it as fast as one column), then is
    squared in place and summed again.
    """
    w = grid.wy[:, None] * cols
    keep_r, keep_y = np.flatnonzero(rows), np.flatnonzero(w.any(axis=1))
    rho, y, w = grid.rho[keep_r], grid.y[keep_y], np.asfortranarray(w[keep_y])
    h = 0.5 / y
    left, right = np.stack([rho**2, np.ones_like(rho)], axis=1), np.stack([h, 1.0 + (y - 1.0) ** 2 * h])
    d2, d4 = np.empty((2, rho.size, w.shape[1]))
    step = max(1, block // max(1, y.size))
    buffer = np.empty((min(step, rho.size), y.size))
    for start in range(0, rho.size, step):
        part = slice(start, start + step)
        field = buffer[: len(d2[part])]
        np.matmul(left[part], right, out=field)
        np.arccosh(field, out=field)
        field *= field
        np.reciprocal(field, out=field)
        np.matmul(field, w, out=d2[part])
        field *= field
        np.matmul(field, w, out=d4[part])
    return keep_r, d2, d4


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


class PlaneGrid:
    """Tensor rule on [0, rho_hi] x [y_lo, y_hi]: one composite Gauss-Legendre rule per axis.

    ``_terms`` memoises per member v what every check on this grid shares:
    its jets under (v, "jets") and its distance field's per-row sums under
    (v, "field") (see the module docstring).
    """

    __slots__ = ("rho", "wr", "y", "wy", "_terms")

    def __init__(self, rho: np.ndarray, wr: np.ndarray, y: np.ndarray, wy: np.ndarray):
        self.rho, self.wr, self.y, self.wy = rho, wr, y, wy
        self._terms = {}

    def integrate(self, values: np.ndarray, rows=1.0, cols=1.0) -> float:
        """Tensor sum of an (n_rho, n_y) array times ``rows`` (over rho) and ``cols`` (over y)."""
        return float((self.wr * rows) @ values @ (self.wy * cols))


@functools.lru_cache(maxsize=64)
def build_plane_grid(spec: PlaneQuadratureSpec, box: tuple[float, float, float], refine: int = 0) -> PlaneGrid:
    rho_hi, y_lo, y_hi = box
    panels = spec.panels * (1 << refine)
    rho, wr = _panel_rule(np.linspace(0.0, rho_hi, panels + 1), spec.nodes_per_panel)
    y, wy = _panel_rule(np.linspace(y_lo, y_hi, panels + 1), spec.nodes_per_panel)
    return PlaneGrid(rho, wr, y, wy)


def _memo(grid: PlaneGrid, key, make):
    """``grid._terms[key]``, stored from ``make()`` on a miss; a raise stores nothing."""
    if key not in grid._terms:
        grid._terms[key] = make()
    return grid._terms[key]


def converge_plane_terms(fn, spec: PlaneQuadratureSpec, box):
    """Plane analog of ``quadrature.converge_terms``; same (values, errors) contract."""
    return _doubling(fn, spec, lambda refine: build_plane_grid(spec, box, refine))


def _require_plane(N: int) -> None:
    """Refuse N < 2: the reduction to (rho, y) = (|x|, y) needs x in R^{N-1}.

    Below that rho^{N-2} drho is not even integrable at rho = 0.
    """
    if N < 2:
        raise HypothesisError(f"requires N >= 2, got N={N}")


def _jets(v: SeparableTestFunction, rho: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """(phi, phi', phi'') on the rho nodes and (psi, psi', psi'') on the y nodes."""
    pj, qj = v.phi.jet(rho, 2), v.psi.jet(y, 2)
    return pj.value(), pj.derivative(1), pj.derivative(2), qj.value(), qj.derivative(1), qj.derivative(2)


def _grid_jets(grid: PlaneGrid, v: SeparableTestFunction) -> tuple[np.ndarray, ...]:
    """``_jets`` of v on the grid's nodes, memoised on the grid."""
    return _memo(grid, (v, "jets"), lambda: _jets(v, grid.rho, grid.y))


class _PlaneTable:
    """The 1-D jets of phi on the rho nodes and of psi on the y nodes, shared by all integrands.

    ``jets`` are ``_jets(v, rho, y)`` when the caller already has them.
    """

    def __init__(self, v: SeparableTestFunction, N: int, rho: np.ndarray, y: np.ndarray, jets=None):
        self.p, self.p1, p2, self.q, self.q1, self.q2 = jets or _jets(v, rho, y)
        self.lap_x = p2 + (N - 2) * self.p1 / rho  # Laplacian of phi(|x|) on R^{N-1}
        self.y = y


# |grad v|^2 and (Lap v)^2 = (lap_x phi psi + phi psi'')^2 times w(y), as (rho factor, y factor) pairs
def _grad_sq(t, w):
    return [(t.p1**2, w * t.q**2), (t.p**2, w * t.q1**2)]


def _lap_sq(t, w):
    return [(t.lap_x**2, w * t.q**2), (2.0 * t.lap_x * t.p, w * t.q * t.q2), (t.p**2, w * t.q2**2)]


# the column powers p of every field's sums: y^-2 for rellich1, y^-4 for rellich2
_Y_POWERS = (2.0, 4.0)


def _member_field(grid: PlaneGrid, v: SeparableTestFunction):
    """``_field_integrals`` of v on the grid: rows phi^2, one column psi^2 y^-p per p in ``_Y_POWERS``."""
    p, _, _, q, _, _ = _grid_jets(grid, v)
    return _field_integrals(grid, p**2, np.stack([q**2 * grid.y**-power for power in _Y_POWERS], axis=1))


# a huge N overflows rho^{N-2} to inf or nan; from_integrals turns that into a numerical failure
@np.errstate(over="ignore", invalid="ignore")
def _plane_integrals(v, N, spec, integrands, y_power=None):
    """Converged ``{term: integral}`` over rho^{N-2} drho dy of ``{term: f(_PlaneTable) -> pairs}``.

    By Fubini a term is the sum over its pairs (a, b) of int a rho^{N-2} drho
    times int b dy.  With ``y_power`` p it adds "d2" and "d4", the integrals of
    v^2 y^-p d^-2 and v^2 y^-p d^-4, converged first in a loop of their own.
    """
    spec = spec or PlaneQuadratureSpec()

    def field(grid):
        _require_field_fits(grid.rho.size, grid.y.size)
        keep_r, d2, d4 = _memo(grid, (v, "field"), lambda: _member_field(grid, v))
        p, col = _grid_jets(grid, v)[0][keep_r], _Y_POWERS.index(y_power)
        wr = grid.wr[keep_r] * (p**2 * grid.rho[keep_r] ** (N - 2))
        return {"d2": float(wr @ d2[:, col]), "d4": float(wr @ d4[:, col])}

    def fn(grid):
        t = _PlaneTable(v, N, grid.rho, grid.y, _grid_jets(grid, v))
        wr = grid.wr * grid.rho ** (N - 2)
        return {key: ordered_sum(float(wr @ a) * float(grid.wy @ b) for a, b in make(t)) for key, make in integrands.items()}

    fields = ({}, {})
    if y_power is not None:
        side = spec.panels * spec.nodes_per_panel  # the first grid's nodes per axis, known before it is built
        _require_field_fits(side, side)
        fields = converge_plane_terms(field, spec, v.box)
    vals, errs = converge_plane_terms(fn, spec, v.box)
    return {**vals, **fields[0]}, {**errs, **fields[1]}


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
    _require_plane(N)
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
    _require_plane(N)

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
    _require_plane(N)
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
