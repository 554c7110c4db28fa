"""Composite Gauss-Legendre quadrature for weighted radial integrals.

Integrals have the shape ``int_0^rmax g(r) w(r) mu(r) dr`` with a smooth
compactly supported ``g``, a possibly singular weight ``w`` (powers of 1/r or
1/sinh r), and the measure ``mu`` (sinh^{N-1} r for ambient hyperbolic
integrals, 1 for the reduced one-dimensional ones).  Panels are placed
geometrically toward the origin so the 1/r^{2j} weights meet enough nodes
where they are large; convergence is certified by doubling the panel count
and comparing.  The panel rule, the doubling loop, the spec (which the plane
spec subclasses) and the Chebyshev sampler here are shared with the
half-space tensor grid.

A compactly supported ``g`` is zero on most of the grid, so callers evaluate
it only on the contiguous run of nodes strictly inside its support
(``Grid.span``).  ``Grid.integrate`` scatters those values back into a
full-length array before the dot product: the sum then runs over every
weight in the same order as a full-grid evaluation and is equal to it bit for
bit, where a dot product over the run alone can differ in the last bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

__all__ = [
    "QuadratureSpec",
    "Grid",
    "build_grid",
    "weight_values",
    "measure_values",
    "log_sinh",
    "converge_terms",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration policy for radial integrals on (0, r_max].

    The domain comes from the caller (support end + 1 for every certificate).
    The first panel break sits at ``1e-6 * r_max`` and breaks
    grow geometrically from there.
    """

    panels: int = 32
    nodes_per_panel: int = 64
    rel_tol: float = 1e-10
    abs_tol: float = 1e-30
    max_doublings: int = 4

    def __post_init__(self):
        """Reject grids that are empty or budgets that run no evaluation."""
        if self.panels < 1 or self.nodes_per_panel < 1:
            raise QuadratureError("panels and nodes_per_panel must be positive")
        if self.max_doublings < 0:
            raise QuadratureError(f"max_doublings must be nonnegative, got {self.max_doublings}")


class Grid:
    """Nodes and weights of a composite Gauss-Legendre rule on (0, r_max]."""

    __slots__ = ("nodes", "weights", "r_max", "refine")

    def __init__(self, nodes: np.ndarray, weights: np.ndarray, r_max: float, refine: int):
        self.nodes = nodes
        self.weights = weights
        self.r_max = r_max
        self.refine = refine

    def span(self, support: tuple[float, float] | None) -> slice:
        """The nodes strictly inside ``support``, as a slice; every node when it is None.

        The nodes ascend, so the nodes inside any interval are one contiguous run.
        """
        if support is None:
            return slice(None)
        lo, hi = support
        start = int(np.searchsorted(self.nodes, lo, side="right"))
        return slice(start, int(np.searchsorted(self.nodes, hi, side="left")))

    def integrate(self, values: np.ndarray, span: slice = slice(None)) -> float:
        """Weighted sum of ``values`` given on the nodes ``span``; every other node counts as 0."""
        full = np.zeros(self.weights.shape)  # calloc'd: no fill pass, unlike zeros_like
        full[span] = values
        return float(np.dot(full, self.weights))


@functools.lru_cache(maxsize=None)
def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _panel_rule(breaks: np.ndarray, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``nodes_per_panel`` Gauss-Legendre points on each panel between breaks."""
    x, w = _gauss(nodes_per_panel)
    half = 0.5 * np.diff(breaks)
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()


# width of the first panel of a radial grid, relative to r_max
_MIN_BREAK_FRACTION = 1e-6


@functools.lru_cache(maxsize=64)
def _cached_grid(spec: QuadratureSpec, r_max: float, refine: int) -> Grid:
    panels = spec.panels * (1 << refine)
    if panels == 1:
        breaks = np.array([0.0, r_max])
    else:
        ratio = _MIN_BREAK_FRACTION ** (1.0 / (panels - 1))
        breaks = np.concatenate(([0.0], r_max * ratio ** np.arange(panels - 1, -1, -1.0)))
    nodes, weights = _panel_rule(breaks, spec.nodes_per_panel)
    return Grid(nodes, weights, r_max, refine)


def build_grid(spec: QuadratureSpec, r_max: float, refine: int = 0) -> Grid:
    """Build the composite rule on (0, r_max]."""
    if not r_max > 0:
        raise QuadratureError(f"r_max must be positive, got {r_max}")
    return _cached_grid(spec, float(r_max), refine)


# share of [lo, hi] that Chebyshev samples leave out at each end
_CHEBYSHEV_MARGIN = 0.01


def _chebyshev(lo: float, hi: float, count: int) -> np.ndarray:
    """Chebyshev points in [lo, hi], excluding a relative margin at each end."""
    span = hi - lo
    lo, hi = lo + _CHEBYSHEV_MARGIN * span, hi - _CHEBYSHEV_MARGIN * span
    j = np.arange(count)
    x = np.cos((2 * j + 1) * np.pi / (2 * count))
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x


def log_sinh(r: np.ndarray) -> np.ndarray:
    """log(sinh r) for r > 0 without overflow at large r."""
    r = np.asarray(r, dtype=float)
    return r + np.log1p(-np.exp(-2.0 * r)) - np.log(2.0)


def weight_values(weight: str, r: np.ndarray) -> np.ndarray:
    """Values of a named singular weight at the nodes.

    Names: "one", "inv_r<p>" (r^-p, e.g. "inv_r2", "inv_r4"), "inv_sinh2",
    "inv_sinh4".
    """
    if weight == "one":
        return np.ones_like(r)
    if weight == "inv_sinh2":
        return np.sinh(r) ** -2.0
    if weight == "inv_sinh4":
        return np.sinh(r) ** -4.0
    if weight.startswith("inv_r"):
        return r ** -float(int(weight[len("inv_r") :]))
    raise ValueError(f"unknown weight {weight!r}")


def measure_values(r: np.ndarray, N: int) -> np.ndarray:
    """The hyperbolic measure factor sinh^{N-1} r."""
    if (N - 1) * float(np.max(r, initial=0.0)) > 690.0:
        raise QuadratureError(
            f"sinh^{N - 1} overflows double precision at r = {float(np.max(r)):g}; "
            "use a smaller support or dimension"
        )
    return np.sinh(r) ** (N - 1)


def _doubling(fn, spec, build):
    """The panel-doubling loop behind ``converge_terms`` and its plane analog.

    ``build(refine)`` makes the grid with ``spec.panels * 2**refine`` panels.
    """
    prev = fn(build(0))
    errors = {key: float("inf") for key in prev}
    for refine in range(1, spec.max_doublings + 1):
        cur = fn(build(refine))
        errors = {key: max(abs(cur[key] - prev[key]), float(np.spacing(abs(cur[key])))) for key in cur}
        prev = cur
        scale = max((abs(v) for v in cur.values()), default=0.0)
        if all(e <= spec.rel_tol * scale + spec.abs_tol for e in errors.values()):
            break
    return prev, errors


def converge_terms(fn, spec: QuadratureSpec, r_max: float):
    """Evaluate a keyed family of integrals under panel doubling.

    ``fn(grid)`` returns a dict of floats sharing one integrand pipeline.
    Returns ``(values, errors)`` where values come from the finest grid and
    errors are the absolute changes from the previous refinement (the
    caller's noise floor), floored at one ulp of each value: no quadrature
    is ever cleaner than the representation of its result.  Stops early once
    every change is at most ``rel_tol * max|value| + abs_tol``.  Never raises
    on slow convergence: the errors are the caller's evidence.
    """
    return _doubling(fn, spec, lambda refine: build_grid(spec, r_max, refine))
