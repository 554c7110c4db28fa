"""Composite Gauss-Legendre quadrature for weighted radial integrals.

Integrals have the shape ``int_lo^hi g(r) w(r) mu(r) dr`` with a smooth
``g`` supported in [lo, hi], a possibly singular weight ``w`` (powers of 1/r or
1/sinh r), and the measure ``mu`` (sinh^{N-1} r for ambient hyperbolic
integrals, 1 for the reduced one-dimensional ones).  Convergence is certified
by doubling the panel count and comparing.  The panel rule, the doubling
loop, the spec (which the plane spec subclasses) and the Chebyshev sampler
here are shared with the half-space tensor grid.

So a radial grid belongs to one support (lo, hi), and ``_cached_grid`` is the
one home of its layout; it refuses a profile with no compact support and any
support without 0 <= lo < hi < inf.  A layout only chooses the panel breaks:

* A support that reaches the origin, (0, hi), gets equal panels on [0, hi].
  Under the paper's hypotheses (N > 2k, and N > beta + 4 for the weighted
  step) every weight 1/r^{2j} and 1/sinh^4 r times sinh^{N-1} r stays bounded
  at r = 0, so every certified integrand is smooth up to the origin and the
  plain composite rule converges spectrally.  (The 1-D lemmas read the raw
  v-family at N = 1, whose weights reach coth^4 r: it is finite only for a u
  that vanishes at 0 to matching order, and is then smooth as well.)
* A support with lo > 0 gets breaks on (0, hi + 1] whose first inner break
  sits at ``1e-6 * (hi + 1)`` and which grow geometrically from there.

Then only the panels that meet (lo, hi) are laid out, and the grid keeps their
nodes strictly inside the support, with their weights.  A panel's nodes come
from its own two breaks alone, so they are those of the whole rule.  Outside
the support every jet coefficient of ``g`` is exactly 0, so the nodes left
out would add nothing but zeros.  Callers evaluate their integrands on
``grid.nodes`` as they are.

``Grid.integrate(g, w, N)`` is the one place where an integrand meets its
weight and measure, but for the one integrand that carries its own:
``sharpness_probe("poincare_k1")`` fuses e^{-2ar} sinh^{N-1} r into
exp(-2ar + (N-1) log_sinh r), since on its cutoffs, out to r = 2000, e^{-2ar}
underflows and sinh^{N-1} r overflows: neither stays in double range alone.
Weight and measure do not depend on ``g``, so it reads them from one
private cache of named factors, built once per grid: ``_grid_weight`` keyed
on (grid, name), the measure being the name "sinh<N-1>" (none at N = 1).  A
grid hashes by identity.  The cached arrays are the very arrays
``weight_values`` returns, made read-only, and the product order is
``(g * w) * mu``: every float is the one an uncached evaluation gives.  The
cache is bounded: at most 34 arrays, each no longer than its grid, so under
9 MB on the finest default grid.  The measure is read first, and its refusal
to overflow is an exception, which ``lru_cache`` never stores: it builds no
weight and repeats on every call.

Each ``Grid`` also carries a memo of the integrals finished on it (``_terms``)
and one of the jets taken on its nodes (``_jets``; see ``Grid``).  They live
on the grid rather than in a module-level table keyed by the grid, so they
keep no grid alive: when ``_cached_grid`` (64 entries) drops a grid, its memos
go with it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import QuadratureError

__all__ = [
    "QuadratureSpec",
    "Grid",
    "build_grid",
    "weight_values",
    "log_sinh",
    "converge_terms",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration policy for radial integrals over a support (lo, hi): a layout has ``panels * 2**refine``
    panels of ``nodes_per_panel`` nodes each, of which a grid lays out those that meet the support."""

    abs_tol: ClassVar[float] = 1e-30
    panels: int = 32
    nodes_per_panel: int = 64
    rel_tol: float = 1e-10
    max_doublings: int = 4

    def __post_init__(self):
        """Reject grids that are empty or budgets that run no evaluation."""
        if self.panels < 1 or self.nodes_per_panel < 1:
            raise QuadratureError("panels and nodes_per_panel must be positive")
        if self.max_doublings < 0:
            raise QuadratureError(f"max_doublings must be nonnegative, got {self.max_doublings}")


class Grid:
    """Nodes and weights of a composite Gauss-Legendre rule, ascending, inside one support.

    ``_terms`` memoises the integrals already taken on this grid: a verifier
    term under (u, N, k, weight) (see ``verify._integrals``) and the raw
    v-family of d under (d, N, keys) (see ``identities._mode_raw_integrals``).
    ``_jets`` holds the read-only jets of coth and of each profile's base (a
    Bump's core) on the nodes, at the highest order asked so far (see
    ``operators._grid_jet``).
    """

    __slots__ = ("nodes", "weights", "_terms", "_jets")

    def __init__(self, nodes: np.ndarray, weights: np.ndarray):
        self.nodes = nodes
        self.weights = weights
        self._terms = {}
        self._jets = {}

    def integrate(self, values: np.ndarray, weight: str = "one", N: int = 1) -> float | list[float]:
        """Weighted sum of ``(values * weight) * sinh^{N-1} r`` given on the nodes (see the module docstring);
        a (members, nodes) stack gives each row's own sum (``stack @ weights`` would round differently)."""
        mu = None if N == 1 else _grid_weight(self, f"sinh{N - 1}")  # sinh^0 r = 1, and x * 1.0 == x
        if weight != "one":  # no ones array: it would raise peak memory for nothing
            values = values * _grid_weight(self, weight)
        if mu is not None:
            values = values * mu
        if values.ndim == 2:
            return [float(np.dot(row, self.weights)) for row in values]
        return float(np.dot(values, self.weights))


@functools.lru_cache(maxsize=None)
def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _panel_rule(breaks: np.ndarray, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``nodes_per_panel`` Gauss-Legendre points on each panel between breaks."""
    x, w = _gauss(nodes_per_panel)
    half = 0.5 * np.diff(breaks)
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()


# width of the first panel of a radial grid on a support with lo > 0, relative to hi + 1
_MIN_BREAK_FRACTION = 1e-6


@functools.lru_cache(maxsize=64)
def _cached_grid(spec: QuadratureSpec, support: tuple[float, float], refine: int) -> Grid:
    if support is None:
        raise ValueError("integral checks need a compactly supported profile")
    lo, hi = support
    if not 0 <= lo < hi < np.inf:
        raise QuadratureError(f"a support (lo, hi) needs 0 <= lo < hi < inf, got {support}")
    panels = spec.panels * (1 << refine)
    if lo == 0:
        # every certified integrand is smooth up to r = 0, so equal panels converge spectrally
        breaks = np.linspace(0.0, hi, panels + 1)
    elif panels == 1:
        breaks = np.array([0.0, hi + 1.0])
    else:
        ratio = _MIN_BREAK_FRACTION ** (1.0 / (panels - 1))
        breaks = np.concatenate(([0.0], (hi + 1.0) * ratio ** np.arange(panels - 1, -1, -1.0)))
    # lay out only the panels that meet (lo, hi); their nodes ascend, so those inside are one run
    first, last = int(np.searchsorted(breaks, lo, side="right")) - 1, int(np.searchsorted(breaks, hi, side="left"))
    nodes, weights = _panel_rule(breaks[first : last + 1], spec.nodes_per_panel)
    inside = slice(int(np.searchsorted(nodes, lo, side="right")), int(np.searchsorted(nodes, hi, side="left")))
    return Grid(nodes[inside], weights[inside])


def build_grid(spec: QuadratureSpec, support: tuple[float, float], refine: int = 0) -> Grid:
    """The composite rule of ``support`` = (lo, hi) on the panels that meet it, cut to the nodes strictly inside:
    equal panels on [0, hi] if lo = 0, else graded ones on (0, hi + 1]."""
    return _cached_grid(spec, support, refine)


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
    """Values of a named factor at the nodes: a singular weight or the measure.

    Names: "one", "inv_r<p>" (r^-p, e.g. "inv_r2", "inv_r4"), "inv_sinh<p>"
    (sinh^-p r, e.g. "inv_sinh2", "inv_sinh4") and "sinh<p>" (sinh^p r, the
    measure at N = p + 1).  "sinh<p>" refuses nodes where it would overflow.
    """
    if weight == "one":
        return np.ones_like(r)
    if weight.startswith("inv_sinh"):
        return np.sinh(r) ** -float(int(weight[len("inv_sinh") :]))
    if weight.startswith("inv_r"):
        return r ** -float(int(weight[len("inv_r") :]))
    if weight.startswith("sinh"):
        p = int(weight[len("sinh") :])
        if p * float(np.max(r, initial=0.0)) > 690.0:
            raise QuadratureError(
                f"sinh^{p} overflows double precision at r = {float(np.max(r)):g}; use a smaller support or dimension"
            )
        return np.sinh(r) ** p
    raise ValueError(f"unknown weight {weight!r}")


# entries of the per-grid cache: 24 for the weights, which serve every N (one
# function's doubling loop needs about 7 names x 5 grids), and 10 for the
# measures of the one N its margins run at
_GRID_WEIGHTS = 34


@functools.lru_cache(maxsize=_GRID_WEIGHTS)
def _grid_weight(grid: Grid, name: str) -> np.ndarray:
    """``weight_values(name)`` on ``grid.nodes``, read-only."""
    w = weight_values(name, grid.nodes)
    w.flags.writeable = False
    return w


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


def converge_terms(fn, spec: QuadratureSpec, support: tuple[float, float]):
    """Evaluate a keyed family of integrals over ``support`` under panel doubling.

    ``fn(grid)`` returns a dict of floats sharing one integrand pipeline.
    Returns ``(values, errors)`` where values come from the finest grid and
    errors are the absolute changes from the previous refinement (the
    caller's noise floor), floored at one ulp of each value: no quadrature
    is ever cleaner than the representation of its result.  Stops early once
    every change is at most ``rel_tol * max|value| + abs_tol``.  Never raises
    on slow convergence: the errors are the caller's evidence.
    """
    return _doubling(fn, spec, lambda refine: build_grid(spec, support, refine))
