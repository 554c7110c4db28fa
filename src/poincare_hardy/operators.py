"""Radial differential operators on hyperbolic space, via jet arithmetic.

For a radial function u(r) in geodesic polar coordinates the Laplacian is
u'' + (N-1) coth(r) u'; iterating it and taking one more derivative covers
every |grad^k u|^2 integrand: (Lap^m u)^2 for k = 2m and ((Lap^m u)')^2 for
k = 2m+1.  ``RadialTable`` evaluates the whole tower once per test function,
dimension and grid so the verifier's many integrals share one pipeline.  A
radial grid holds only the nodes strictly inside one support (see
``quadrature``), so the table's arrays cover ``grid.nodes`` as they are.

Only the Laplacian levels carry N.  The jets of u and of coth on those nodes
serve every radial grid integral (the tables of every N, and the estimates'
v, v', v'' over sinh^{(N-1)/2} r).  coth's jet depends only on the grid, and
u = r^p * base (``power_split``) takes its jet by p shifts of base's, so
``_grid_jet`` keeps one jet of each on the grid (``Grid._jets``), built at the
highest order asked so far, and serves a lower order as a view of its first
coefficients: coefficient j of every jet is the same float whatever the jet's
order.  The suite members that share a support and differ only in p share one
Bump core per grid, which ``_profile_jets`` shifts on every call: there is no
cache per (u, grid, order).  The stored jets go with their grid, so
``quadrature._cached_grid``'s 64 entries bound them, and they are shared by
the commands of one process only: one command run cold asks no jet twice.
Every array is read-only, so no caller can write into another's.  A table of
m levels needs order 2m + 1: its top level is read only as a value and a slope.

A table of a tuple of profiles serves the suite members on one grid with one
tower: ``_stacked_jets`` stacks their jets before the nodes, uncached.  Every
array is then (members, nodes), and row i holds member i's own table's floats.
"""

from __future__ import annotations

import functools

import numpy as np

from .jets import Jet, coth_jet, sinh_jet
from .profiles import RadialProfile, times_power
from .quadrature import Grid

__all__ = [
    "laplace_of_jet",
    "gradk_sq_values",
    "to_v_transform",
    "RadialTable",
    "radial_table",
]


def laplace_of_jet(ujet: Jet, coth_full: Jet, N: int) -> Jet:
    """Jet of u'' + (N-1) coth(r) u', two orders shorter than the input."""
    q = ujet.order - 2
    if q < 0:
        raise ValueError("need jet order >= 2 to apply the Laplacian")
    du = ujet.shift()
    # coth's jet is finite at every r > 0, past r = 710 too: at N = 1 its term is +-0 and the sum is u'' bit for bit
    return du.shift() + coth_full.truncate(q) * du.truncate(q) * float(N - 1)


def to_v_transform(ujet: Jet, N: int, r: np.ndarray) -> Jet:
    """Jet of v = sinh^{(N-1)/2}(r) * u(r) from u's jet at r: the pointwise identities' route to v."""
    return sinh_jet(np.asarray(r, dtype=float), ujet.order).power((N - 1) / 2.0) * ujet


# the ``_grid_jet`` key of coth, beside the profiles
_COTH = "coth"


def _grid_jet(f: RadialProfile | str, grid: Grid, order: int) -> Jet:
    """The jet of coth (f = ``_COTH``) or of the profile f on ``grid.nodes``, read-only.

    ``grid._jets`` keeps one jet per f, of the highest order asked so far; a lower
    order is a view of its first coefficients, the floats a fresh jet of that order has.
    A build that raises stores nothing.
    """
    jet = grid._jets.get(f)
    if jet is None or jet.order < order:
        jet = coth_jet(grid.nodes, order) if f == _COTH else f.jet(grid.nodes, order)
        jet.coef.flags.writeable = False
        grid._jets[f] = jet
    return jet.truncate(order)


def _profile_jets(u: RadialProfile, grid: Grid, order: int) -> tuple[Jet, Jet]:
    """The jets of u and of coth on ``grid.nodes``, read-only; they do not depend on N."""
    base, p = u.power_split()
    ujet = times_power(_grid_jet(base, grid, order), grid.nodes, p)
    ujet.coef.flags.writeable = False
    return ujet, _grid_jet(_COTH, grid, order)


def _stacked_jets(group: tuple[RadialProfile, ...], grid: Grid, order: int) -> tuple[Jet, Jet]:
    """The ``_profile_jets`` floats of ``group``'s members on an axis before the nodes, and coth's jet.

    Each member r^p * base takes p shifts of base's shared ``_grid_jet``, as on its own."""
    coef = np.empty((order + 1, len(group), *grid.nodes.shape))
    for i, u in enumerate(group):
        base, p = u.power_split()
        coef[:, i] = times_power(_grid_jet(base, grid, order), grid.nodes, p).coef
    return Jet(coef), _grid_jet(_COTH, grid, order)


class RadialTable:
    """Values and first derivatives of u, Lap u, ..., Lap^levels u on the grid nodes.

    A tuple of profiles makes every array (members, nodes); level 0 of one is its read-only ``_profile_jets``.
    """

    def __init__(self, u: RadialProfile | tuple[RadialProfile, ...], N: int, grid: Grid, levels: int):
        jets = _stacked_jets if isinstance(u, tuple) else _profile_jets
        ujet, cj = jets(u, grid, 2 * levels + 1)
        tower = [ujet]
        for _ in range(levels):
            tower.append(laplace_of_jet(tower[-1], cj, N))
        self.levels = levels
        self._tower = tower

    def values(self, level: int) -> np.ndarray:
        """Lap^level u at the grid nodes."""
        return self._tower[level].value()

    def deriv(self, level: int) -> np.ndarray:
        """(Lap^level u)' at the grid nodes."""
        return self._tower[level].derivative(1)


def gradk_sq_values(table: RadialTable, k: int) -> np.ndarray:
    """|grad^k u|^2 at the table's nodes, per member of a stack: (Lap^m u)^2 for k = 2m, ((Lap^m u)')^2 for k = 2m+1."""
    m, odd = divmod(k, 2)
    if m > table.levels:
        raise ValueError(f"table holds {table.levels} Laplacian levels, order {k} needs {m}")
    return (table.deriv(m) if odd else table.values(m)) ** 2


@functools.lru_cache(maxsize=8)
def radial_table(u: RadialProfile, N: int, grid: Grid, levels: int) -> RadialTable:
    """Cached table so margin families over the same test function and grid share jets."""
    return RadialTable(u, N, grid, levels)
