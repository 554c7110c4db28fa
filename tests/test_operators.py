"""Radial operators: Laplacian towers against closed forms and differences."""

import numpy as np
import pytest

from poincare_hardy import (
    Bump,
    Cutoff,
    ExpDecay,
    Product,
    QuadratureSpec,
    Scaled,
    SmoothWindow,
    load_suite,
    operators,
    profiles,
)
from poincare_hardy.jets import coth_jet
from poincare_hardy.operators import (
    RadialTable,
    gradk_sq_values,
    laplace_of_jet,
    radial_table,
    to_v_transform,
)
from poincare_hardy.quadrature import Grid, build_grid

from _oracles import central_diff
from test_quadrature import _full_rule, _graded_rule


def _laplace(u, N, r, order=0):
    """Jet of order ``order`` of the hyperbolic Laplacian of u at the points r, from fresh jets."""
    return laplace_of_jet(u.jet(r, order + 2), coth_jet(r, order + 2), N)


def test_laplace_of_exponential_closed_form():
    # Lap e^{-ar} = (a^2 - (N-1) a coth r) e^{-ar}
    a, N = 2.0, 5
    u = ExpDecay(a)
    r = np.linspace(0.5, 4.0, 17)
    want = (a * a - (N - 1) * a / np.tanh(r)) * np.exp(-a * r)
    np.testing.assert_allclose(_laplace(u, N, r).value(), want, rtol=1e-12)


def test_laplace_matches_difference_quotients():
    u, N = Bump(2.0, 1.0, 0), 7
    r = np.linspace(1.3, 2.7, 13)
    first = central_diff(u, r)
    second = central_diff(lambda x: u.jet(x, 1).derivative(1), r)
    want = second + (N - 1) / np.tanh(r) * first
    got = _laplace(u, N, r).value()
    assert np.max(np.abs(got - want)) / np.max(np.abs(got)) < 1e-7


def _points(r):
    """A Grid holding just the sample points, for building a RadialTable on them."""
    return Grid(r, np.ones_like(r))


def test_iterated_laplace_composes():
    u, N = Bump(2.0, 1.0, 1), 5
    r = np.linspace(1.2, 2.8, 9)
    once = _laplace(u, N, r, order=2)
    twice_tower = RadialTable(u, N, _points(r), 2).values(2)
    # apply the Laplacian to the jet of Lap u by the same closed form
    twice_composed = laplace_of_jet(once, coth_jet(r, 2), N).value()
    np.testing.assert_allclose(twice_tower, twice_composed, rtol=1e-12)


def test_grad_norm_sq():
    u = Bump(2.0, 1.0, 0)
    r = np.linspace(1.2, 2.8, 9)
    got = gradk_sq_values(RadialTable(u, 5, _points(r), 0), 1)
    np.testing.assert_allclose(got, u.jet(r, 1).derivative(1) ** 2, rtol=1e-15)


def test_to_v_transform_values_and_derivative():
    u, N = Bump(2.0, 1.0, 0), 5
    r = np.linspace(1.2, 2.8, 9)
    w = to_v_transform(u.jet(r, 1), N, r)
    np.testing.assert_allclose(w.value(), np.sinh(r) ** 2.0 * u(r), rtol=1e-13)
    fd = central_diff(lambda x: to_v_transform(u.jet(x, 0), N, x).value(), r)
    scale = np.max(np.abs(w.derivative(1)))
    assert np.max(np.abs(w.derivative(1) - fd)) / scale < 1e-6


def test_gradk_sq_parity_dispatch():
    u, N = Bump(2.0, 1.0, 0), 5
    spec = QuadratureSpec()
    grid = build_grid(spec, u.support)
    table = radial_table(u, N, grid, 2)
    r = grid.nodes
    np.testing.assert_allclose(gradk_sq_values(table, 0), u(r) ** 2, rtol=1e-13)
    np.testing.assert_allclose(gradk_sq_values(table, 1), u.jet(r, 1).derivative(1) ** 2, rtol=1e-13)
    np.testing.assert_allclose(
        gradk_sq_values(table, 2), _laplace(u, N, r).value() ** 2, rtol=1e-12
    )
    np.testing.assert_allclose(
        gradk_sq_values(table, 3),
        _laplace(u, N, r, order=1).derivative(1) ** 2,
        rtol=1e-12,
    )
    with pytest.raises(ValueError):
        gradk_sq_values(table, 6)


def test_radial_table_is_cached():
    u, spec = Bump(2.0, 1.0, 0), QuadratureSpec()
    t1 = radial_table(u, 5, build_grid(spec, u.support, 1), 1)
    t2 = radial_table(u, 5, build_grid(spec, u.support, 1), 1)
    assert t1 is t2
    t3 = radial_table(u, 5, build_grid(spec, u.support, 2), 1)
    assert t3 is not t1


def test_radial_table_levels_requested():
    u = Bump(2.0, 1.0, 0)
    grid = build_grid(QuadratureSpec(), u.support)
    table = RadialTable(u, 5, grid, 2)
    assert table.levels == 2
    r = grid.nodes
    want = laplace_of_jet(_laplace(u, 5, r, order=2), coth_jet(r, 2), 5).value()
    np.testing.assert_allclose(table.values(2), want, rtol=1e-11)
    # a deeper tower agrees on the shared levels
    np.testing.assert_allclose(RadialTable(u, 5, grid, 3).values(2), table.values(2), rtol=1e-11)


@pytest.mark.parametrize("u", [load_suite("origin")[0], load_suite("standard")[0]], ids=lambda u: u.id)
def test_table_levels_do_not_depend_on_the_table_depth(u):
    # the verifier memoises integrals without the depth of the table they were read from
    grid = build_grid(QuadratureSpec(), u.support, 1)
    for N in (1, 5, 9):
        shallow, deep = RadialTable(u, N, grid, 1), RadialTable(u, N, grid, 2)
        for level in range(2):
            assert np.array_equal(shallow.values(level), deep.values(level))
            assert np.array_equal(shallow.deriv(level), deep.deriv(level))


# every profile kind; Bump powers 0-3, and one Bump whose support reaches r = 0
_SUPPORTED = [
    *(Bump(2.0, 1.0, p) for p in range(4)),
    Bump(0.5, 1.0, 1),
    SmoothWindow(1.0, 3.0, 0.5),
    Cutoff(1.0, 2.5),
    Scaled(Bump(1.5, 0.7, 2), -3.0),
    Product((Bump(2.0, 1.0, 0), Cutoff(2.0, 2.5))),
]


@pytest.mark.parametrize("u", _SUPPORTED, ids=lambda u: u.id)
def test_jet_vanishes_outside_open_support(u):
    # a radial grid holds only the nodes strictly inside its support: that is exact
    # only if every coefficient is 0.0 outside it; the graded rule on (0, hi + 1]
    # samples both sides of the support, whichever layout its grid gets
    lo, hi = u.support
    edges = [hi] + ([lo] if lo > 0 else [])  # the domain is r > 0: no node lies at or below 0
    points = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)] + edges
    nodes, _ = _graded_rule(QuadratureSpec(panels=8, nodes_per_panel=16), hi + 1.0)
    outside = (nodes <= lo) | (nodes >= hi)
    assert outside.any()
    r = np.concatenate([points, nodes[outside]])
    assert np.all(u.jet(r, 6).coef == 0.0)


def _uncached_tower(u, N, r, levels):
    """u, Lap u, ..., Lap^levels u at the points r, built from fresh jets."""
    order = 2 * levels + 2
    cj = coth_jet(r, order)
    tower = [u.jet(r, order)]
    for _ in range(levels):
        tower.append(laplace_of_jet(tower[-1], cj, N))
    return tower


@pytest.mark.parametrize("refine", [0, 2])
@pytest.mark.parametrize("u", [load_suite("standard")[-1], load_suite("origin")[-1]], ids=lambda u: u.id)
def test_radial_table_on_span_equals_full_grid_tower(u, refine):
    # the table on the support's grid is the tower on the full rule, read inside the support
    N = 7
    spec = QuadratureSpec()
    grid = build_grid(spec, u.support, refine)
    table = RadialTable(u, N, grid, 2)
    nodes, _ = _full_rule(spec, u.support, refine)
    inside = (nodes > u.support[0]) & (nodes < u.support[1])
    for level, jet in enumerate(_uncached_tower(u, N, nodes, 2)):
        assert np.array_equal(table.values(level), jet.value()[inside])
        assert np.array_equal(table.deriv(level), jet.derivative(1)[inside])


def test_tables_of_every_dimension_read_one_core_into_equal_read_only_jets(monkeypatch):
    u = load_suite("origin")[-1]
    assert u.power  # so level 0 is the core's shifted jet, not the cached core itself
    grid = build_grid(QuadratureSpec(), u.support, 1)
    cores = []
    core = profiles._bump_core
    monkeypatch.setattr(profiles, "_bump_core", lambda *args: cores.append(args) or core(*args))
    t5, t9 = RadialTable(u, 5, grid, 2), RadialTable(u, 9, grid, 2)
    # two levels need order 5: the top level is read only through its value and first derivative
    assert len(cores) == 1
    assert np.array_equal(t5._tower[0].coef, t9._tower[0].coef)
    for N, table in ((5, t5), (9, t9)):
        for level, jet in enumerate(_uncached_tower(u, N, grid.nodes, 2)):
            assert np.array_equal(table.values(level), jet.value())
            assert np.array_equal(table.deriv(level), jet.derivative(1))
        with pytest.raises(ValueError, match="read-only"):
            table._tower[0].coef[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            table.values(0)[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        operators._grid_jet(operators._COTH, grid, 5).coef[0, 0] = 1.0
