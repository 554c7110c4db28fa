"""Composite Gauss-Legendre quadrature against closed forms and trapezoid."""

import numpy as np
import pytest

from poincare_hardy import Bump, PlaneQuadratureSpec, QuadratureError, QuadratureSpec
from poincare_hardy.quadrature import (
    _MIN_BREAK_FRACTION,
    build_grid,
    converge_terms,
    log_sinh,
    measure_values,
    weight_values,
)

from _oracles import EXP4_SINH2, bump_values, trapezoid_radial


def test_grid_layout():
    spec = QuadratureSpec(panels=16, nodes_per_panel=8)
    grid = build_grid(spec, r_max=5.0)
    assert grid.nodes.size == 16 * 8
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.nodes[0] > 0.0 and grid.nodes[-1] < 5.0
    assert np.all(grid.weights > 0.0)
    assert abs(grid.weights.sum() - 5.0) < 1e-12
    # panels crowd the origin: the first panel is ~_MIN_BREAK_FRACTION wide
    assert grid.nodes[spec.nodes_per_panel - 1] < 5.0 * _MIN_BREAK_FRACTION * 1.01


def test_grid_span_is_strictly_inside_support():
    grid = build_grid(QuadratureSpec(panels=16, nodes_per_panel=8), r_max=5.0)
    r = grid.nodes
    # supports whose edges sit exactly on nodes leave those nodes out
    assert grid.span((r[10], r[20])) == slice(11, 20)
    span = grid.span((1.0, 3.0))
    inside = (r > 1.0) & (r < 3.0)
    assert np.array_equal(np.arange(r.size)[span], np.flatnonzero(inside))
    assert grid.span(None) == slice(None)
    assert r[grid.span((5.5, 6.0))].size == 0


def test_integrate_on_span_equals_full_grid():
    u = Bump(2.5, 0.5, 1)
    for refine in (0, 1, 2):
        grid = build_grid(QuadratureSpec(), u.support[1] + 1.0, refine)
        span = grid.span(u.support)
        r = grid.nodes
        full = u(r) ** 2 * np.sinh(r) ** 4
        assert np.all(full[: span.start] == 0.0) and np.all(full[span.stop :] == 0.0)
        # bit for bit: a dot product over the span alone can differ in the last bits
        assert grid.integrate(full[span], span) == grid.integrate(full)


def test_grid_requires_domain():
    with pytest.raises(TypeError):
        build_grid(QuadratureSpec())
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(QuadratureError):
            build_grid(QuadratureSpec(), r_max=bad)


def test_spec_validation():
    # the radial and the plane grid share one check
    for spec_cls in (QuadratureSpec, PlaneQuadratureSpec):
        for bad in ({"panels": 0}, {"nodes_per_panel": 0}, {"max_doublings": -1}):
            with pytest.raises(QuadratureError):
                spec_cls(**bad)
        assert spec_cls(max_doublings=0).max_doublings == 0


def _converged(g, N, weight, r_max):
    """int_0^r_max g(r) w(r) sinh^{N-1}(r) dr under panel doubling."""

    def fn(grid):
        r = grid.nodes
        return {"v": grid.integrate(g(r) * weight_values(weight, r) * measure_values(r, N))}

    return converge_terms(fn, QuadratureSpec(), r_max)[0]["v"]


def test_exponential_sinh2_closed_form():
    got = _converged(lambda r: np.exp(-4.0 * r), 3, "one", 45.0)
    assert abs(got - EXP4_SINH2) < 1e-14


def test_weighted_bump_matches_trapezoid():
    u = Bump(2.0, 1.0, 0)
    got = _converged(u, 5, "inv_r2", u.support[1] + 1.0)
    want = trapezoid_radial(lambda r: bump_values(r, 2.0, 1.0) * r**-2.0 * np.sinh(r) ** 4, 3.5)
    assert abs(got - want) / abs(want) < 1e-9


def test_weight_values_kinds():
    r = np.array([0.5, 1.0, 2.0])
    assert np.all(weight_values("one", r) == 1.0)
    np.testing.assert_allclose(weight_values("inv_r4", r), r**-4.0)
    np.testing.assert_allclose(weight_values("inv_sinh2", r), np.sinh(r) ** -2.0)
    np.testing.assert_allclose(weight_values("inv_sinh4", r), np.sinh(r) ** -4.0)
    with pytest.raises(ValueError):
        weight_values("inv_cosh", r)


def test_measure_overflow_guard():
    r = np.array([100.0])
    with pytest.raises(QuadratureError, match="overflows"):
        measure_values(r, N=9)


def test_log_sinh_accuracy():
    r = np.array([1e-3, 1.0, 50.0, 800.0])
    # at r=800 direct sinh overflows; check the finite entries directly
    np.testing.assert_allclose(np.exp(log_sinh(r[:3])), np.sinh(r[:3]), rtol=1e-13)
    assert np.isfinite(log_sinh(r[3]))
    assert abs(log_sinh(r[3]) - (800.0 - np.log(2.0))) < 1e-12


def test_converge_terms_reports_floored_errors():
    spec = QuadratureSpec()

    def fn(grid):
        return {"v": grid.integrate(np.exp(-grid.nodes))}

    vals, errs = fn(build_grid(spec, 10.0)), None
    values, errors = converge_terms(fn, spec, 10.0)
    assert abs(values["v"] - (1.0 - np.exp(-10.0))) < 1e-13
    # even a fully converged integral reports at least one ulp of noise
    assert errors["v"] >= np.spacing(abs(values["v"]))
    assert errors["v"] < 1e-12


def test_converge_terms_respects_doubling_budget():
    seen = []

    def fn(grid):
        seen.append(grid.nodes.size)
        return {"v": float(len(seen))}  # never converges

    spec = QuadratureSpec(max_doublings=2)
    converge_terms(fn, spec, 1.0)
    n = spec.panels * spec.nodes_per_panel
    assert seen == [n, 2 * n, 4 * n]
