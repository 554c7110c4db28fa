"""Composite Gauss-Legendre quadrature against closed forms and trapezoid."""

import numpy as np
import pytest

from poincare_hardy import Bump, PlaneQuadratureSpec, QuadratureError, QuadratureSpec, cli, load_suite
from poincare_hardy.quadrature import (
    _MIN_BREAK_FRACTION,
    _panel_rule,
    build_grid,
    converge_terms,
    log_sinh,
    weight_values,
)

from _oracles import EXP4_SINH2, bump_values, trapezoid_radial


def _graded_rule(spec, r_max, refine=0):
    """The composite rule on (0, r_max]: breaks geometric from _MIN_BREAK_FRACTION * r_max up to r_max."""
    panels = spec.panels * 2**refine
    ratio = _MIN_BREAK_FRACTION ** (1.0 / (panels - 1))
    return _panel_rule(np.concatenate(([0.0], r_max * ratio ** np.arange(panels - 1, -1, -1.0))), spec.nodes_per_panel)


def _full_rule(spec, support, refine=0):
    """The whole rule a support's grid is cut from: equal panels on [0, hi] if lo = 0, else graded on (0, hi + 1]."""
    lo, hi = support
    if lo == 0:
        return _panel_rule(np.linspace(0.0, hi, spec.panels * 2**refine + 1), spec.nodes_per_panel)
    return _graded_rule(spec, hi + 1.0, refine)


def test_grid_layout():
    spec = QuadratureSpec(panels=16, nodes_per_panel=8)
    # a support that reaches the origin: 16 equal panels on [0, 4]
    grid = build_grid(spec, (0.0, 4.0))
    r, w = grid.nodes, grid.weights
    assert r.size == 16 * 8
    assert np.all(np.diff(r) > 0)
    assert r[0] > 0.0 and r[-1] < 4.0
    assert np.all(w > 0.0)
    # each panel holds 8 nodes and integrates 1 exactly over its width
    panels = r.reshape(16, 8)
    assert np.all((panels > 0.25 * np.arange(16)[:, None]) & (panels < 0.25 * np.arange(1, 17)[:, None]))
    np.testing.assert_allclose(w.reshape(16, 8).sum(axis=1), 0.25, rtol=0, atol=1e-15)


def test_grid_layout_away_from_the_origin():
    spec = QuadratureSpec(panels=16, nodes_per_panel=8)
    support = (1e-9, 4.0)  # the graded rule on (0, 5], cut to (1e-9, 4)
    grid = build_grid(spec, support)
    r, w = grid.nodes, grid.weights
    nodes, weights = _full_rule(spec, support)
    inside = (nodes > support[0]) & (nodes < support[1])
    assert np.array_equal(r, nodes[inside]) and np.array_equal(w, weights[inside])
    assert np.all(np.diff(r) > 0) and np.all(w > 0.0)
    # 15 whole panels lie below the last inner break, and each integrates 1 exactly
    inner = 5.0 * _MIN_BREAK_FRACTION ** (1.0 / 15)
    whole = r < inner
    assert whole.sum() == 15 * 8
    assert abs(w[whole].sum() - inner) < 1e-12
    # panels crowd the origin: the first panel is ~_MIN_BREAK_FRACTION wide
    assert r[spec.nodes_per_panel - 1] < 5.0 * _MIN_BREAK_FRACTION * 1.01


def test_grid_span_is_strictly_inside_support():
    spec = QuadratureSpec(panels=16, nodes_per_panel=8)
    base = build_grid(spec, (0.5, 3.0))
    r = base.nodes
    # a support edge that sits exactly on a node leaves that node out
    edge = build_grid(spec, (r[10], 3.0))
    assert np.array_equal(edge.nodes, r[11:]) and np.array_equal(edge.weights, base.weights[11:])
    # supports that share an end share one rule, and each grid holds its nodes strictly inside
    inner = build_grid(spec, (1.0, 3.0))
    inside = r > 1.0
    assert np.array_equal(inner.nodes, r[inside]) and np.array_equal(inner.weights, base.weights[inside])


@pytest.mark.parametrize("u", [load_suite("standard")[-1], load_suite("origin")[-1], Bump(2.5, 0.5, 1)], ids=lambda u: u.id)
def test_support_grid_integral_matches_full_rule(u):
    lo, hi = u.support
    spec = QuadratureSpec()
    for refine in (0, 1, 2):
        grid = build_grid(spec, u.support, refine)
        nodes, weights = _full_rule(spec, u.support, refine)
        # the grid is the run of the full rule strictly inside the support, node for node
        inside = (nodes > lo) & (nodes < hi)
        assert np.array_equal(grid.nodes, nodes[inside]) and np.array_equal(grid.weights, weights[inside])
        full = u(nodes) ** 2 * np.sinh(nodes) ** 4
        assert not full[~inside].any()
        # the two sums of the same products differ by rounding alone: gamma_n * sum |w_i f_i|
        eps = np.finfo(float).eps / 2
        gamma = nodes.size * eps / (1.0 - nodes.size * eps)
        bound = gamma * float(np.sum(np.abs(weights * full)))
        assert abs(grid.integrate(full[inside]) - float(np.dot(full, weights))) <= bound


@pytest.mark.parametrize("suite", ["standard", "origin"])
def test_every_node_lies_strictly_inside_the_support(suite):
    spec = QuadratureSpec()
    for u in load_suite(suite):
        lo, hi = u.support
        for refine in range(spec.max_doublings + 1):
            r = build_grid(spec, u.support, refine).nodes
            assert r.size and np.all((r > lo) & (r < hi)), (u.id, refine)


def test_a_support_between_two_nodes_has_an_empty_grid_and_is_refused(capsys, monkeypatch):
    u = Bump(1.0, 1e-13)
    assert build_grid(QuadratureSpec(), u.support).nodes.size == 0
    monkeypatch.setattr(cli, "load_suite", lambda name: (u,))
    assert cli.main(["verify", "--case", "thm21", "--N", "5"]) == 64
    assert "vanishes on the quadrature grid" in capsys.readouterr().err


def test_grid_requires_domain():
    with pytest.raises(TypeError):
        build_grid(QuadratureSpec())
    with pytest.raises(ValueError, match="compactly supported"):
        build_grid(QuadratureSpec(), None)
    # a support needs 0 <= lo < hi < inf, on either layout
    for hi in (-2.0, -1.0, -0.5, 0.0, float("nan"), float("inf")):
        with pytest.raises(QuadratureError):
            build_grid(QuadratureSpec(), (0.0, hi))
    for support in ((-1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (float("nan"), 2.0), (1.0, float("inf"))):
        with pytest.raises(QuadratureError):
            build_grid(QuadratureSpec(), support)


def test_spec_validation():
    # the radial and the plane grid share one check
    for spec_cls in (QuadratureSpec, PlaneQuadratureSpec):
        for bad in ({"panels": 0}, {"nodes_per_panel": 0}, {"max_doublings": -1}):
            with pytest.raises(QuadratureError):
                spec_cls(**bad)
        assert spec_cls(max_doublings=0).max_doublings == 0


def _converged(g, N, weight, support):
    """int g(r) w(r) sinh^{N-1}(r) dr over the support under panel doubling."""

    def fn(grid):
        r = grid.nodes
        return {"v": grid.integrate(g(r) * weight_values(weight, r) * weight_values(f"sinh{N - 1}", r))}

    return converge_terms(fn, QuadratureSpec(), support)[0]["v"]


def test_exponential_sinh2_closed_form():
    # past r = 44 the integrand is below e^-88: the rest of the half-line is far under one ulp
    got = _converged(lambda r: np.exp(-4.0 * r), 3, "one", (0.0, 44.0))
    assert abs(got - EXP4_SINH2) < 1e-14


def test_weighted_bump_matches_trapezoid():
    u = Bump(2.0, 1.0, 0)
    got = _converged(u, 5, "inv_r2", u.support)
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
        weight_values("sinh8", r)


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

    # a grid holds no node at or past its support's end: past r = 40, e^-r is under one ulp of the integral
    values, errors = converge_terms(fn, spec, (0.0, 40.0))
    assert abs(values["v"] - (1.0 - np.exp(-40.0))) < 1e-13
    # even a fully converged integral reports at least one ulp of noise
    assert errors["v"] >= np.spacing(abs(values["v"]))
    assert errors["v"] < 1e-12


def test_converge_terms_respects_doubling_budget():
    seen = []

    def fn(grid):
        seen.append(grid)
        return {"v": float(len(seen))}  # never converges

    spec = QuadratureSpec(max_doublings=2)
    converge_terms(fn, spec, (0.0, 1.0))
    assert seen == [build_grid(spec, (0.0, 1.0), refine) for refine in range(3)]
    assert seen[0].nodes.size < seen[1].nodes.size < seen[2].nodes.size
