"""Composite Gauss-Legendre quadrature against closed forms and trapezoid."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poincare_hardy import Bump, PlaneQuadratureSpec, QuadratureError, QuadratureSpec, cli, load_suite, quadrature
from poincare_hardy.quadrature import (
    _MIN_BREAK_FRACTION,
    _panel_rule,
    build_grid,
    converge_terms,
    log_sinh,
    weight_values,
)

from _oracles import EXP4_SINH2, bump_values, trapezoid_radial


def _graded_breaks(panels, r_max):
    """Breaks on (0, r_max]: one panel, or geometric from _MIN_BREAK_FRACTION * r_max up to r_max."""
    if panels == 1:
        return np.array([0.0, r_max])
    ratio = _MIN_BREAK_FRACTION ** (1.0 / (panels - 1))
    return np.concatenate(([0.0], r_max * ratio ** np.arange(panels - 1, -1, -1.0)))


def _graded_rule(spec, r_max, refine=0):
    """The composite rule on the graded breaks of (0, r_max]."""
    return _panel_rule(_graded_breaks(spec.panels * 2**refine, r_max), spec.nodes_per_panel)


def _full_breaks(spec, support, refine=0):
    """The breaks of the whole rule a support's grid is cut from: equal on [0, hi] if lo = 0, else graded on (0, hi + 1]."""
    lo, hi = support
    panels = spec.panels * 2**refine
    return np.linspace(0.0, hi, panels + 1) if lo == 0 else _graded_breaks(panels, hi + 1.0)


def _full_rule(spec, support, refine=0):
    """The whole rule a support's grid is cut from."""
    return _panel_rule(_full_breaks(spec, support, refine), spec.nodes_per_panel)


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


def _laid_out(spec, support, refine):
    """The panels, as (left, right) breaks, of each ``_panel_rule`` call that building the grid makes (uncached)."""
    with mock.patch.object(quadrature, "_panel_rule", wraps=quadrature._panel_rule) as rule:
        quadrature._cached_grid.__wrapped__(spec, support, refine)
    return [list(zip(call.args[0][:-1], call.args[0][1:])) for call in rule.call_args_list]


def _meeting_panels(spec, support, refine):
    """The panels of the full rule whose span meets the open support."""
    lo, hi = support
    breaks = _full_breaks(spec, support, refine)
    return [(a, b) for a, b in zip(breaks[:-1], breaks[1:]) if a < hi and b > lo]


@pytest.mark.parametrize("suite", ["standard", "origin"])
def test_a_grid_lays_out_only_the_panels_that_meet_its_support(suite):
    spec = QuadratureSpec()
    for lo, hi in dict.fromkeys(u.support for u in load_suite(suite)):
        for refine in range(spec.max_doublings + 1):
            meets = _meeting_panels(spec, (lo, hi), refine)
            assert _laid_out(spec, (lo, hi), refine) == [meets], (lo, hi, refine)
            # a support at the origin meets every panel; one away from it meets a few of the graded ones
            assert (len(meets) == spec.panels * 2**refine) == (lo == 0), (lo, hi, refine)


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
        assert _laid_out(spec, u.support, refine) == [_meeting_panels(spec, u.support, refine)]
        full = u(nodes) ** 2 * np.sinh(nodes) ** 4
        assert not full[~inside].any()
        # the two sums of the same products differ by rounding alone: gamma_n * sum |w_i f_i|
        eps = np.finfo(float).eps / 2
        gamma = nodes.size * eps / (1.0 - nodes.size * eps)
        bound = gamma * float(np.sum(np.abs(weights * full)))
        assert abs(grid.integrate(full[inside]) - float(np.dot(full, weights))) <= bound


def _fixed_break(breaks_of, j, hi):
    """hi moved onto break j of ``breaks_of(hi)``, by iterating hi -> breaks_of(hi)[j] (a contraction)."""
    for _ in range(200):
        hi, last = float(breaks_of(hi)[j]), hi
        if hi == last:
            break
    return hi


@st.composite
def _layouts(draw):
    """A spec, a support and a refine level; lo = 0, lo on a break and hi on an inner break each come up."""
    spec = QuadratureSpec(panels=draw(st.integers(1, 32)), nodes_per_panel=draw(st.integers(1, 16)))
    refine = draw(st.integers(0, 3))
    panels = spec.panels * 2**refine
    hi = draw(st.floats(1e-3, 50.0))
    graded = lambda hi: _graded_breaks(panels, hi + 1.0)
    if panels > 1 and draw(st.booleans()):
        j = draw(st.integers(1, panels - 1))
        hi = _fixed_break(graded, j, hi)
        assume(graded(hi)[j] == hi)
    inner = graded(hi)[graded(hi) < hi]
    lo = draw(st.one_of(st.just(0.0), st.sampled_from(list(inner)), st.floats(0.0, hi, exclude_max=True)))
    return spec, (float(lo), hi), refine


# hi on the last inner break of 4 graded panels
_HI_ON_BREAK = _fixed_break(lambda hi: _graded_breaks(4, hi + 1.0), 3, 1.0)


@settings(max_examples=150, deadline=None)
@given(_layouts())
@example((QuadratureSpec(panels=1, nodes_per_panel=5), (0.5, 2.0), 0))
@example((QuadratureSpec(panels=2, nodes_per_panel=5), (0.5, 2.0), 0))
@example((QuadratureSpec(panels=4, nodes_per_panel=3), (0.5 * _HI_ON_BREAK, _HI_ON_BREAK), 0))
@example((QuadratureSpec(), Bump(1.0, 1e-13).support, 0))  # inside one panel: the grid is empty
def test_support_grid_integral_matches_full_rule_on_drawn_layouts(layout):
    spec, (lo, hi), refine = layout
    grid = build_grid(spec, (lo, hi), refine)
    nodes, weights = _full_rule(spec, (lo, hi), refine)
    # the grid is the run of the full rule strictly inside the support, node for node and weight for weight
    inside = (nodes > lo) & (nodes < hi)
    assert np.array_equal(grid.nodes, nodes[inside]) and np.array_equal(grid.weights, weights[inside])
    assert _laid_out(spec, (lo, hi), refine) == [_meeting_panels(spec, (lo, hi), refine)]
    # a function that vanishes off the support: the two sums of the same products differ by rounding
    # alone, gamma_n * sum |w_i f_i|
    full = np.clip((nodes - lo) * (hi - nodes), 0.0, None) ** 2 * np.sinh(nodes) ** 4
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
