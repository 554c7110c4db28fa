"""Substitution identities and the one-dimensional lemmas.

The estimate2 sign regression pins the corrected reading: with the
flattening substitution v = sinh^{(N-1)/2} d, integrating coth v v' by parts
forces plus signs on both right-hand constants and a mode term
((N-1)^2/4) lambda_n int v^2/sinh^2; the variant with minus signs and no mode
term misses by an O(1) relative residual even on smooth members.
"""

import numpy as np
import pytest

from poincare_hardy import (
    Bump,
    QuadratureSpec,
    Scaled,
    SeparableTestFunction,
    check_pf1,
    check_pf2,
    identities,
    load_suite,
)
from poincare_hardy.identities import (
    check_1d_lemmas,
    check_estimate1,
    check_estimate2,
    check_ph1,
    check_trans1,
    identity_sample_points,
    mode_margin_decomposition,
)
from poincare_hardy.operators import to_v_transform
from poincare_hardy.quadrature import build_grid


def test_sample_points_inside_support():
    u = Bump(2.0, 1.0, 0)
    r = identity_sample_points(u, count=40)
    assert r.size == 40
    assert np.all(r > 1.0) and np.all(r < 3.0)


def test_sample_points_need_compact_support():
    from poincare_hardy import ExpDecay

    with pytest.raises(ValueError):
        identity_sample_points(ExpDecay(2.0))


@pytest.mark.parametrize("N", [5, 7, 9])
def test_ph1_pointwise(N):
    for u in load_suite("standard")[:4]:
        report = check_ph1(u, N)
        assert report.verdict
        assert report.max_rel_residual < 1e-12


@pytest.mark.parametrize("N", [5, 7, 9])
def test_trans1_pointwise(N):
    for u in load_suite("standard")[:4]:
        report = check_trans1(u, N)
        assert report.verdict
        assert report.max_rel_residual < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2])
def test_estimate_identities(n):
    u = Bump(2.0, 1.0, 0)
    for N in (5, 7, 9):
        r1 = check_estimate1(u, n, N)
        r2 = check_estimate2(u, n, N)
        assert r1.verdict and r2.verdict
        assert r1.max_rel_residual < 1e-12
        assert r2.max_rel_residual < 1e-12


def test_mode_integrals_converge_once_for_both_estimates_and_modes(monkeypatch):
    # the raw v-side integrals do not depend on n, so one doubling loop serves all four reports
    calls = []
    converge = identities.converge_terms
    monkeypatch.setattr(identities, "converge_terms", lambda *args: calls.append(args) or converge(*args))
    identities._mode_raw_integrals.cache_clear()
    u = Bump(2.0, 1.0, 1)
    for n in (0, 2):
        assert check_estimate1(u, n, 7).verdict
        assert check_estimate2(u, n, 7).verdict
    assert len(calls) == 1


def test_estimate1_residual_scale_invariant():
    u = Bump(2.0, 1.0, 1)
    base = check_estimate1(u, 1, 7)
    scaled = check_estimate1(Scaled(u, 37.0), 1, 7)
    # both sides are quadratic in d, so the relative residual is unchanged
    assert abs(scaled.max_rel_residual - base.max_rel_residual) < 1e-12


_ZERO = Scaled(Bump(2.0, 1.0, 1), 0.0)
_ZERO_PLANE = SeparableTestFunction(_ZERO, Bump(1.5, 0.5))


@pytest.mark.parametrize(
    "check",
    [
        lambda: check_ph1(_ZERO, 5),
        lambda: check_trans1(_ZERO, 5),
        lambda: check_estimate1(_ZERO, 1, 7),
        lambda: check_estimate2(_ZERO, 1, 7),
        lambda: check_pf1(_ZERO_PLANE, 1.5, 5),
        lambda: check_pf2(_ZERO_PLANE, 1.5, 5),
    ],
    ids=["ph1", "trans1", "estimate1", "estimate2", "pf1", "pf2"],
)
def test_identity_on_zero_function_is_rejected(check):
    # both sides are exactly 0, so a residual of 0 would certify nothing
    with pytest.raises(ValueError, match="identically 0"):
        check()


def test_estimate2_printed_sign_variant_fails():
    d, n, N = Bump(2.0, 1.0, 0), 1, 5
    spec = QuadratureSpec()
    grid = build_grid(spec, 4.0, refine=2)
    w = to_v_transform(d, N, grid.nodes, 1)
    v, dv = w.value(), w.derivative(1)
    inv_s2 = np.sinh(grid.nodes) ** -2.0
    c = 1.0 / np.tanh(grid.nodes)
    lam = float(n * n + (N - 2) * n)
    be2 = (N - 1) ** 2 / 4.0
    lhs = be2 * grid.integrate(dv**2 + lam * v**2 * inv_s2 + be2 * c**2 * v**2 - (N - 1) * c * v * dv)
    v2 = grid.integrate(v**2)
    v2_s2 = grid.integrate(v**2 * inv_s2)
    dv2 = grid.integrate(dv**2)
    rhs_corrected = be2 * dv2 + (N - 1) ** 4 / 16.0 * v2 + (be2 * lam + (N - 1) ** 3 * (N - 3) / 16.0) * v2_s2
    rhs_printed = be2 * dv2 - (N - 1) ** 4 / 16.0 * v2 - (N - 1) ** 3 * (N - 3) / 16.0 * v2_s2
    scale = max(abs(lhs), abs(rhs_corrected))
    assert abs(lhs - rhs_corrected) / scale < 1e-10
    assert abs(lhs - rhs_printed) / scale > 1e-2


def test_1d_lemmas_margins():
    for u in load_suite("standard")[:6]:
        for report in check_1d_lemmas(u):
            assert report.N is None
            assert report.verdict
            assert report.margin > 0.0


def test_1d_lemmas_need_compact_support():
    from poincare_hardy import ExpDecay

    with pytest.raises(ValueError):
        check_1d_lemmas(ExpDecay(2.0))


@pytest.mark.parametrize("N", [5, 7, 9])
def test_mode_margin_decomposition(N):
    out = mode_margin_decomposition(Bump(2.0, 1.0, 0), N)
    assert out["residual_rel"] < 1e-12
    for key in ("slack_rellich", "slack_hardy", "slack_sinh", "r4", "r2", "sinh4", "sinh2"):
        assert out[key] >= 0.0
    assert out["margin_direct"] > 0.0
