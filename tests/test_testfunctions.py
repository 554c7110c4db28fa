"""Test profiles: supports, closed-form values, jets at edges, suite loading."""

import functools
import operator

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincare_hardy import Bump, Cutoff, ExpDecay, Product, Scaled, SmoothWindow
from poincare_hardy.jets import coth_jet, variable
from poincare_hardy.profiles import (
    halfspace_suite_names,
    load_halfspace_suite,
    load_suite,
    profile_from_descriptor,
    suite_names,
    suite_version,
)

from _oracles import bump_values, cutoff_values


def test_bump_matches_closed_form():
    u = Bump(2.0, 1.0, 1)
    r = np.linspace(0.0, 4.0, 801)
    np.testing.assert_allclose(u(r), bump_values(r, 2.0, 1.0, 1), atol=1e-300)
    assert u.support == (1.0, 3.0)
    assert u.id == "bump_c2.0_w1.0_p1"


def test_bump_vanishes_identically_outside():
    u = Bump(2.0, 1.0, 0)
    r = np.array([0.0, 0.5, 1.0, 3.0, 3.5])
    jet = u.jet(r, 4)
    assert np.all(jet.coef == 0.0)


def test_bump_support_clips_at_origin():
    assert Bump(0.0, 1.5, 0).support == (0.0, 1.5)


def test_bump_jet_smooth_up_to_edge():
    u = Bump(2.0, 1.0, 0)
    # approaching the support edge the function decays faster than any power
    r = np.array([2.9, 2.99, 2.999])
    jet = u.jet(r, 3)
    assert np.all(np.isfinite(jet.coef))
    assert np.all(np.abs(np.diff(u(r))) > 0)


# one member of every profile kind, Bumps with and without their r^p factor
_KINDS = [
    Bump(2.0, 1.0, 0),
    Bump(0.8, 0.8, 2),
    SmoothWindow(1.0, 3.0, 0.5),
    Cutoff(1.0, 2.5),
    ExpDecay(1.5),
    Scaled(Bump(1.5, 0.7, 2), -3.0),
    Product((Bump(2.0, 1.0, 1), Cutoff(2.0, 2.5))),
]


@pytest.mark.parametrize("jet", [u.jet for u in _KINDS] + [coth_jet], ids=[u.id for u in _KINDS] + ["coth"])
def test_jet_coefficients_do_not_depend_on_the_order(jet):
    # the verifier memoises integrals without the jet order they were taken at:
    # coefficient j must be the same float in a jet of any order >= j
    r = np.linspace(0.01, 3.6, 73)
    top = jet(r, 10).coef
    for m in range(10):
        assert np.array_equal(jet(r, m).coef, top[: m + 1])


def _series_bump(u: Bump, r: np.ndarray, order: int):
    """The jet of a Bump composed from series, t*t, reciprocal and exp: the route its ODE recurrence replaced."""
    rj = variable(r, order)
    t = (rj - u.center) * (1.0 / u.width)
    core = (-(-(t * t) + 1.0).reciprocal()).exp()
    if u.power:
        core = core * functools.reduce(operator.mul, [rj] * u.power)
    return core


@pytest.mark.parametrize("power", range(4))
@pytest.mark.parametrize("center, width", [(2.0, 1.0), (0.8, 0.8)])
def test_bump_recurrence_agrees_with_the_series_route(center, width, power):
    u = Bump(center, width, power)
    lo, hi = u.support
    r = np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 241)
    got, want = u.jet(r, 10).coef, _series_bump(u, r, 10).coef
    for k in range(11):
        assert np.max(np.abs(got[k] - want[k])) <= 1.5e-14 * np.max(np.abs(want[k])), k


@pytest.mark.parametrize("power", [1, 2, 3])
@pytest.mark.parametrize("suite", ["origin", "standard"])
def test_bump_power_shift_agrees_with_the_product_route(suite, power):
    # r^p f by p shift-and-add passes against p full products with the identity jet
    base = load_suite(suite)[0]
    core_profile = Bump(base.center, base.width, 0)
    u = Bump(base.center, base.width, power)
    lo, hi = u.support
    r = np.linspace(0.0, hi + 0.5, 301)
    outside = (r <= lo) | (r >= hi)
    assert outside.any() and not outside.all()
    for order in range(11):
        got = u.jet(r, order).coef
        want = (core_profile.jet(r, order) * functools.reduce(operator.mul, [variable(r, order)] * power)).coef
        for k in range(order + 1):
            assert np.max(np.abs(got[k] - want[k])) <= 1.5e-14 * np.max(np.abs(want[k])), (order, k)
        assert np.all(got[:, outside] == 0.0), order


@pytest.mark.parametrize("u", [Bump(2.0, 1.0, 0), Bump(0.8, 0.8, 2), Bump(1.5, 0.7, 3)], ids=lambda u: u.id)
def test_bump_derivatives_match_40_digit_differentiation(u):
    lo, hi = u.support
    points = [lo + f * (hi - lo) for f in (0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 0.95)]
    order = 6
    got = u.jet(np.array(points), order)
    with mpmath.workdps(40):
        c, w = mpmath.mpf(u.center), mpmath.mpf(u.width)

        def f(r):
            t = (r - c) / w
            return r**u.power * mpmath.exp(-1 / (1 - t * t))

        want = np.array([[float(d) for d in mpmath.diffs(f, mpmath.mpf(x), order)] for x in points]).T
    for k in range(order + 1):
        scale = np.max(np.abs(want[k]))
        assert np.max(np.abs(got.derivative(k) - want[k])) <= 1e-11 * scale, k


def test_window_flat_top_exact():
    w = SmoothWindow(2.0, 5.0, 1.0)
    r = np.linspace(3.0, 4.0, 11)
    np.testing.assert_array_equal(w(r), 1.0)
    jet = w.jet(r, 3)
    for j in range(1, jet.order + 1):
        assert np.all(jet.derivative(j) == 0.0)
    assert w(np.array([1.9]))[0] == 0.0 and w(np.array([5.1]))[0] == 0.0
    with pytest.raises(ValueError):
        SmoothWindow(2.0, 3.0, 1.0)


def test_cutoff_matches_closed_form():
    chi = Cutoff(1.0, 3.0)
    r = np.linspace(0.0, 3.5, 701)
    np.testing.assert_allclose(chi(r), cutoff_values(r, 1.0, 3.0), atol=1e-15)
    assert chi(np.array([0.2]))[0] == 1.0
    with pytest.raises(ValueError):
        Cutoff(3.0, 1.0)


def test_exp_decay_unbounded():
    u = ExpDecay(2.0)
    assert u.support is None
    r = np.linspace(0.0, 5.0, 21)
    np.testing.assert_allclose(u(r), np.exp(-2.0 * r), rtol=1e-14)


def test_scaled_and_product():
    base = Bump(2.0, 1.0, 0)
    s = Scaled(base, 3.0)
    r = np.linspace(1.0, 3.0, 21)
    np.testing.assert_allclose(s(r), 3.0 * base(r), rtol=1e-15)
    assert s.support == base.support
    p = Product((base, Cutoff(2.0, 4.0)))
    assert p.support == (1.0, 3.0)
    np.testing.assert_allclose(p(r), base(r) * Cutoff(2.0, 4.0)(r), rtol=1e-14)


def test_product_with_empty_support_is_rejected():
    # the identity checks would sample the reversed interval (2.8, 1.2), where
    # both sides vanish, and pass with residual 0
    for factors in ((Bump(1.0, 0.2), Bump(3.0, 0.2)), (Bump(1.0, 1.0), Bump(3.0, 1.0))):
        with pytest.raises(ValueError, match="empty support"):
            Product(factors)
    assert Product((ExpDecay(1.0), ExpDecay(2.0))).support is None


def test_bump_with_empty_support_is_rejected():
    # (max(c - w, 0), c + w) is empty, reversed, not finite, or collapses to one
    # float; the grid up to c + w + 1 would divide by zero or have no positive end
    inf = float("inf")
    bad = ((-1.0, 1.0), (-5.0, 1.0), (2.0, 0.0), (2.0, -1.0), (2.0, float("nan")), (float("nan"), 1.0))
    bad += ((inf, 1.0), (-inf, 1.0), (2.0, inf), (1e300, 1.0), (1e17, 1.0))
    for center, width in bad:
        with pytest.raises(ValueError, match="bump needs width > 0"):
            Bump(center, width)
    assert Bump(-0.5, 1.0).support == (0.0, 0.5)


def test_bump_power_must_be_a_nonnegative_int():
    # a negative power used to evaluate as p0 under the id of another function;
    # a fractional one failed deep inside the jet code
    for power in (-1, 1.5):
        with pytest.raises(ValueError, match="bump power"):
            Bump(2.0, 1.0, power)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.0, 4.0),
    st.floats(0.3, 2.0),
    st.integers(0, 3),
)
def test_bump_jets_finite_and_supported(center, width, power):
    u = Bump(center, width, power)
    r = np.linspace(0.0, center + width + 1.0, 57)
    jet = u.jet(r, 4)
    assert np.all(np.isfinite(jet.coef))
    lo, hi = u.support
    outside = (r < lo - 1e-9) | (r > hi + 1e-9)
    for j in range(jet.order + 1):
        assert np.all(jet.derivative(j)[outside] == 0.0)


def test_suite_loading():
    std = load_suite("standard")
    assert len(std) == 20
    ids = [u.id for u in std]
    assert len(set(ids)) == 20
    assert len(load_suite("origin")) == 6
    assert suite_version() == 1
    assert suite_names() == ("origin", "standard")
    with pytest.raises(ValueError, match="unknown suite"):
        load_suite("nonexistent")


def test_halfspace_suite_loading():
    std = load_halfspace_suite("standard")
    assert len(std) == 6
    for phi, psi in std:
        assert psi.support[0] > 0.0
    assert halfspace_suite_names() == ("pole", "standard")
    assert len(load_halfspace_suite("pole")) == 2
    with pytest.raises(ValueError):
        load_halfspace_suite("missing")


def test_every_suite_has_members():
    # a verify, identity or halfspace payload reads its tol from the first report
    for name in suite_names():
        assert load_suite(name)
    for name in halfspace_suite_names():
        assert load_halfspace_suite(name)


def test_descriptor_round_trip():
    u = profile_from_descriptor({"kind": "bump", "center": 1.5, "width": 0.5, "power": 2})
    assert u == Bump(1.5, 0.5, 2)
    w = profile_from_descriptor({"kind": "window", "lo": 2.0, "hi": 5.0, "ramp": 1.0})
    assert w == SmoothWindow(2.0, 5.0, 1.0)
    # Cutoff and ExpDecay are built in code only: no suite member may be one
    for kind in ("gaussian", "cutoff", "exp"):
        with pytest.raises(ValueError, match="unknown profile kind"):
            profile_from_descriptor({"kind": kind})
