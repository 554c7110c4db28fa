"""Test profiles: supports, closed-form values, jets at edges, suite loading."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincare_hardy import Bump, Cutoff, ExpDecay, Product, Scaled, SmoothWindow
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
