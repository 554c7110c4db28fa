"""Truncated Taylor jets: arithmetic recurrences against analytic derivatives.

Derivative towers are validated level by level: derivative(j) of a jet of
order j is compared against a central difference of derivative(j-1) taken
from a fresh lower-order jet, so each level is one O(h^2) step away from an
exactly computed quantity instead of compounding difference noise.
"""

import operator
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincare_hardy import Bump
from poincare_hardy.jets import Jet, coth, coth_jet, sinh_jet, variable

from _oracles import central_diff


def test_variable_jet():
    r = np.array([0.5, 1.0, 2.0])
    j = variable(r, 3)
    assert np.array_equal(j.value(), r)
    assert np.array_equal(j.derivative(1), np.ones(3))
    assert np.array_equal(j.derivative(2), np.zeros(3))
    assert j.order == 3


def test_exp_jet_matches_closed_form():
    r = np.linspace(0.1, 3.0, 17)
    j = (variable(r, 5) * -2.0).exp()
    for k in range(6):
        np.testing.assert_allclose(j.derivative(k), (-2.0) ** k * np.exp(-2.0 * r), rtol=1e-13)


def test_sinh_cosh_jets():
    r = np.linspace(0.1, 4.0, 23)
    s = sinh_jet(r, 4)
    for j, want in enumerate([np.sinh(r), np.cosh(r)] * 2 + [np.sinh(r)]):
        np.testing.assert_allclose(s.derivative(j), want, rtol=1e-14)


def test_product_rule():
    r = np.linspace(0.2, 2.0, 9)
    p = sinh_jet(r, 3) * variable(r, 3)
    # (r sinh r)' = sinh r + r cosh r, '' = 2 cosh r + r sinh r
    np.testing.assert_allclose(p.derivative(1), np.sinh(r) + r * np.cosh(r), rtol=1e-13)
    np.testing.assert_allclose(p.derivative(2), 2.0 * np.cosh(r) + r * np.sinh(r), rtol=1e-13)


def test_reciprocal_inverts():
    r = np.linspace(0.3, 3.0, 11)
    x = variable(r, 4)
    j = (x.exp() + (-x).exp()) * 0.5
    np.testing.assert_allclose(j.value(), np.cosh(r), rtol=1e-14)
    one = j * j.reciprocal()
    np.testing.assert_allclose(one.value(), 1.0, rtol=1e-14)
    for k in range(1, 5):
        np.testing.assert_allclose(one.derivative(k), 0.0, atol=1e-10)


def test_power_jet():
    r = np.linspace(0.5, 2.0, 7)
    j = sinh_jet(r, 2).power(2.0)
    np.testing.assert_allclose(j.value(), np.sinh(r) ** 2, rtol=1e-13)
    np.testing.assert_allclose(j.derivative(1), 2.0 * np.sinh(r) * np.cosh(r), rtol=1e-13)


def test_truncate_drops_tail():
    r = np.linspace(0.5, 2.0, 7)
    j = sinh_jet(r, 5).truncate(2)
    assert j.order == 2
    np.testing.assert_allclose(j.derivative(2), np.sinh(r), rtol=1e-14)


def test_coth_jet_matches_ratio():
    r = np.linspace(0.2, 5.0, 31)
    j = coth_jet(r, 3)
    np.testing.assert_allclose(j.value(), 1.0 / np.tanh(r), rtol=1e-13)
    # coth' = 1 - coth^2
    np.testing.assert_allclose(j.derivative(1), 1.0 - (1.0 / np.tanh(r)) ** 2, rtol=1e-11, atol=1e-13)


def test_coth_series_switch_is_seamless():
    below, above = 0.9999e-3, 1.0001e-3
    for r in (below, above):
        got = coth(np.array([r]))[0]
        want = 1.0 / np.tanh(r)
        assert abs(got - want) / want < 1e-13
    # deep series regime against the Laurent expansion 1/r + r/3 - r^3/45
    r = np.array([1e-6])
    np.testing.assert_allclose(coth(r), 1.0 / r + r / 3.0 - r**3 / 45.0, rtol=1e-15)


def _mp_coth_coefficients(x: float, order: int) -> list:
    """coth's Taylor coefficients at x to 60 digits: the Riccati recurrence of coth_jet, run in mpmath."""
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        y = [mpmath.coth(x), -1 / mpmath.sinh(x) ** 2]
        for k in range(1, order):
            y.append(-mpmath.fsum(y[i] * y[k - i] for i in range(k + 1)) / (k + 1))
        return y[: order + 1]


def test_coth_jet_matches_a_60_digit_recurrence():
    r = np.concatenate([np.geomspace(1e-7, 40.0, 29), [0.3, 2.5, 17.0]])
    got = coth_jet(r, 10).coef
    for n, x in enumerate(r):
        want = _mp_coth_coefficients(float(x), 10)
        for k in range(11):
            assert abs(got[k, n] - float(want[k])) <= 1e-14 * abs(float(want[k])), (x, k)


def test_coth_jet_slope_keeps_full_precision_at_large_r():
    # 1 - coth^2 rounds to 0 or +-2e-16 here; the true slope is -1/sinh^2 r, about -7e-35 at r = 40
    r = np.array([20.0, 40.0, 300.0])
    got = coth_jet(r, 3).coef[1]
    with mpmath.workdps(60):
        want = np.array([float(-1 / mpmath.sinh(mpmath.mpf(x)) ** 2) for x in r])
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


def test_coth_jet_past_sinh_squared_overflow_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jet = coth_jet(np.array([400.0, 700.0]), 10)
    assert np.all(np.isfinite(jet.coef))
    np.testing.assert_array_equal(jet.value(), 1.0)


@pytest.mark.parametrize("r", [711.0, 1e3, 1e5, 1e15])
def test_coth_past_cosh_overflow_is_one_and_warns_nothing(r):
    # cosh and sinh overflow past r = 710, so cosh/sinh alone would be inf/inf = nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = coth(np.array([r, -r]))
        jet = coth_jet(np.array([r]), 6)
    np.testing.assert_array_equal(values, [1.0, -1.0])
    assert np.all(np.isfinite(jet.coef))
    assert jet.value()[0] == 1.0
    # y_1 = -(1/sinh r)^2 is the -0.0 it rounds to
    assert jet.coef[1, 0] == 0.0 and np.signbit(jet.coef[1, 0])


def test_coth_is_the_plain_ratio_wherever_that_is_finite():
    r = np.concatenate([np.geomspace(1e-9, 710.0, 401), [710.4, 710.475]])
    r = np.concatenate([r, -r])
    want = np.cosh(r) / np.sinh(r)
    assert np.all(np.isfinite(want))
    np.testing.assert_array_equal(coth(r), want)
    np.testing.assert_array_equal(coth_jet(r, 3).value(), want)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_bump_jet_levels_match_finite_differences(level):
    u = Bump(2.0, 1.0, 1)
    r = np.linspace(1.2, 2.8, 25)

    def lower(x):
        return u.jet(x, level - 1).derivative(level - 1)

    fd = central_diff(lower, r)
    exact = u.jet(r, level).derivative(level)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(fd - exact)) / scale < 1e-5


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=5),
    st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=5),
)
def test_product_rule_random_polynomials(pc, qc):
    r = np.linspace(-1.0, 1.0, 5)
    rj = variable(r, 4)

    def poly(coeffs):
        out = rj * 0.0 + coeffs[0]
        for c in coeffs[1:]:
            out = out * rj + c
        return out

    p, q = poly(pc), poly(qc)
    prod = p * q
    lhs = prod.derivative(1)
    rhs = p.derivative(1) * q.value() + p.value() * q.derivative(1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_jet_shapes_broadcast():
    r = np.linspace(0.5, 1.5, 6).reshape(2, 3)
    j = sinh_jet(r, 2)
    assert j.shape == (2, 3)
    assert j.value().shape == (2, 3)
    # a grid of lower rank broadcasts against the trailing grid axes, not the order axis
    row = sinh_jet(r[0], 2)
    for prod in (j * row, row * j):
        assert prod.shape == (2, 3)
        for i in range(2):
            assert np.array_equal(prod.value()[i], (sinh_jet(r[i], 2) * row).value())
            assert np.array_equal(prod.derivative(2)[i], (sinh_jet(r[i], 2) * row).derivative(2))


def test_jet_layout_ops_on_a_grid():
    r = np.linspace(0.5, 1.5, 6).reshape(2, 3)
    j = sinh_jet(r, 4)
    even, odd = np.sinh(r), np.cosh(r)
    for k in range(5):
        got = j.derivative(k)
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got, odd if k % 2 else even, rtol=1e-15)
    d = j.shift()
    assert (d.order, d.shape) == (3, (2, 3))
    for k in range(4):
        np.testing.assert_allclose(d.derivative(k), even if k % 2 else odd, rtol=1e-15)
    t = j.truncate(2)
    assert (t.order, t.shape) == (2, (2, 3))
    for k in range(3):
        assert np.array_equal(t.derivative(k), j.derivative(k))
    mask = np.array([[True, False, True], [False, True, False]])
    w = j.where(mask)
    assert (w.order, w.shape) == (4, (2, 3))
    for k in range(5):
        assert np.array_equal(w.derivative(k), np.where(mask, j.derivative(k), 0.0))
    v = j.with_value(-r)
    assert (v.order, v.shape) == (4, (2, 3))
    assert np.array_equal(v.value(), -r)
    for k in range(1, 5):
        assert np.array_equal(v.derivative(k), j.derivative(k))
    assert np.array_equal(j.value(), even)  # with_value copies


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_binary_ops_refuse_jets_of_different_orders(op):
    r = np.array([0.5])
    high, low = sinh_jet(r, 3), sinh_jet(r, 0)
    with pytest.raises(ValueError, match="jet orders differ: 3 and 0"):
        op(high, low)
    with pytest.raises(ValueError, match="jet orders differ: 0 and 3"):
        op(low, high)


# Plain-Python references for the series rules, one grid point at a time.  Each
# sum starts from 0.0 and adds its terms in ascending index order, as the jet
# kernels promise; w_{k,i} a_i is rounded before it meets out_{k-i}.  The
# order-0 coefficient comes from the same numpy call the kernel makes, so the
# comparison pins the summation, not the platform's exp or pow.


def _ref_mul(a, b):
    out = []
    for k in range(len(a)):
        acc = 0.0
        for i in range(k + 1):
            acc += a[i] * b[k - i]
        out.append(acc)
    return out


def _ref_recurrence(a, first, weight, finish):
    out = [first]
    for k in range(1, len(a)):
        acc = 0.0
        for i in range(1, k + 1):
            wa = a[i] if weight is None else weight(float(i), k) * a[i]
            acc += wa * out[k - i]
        out.append(finish(acc, k))
    return out


_ALPHA = -0.7


def _reference(name, a, b, coef):
    """Reference coefficients of op ``name`` at one point with jet coefficients a, b (lists)."""
    a0 = a[0]
    if name == "mul":
        return _ref_mul(a, b)
    if name == "reciprocal":
        inv0 = 1.0 / a0
        return _ref_recurrence(a, inv0, None, lambda acc, k: -inv0 * acc)
    if name == "exp":
        return _ref_recurrence(a, coef[0], lambda i, k: i, lambda acc, k: acc / k)
    return _ref_recurrence(a, coef[0], lambda i, k: i * (_ALPHA + 1.0) - k, lambda acc, k: acc / (k * a0))


@pytest.mark.parametrize("name", ["mul", "reciprocal", "exp", "power"])
def test_series_rules_equal_sequential_sums_bit_for_bit(name):
    rng = np.random.default_rng(20151)
    for order in range(11):
        ca = rng.standard_normal((order + 1, 2, 3))
        ca[0] = rng.uniform(0.5, 2.0, (2, 3))  # power and reciprocal need a positive value
        cb = rng.standard_normal((order + 1, 2, 3))
        a, b = Jet(ca), Jet(cb)
        got = {"mul": lambda: a * b, "reciprocal": a.reciprocal, "exp": a.exp, "power": lambda: a.power(_ALPHA)}[name]()
        assert (got.order, got.shape) == (order, (2, 3))
        want = np.empty_like(got.coef)
        for p in np.ndindex(2, 3):
            point = (slice(None),) + p
            want[point] = _reference(name, ca[point].tolist(), cb[point].tolist(), got.coef[point].tolist())
        assert np.array_equal(got.coef, want), f"order {order}"
