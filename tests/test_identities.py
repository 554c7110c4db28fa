"""Substitution identities and the one-dimensional lemmas.

The estimate2 sign regression pins the corrected reading: with the
flattening substitution v = sinh^{(N-1)/2} d, integrating coth v v' by parts
forces plus signs on both right-hand constants and a mode term
((N-1)^2/4) lambda_n int v^2/sinh^2; the variant with minus signs and no mode
term misses by an O(1) relative residual even on smooth members.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from poincare_hardy import (
    Bump,
    HypothesisError,
    QuadratureSpec,
    Scaled,
    SeparableTestFunction,
    check_pf1,
    check_pf2,
    identities,
    load_suite,
    operators,
    quadrature,
    verify,
)
from poincare_hardy.cli import main
from poincare_hardy.identities import (
    check_1d_lemmas,
    check_estimate1,
    check_estimate2,
    check_ph1,
    check_trans1,
    identity_sample_points,
    mode_margin_decomposition,
)
from poincare_hardy.jets import coth, coth_jet
from poincare_hardy.operators import laplace_of_jet, to_v_transform
from poincare_hardy.quadrature import build_grid
from poincare_hardy.reports import MarginReport


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


@pytest.mark.parametrize(
    "check",
    [check_ph1, check_trans1, lambda u, N: check_estimate1(u, 0, N), lambda u, N: check_estimate2(u, 0, N)],
    ids=["ph1", "trans1", "estimate1", "estimate2"],
)
def test_identities_refuse_dimensions_below_one(check):
    u = load_suite("standard")[0]
    for N in (0, -3):
        with pytest.raises(HypothesisError, match=r"requires N >= 1"):
            check(u, N)


def test_pointwise_identities_hold_at_n1():
    # H^1 is the half-line under dr: v = u, and both identities reduce to u'^2 and u''
    for u in load_suite("standard")[:4]:
        assert check_ph1(u, 1).verdict
        assert check_trans1(u, 1).verdict


@pytest.mark.parametrize("n", [0, 1, 2])
def test_estimate_identities(n):
    u = Bump(2.0, 1.0, 0)
    for N in (5, 7, 9):
        r1 = check_estimate1(u, n, N)
        r2 = check_estimate2(u, n, N)
        assert r1.verdict and r2.verdict
        assert r1.max_rel_residual < 1e-12
        assert r2.max_rel_residual < 1e-12


def test_mode_integrals_are_taken_once_per_grid_for_both_estimates_and_modes(monkeypatch, clear_caches):
    # the raw v-side integrals depend on neither n nor the estimate, so each grid integrates
    # the family once and all four reports read it from the grid's memo
    grids = []
    integrate = quadrature.Grid.integrate
    monkeypatch.setattr(quadrature.Grid, "integrate", lambda self, *args: grids.append(id(self)) or integrate(self, *args))
    u = Bump(2.0, 1.0, 1)
    assert check_estimate1(u, 0, 7).verdict
    once = len(grids)
    clear_caches()
    grids.clear()
    for n in (0, 2):
        assert check_estimate1(u, n, 7).verdict
        assert check_estimate2(u, n, 7).verdict
    assert len(grids) == once > 0
    assert set(Counter(grids).values()) == {len(identities._RAW)}


def test_1d_lemmas_integrate_only_their_terms_and_leave_the_family_whole(monkeypatch):
    # hardy1d reads 7 raw integrals per grid; estimate1 at N = 1 on the same grids still gets all of them
    grids = []
    integrate = quadrature.Grid.integrate
    monkeypatch.setattr(quadrature.Grid, "integrate", lambda self, *args: grids.append(id(self)) or integrate(self, *args))
    assert main(["verify", "--case", "hardy1d", "--format", "json"]) == 0
    assert grids and set(Counter(grids).values()) == {7}
    grids.clear()
    assert main(["identity", "--which", "estimate1", "--N", "1", "--n", "2", "--format", "json"]) == 0
    assert grids and set(Counter(grids).values()) == {len(identities._RAW)}


def test_estimates_of_every_dimension_read_one_profile_jet_per_grid(monkeypatch):
    # v = sinh^{(N-1)/2} d depends on N, d's jet does not: N = 5, 7 and 9 share it on each grid
    sizes = []
    jet = Bump.jet
    monkeypatch.setattr(Bump, "jet", lambda self, r, order: sizes.append(np.size(r)) or jet(self, r, order))
    u = Bump(2.0, 1.0, 1)
    for N in (5, 7, 9):
        assert check_estimate1(u, 0, N).verdict
    assert sizes and len(sizes) == len(set(sizes)), sizes


@pytest.mark.parametrize("N", [1, 2, 3, 5, 9])
def test_raw_integrals_agree_with_the_v_jet_route(N):
    # the raw family takes v, v', v'' over s = sinh^{(N-1)/2} r under the measure s^2; the reference
    # builds v's jet with to_v_transform and integrates under dr.  On one grid the two sums differ
    # by rounding only, within gamma_n * sum |w_i f_i| (Higham, Accuracy and Stability of Numerical
    # Algorithms, 3.1); at N = 1, where s = 1, they are the same floats
    spec = QuadratureSpec(max_doublings=0)  # the loop stops at the grid both routes integrate on
    unit = np.finfo(float).eps / 2
    for d in load_suite("standard") + load_suite("origin"):
        grid = build_grid(spec, d.support)
        gamma = grid.nodes.size * unit / (1 - grid.nodes.size * unit)
        vals, _ = identities._mode_raw_integrals(d, N, spec)
        w = to_v_transform(d.jet(grid.nodes, 2), N, grid.nodes)
        t = SimpleNamespace(v=w.value(), dv=w.derivative(1), ddv=w.derivative(2), coth=coth(grid.nodes))
        for key, (integrand, weight) in identities._RAW.items():
            old = integrand(t)
            if N == 1:
                assert vals[key] == grid.integrate(old, weight), (d.id, key)
            else:
                bound = gamma * grid.integrate(np.abs(old), weight)
                assert abs(vals[key] - grid.integrate(old, weight)) <= bound, (d.id, N, key)


def test_estimates_build_no_jet_of_the_sinh_power(monkeypatch, capsys):
    calls = []
    for module, name in ((identities, "to_v_transform"), (operators, "sinh_jet")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    assert main(["identity", "--which", "estimate1", "--N", "5"]) == 0
    assert calls == []
    # the pointwise check still builds v's jet, so the wrappers do count
    assert main(["identity", "--which", "ph1", "--N", "5"]) == 0
    assert set(calls) == {"to_v_transform", "sinh_jet"}


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
    grid = build_grid(spec, d.support, refine=2)
    w = to_v_transform(d.jet(grid.nodes, 1), N, grid.nodes)
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


# the lemmas as verifier tables {case: {term: (k, weight, coef)}} at N = 1, where the Laplacian is u''
_VERIFIER_LEMMAS = {
    "hardy1d_sinh": {"grad_sinh2": (1, "inv_sinh2", 1), "sinh4": (0, "inv_sinh4", -2.25), "sinh2": (0, "inv_sinh2", -1)},
    "hardy1d_hardy": {"grad": (1, "one", 1), "r2": (0, "inv_r2", -0.25)},
    "hardy1d_rellich": {"lap2": (2, "one", 1), "r4": (0, "inv_r4", -0.5625)},
}


@pytest.mark.parametrize(
    "spec", [QuadratureSpec(), QuadratureSpec(panels=4, nodes_per_panel=16, max_doublings=2)], ids=["default", "coarse"]
)
@pytest.mark.parametrize("name", ["standard", "origin"])
def test_1d_lemmas_read_the_v_family_at_n1_bit_for_bit_with_the_verifier_route(name, spec, monkeypatch):
    # at N = 1, v = u and the measure is dr: the raw family holds the verifier's N = 1 terms, and no tower is built
    suite = load_suite(name)
    builds = []
    init = operators.RadialTable.__init__
    monkeypatch.setattr(operators.RadialTable, "__init__", lambda self, *args: builds.append(args) or init(self, *args))
    reports = [check_1d_lemmas(u, spec, suite=suite) for u in suite]
    assert builds == []
    terms = {key: (k, weight) for table in _VERIFIER_LEMMAS.values() for key, (k, weight, _) in table.items()}
    for u, got in zip(suite, reports):
        vals, errs = verify._integrals(u, 1, spec, terms)
        want = [
            MarginReport.from_integrals(case, u.id, None, vals, errs, {key: c for key, (_, _, c) in table.items()}, 1e-8)
            for case, table in _VERIFIER_LEMMAS.items()
        ]
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want], u.id


def test_the_laplacian_at_n1_is_the_second_derivative_past_coth_overflow():
    # coth's jet is finite past r = 710, so (N - 1) coth u' is +-0 at N = 1 and adds nothing
    for u in (Bump(2.0, 1.0, 1), Bump(800.0, 1.0)):
        r = build_grid(QuadratureSpec(), u.support).nodes
        ujet = u.jet(r, 5)
        assert np.array_equal(laplace_of_jet(ujet, coth_jet(r, 5), 1).coef, ujet.shift().shift().coef)
    assert r.min() > 710.0


def test_only_the_estimates_whose_sides_are_the_same_integrals_are_refused(monkeypatch):
    class Integrated(Exception):
        pass

    def integrate(*args):
        raise Integrated

    monkeypatch.setattr(identities, "_mode_raw_integrals", integrate)
    refused = set()
    for which, check in (("estimate1", check_estimate1), ("estimate2", check_estimate2)):
        for N in range(1, 21):
            for n in range(5):
                try:
                    check(Bump(2.0, 1.0), n, N)
                except HypothesisError:
                    refused.add((which, N, n))
                except Integrated:
                    pass
    assert refused == {("estimate1", 1, 0), ("estimate1", 1, 1), *(("estimate2", 1, n) for n in range(5))}


def test_1d_lemmas_need_compact_support():
    from poincare_hardy import ExpDecay

    with pytest.raises(ValueError):
        check_1d_lemmas(ExpDecay(2.0))


def test_1d_lemmas_on_a_support_past_coth_overflow():
    # cosh and sinh overflow past r = 710, but coth's jet stays finite there, and the lemmas read it at N = 1
    reports = check_1d_lemmas(Bump(400.0, 330.0))
    assert [r.case for r in reports] == ["hardy1d_sinh", "hardy1d_hardy", "hardy1d_rellich"]
    assert all(r.verdict for r in reports)


def test_1d_lemmas_past_sinh_overflow_refuse_quietly():
    # sinh r overflows past r = 710, so every 1/sinh weight reads 0: the sinh lemma
    # has nothing to certify, and no numpy warning may come before that refusal
    with pytest.raises(ValueError, match="vanishes on the quadrature grid"):
        check_1d_lemmas(Bump(705.0, 10.0))


@pytest.mark.parametrize("N", [5, 7, 9])
def test_mode_margin_decomposition(N):
    out = mode_margin_decomposition(Bump(2.0, 1.0, 0), N)
    assert out["residual_rel"] < 1e-12
    for key in ("slack_rellich", "slack_hardy", "slack_sinh", "r4", "r2", "sinh4", "sinh2"):
        assert out[key] >= 0.0
    assert out["margin_direct"] > 0.0
