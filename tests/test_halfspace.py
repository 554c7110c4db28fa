"""Half-space corollaries: distance, margins against a trapezoid oracle, pf identities."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from poincare_hardy import (
    Bump,
    HalfspacePoint,
    HypothesisError,
    PlaneQuadratureSpec,
    SeparableTestFunction,
    check_pf1,
    check_pf2,
    geodesic_distance,
    halfspace_constants,
    halfspace_suite,
    margin_halfspace,
    margin_hardy_mazya,
)
from poincare_hardy import halfspace
from poincare_hardy.halfspace import (
    _FIELD_BLOCK,
    _PlaneTable,
    _field_integrals,
    _plane_integrals,
    build_plane_grid,
    converge_plane_terms,
)

from _oracles import POLE0_RELLICH1_N5, central_diff, trapezoid_plane


def test_geodesic_distance_examples():
    assert geodesic_distance(HalfspacePoint(0.0, 1.0)) == 0.0
    assert abs(geodesic_distance(HalfspacePoint(0.0, math.e)) - 1.0) < 1e-12
    # straight down the y-axis the distance is exactly -log y
    d3 = geodesic_distance(HalfspacePoint(0.0, 1e-3))
    d6 = geodesic_distance(HalfspacePoint(0.0, 1e-6))
    assert abs(d3 + math.log(1e-3)) <= abs(d6 + math.log(1e-6)) + 1e-12
    assert abs(d6 + math.log(1e-6)) < 1e-9
    with pytest.raises(HypothesisError, match="y > 0"):
        HalfspacePoint(0.0, 0.0)


def test_separable_member_guards():
    with pytest.raises(ValueError, match="away from y = 0"):
        SeparableTestFunction(Bump(0.0, 1.0), Bump(0.5, 0.6))
    v = SeparableTestFunction(Bump(0.0, 1.0), Bump(3.0, 1.0))
    assert v.box == (1.0, 2.0, 4.0)
    assert "|" in v.id


def test_plane_grid_tensor_product():
    grid = build_plane_grid(PlaneQuadratureSpec(panels=4, nodes_per_panel=8), (2.0, 1.0, 3.0))
    vals = np.multiply.outer(grid.rho, grid.y)
    # int_0^2 rho drho * int_1^3 y dy = 2 * 4
    assert abs(grid.integrate(vals) - 8.0) < 1e-12


def test_converge_plane_terms_floors_errors():
    spec = PlaneQuadratureSpec()

    def fn(grid):
        return {"v": grid.integrate(np.ones((grid.rho.size, grid.y.size)))}

    values, errors = converge_plane_terms(fn, spec, (1.0, 1.0, 2.0))
    assert abs(values["v"] - 1.0) < 1e-12
    assert errors["v"] >= np.spacing(1.0)


def test_euclid_laplacian_matches_differences():
    v = SeparableTestFunction(Bump(1.5, 0.5), Bump(1.0, 0.5))
    N = 5
    rho = np.linspace(1.1, 1.9, 7)
    y = np.linspace(0.6, 1.4, 5)
    t = _PlaneTable(v, N, rho, y)
    got = np.multiply.outer(t.lap_x, t.q) + np.multiply.outer(t.p, t.q2)
    phi, psi = v.phi, v.psi
    phi_dd = central_diff(lambda x: phi.jet(x, 1).derivative(1), rho)
    phi_d = central_diff(phi, rho)
    psi_dd = central_diff(lambda x: psi.jet(x, 1).derivative(1), y)
    want = np.multiply.outer(phi_dd + (N - 2) * phi_d / rho, psi(y)) + np.multiply.outer(
        phi(rho), psi_dd
    )
    assert np.max(np.abs(got - want)) / np.max(np.abs(got)) < 1e-5


def _tensor_terms(which, v, N, grid, alpha=None):
    """Every term of ``which`` on one grid as the full 2-D integrand: outer products times rho^{N-2}."""
    outer = np.multiply.outer
    pj, qj = v.phi.jet(grid.rho, 2), v.psi.jet(grid.y, 2)
    vv = outer(pj.value(), qj.value())
    v_rho = outer(pj.derivative(1), qj.value())
    v_y = outer(pj.value(), qj.derivative(1))
    lap_x = pj.derivative(2) + (N - 2) * pj.derivative(1) / grid.rho
    lap = outer(lap_x, qj.value()) + outer(pj.value(), qj.derivative(2))
    grad_sq = v_rho**2 + v_y**2
    y = np.broadcast_to(grid.y, vv.shape)
    d2 = np.arccosh(1.0 + ((grid.y[None, :] - 1.0) ** 2 + grid.rho[:, None] ** 2) / (2.0 * grid.y[None, :])) ** 2
    if which == "rellich1":
        f = {"lap2_y2": y**2 * lap**2, "grad": grad_sq, "y2": vv**2 / y**2}
        f.update(d2=vv**2 / (y**2 * d2), d4=vv**2 / (y**2 * d2**2))
    elif which == "rellich2":
        f = {"lap2": lap**2, "grad_y2": grad_sq / y**2, "y4": vv**2 / y**4}
        f.update(d2=vv**2 / (y**4 * d2), d4=vv**2 / (y**4 * d2**2))
    elif which == "hardy_mazya":
        f = {"grad": grad_sq, "y2": vv**2 / y**2}
    else:
        u_y = alpha * y ** (alpha - 1.0) * vv + y**alpha * v_y
        f = {
            "lhs": y ** (2.0 - N) * ((y**alpha * v_rho) ** 2 + u_y**2),
            "grad_v": y ** (2.0 * alpha + 2.0 - N) * grad_sq,
            "v2": y ** (2.0 * alpha - N) * vv**2,
        }
    rho_pow = grid.rho ** (N - 2)
    return {key: grid.integrate(values * rho_pow[:, None]) for key, values in f.items()}


@pytest.mark.parametrize("which", ["rellich1", "rellich2", "hardy_mazya", "pf1"])
@pytest.mark.parametrize("suite", ["standard", "pole"])
def test_separable_terms_match_tensor_integrand(which, suite, monkeypatch):
    # capture the per-grid terms at refine 0 and 1: the Fubini terms and, in
    # their own doubling loop, the distance-field terms, merged per grid
    seen = {}

    def two_grids(fn, spec, box):
        for refine in (0, 1):
            grid = build_plane_grid(spec, box, refine)
            out = fn(grid)
            seen.setdefault(refine, (grid, {}))[1].update(out)
        return out, {key: 0.0 for key in out}

    monkeypatch.setattr(halfspace, "converge_plane_terms", two_grids)
    v, N, alpha = halfspace_suite(suite)[0], 5, 1.25
    if which == "pf1":
        check_pf1(v, alpha, N)
    elif which == "hardy_mazya":
        margin_hardy_mazya(v, N)
    else:
        margin_halfspace(which, v, N)
    assert len(seen) == 2
    for grid, got in seen.values():
        want = _tensor_terms(which, v, N, grid, alpha)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-13 * abs(value), (grid.rho.size, key)


def _dense_inverse_distance_sq(rho, y):
    # d^-2 on the whole tensor grid, with d = arccosh(1 + ((y - 1)^2 + rho^2)/(2y))
    return 1.0 / np.arccosh(1.0 + np.add.outer(rho**2, (y - 1.0) ** 2) / (2.0 * y)) ** 2


def _field_weights(t, grid, N):
    # the kernel's rows phi^2 rho^{N-2} and its columns psi^2 y^-2 (rellich1) and psi^2 y^-4 (rellich2)
    return t.p**2 * grid.rho ** (N - 2), np.stack([t.q**2 * grid.y**-2.0, t.q**2 * grid.y**-4.0], axis=1)


@pytest.mark.parametrize("suite", ["standard", "pole"])
def test_field_kernel_matches_dense_contraction(suite):
    # the blocked per-row sums, over the rows and columns of nonzero weight, against the whole field at once
    N, spec = 5, PlaneQuadratureSpec()
    for v in halfspace_suite(suite):
        for refine in (0, 1):
            grid = build_plane_grid(spec, v.box, refine)
            rows, cols = _field_weights(_PlaneTable(v, N, grid.rho, grid.y), grid, N)
            field = _dense_inverse_distance_sq(grid.rho, grid.y)
            want = [[grid.integrate(f, rows, col) for col in cols.T] for f in (field, field * field)]
            kept_rows, kept_cols = np.count_nonzero(grid.wr * rows), np.count_nonzero(grid.wy * cols[:, 0])
            # the default block, a block shorter than one row, and a block of
            # whole rows that does not divide the rows kept
            step = next(k for k in (7, 5, 3) if kept_rows % k)
            for block in (_FIELD_BLOCK, kept_cols // 2, step * kept_cols):
                keep_r, *sums = _field_integrals(grid, rows, cols, block)
                wr = (grid.wr * rows)[keep_r]
                for got, want_cols in zip(sums, want):
                    for j, w in enumerate(want_cols):
                        assert abs(wr @ got[:, j] - w) <= 1e-14 * abs(w), (v.id, refine, block, j)


def test_field_loop_stops_before_the_1d_terms(monkeypatch):
    # lap2_y2 of this member needs a 1024^2 grid; the distance field has converged at 512^2
    grids, fields = [], []

    def recorded(spec, box, refine=0):
        grid = build_plane_grid(spec, box, refine)
        grids.append(grid.rho.size)
        return grid

    def counted(grid, rows, cols, *args):
        fields.append(np.count_nonzero(grid.wy * cols[:, 0]))  # the columns every block of this field has
        return _field_integrals(grid, rows, cols, *args)

    monkeypatch.setattr(halfspace, "build_plane_grid", recorded)
    monkeypatch.setattr(halfspace, "_field_integrals", counted)
    v = next(v for v in halfspace_suite("standard") if v.id == "bump_c1.5_w0.5_p0|bump_c1.0_w0.5_p0")
    assert margin_halfspace("rellich1", v, 5).verdict
    # the field loop runs first and stops at 512^2; then the 1-D loop reaches 1024^2
    assert grids == [256, 512, 256, 512, 1024]
    assert 256 < max(fields) <= 512


@pytest.mark.parametrize("suite", ["standard", "pole"])
def test_one_field_per_member_and_grid_serves_both_weights_and_every_n(suite, clear_caches, monkeypatch):
    # the per-row sums of the field do not depend on N or on the weight y^-2 / y^-4: in either order the
    # four margins build each (member, grid level) field once, and every report is the same bit for bit
    built = []

    def counted(grid, rows, cols, *args):
        built.append((grid.rho.size, rows.tobytes(), cols.tobytes()))  # one grid level of one member
        return _field_integrals(grid, rows, cols, *args)

    monkeypatch.setattr(halfspace, "_field_integrals", counted)
    members = halfspace_suite(suite)
    calls = [(which, N) for N in (5, 6) for which in ("rellich1", "rellich2")]
    reports, fields = [], []
    for order in (calls, calls[::-1]):
        clear_caches()
        built.clear()
        reports.append({(w, N, v.id): repr(margin_halfspace(w, v, N).to_dict()) for w, N in order for v in members})
        assert len(set(built)) == len(built) >= 2 * len(members), order
        fields.append(set(built))
    assert reports[0] == reports[1]
    assert fields[0] == fields[1]


def test_members_on_one_box_share_grids_not_fields(clear_caches):
    # the memo is keyed by the member: a second member on the same grids builds its own field and jets
    a = SeparableTestFunction(Bump(0.0, 1.0), Bump(2.0, 1.0))
    b = SeparableTestFunction(Bump(0.0, 1.0, 2), Bump(2.0, 1.0, 2))
    assert a.box == b.box
    margin_halfspace("rellich1", a, 5)
    after_a = margin_halfspace("rellich1", b, 5).to_dict()
    clear_caches()
    assert repr(after_a) == repr(margin_halfspace("rellich1", b, 5).to_dict())


def test_a_failed_field_is_not_memoised(clear_caches, monkeypatch):
    # a MemoryError inside the kernel stores no field, so the next call builds it and gets the fresh result
    v, grids = halfspace_suite("standard")[0], []
    build, kernel = halfspace.build_plane_grid, halfspace._field_integrals

    def out_of_memory(*args):
        raise MemoryError("no room for the field")

    monkeypatch.setattr(halfspace, "build_plane_grid", lambda *args: grids.append(build(*args)) or grids[-1])
    monkeypatch.setattr(halfspace, "_field_integrals", out_of_memory)
    with pytest.raises(MemoryError):
        margin_halfspace("rellich1", v, 5)
    assert grids and not any(key[1] == "field" for grid in grids for key in grid._terms)
    monkeypatch.setattr(halfspace, "_field_integrals", kernel)
    again = margin_halfspace("rellich1", v, 5).to_dict()
    clear_caches()
    assert repr(again) == repr(margin_halfspace("rellich1", v, 5).to_dict())


def test_field_kernel_holds_one_block_at_a_time():
    # one reused block buffer plus the per-row sums and factors and the per-column factors, never a fresh block
    N, spec, v = 5, PlaneQuadratureSpec(), halfspace_suite("pole")[0]
    for refine in (1, 2):
        grid = build_plane_grid(spec, v.box, refine)
        rows, cols = _field_weights(_PlaneTable(v, N, grid.rho, grid.y), grid, N)
        tracemalloc.start()
        try:
            _field_integrals(grid, rows, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * _FIELD_BLOCK * 8, (grid.rho.size, peak)


def test_field_terms_match_mpmath_oracle():
    # pole member 0, rellich1 (y^-2), N = 5: the distance d vanishes at the pole (0, 1), inside the box
    v = halfspace_suite("pole")[0]
    vals, errs = _plane_integrals(v, 5, None, {}, y_power=2.0)
    for key, ref in POLE0_RELLICH1_N5.items():
        with mpmath.workdps(20):
            true_error = float(abs(mpmath.mpf(vals[key]) - mpmath.mpf(ref)))
        # the error floor is one ulp, and the sums over the grid round by a few more
        assert true_error <= errs[key] + 4 * np.spacing(abs(vals[key])), (key, true_error, errs[key])


def test_rellich1_terms_match_trapezoid_oracle():
    v = SeparableTestFunction(Bump(1.5, 0.5), Bump(1.0, 0.5))
    N = 5
    report = margin_halfspace("rellich1", v, N)
    consts = {k: float(c) for k, c in halfspace_constants("rellich1", N).items()}
    phi, psi = v.phi, v.psi

    def make_integrand(key):
        def integrand(rho, y):
            pj = phi.jet(rho[:, 0], 2)
            qj = psi.jet(y[0, :], 2)
            vv = np.multiply.outer(pj.value(), qj.value())
            flat = rho ** (N - 2)
            if key == "grad":
                v_rho = np.multiply.outer(pj.derivative(1), qj.value())
                v_y = np.multiply.outer(pj.value(), qj.derivative(1))
                return (v_rho**2 + v_y**2) * flat
            if key == "lap2_y2":
                lap = np.multiply.outer(
                    pj.derivative(2) + (N - 2) * pj.derivative(1) / rho[:, 0], qj.value()
                ) + np.multiply.outer(pj.value(), qj.derivative(2))
                return y**2 * lap**2 * flat
            if key == "y2":
                return vv**2 / y**2 * flat
            # near the pole (0, 1) the distance vanishes; vv is zero there, so
            # guard the 0/0 rather than the product
            d2 = np.arccosh(1.0 + ((y - 1.0) ** 2 + rho**2) / (2.0 * y)) ** 2
            safe = np.where(d2 > 0.0, d2, 1.0)
            if key == "d2":
                return np.where(vv == 0.0, 0.0, vv**2 / (y**2 * safe) * flat)
            return np.where(vv == 0.0, 0.0, vv**2 / (y**2 * safe**2) * flat)

        return integrand

    signs = {
        "lap2_y2": 1.0,
        "grad": consts["grad"],
        "y2": -consts["y2"],
        "d2": -consts["d2"],
        "d4": -consts["d4"],
    }
    rho_hi, y_lo, y_hi = v.box
    for key, sign in signs.items():
        val = trapezoid_plane(make_integrand(key), rho_hi, y_lo, y_hi, 2001, 2001)
        got = report.terms[key]
        assert abs(got - sign * val) / abs(got) < 1e-5, key


@pytest.mark.parametrize("which", ["rellich1", "rellich2"])
def test_halfspace_margins_standard_suite(which):
    for v in halfspace_suite("standard"):
        for N in (5, 8):
            report = margin_halfspace(which, v, N)
            assert report.margin >= -1e-7 * report.scale
            assert report.verdict, (v.id, N, report.noise)


def test_halfspace_margins_pole_suite():
    # members vanishing at the pole keep the distance-weighted integrands finite
    for v in halfspace_suite("pole"):
        report = margin_halfspace("rellich1", v, 5)
        assert np.isfinite(report.margin)
        assert report.verdict


def test_hardy_mazya_margins():
    for v in halfspace_suite("standard"):
        report = margin_hardy_mazya(v, 5)
        assert report.case == "hardy_mazya"
        assert report.margin > 0.0
        assert report.verdict


@pytest.mark.parametrize("N", [5, 6])
def test_pf1_pf2_residuals(N):
    for v in halfspace_suite("standard")[:3]:
        for alpha in ((N - 2) / 2.0, (N - 4) / 2.0):
            r1 = check_pf1(v, alpha, N)
            r2 = check_pf2(v, alpha, N)
            assert r1.max_rel_residual < 1e-8, (v.id, alpha)
            assert r2.max_rel_residual < 1e-8, (v.id, alpha)


@pytest.mark.parametrize("N", [1, 0, -2])
def test_plane_reductions_refuse_dimensions_below_two(N):
    # (rho, y) = (|x|, y) needs x in R^{N-1}; below N = 2, rho^{N-2} drho is not integrable at 0
    v = halfspace_suite("standard")[0]
    for check in (lambda: margin_hardy_mazya(v, N), lambda: check_pf1(v, 0.5, N), lambda: check_pf2(v, 0.5, N)):
        with pytest.raises(HypothesisError, match=r"requires N >= 2"):
            check()


def test_hardy_mazya_holds_at_n2():
    for v in halfspace_suite("standard"):
        assert margin_hardy_mazya(v, 2).verdict


def test_pf2_middle_power_regression():
    # with the conformal weight alpha = (N-2)/2 the middle term vanishes and the
    # two readings coincide; one step down they differ by O(1), pinning the
    # alpha+1 exponent
    v, N = halfspace_suite("standard")[0], 5
    coincides = check_pf2(v, (N - 2) / 2.0, N)
    differs = check_pf2(v, (N - 4) / 2.0, N)
    assert coincides.details["flat_middle_max_rel"] < 1e-12
    assert differs.details["flat_middle_max_rel"] > 1e-3
    assert differs.max_rel_residual < 1e-12
