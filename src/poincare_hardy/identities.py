"""Verification of the substitution identities behind the mode reduction.

The ambient inequalities are proved by expanding a test function in spherical
modes and substituting v = sinh^{(N-1)/2} d for each radial part d, which
flattens the volume element.  This module checks the substitution identities
pointwise (two independent jet pipelines) and the two integral estimates that
the mode argument rests on, and exposes the slack decomposition that rebuilds
the n = 0 remainder from the three one-dimensional lemmas.
"""

from __future__ import annotations

from fractions import Fraction as F

import numpy as np

from .constants import anbn, lambda_n
from .jets import coth
from .profiles import RadialProfile
from .operators import laplace_radial, to_v_transform
from .quadrature import QuadratureSpec, _chebyshev, converge_terms
from .reports import IdentityResidualReport, MarginReport

__all__ = [
    "identity_sample_points",
    "check_ph1",
    "check_trans1",
    "check_estimate1",
    "check_estimate2",
    "check_1d_lemmas",
    "mode_margin_decomposition",
]


def identity_sample_points(u: RadialProfile, count: int = 50, margin: float = 0.01) -> np.ndarray:
    """Chebyshev points inside the support, excluding a relative margin at each end."""
    if u.support is None:
        raise ValueError("pointwise identity checks need a compactly supported profile")
    return _chebyshev(*u.support, count, margin)


def check_ph1(u: RadialProfile, N: int, count: int = 50, tol: float = 1e-10) -> IdentityResidualReport:
    """|grad u|^2 against its form in v = sinh^{(N-1)/2} u, pointwise.

    sinh^{N-1}(r) |grad u|^2 = (v')^2 + ((N-1)^2/4) coth^2(r) v^2
    - (N-1) coth(r) v v', checked on a Chebyshev grid with independent jet
    pipelines for the two sides.
    """
    r = identity_sample_points(u, count)
    lhs = u.jet(r, 1).derivative(1) ** 2
    w = to_v_transform(u, N, r, 1)
    v, dv = w.value(), w.derivative(1)
    c = coth(r)
    rhs = np.sinh(r) ** (1 - N) * (dv**2 + ((N - 1) ** 2 / 4.0) * c**2 * v**2 - (N - 1) * c * v * dv)
    return IdentityResidualReport.from_sides("ph1", u.id, N, None, lhs, rhs, tol)


def check_trans1(u: RadialProfile, N: int, count: int = 50, tol: float = 1e-10) -> IdentityResidualReport:
    """The radial Laplacian against its v-side form, pointwise.

    Lap u = sinh^{-(N-1)/2}(r) [v'' - (((N-1)(N-3)/4) coth^2(r) + (N-1)/2) v].
    """
    r = identity_sample_points(u, count)
    lhs = laplace_radial(u, N, r, order=0).value()
    w = to_v_transform(u, N, r, 2)
    v, ddv = w.value(), w.derivative(2)
    c = coth(r)
    potential = ((N - 1) * (N - 3) / 4.0) * c**2 + (N - 1) / 2.0
    rhs = np.sinh(r) ** ((1 - N) / 2.0) * (ddv - potential * v)
    return IdentityResidualReport.from_sides("trans1", u.id, N, None, lhs, rhs, tol)


def _mode_raw_integrals(d: RadialProfile, N: int, spec: QuadratureSpec):
    """Converged raw integrals of the v-side quantities for one radial part."""
    if d.support is None:
        raise ValueError("integral identity checks need a compactly supported profile")
    r_max = d.support[1] + 1.0

    def terms(grid):
        span = grid.span(d.support)
        r = grid.nodes[span]
        w = to_v_transform(d, N, r, 2)
        v, dv, ddv = w.value(), w.derivative(1), w.derivative(2)
        c = coth(r)
        inv_s2 = np.sinh(r) ** -2.0
        raw = {
            "v2": v**2,
            "v2_s2": v**2 * inv_s2,
            "v2_s4": v**2 * inv_s2**2,
            "v2_r2": v**2 * r**-2.0,
            "v2_r4": v**2 * r**-4.0,
            "dv2": dv**2,
            "dv2_s2": dv**2 * inv_s2,
            "ddv2": ddv**2,
            "c_v_dv": c * v * dv,
            "c2_v2": c**2 * v**2,
            "ddv_c2v": ddv * c**2 * v,
            "ddv_v": ddv * v,
            "ddv_v_s2": ddv * v * inv_s2,
            "c2_v2_s2": c**2 * v**2 * inv_s2,
            "c4_v2": c**4 * v**2,
        }
        return {key: grid.integrate(val, span) for key, val in raw.items()}

    return converge_terms(terms, spec, r_max)


def _estimate1_sides(vals: dict, n: int, N: int) -> tuple[float, float]:
    lam = lambda_n(n, N)
    al = F((N - 1) * (N - 3), 4)
    be = F(N - 1, 2)
    # expand the squared operator; each piece is a raw integral
    lhs = (
        vals["ddv2"]
        + float(al * al) * vals["c4_v2"]
        + float(be * be) * vals["v2"]
        + float(lam * lam) * vals["v2_s4"]
        - 2 * float(al) * vals["ddv_c2v"]
        - 2 * float(be) * vals["ddv_v"]
        - 2 * float(lam) * vals["ddv_v_s2"]
        + 2 * float(al * be) * vals["c2_v2"]
        + 2 * float(al * lam) * vals["c2_v2_s2"]
        + 2 * float(be * lam) * vals["v2_s2"]
    )
    s4 = (
        F(lam) ** 2
        + F((N - 1) * (N - 3), 2) * lam
        - 6 * lam
        + F((N - 1) ** 2 * (N - 3) ** 2, 16)
        - F(3 * (N - 1) * (N - 3), 2)
    )
    s2 = (
        F((N - 1) ** 2 * (N - 3) ** 2, 8)
        + F((N - 1) ** 2 * (N - 3), 4)
        + F((N - 1) * (N - 3), 2) * lam
        + (N - 5) * lam
        - F((N - 1) * (N - 3), 1)
    )
    rhs = (
        vals["ddv2"]
        + float(F((N - 1) ** 2, 2)) * vals["dv2"]
        + float(F((N - 1) * (N - 3), 2) + 2 * lam) * vals["dv2_s2"]
        + float(F((N - 1) ** 4, 16)) * vals["v2"]
        + float(s4) * vals["v2_s4"]
        + float(s2) * vals["v2_s2"]
    )
    return lhs, rhs


def check_estimate1(
    d: RadialProfile, n: int, N: int, spec: QuadratureSpec | None = None, tol: float = 1e-8
) -> IdentityResidualReport:
    """Integral expansion of the squared mode operator in v-form.

    int (v'' - ((N-1)(N-3)/4) coth^2 v - ((N-1)/2) v - lambda_n v/sinh^2)^2 dr
    equals the six-term right-hand side produced by integrating by parts.
    """
    spec = spec or QuadratureSpec()
    vals, _ = _mode_raw_integrals(d, N, spec)
    lhs, rhs = _estimate1_sides(vals, n, N)
    return IdentityResidualReport.from_sides("estimate1", d.id, N, n, lhs, rhs, tol, {"lhs": lhs, "rhs": rhs})


def _estimate2_sides(vals: dict, n: int, N: int) -> tuple[float, float]:
    lam = lambda_n(n, N)
    be2 = F((N - 1) ** 2, 4)
    lhs = float(be2) * (
        vals["dv2"] + float(lam) * vals["v2_s2"] + float(be2) * vals["c2_v2"] - (N - 1) * vals["c_v_dv"]
    )
    rhs = (
        float(be2) * vals["dv2"]
        + float(F((N - 1) ** 4, 16)) * vals["v2"]
        + float(be2 * lam + F((N - 1) ** 3 * (N - 3), 16)) * vals["v2_s2"]
    )
    return lhs, rhs


def check_estimate2(
    d: RadialProfile, n: int, N: int, spec: QuadratureSpec | None = None, tol: float = 1e-8
) -> IdentityResidualReport:
    """Integral identity for the first-order mode term in v-form.

    ((N-1)/2)^2 int ((v')^2 + lambda_n v^2/sinh^2 + ((N-1)^2/4) coth^2 v^2
    - (N-1) coth v v') dr collapses, via int coth v v' = (1/2) int v^2/sinh^2,
    to ((N-1)/2)^2 int (v')^2 + ((N-1)^4/16) int v^2
    + (((N-1)^2/4) lambda_n + (N-1)^3 (N-3)/16) int v^2/sinh^2.
    """
    spec = spec or QuadratureSpec()
    vals, _ = _mode_raw_integrals(d, N, spec)
    lhs, rhs = _estimate2_sides(vals, n, N)
    return IdentityResidualReport.from_sides("estimate2", d.id, N, n, lhs, rhs, tol, {"lhs": lhs, "rhs": rhs})


# {case: {term: exact coefficient}} over the integrals of check_1d_lemmas.  The
# lemmas read the order-2 jet of u directly: an N = 1 Laplacian tower gives the
# same integrals at several times the cost, and sinh^-4 differs from
# (sinh^-2)^2 in the last bit.
_LEMMAS = {
    "hardy1d_sinh": {"grad_sinh2": 1, "sinh4": -F(9, 4), "sinh2": -1},
    "hardy1d_hardy": {"grad": 1, "r2": -F(1, 4)},
    "hardy1d_rellich": {"lap2": 1, "r4": -F(9, 16)},
}


def check_1d_lemmas(u: RadialProfile, spec: QuadratureSpec | None = None, tol: float = 1e-8) -> list[MarginReport]:
    """The three one-dimensional lemmas on (0, infinity) with measure dr.

    int (u')^2/sinh^2 >= (9/4) int u^2/sinh^4 + int u^2/sinh^2
    int (u')^2       >= (1/4) int u^2/r^2
    int (u'')^2      >= (9/16) int u^2/r^4
    """
    spec = spec or QuadratureSpec()
    if u.support is None:
        raise ValueError("the one-dimensional lemmas need a compactly supported profile")
    r_max = u.support[1] + 1.0

    def terms(grid):
        span = grid.span(u.support)
        r = grid.nodes[span]
        jet = u.jet(r, 2)
        v, dv, ddv = jet.value(), jet.derivative(1), jet.derivative(2)
        inv_s2 = np.sinh(r) ** -2.0
        raw = {
            "grad_sinh2": dv**2 * inv_s2,
            "sinh4": v**2 * inv_s2**2,
            "sinh2": v**2 * inv_s2,
            "grad": dv**2,
            "r2": v**2 * r**-2.0,
            "lap2": ddv**2,
            "r4": v**2 * r**-4.0,
        }
        return {key: grid.integrate(val, span) for key, val in raw.items()}

    vals, errs = converge_terms(terms, spec, r_max)
    return [MarginReport.from_integrals(case, u.id, None, vals, errs, coef, tol) for case, coef in _LEMMAS.items()]


def mode_margin_decomposition(d: RadialProfile, N: int, spec: QuadratureSpec | None = None) -> dict[str, float]:
    """Rebuild the n = 0 mode margin from remainders plus lemma slacks.

    The difference of the two integral estimates at n = 0 must equal the sum
    of the four remainder terms (9/16 on 1/r^4, (N-1)^2/16 on 1/r^2, A_0 on
    1/sinh^4, B_0 on 1/sinh^2) plus the three nonnegative slacks of the
    one-dimensional lemmas applied to v.  Exact algebra; the returned
    ``residual_rel`` is quadrature noise only.
    """
    spec = spec or QuadratureSpec()
    vals, _ = _mode_raw_integrals(d, N, spec)
    lhs1, rhs1 = _estimate1_sides(vals, 0, N)
    lhs2, rhs2 = _estimate2_sides(vals, 0, N)
    margin_direct = lhs1 - lhs2
    a0, b0 = anbn(0, N)
    slack_sinh = vals["dv2_s2"] - 2.25 * vals["v2_s4"] - vals["v2_s2"]
    slack_hardy = vals["dv2"] - 0.25 * vals["v2_r2"]
    slack_rellich = vals["ddv2"] - 0.5625 * vals["v2_r4"]
    pieces = {
        "r4": 0.5625 * vals["v2_r4"],
        "r2": float(F((N - 1) ** 2, 16)) * vals["v2_r2"],
        "sinh4": float(a0) * vals["v2_s4"],
        "sinh2": float(b0) * vals["v2_s2"],
        "slack_rellich": slack_rellich,
        "slack_hardy": float(F((N - 1) ** 2, 4)) * slack_hardy,
        "slack_sinh": float(F((N - 1) * (N - 3), 2)) * slack_sinh,
    }
    recomposed = sum(pieces.values())
    scale = abs(margin_direct) + abs(recomposed)
    out = {
        "margin_direct": margin_direct,
        "recomposed": recomposed,
        "residual_rel": abs(margin_direct - recomposed) / scale if scale > 0 else 0.0,
    }
    out.update(pieces)
    return out
