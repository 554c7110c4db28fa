"""Verification of the substitution identities behind the mode reduction.

The ambient inequalities are proved by expanding a test function in spherical
modes and substituting v = sinh^{(N-1)/2} d for each radial part d, which
flattens the volume element.  This module checks the substitution identities
pointwise (two independent jet pipelines) and the two integral estimates that
the mode argument rests on, and exposes the slack decomposition that rebuilds
the n = 0 remainder from the three one-dimensional lemmas.

All integrals come from one raw family over an order-2 jet f under dr (f = v
for the estimates, f = u for the lemmas); the estimates, the lemmas and the
slacks are exact coefficient tables over it.
"""

from __future__ import annotations

import functools
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np

from .constants import CaseSpec, lambda_n, poincare_constant, thm21_constants
from .jets import coth
from .profiles import RadialProfile
from .operators import laplace_radial, to_v_transform
from .quadrature import QuadratureSpec, _chebyshev, converge_terms
from .reports import IdentityResidualReport, MarginReport, ordered_sum

__all__ = [
    "identity_sample_points",
    "check_ph1",
    "check_trans1",
    "check_estimate1",
    "check_estimate2",
    "check_1d_lemmas",
    "mode_margin_decomposition",
]


def identity_sample_points(u: RadialProfile, count: int = 50) -> np.ndarray:
    """Chebyshev points inside the support, excluding a relative margin at each end."""
    if u.support is None:
        raise ValueError("pointwise identity checks need a compactly supported profile")
    return _chebyshev(*u.support, count)


def check_ph1(u: RadialProfile, N: int, tol: float = 1e-10) -> IdentityResidualReport:
    """|grad u|^2 against its form in v = sinh^{(N-1)/2} u, pointwise.

    sinh^{N-1}(r) |grad u|^2 = (v')^2 + ((N-1)^2/4) coth^2(r) v^2
    - (N-1) coth(r) v v', checked on a Chebyshev grid with independent jet
    pipelines for the two sides.
    """
    r = identity_sample_points(u)
    lhs = u.jet(r, 1).derivative(1) ** 2
    w = to_v_transform(u, N, r, 1)
    v, dv = w.value(), w.derivative(1)
    c = coth(r)
    rhs = np.sinh(r) ** (1 - N) * (dv**2 + ((N - 1) ** 2 / 4.0) * c**2 * v**2 - (N - 1) * c * v * dv)
    return IdentityResidualReport.from_sides("ph1", u.id, N, None, lhs, rhs, tol)


def check_trans1(u: RadialProfile, N: int, tol: float = 1e-10) -> IdentityResidualReport:
    """The radial Laplacian against its v-side form, pointwise.

    Lap u = sinh^{-(N-1)/2}(r) [v'' - (((N-1)(N-3)/4) coth^2(r) + (N-1)/2) v].
    """
    r = identity_sample_points(u)
    lhs = laplace_radial(u, N, r, order=0).value()
    w = to_v_transform(u, N, r, 2)
    v, ddv = w.value(), w.derivative(2)
    c = coth(r)
    potential = ((N - 1) * (N - 3) / 4.0) * c**2 + (N - 1) / 2.0
    rhs = np.sinh(r) ** ((1 - N) / 2.0) * (ddv - potential * v)
    return IdentityResidualReport.from_sides("trans1", u.id, N, None, lhs, rhs, tol)


# The raw family {key: integrand(t)}: t carries f, df = f', ddf = f'', r,
# coth r and s2 = sinh^-2 r.  The first seven keys are the lemma terms, the rest
# appear only in the estimates.  sinh4 is (sinh^-2)^2, not sinh^-4: they differ
# in the last bit.
_RAW = {
    "grad_sinh2": lambda t: t.df**2 * t.s2,
    "sinh4": lambda t: t.f**2 * t.s2**2,
    "sinh2": lambda t: t.f**2 * t.s2,
    "grad": lambda t: t.df**2,
    "r2": lambda t: t.f**2 * t.r**-2.0,
    "lap2": lambda t: t.ddf**2,
    "r4": lambda t: t.f**2 * t.r**-4.0,
    "v2": lambda t: t.f**2,
    "c_v_dv": lambda t: t.coth * t.f * t.df,
    "c2_v2": lambda t: t.coth**2 * t.f**2,
    "ddv_c2v": lambda t: t.ddf * t.coth**2 * t.f,
    "ddv_v": lambda t: t.ddf * t.f,
    "ddv_v_s2": lambda t: t.ddf * t.f * t.s2,
    "c2_v2_s2": lambda t: t.coth**2 * t.f**2 * t.s2,
    "c4_v2": lambda t: t.coth**4 * t.f**2,
}

# {case: {term: exact coefficient}} over the raw integrals.  The lemmas read
# the order-2 jet of u directly: an N = 1 Laplacian tower gives the same
# integrals at several times the cost.
_LEMMAS = {
    "hardy1d_sinh": {"grad_sinh2": 1, "sinh4": -F(9, 4), "sinh2": -1},
    "hardy1d_hardy": {"grad": 1, "r2": -F(1, 4)},
    "hardy1d_rellich": {"lap2": 1, "r4": -F(9, 16)},
}


def _raw_integrals(u: RadialProfile, jet, spec: QuadratureSpec, keys):
    """Converged ``_RAW`` integrals ``keys`` for the order-2 jet ``jet(r)``, zero outside u's support."""
    if u.support is None:
        raise ValueError("integral checks need a compactly supported profile")

    def terms(grid):
        span = grid.span(u.support)
        r = grid.nodes[span]
        f = jet(r)
        t = SimpleNamespace(
            f=f.value(), df=f.derivative(1), ddf=f.derivative(2), r=r, coth=coth(r), s2=np.sinh(r) ** -2.0
        )
        return {key: grid.integrate(_RAW[key](t), span) for key in keys}

    return converge_terms(terms, spec, u.support[1] + 1.0)


@functools.lru_cache(maxsize=8)
def _mode_raw_integrals(d: RadialProfile, N: int, spec: QuadratureSpec):
    """Every raw integral of v = sinh^{(N-1)/2} d; none depends on the mode n.

    Cached, so callers share the returned dicts and must not change them.
    """
    return _raw_integrals(d, lambda r: to_v_transform(d, N, r, 2), spec, tuple(_RAW))


def _combine(vals: dict, coef: dict) -> float:
    """Sum of ``float(c) * vals[key]`` over the table, added left to right."""
    return ordered_sum(float(c) * vals[key] for key, c in coef.items())


def _estimate1_sides(vals: dict, n: int, N: int) -> tuple[float, float]:
    lam = lambda_n(n, N)
    a = (N - 1) * (N - 3)
    al = F(a, 4)
    be = F(N - 1, 2)
    # the squared operator, expanded; each piece is a raw integral
    lhs = {
        "lap2": 1,
        "c4_v2": al * al,
        "v2": be * be,
        "sinh4": lam * lam,
        "ddv_c2v": -2 * al,
        "ddv_v": -2 * be,
        "ddv_v_s2": -2 * lam,
        "c2_v2": 2 * al * be,
        "c2_v2_s2": 2 * al * lam,
        "sinh2": 2 * be * lam,
    }
    # after integrating the cross terms by parts
    rhs = {
        "lap2": 1,
        "grad": F((N - 1) ** 2, 2),
        "grad_sinh2": F(a, 2) + 2 * lam,
        "v2": F((N - 1) ** 4, 16),
        "sinh4": lam * lam + (F(a, 2) - 6) * lam + F(a * (a - 24), 16),
        "sinh2": F((a + 2 * N - 10) * (a + 4 * lam), 8),
    }
    return _combine(vals, lhs), _combine(vals, rhs)


def _estimate2_sides(vals: dict, n: int, N: int) -> tuple[float, float]:
    lam = lambda_n(n, N)
    be2 = F((N - 1) ** 2, 4)
    lhs = {"grad": 1, "sinh2": lam, "c2_v2": be2, "c_v_dv": -(N - 1)}
    rhs = {
        "grad": be2,
        "v2": F((N - 1) ** 4, 16),
        "sinh2": be2 * lam + F((N - 1) ** 3 * (N - 3), 16),
    }
    # the common factor stays outside the sum, as in the statement
    return float(be2) * _combine(vals, lhs), _combine(vals, rhs)


def _check_estimate(sides, which, d, n, N, spec, tol) -> IdentityResidualReport:
    vals, _ = _mode_raw_integrals(d, N, spec or QuadratureSpec())
    lhs, rhs = sides(vals, n, N)
    return IdentityResidualReport.from_sides(which, d.id, N, n, lhs, rhs, tol, {"lhs": lhs, "rhs": rhs})


def check_estimate1(
    d: RadialProfile, n: int, N: int, spec: QuadratureSpec | None = None, tol: float = 1e-8
) -> IdentityResidualReport:
    """Integral expansion of the squared mode operator in v-form.

    int (v'' - ((N-1)(N-3)/4) coth^2 v - ((N-1)/2) v - lambda_n v/sinh^2)^2 dr
    equals the six-term right-hand side produced by integrating by parts.
    """
    return _check_estimate(_estimate1_sides, "estimate1", d, n, N, spec, tol)


def check_estimate2(
    d: RadialProfile, n: int, N: int, spec: QuadratureSpec | None = None, tol: float = 1e-8
) -> IdentityResidualReport:
    """Integral identity for the first-order mode term in v-form.

    ((N-1)/2)^2 int ((v')^2 + lambda_n v^2/sinh^2 + ((N-1)^2/4) coth^2 v^2
    - (N-1) coth v v') dr collapses, via int coth v v' = (1/2) int v^2/sinh^2,
    to ((N-1)/2)^2 int (v')^2 + ((N-1)^4/16) int v^2
    + (((N-1)^2/4) lambda_n + (N-1)^3 (N-3)/16) int v^2/sinh^2.
    """
    return _check_estimate(_estimate2_sides, "estimate2", d, n, N, spec, tol)


def check_1d_lemmas(u: RadialProfile, spec: QuadratureSpec | None = None, tol: float = 1e-8) -> list[MarginReport]:
    """The three one-dimensional lemmas on (0, infinity) with measure dr.

    int (u')^2/sinh^2 >= (9/4) int u^2/sinh^4 + int u^2/sinh^2
    int (u')^2       >= (1/4) int u^2/r^2
    int (u'')^2      >= (9/16) int u^2/r^4
    """
    keys = [key for coef in _LEMMAS.values() for key in coef]
    vals, errs = _raw_integrals(u, lambda r: u.jet(r, 2), spec or QuadratureSpec(), keys)
    return [MarginReport.from_integrals(case, u.id, None, vals, errs, coef, tol) for case, coef in _LEMMAS.items()]


def mode_margin_decomposition(d: RadialProfile, N: int, spec: QuadratureSpec | None = None) -> dict[str, float]:
    """Rebuild the n = 0 mode margin from remainders plus lemma slacks.

    The difference of the two integral estimates at n = 0 must equal the sum
    of the four remainder terms of the (2, 1) inequality (``thm21_constants``:
    its chain on 1/r^4 and 1/r^2, A_0 on 1/sinh^4, B_0 on 1/sinh^2) plus the
    three nonnegative slacks of the one-dimensional lemmas applied to v.
    Requires N > 4.  Exact algebra; the returned ``residual_rel`` is
    quadrature noise only.
    """
    vals, _ = _mode_raw_integrals(d, N, spec or QuadratureSpec())
    margin_direct = _estimate1_sides(vals, 0, N)[0] - _estimate2_sides(vals, 0, N)[0]
    c = thm21_constants(N)
    pieces = {key: float(c[f"c_{key}"]) * vals[key] for key in ("r4", "r2", "sinh4", "sinh2")}
    hardy = poincare_constant(CaseSpec(2, 1, N))
    for lemma, weight in (("rellich", 1), ("hardy", hardy), ("sinh", F((N - 1) * (N - 3), 2))):
        pieces[f"slack_{lemma}"] = float(weight) * _combine(vals, _LEMMAS[f"hardy1d_{lemma}"])
    recomposed = ordered_sum(pieces.values())
    scale = abs(margin_direct) + abs(recomposed)
    out = {
        "margin_direct": margin_direct,
        "recomposed": recomposed,
        "residual_rel": abs(margin_direct - recomposed) / scale if scale > 0 else 0.0,
    }
    out.update(pieces)
    return out
