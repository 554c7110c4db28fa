"""Verification of the substitution identities behind the mode reduction.

The ambient inequalities are proved by expanding a test function in spherical
modes and substituting v = sinh^{(N-1)/2} d for each radial part d, which
flattens the volume element.  This module checks the substitution identities
pointwise (both sides from one jet of u) and the two integral estimates that
the mode argument rests on, and exposes the slack decomposition that rebuilds
the n = 0 remainder from the three one-dimensional lemmas.

The estimates, the lemmas and the slacks are exact coefficient tables over one
raw family of integrals of v under dr.  Each raw integrand is quadratic in
(v, v', v''), so ``Grid.integrate`` takes it on v, v', v'' over
s = sinh^{(N-1)/2} r (from d's jet and coth r) under s^2, the measure at N, like
every radial integral; the keys read are memoised per grid under (d, N, keys) in ``Grid._terms``.
The lemmas read the family at N = 1, where s = 1 and v = u: the family of u
under dr.  With ``suite=``, as with the margins, a grid where d misses also
takes the family of d's suite-mates on its support from one stacked jet; it
changes no result.  The pointwise checks build v's jet by ``to_v_transform``:
an independent route.
"""

from __future__ import annotations

from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np

from .constants import CaseSpec, lambda_n, poincare_constant, thm21_constants
from .errors import HypothesisError
from .jets import coth, coth_jet
from .profiles import RadialProfile
from .operators import _stacked_jets, laplace_of_jet, to_v_transform
from .quadrature import QuadratureSpec, _chebyshev, converge_terms
from .reports import IdentityResidualReport, MarginReport, ordered_sum
from .verify import _mates

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


def _require_dimension(N: int) -> None:
    """Refuse a dimension below 1: there is no H^N to substitute in."""
    if N < 1:
        raise HypothesisError(f"requires N >= 1, got N={N}")


# a huge N overflows the sinh powers to inf or nan; from_sides turns that into a numerical failure
@np.errstate(over="ignore", invalid="ignore")
def check_ph1(u: RadialProfile, N: int, tol: float = 1e-10) -> IdentityResidualReport:
    """|grad u|^2 against its form in v = sinh^{(N-1)/2} u, pointwise.

    sinh^{N-1}(r) |grad u|^2 = (v')^2 + ((N-1)^2/4) coth^2(r) v^2
    - (N-1) coth(r) v v', checked on a Chebyshev grid.  Both sides come from one
    jet of u: the identity is algebraic in (u, u'), so it tests the substitution.
    """
    _require_dimension(N)
    r = identity_sample_points(u)
    ujet = u.jet(r, 1)
    lhs = ujet.derivative(1) ** 2
    w = to_v_transform(ujet, N, r)
    v, dv = w.value(), w.derivative(1)
    c = coth(r)
    rhs = np.sinh(r) ** (1 - N) * (dv**2 + ((N - 1) ** 2 / 4.0) * c**2 * v**2 - (N - 1) * c * v * dv)
    return IdentityResidualReport.from_sides("ph1", u.id, N, None, lhs, rhs, tol)


@np.errstate(over="ignore", invalid="ignore")  # as in check_ph1
def check_trans1(u: RadialProfile, N: int, tol: float = 1e-10) -> IdentityResidualReport:
    """The radial Laplacian against its v-side form, pointwise, both sides from one jet of u.

    Lap u = sinh^{-(N-1)/2}(r) [v'' - (((N-1)(N-3)/4) coth^2(r) + (N-1)/2) v].
    """
    _require_dimension(N)
    r = identity_sample_points(u)
    ujet = u.jet(r, 2)
    lhs = laplace_of_jet(ujet, coth_jet(r, 2), N).value()
    w = to_v_transform(ujet, N, r)
    v, ddv = w.value(), w.derivative(2)
    c = coth(r)
    potential = ((N - 1) * (N - 3) / 4.0) * c**2 + (N - 1) / 2.0
    rhs = np.sinh(r) ** ((1 - N) / 2.0) * (ddv - potential * v)
    return IdentityResidualReport.from_sides("trans1", u.id, N, None, lhs, rhs, tol)


# The raw family {key: (integrand(t), weight)}: t carries v, dv = v', ddv = v'', each over sinh^{(N-1)/2} r,
# and coth r.  The first seven keys are the ``_LEMMAS`` terms, which the slacks read over v.
_RAW = {
    "grad_sinh2": (lambda t: t.dv**2, "inv_sinh2"),
    "sinh4": (lambda t: t.v**2, "inv_sinh4"),
    "sinh2": (lambda t: t.v**2, "inv_sinh2"),
    "grad": (lambda t: t.dv**2, "one"),
    "r2": (lambda t: t.v**2, "inv_r2"),
    "lap2": (lambda t: t.ddv**2, "one"),
    "r4": (lambda t: t.v**2, "inv_r4"),
    "v2": (lambda t: t.v**2, "one"),
    "c_v_dv": (lambda t: t.coth * t.v * t.dv, "one"),
    "c2_v2": (lambda t: t.coth**2 * t.v**2, "one"),
    "ddv_c2v": (lambda t: t.ddv * t.coth**2 * t.v, "one"),
    "ddv_v": (lambda t: t.ddv * t.v, "one"),
    "ddv_v_s2": (lambda t: t.ddv * t.v, "inv_sinh2"),
    "c2_v2_s2": (lambda t: t.coth**2 * t.v**2, "inv_sinh2"),
    "c4_v2": (lambda t: t.coth**4 * t.v**2, "one"),
}

# {case: {term: coef}} over ``_RAW``, read at N = 1, where v = u and the measure is dr
_LEMMAS = {
    "hardy1d_sinh": {"grad_sinh2": 1, "sinh4": -F(9, 4), "sinh2": -1},
    "hardy1d_hardy": {"grad": 1, "r2": -F(1, 4)},
    "hardy1d_rellich": {"lap2": 1, "r4": -F(9, 16)},
}


def _mode_raw_integrals(d: RadialProfile, N: int, spec: QuadratureSpec, suite=(), keys=tuple(_RAW)):
    """The ``keys`` of ``_RAW`` integrated on v = sinh^{(N-1)/2} d, zero outside d's support; none depends on n.

    Memoised per grid under (d, N, keys), so callers share the returned dicts and must not change them.
    """
    a = (N - 1) / 2.0  # s = sinh^a r has s' = a coth(r) s and s'' = (a (a - 1) coth^2 r + a) s
    def terms(grid):
        memo = grid._terms
        if (d, N, keys) not in memo:
            group = _mates(d, suite, lambda v: (v, N, keys) not in memo)
            djet, cjet = _stacked_jets(group, grid, 2)  # (members, nodes) jets; cjet is coth's
            f, df, c = djet.value(), djet.derivative(1), cjet.value()
            ddv = djet.derivative(2) + 2 * a * c * df + (a * (a - 1) * c**2 + a) * f
            t = SimpleNamespace(v=f, dv=df + a * c * f, ddv=ddv, coth=c)
            sums = {key: grid.integrate(_RAW[key][0](t), _RAW[key][1], N) for key in keys}
            memo.update({(v, N, keys): {key: s[i] for key, s in sums.items()} for i, v in enumerate(group)})
        return memo[d, N, keys]

    return converge_terms(terms, spec, d.support)


def _combine(vals: dict, coef: dict) -> float:
    """Sum of ``float(c) * vals[key]`` over the table, added left to right."""
    return ordered_sum(float(c) * vals[key] for key, c in coef.items())


def _estimate1_tables(n: int, N: int) -> tuple[F, dict, dict]:
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
    return F(1), lhs, rhs


def _estimate2_tables(n: int, N: int) -> tuple[F, dict, dict]:
    lam = lambda_n(n, N)
    be2 = F((N - 1) ** 2, 4)
    lhs = {"grad": 1, "sinh2": lam, "c2_v2": be2, "c_v_dv": -(N - 1)}
    rhs = {
        "grad": be2,
        "v2": F((N - 1) ** 4, 16),
        "sinh2": be2 * lam + F((N - 1) ** 3 * (N - 3), 16),
    }
    return be2, lhs, rhs


def _check_estimate(tables, which, d, n, N, spec, tol, suite) -> IdentityResidualReport:
    _require_dimension(N)
    factor, lhs, rhs = tables(n, N)
    if {k: f for k, c in lhs.items() if (f := factor * c)} == {k: c for k, c in rhs.items() if c}:  # only at N = 1
        raise HypothesisError(f"{which}: both sides are the same integrals at N = {N}, n = {n}; it certifies nothing")
    vals, _ = _mode_raw_integrals(d, N, spec or QuadratureSpec(), suite)
    lhs, rhs = float(factor) * _combine(vals, lhs), _combine(vals, rhs)  # the factor outside, as stated
    return IdentityResidualReport.from_sides(which, d.id, N, n, lhs, rhs, tol, {"lhs": lhs, "rhs": rhs})


def check_estimate1(
    d: RadialProfile, n: int, N: int, spec: QuadratureSpec | None = None, tol: float = 1e-8, *, suite=()
) -> IdentityResidualReport:
    """Integral expansion of the squared mode operator in v-form.

    int (v'' - ((N-1)(N-3)/4) coth^2 v - ((N-1)/2) v - lambda_n v/sinh^2)^2 dr
    equals the six-term right-hand side produced by integrating by parts.
    """
    return _check_estimate(_estimate1_tables, "estimate1", d, n, N, spec, tol, suite)


def check_estimate2(
    d: RadialProfile, n: int, N: int, spec: QuadratureSpec | None = None, tol: float = 1e-8, *, suite=()
) -> IdentityResidualReport:
    """Integral identity for the first-order mode term in v-form.

    ((N-1)/2)^2 int ((v')^2 + lambda_n v^2/sinh^2 + ((N-1)^2/4) coth^2 v^2
    - (N-1) coth v v') dr collapses, via int coth v v' = (1/2) int v^2/sinh^2,
    to ((N-1)/2)^2 int (v')^2 + ((N-1)^4/16) int v^2
    + (((N-1)^2/4) lambda_n + (N-1)^3 (N-3)/16) int v^2/sinh^2.
    """
    return _check_estimate(_estimate2_tables, "estimate2", d, n, N, spec, tol, suite)


@np.errstate(over="ignore")  # sinh overflows past r = 710; the 1/sinh weights then read 0
def check_1d_lemmas(
    u: RadialProfile, spec: QuadratureSpec | None = None, tol: float = 1e-8, *, suite=()
) -> list[MarginReport]:
    """The three one-dimensional lemmas on (0, infinity) with measure dr.

    int (u')^2/sinh^2 >= (9/4) int u^2/sinh^4 + int u^2/sinh^2
    int (u')^2       >= (1/4) int u^2/r^2
    int (u'')^2      >= (9/16) int u^2/r^4
    """
    vals, errs = _mode_raw_integrals(u, 1, spec or QuadratureSpec(), suite, tuple(k for c in _LEMMAS.values() for k in c))
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
    (f1, lhs1, _), (f2, lhs2, _) = _estimate1_tables(0, N), _estimate2_tables(0, N)
    margin_direct = float(f1) * _combine(vals, lhs1) - float(f2) * _combine(vals, lhs2)
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
