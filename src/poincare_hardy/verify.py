"""Numerical margin certificates for the radial inequalities.

Each inequality is one table ``{term: (k, weight, coef)}``.  A term is the
integral of ``|grad^k u|^2 * weight`` over the hyperbolic measure, with
k = 0 meaning ``u^2`` and ``weight`` a name from ``quadrature.weight_values``;
``coef`` is its exact coefficient, positive for a left-hand term and negative
for a right-hand one.  One evaluator converges every integral of a table under
panel doubling, on grids that hold only the nodes strictly inside u's support
(see ``quadrature``), and returns a MarginReport whose verdict demands the
margin be nonnegative up to tol * scale with quadrature noise below the same
gate.  A report can therefore fail either because the inequality is violated
or because the integrals cannot be trusted at the requested tolerance.  A new
inequality is one more table.  The 1-D lemmas (``verify --case hardy1d``) are
``identities`` tables over its raw v-family at N = 1, where v = u under dr.

Tables of one function share most of their terms: ``rellich``, ``general``
(2, 0) and ``thm21`` all integrate (Lap u)^2, u^2/r^2 and u^2/r^4.  So each
grid memoises the integrals taken on it (``Grid._terms``), keyed by
(u, N, k, weight), and an evaluation integrates only the terms that miss;
when none misses it builds no Laplacian tower at all.  The key holds no jet
order and no tower depth: coefficient j of a jet is the same float whatever
the jet's order, so a level's value and slope, and every integral read from
them, are the same whatever depth the table was built with.  A term is
stored only once every term of its evaluation is in, so a refused measure
(see ``quadrature.Grid.integrate``) leaves nothing behind.  The memo lives on
the grid, so it is bounded by the grid cache and dies with the grid; the
identities' raw v-family shares it under (d, N, keys).

A margin's keyword-only ``suite`` makes a grid where u misses also take the missing
terms of u's suite-mates on its support, in that update, from one stacked table: same floats.
"""

from __future__ import annotations

import numpy as np

from .constants import (
    CaseSpec,
    chain_replay,
    thm21_constants,
    poincare_constant,
    yang_constants,
)
from .errors import HypothesisError
from .profiles import Bump, Cutoff, RadialProfile
from .operators import RadialTable, gradk_sq_values, radial_table
from .quadrature import QuadratureSpec, converge_terms, log_sinh
from .reports import MarginReport

__all__ = [
    "margin_poincare_hardy",
    "margin_rellich",
    "margin_thm21",
    "margin_yang",
    "margin_general",
    "sharpness_probe",
]


def _inv_r(power: int) -> str:
    return "one" if power == 0 else f"inv_r{power}"


def _mates(u, suite, misses) -> tuple:
    """u, then the other members of ``suite`` on u's support for which ``misses`` holds, in suite order."""
    support = u.support
    return tuple(v for v in dict.fromkeys((u, *suite)) if v is u or (v.support == support and misses(v)))


def _integrals(u, N, spec, integrands, suite=()):
    """Converged ``{term: int |grad^k u|^2 * weight dV}`` for ``integrands = {term: (k, weight)}``."""
    levels = max(k for k, _ in integrands.values()) // 2

    def fn(grid):
        memo = grid._terms
        missing = dict.fromkeys((k, w) for k, w in integrands.values() if (u, N, k, w) not in memo)
        if missing:
            group = _mates(u, suite, lambda v: any((v, N, k, w) not in memo for k, w in missing))
            stacked = len(group) > 1
            table = RadialTable(group, N, grid, levels) if stacked else radial_table(u, N, grid, levels)
            sums = {(k, w): grid.integrate(gradk_sq_values(table, k), w, N) for k, w in missing}
            memo.update({(v, N, k, w): s[i] if stacked else s for (k, w), s in sums.items() for i, v in enumerate(group)})
        return {key: memo[u, N, k, w] for key, (k, w) in integrands.items()}

    return converge_terms(fn, spec, u.support)


def _margin(case, u, N, table, spec, tol, suite) -> MarginReport:
    """Evaluate one inequality table ``{term: (k, weight, coef)}`` on u."""
    vals, errs = _integrals(u, N, spec or QuadratureSpec(), {key: (k, w) for key, (k, w, _) in table.items()}, suite)
    coef = {key: c for key, (_, _, c) in table.items()}
    return MarginReport.from_integrals(case, u.id, N, vals, errs, coef, tol)


def _chain_table(case: CaseSpec, top: str, bottom: str) -> dict:
    """The (k, l) inequality: int |grad^k u|^2 against the order-l term and its remainder chain."""
    table = {
        top: (case.k, "one", 1),
        bottom: (case.l, "one", -poincare_constant(case)),
    }
    for i, c in enumerate(chain_replay(case), start=1):
        table[f"r{2 * i}"] = (0, _inv_r(2 * i), -c)
    return table


def margin_poincare_hardy(
    u: RadialProfile, N: int, spec: QuadratureSpec | None = None, tol: float = 1e-8, *, suite=()
) -> MarginReport:
    """int |grad u|^2 >= ((N-1)/2)^2 int u^2 + (1/4) int u^2/r^2, hyperbolic measure: the case (1, 0)."""
    table = _chain_table(CaseSpec(1, 0, N), "grad", "poincare")
    return _margin("poincare", u, N, table, spec, tol, suite)


def margin_rellich(
    u: RadialProfile, N: int, spec: QuadratureSpec | None = None, tol: float = 1e-8, *, suite=()
) -> MarginReport:
    """int (Lap u)^2 >= ((N-1)/2)^4 int u^2 + ((N-1)^2/8) int u^2/r^2 + (9/16) int u^2/r^4: the case (2, 0)."""
    table = _chain_table(CaseSpec(2, 0, N), "lap2", "poincare")
    return _margin("rellich", u, N, table, spec, tol, suite)


def margin_thm21(
    u: RadialProfile, N: int, spec: QuadratureSpec | None = None, tol: float = 1e-8, *, suite=()
) -> MarginReport:
    """The case (2, 1) with its two extra sinh remainders.

    int (Lap u)^2 >= ((N-1)/2)^2 int |grad u|^2 + c_r2 int u^2/r^2
    + c_r4 int u^2/r^4 + c_sinh2 int u^2/sinh^2 + c_sinh4 int u^2/sinh^4.
    """
    table = _chain_table(CaseSpec(2, 1, N), "lap2", "grad")
    c = thm21_constants(N)
    table["sinh2"] = (0, "inv_sinh2", -c["c_sinh2"])
    table["sinh4"] = (0, "inv_sinh4", -c["c_sinh4"])
    return _margin("thm21", u, N, table, spec, tol, suite)


def margin_yang(
    u: RadialProfile, N: int, beta: int = 0, spec: QuadratureSpec | None = None, tol: float = 1e-8, *, suite=()
) -> MarginReport:
    """The fourth-order weighted step: int (Lap u)^2/r^beta against its three remainders."""
    w = yang_constants(beta, N)
    table = {
        "lap2_rb": (2, _inv_r(beta), 1),
        "rb4": (0, _inv_r(beta + 4), -w["w4"]),
        "rb2": (0, _inv_r(beta + 2), -w["w2"]),
        "rb0": (0, _inv_r(beta), -w["w0"]),
    }
    return _margin(f"yang_b{beta}", u, N, table, spec, tol, suite)


def margin_general(
    case: CaseSpec, u: RadialProfile, spec: QuadratureSpec | None = None, tol: float = 1e-8, *, suite=()
) -> MarginReport:
    """int |grad^k u|^2 against the order-l term and the full remainder chain.

    Numerical margins are supported for k <= 4; the singular weights and jet
    orders beyond that stop paying for themselves on a desk machine.
    """
    if case.k > 4:
        raise ValueError("numerical margins support k <= 4; exact constants have no such cap")
    return _margin(f"general_k{case.k}_l{case.l}", u, case.N, _chain_table(case, "gradk", "gradl"), spec, tol, suite)


_SHARPNESS_RATES = (1.25, 1.15, 1.08, 1.04, 1.02, 1.008, 1.001)
_SHARPNESS_CENTERS = (4.0, 6.0, 8.0, 12.0, 16.0)


def sharpness_probe(case: str, N: int = 5, params=None, spec: QuadratureSpec | None = None) -> list[dict]:
    """Quotient tables that stay above a constant.

    "poincare_k1": for decay rates a just above (N-1)/2, the Rayleigh
    quotient int (u')^2 dv / int u^2 dv of u = exp(-a r) * cutoff approaches
    ((N-1)/2)^2 = a^2 + O(eps); rows are (param=a, quotient).  The cutoff
    radius grows like 8/(2a-(N-1)), capped to [20, 2000], so the integrand is
    fused as exp(-2 a r + (N-1) log sinh r) to stay inside double range.

    "thm21_r2": for unit-width bumps centered at growing c, the quotient of
    the second-order margin against its 1/r^2 remainder term stays above 1,
    the constant; it grows like c^2 and does not approach it.  Rows are
    (param=c, quotient).
    """
    spec = spec or QuadratureSpec()
    if case == "poincare_k1":
        if N <= 2:
            raise HypothesisError(f"requires N > 2, got N={N}")
        rates = params if params is not None else [(N - 1) / 2.0 * f for f in _SHARPNESS_RATES]
        rows = []
        for a in rates:
            if not np.isfinite(a):
                raise HypothesisError(f"decay rate {a} is not finite")
            eps = 2.0 * a - (N - 1)
            if eps <= 0:
                raise HypothesisError(f"decay rate {a} is not above (N-1)/2 = {(N - 1) / 2}")
            r_cut = float(np.clip(8.0 / eps, 20.0, 2000.0))
            chi = Cutoff(r_cut / 2.0, r_cut)

            def fn(grid, a=a, chi=chi):
                r = grid.nodes
                env = np.exp(-2.0 * a * r + (N - 1) * log_sinh(r))
                if not env.any():
                    raise HypothesisError(f"decay rate {a}: exp(-2 a r) sinh^{N - 1} r underflows to 0 on every node")
                jet = chi.jet(r, 1)
                c, dc = jet.value(), jet.derivative(1)
                return {
                    "num": grid.integrate((dc - a * c) ** 2 * env),
                    "den": grid.integrate(c**2 * env),
                }

            vals, _ = converge_terms(fn, spec, chi.support)
            rows.append({"param": a, "quotient": vals["num"] / vals["den"]})
        return rows
    if case == "thm21_r2":
        target = float(thm21_constants(N)["c_r2"])  # enforces N > 4 before any integration
        pc = float(poincare_constant(CaseSpec(2, 1, N)))
        centers = params if params is not None else list(_SHARPNESS_CENTERS)
        integrands = {"lap2": (2, "one"), "grad": (1, "one"), "r2": (0, "inv_r2")}
        rows = []
        for c in centers:
            u = Bump(float(c), 1.0)
            vals, _ = _integrals(u, N, spec, integrands)
            if vals["r2"] == 0.0:
                raise ValueError(f"thm21_r2: {u.id} vanishes on the quadrature grid")
            rows.append({"param": float(c), "quotient": (vals["lap2"] - pc * vals["grad"]) / (target * vals["r2"])})
        return rows
    raise ValueError(f"unknown sharpness case {case!r}")
