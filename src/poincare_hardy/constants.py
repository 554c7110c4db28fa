"""Exact rational constants for the improved Poincare-Hardy inequalities.

Everything here is computed in ``fractions.Fraction``; floats never enter.
The chain constants for a general case (k, l, N) are produced twice, by
independent routes: closed forms typed from the statements
(``case_leading_constants``, ``dk_ek``, ``a_gamma``, ``b_gamma_beta``) and a
replay of the proof chains (``chain_replay``).  The replay is a Poincare
cascade of single-order steps. Each step is the (1, 0) or the (2, 1) chain
applied to Lap^g u and expanded by the fourth-order weighted step
(``yang_extended``).  The test suite requires the two routes to agree exactly
at the endpoints.

Every other constant comes from one derivation.  The named inequalities
poincare, rellich and thm21 are the cases (1, 0), (2, 0) and (2, 1).  The
extra sinh remainders of thm21 are the n = 0 mode minima A_0, B_0
(``anbn``).  The half-space corollaries reuse the (2, 1) chain.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import HypothesisError, InternalConsistencyError

__all__ = [
    "CaseSpec",
    "ConstantTable",
    "poincare_constant",
    "a_gamma",
    "b_gamma_beta",
    "dk_ek",
    "thm21_constants",
    "yang_constants",
    "yang_extended",
    "chain_replay",
    "case_leading_constants",
    "constant_table",
    "lambda_n",
    "anbn",
    "halfspace_constants",
]

F = Fraction


@dataclass(frozen=True)
class CaseSpec:
    """Derivative orders and dimension for one inequality case.

    k is the order on the left, l < k the order on the right, and the
    hyperbolic dimension must satisfy N > 2k.
    """

    k: int
    l: int
    N: int

    def __post_init__(self):
        if not (isinstance(self.k, int) and isinstance(self.l, int) and isinstance(self.N, int)):
            raise HypothesisError("k, l, N must be integers")
        if self.k < 1:
            raise HypothesisError("requires k >= 1")
        if not 0 <= self.l < self.k:
            raise HypothesisError(f"requires 0 <= l < k, got l={self.l}, k={self.k}")
        if self.N <= 2 * self.k:
            raise HypothesisError(f"case (k={self.k}, l={self.l}) requires N > {2 * self.k}, got N={self.N}")

    @property
    def m(self) -> int:
        """Half-order of k: k = 2m or k = 2m+1."""
        return self.k // 2

    @property
    def h(self) -> int:
        """Half-order of l: l = 2h or l = 2h+1."""
        return self.l // 2

    @property
    def k_even(self) -> bool:
        return self.k % 2 == 0

    @property
    def l_even(self) -> bool:
        return self.l % 2 == 0


def poincare_constant(case: CaseSpec) -> Fraction:
    """Leading constant ((N-1)/2)^{2(k-l)} in front of the order-l term."""
    return F(case.N - 1, 2) ** (2 * (case.k - case.l))


def a_gamma(gamma: int, N: int) -> Fraction:
    """(N-1)^{2 gamma} / 2^{4 gamma}; the large-r endpoint product."""
    if gamma < 0:
        raise HypothesisError("requires gamma >= 0")
    return F((N - 1) ** (2 * gamma), 2 ** (4 * gamma))


def b_gamma_beta(gamma: int, beta: int, N: int) -> Fraction:
    """prod_{j=0}^{gamma-1} (N+beta+4j)^2 (N-beta-4j-4)^2 / 16.

    Small-r endpoint product; requires N > beta + 4*gamma so every factor in
    the underlying weighted step is admissible.  b_0 = 1.
    """
    if gamma < 0 or beta < 0:
        raise HypothesisError("requires gamma >= 0 and beta >= 0")
    if gamma >= 1 and N <= beta + 4 * gamma:
        raise HypothesisError(f"requires N > {beta + 4 * gamma}, got N={N}")
    out = F(1)
    for j in range(gamma):
        out *= F((N + beta + 4 * j) ** 2 * (N - beta - 4 * j - 4) ** 2, 16)
    return out


def _yang_weights(beta: int, N: int) -> tuple[Fraction, Fraction, Fraction]:
    """(w0, w2, w4) in int (Lap u)^2/r^beta >= w4 u^2/r^{beta+4} + w2 u^2/r^{beta+2} + w0 u^2/r^beta."""
    if beta < 0:
        raise HypothesisError("requires beta >= 0")
    if N <= beta + 4:
        raise HypothesisError(f"requires N > {beta + 4}, got N={N}")
    w4 = F((N + beta) ** 2 * (N - beta - 4) ** 2, 16)
    w2 = F((N - 2 - beta) * (N - 2 + beta) * (N - 1), 8)
    w0 = F((N - 1) ** 2, 16)
    return w0, w2, w4


def yang_constants(beta: int, N: int) -> dict[str, Fraction]:
    """Weights of the fourth-order step with weight 1/r^beta, keyed by the shift."""
    w0, w2, w4 = _yang_weights(beta, N)
    return {"w4": w4, "w2": w2, "w0": w0}


@functools.lru_cache(maxsize=None)
def yang_extended(gamma: int, beta: int, N: int) -> tuple[Fraction, ...]:
    """Coefficients of u^2/r^{beta+2p}, p = 0..2*gamma, bounding int (Lap^gamma u)^2 / r^beta.

    Built by iterating the fourth-order weighted step; requires
    N > beta + 4*gamma.  The endpoints must reproduce a_gamma and
    b_gamma_beta, which is asserted.  Cached: ``chain_replay`` expands every
    remainder of every cascade step with it.
    """
    if gamma < 0 or beta < 0:
        raise HypothesisError("requires gamma >= 0 and beta >= 0")
    if gamma >= 1 and N <= beta + 4 * gamma:
        raise HypothesisError(f"requires N > {beta + 4 * gamma}, got N={N}")
    coeffs: dict[int, Fraction] = {0: F(1)}
    for _ in range(gamma):
        nxt: dict[int, Fraction] = defaultdict(F)
        for p, c in coeffs.items():
            w0, w2, w4 = _yang_weights(beta + 2 * p, N)
            nxt[p] += c * w0
            nxt[p + 1] += c * w2
            nxt[p + 2] += c * w4
        coeffs = nxt
    out = tuple(coeffs[p] for p in range(2 * gamma + 1))
    if out[0] != a_gamma(gamma, N) or out[-1] != b_gamma_beta(gamma, beta, N):
        raise InternalConsistencyError("iterated weighted step disagrees with its endpoint products")
    return out


def dk_ek(k: int, N: int) -> tuple[Fraction, Fraction]:
    """Closed forms (d_k, e_k) of the extreme chain constants for l = 0.

    d_k multiplies u^2/r^2 and e_k multiplies u^2/r^{2k}.  Requires N > 2k.
    """
    if k < 1:
        raise HypothesisError("requires k >= 1")
    if N <= 2 * k:
        raise HypothesisError(f"requires N > {2 * k}, got N={N}")
    if k % 2 == 0:
        m = k // 2
        d = sum((F((N - 1) ** (4 * m - 2 * j), 2 ** (4 * m - 1)) for j in range(1, m + 1)), F(0))
        e = F(9, 2 ** (4 * m))
        for j in range(1, m):
            e *= (N + 4 * j) ** 2 * (N - 4 * j - 4) ** 2
    else:
        m = (k - 1) // 2
        d = sum((F((N - 1) ** (4 * m - 2 * j + 2), 2 ** (4 * m + 1)) for j in range(1, m + 1)), F(0))
        d += F((N - 1) ** (2 * m), 2 ** (4 * m + 2))
        e = F(1, 2 ** (4 * m + 2))
        for j in range(1, m + 1):
            e *= (N + 4 * j - 2) ** 2 * (N - 4 * j - 2) ** 2
    return d, e


def thm21_constants(N: int) -> dict[str, Fraction]:
    """The four remainder constants of the (k, l) = (2, 1) inequality.

    c_r2 and c_r4 are its chain; c_sinh4 = A_0 and c_sinh2 = B_0 are the
    n = 0 minima of the spherical-mode coefficients.
    """
    c_r2, c_r4 = chain_replay(CaseSpec(2, 1, N))
    a0, b0 = anbn(0, N)
    return {"c_r2": c_r2, "c_r4": c_r4, "c_sinh2": b0, "c_sinh4": a0}


@functools.lru_cache(maxsize=None)
def chain_replay(case: CaseSpec) -> tuple[Fraction, ...]:
    """The k remainder constants alpha^1..alpha^k, alpha^i on u^2/r^{2i}.

    Replays the Poincare cascade from order k down to order l one order at a
    time.  The step from order j to j-1 is an inequality about Lap^g u,
    g = (j-1)//2, and it leaves its own remainders on (Lap^g u)^2/r^{2i}. For
    odd j that is the 1-D Hardy constant 1/4 at i = 1. For even j it is the
    (2, 1) chain ((N-1)^2/16, 9/16) at i = 1, 2. yang_extended(g, 2i, N)
    expands each remainder into u^2/r^{2(i+p)}, and the cascade weights the
    step by ((N-1)/2)^{2(k-j)}.  Exact rational arithmetic throughout.
    Cached on the frozen case; a refusal is not stored, so it repeats.
    """
    k, l, N = case.k, case.l, case.N
    chain = [F(0)] * k
    for j in range(l + 1, k + 1):
        cascade = F(N - 1, 2) ** (2 * (k - j))
        step = (F(1, 4),) if j % 2 else (F((N - 1) ** 2, 16), F(9, 16))
        for i, c in enumerate(step, start=1):
            for p, e in enumerate(yang_extended((j - 1) // 2, 2 * i, N)):
                chain[i + p - 1] += cascade * c * e
    if any(c <= 0 for c in chain):
        raise InternalConsistencyError(f"chain replay for (k={k}, l={l}, N={N}) produced an invalid chain")
    return tuple(chain)


def _d_or_zero(k: int, N: int) -> Fraction:
    return F(0) if k == 0 else dk_ek(k, N)[0]


def case_leading_constants(case: CaseSpec) -> tuple[Fraction, Fraction]:
    """Closed forms (alpha^1, alpha^k): the 1/r^2 and 1/r^{2k} chain constants."""
    k, l, N, m, h = case.k, case.l, case.N, case.m, case.h
    if l == 0:
        return dk_ek(k, N)
    if case.k_even and case.l_even:
        d, e = dk_ek(2 * (m - h), N)
        return d * a_gamma(h, N), e * b_gamma_beta(h, 4 * (m - h), N)
    if case.k_even:
        if h == m - 1:
            return a_gamma(1, N) * a_gamma(m - 1, N), F(9, 16) * b_gamma_beta(m - 1, 4, N)
        first = F(1, 4) * F(N - 1, 2) ** (4 * (m - h) - 2) * a_gamma(h, N)
        first += _d_or_zero(2 * (m - h - 1), N) * a_gamma(h + 1, N)
        last = dk_ek(2 * (m - h - 1), N)[1] * b_gamma_beta(h + 1, 4 * (m - h - 1), N)
        return first, last
    if case.l_even:
        first = F(4) * a_gamma(1, N) * a_gamma(h, N) * _d_or_zero(2 * (m - h), N) + F(1, 4) * a_gamma(m, N)
        return first, F(1, 4) * b_gamma_beta(m, 2, N)
    if h == m - 1:
        first = F(1, 4) * a_gamma(m, N) + F(4) * a_gamma(2, N) * a_gamma(m - 1, N)
    else:
        first = F(1, 4) * a_gamma(m, N)
        first += F(4) ** (2 * (m - h) - 1) * a_gamma(2 * (m - h) - 1, N) * a_gamma(h, N) * a_gamma(1, N)
        first += F(4) * _d_or_zero(2 * (m - h - 1), N) * a_gamma(h + 1, N) * a_gamma(1, N)
    return first, F(1, 4) * b_gamma_beta(m, 2, N)


@dataclass(frozen=True)
class ConstantTable:
    """All exact constants attached to one case, plus auxiliary quantities."""

    case: CaseSpec
    poincare: Fraction
    leading_large_r: Fraction
    leading_small_r: Fraction
    chain: tuple[Fraction, ...]
    aux: dict[str, Fraction] = field(default_factory=dict)


def constant_table(case: CaseSpec) -> ConstantTable:
    """Assemble the full table; every entry is validated positive."""
    chain = chain_replay(case)
    first, last = case_leading_constants(case)
    aux: dict[str, Fraction] = {}
    for g in range(1, case.m + 1):
        aux[f"a_{g}"] = a_gamma(g, case.N)
    d, e = dk_ek(case.k, case.N)
    aux[f"d_{case.k}"] = d
    aux[f"e_{case.k}"] = e
    if case.N >= 5:
        a0, b0 = anbn(0, case.N)
        aux["A_0"] = a0
        aux["B_0"] = b0
    table = ConstantTable(
        case=case,
        poincare=poincare_constant(case),
        leading_large_r=first,
        leading_small_r=last,
        chain=chain,
        aux=aux,
    )
    for name, value in [("poincare", table.poincare), ("leading_large_r", first), ("leading_small_r", last)]:
        if value <= 0:
            raise InternalConsistencyError(f"{name} must be positive")
    for key, value in aux.items():
        if value <= 0:
            raise InternalConsistencyError(f"aux entry {key} must be positive")
    return table


def lambda_n(n: int, N: int) -> int:
    """n-th eigenvalue n^2 + (N-2)n of the spherical Laplacian."""
    if n < 0:
        raise HypothesisError("requires n >= 0")
    return n * n + (N - 2) * n


def anbn(n: int, N: int) -> tuple[Fraction, Fraction]:
    """Mode coefficients (A_n, B_n) of the sinh^{-4} and sinh^{-2} remainders.

    Both are affine-quadratic in the eigenvalue lambda_n with positive
    lambda-coefficients for N >= 5, so their minima over n sit at n = 0.
    """
    lam = lambda_n(n, N)
    A = (
        F(lam) ** 2
        + F(N * (N - 4), 2) * lam
        + F(((N - 1) * (N - 3)) ** 2, 16)
        - F(3 * (N - 1) * (N - 3), 8)
    )
    B = (
        F(N * N - 2 * N - 5, 4) * lam
        + F((N - 1) ** 2 * (N - 3), 4)
        + F((N - 1) ** 2 * (N - 3) * (N - 5), 16)
        - F((N - 1) * (N - 3), 2)
    )
    return A, B


def halfspace_constants(which: str, N: int) -> dict[str, Fraction]:
    """Exact constants of the two half-space fourth-order corollaries.

    Both transplant the (2, 1) inequality: d2 and d4, on the geodesic
    distance d in place of r, are its chain.
    """
    d2, d4 = chain_replay(CaseSpec(2, 1, N))
    if which == "rellich1":
        return {
            "grad": F(N * N - 2 * N - 1, 4),
            "y2": F(N * (N - 2), 16),
            "d2": d2,
            "d4": d4,
        }
    if which == "rellich2":
        return {
            "grad": F(N * N - 2 * N - 9, 4),
            "y4": F(9 * (N + 2) * (N - 4), 16),
            "d2": d2,
            "d4": d4,
        }
    raise ValueError(f"unknown half-space corollary {which!r}")
