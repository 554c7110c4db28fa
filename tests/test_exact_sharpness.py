"""Exact sharpness of the leading constants, on the family u = e^{-ar}.

Write u = x^{-a} with x = e^r.  Then d/dr = x d/dx, coth r = (x^2 + 1)/(x^2 - 1)
and sinh r = (x - 1/x)/2, so for an integer N every |grad^k u|^2 sinh^{N-1} r
is x^{-2a} times a Laurent polynomial sum_j c_j x^j in x.  With dr = dx/x,

    int_0^inf x^{-2a} x^j dr = int_1^inf x^{j - 2a - 1} dx = 1/(2a - j),

so each energy int |grad^k u|^2 sinh^{N-1} r dr is sum_j c_j/(2a - j), an exact
rational function of a, finite for a > (N - 1)/2.  u lies in H^k there, though
not in C_c^infinity, and the infimum of a Rayleigh quotient is the same on both.

For each case (k, l, N) the quotient int |grad^k u|^2 / int |grad^l u|^2 tends
to ``poincare_constant`` as a decreases to (N - 1)/2, so no larger constant
holds.  With a = (N - 1)/2 + s, quotient - constant is P(s)/Q(s) with every
coefficient of P and Q of one sign, which proves the inequality on the whole
family.  That sign check is sufficient, not necessary; a constant raised by
1/16 fails it.
"""

import mpmath
import pytest
import sympy

from poincare_hardy.constants import CaseSpec, poincare_constant

x, a, s, r = sympy.symbols("x a s r", positive=True)
_COTH = (x**2 + 1) / (x**2 - 1)
_SINH = (x - 1 / x) / 2

# (k, l, N): the quotient int |grad^k u|^2 / int |grad^l u|^2 as a function of a
_QUOTIENTS = {
    (1, 0, 5): a**2,
    (2, 1, 5): (7 * a**2 - 16) / 3,
    (2, 0, 5): a**2 * (7 * a**2 - 16) / 3,
    (2, 1, 6): (8 * a**2 - 25) / 4,
    (3, 2, 7): (33 * a**4 - 284 * a**2 + 288) / (9 * (a**2 - 4)),
    (4, 1, 9): (715 * a**6 - 14976 * a**4 + 67840 * a**2 - 36864) / 35,
}


def _d(g: sympy.Expr) -> sympy.Expr:
    """(x^{-a} g)' over x^{-a}, the derivative in r: x g' - a g."""
    return sympy.cancel(x * sympy.diff(g, x) - a * g)


def _gradk_sq(k: int, N: int) -> sympy.Expr:
    """|grad^k u|^2 over x^{-2a}: (Lap^m u)^2 for k = 2m, ((Lap^m u)')^2 for k = 2m + 1."""
    g = sympy.Integer(1)
    for _ in range(k // 2):
        dg = _d(g)
        g = sympy.cancel(_d(dg) + (N - 1) * _COTH * dg)
    return (_d(g) if k % 2 else g) ** 2


def _energy(k: int, N: int) -> sympy.Expr:
    """int_0^inf |grad^k u|^2 sinh^{N-1} r dr, exact in a > (N - 1)/2."""
    num, den = sympy.fraction(sympy.cancel(_gradk_sq(k, N) * _SINH ** (N - 1)))
    ((m,), c), *rest = sympy.Poly(den, x).terms()
    assert not rest, den  # a monomial c x^m: the integrand is a Laurent polynomial times x^{-2a}
    return sympy.cancel(sum(cj / (c * (2 * a - (j - m))) for (j,), cj in sympy.Poly(num, x).terms()))


@pytest.fixture(scope="module")
def quotients() -> dict:
    return {case: sympy.cancel(_energy(case[0], case[2]) / _energy(case[1], case[2])) for case in _QUOTIENTS}


def _one_signed(expr: sympy.Expr) -> bool:
    """Whether expr = P(s)/Q(s) with every nonzero coefficient of P and Q of one sign."""
    P, Q = sympy.fraction(sympy.cancel(expr))
    return len({sympy.sign(c) for p in (P, Q) for c in sympy.Poly(p, s).coeffs()}) == 1


@pytest.mark.parametrize("case", list(_QUOTIENTS), ids=lambda c: f"k{c[0]}_l{c[1]}_N{c[2]}")
def test_the_quotient_tends_to_the_constant_and_stays_above_it(case, quotients):
    k, l, N = case
    quotient = quotients[case]
    assert sympy.cancel(quotient - _QUOTIENTS[case]) == 0
    constant = sympy.Rational(str(poincare_constant(CaseSpec(k, l, N))))
    shifted = quotient.subs(a, sympy.Rational(N - 1, 2) + s)
    assert sympy.limit(shifted, s, 0, "+") == constant
    assert _one_signed(shifted - constant)
    assert not _one_signed(shifted - constant - sympy.Rational(1, 16))


@pytest.mark.parametrize("case", list(_QUOTIENTS), ids=lambda c: f"k{c[0]}_l{c[1]}_N{c[2]}")
def test_the_quotient_matches_quadrature_in_r(case, quotients):
    # the same energies from the radial Laplacian u'' + (N - 1) coth u' in r, integrated by mpmath
    k, l, N = case
    decay = sympy.Rational(N - 1, 2) + sympy.Rational(1, 2)
    u = sympy.exp(-decay * r)

    def energy(order):
        f = u
        for _ in range(order // 2):
            f = sympy.diff(f, r, 2) + (N - 1) * sympy.coth(r) * sympy.diff(f, r)
        g = sympy.lambdify(r, (sympy.diff(f, r) if order % 2 else f) ** 2 * sympy.sinh(r) ** (N - 1), "mpmath")
        return mpmath.quad(g, [0, 1, mpmath.inf])

    with mpmath.workdps(30):
        numeric = energy(k) / energy(l)
        assert abs(numeric - mpmath.mpf(str(sympy.Rational(quotients[case].subs(a, decay))))) < mpmath.mpf(10) ** -20
