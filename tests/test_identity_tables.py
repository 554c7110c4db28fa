"""The estimate tables of ``identities`` hold for every test function, by exact algebra.

``check_estimate1`` and ``check_estimate2`` compare ``factor * int sum(lhs)``
with ``int sum(rhs)`` over the raw family of v = sinh^{(N-1)/2} d, on
quadrature grids.  Here the tables themselves are proved, with no quadrature.
With c = coth r, 1/sinh^2 r = c^2 - 1 and D c = 1 - c^2, so the lhs - rhs
integrand of each table, built from ``identities._RAW`` and the coefficients
that ``identities`` uses, is a polynomial in (c, v, v', v'').  It integrates to
0 for every compactly supported v exactly when it is a total derivative, and
that holds exactly when its Euler operator d/dv - D d/dv' + D^2 d/dv''
vanishes identically.

Boundary terms: a total derivative D F integrates to F(hi) - F(lo), which
is 0 when v and its derivatives vanish at both ends of the support.  That
holds for a support inside (0, infinity), and for a d that is flat at 0
(the ``origin`` members), since v = sinh^{(N-1)/2} d is then flat there too
and outruns every power of c = coth r ~ 1/r.

The cases checked, N = 2..13 and n = 0..3, cover every N and n.  Each table
entry is a polynomial in N of degree at most 4 and in lambda of degree at
most 2, so the Euler operator's coefficients are too.  At each N the four
eigenvalues lambda_0..lambda_3 are distinct, so each coefficient vanishes as
a polynomial in lambda; then twelve roots N = 2..13 make it vanish in N.

Every raw integrand is also homogeneous of degree 2 in (v, v', v''), which is
what lets ``identities`` integrate it on v, v', v'' over sinh^{(N-1)/2} r
under the measure sinh^{N-1} r; that is checked here too.
"""

from fractions import Fraction as F
from types import SimpleNamespace

import pytest
import sympy

from poincare_hardy import identities

c, *_V = sympy.symbols("c v0:5")  # c = coth r, _V[i] = the i-th derivative of v

# the weights of the raw family, in c
_WEIGHTS = {"one": sympy.Integer(1), "inv_sinh2": c**2 - 1, "inv_sinh4": (c**2 - 1) ** 2}
_RAW = {
    key: integrand(SimpleNamespace(v=_V[0], dv=_V[1], ddv=_V[2], coth=c)) * _WEIGHTS[weight]
    for key, (integrand, weight) in identities._RAW.items()
    if weight in _WEIGHTS
}
_TABLES = {"estimate1": identities._estimate1_tables, "estimate2": identities._estimate2_tables}
_CASES = [(N, n) for N in range(2, 14) for n in range(4)]


def _rational(x) -> sympy.Rational:
    x = F(x)
    return sympy.Rational(x.numerator, x.denominator)


def _integrand(tables, n: int, N: int) -> sympy.Expr:
    """lhs - rhs of one estimate as a polynomial in (c, v, v', v'')."""
    factor, lhs, rhs = tables(n, N)
    total = _rational(factor) * sum(_rational(k) * _RAW[key] for key, k in lhs.items())
    return sympy.expand(total - sum(_rational(k) * _RAW[key] for key, k in rhs.items()))


def _total_derivative(expr: sympy.Expr) -> sympy.Expr:
    """D in r: D c = 1 - c^2 and D v^(i) = v^(i+1)."""
    terms = (1 - c**2) * sympy.diff(expr, c) + sum(_V[i + 1] * sympy.diff(expr, _V[i]) for i in range(len(_V) - 1))
    return sympy.expand(terms)


def _euler(L: sympy.Expr) -> sympy.Expr:
    """The Euler operator d/dv - D d/dv' + D^2 d/dv'' of L(c, v, v', v'')."""
    D = _total_derivative
    return sympy.expand(sympy.diff(L, _V[0]) - D(sympy.diff(L, _V[1])) + D(D(sympy.diff(L, _V[2]))))


@pytest.mark.parametrize("which", list(_TABLES))
def test_estimate_tables_are_total_derivatives(which):
    for N, n in _CASES:
        integrand = _integrand(_TABLES[which], n, N)
        assert integrand != 0, (N, n)  # the check below is not vacuous
        assert _euler(integrand) == 0, (N, n)


def test_a_total_derivative_has_no_euler_term_and_a_square_has_one():
    assert _euler(_total_derivative(c * _V[0] * _V[1] ** 2)) == 0
    assert _euler(_V[0] ** 2) != 0


@pytest.mark.parametrize("key, shift", [("sinh2", F(1, 8)), ("v2", F(1, 16))])
def test_a_perturbed_estimate1_coefficient_is_caught(key, shift):
    def perturbed(n, N):
        factor, lhs, rhs = identities._estimate1_tables(n, N)
        return factor, lhs, {**rhs, key: rhs[key] + shift}

    for N, n in _CASES:
        assert _euler(_integrand(perturbed, n, N)) != 0, (N, n)


def _is_quadratic(integrand) -> bool:
    """Whether ``integrand(t)`` scales by k^2 when v, v' and v'' do: homogeneous of degree 2 in them."""
    k = sympy.Symbol("k")
    t = SimpleNamespace(v=_V[0], dv=_V[1], ddv=_V[2], coth=c)
    scaled = SimpleNamespace(v=k * _V[0], dv=k * _V[1], ddv=k * _V[2], coth=c)
    return sympy.expand(integrand(scaled) - k**2 * integrand(t)) == 0


def test_every_raw_integrand_is_quadratic_in_v():
    # so with s = sinh^{(N-1)/2} r each one is s^2 times itself on (v, v', v'')/s, and
    # ``identities`` integrates it on those quotients under s^2, the measure at N
    for key, (integrand, _) in identities._RAW.items():
        assert _is_quadratic(integrand), key


@pytest.mark.parametrize(
    "planted",
    [lambda t: t.v * t.dv**2, lambda t: t.coth * t.v, lambda t: t.ddv**2 + t.v],
    ids=["cubic", "linear", "mixed"],
)
def test_a_planted_non_quadratic_entry_is_caught(planted, monkeypatch):
    monkeypatch.setitem(identities._RAW, "planted", (planted, "one"))
    with pytest.raises(AssertionError, match="planted"):
        test_every_raw_integrand_is_quadratic_in_v()
