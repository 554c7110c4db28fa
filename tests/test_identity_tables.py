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

``mode_margin_decomposition``'s "exact algebra" is proved the same way.  At
n = 0, estimate1's lhs less ((N-1)/2)^2 times estimate2's, less the four
thm21 remainders and the three lemma slacks, is a total derivative.  Its
weights include 1/r^2 and 1/r^4, so the integrand is a polynomial in
(1/r, c, v, v', v''), and D r = 1.  It is checked at N = 5..13 (the
decomposition requires N > 4), and the coefficients the function combines
are read back from it.

Every raw integrand is also homogeneous of degree 2 in (v, v', v''), which is
what lets ``identities`` integrate it on v, v', v'' over sinh^{(N-1)/2} r
under the measure sinh^{N-1} r; that is checked here too.
"""

from fractions import Fraction as F
from types import SimpleNamespace

import pytest
import sympy

from poincare_hardy import Bump, identities
from poincare_hardy.constants import CaseSpec, poincare_constant, thm21_constants

c, r, *_V = sympy.symbols("c r v0:5")  # c = coth r, _V[i] = the i-th derivative of v

# the weights of the raw family, in c and r
_WEIGHTS = {
    "one": sympy.Integer(1),
    "inv_sinh2": c**2 - 1,
    "inv_sinh4": (c**2 - 1) ** 2,
    "inv_r2": r**-2,
    "inv_r4": r**-4,
}
_RAW = {
    key: integrand(SimpleNamespace(v=_V[0], dv=_V[1], ddv=_V[2], coth=c)) * _WEIGHTS[weight]
    for key, (integrand, weight) in identities._RAW.items()
}
_TABLES = {"estimate1": identities._estimate1_tables, "estimate2": identities._estimate2_tables}
_CASES = [(N, n) for N in range(2, 14) for n in range(4)]


def _rational(x) -> sympy.Rational:
    x = F(x)
    return sympy.Rational(x.numerator, x.denominator)


def _sum(coef: dict) -> sympy.Expr:
    """The integrand of ``sum(coef[key] * raw integral key)``."""
    return sum(_rational(k) * _RAW[key] for key, k in coef.items())


def _integrand(tables, n: int, N: int) -> sympy.Expr:
    """lhs - rhs of one estimate as a polynomial in (c, v, v', v'')."""
    factor, lhs, rhs = tables(n, N)
    return sympy.expand(_rational(factor) * _sum(lhs) - _sum(rhs))


def _total_derivative(expr: sympy.Expr) -> sympy.Expr:
    """D in r: D r = 1, D c = 1 - c^2 and D v^(i) = v^(i+1)."""
    terms = (1 - c**2) * sympy.diff(expr, c) + sum(_V[i + 1] * sympy.diff(expr, _V[i]) for i in range(len(_V) - 1))
    return sympy.expand(sympy.diff(expr, r) + terms)


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


# ``mode_margin_decomposition``: the thm21 remainders it adds, the dimensions it allows, and its lemma slack weights
_REMAINDERS = ("r4", "r2", "sinh4", "sinh2")
_DECOMPOSITION_N = range(5, 14)


def _slack_weights(N: int) -> dict:
    return {"rellich": F(1), "hardy": poincare_constant(CaseSpec(2, 1, N)), "sinh": F((N - 1) * (N - 3), 2)}


def _decomposition(N: int, constants: dict) -> dict:
    """``{output: {raw key: coefficient}}`` of ``mode_margin_decomposition`` at n = 0 and N, exact."""
    (f1, lhs1, _), (f2, lhs2, _) = identities._estimate1_tables(0, N), identities._estimate2_tables(0, N)
    direct = {key: f1 * lhs1.get(key, 0) - f2 * lhs2.get(key, 0) for key in {**lhs1, **lhs2}}
    pieces = {"margin_direct": direct, **{key: {key: constants[f"c_{key}"]} for key in _REMAINDERS}}
    for lemma, weight in _slack_weights(N).items():
        pieces[f"slack_{lemma}"] = {key: weight * k for key, k in identities._LEMMAS[f"hardy1d_{lemma}"].items()}
    return pieces


def _decomposition_residual(N: int, constants: dict) -> sympy.Expr:
    """margin_direct less the remainders and slacks, as a polynomial in (1/r, c, v, v', v'')."""
    pieces = {name: _sum(coef) for name, coef in _decomposition(N, constants).items()}
    return sympy.expand(pieces.pop("margin_direct") - sum(pieces.values()))


def test_the_mode_margin_decomposition_is_a_total_derivative():
    # so margin_direct and recomposed are one integral for every compactly supported v
    for N in _DECOMPOSITION_N:
        residual = _decomposition_residual(N, thm21_constants(N))
        assert residual != 0, N  # the check below is not vacuous
        assert _euler(residual) == 0, N


@pytest.mark.parametrize("key", _REMAINDERS)
def test_a_raised_remainder_constant_breaks_the_decomposition(key):
    for N in _DECOMPOSITION_N:
        constants = thm21_constants(N)
        raised = {**constants, f"c_{key}": constants[f"c_{key}"] + F(1, 16)}
        assert _euler(_decomposition_residual(N, raised)) != 0, N


@pytest.mark.parametrize("N", [5, 9])
def test_mode_margin_decomposition_combines_these_coefficients(N, monkeypatch):
    # one raw integral at a time equal to 1 and the rest 0: each output is its coefficient of that integral
    pieces = _decomposition(N, thm21_constants(N))
    for key in identities._RAW:
        vals = {k: float(k == key) for k in identities._RAW}
        monkeypatch.setattr(identities, "_mode_raw_integrals", lambda d, N, spec: (vals, None))
        out = identities.mode_margin_decomposition(Bump(2.0, 1.0), N)
        for name, coef in pieces.items():
            assert out[name] == pytest.approx(float(coef.get(key, 0)), rel=1e-12, abs=1e-12), (key, name)
