"""Claims about the exact constants that hold for every dimension N.

``chain_replay`` builds the remainder chain by replaying the cascade;
``case_leading_constants`` gives its endpoints in closed form.  For every
l < k <= 10 they agree for every N, not only at the dimensions sampled
elsewhere, and the mode coefficients of ``anbn`` are smallest at n = 0, for every
N >= 5, because their lambda-coefficients are positive there.  A symbolic
replay of the cascade, with N a sympy symbol, shows every chain entry of
every k <= 6, the middle ones included, positive for every admissible N.
"""

from fractions import Fraction as F

import pytest
import sympy

from poincare_hardy import CaseSpec, anbn, case_leading_constants, chain_replay, constants, lambda_n

CASES = [(k, l) for k in range(1, 11) for l in range(k)]


def _newton_differences(values: list[F]) -> list[F]:
    """values[0] and its forward differences of every order, at consecutive integers."""
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def _forward_difference(values: list[F]) -> F:
    """The highest forward difference of values at consecutive integers."""
    return _newton_differences(values)[-1]


@pytest.mark.parametrize("k, l", CASES, ids=[f"k{k}_l{l}" for k, l in CASES])
def test_chain_endpoints_equal_closed_forms_for_every_N(k, l):
    """Agreement at the 2k + 1 dimensions N = 2k+1 .. 4k+1 proves it for every N > 2k.

    Both sides are polynomials in N of degree at most 2k, so their difference
    is one too, and it has 2k + 1 roots.  The replay: a cascade step from
    order j weighs ((N-1)/2)^{2(k-j)}, degree 2(k-j); its step constant,
    1/4 or (N-1)^2/16 and 9/16, has degree at most 2; each of the
    (j-1)//2 weighted-step levels of ``yang_extended`` multiplies by a weight
    of degree at most 4.  That adds up to at most 2(k-j) + 2 + 2(j-1) = 2k.
    The closed forms are sums of products of a_gamma (degree 2 gamma),
    b_gamma_beta (degree 4 gamma), d_j and e_j (degree at most 2j - 2) and
    powers of (N-1)/2, whose degrees add up to at most 2k in every branch.
    """
    endpoints = []
    for N in range(2 * k + 1, 4 * k + 3):
        case = CaseSpec(k, l, N)
        chain = chain_replay(case)
        assert (chain[0], chain[-1]) == case_leading_constants(case), N
        endpoints.append((chain[0], chain[-1]))
    # the degree bound itself: over the 2k + 2 dimensions checked, a (2k+1)-th difference vanishes
    assert _forward_difference([first for first, _ in endpoints]) == 0
    assert _forward_difference([last for _, last in endpoints]) == 0


def test_anbn_increase_with_the_mode():
    # the docstring's claim that the minima over n sit at n = 0
    for N in range(5, 41):
        for n in range(11):
            (a0, b0), (a1, b1) = anbn(n, N), anbn(n + 1, N)
            assert a1 > a0 and b1 > b0, (n, N)


def _lambda_coefficients(mode_coefficients, N: int) -> list[F]:
    """[A's lambda^2, A's lambda, B's lambda^2, B's lambda] coefficients at N, read from the modes n = 0, 1, 2.

    A_n and B_n are polynomials of degree at most 2 in lambda_n, so the three
    distinct eigenvalues lambda_0 = 0 < lambda_1 < lambda_2 fix them: Newton's
    divided differences give the coefficients.  The modes n = 3, 4 must agree.
    """
    lam = [lambda_n(n, N) for n in range(5)]
    out = []
    for f in zip(*(mode_coefficients(n, N) for n in range(5))):
        d01 = (f[1] - f[0]) / (lam[1] - lam[0])
        d12 = (f[2] - f[1]) / (lam[2] - lam[1])
        c2 = (d12 - d01) / (lam[2] - lam[0])
        c1 = d01 - c2 * (lam[0] + lam[1])
        assert all(f[n] == f[0] + c1 * lam[n] + c2 * lam[n] ** 2 for n in (3, 4)), N
        out += [c2, c1]
    return out


def _lambda_coefficients_positive_for_every_N(mode_coefficients) -> bool:
    """Whether A's two lambda-coefficients and B's lambda-coefficient are positive, and B's lambda^2 one is not
    negative, at every integer N >= 5.

    Each is a polynomial in N of degree at most 2, as ``anbn`` writes it (1,
    N(N-4)/2, 0 and (N^2-2N-5)/4).  Over the four dimensions N = 5..8 its
    third forward difference vanishes, which checks that bound, so by Newton's
    forward formula p(5 + m) = p(5) + m Dp(5) + C(m, 2) D^2 p(5) for every
    integer m >= 0.  Binomial coefficients of such m are nonnegative, so
    p(5) > 0 with D p(5), D^2 p(5) >= 0 makes p positive for every N >= 5.
    """
    columns = zip(*(_lambda_coefficients(mode_coefficients, N) for N in range(5, 9)))
    verdicts = []
    for strict, column in zip((True, True, False, True), columns):
        p5, dp5, d2p5, d3p5 = _newton_differences(list(column))
        assert d3p5 == 0, "a lambda-coefficient has degree above 2 in N"
        verdicts.append((p5 > 0 if strict else p5 >= 0) and dp5 >= 0 and d2p5 >= 0)
    return all(verdicts)


def test_anbn_lambda_coefficients_are_positive_for_every_N():
    assert _lambda_coefficients_positive_for_every_N(anbn)
    # A's lambda^2 coefficient is 1, B is affine in lambda, as the docstring says
    assert [_lambda_coefficients(anbn, N)[::2] for N in (5, 41)] == [[1, 0], [1, 0]]


def test_a_lambda_coefficient_negative_only_past_N_46_is_caught():
    # B's lambda-coefficient minus (3/10)(N-5)^2 stays positive for N = 5..46: sampling N <= 40 would miss it
    def bent(n, N):
        A, B = anbn(n, N)
        return A, B - F(3, 10) * (N - 5) ** 2 * lambda_n(n, N)

    assert all(_lambda_coefficients(bent, N)[3] > 0 for N in range(5, 47))
    assert _lambda_coefficients(bent, 47)[3] < 0
    assert not _lambda_coefficients_positive_for_every_N(bent)


_N, _T = sympy.symbols("N t")
SYMBOLIC_CASES = [(k, l) for k in range(1, 7) for l in range(k)]


def _symbolic_yang_extended(gamma: int, beta: int) -> list[sympy.Expr]:
    """``yang_extended(gamma, beta, N)`` with N a symbol: the fourth-order weighted step, typed from its
    statement, iterated gamma times."""
    coeffs = {0: sympy.Integer(1)}
    for _ in range(gamma):
        nxt = {}
        for p, c in coeffs.items():
            b = beta + 2 * p
            w0 = (_N - 1) ** 2 / 16
            w2 = (_N - 2 - b) * (_N - 2 + b) * (_N - 1) / 8
            w4 = (_N + b) ** 2 * (_N - b - 4) ** 2 / 16
            for shift, w in enumerate((w0, w2, w4)):
                nxt[p + shift] = nxt.get(p + shift, 0) + c * w
        coeffs = nxt
    return [coeffs[p] for p in range(2 * gamma + 1)]


def _symbolic_chain(k: int, l: int) -> list[sympy.Poly]:
    """The cascade of ``chain_replay`` for (k, l) with N a symbol: alpha^1..alpha^k as polynomials in N."""
    chain = [sympy.Integer(0)] * k
    for j in range(l + 1, k + 1):
        cascade = ((_N - 1) / 2) ** (2 * (k - j))
        step = (sympy.Rational(1, 4),) if j % 2 else ((_N - 1) ** 2 / 16, sympy.Rational(9, 16))
        for i, c in enumerate(step, start=1):
            for p, e in enumerate(_symbolic_yang_extended((j - 1) // 2, 2 * i)):
                chain[i + p - 1] += cascade * c * e
    return [sympy.Poly(sympy.expand(c), _N) for c in chain]


def _fraction(x: sympy.Rational) -> F:
    return F(int(x.p), int(x.q))


def _replay_matches_symbolic_chain(k: int, l: int, polys: list[sympy.Poly]) -> bool:
    """Whether ``chain_replay`` equals the symbolic chain at the 2k + 1 dimensions N = 2k+1 .. 4k+1.

    Both sides are polynomials in N of degree at most 2k (the bound is derived
    in ``test_chain_endpoints_equal_closed_forms_for_every_N`` and asserted on
    the symbolic side), so agreement there makes them one polynomial.
    """
    return all(
        chain_replay(CaseSpec(k, l, N)) == tuple(_fraction(p.eval(N)) for p in polys) for N in range(2 * k + 1, 4 * k + 2)
    )


@pytest.mark.parametrize("k, l", SYMBOLIC_CASES, ids=[f"k{k}_l{l}" for k, l in SYMBOLIC_CASES])
def test_every_chain_entry_is_positive_for_every_admissible_N(k, l):
    """After the shift N = 2k + 1 + t every coefficient in t is >= 0 and the constant one > 0,
    so each entry is positive for every t >= 0: every N >= 2k + 1, which holds every admissible N."""
    polys = _symbolic_chain(k, l)
    assert all(p.degree() <= 2 * k for p in polys)
    assert _replay_matches_symbolic_chain(k, l, polys)
    for i, p in enumerate(polys, start=1):
        shifted = sympy.Poly(p.as_expr().subs(_N, 2 * k + 1 + _T), _T)
        coeffs = shifted.all_coeffs()
        assert coeffs[-1] > 0 and all(c >= 0 for c in coeffs), (k, l, i, shifted)


def test_a_perturbed_yang_extended_entry_is_caught(monkeypatch):
    yang_extended = constants.yang_extended

    def perturbed(gamma, beta, N):
        out = list(yang_extended(gamma, beta, N))
        if gamma:
            out[1] *= F(1001, 1000)
        return tuple(out)

    monkeypatch.setattr(constants, "yang_extended", perturbed)
    assert _replay_matches_symbolic_chain(2, 0, _symbolic_chain(2, 0))  # no weighted step below order 3
    assert not _replay_matches_symbolic_chain(3, 0, _symbolic_chain(3, 0))
