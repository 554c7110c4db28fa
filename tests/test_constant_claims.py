"""Claims about the exact constants that hold for every dimension N.

``chain_replay`` builds the remainder chain by replaying the cascade;
``case_leading_constants`` gives its endpoints in closed form.  For every
l < k <= 10 they agree for every N, not only at the dimensions sampled
elsewhere, and the mode coefficients of ``anbn`` are smallest at n = 0.
"""

from fractions import Fraction as F

import pytest

from poincare_hardy import CaseSpec, anbn, case_leading_constants, chain_replay

CASES = [(k, l) for k in range(1, 11) for l in range(k)]


def _forward_difference(values: list[F]) -> F:
    """The highest forward difference of values at consecutive integers."""
    while len(values) > 1:
        values = [b - a for a, b in zip(values, values[1:])]
    return values[0]


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
