"""The quadrature error estimate against an independent 32-digit oracle.

Every margin verdict demands ``noise <= tol * scale``, where ``noise`` adds up
the per-term errors that the panel-doubling loop reports.  Here each of those
errors is checked against the true error of its integral, computed with
``mpmath.quad`` on the bump's closed form and its first two derivatives.
Both families are covered: the verifier's terms under the hyperbolic measure
and the 1-D lemma terms of ``identities`` under dr, which are the verifier's
terms at N = 1 (measure 1, Laplacian u'').
"""

import mpmath
import numpy as np
import pytest

from poincare_hardy import Bump, QuadratureSpec
from poincare_hardy.verify import _integrals

# term -> (k, weight) as the verifier names them: |grad^k u|^2 * weight
TERMS = {
    "u2": (0, "one"),
    "u2_r2": (0, "inv_r2"),
    "u2_r4": (0, "inv_r4"),
    "u2_sinh4": (0, "inv_sinh4"),
    "grad": (1, "one"),
}

# the 1-D lemma terms by their ``identities`` names; "lap2" is u''^2, the N = 1 Laplacian squared
LEMMA_TERMS = {
    "grad_sinh2": (1, "inv_sinh2"),
    "sinh4": (0, "inv_sinh4"),
    "sinh2": (0, "inv_sinh2"),
    "r2": (0, "inv_r2"),
    "r4": (0, "inv_r4"),
    "grad": (1, "one"),
    "lap2": (2, "one"),
}

WEIGHTS = {
    "one": lambda r: 1,
    "inv_r2": lambda r: r**-2,
    "inv_r4": lambda r: r**-4,
    "inv_sinh2": lambda r: mpmath.sinh(r) ** -2,
    "inv_sinh4": lambda r: mpmath.sinh(r) ** -4,
}

# (bump, N, spec): standard members, on the graded rule, and origin members (center = width),
# on equal panels over [0, hi]; (3.5, 1.0, 2) exhausts its doubling budget
MEMBERS = [
    (Bump(1.0, 0.9, 0), 5, QuadratureSpec()),
    (Bump(0.5, 0.5, 2), 5, QuadratureSpec()),
    (Bump(1.5, 0.5, 3), 9, QuadratureSpec()),
    (Bump(3.5, 1.0, 2), 5, QuadratureSpec(max_doublings=1)),
    (Bump(2.0, 2.0, 2), 9, QuadratureSpec()),
    (Bump(0.6, 0.6, 1), 7, QuadratureSpec()),
]


def _reference(u: Bump, terms: dict, measure) -> dict[str, mpmath.mpf]:
    """int |u^(k)|^2 weight(r) measure(r) dr over the support for every term, at 32 digits.

    k = 2 is u'', which the terms use only at N = 1, where it is the Laplacian.
    """
    c, w, p = mpmath.mpf(u.center), mpmath.mpf(u.width), u.power

    def parts(r):
        t = (r - c) / w
        core = mpmath.exp(-1 / (1 - t * t))
        # core' = core * h and h' = dh, both in r; u = r^p core by the product rule
        h = -2 * t / (w * (1 - t * t) ** 2)
        dh = -(2 + 6 * t * t) / (w * w * (1 - t * t) ** 3)
        power = r**p
        dpower = p * r ** (p - 1) if p else 0
        ddpower = p * (p - 1) * r ** (p - 2) if p > 1 else 0
        value = power * core
        slope = (dpower + power * h) * core
        curve = (ddpower + 2 * dpower * h + power * (h * h + dh)) * core
        return value, slope, curve

    lo, hi = u.support
    with mpmath.workdps(32):
        nodes = [mpmath.mpf(lo), c, mpmath.mpf(hi)]
        return {
            key: mpmath.quad(lambda r, k=k, weight=WEIGHTS[weight]: parts(r)[k] ** 2 * weight(r) * measure(r), nodes)
            for key, (k, weight) in terms.items()
        }


def _assert_bounded(vals, errs, ref):
    with mpmath.workdps(32):
        true_errors = {key: float(abs(mpmath.mpf(vals[key]) - ref[key])) for key in ref}
    for key in ref:
        # the error floor is one ulp, and the dot product over the nodes rounds by a few more
        assert true_errors[key] <= errs[key] + 4 * np.spacing(abs(vals[key])), key


@pytest.mark.parametrize("u, N, spec", MEMBERS, ids=[f"{u.id}_N{N}" for u, N, _ in MEMBERS])
def test_noise_bounds_the_true_error(u, N, spec):
    vals, errs = _integrals(u, N, spec, TERMS)
    _assert_bounded(vals, errs, _reference(u, TERMS, lambda r: mpmath.sinh(r) ** (N - 1)))


@pytest.mark.parametrize("u, spec", [(u, spec) for u, _, spec in MEMBERS], ids=[u.id for u, _, _ in MEMBERS])
def test_lemma_noise_bounds_the_true_error(u, spec):
    vals, errs = _integrals(u, 1, spec, LEMMA_TERMS)
    _assert_bounded(vals, errs, _reference(u, LEMMA_TERMS, lambda r: 1))
