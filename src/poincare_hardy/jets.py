"""Vectorized truncated Taylor arithmetic.

A ``Jet`` stores, for every point of a numpy grid, the scaled derivatives
``f(x), f'(x), f''(x)/2!, ..., f^(n)(x)/n!`` of some function along one
coordinate.  Arithmetic on jets implements the product/quotient/chain rules
once, so that a test profile defined by composing primitives automatically
carries exact (to machine precision) high-order derivatives everywhere on the
grid.  This is what lets the verifier evaluate iterated Laplacians of a test
function without symbolic differentiation or finite-difference noise.

Coefficients live in an ``(..., order+1)`` float array whose last axis is the
Taylor order, so every rule below is a handful of vectorized convolutions.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Jet", "variable", "constant", "sinh_jet", "cosh_jet", "coth_jet", "coth"]


class Jet:
    """Truncated Taylor expansions of one function over a grid of points.

    ``coef[..., j]`` holds ``f^(j)(x)/j!`` at each grid point ``x``.  The
    leading axes are an arbitrary grid shape shared by all operands of an
    expression.
    """

    __slots__ = ("coef",)

    def __init__(self, coef: np.ndarray):
        self.coef = np.asarray(coef, dtype=float)

    @property
    def order(self) -> int:
        return self.coef.shape[-1] - 1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.coef.shape[:-1]

    def value(self) -> np.ndarray:
        return self.coef[..., 0]

    def derivative(self, j: int = 1) -> np.ndarray:
        """Unscaled j-th derivative values, f^(j)(x)."""
        if not 0 <= j <= self.order:
            raise ValueError(f"derivative order {j} outside jet order {self.order}")
        return self.coef[..., j] * math.factorial(j)

    def shift(self) -> "Jet":
        """The jet of f', one order shorter."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        j = np.arange(1, self.order + 1, dtype=float)
        return Jet(self.coef[..., 1:] * j)

    def truncate(self, order: int) -> "Jet":
        """Drop coefficients above the given order."""
        if order > self.order:
            raise ValueError(f"cannot extend an order-{self.order} jet to order {order}")
        return Jet(self.coef[..., : order + 1])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.coef + other.coef)
        out = self.coef.copy()
        out[..., 0] += other
        return Jet(out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.coef)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coef * other)
        n = self.order
        a, b = self.coef, other.coef
        out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (n + 1,))
        for k in range(n + 1):
            # convolution along the order axis
            out[..., k] = np.einsum("...i,...i->...", a[..., : k + 1], b[..., k::-1])
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self.coef / other)

    def __rtruediv__(self, other):
        return other * self.reciprocal()

    def reciprocal(self) -> "Jet":
        """Jet of 1/f; requires f nonzero on the grid."""
        a = self.coef
        n = self.order
        out = np.zeros_like(a)
        inv0 = 1.0 / a[..., 0]
        out[..., 0] = inv0
        for k in range(1, n + 1):
            acc = np.einsum("...i,...i->...", a[..., 1 : k + 1], out[..., k - 1 :: -1])
            out[..., k] = -inv0 * acc
        return Jet(out)

    def exp(self) -> "Jet":
        """Jet of exp(f), by the standard recurrence e_k = (1/k) sum i*a_i*e_{k-i}."""
        a = self.coef
        n = self.order
        out = np.zeros_like(a)
        out[..., 0] = np.exp(a[..., 0])
        i = np.arange(1, n + 1, dtype=float)
        for k in range(1, n + 1):
            acc = np.einsum("...i,...i->...", i[:k] * a[..., 1 : k + 1], out[..., k - 1 :: -1])
            out[..., k] = acc / k
        return Jet(out)

    def power(self, alpha: float) -> "Jet":
        """Jet of f**alpha; requires f > 0 on the grid (general real alpha)."""
        a = self.coef
        n = self.order
        out = np.zeros_like(a)
        a0 = a[..., 0]
        out[..., 0] = a0**alpha
        for k in range(1, n + 1):
            i = np.arange(1, k + 1, dtype=float)
            w = i * (alpha + 1.0) - k
            acc = np.einsum("...i,...i->...", w * a[..., 1 : k + 1], out[..., k - 1 :: -1])
            out[..., k] = acc / (k * a0)
        return Jet(out)


def variable(x: np.ndarray, order: int) -> Jet:
    """Jet of the identity function at the points x."""
    x = np.asarray(x, dtype=float)
    coef = np.zeros(x.shape + (order + 1,))
    coef[..., 0] = x
    if order >= 1:
        coef[..., 1] = 1.0
    return Jet(coef)


def constant(c, shape: tuple[int, ...], order: int) -> Jet:
    coef = np.zeros(shape + (order + 1,))
    coef[..., 0] = c
    return Jet(coef)


def sinh_jet(x: np.ndarray, order: int) -> Jet:
    """Jet of sinh at the points x, from the closed-form derivative cycle."""
    x = np.asarray(x, dtype=float)
    s, c = np.sinh(x), np.cosh(x)
    coef = np.empty(x.shape + (order + 1,))
    for j in range(order + 1):
        coef[..., j] = (s if j % 2 == 0 else c) / math.factorial(j)
    return Jet(coef)


def cosh_jet(x: np.ndarray, order: int) -> Jet:
    x = np.asarray(x, dtype=float)
    s, c = np.sinh(x), np.cosh(x)
    coef = np.empty(x.shape + (order + 1,))
    for j in range(order + 1):
        coef[..., j] = (c if j % 2 == 0 else s) / math.factorial(j)
    return Jet(coef)


def coth_jet(x: np.ndarray, order: int) -> Jet:
    """Jet of coth at the points x; requires x != 0."""
    return cosh_jet(x, order) / sinh_jet(x, order)


def coth(x: np.ndarray) -> np.ndarray:
    """coth(x) for x > 0, switching to the Laurent series below 1e-3.

    Direct evaluation of cosh/sinh loses relative accuracy in coth(x) - 1/x
    for tiny x; below the threshold the series 1/x + x/3 - x^3/45 + 2x^5/945
    is exact to double precision.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-3
    safe = np.where(small, 1.0, x)
    direct = np.cosh(safe) / np.sinh(safe)
    xs = np.where(small, x, 1.0)
    x2 = xs * xs
    series = 1.0 / xs + xs * (1.0 / 3.0 + x2 * (-1.0 / 45.0 + x2 * (2.0 / 945.0)))
    return np.where(small, series, direct)
