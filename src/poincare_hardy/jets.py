"""Vectorized truncated Taylor arithmetic.

A ``Jet`` stores, for every point of a numpy grid, the scaled derivatives
``f(x), f'(x), f''(x)/2!, ..., f^(n)(x)/n!`` of some function along one
coordinate.  Arithmetic on jets implements the product/quotient/chain rules
once, so that a test profile defined by composing primitives automatically
carries exact (to machine precision) high-order derivatives everywhere on the
grid.  This is what lets the verifier evaluate iterated Laplacians of a test
function without symbolic differentiation or finite-difference noise.

Coefficients live in an ``(order+1, ...)`` float array whose first axis is
the Taylor order, so each order is one contiguous grid-shaped slice; no other
module reads that layout.  Products are convolutions over it, and reciprocal,
exp and power share one series recurrence.  Every convolution sum starts from
0 and adds its terms in ascending index order, one slice at a time, so the
result does not depend on how numpy would group a reduction.  Two jets skip
the general product: x*f for the identity x is a shift and an add
(``Jet.times_variable``), and coth comes from the recurrence of its Riccati
equation y' = 1 - y^2 (``coth_jet``), whose sums never cancel.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Jet", "variable", "sinh_jet", "coth_jet", "coth"]


def _with_grid_ndim(coef: np.ndarray, ndim: int) -> np.ndarray:
    """``coef`` with unit grid axes inserted after the order axis up to ``ndim`` axes in all."""
    return coef.reshape(coef.shape[:1] + (1,) * (ndim - coef.ndim) + coef.shape[1:])


class Jet:
    """Truncated Taylor expansions of one function over a grid of points.

    ``coef[j]`` holds ``f^(j)(x)/j!`` at each grid point ``x``.  The trailing
    axes are an arbitrary grid shape; the grids of two operands broadcast.
    Binary operations need operands of one order.
    """

    __slots__ = ("coef",)

    def __init__(self, coef: np.ndarray):
        self.coef = np.asarray(coef, dtype=float)

    @property
    def order(self) -> int:
        return self.coef.shape[0] - 1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.coef.shape[1:]

    def value(self) -> np.ndarray:
        return self.coef[0]

    def derivative(self, j: int = 1) -> np.ndarray:
        """Unscaled j-th derivative values, f^(j)(x)."""
        if not 0 <= j <= self.order:
            raise ValueError(f"derivative order {j} outside jet order {self.order}")
        return self.coef[j] * math.factorial(j)

    def shift(self) -> "Jet":
        """The jet of f', one order shorter."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        j = np.arange(1, self.order + 1, dtype=float)
        return Jet(self.coef[1:] * _with_grid_ndim(j, self.coef.ndim))

    def truncate(self, order: int) -> "Jet":
        """Drop coefficients above the given order."""
        if order > self.order:
            raise ValueError(f"cannot extend an order-{self.order} jet to order {order}")
        return Jet(self.coef[: order + 1])

    def _operands(self, other: "Jet") -> tuple[np.ndarray, np.ndarray]:
        """Both coefficient arrays with their grid axes aligned; refuses jets of different orders."""
        if other.order != self.order:
            raise ValueError(f"jet orders differ: {self.order} and {other.order}")
        ndim = max(self.coef.ndim, other.coef.ndim)
        return _with_grid_ndim(self.coef, ndim), _with_grid_ndim(other.coef, ndim)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._operands(other)
            return Jet(a + b)
        out = self.coef.copy()
        out[0] += other
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
        a, b = self._operands(other)
        n = self.order
        out = np.zeros((n + 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
        term = np.empty_like(out)
        # out_k = sum_{i=0..k} a_i b_{k-i}: round i adds a_i b_{k-i} to every out_k, k >= i,
        # so each sum takes its terms in ascending i
        for i in range(n + 1):
            np.multiply(a[i], b[: n + 1 - i], out=term[i:])
            out[i:] += term[i:]
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
        inv0 = 1.0 / self.value()
        return self._recurrence(inv0, None, lambda acc, k: -inv0 * acc)

    def exp(self) -> "Jet":
        """Jet of exp(f), by the standard recurrence e_k = (1/k) sum i*a_i*e_{k-i}."""
        return self._recurrence(np.exp(self.value()), lambda i, k: i, lambda acc, k: acc / k)

    def power(self, alpha: float) -> "Jet":
        """Jet of f**alpha; requires f > 0 on the grid (general real alpha)."""
        a0 = self.value()
        return self._recurrence(a0**alpha, lambda i, k: i * (alpha + 1.0) - k, lambda acc, k: acc / (k * a0))

    def _recurrence(self, first, weights, finish) -> "Jet":
        """The series recurrence out_k = finish(sum_{i=1..k} w_{k,i} a_i out_{k-i}, k), out_0 = first.

        ``weights(i, k)`` gives w_{k,i} over the float array i = 1..k; None means
        all ones and skips the product.  w_{k,i} a_i is rounded before it meets
        out_{k-i}, and the sum starts from 0 and runs over ascending i.
        """
        a = self.coef
        out = np.zeros_like(a)
        out[0] = first
        i = np.arange(1, self.order + 1, dtype=float)
        for k in range(1, self.order + 1):
            head = a[1 : k + 1]
            terms = head if weights is None else _with_grid_ndim(weights(i[:k], k), a.ndim) * head
            terms = terms * out[k - 1 :: -1]
            acc = np.zeros(a.shape[1:])
            for term in terms:
                acc += term
            out[k] = finish(acc, k)
        return Jet(out)

    def times_variable(self, x: np.ndarray) -> "Jet":
        """Jet of x*f, x the identity at this jet's points: coefficient k is x f_k + f_{k-1}.

        The product with ``variable(x, order)`` in O(order) array passes; its
        two nonzero terms make the same sum, so the floats agree.
        """
        out = self.coef * np.asarray(x, dtype=float)
        out[1:] += self.coef[:-1]
        return Jet(out)

    def where(self, mask: np.ndarray) -> "Jet":
        """This jet where ``mask`` holds, the zero jet elsewhere."""
        return Jet(np.where(mask, self.coef, 0.0))

    def with_value(self, value: np.ndarray) -> "Jet":
        """This jet with its order-0 coefficient replaced by ``value``."""
        coef = self.coef.copy()
        coef[0] = value
        return Jet(coef)


def variable(x: np.ndarray, order: int) -> Jet:
    """Jet of the identity function at the points x."""
    x = np.asarray(x, dtype=float)
    coef = np.zeros((order + 1,) + x.shape)
    coef[0] = x
    if order >= 1:
        coef[1] = 1.0
    return Jet(coef)


def sinh_jet(x: np.ndarray, order: int) -> Jet:
    """Jet of sinh at the points x, from the closed-form derivative cycle sinh, cosh, sinh, ..."""
    x = np.asarray(x, dtype=float)
    cycle = (np.sinh(x), np.cosh(x))
    coef = np.empty((order + 1,) + x.shape)
    for j in range(order + 1):
        coef[j] = cycle[j % 2] / math.factorial(j)
    return Jet(coef)


def coth_jet(x: np.ndarray, order: int) -> Jet:
    """Jet of coth at the points x; requires x != 0.

    coth solves the Riccati equation y' = 1 - y^2, so y_1 = -1/sinh^2(x) and
    (k+1) y_{k+1} = -sum_{i=0..k} y_i y_{k-i} for k >= 1.  For x > 0 the sign
    of y_i is (-1)^i, so every term of a sum has the sign (-1)^k and nothing
    cancels: coefficient 1 keeps full relative precision at large x, where
    1 - coth^2 would round to 0.  The reciprocal is taken before squaring:
    sinh^2 overflows past x = 355, while (1/sinh)^2 underflows quietly to 0
    past x = 373 and is -0.0, silently, where sinh overflows past 710.  Each
    sum pairs y_i with y_{k-i} once, i < k - i, in ascending i, doubles the
    pairs (exactly) and adds the middle square last; it accumulates in place
    in y_{k+1}, through one scratch array.
    """
    x = np.asarray(x, dtype=float)
    y = np.empty((order + 1,) + x.shape)
    y[0] = coth(x)
    if order >= 1:
        with np.errstate(over="ignore"):
            y[1] = -((1.0 / np.sinh(x)) ** 2)
    term = np.empty(x.shape)
    for k in range(1, order):
        acc = y[k + 1]
        np.multiply(y[0], y[k], out=acc)
        for i in range(1, (k + 1) // 2):
            acc += np.multiply(y[i], y[k - i], out=term)
        acc *= 2.0
        if k % 2 == 0:
            acc += np.multiply(y[k // 2], y[k // 2], out=term)
        acc /= -(k + 1)
    return Jet(y)


def coth(x: np.ndarray) -> np.ndarray:
    """coth(x) = cosh(x) / sinh(x) for x != 0.

    Both functions keep full relative precision and nothing cancels: on
    [1e-9, 5] the ratio is within 2.4 ulp of a 40-digit coth.  It is +-1.0 past |x| = 710.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.cosh(x) / np.sinh(x)
    nan = np.isnan(c)  # inf/inf where cosh and sinh overflow; the np.where pass runs only then
    return np.where(nan & ~np.isnan(x), np.copysign(1.0, x), c) if nan.any() else c
