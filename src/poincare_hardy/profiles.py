"""Smooth compactly supported radial test profiles with jet evaluation.

Every profile knows its support and can evaluate a truncated Taylor jet of
itself at an array of points, which is what the differential operators
consume.  Outside the support all jet coefficients are exactly zero, so
integrands built from these profiles vanish identically there.

No profile's coefficient j depends on the order the jet was asked for: each
comes from the lower ones alone.  The verifier's memo of integrals relies on
it.  A Bump's core exp(-1/(1 - t^2)) solves a linear ODE, so its jet comes
from a short linear recurrence (``_bump_core``) rather than from composing
the series of t^2, a reciprocal and exp.  Its r^p factor is p shifts
(``times_power``): r f has coefficients r f_k + f_{k-1}, so no full jet
product is formed.  A profile names that factor through ``power_split``,
(base, p) with the profile equal to r^p * base, so a caller that holds the
jet of base serves every power p from it: ``operators`` builds a Bump's
masked core once per grid for all the suite members on its support.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .jets import Jet, variable

__all__ = [
    "RadialProfile",
    "Bump",
    "SmoothWindow",
    "Cutoff",
    "ExpDecay",
    "Scaled",
    "Product",
    "profile_from_descriptor",
    "load_suite",
    "load_halfspace_suite",
    "suite_names",
    "halfspace_suite_names",
    "suite_version",
]

# lanes this close to a support edge are treated as outside; the true values
# there underflow to zero in double precision anyway
_EDGE = 1e-12


def _smoothstep(t: Jet) -> Jet:
    """Jet of S(t) = sigma(t)/(sigma(t)+sigma(1-t)), sigma(t) = exp(-1/t).

    S is 0 for t <= 0, 1 for t >= 1, and strictly increasing between.  The
    guard keeps 1/t finite in the off lanes; exp then underflows to an exact
    zero jet, which is the correct limit.
    """
    v = t.value()
    lo = v <= 1e-8
    hi = v >= 1.0 - 1e-8
    mid = ~(lo | hi)
    ts = t.with_value(np.where(mid, v, 0.5))
    sig = (-ts.reciprocal()).exp()
    one_minus = -ts + 1.0
    sig_c = (-one_minus.reciprocal()).exp()
    s = (sig / (sig + sig_c)).where(mid)
    return s.with_value(np.where(hi, 1.0, s.value()))


class RadialProfile:
    """Base class: a smooth function of r >= 0 with jet evaluation."""

    @property
    def support(self) -> tuple[float, float] | None:
        """(start, end) outside of which the profile vanishes; None if unbounded."""
        raise NotImplementedError

    @property
    def id(self) -> str:
        raise NotImplementedError

    def jet(self, r: np.ndarray, order: int) -> Jet:
        raise NotImplementedError

    def power_split(self) -> tuple["RadialProfile", int]:
        """(base, p) with this profile equal to r^p * base: its jet is ``times_power`` of base's."""
        return self, 0

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.jet(np.asarray(r, dtype=float), 0).value()


@dataclass(frozen=True)
class Bump(RadialProfile):
    """r^power * exp(-1/(1-t^2)) with t = (r-center)/width, zero for |t| >= 1."""

    center: float
    width: float
    power: int = 0

    def __post_init__(self):
        # lo < hi < inf also rejects nan and a center so large that center +- width round to one float
        lo, hi = self.support
        if not lo < hi < np.inf:
            raise ValueError(f"bump needs width > 0 and a support lo < hi < inf, got {self.id} on ({lo}, {hi})")
        if type(self.power) is not int or self.power < 0:
            raise ValueError(f"bump power must be an int >= 0, got {self.power!r}")

    @property
    def support(self) -> tuple[float, float]:
        return (max(self.center - self.width, 0.0), self.center + self.width)

    @property
    def id(self) -> str:
        return f"bump_c{self.center}_w{self.width}_p{self.power}"

    def power_split(self) -> tuple["Bump", int]:
        return Bump(self.center, self.width), self.power

    def jet(self, r: np.ndarray, order: int) -> Jet:
        r = np.asarray(r, dtype=float)
        if self.power:
            base, p = self.power_split()
            return times_power(base.jet(r, order), r, p)
        inv_w = 1.0 / self.width
        t = (r - self.center) * inv_w
        inside = np.abs(t) < 1.0 - _EDGE
        return _bump_core(np.where(inside, t, 0.0), inv_w, order).where(inside)


def times_power(jet: Jet, r: np.ndarray, p: int) -> Jet:
    """Jet of r^p f from the jet of f at the points r: p shifts ``Jet.times_variable``.

    A shift keeps an exact zero jet zero, so a masked jet stays masked.
    """
    for _ in range(p):
        jet = jet.times_variable(r)
    return jet


def _bump_core(t: np.ndarray, inv_w: float, order: int) -> Jet:
    """Jet in r of f = exp(-1/A), A = 1 - t^2, at the points t = (r - center) * inv_w, all |t| < 1.

    f solves the linear ODE A^2 f' = A' f, so its Taylor coefficients follow a
    linear recurrence.  In h = r - r0, A = a0 + a1 h + a2 h^2, A' = a1 + 2 a2 h
    and A^2 = p0 + ... + p4 h^4; matching h^k on both sides gives
    (k+1) p0 f_{k+1} = a1 f_k + 2 a2 f_{k-1} - sum_{j=1..min(4,k)} (k+1-j) p_j f_{k+1-j}.
    Each coefficient costs O(1) array passes, and none depends on ``order``.
    """
    a0 = 1.0 - t * t
    a1 = -2.0 * inv_w * t
    a2 = -inv_w * inv_w
    p = (a0 * a0, 2.0 * a0 * a1, a1 * a1 + 2.0 * a0 * a2, 2.0 * a1 * a2, a2 * a2)
    f = np.empty((order + 1,) + t.shape)
    f[0] = np.exp(-1.0 / a0)
    for k in range(order):
        acc = a1 * f[k]
        if k:
            acc += 2.0 * a2 * f[k - 1]
        for j in range(1, min(4, k) + 1):
            acc -= (k + 1 - j) * p[j] * f[k + 1 - j]
        f[k + 1] = acc / ((k + 1) * p[0])
    return Jet(f)


@dataclass(frozen=True)
class SmoothWindow(RadialProfile):
    """Flat-top window: 1 on [lo+ramp, hi-ramp], smoothstep edges, 0 outside [lo, hi]."""

    lo: float
    hi: float
    ramp: float

    def __post_init__(self):
        if not self.hi - self.lo > 2.0 * self.ramp > 0.0:
            raise ValueError("window needs hi - lo > 2*ramp > 0")

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    @property
    def id(self) -> str:
        return f"window_{self.lo}_{self.hi}_r{self.ramp}"

    def jet(self, r: np.ndarray, order: int) -> Jet:
        r = np.asarray(r, dtype=float)
        rj = variable(r, order)
        rise = _smoothstep((rj - self.lo) * (1.0 / self.ramp))
        fall = _smoothstep((-rj + self.hi) * (1.0 / self.ramp))
        return rise * fall


@dataclass(frozen=True)
class Cutoff(RadialProfile):
    """1 on [0, flat_end], smoothstep down to 0 at support_end."""

    flat_end: float
    support_end: float

    def __post_init__(self):
        if not 0.0 < self.flat_end < self.support_end:
            raise ValueError("cutoff needs 0 < flat_end < support_end")

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, self.support_end)

    @property
    def id(self) -> str:
        return f"cutoff_{self.flat_end}_{self.support_end}"

    def jet(self, r: np.ndarray, order: int) -> Jet:
        r = np.asarray(r, dtype=float)
        rj = variable(r, order)
        scale = 1.0 / (self.support_end - self.flat_end)
        return _smoothstep((-rj + self.support_end) * scale)


@dataclass(frozen=True)
class ExpDecay(RadialProfile):
    """exp(-rate * r); unbounded support, integrate with an explicit r_max."""

    rate: float

    @property
    def support(self) -> None:
        return None

    @property
    def id(self) -> str:
        return f"exp_a{self.rate}"

    def jet(self, r: np.ndarray, order: int) -> Jet:
        r = np.asarray(r, dtype=float)
        return (variable(r, order) * (-self.rate)).exp()


@dataclass(frozen=True)
class Scaled(RadialProfile):
    """Constant multiple of a base profile."""

    base: RadialProfile
    factor: float

    @property
    def support(self):
        return self.base.support

    @property
    def id(self) -> str:
        return f"{self.factor}*{self.base.id}"

    def jet(self, r: np.ndarray, order: int) -> Jet:
        return self.base.jet(r, order) * self.factor


@dataclass(frozen=True)
class Product(RadialProfile):
    """Pointwise product of profiles; support is the intersection."""

    factors: tuple[RadialProfile, ...]

    def __post_init__(self):
        support = self.support
        if support is not None and not support[0] < support[1]:
            raise ValueError(f"product of {self.id} has an empty support {support}")

    @property
    def support(self):
        bounded = [f.support for f in self.factors if f.support is not None]
        if not bounded:
            return None
        lo = max(s[0] for s in bounded)
        hi = min(s[1] for s in bounded)
        return (lo, hi)

    @property
    def id(self) -> str:
        return "*".join(f.id for f in self.factors)

    def jet(self, r: np.ndarray, order: int) -> Jet:
        out = self.factors[0].jet(r, order)
        for f in self.factors[1:]:
            out = out * f.jet(r, order)
        return out


_KINDS = {
    "bump": lambda d: Bump(d["center"], d["width"], d.get("power", 0)),
    "window": lambda d: SmoothWindow(d["lo"], d["hi"], d["ramp"]),
}


def profile_from_descriptor(d: dict) -> RadialProfile:
    try:
        build = _KINDS[d["kind"]]
    except KeyError:
        raise ValueError(f"unknown profile kind {d.get('kind')!r}") from None
    return build(d)


@functools.lru_cache(maxsize=1)
def _manifest() -> dict:
    text = resources.files(__package__).joinpath("suites.json").read_text()
    return json.loads(text)


def suite_version() -> int:
    return _manifest()["version"]


def suite_names() -> tuple[str, ...]:
    return tuple(sorted(_manifest()["radial"]))


def halfspace_suite_names() -> tuple[str, ...]:
    return tuple(sorted(_manifest()["halfspace"]))


def load_suite(name: str) -> tuple[RadialProfile, ...]:
    """Named family of radial test profiles from the shipped manifest."""
    table = _manifest()["radial"]
    if name not in table:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(sorted(table))}")
    return tuple(profile_from_descriptor(d) for d in table[name])


def load_halfspace_suite(name: str) -> tuple[tuple[RadialProfile, RadialProfile], ...]:
    """Named family of separable half-space members as (phi, psi) pairs."""
    table = _manifest()["halfspace"]
    if name not in table:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(sorted(table))}")
    return tuple(
        (profile_from_descriptor(d["phi"]), profile_from_descriptor(d["psi"])) for d in table[name]
    )
