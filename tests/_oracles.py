"""Independent reference computations the test suite checks the package against.

Everything here is deliberately low-tech: closed-form integrals, dense
trapezoid rules, and one-step central differences.  Nothing imports the
quadrature, jet, or operator machinery under test.  Frozen values carry the
recipe that produced them next to them; regenerate only on purpose.
"""

import numpy as np

# int_0^inf exp(-4r) sinh^2(r) dr = (1/4)(1/2 + 1/6 - 1/2), by expanding
# sinh^2 = (e^{2r} + e^{-2r} - 2)/4 and integrating term by term
EXP4_SINH2 = 1.0 / 24.0

# Rayleigh quotient int (u')^2 dv / int u^2 dv at N=5 for
# u = exp(-2.1 r) * cutoff(flat to 20, support to 40), dv = sinh^4(r) dr.
# Produced by sharpness_quotient_trapezoid(2.1, 5, 20.0, 40.0, 4_000_001);
# a 4e6-point rule leaves ~1e-12 relative trapezoid error.
SHARPNESS_A21_N5 = 4.412194136063725


def central_diff(f, r, h=1e-4):
    """Second-order central difference of a vectorized callable."""
    r = np.asarray(r, dtype=float)
    return (f(r + h) - f(r - h)) / (2.0 * h)


def bump_values(r, center, width, power=0):
    """r^power * exp(-1/(1 - t^2)), t = (r - center)/width, zero for |t| >= 1."""
    r = np.asarray(r, dtype=float)
    t = (r - center) / width
    inside = np.abs(t) < 1.0
    ts = np.where(inside, t, 0.0)
    vals = np.where(inside, np.exp(-1.0 / (1.0 - ts * ts)), 0.0)
    return vals * r**power if power else vals


def smoothstep_values(t):
    """S(t) = sigma(t)/(sigma(t) + sigma(1-t)), sigma(t) = exp(-1/t)."""
    t = np.asarray(t, dtype=float)
    s = np.zeros_like(t)
    pos = t > 0.0
    s[pos] = np.exp(-1.0 / t[pos])
    sc = np.zeros_like(t)
    neg = t < 1.0
    sc[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    den = s + sc
    mid = pos & neg
    out = np.where(t >= 1.0, 1.0, 0.0)
    out[mid] = s[mid] / den[mid]
    return out


def smoothstep_deriv_values(t):
    """dS/dt from the quotient rule; zero outside (0, 1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    s = np.exp(-1.0 / tm)
    sc = np.exp(-1.0 / (1.0 - tm))
    ds = s / tm**2
    dsc = -sc / (1.0 - tm) ** 2
    den = s + sc
    out[mid] = (ds * den - s * (ds + dsc)) / den**2
    return out


def cutoff_values(r, flat_end, support_end):
    """1 on [0, flat_end], smoothstep down to 0 at support_end."""
    r = np.asarray(r, dtype=float)
    return smoothstep_values((support_end - r) / (support_end - flat_end))


def cutoff_deriv_values(r, flat_end, support_end):
    r = np.asarray(r, dtype=float)
    scale = 1.0 / (support_end - flat_end)
    return smoothstep_deriv_values((support_end - r) * scale) * (-scale)


def sharpness_quotient_trapezoid(a, N, flat_end, support_end, m=4_000_001):
    """The exponential-cutoff Rayleigh quotient by dense trapezoid rule."""
    r = np.linspace(1e-9, support_end, m)
    chi = cutoff_values(r, flat_end, support_end)
    dchi = cutoff_deriv_values(r, flat_end, support_end)
    log_sinh = r + np.log1p(-np.exp(-2.0 * r)) - np.log(2.0)
    env = np.exp(-2.0 * a * r + (N - 1) * log_sinh)
    num = np.trapezoid((dchi - a * chi) ** 2 * env, r)
    den = np.trapezoid(chi**2 * env, r)
    return num / den


def trapezoid_radial(values_fn, r_max, m=2_000_001):
    """int_0^rmax f(r) dr with f vectorized, on a uniform dense grid."""
    r = np.linspace(1e-12, r_max, m)
    return float(np.trapezoid(values_fn(r), r))


def trapezoid_plane(values_fn, rho_hi, y_lo, y_hi, n_rho=4001, n_y=4001, chunks=16):
    """int int f(rho, y) drho dy over the box, row-chunked to bound memory.

    ``values_fn(rho[:, None], y[None, :])`` must broadcast; the rho borders of
    each chunk are shared so the trapezoid weights compose exactly.
    """
    rho = np.linspace(1e-12, rho_hi, n_rho)
    y = np.linspace(y_lo, y_hi, n_y)
    row_integrals = np.empty(n_rho)
    step = max(1, n_rho // chunks)
    for start in range(0, n_rho, step):
        block = rho[start : start + step]
        row_integrals[start : start + step] = np.trapezoid(
            values_fn(block[:, None], y[None, :]), y, axis=1
        )
    return float(np.trapezoid(row_integrals, rho))


# chain_replay(CaseSpec(k, l, N)) for every l < k <= 6 at N = 2k + 1, as exact
# fractions.  Recorded from the replay while each parity class still had its own
# odd-order step.  The endpoints are also checked against the closed forms of
# case_leading_constants; the middle entries are pinned only here.
CHAIN_REPLAY = {
    (1, 0, 3): ("1/4",),
    (2, 0, 5): ("2", "9/16"),
    (2, 1, 5): ("1", "9/16"),
    (3, 0, 7): ("657/16", "9", "81/64"),
    (3, 1, 7): ("333/16", "9", "81/64"),
    (3, 2, 7): ("9/16", "63/16", "81/64"),
    (4, 0, 9): ("2080", "2025/4", "9009/16", "1521/256"),
    (4, 1, 9): ("1056", "2025/4", "9009/16", "1521/256"),
    (4, 2, 9): ("32", "1449/4", "9009/16", "1521/256"),
    (4, 3, 9): ("16", "729/4", "4653/16", "1521/256"),
    (5, 0, 11): ("12625625/64", "2512375/64", "11064625/128", "2185875/256", "1221025/1024"),
    (5, 1, 11): ("6375625/64", "2512375/64", "11064625/128", "2185875/256", "1221025/1024"),
    (5, 2, 11): ("125625/64", "1949875/64", "11064625/128", "2185875/256", "1221025/1024"),
    (5, 3, 11): ("63125/64", "987375/64", "5783375/128", "2185875/256", "1221025/1024"),
    (5, 4, 11): ("625/64", "9625/32", "355875/128", "865125/128", "1221025/1024"),
    (6, 0, 13): (
        "30444498",
        "81637065/16",
        "270586575/16",
        "429176475/128",
        "654929145/256",
        "28676025/4096",
    ),
    (6, 1, 13): (
        "15327954",
        "81637065/16",
        "270586575/16",
        "429176475/128",
        "654929145/256",
        "28676025/4096",
    ),
    (6, 2, 13): ("211410", "66520521/16", "270586575/16", "429176475/128", "654929145/256", "28676025/4096"),
    (6, 3, 13): ("106434", "33768009/16", "141990975/16", "429176475/128", "654929145/256", "28676025/4096"),
    (6, 4, 13): ("1458", "910521/16", "11558295/16", "387040275/128", "654929145/256", "28676025/4096"),
    (6, 5, 13): ("729", "455625/16", "5791905/16", "194535675/128", "20784195/16", "28676025/4096"),
}


# The distance-field terms of halfspace rellich1 on the first `pole` member
# (phi = bump_c0.0_w1.0_p2, psi = bump_c1.0_w0.5_p0), N = 5:
# int int v^2 y^-2 d^-2k rho^3 drho dy with v = phi(rho) psi(y), for k = 1, 2.
# Recorded at 20 digits (tanh-sinh's error estimates 1e-34 and 1e-38) by
#
#   with mpmath.workdps(20):
#       def v2(rho, y):
#           t = (y - 1) / mpmath.mpf(0.5)
#           if rho >= 1 or abs(t) >= 1:
#               return mpmath.mpf(0)
#           return (rho**2 * mpmath.exp(-1 / (1 - rho**2)) * mpmath.exp(-1 / (1 - t * t))) ** 2
#       def d2(rho, y):  # cosh d = 1 + 2 sinh^2(d/2): no cancellation near the pole
#           return (2 * mpmath.asinh(mpmath.sqrt(((y - 1) ** 2 + rho**2) / (4 * y)))) ** 2
#       for k in (1, 2):
#           f = lambda rho, y: v2(rho, y) * rho**3 / (y**2 * d2(rho, y) ** k) if rho > 0 else mpmath.mpf(0)
#           mpmath.quad(f, [0, 1], [0.5, 1, 1.5])
#
# which split the y range at the pole (0, 1), where d vanishes; about 14 s.
POLE0_RELLICH1_N5 = {"d2": "7.5130740464664336264e-5", "d4": "2.1576651188136472493e-4"}
