"""Shared parameter tables and oracles for the test suites."""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import binom, eval_gegenbauer, gammaln, gammasgn

from spherekernels import catalog, kernel
from spherekernels.sphere import pairwise_angles

# One spec per family at catalog defaults.
DEFAULT_SPECS = [kernel(name) for name in (
    "powered_exponential",
    "matern",
    "generalized_cauchy",
    "dagum",
    "multiquadric",
    "sine_power",
    "spherical",
    "askey",
    "wendland_c2",
    "wendland_c4",
    "gaspari_cohn",
    "cosine",
)]

# Default members that are strictly positive definite (all but cosine).
STRICT_DEFAULT_SPECS = [s for s in DEFAULT_SPECS if s.family != "cosine"]

# Default members whose profile is defined on Euclidean distances.
EUCLIDEAN_DEFAULT_SPECS = [
    s
    for s in DEFAULT_SPECS
    if s.family not in ("multiquadric", "sine_power", "cosine")
]

# Three in-range parameter points per family (one for the parameterless
# cosine).  Scales are kept moderate so that truncation at n = 200 leaves
# only a small coefficient tail.
IN_RANGE_POINTS = {
    "powered_exponential": [
        {"c": 0.8, "alpha": 0.5},
        {"c": 1.0, "alpha": 0.8},
        {"c": 2.0, "alpha": 1.0},
    ],
    "matern": [
        {"c": 0.75, "nu": 0.25},
        {"c": 1.0, "nu": 0.4},
        {"c": 1.5, "nu": 0.5},
    ],
    "generalized_cauchy": [
        {"c": 1.0, "alpha": 0.8, "tau": 1.0},
        {"c": 1.0, "alpha": 1.0, "tau": 2.0},
        {"c": 2.0, "alpha": 0.8, "tau": 0.5},
    ],
    "dagum": [
        {"c": 1.0, "tau": 1.0, "alpha": 0.5},
        {"c": 1.0, "tau": 0.8, "alpha": 0.5},
        {"c": 2.0, "tau": 1.0, "alpha": 0.7},
    ],
    "multiquadric": [
        {"tau": 0.5, "delta": 0.5},
        {"tau": 1.5, "delta": 0.3},
        {"tau": 1.0, "delta": 0.7},
    ],
    "sine_power": [
        {"alpha": 0.5},
        {"alpha": 1.0},
        {"alpha": 1.5},
    ],
    "spherical": [
        {"c": 1.0},
        {"c": math.pi / 2},
        {"c": math.pi},
    ],
    "askey": [
        {"c": 1.0, "tau": 2.0},
        {"c": math.pi / 2, "tau": 3.0},
        {"c": math.pi, "tau": 2.0},
    ],
    "wendland_c2": [
        {"c": 1.0, "tau": 4.0},
        {"c": math.pi / 2, "tau": 5.0},
        {"c": math.pi, "tau": 4.0},
    ],
    "wendland_c4": [
        {"c": 1.0, "tau": 6.0},
        {"c": math.pi / 2, "tau": 7.0},
        {"c": math.pi, "tau": 6.0},
    ],
    "gaspari_cohn": [
        {"c": 1.0},
        {"c": math.pi / 2},
        {"c": math.pi},
    ],
    "cosine": [{}],
}


def gegenbauer_connection(n, lam, nu, x):
    """Expand C_n^lam in the C^nu basis: the classical Gegenbauer connection sum.

    Valid for lam > nu > 0; an oracle for the recurrence (the connection
    coefficients are positive, which is the strict-positivity argument).
    The C^nu terms are scipy's, independent of the package.
    """
    assert lam > nu > 0, "connection sum needs lam > nu > 0"
    pref = math.gamma(nu) / (math.gamma(lam) * math.gamma(lam - nu))
    arr = np.asarray(x, dtype=float)
    total = np.zeros_like(arr)
    for k in range(n // 2 + 1):
        coeff = (
            (n - 2 * k + nu)
            * math.gamma(k + lam - nu)
            * math.gamma(n - k + lam)
            / (math.factorial(k) * math.gamma(n - k + nu + 1))
        )
        total += coeff * eval_gegenbauer(n - 2 * k, nu, arr)
    return pref * total


def _circle_scale(n_max):
    """g_n on S^1: 1/pi at n = 0 and 2/pi after."""
    return np.where(np.arange(n_max + 1) == 0, 1.0 / math.pi, 2.0 / math.pi)


def circle_exponential_coeffs(c, n_max):
    """Exact b_n, n = 0..n_max, of exp(-theta/c) on S^1.

    b_n = g_n c (1 - (-1)^n e^{-pi/c}) / (1 + c^2 n^2), the cosine integral in
    closed form; matern nu = 1/2 and powered_exponential alpha = 1 are this psi.
    """
    n = np.arange(n_max + 1)
    sign = np.where(n % 2 == 0, 1.0, -1.0)
    return _circle_scale(n_max) * c * (1.0 - sign * math.exp(-math.pi / c)) / (1.0 + (c * n) ** 2)


def circle_sine_power_coeffs(alpha, n_max):
    """Exact b_n, n = 0..n_max, of 1 - sin(theta/2)^alpha on S^1, alpha in (0, 2).

    b_n = delta_{n0} - g_n 2 pi (-1)^n Gamma(alpha+1)
          / (2^{alpha+1} Gamma(alpha/2+n+1) Gamma(alpha/2-n+1)).
    The reflection formula turns 1/Gamma(alpha/2-n+1) into
    -(-1)^n sin(pi alpha/2) Gamma(n-alpha/2) / pi, whose Gamma is negative
    at n = 0 (hence ``gammasgn``); all Gammas enter through ``gammaln``.
    """
    n = np.arange(n_max + 1)
    h = alpha / 2.0
    log_ratio = gammaln(alpha + 1.0) + gammaln(n - h) - gammaln(h + n + 1.0)
    b = _circle_scale(n_max) * 2.0 * math.sin(math.pi * h) / 2.0 ** (alpha + 1.0)
    b *= gammasgn(n - h) * np.exp(log_ratio)
    b[0] += 1.0
    return b


def sphere_sine_power_coeffs(alpha, n_max):
    """Exact b_{n,2}, n = 0..n_max, of 1 - sin(theta/2)^alpha on S^2, alpha in (0, 2].

    With beta = alpha/2, b_n = delta_{n0} - (2n+1)/2 2^{-beta} J_n and
    J_n = (-1)^n 2^{beta+1} Gamma(beta+1)^2 / (Gamma(beta+n+2) Gamma(beta-n+1)),
    so b_n = delta_{n0} - (-1)^n (2n+1) Gamma(beta+1)^2 / (Gamma(beta+n+2) Gamma(beta-n+1)).
    1/Gamma(beta-n+1) is 0 at a pole (alpha = 2 gives b_0 = b_1 = 1/2) and
    otherwise enters through ``gammaln`` and ``gammasgn``.
    """
    n = np.arange(n_max + 1)
    beta = alpha / 2.0
    z = beta - n + 1.0
    pole = (z <= 0) & (z == np.floor(z))
    z = np.where(pole, 0.5, z)  # any non-pole: its terms are zeroed below
    log_mag = 2.0 * gammaln(beta + 1.0) - gammaln(beta + n + 2.0) - gammaln(z)
    sign = np.where(n % 2 == 0, 1.0, -1.0) * gammasgn(z)
    b = np.where(pole, 0.0, -(2.0 * n + 1.0) * sign * np.exp(log_mag))
    b[0] += 1.0
    return b


def multiquadric_coeffs(delta, d, n_max):
    """Exact b_{n,d}, n = 0..n_max, of the multiquadric at tau = (d-1)/2 on S^d, d >= 2.

    With lam = tau the Gegenbauer generating function
    (1 - 2 delta x + delta^2)^{-lam} = sum_n delta^n C_n^lam(x) gives
    b_{n,d} = (1-delta)^{d-1} delta^n C_n^lam(1), and C_n^lam(1) = binom(n+d-2, n).
    """
    n = np.arange(n_max + 1)
    return (1.0 - delta) ** (d - 1) * delta**n * binom(n + d - 2, n)


def cosine_coeffs(n_max):
    """Exact b_{n,d}, n = 0..n_max, of cos(theta) on every S^d: delta_{n1}, since R_1(x) = x."""
    return np.eye(1, n_max + 1, 1)[0]


def legendre_from_fourier(b, n_out, k_tail):
    """b_{n,2}, n = 0..n_out, from cosine coefficients b_0..b_{n_out+2 k_tail+2} on S^1.

    The cosine-to-Legendre series b_{n,2} = 1/2 sum_{k<=k_tail} c_k^n (b*_{n+2k} - b_{n+2k+2}),
    with b* = b except b*_0 = 2 b_0 (halved from its printed form, which gives
    twice the sum-to-one coefficients) and
    c_k^n = (n+1/2) Gamma(k+1/2) Gamma(n+k+1) / (Gamma(k+1) Gamma(n+k+3/2)),
    in log space over the whole (n, k) table; an oracle for d = 2 quadrature.
    """
    b = np.asarray(b, dtype=float)
    assert b.size >= n_out + 2 * k_tail + 3, "series needs b up to n_out + 2 k_tail + 2"
    n = np.arange(n_out + 1.0)[:, None]
    k = np.arange(k_tail + 1.0)
    m = np.arange(n_out + k_tail + 1.0)
    log_c = np.log(n + 0.5) + (gammaln(k + 0.5) - gammaln(k + 1.0))
    log_c += sliding_window_view(gammaln(m + 1.0) - gammaln(m + 1.5), k_tail + 1)  # [n, k] at n + k
    diff = b[: n_out + 2 * k_tail + 1] - b[2 : n_out + 2 * k_tail + 3]
    diff[0] += b[0]
    terms = sliding_window_view(diff, 2 * k_tail + 1)[:, ::2]  # [n, k] at n + 2k
    return 0.5 * np.einsum("nk,nk->n", np.exp(log_c), terms)


def full_gram(kern, pts):
    """The reference Gram matrix: the psi of ``catalog.as_psi`` on every pair of points."""
    psi, _ = catalog.as_psi(kern)
    return psi(pairwise_angles(pts.points, pts.points))
