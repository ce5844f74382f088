"""Shared parameter tables and oracles for the test suites."""

import math

import numpy as np
from scipy.special import eval_gegenbauer

from spherekernels import kernel

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
