"""Orthogonal polynomials, modified Bessel functions and Gauss-Legendre rules.

Every Gegenbauer (ultraspherical) evaluation streams one recurrence, row
by row and two rows held, for the normalized R_n = C_n^lambda(x) / C_n^lambda(1):

    R_0 = 1,  R_1 = x,
    (n + 2*lambda) R_{n+1} = 2 (n + lambda) x R_n - n R_{n-1}.

It keeps every value in [-1, 1], which makes it the numerically preferred
form for large n.  At lambda = 0 it is the Chebyshev recurrence
R_{n+1} = 2 x R_n - R_{n-1}, so R_n(cos theta) = cos(n theta) is the
cosine basis of the circle.  The classical C_n^lambda is R_n scaled by
C_n^lambda(1) (taken as 1 at lambda = 0), and the Legendre polynomials
are the lambda = 1/2 case.  The (n + 1) x len(x) table is built from the stream.

Every integer count in the package (degrees, orders, dimensions, sizes)
passes one gate, ``_check_count``: an integer >= its floor, where an
integral float such as 3.0 counts and NaN, inf and 2.5 do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special as _sp

from .errors import DomainError

__all__ = [
    "QuadratureRule",
    "BESSEL_K_MIN_T",
    "bessel_k",
    "gauss_legendre",
    "gegenbauer",
    "gegenbauer_normalized",
    "gegenbauer_normalized_table",
    "gegenbauer_one",
    "legendre",
]

# Arguments below this floor signal overflow instead of evaluating K_nu.
BESSEL_K_MIN_T = 1e-30


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on [-1, 1]: strictly increasing nodes, positive weights."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


@lru_cache(maxsize=256)
def _leggauss_cached(m: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(m)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _check_count(name: str, value, lo: int, error: type[Exception] = DomainError) -> int:
    """The count gate: ``value`` as an int when it is an integer >= lo; NaN, inf and 2.5 fail.

    An integral float (3.0) or a numpy integer passes.  ``error`` is the
    exception raised otherwise; sphere dimensions of coefficient sequences
    use DimensionMismatchError.
    """
    if not (value >= lo and float(value).is_integer()):
        raise error(f"{name} must be an integer >= {lo}, got {value}")
    return int(value)


def gauss_legendre(m: int) -> QuadratureRule:
    """Return the m-point Gauss-Legendre rule on [-1, 1]."""
    m = _check_count("quadrature order", m, 1)
    x, w = _leggauss_cached(m)
    return QuadratureRule(nodes=x, weights=w, order=m)


def _check_poly_args(n: int, lam: float, x) -> tuple[int, np.ndarray]:
    """The basis-argument gate: n a count, lam >= 0 and x in [-1, 1] within 1e-12, clipped.

    Returns n as an int and the clipped x; NaN fails.
    """
    n = _check_count("polynomial degree", n, 0)
    if not lam >= 0:
        raise DomainError(f"Gegenbauer parameter must be >= 0, got {lam}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) <= 1.0 + 1e-12):
        raise DomainError("Gegenbauer argument must lie in [-1, 1]")
    return n, np.clip(arr, -1.0, 1.0)


def gegenbauer_one(n: int, lam: float) -> float:
    """C_n^lam(1) = Gamma(n + 2 lam) / (n! Gamma(2 lam)); equals 1 when lam = 0."""
    n, _ = _check_poly_args(n, lam, 1.0)
    if lam == 0.0:
        return 1.0
    value = 1.0
    for k in range(1, n + 1):
        value *= (k - 1 + 2.0 * lam) / k
    return value


def _normalized_rows(n_max: int, lam: float, x: np.ndarray) -> Iterator[np.ndarray]:
    """Yield R_0(x), ..., R_{n_max}(x) for unchecked x in [-1, 1], two rows held at a time."""
    prev, cur = np.ones_like(x), x
    yield prev
    for k in range(1, n_max + 1):
        yield cur
        if k < n_max:
            prev, cur = cur, (2.0 * (k + lam) * x * cur - k * prev) / (k + 2.0 * lam)


def gegenbauer_normalized_table(n_max: int, lam: float, x: np.ndarray) -> np.ndarray:
    """Table of C_n^lam(x)/C_n^lam(1) for n = 0..n_max, shape (n_max + 1, len(x)).

    At lam = 0 the rows are the Chebyshev polynomials, cos(n arccos x).
    """
    n_max, arr = _check_poly_args(n_max, lam, x)
    table = np.empty((n_max + 1, arr.size))
    for k, row in enumerate(_normalized_rows(n_max, lam, arr)):
        table[k] = row
    return table


def gegenbauer_normalized(n: int, lam: float, x):
    """Evaluate C_n^lam(x) / C_n^lam(1), keeping two rows of the recurrence."""
    n, arr = _check_poly_args(n, lam, x)
    for out in _normalized_rows(n, lam, arr):
        pass
    return float(out) if arr.ndim == 0 else out


def gegenbauer(n: int, lam: float, x):
    """Evaluate C_n^lam(x) for x in [-1, 1], lam >= 0.

    For lam = 0 returns cos(n * arccos x), the continuous limit used for
    expansions on the circle.
    """
    return gegenbauer_one(n, lam) * gegenbauer_normalized(n, lam, x)


def legendre(n: int, x):
    """Legendre polynomial P_n(x) = C_n^{1/2}(x), which is already normalized."""
    return gegenbauer_normalized(n, 0.5, x)


def bessel_k(nu: float, t):
    """Modified Bessel function of the second kind K_nu(t) for nu > 0, t > 0.

    Accurate to better than 1e-10 relative for nu in (0, 5] and
    t in [1e-8, 50].  Arguments below ``BESSEL_K_MIN_T`` raise OverflowError.
    """
    if not nu > 0:
        raise DomainError(f"Bessel order must be > 0, got {nu}")
    arr = np.asarray(t, dtype=float)
    if not np.all(arr > 0):
        raise DomainError("Bessel argument must be > 0")
    if not np.all(arr >= BESSEL_K_MIN_T):
        raise OverflowError(f"K_nu overflows for t < {BESSEL_K_MIN_T}")
    out = _sp.kv(nu, arr)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"K_{nu} overflowed at t={arr[~np.isfinite(out)][:3]}")
    return float(out) if arr.ndim == 0 else out
