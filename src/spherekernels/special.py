"""Orthogonal polynomials, modified Bessel functions and Gauss-Legendre rules.

Every Gegenbauer (ultraspherical) evaluation runs one recurrence for the
normalized R_n = C_n^lambda(x) / C_n^lambda(1):

    R_0 = 1,  R_1 = x,
    R_{n+1} = a_n x R_n - b_n R_{n-1},
    a_n = 2 (n + lambda) / (n + 2 lambda),  b_n = n / (n + 2 lambda).

It keeps every value in [-1, 1], which makes it the numerically preferred
form for large n.  At lambda = 0 it is the Chebyshev recurrence
R_{n+1} = 2 x R_n - R_{n-1}, so R_n(cos theta) = cos(n theta) is the
cosine basis of the circle.  The rows are produced in blocks of at most
32 rows in one buffer of about 2^17 entries (1 MB).  Each block starts
from two normalized rows and runs the rescaled recurrence
S_{n+1} = (2x) S_n - beta_n S_{n-1} with R_n = s_n S_n, one product and one
BLAS axpy per row; s_n is a product of at most 32 factors in [1/2, 1], so
it neither underflows nor overflows, and at lambda = 0 it is exactly 1.
Callers consume a block whole: the (n + 1) x len(x) table, a
reconstruction (every d), or a Schoenberg projection at d >= 6 (two
strided matrix-vector products per block, one on its even rows and one on
its odd rows).  ``schoenberg`` projects d = 1 and 2 from trigonometric
moments instead, and walks them up to d = 3, 4 and 5.

``gauss_legendre(m)`` is the one Gauss-Legendre builder; ``schoenberg``'s theta rule uses it.

Every integer count in the package (degrees, orders, dimensions, sizes)
passes one gate, ``_check_count``: an integer >= its floor, where an
integral float such as 3.0 counts and NaN, inf and 2.5 do not.  Every
tolerance (and the interpolation ridge) passes ``_check_tolerance``: a
finite number >= 0, so that NaN, inf and -1 fail.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special as _sp
from scipy.linalg.blas import daxpy

from .errors import DomainError

__all__ = [
    "BESSEL_K_MIN_T",
    "bessel_k",
    "gauss_legendre",
    "gegenbauer_normalized_table",
]

# Arguments below this floor signal overflow instead of evaluating K_nu.
BESSEL_K_MIN_T = 1e-30

# The coefficients (n+k)! / (k! (n-k)! 2^k), k = 0..n, of K_{n+1/2} in powers
# of 1/t.  For n <= 15 they are integers below 2^53, so exact in a double.
_K_HALF_COEFFS = tuple(
    tuple(
        float(math.factorial(n + k) // (math.factorial(k) * math.factorial(n - k) * 2**k))
        for k in range(n + 1)
    )
    for n in range(16)
)


def _check_count(name: str, value, lo: int, error: type[Exception] = DomainError) -> int:
    """The count gate: ``value`` as an int when it is an integer >= lo; NaN, inf and 2.5 fail.

    An integral float (3.0) or a numpy integer passes.  ``error`` is the
    exception raised otherwise; sphere dimensions of coefficient sequences
    use DimensionMismatchError.
    """
    if not (value >= lo and float(value).is_integer()):
        raise error(f"{name} must be an integer >= {lo}, got {value}")
    return int(value)


def _check_tolerance(name: str, value) -> float:
    """The tolerance gate: ``value`` as a float when it is finite and >= 0; NaN and inf fail."""
    if not 0 <= value < math.inf:
        raise DomainError(f"{name} must be finite and >= 0, got {value}")
    return float(value)


@lru_cache(maxsize=256)
def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [-1, 1] as read-only (nodes, weights),
    memoized on m.  A bad m raises DomainError, and errors are not cached."""
    x, w = leggauss(_check_count("quadrature order", m, 1))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


_BLOCK_ROWS = 32  # rows per block; the scale s_n stays within [2^-32, 1]
_BLOCK_ENTRIES = 2**17  # the block buffer, start rows included, holds about this many values


def _block_rows(size: int) -> int:
    """Rows per block for ``size`` points: at least 1, at most 32, buffer near 2^17 entries."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_ENTRIES // size - 2))


def _block_recurrence(n_max: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """For n = 1..n_max-1, h_n = a_n / 2, the growth of s from row n to row n + 1;
    and for n = 2..n_max-1, beta_n = b_n / (h_n h_{n-1}), the weight of row
    n - 1 in a row that does not start a block."""
    n = np.arange(1.0, n_max)
    h = (n + lam) / (n + 2.0 * lam)
    return h, n[1:] / (n[1:] + 2.0 * lam) / (h[1:] * h[:-1])


def _normalized_blocks(
    n_max: int, lam: float, x: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (start, S, s) with R_{start+i}(x) = s[i] * S[i], covering n = 0..n_max.

    ``x`` is unchecked 1-d float in [-1, 1].  S and s are views of one buffer
    that the next block overwrites: a caller that keeps a block must copy it.
    """
    if x.size == 0:  # BLAS rejects an empty vector, and every row is empty
        yield 0, np.empty((n_max + 1, 0)), np.ones(n_max + 1)
        return
    h, later = _block_recurrence(n_max, lam)
    rows = _block_rows(x.size)
    buf = np.empty((min(n_max + 1, rows + 2), x.size))
    buf[0] = 1.0
    if n_max > 0:
        buf[1] = x
    s = np.ones(buf.shape[0])
    if n_max <= 1:
        yield 0, buf, s
        return
    x2 = 2.0 * x
    S = list(buf)
    k = 1  # the block starts from rows k - 1 and k
    while True:
        m = min(rows, n_max - k)
        np.multiply.accumulate(h[k - 1 : k - 1 + m], out=s[2 : m + 2])
        first = k / (k + 2.0 * lam) / h[k - 1]  # rows k - 1 and k have s = 1
        for j, beta in enumerate([first, *later[k - 1 : k + m - 2].tolist()]):
            np.multiply(x2, S[j + 1], out=S[j + 2])
            daxpy(S[j], S[j + 2], a=-beta)
        if k == 1:
            yield 0, buf[: m + 2], s[: m + 2]
        else:
            yield k + 1, buf[2 : m + 2], s[2 : m + 2]
        k += m
        if k == n_max:
            return
        np.multiply(S[m], s[m], out=S[0])  # restart from normalized rows
        np.multiply(S[m + 1], s[m + 1], out=S[1])


def gegenbauer_normalized_table(n_max: int, lam: float, x: np.ndarray) -> np.ndarray:
    """Table of C_n^lam(x)/C_n^lam(1) for n = 0..n_max, shape (n_max + 1, len(x)).

    At lam = 0 the rows are the Chebyshev polynomials, cos(n arccos x).
    n_max is a count, lam >= 0 and x lies in [-1, 1] within 1e-12 (clipped);
    NaN fails.  One degree n is the last row of the table for n_max = n.
    """
    n_max = _check_count("polynomial degree", n_max, 0)
    if not lam >= 0:
        raise DomainError(f"Gegenbauer parameter must be >= 0, got {lam}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) <= 1.0 + 1e-12):
        raise DomainError("Gegenbauer argument must lie in [-1, 1]")
    arr = np.clip(arr, -1.0, 1.0).ravel()
    table = np.empty((n_max + 1, arr.size))
    for start, S, s in _normalized_blocks(n_max, lam, arr):
        np.multiply(S, s[:, None], out=table[start : start + s.size])
    return table


def bessel_k(nu: float, t):
    """Modified Bessel function of the second kind K_nu(t) for nu > 0, t > 0.

    At half-integer orders nu = n + 1/2 with n <= 15 it is the finite sum
    K_nu(t) = sqrt(pi / (2t)) e^{-t} sum_{k=0}^{n} (n+k)! / (k! (n-k)!) (2t)^{-k}
    (DLMF 10.49.12), whose terms are all positive: accurate to 2e-15
    relative.  Every other order is ``scipy.special.kv``, accurate to
    better than 1e-10 relative for nu in (0, 5] and t in [1e-8, 50].
    Arguments below ``BESSEL_K_MIN_T``, and values too large for a double,
    raise OverflowError.
    """
    if not nu > 0:
        raise DomainError(f"Bessel order must be > 0, got {nu}")
    arr = np.asarray(t, dtype=float)
    if not np.all(arr > 0):
        raise DomainError("Bessel argument must be > 0")
    if not np.all(arr >= BESSEL_K_MIN_T):
        raise OverflowError(f"K_nu overflows for t < {BESSEL_K_MIN_T}")
    n = float(nu) - 0.5
    if n.is_integer() and n < len(_K_HALF_COEFFS):
        coeffs = _K_HALF_COEFFS[int(n)]
        with np.errstate(over="ignore"):  # a value too large comes out as inf, for the gate below
            s = coeffs[-1]
            for b in reversed(coeffs[:-1]):  # Horner's rule in 1/t
                s = s / arr + b
            out = np.multiply(arr, 2.0, out=np.empty_like(arr))  # out=: an array at 0-d too
            np.divide(np.pi, out, out=out)
            np.sqrt(out, out=out)
            e = np.negative(arr, out=np.empty_like(arr))
            out *= np.exp(e, out=e)
            out *= s
    else:
        out = _sp.kv(nu, arr)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"K_{nu} overflowed at t={arr[~np.isfinite(out)][:3]}")
    return float(out) if arr.ndim == 0 else out
