"""Schoenberg coefficient sequences, dimension walks and membership verdicts.

A continuous psi on [0, pi] with psi(0) = 1 is positive definite on S^d
exactly when its expansion in normalized Gegenbauer polynomials

    psi(theta) = sum_n b_{n,d} C_n^{(d-1)/2}(cos theta) / C_n^{(d-1)/2}(1)

has nonnegative coefficients summing to one (cosine basis when d = 1).
This module computes the coefficients

    b_{0,1} = (1/pi) int_0^pi psi,      b_{n,1} = (2/pi) int_0^pi cos(n t) psi(t) dt,
    b_{n,d} = (2n+d-1)/(2^{3-d} pi) * Gamma((d-1)/2)^2/Gamma(d-1)
              * int_0^pi C_n^{(d-1)/2}(cos t) (sin t)^{d-1} psi(t) dt     (d >= 2),

by composite Gauss-Legendre quadrature in theta, with panels split at the
kernel's smoothness breakpoints and geometrically graded toward panel
edges.  The grading makes the scheme accurate to near machine precision
even for profiles with a fractional-power singularity at the origin,
where a single rule would stall at a few digits.

The rule is a mirror about pi/2: its half on [0, pi/2] is split at every
breakpoint b and at pi - b, and the other half is theta -> pi - theta with
the same weights.  Since R_n(-x) = (-1)^n R_n(x), the projection folds
the weighted profile onto the nodes below pi/2 (near + far for even n,
near - far for odd n) and sums on those nodes only: half the rule for a
full-support kernel.  On the circle the sums are the cosine moments
sum_j W_j cos(k t_j), formed as a few small matrix products per parity,
and on S^2 Legendre's Fourier series turns them into the Legendre sums.

One exact two-term recursion connects dimensions d and d+2 for every
d >= 1 (the walk).  The projection reaches S^3, S^4 and S^5 by walking
the S^1 or S^2 coefficients up, and d >= 6 runs the basis recurrence of
``special``.  Verdicts are three-tier: FAIL is certified by a robustly
negative coefficient, PASS is evidence at a declared tail tolerance, and
INCONCLUSIVE absorbs the rest; finite truncations cannot certify the
infinite conditions.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import binom

from . import catalog
from .errors import DimensionMismatchError, DomainError
from .special import (
    _check_count,
    _check_tolerance,
    _normalized_blocks,
    gauss_legendre,
    gegenbauer_normalized_table,  # noqa: F401  perfbench's tracer test looks it up here
)

__all__ = [
    "MembershipVerdict",
    "SchoenbergSequence",
    "StrictnessEvidence",
    "fourier_coeffs",
    "from_csv",
    "gegenbauer_coeffs",
    "membership",
    "reconstruct",
    "strictness_evidence",
    "to_csv",
    "walk_1_to_3",
    "walk_d_to_d2",
]

_GRADE_LEVELS = 36
_PHASE_PER_PANEL = 100.0  # max oscillation phase handled by one 48-point panel
_STRICT_TOL = 1e-12  # strictness evidence counts the coefficients above this
_MOMENT_ENTRIES = 2**16  # values held per node chunk of the trigonometric moments


@dataclass(frozen=True)
class SchoenbergSequence:
    """Coefficients b_{0,d}..b_{N,d} of a kernel on S^d, with provenance."""

    d: int
    coeffs: np.ndarray
    quadrature_order: int  # theta rule nodes where the weighted profile is nonzero
    source: str  # direct_quadrature | recursion | a coefficient file's label (unknown if none)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "d", _check_count("d", self.d, 1, DimensionMismatchError))
        object.__setattr__(
            self, "quadrature_order", _check_count("quadrature_order", self.quadrature_order, 0)
        )
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise DomainError("coefficient sequence must be a nonempty 1-d array")

    @property
    def n_max(self) -> int:
        return self.coeffs.size - 1

    @property
    def total_mass(self) -> float:
        return float(self.coeffs.sum())

    @property
    def tail_mass(self) -> float:
        return 1.0 - self.total_mass


@dataclass(frozen=True)
class StrictnessEvidence:
    """Counts of strictly positive coefficients; evidence, never proof."""

    d: int
    tol: float
    even_count: int
    odd_count: int
    max_even_index: int  # -1 when none
    max_odd_index: int
    # d = 1 only: some b_{j+kn} > tol for every 0 <= j < n <= 10
    progressions_ok: bool | None = None
    failing_progressions: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class MembershipVerdict:
    """Three-tier verdict with witnesses and strictness evidence."""

    verdict: str  # PASS | FAIL | INCONCLUSIVE
    d: int
    strict_requested: bool
    witnesses: tuple[tuple[int, float], ...]
    tail_mass: float
    min_coeff: float
    min_index: int
    n_max: int
    tol_fail: float
    tol_pass: float
    tail_tol: float
    strict_evidence: StrictnessEvidence
    sequence: SchoenbergSequence = field(repr=False, default=None)  # type: ignore[assignment]


# --------------------------------------------------------------------------
# quadrature engine


def _graded_unit_grid(levels: int, both_ends: bool) -> np.ndarray:
    """Panel edges on [0, 1], geometrically refined toward 0, and toward 1 when ``both_ends``.

    The one-sided grid is the left half of the two-sided one, stretched to [0, 1].
    """
    left = [0.0] + [2.0 ** (-k) for k in range(levels, 1, -1)]
    if not both_ends:
        return np.array([2.0 * u for u in left] + [1.0])
    right = [1.0 - u for u in reversed(left)]
    return np.array(left + right[1:])


def _piece_rule(a: float, b: float, n_max: int, grade_b: bool) -> tuple[np.ndarray, np.ndarray]:
    length = b - a
    edges = a + length * _graded_unit_grid(_GRADE_LEVELS, grade_b)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        h = hi - lo
        # split long panels so each carries a bounded oscillation phase
        splits = max(1, int(math.ceil(n_max * h / _PHASE_PER_PANEL)))
        m = max(20, int(math.ceil(0.35 * n_max * h / splits)) + 12)
        x, w = gauss_legendre(m)
        for j in range(splits):
            p, q = lo + h * j / splits, lo + h * (j + 1) / splits
            nodes.append(0.5 * (q - p) * x + 0.5 * (p + q))
            weights.append(0.5 * (q - p) * w)
    return np.concatenate(nodes), np.concatenate(weights)


@lru_cache(maxsize=8)
def _theta_rule(breaks: tuple[float, ...], n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights on [0, pi], a mirror about pi/2 bit for bit.

    The h nodes below pi/2 come first: panels on [0, pi/2] split at every
    break b and at pi - b, graded toward every edge but pi/2 (unless pi/2 is
    a break).  The last h nodes are pi - x in reverse order, with the same
    weights.  ``breaks`` must be sorted and inside (0, pi), as
    ``catalog.as_psi`` returns them.  Memoized: one rule at n_max = 2000
    holds 4176 nodes (67 KB) without breaks and up to about 9500 with two.
    """
    half = math.pi / 2
    inner = {e for b in breaks for e in (b, math.pi - b) if 0.0 < e < half}
    edges = [0.0, *sorted(inner), half]
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = _piece_rule(a, b, n_max, b < half or half in breaks)
        nodes.append(x)
        weights.append(w)
    x, w = np.concatenate(nodes), np.concatenate(weights)
    x = np.concatenate([x, (math.pi - x)[::-1]])
    w = np.concatenate([w, w[::-1]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _project(kern, d: int, n_max: int) -> SchoenbergSequence:
    """b_{n,d} = g_{n,d} * int R_n(cos t) (sin t)^{d-1} psi(t) dt on the theta rule.

    ``_fold`` gives the folded profile on the nodes below pi/2.  Only S^1
    and S^2 are projected from trigonometric moments (``_moment_sums``).
    d = 3, 4 and 5 take those base sums of d = 1 or 2 up to
    n_max + d - base on the same n_max rule and walk them up exactly
    (``_walk``); d >= 6 runs the basis recurrence (``_recurrence_sums``).
    Max |b_n - exact| at n_max = 2000, walk against recurrence: cosine
    1.6e-10 and 2.9e-10 on S^4, 6.8e-8 and 7.2e-8 on S^6, 1.1e-6 and
    1.4e-6 on S^7.  Each walk divides by d, and from d = 15 on the walked
    sums lose more digits than the recurrence (multiquadric on S^30 at
    n_max = 100: 1.2e-4 against 5.6e-7), so the walk stops at d = 5.  The
    connection sum of C_n^lam in cos((n-2l)t) loses digits like n^lam eps
    (cosine on S^7: 2.8e-2), so it serves d = 2 only.
    """
    n_max = _check_count("n_max", n_max, 0)
    base = d if d > 5 else 2 - d % 2
    n_top = n_max + d - base
    scale = _gegenbauer_scale(n_top, base)  # first: a d too large fails before the projection
    t, folded, order = _fold(kern, base, n_max)
    sums = _moment_sums if base <= 2 else _recurrence_sums
    coeffs = sums(base, n_top, t, folded)
    coeffs *= scale
    for k in range(base, d, 2):
        coeffs = _walk(coeffs, k)
    return SchoenbergSequence(d, coeffs, quadrature_order=order, source="direct_quadrature")


def _fold(kern, d: int, n_max: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], int]:
    """(t, (near + far, near - far), quadrature_order) of (sin t)^{d-1} psi(t) on the theta rule.

    The rule mirrors about pi/2 and R_n(-x) = (-1)^n R_n(x), so the weighted
    profile is folded onto the h nodes below pi/2: even rows integrate
    near + far, odd rows near - far, where far is the profile at the mirrored
    node.  Only the nodes t where either is nonzero are kept: a compactly
    supported psi skips its zeros; a non-finite psi value is ``as_psi``'s
    DomainError.  ``quadrature_order`` counts the rule's nodes where the
    weighted profile is nonzero.
    """
    psi, breaks = catalog.as_psi(kern)
    x, w = _theta_rule(breaks, n_max)
    fw = psi(x) * np.sin(x) ** (d - 1) * w
    h = x.size // 2
    near, far = fw[:h], fw[h:][::-1]
    used = (near != 0) | (far != 0)
    near, far = near[used], far[used]
    return x[:h][used], (near + far, near - far), np.count_nonzero(fw)


def _recurrence_sums(d: int, n_max: int, t: np.ndarray, folded) -> np.ndarray:
    """sum_j R_n(cos t_j) folded[n % 2]_j for n = 0..n_max, by the basis recurrence."""
    coeffs = np.empty(n_max + 1)
    for start, S, s in _normalized_blocks(n_max, (d - 1) / 2.0, np.cos(t)):
        for i in (0, 1):  # rows start + i, start + i + 2, ...
            rows = slice(i, s.size, 2)
            out = coeffs[start + i : start + s.size : 2]
            np.multiply(S[rows] @ folded[(start + i) % 2], s[rows], out=out)
    return coeffs


def _powers(z: np.ndarray, out: np.ndarray, first=1.0) -> np.ndarray:
    """Rows first * z^j, j < m, into the complex ``out`` (m x len(z)).

    Rows k..2k-1 are rows 0..k-1 times z^k, for k = 1, 2, 4, ...: log2(m)
    vectorized steps instead of m.
    """
    out[0] = first
    k, zk = 1, z
    while k < out.shape[0]:
        step = min(k, out.shape[0] - k)
        np.multiply(out[:step], zk, out=out[k : k + step])
        k, zk = 2 * k, zk * zk
    return out


def _moment_sums(d: int, n_max: int, t: np.ndarray, folded) -> np.ndarray:
    """The sums of ``_recurrence_sums`` at d = 1 and 2, from trigonometric moments.

    With M(k) = sum_j W_j e^{ikt_j}, k <= n_max, where W is the fold of k's
    parity, the sum of row n is Re M(n) at d = 1 (R_n(cos t) = cos nt); at
    d = 2 these cosine moments go through ``_legendre_from_cosines``.

    Split k = 2(qL + s) + p with L a power of two and K = 2L (so K t is
    exact).  For each parity p the parts M_p[q, s] are one real
    (Q x 2c) @ (2c x L) product per chunk of c nodes, on the float views of
    two complex arrays: Re(a b) is the real dot product of conj(a) and b,
    so the left rows are conj(W_p e^{ipt}) e^{-iqKt} and the right rows
    e^{2ist}, both built by ``_powers``.  A chunk holds at most 2^16 values
    (0.5 MB), less than the recurrence's own buffer on the 2088 nodes of a
    full-support rule at n_max = 2000 (34 rows, 0.54 MB).
    """
    per_parity = n_max // 2 + 1
    L = 1 << math.ceil(math.log2(per_parity) / 2)
    Q = -(-per_parity // L)
    K = 2 * L
    # nodes per chunk: Zs, ZW and a few vectors per node, two entries per complex value
    chunk = max(1, min(t.size, _MOMENT_ENTRIES // (2 * (L + Q + 7))))
    M = np.zeros((2, Q, L))  # even k, odd k
    Zs = np.empty((L, chunk), dtype=complex)
    ZW = np.empty((Q, chunk), dtype=complex)
    for a in range(0, t.size, chunk):
        tc = t[a : a + chunk]
        zs = _powers(np.exp(2j * tc), Zs[:, : tc.size])
        zK = np.exp(-1j * K * tc)
        u = (folded[0][a : a + chunk], folded[1][a : a + chunk] * np.exp(-1j * tc))
        for p in (0, 1):
            zw = _powers(zK, ZW[:, : tc.size], u[p])
            M[p] += zw.view(float) @ zs.view(float).T
    mom = M.transpose(1, 2, 0).ravel()[: n_max + 1]  # M(k) for k = 2(qL + s) + p
    return mom if d == 1 else _legendre_from_cosines(mom)


def _legendre_from_cosines(cos_moments: np.ndarray) -> np.ndarray:
    """sum_j P_n(cos t_j) W_j for n = 0..n_max from the moments C(k) = sum_j W_j cos(k t_j).

    Legendre's Fourier series (DLMF 18.5.11) is the convex combination
    P_n(cos t) = sum_l a_l a_{n-l} cos((n-2l)t), a_l = (1/2)_l / l!.  With
    n = 2r + p and the cosines paired at m = +-(2s + p),

        b_{2r+p} = sum_{s <= r} a_{r-s} a_{r+s+p} e_s C(2s + p),

    e_s = 2 but e_0 = 1 at p = 0: the Hadamard product of a Toeplitz and a
    Hankel matrix applied to e C (Townsend, Webb and Olver 2018).  Both are
    strided views of a, T zero-padded to vanish for s > r, and einsum sums
    their product in row chunks of at most 2^16 values without forming it;
    a chunk stops at the column of its last row.  Every term is the
    positive weight a a e on one moment, so the sums are as accurate as the
    moments.  O(n_max^2) flops: about 1 ms at n_max = 2000, and with the
    moments 2.2 ms against 4.7 ms for the recurrence on the 2088 folded
    nodes of a full-support rule (best of 30, one BLAS thread).
    """
    n_max = cos_moments.size - 1
    ell = np.arange(1.0, n_max + 1)
    a = np.cumprod(np.concatenate(([1.0], (ell - 0.5) / ell)))
    out = np.empty(n_max + 1)
    windows = np.lib.stride_tricks.sliding_window_view
    for p in range(min(2, n_max + 1)):  # one parity at n_max = 0
        R = (n_max - p) // 2 + 1  # rows r with n = 2r + p <= n_max
        eC = 2.0 * cos_moments[p::2]
        if p == 0:
            eC[0] = cos_moments[0]
        T = windows(np.concatenate((np.zeros(R - 1), a[:R])), R)[:, ::-1]  # a_{r-s}, 0 past r
        H = windows(a[p:], R)  # a_{r+s+p}
        rows = max(1, _MOMENT_ENTRIES // R)
        for r0 in range(0, R, rows):
            r1 = min(R, r0 + rows)
            np.einsum(
                "rs,rs,s->r", T[r0:r1, :r1], H[r0:r1, :r1], eC[:r1],
                out=out[2 * r0 + p : 2 * r1 + p : 2],
            )
    return out


@lru_cache(maxsize=8)
def _gegenbauer_scale(n_max: int, d: int) -> np.ndarray:
    """g_{n,d} with b_{n,d} = g_{n,d} * int R_n(cos t) (sin t)^{d-1} psi dt.

    For d >= 2, with lam = (d-1)/2 and C_n^lam(1) = binom(n+d-2, d-2),

        g_{n,d} = (2n+d-1) binom(n+d-2, d-2) Gamma(lam)^2 / (2^{3-d} pi Gamma(2 lam)),

    an integer times one constant; on the circle (d = 1), its limit, this is
    1/pi for n = 0 and 2/pi after.  The array is read-only and memoized.
    Where a g_{n,d} is not a finite double (Gamma(d-1) overflows from
    d = 173 on) the dimension is too large and a DomainError names it.
    """
    if d == 1:
        out = np.full(n_max + 1, 2.0 / math.pi)
        out[0] = 1.0 / math.pi
    else:
        lam = (d - 1) / 2.0
        n = np.arange(n_max + 1)
        try:
            const = math.gamma(lam) ** 2 / (2.0 ** (3 - d) * math.pi * math.gamma(2 * lam))
        except OverflowError:
            const = math.inf
        with np.errstate(over="ignore"):
            out = (2 * n + d - 1) * binom(n + d - 2, d - 2) * const
        if not np.all(np.isfinite(out)):
            raise DomainError(
                f"d = {d} is too large: the Schoenberg scale g_(n,d) overflows a double "
                f"for n <= {n_max}"
            )
    out.setflags(write=False)
    return out


def fourier_coeffs(kern, n_max: int) -> SchoenbergSequence:
    """Cosine coefficients b_{0,1}..b_{n_max,1} of a kernel on the circle."""
    return _project(kern, 1, n_max)


def gegenbauer_coeffs(kern, d: int, n_max: int) -> SchoenbergSequence:
    """Coefficients b_{0,d}..b_{n_max,d} on S^d for d >= 2, by quadrature."""
    d = _check_count("d", d, 2, DimensionMismatchError)
    return _project(kern, d, n_max)


# --------------------------------------------------------------------------
# dimension walks


def walk_1_to_3(seq: SchoenbergSequence) -> SchoenbergSequence:
    """b_{0,3} = b_{0,1} - b_{2,1}/2;  b_{n,3} = (n+1)(b_{n,1} - b_{n+2,1})/2."""
    if seq.d != 1:
        raise DimensionMismatchError(f"walk starts from d=1, got d={seq.d}")
    return walk_d_to_d2(seq)


def walk_d_to_d2(seq: SchoenbergSequence) -> SchoenbergSequence:
    """Two-term recursion sending a d-sequence to the (d+2)-sequence, for every d >= 1:

        b_{n,d+2} = (n+d-1)(n+d)/(d(2n+d-1)) b_{n,d} - (n+1)(n+2)/(d(2n+d+3)) b_{n+2,d}.

    Row 0 is written as b_{0,d} - 2/(d(d+3)) b_{2,d}: for d >= 2 that is the
    general row bit for bit, and at d = 1, where the general row reads 0/0,
    it is the row's limit.
    """
    if seq.n_max < 2:
        raise DimensionMismatchError("walk needs at least coefficients up to n=2")
    return SchoenbergSequence(seq.d + 2, _walk(seq.coeffs, seq.d), seq.quadrature_order,
                              source="recursion")


def _walk(b: np.ndarray, d: int) -> np.ndarray:
    """``walk_d_to_d2`` on arrays: b_{n,d+2} for n <= b.size - 3 from b_{n,d}, n < b.size."""
    n_out = b.size - 3
    n = np.arange(1, n_out + 1)
    out = np.empty(n_out + 1)
    out[0] = b[0] - 2 / (d * (d + 3)) * b[2]
    out[1:] = (n + d - 1) * (n + d) / (d * (2 * n + d - 1)) * b[1 : n_out + 1]
    out[1:] -= (n + 1) * (n + 2) / (d * (2 * n + d + 3)) * b[3 : n_out + 3]
    return out


# --------------------------------------------------------------------------
# reconstruction and verdicts


def reconstruct(seq: SchoenbergSequence, theta):
    """Evaluate the truncated expansion at theta; equals sum(coeffs) at 0.

    The basis is summed block by block, so memory stays at one block (about 1 MB)
    besides the result.
    """
    arr = catalog._check_theta(theta)
    vals = np.zeros(arr.size)
    for start, S, s in _normalized_blocks(seq.n_max, (seq.d - 1) / 2.0, np.cos(arr.ravel())):
        vals += (seq.coeffs[start : start + s.size] * s) @ S
    vals = vals.reshape(arr.shape)
    return float(vals) if arr.ndim == 0 else vals


def strictness_evidence(seq: SchoenbergSequence) -> StrictnessEvidence:
    """Report the coefficients above 1e-12 by parity (and, for d = 1, the
    arithmetic-progression condition for every step n <= 10).  Evidence
    within the truncation window only, never a proof."""
    positive = seq.coeffs > _STRICT_TOL
    pos = np.flatnonzero(positive)
    even, odd = pos[pos % 2 == 0], pos[pos % 2 == 1]
    failing = None
    if seq.d == 1:
        failing = tuple((j, n) for n in range(1, 11) for j in range(n) if not positive[j::n].any())
    return StrictnessEvidence(
        d=seq.d,
        tol=_STRICT_TOL,
        even_count=int(even.size),
        odd_count=int(odd.size),
        max_even_index=int(even[-1]) if even.size else -1,
        max_odd_index=int(odd[-1]) if odd.size else -1,
        progressions_ok=None if failing is None else not failing,
        failing_progressions=failing or (),
    )


def membership(
    kern,
    d: int,
    n_max: int | None = None,
    *,
    tol_fail: float = 1e-6,
    tol_pass: float = 1e-9,
    tail_tol: float = 1e-3,
    strict: bool = False,
) -> MembershipVerdict:
    """Verdict on membership of a kernel in the positive definite class on S^d.

    FAIL when some computed coefficient drops below -tol_fail (witnesses
    recorded); PASS when every coefficient exceeds -tol_pass and the
    unexamined tail mass 1 - sum(b) is below tail_tol; INCONCLUSIVE
    otherwise.  With ``strict=True`` a PASS additionally requires strictness
    evidence: strictly positive coefficients at ten or more even and ten or
    more odd indices (d >= 2), or the arithmetic-progression condition
    (d = 1).
    """
    d = _check_count("d", d, 1, DimensionMismatchError)
    if n_max is None:
        n_max = 200 if d <= 3 else 100
    n_max = _check_count("n_max", n_max, 10)
    tol_fail = _check_tolerance("tol_fail", tol_fail)
    tol_pass = _check_tolerance("tol_pass", tol_pass)
    tail_tol = _check_tolerance("tail_tol", tail_tol)
    seq = fourier_coeffs(kern, n_max) if d == 1 else gegenbauer_coeffs(kern, d, n_max)
    b = seq.coeffs
    min_index = int(np.argmin(b))
    min_coeff = float(b[min_index])
    witness_idx = np.flatnonzero(b < -tol_fail)
    witnesses = tuple((int(i), float(b[i])) for i in witness_idx[:20])
    evidence = strictness_evidence(seq)
    tail = seq.tail_mass

    if witnesses:
        verdict = "FAIL"
    elif min_coeff >= -tol_pass and tail < tail_tol:
        verdict = "PASS"
        if strict:
            if seq.d == 1:
                ok = bool(evidence.progressions_ok)
            else:
                ok = evidence.even_count >= 10 and evidence.odd_count >= 10
            if not ok:
                verdict = "INCONCLUSIVE"
    else:
        verdict = "INCONCLUSIVE"

    return MembershipVerdict(
        verdict=verdict,
        d=d,
        strict_requested=strict,
        witnesses=witnesses,
        tail_mass=tail,
        min_coeff=min_coeff,
        min_index=min_index,
        n_max=n_max,
        tol_fail=tol_fail,
        tol_pass=tol_pass,
        tail_tol=tail_tol,
        strict_evidence=evidence,
        sequence=seq,
    )


# --------------------------------------------------------------------------
# serialization


@contextlib.contextmanager
def _opened(path_or_buf, mode: str):
    """A path is opened here and closed on exit; an open buffer is used as it is."""
    if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, mode, encoding="utf8") as fh:
            yield fh
    else:
        yield path_or_buf


def to_csv(seq: SchoenbergSequence, path_or_buf) -> None:
    """Write ``n,b`` rows with #-prefixed metadata comment lines."""
    with _opened(path_or_buf, "w") as fh:
        fh.write(f"# d={seq.d}\n")
        fh.write(f"# n_max={seq.n_max}\n")
        fh.write(f"# quadrature_order={seq.quadrature_order}\n")
        fh.write(f"# source={seq.source}\n")
        fh.write("n,b\n")
        for n, bn in enumerate(seq.coeffs):
            fh.write(f"{n},{float(bn)!r}\n")


def from_csv(path_or_buf) -> SchoenbergSequence:
    """Read a sequence written by ``to_csv``; a non-finite coefficient is a DomainError."""
    with _opened(path_or_buf, "r") as fh:
        text = fh.read()
    meta: dict[str, str] = {}
    rows: list[tuple[int, float]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line.lstrip("# ").partition("=")
            if sep:
                meta[key.strip()] = value.strip()
            continue
        if line.lower().startswith("n,"):
            continue
        n_str, _, b_str = line.partition(",")
        try:
            n, bn = int(n_str), float(b_str)
        except ValueError:
            raise DomainError(f"malformed coefficient row {line!r}: expected n,b") from None
        if not math.isfinite(bn):
            raise DomainError(f"non-finite coefficient in row {line!r}")
        rows.append((n, bn))
    if not rows:
        raise DomainError("no coefficient rows found")
    rows.sort()
    if [n for n, _ in rows] != list(range(len(rows))):
        raise DomainError("coefficient indices must run 0, 1, ..., n_max without gaps or repeats")
    ints = {}
    for key, default in (("d", "1"), ("quadrature_order", "0"), ("n_max", str(len(rows) - 1))):
        try:
            ints[key] = int(meta.get(key, default))
        except ValueError:
            raise DomainError(
                f"malformed metadata {key}={meta[key]!r}: expected an integer"
            ) from None
    if ints.pop("n_max") != len(rows) - 1:
        raise DomainError(
            f"metadata n_max={meta['n_max']} disagrees with the rows, which run 0..{len(rows) - 1}"
        )
    return SchoenbergSequence(
        coeffs=np.array([b for _, b in rows]),
        source=meta.get("source", "unknown"),
        **ints,
    )
