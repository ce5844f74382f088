"""Point sets on spheres, great circle distances and Gram-matrix verdicts.

The empirical counterpart of the coefficient machinery: assemble
K_ij = psi(distance(x_i, x_j)) on a concrete point set and inspect the
extreme eigenvalues.  A full-rank positive Gram is evidence of strict
positive definiteness, never a certificate.

Kernel matrices are evaluated in row blocks of about ``_BLOCK_ENTRIES``
entries (``_row_blocks``), so the temporaries of a kernel evaluation stay a
few MB however many points there are.  A Gram matrix is symmetric, so psi is
evaluated on its lower triangle, about once per pair of points, and both
Gram consumers hold only that triangle: ``gram_report`` in full storage,
whose upper triangle ``numpy.linalg.eigvalsh`` never reads, and the
Cholesky factorizations of ``apps`` in LAPACK's rectangular full packed
storage, N(N+1)/2 doubles; this module is the only one that knows where
the packed layout puts an entry.

``scipy.spatial`` (``cKDTree`` for the duplicate check, ``cdist`` for the
distances) is imported by the first point set or distance, not with the
package: it adds about 5.5 MB of peak resident memory and 45-80 ms, which
the coefficient verdicts, walks and Polya checks never need.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import catalog
from .errors import DomainError
from .special import _check_count, _check_tolerance

__all__ = [
    "GramReport",
    "SpherePointSet",
    "gram_report",
    "read_points",
    "sample_points",
    "write_points",
]

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# points count as duplicates when <x, y> >= 1 - 1e-15, i.e. ||x - y||^2 <= 2e-15
_DUPLICATE_CHORD = math.sqrt(2e-15)
# Entries of one row block of a kernel matrix (512 KB of float64).  Matern
# holds about seven block-sized temporaries; at this size a Gram matrix at
# N = 1500 peaks at 1.2x its own size, at 2**18 entries at 1.8x.
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class SpherePointSet:
    """Unit vectors in R^(d+1); rows are points on S^d, pairwise distinct."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 2:
            raise DomainError("points must be an (n, d+1) array with n >= 1, d >= 1")
        pts = pts / _unit_norms(pts)[:, None]
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        from scipy.spatial import cKDTree  # here: coefficient-only work never loads it

        if cKDTree(pts).query_pairs(r=_DUPLICATE_CHORD):
            raise DomainError("points must be pairwise distinct")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1] - 1


@dataclass(frozen=True)
class GramReport:
    """Extreme eigenvalues of a kernel Gram matrix and the PSD verdict."""

    n_points: int
    min_eigenvalue: float
    max_eigenvalue: float
    psd: bool
    tolerance_used: float


def _unit_norms(pts: np.ndarray) -> np.ndarray:
    """The unit-vector gate: the row norms, when every row is finite with norm 1 within 1e-9.

    A non-finite coordinate makes the norm inf or NaN, which fails the test.
    """
    norms = np.linalg.norm(pts, axis=-1)
    if not np.all(_is_unit(norms)):
        raise DomainError("points must be finite unit vectors (norm 1 within 1e-9)")
    return norms


def _is_unit(norms):
    """Which norms pass the unit-vector gate: within 1e-9 of 1, so that NaN and inf fail."""
    return np.abs(norms - 1.0) <= 1e-9


def pairwise_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Great circle distances between two stacks of unit vectors.

    Computed through the chordal length, 2 arcsin(||x - y|| / 2), which
    stays accurate for nearly coincident points where arccos of the inner
    product loses half the digits (and rough kernels amplify the loss).
    Every step works in place on ``cdist``'s output: a chord is never
    negative, so capping it at 1 is the whole clip, and scaling by a power
    of two is exact.
    """
    from scipy.spatial.distance import cdist  # here: coefficient-only work never loads it

    h = cdist(a, b)
    h *= 0.5
    np.minimum(h, 1.0, out=h)
    np.arcsin(h, out=h)
    h *= 2.0
    return h


def sample_points(d: int, n: int, scheme: str = "uniform_random", seed=None) -> SpherePointSet:
    """Generate n points on S^d; deterministic for a fixed seed.

    Schemes: ``uniform_random`` (normalized Gaussian vectors),
    ``fibonacci_s2`` (quasi-uniform lattice, d = 2 only) and ``equator``
    (n equally spaced points on a great circle, any d).
    """
    n = _check_count("number of points n", n, 1)
    d = _check_count("sphere dimension d", d, 1)
    if scheme == "uniform_random":
        vecs = _rng(seed).standard_normal((n, d + 1))
        return SpherePointSet(vecs / np.linalg.norm(vecs, axis=1)[:, None])
    if scheme == "fibonacci_s2":
        if d != 2:
            raise DomainError("fibonacci_s2 is defined on S^2 only")
        i = np.arange(n)
        z = 1.0 - (2.0 * i + 1.0) / n
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        lon = 2.0 * math.pi * i / _GOLDEN
        pts = np.column_stack([r * np.cos(lon), r * np.sin(lon), z])
        return SpherePointSet(pts / np.linalg.norm(pts, axis=1)[:, None])
    if scheme == "equator":
        ang = 2.0 * math.pi * np.arange(n) / n
        pts = np.zeros((n, d + 1))
        pts[:, 0] = np.cos(ang)
        pts[:, 1] = np.sin(ang)
        return SpherePointSet(pts)
    raise DomainError(f"unknown sampling scheme {scheme!r}")


def _rng(seed) -> np.random.Generator:
    """numpy's generator for ``seed``; a seed numpy refuses (such as -1) raises DomainError."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"invalid seed {seed!r}: {exc}") from None


def _row_blocks(n_rows: int, n_cols: int) -> Iterator[slice]:
    """Consecutive row slices of an n_rows x n_cols matrix, each of at most
    ``_BLOCK_ENTRIES`` entries, or one row when a row is wider than that."""
    step = max(1, _BLOCK_ENTRIES // max(1, n_cols))
    for start in range(0, n_rows, step):
        yield slice(start, start + step)


def _gram_blocks(kern, pts: SpherePointSet) -> Iterator[tuple[int, int, np.ndarray]]:
    """The one psi loop of both Gram layouts: ``(a, b, psi(theta))`` per row block.

    The block holds rows [a, b) of K in columns [0, b), so it covers its rows'
    part of the lower triangle plus the upper half of its diagonal square.
    psi comes gated from ``as_psi``: a non-finite value is a DomainError.
    """
    psi, _ = catalog.as_psi(kern)
    x = pts.points
    n = pts.n_points
    for rows in _row_blocks(n, n):
        theta = pairwise_angles(x[rows], x[: rows.stop])
        yield rows.start, min(rows.stop, n), psi(theta)


# LAPACK's rectangular full packed (RFP) storage of a lower triangle, not
# transposed (Gustavson, Wasniewski, Dongarra and Langou, ACM TOMS 37(2), 2010).
# With q = ceil(n/2) and s = 1 for even n, else 0, it is a C-order (q, n + s)
# array F holding row r < q of the upper triangle, K[r, r:], at F[r, r+s:], and
# row i >= q of the lower triangle from column q on, K[i, q:i+1], at
# F[i-q+1-s, :i-q+1]: n(n+1)/2 doubles, every one of them used.
_PACKED = {"transr": "N", "uplo": "L"}


def _packed_shape(n: int) -> tuple[int, int]:
    """(q, s) of the packed layout of an n x n triangle."""
    return (n + 1) // 2, 1 - n % 2


def _gram_packed(kern, pts: SpherePointSet) -> np.ndarray:
    """The lower triangle of K_ij = psi(theta_ij) in RFP storage, as one flat array.

    Built from the psi blocks of ``gram_report``, so it equals LAPACK's
    ``dtrttf`` of psi(pairwise_angles(x, x)) bit for bit; it holds N(N+1)/2 doubles.
    """
    n = pts.n_points
    q, s = _packed_shape(n)
    F = np.empty((q, n + s))
    for a, b, vals in _gram_blocks(kern, pts):
        # columns j < q: K[i, j] sits at F[j, i + s].  Where the block's diagonal
        # square has j > i, this writes into F[j, :j + s], which holds row
        # j + q - 1 + s >= a from column q on, and the second write below
        # overwrites it in this block or a later one.
        e = min(b, q)
        F[:e, a + s : b + s] = vals[:, :e].T
        # columns j >= q of rows i >= q: K[i, j] sits at F[i - q + 1 - s, j - q]
        c = max(a, q)
        if c < b:
            rows = slice(c - q + 1 - s, b - q + 1 - s)
            F[rows, : c - q] = vals[c - a :, q:c]
            np.copyto(F[rows, c - q : b - q], vals[c - a :, c:b], where=np.tri(b - c, dtype=bool))
    return F.reshape(-1)


def _packed_diagonal(n: int) -> np.ndarray:
    """Flat indices of K_00, ..., K_(n-1)(n-1) in the packed layout, in that order."""
    q, s = _packed_shape(n)
    step = n + s + 1
    return np.concatenate([s + step * np.arange(q), (1 - s) * (n + s) + step * np.arange(n - q)])


def _packed_times_transpose(z: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """z @ L.T for the lower triangular L held in RFP storage, by GEMMs on views of it.

    With L = [[L11, 0], [L21, L22]] split at q, L11 is the transposed upper
    triangle of F[:, s:q+s], L21.T the rectangle F[:, q+s:] and L22 the lower
    triangle of F[1-s:, :n-q].
    """
    n = z.shape[1]
    q, s = _packed_shape(n)
    F = packed.reshape(q, n + s)
    out = np.empty_like(z)
    out[:, :q] = _times_lower_transpose(z[:, :q], F[:, s : q + s].T)
    out[:, q:] = z[:, :q] @ F[:, q + s :]
    out[:, q:] += _times_lower_transpose(z[:, q:], F[1 - s :, : n - q])
    return out


def _times_lower_transpose(z: np.ndarray, T: np.ndarray) -> np.ndarray:
    """z @ tril(T).T, reading nothing above the diagonal of the square T.

    Row block [a, b) of tril(T) is the rectangle T[a:b, :a] and the lower
    triangle of its diagonal square, the only part copied.
    """
    out = np.empty((len(z), len(T)))
    for rows in _row_blocks(len(T), len(T)):
        a, b = rows.start, min(rows.stop, len(T))
        out[:, a:b] = z[:, :a] @ T[a:b, :a].T + z[:, a:b] @ np.tril(T[a:b, a:b]).T
    return out


def gram_report(kern, pts: SpherePointSet, tol: float = 1e-8) -> GramReport:
    """Assemble K_ij = psi(theta_ij) and judge positive semidefiniteness.

    The verdict is min_eigenvalue >= -tol * n_points, which absorbs the
    growth of symmetric-eigensolver backward error with matrix size.  Only
    the lower triangle of K is filled, in full storage; a psi value that is
    not finite raises DomainError.
    """
    tol = _check_tolerance("tol", tol)
    K = np.empty((pts.n_points, pts.n_points))
    for a, b, vals in _gram_blocks(kern, pts):
        K[a:b, :b] = vals
    eigvals = np.linalg.eigvalsh(K)  # UPLO="L": the entries above the diagonal are never read
    lo, hi = float(eigvals[0]), float(eigvals[-1])
    return GramReport(
        n_points=pts.n_points,
        min_eigenvalue=lo,
        max_eigenvalue=hi,
        psd=lo >= -tol * pts.n_points,
        tolerance_used=tol,
    )


def write_points(pts: SpherePointSet, path, values: Iterable[float] | None = None) -> None:
    """Write ``lat_deg,lon_deg`` columns for d = 2, else raw ``x0..xd``.

    An optional ``value`` column carries data attached to the points.
    """
    vals = None if values is None else list(values)
    if vals is not None and len(vals) != pts.n_points:
        raise DomainError("values length must match the number of points")
    with open(path, "w", newline="", encoding="utf8") as fh:
        writer = csv.writer(fh)
        if pts.d == 2:
            header = ["lat_deg", "lon_deg"]
            rows = [
                [f"{math.degrees(math.asin(np.clip(p[2], -1, 1))):.12f}",
                 f"{math.degrees(math.atan2(p[1], p[0])):.12f}"]
                for p in pts.points
            ]
        else:
            header = [f"x{i}" for i in range(pts.d + 1)]
            rows = [[repr(float(v)) for v in p] for p in pts.points]
        if vals is not None:
            header.append("value")
            for row, v in zip(rows, vals):
                row.append(repr(float(v)))
        writer.writerow(header)
        writer.writerows(rows)


def read_points(path) -> tuple[SpherePointSet, np.ndarray | None]:
    """Read a point CSV; returns the point set and the value column if present.

    The header is ``lat_deg,lon_deg`` or ``x0,...,xd`` with d >= 1,
    optionally followed by ``value``, and every data row has exactly one
    cell per header column.
    A row of another width, a cell that is not a number, a ``lat_deg``
    outside [-90, 90], a ``lon_deg`` that is not finite or an ``x0..xd``
    row whose norm is not 1 within 1e-9 raises DomainError naming the
    first such row in file order.
    """
    pts, values = _read_point_table(path)
    return SpherePointSet(pts), values


def _read_point_table(path) -> tuple[np.ndarray, np.ndarray | None]:
    """The unnormalized coordinates and the value column of a point CSV, as
    ``read_points`` checks them, from at least one data row; points may repeat."""
    with open(path, "r", newline="", encoding="utf8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and not row[0].lstrip().startswith("#")]
    if len(rows) < 2:
        raise DomainError(f"no data rows in point file {path}")
    header = [h.strip().lower() for h in rows[0]]
    has_value = header[-1] == "value"
    coord_names = header[:-1] if has_value else header
    latlon = coord_names == ["lat_deg", "lon_deg"]
    xyz = len(coord_names) >= 2 and all(name == f"x{i}" for i, name in enumerate(coord_names))
    if not (latlon or xyz):
        raise DomainError(
            f"unrecognized point columns {header}: "
            "expected lat_deg,lon_deg or x0..xd, optionally followed by value"
        )
    data = rows[1:]
    width = len(header)
    if not set(map(len, data)) <= {width}:
        raise _first_bad_row(data, header, latlon, path)
    cells = itertools.chain.from_iterable(data)
    try:
        table = np.fromiter(map(float, cells), float, count=len(data) * width)
    except ValueError:
        raise _first_bad_row(data, header, latlon, path) from None
    table = table.reshape(len(data), width)
    if latlon and not (np.all(np.abs(table[:, 0]) <= 90.0) and np.all(np.isfinite(table[:, 1]))):
        raise _first_bad_row(data, header, latlon, path)
    values = table[:, -1] if has_value else None
    if latlon:
        lat, lon = np.radians(table[:, 0]), np.radians(table[:, 1])
        pts = np.column_stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])
    else:
        pts = table[:, : len(coord_names)]
        if not np.all(_is_unit(np.linalg.norm(pts, axis=-1))):
            raise _first_bad_row(data, header, latlon, path)
    return pts, values


def _first_bad_row(data: list[list[str]], header: list[str], latlon: bool, path) -> DomainError:
    """The error for the first row ``read_points`` rejects, in file order."""
    for row in data:
        text = ",".join(row)
        if len(row) != len(header):
            return DomainError(
                f"malformed row {text!r} in point file {path}: "
                f"{len(row)} cells, expected one per column {', '.join(header)}"
            )
        try:
            cells = [float(c) for c in row]
        except ValueError:
            return DomainError(
                f"malformed row {text!r} in point file {path}: "
                f"expected numbers in columns {', '.join(header)}"
            )
        if latlon and not abs(cells[0]) <= 90.0:
            return DomainError(f"latitude outside [-90, 90] in row {text!r} in point file {path}")
        if latlon and not math.isfinite(cells[1]):
            return DomainError(f"longitude not finite in row {text!r} in point file {path}")
        coords = [c for c, name in zip(cells, header) if name != "value"]
        if not latlon and not _is_unit(np.linalg.norm(coords)):
            return DomainError(f"not a finite unit vector (norm 1 within 1e-9) "
                               f"in row {text!r} in point file {path}")
    return DomainError(f"malformed point file {path}")
