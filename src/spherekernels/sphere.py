"""Point sets on spheres, great circle distances and Gram-matrix verdicts.

The empirical counterpart of the coefficient machinery: assemble
K_ij = psi(distance(x_i, x_j)) on a concrete point set and inspect the
extreme eigenvalues.  A full-rank positive Gram is evidence of strict
positive definiteness, never a certificate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from . import catalog
from .errors import DomainError
from .special import _check_count

__all__ = [
    "GramReport",
    "SpherePointSet",
    "gram_report",
    "great_circle",
    "read_points",
    "sample_points",
    "write_points",
]

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# points count as duplicates when <x, y> >= 1 - 1e-15, i.e. ||x - y||^2 <= 2e-15
_DUPLICATE_CHORD = math.sqrt(2e-15)


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
        if cKDTree(pts).query_pairs(r=_DUPLICATE_CHORD):
            raise DomainError("points must be pairwise distinct")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1] - 1

    def distance_matrix(self) -> np.ndarray:
        """Pairwise great circle distances, exact zeros on the diagonal."""
        return pairwise_angles(self.points, self.points)


@dataclass(frozen=True)
class GramReport:
    """Extreme eigenvalues of a kernel Gram matrix and the PSD verdict."""

    n_points: int
    min_eigenvalue: float
    max_eigenvalue: float
    psd: bool
    tolerance_used: float


def great_circle(x, y) -> float:
    """Great circle distance between two unit vectors, by ``pairwise_angles``."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise DomainError("inputs must be two vectors of equal dimension")
    _unit_norms(np.stack([xv, yv]))
    return float(pairwise_angles(xv[None], yv[None])[0, 0])


def _unit_norms(pts: np.ndarray) -> np.ndarray:
    """The unit-vector gate: the row norms, when every row is finite with norm 1 within 1e-9.

    A non-finite coordinate makes the norm inf or NaN, which fails the test.
    """
    norms = np.linalg.norm(pts, axis=-1)
    if not np.all(np.abs(norms - 1.0) <= 1e-9):
        raise DomainError("points must be finite unit vectors (norm 1 within 1e-9)")
    return norms


def pairwise_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Great circle distances between two stacks of unit vectors.

    Computed through the chordal length, 2 arcsin(||x - y|| / 2), which
    stays accurate for nearly coincident points where arccos of the inner
    product loses half the digits (and rough kernels amplify the loss).
    """
    half_chord = cdist(a, b) / 2.0
    return 2.0 * np.arcsin(np.clip(half_chord, 0.0, 1.0, out=half_chord), out=half_chord)


def sample_points(d: int, n: int, scheme: str = "uniform_random", seed=None) -> SpherePointSet:
    """Generate n points on S^d; deterministic for a fixed seed.

    Schemes: ``uniform_random`` (normalized Gaussian vectors),
    ``fibonacci_s2`` (quasi-uniform lattice, d = 2 only) and ``equator``
    (n equally spaced points on a great circle, any d).
    """
    n = _check_count("number of points n", n, 1)
    d = _check_count("sphere dimension d", d, 1)
    if scheme == "uniform_random":
        rng = np.random.default_rng(seed)
        vecs = rng.standard_normal((n, d + 1))
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


def _gram_matrix(kern, pts: SpherePointSet) -> np.ndarray:
    """K_ij = psi(theta_ij); LAPACK's eigvalsh and lower Cholesky read one triangle."""
    psi, _ = catalog.as_psi(kern)
    return psi(pts.distance_matrix())


def gram_report(kern, pts: SpherePointSet, tol: float = 1e-8) -> GramReport:
    """Assemble K_ij = psi(theta_ij) and judge positive semidefiniteness.

    The verdict is min_eigenvalue >= -tol * n_points, which absorbs the
    growth of symmetric-eigensolver backward error with matrix size.
    """
    eigvals = np.linalg.eigvalsh(_gram_matrix(kern, pts))
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
    """Read a point CSV; returns the point set and the value column if present."""
    with open(path, "r", newline="", encoding="utf8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise DomainError(f"no rows in point file {path}")
    header = [h.strip().lower() for h in rows[0]]
    has_value = header and header[-1] == "value"
    coord_names = header[:-1] if has_value else header
    latlon = coord_names[:2] == ["lat_deg", "lon_deg"]
    if not latlon and not all(name == f"x{i}" for i, name in enumerate(coord_names)):
        raise DomainError(
            f"unrecognized point columns {header}: expected lat_deg,lon_deg or x0..xd"
        )
    n_coords = 2 if latlon else len(coord_names)
    columns = list(range(n_coords)) + ([len(header) - 1] if has_value else [])
    table = np.empty((len(rows) - 1, len(columns)))
    for i, row in enumerate(rows[1:]):
        try:
            table[i] = [float(row[c]) for c in columns]
        except (ValueError, IndexError):
            raise DomainError(
                f"malformed row {','.join(row)!r} in point file {path}: "
                f"expected numbers in columns {', '.join(header)}"
            ) from None
    values = table[:, -1] if has_value else None
    if latlon:
        lat, lon = np.radians(table[:, 0]), np.radians(table[:, 1])
        pts = np.column_stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])
    else:
        pts = table[:, :n_coords]
    return SpherePointSet(pts), values
