"""Downstream uses of valid kernels: interpolation, simulation, diagnostics.

* Radial basis interpolation of scattered data on a sphere, with a
  fit/evaluate surface and a recorded jitter ladder for near-singular
  Gram matrices.
* Gaussian random field simulation on a fixed point set by dense
  Cholesky factorization of the kernel Gram matrix (single seeded
  stream, rows drawn in order, so output is reproducible).
* A log-log slope estimator for the fractal index.
* The two localization constructions built from the compactly supported
  fifth-order profile: chordal-argument versus great-circle-argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import catalog
from .errors import DomainError, FactorizationError, ParameterError
from .special import _check_count
from .sphere import SpherePointSet, _gram_matrix, _unit_norms, pairwise_angles

__all__ = [
    "FieldSample",
    "Interpolant",
    "JITTER_LADDER",
    "estimate_fractal_index",
    "interpolate_eval",
    "interpolate_fit",
    "localization_compare",
    "simulate",
]

JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)  # multiples of the mean Gram diagonal


@dataclass(frozen=True)
class Interpolant:
    """Weights of a spherical radial basis interpolant."""

    spec: catalog.KernelSpec
    nodes: SpherePointSet
    weights: np.ndarray
    ridge: float
    jitter_used: float


@dataclass(frozen=True)
class FieldSample:
    """Draws of a centered Gaussian field with kernel covariance."""

    points: SpherePointSet
    values: np.ndarray  # (n_samples, n_points)
    spec: catalog.KernelSpec
    seed: object
    jitter_used: float


def _chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K, escalating jitter on failure."""
    base = float(np.mean(np.diag(K)))
    for level in JITTER_LADDER:
        try:
            L = scipy.linalg.cholesky(K + level * base * np.eye(K.shape[0]), lower=True)
            return L, level * base
        except scipy.linalg.LinAlgError:
            continue
    raise FactorizationError(
        f"Gram matrix not positive definite even with jitter {JITTER_LADDER[-1]:g} * diag"
    )


def interpolate_fit(
    spec: catalog.KernelSpec, nodes: SpherePointSet, data, ridge: float = 0.0
) -> Interpolant:
    """Solve (K + ridge I) w = data for the interpolation weights.

    The kernel must be valid and strictly positive definite for the node
    dimension; otherwise the verdict's rule is quoted in the error.  A
    failing factorization retries with jitter 1e-12/1e-10/1e-8 times the
    mean diagonal; the jitter actually used is recorded on the result.
    """
    verdict = catalog.validate_params(spec, nodes.d)
    if not (verdict.valid and verdict.strict):
        raise ParameterError(
            f"kernel {spec} is not valid and strict on S^{nodes.d}: "
            f"{verdict.reason} (rule: {verdict.rule})"
        )
    y = np.asarray(data, dtype=float)
    if y.shape != (nodes.n_points,):
        raise DomainError(f"data must have shape ({nodes.n_points},), got {y.shape}")
    if not ridge >= 0:
        raise DomainError("ridge must be >= 0")
    K = _gram_matrix(spec, nodes) + ridge * np.eye(nodes.n_points)
    L, jitter = _chol_with_jitter(K)
    w = scipy.linalg.cho_solve((L, True), y)
    return Interpolant(spec=spec, nodes=nodes, weights=w, ridge=float(ridge), jitter_used=jitter)


def interpolate_eval(interp: Interpolant, x):
    """Evaluate sum_j w_j psi(theta(x, node_j)) at one point or a stack."""
    pts = np.asarray(x, dtype=float)
    pts2 = np.atleast_2d(pts)
    if pts2.ndim != 2 or pts2.shape[1] != interp.nodes.d + 1:
        raise DomainError(f"points must be one vector or a stack of vectors with "
                          f"{interp.nodes.d + 1} coordinates")
    angles = pairwise_angles(pts2 / _unit_norms(pts2)[:, None], interp.nodes.points)
    vals = (catalog.evaluate(interp.spec, angles) @ interp.weights).reshape(pts.shape[:-1])
    return float(vals) if vals.ndim == 0 else vals


def simulate(
    spec: catalog.KernelSpec, pts: SpherePointSet, n_samples: int, seed=None
) -> FieldSample:
    """Draw centered Gaussian samples with covariance K on a point set.

    Uses one seeded generator; draw i occupies row i regardless of how
    many samples are requested afterwards.
    """
    verdict = catalog.validate_params(spec, pts.d)
    if not verdict.valid:
        raise ParameterError(
            f"kernel {spec} is not valid on S^{pts.d}: {verdict.reason} (rule: {verdict.rule})"
        )
    n_samples = _check_count("n_samples", n_samples, 1)
    L, jitter = _chol_with_jitter(_gram_matrix(spec, pts))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, pts.n_points))
    return FieldSample(points=pts, values=z @ L.T, spec=spec, seed=seed, jitter_used=jitter)


def estimate_fractal_index(
    kern, theta_min: float = 1e-4, theta_max: float = 1e-2, n_grid: int = 20
) -> float:
    """Least-squares slope of log(1 - psi) against log(theta) near the origin.

    The slope of the short-range decay is the fractal index; the default
    window sits inside the asymptotic regime for catalog scales >= 0.1.
    """
    if not 0 < theta_min < theta_max <= 0.1:
        raise DomainError("need 0 < theta_min < theta_max <= 0.1")
    n_grid = _check_count("n_grid", n_grid, 2)
    psi, _ = catalog.as_psi(kern)
    theta = np.logspace(math.log10(theta_min), math.log10(theta_max), n_grid)
    drop = 1.0 - psi(theta)
    if not np.all(drop > 0.0):
        raise DomainError("kernel is flat on the grid: fractal index undefined")
    slope, _ = np.polyfit(np.log(theta), np.log(drop), 1)
    return float(slope)


def localization_compare(c: float, grid) -> np.ndarray:
    """Tabulate the two localization functions with support scale c.

    Column 0: theta.  Column 1: profile of the chordal construction
    psi1 = phi(sin(theta/2)/sin(c/2)).  Column 2: the direct great-circle
    construction psi2 = phi(theta/c).  Both share support [0, c] and
    psi2 >= psi1 with equality exactly at {0} and beyond c.
    """
    if not 0 < c <= math.pi:
        raise DomainError("support scale c must lie in (0, pi]")
    theta = catalog._check_theta(grid)
    spec = catalog.kernel("gaspari_cohn", c=c)
    psi1 = catalog.evaluate_euclidean(
        catalog.kernel("gaspari_cohn", c=1.0), np.sin(theta / 2.0) / math.sin(c / 2.0)
    )
    psi2 = catalog.evaluate(spec, theta)
    return np.column_stack([theta, psi1, psi2])
