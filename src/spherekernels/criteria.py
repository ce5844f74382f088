"""Numeric checkers for convexity-based sufficient conditions.

Three checkers, each verifying the hypotheses of a sufficient condition
for positive definiteness on a finite grid:

* ``polya_circle``: psi continuous, nonincreasing and convex on [0, pi]
  with psi(0) = 1 and a nonnegative integral puts psi in the circle class
  (strictly when it is not piecewise linear).
* ``polya_s3``: a profile phi on [0, inf) with phi(0) = 1, phi -> 0 and
  -phi'(sqrt(t)) convex restricts to a strictly positive definite kernel
  on spheres up to dimension 3.
* ``polya_2n1``: (-1)^n phi^(n)(t) convex (n = 1, 2, 3) restricts to a
  strictly positive definite kernel on spheres up to dimension 2n + 1.
  Orders beyond 3 are rejected: whether the criterion extends is open.

The profile checkers take a KernelSpec with a Euclidean profile, or a
callable profile phi(t) together with its first derivative as ``dphi=``;
a callable without ``dphi`` is rejected.  Derivatives of order 2 and 3
that have no closed form come from one finite-difference rule on phi'
(``catalog.euclid_derivative``: step 1e-3 * max(1, t), forward near 0).
``polya_circle`` integrates psi on the same graded theta rule as the
Schoenberg coefficients.

Grid checks cannot certify convexity, so a YES here is a verified
hypothesis on the grid, NO exhibits violations, and INCONCLUSIVE flags
violations within tolerance of zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import catalog, schoenberg
from .errors import DomainError
from .special import _check_count

__all__ = ["CriterionReport", "polya_2n1", "polya_circle", "polya_s3"]

_FD_GRID_START = 1e-2  # finite-difference noise swamps the convexity signal below this


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    satisfied: str  # YES | NO | INCONCLUSIVE
    implied_class: str | None
    violations: tuple[float, ...]
    grid_size: int
    details: dict = field(default_factory=dict)


def _convexity_flags(x: np.ndarray, g: Callable[[np.ndarray], np.ndarray], tol: float):
    """Midpoint convexity on consecutive grid pairs: g(mid) <= avg within tol.

    Also checks every grid triple against its chord, which catches a
    downward jump even when the extra midpoint lands past it.
    """
    gx = g(x)
    mids = 0.5 * (x[:-1] + x[1:])
    excess = g(mids) - 0.5 * (gx[:-1] + gx[1:])
    frac = (x[1:-1] - x[:-2]) / (x[2:] - x[:-2])
    chord_excess = gx[1:-1] - (gx[:-2] + (gx[2:] - gx[:-2]) * frac)
    scale = max(1.0, float(np.abs(gx).max()))
    floor = 64 * np.finfo(float).eps * scale  # roundoff floor
    hard = np.concatenate([mids[excess > tol * scale], x[1:-1][chord_excess > tol * scale]])
    soft = np.concatenate([mids[excess > floor], x[1:-1][chord_excess > floor]])
    return np.sort(hard), np.sort(soft)


def _verdict(hard: np.ndarray, soft: np.ndarray) -> str:
    if hard.size:
        return "NO"
    if soft.size:
        return "INCONCLUSIVE"
    return "YES"


def polya_circle(kern, grid_size: int = 512, *, tol: float = 1e-9) -> CriterionReport:
    """Check nonincreasingness, convexity and integral sign of psi on [0, pi]."""
    grid_size = _check_count("grid_size", grid_size, 3)
    psi, breaks = catalog.as_psi(kern)
    if not abs(float(psi(np.array([0.0]))[0]) - 1.0) <= 1e-12:
        raise DomainError("candidate must satisfy psi(0) = 1 within 1e-12")
    x = np.linspace(0.0, math.pi, grid_size)
    fx = psi(x)
    scale = max(1.0, float(np.abs(fx).max()))
    increases = x[1:][np.diff(fx) > tol * scale]
    soft_increases = x[1:][np.diff(fx) > 64 * np.finfo(float).eps * scale]
    hard_cvx, soft_cvx = _convexity_flags(x, psi, tol)
    nodes, weights = schoenberg._theta_rule(breaks, 0)
    integral = float(weights @ psi(nodes))
    integral_bad = integral < -1e-10

    hard = np.concatenate([increases, hard_cvx])
    soft = np.concatenate([soft_increases, soft_cvx])
    satisfied = _verdict(hard, soft)
    if integral_bad:
        satisfied = "NO"

    # second differences bounded away from zero somewhere => not piecewise linear
    second = fx[:-2] - 2.0 * fx[1:-1] + fx[2:]
    h2 = (x[1] - x[0]) ** 2
    curved = float(np.abs(second).max()) > 1e3 * tol * h2 * scale
    implied = None
    if satisfied == "YES":
        implied = "Psi_1+" if curved else "Psi_1"
    return CriterionReport(
        criterion="polya_circle",
        satisfied=satisfied,
        implied_class=implied,
        violations=tuple(float(v) for v in hard[:20]),
        grid_size=grid_size,
        details={
            "integral": integral,
            "strict_note": "not piecewise linear" if curved else "piecewise linear or flat",
        },
    )


def _profile_report(criterion, kern, dphi, order, squared, grid_size, horizon, tol, details):
    """Shared body of polya_s3 and polya_2n1: convexity of (-1)^order phi^(order),
    read at sqrt(t) on a grid spanning T^2 when ``squared`` (S^3), else at t up to T.
    """
    if isinstance(kern, catalog.KernelSpec):
        phi = lambda t: catalog.evaluate_euclidean(kern, t)
        deriv = lambda t: catalog.euclid_derivative(kern, t, order)
        scale = kern.params.get("c", 1.0)
        fd_based = order > 1 and not catalog.has_analytic_derivatives(kern)
    elif callable(kern) and dphi is not None:
        phi = lambda t: np.asarray(kern(t), dtype=float)
        d1 = lambda t: np.asarray(dphi(t), dtype=float)
        deriv = lambda t: catalog._derivative_from_first(d1, t, order)
        scale = None
        fd_based = order > 1
    else:
        raise DomainError(
            "kernel must be a KernelSpec, or a callable profile phi(t) with its "
            "first derivative passed as dphi="
        )
    if not abs(float(np.atleast_1d(phi(np.array([0.0])))[0]) - 1.0) <= 1e-12:
        raise DomainError("profile must satisfy phi(0) = 1 within 1e-12")
    T = horizon if horizon is not None else 50.0 * (scale or 2.0)
    limit_val = float(np.atleast_1d(phi(np.array([T])))[0])
    limit_ok = abs(limit_val) < 1e-6

    sign = (-1.0) ** order
    warp = np.sqrt if squared else (lambda t: t)
    g = lambda t: sign * np.asarray(deriv(warp(t)), dtype=float)
    start = math.log10(_FD_GRID_START) if fd_based else -6.0
    span = (2.0 if squared else 1.0) * math.log10(T)
    t_grid = np.logspace(start, span, grid_size)
    hard, soft = _convexity_flags(t_grid, g, tol)
    satisfied = _verdict(hard, soft)
    if not limit_ok:
        satisfied = "NO"
    return CriterionReport(
        criterion=criterion,
        satisfied=satisfied,
        implied_class=f"Psi_{2 * order + 1}+" if satisfied == "YES" else None,
        violations=tuple(float(v) for v in hard[:20]),
        grid_size=grid_size,
        details={**details, "horizon": T, "phi_at_horizon": limit_val, "limit_ok": limit_ok},
    )


def polya_s3(
    kern,
    *,
    grid_size: int = 256,
    horizon: float | None = None,
    dphi: Callable | None = None,
    tol: float = 1e-9,
) -> CriterionReport:
    """Check phi(0)=1, decay at a finite horizon, and convexity of -phi'(sqrt t).

    ``kern`` is a KernelSpec with a Euclidean profile, or a callable
    profile phi(t) together with its first derivative ``dphi``; a callable
    without ``dphi`` raises DomainError.  YES implies the restriction of phi
    to [0, pi] is strictly positive definite on spheres up to dimension 3.
    The decay hypothesis is asymptotic; it is tested as |phi(T)| < 1e-6 at
    T = horizon (default 50 * scale when the spec carries a scale, else 100).
    """
    grid_size = _check_count("grid_size", grid_size, 3)
    return _profile_report("polya_s3", kern, dphi, 1, True, grid_size, horizon, tol, {})


def polya_2n1(
    kern,
    n: int,
    *,
    grid_size: int = 256,
    horizon: float | None = None,
    dphi: Callable | None = None,
    tol: float = 1e-9,
) -> CriterionReport:
    """Check convexity of (-1)^n phi^(n) for n in {1, 2, 3}.

    ``kern`` is a KernelSpec with a Euclidean profile, or a callable
    profile phi(t) together with its first derivative ``dphi``; a callable
    without ``dphi`` raises DomainError.  Orders n >= 2 without a closed
    form are differences of phi' with step 1e-3 * max(1, t).  YES implies
    the restriction of phi to [0, pi] is strictly positive definite on
    spheres up to dimension 2n + 1.  Orders n > 3 are rejected; whether
    the criterion extends to them is an open question.
    """
    n = _check_count("order n", n, 1)
    if n > 3:
        raise DomainError(
            f"order n={n} not supported: the criterion is proven for n <= 3 only "
            "(its extension to larger n is an open conjecture)"
        )
    grid_size = _check_count("grid_size", grid_size, 3)
    if isinstance(kern, catalog.KernelSpec) and catalog.max_derivative_order(kern) < n:
        return CriterionReport(
            criterion="polya_2n1",
            satisfied="NO",
            implied_class=None,
            violations=(),
            grid_size=0,
            details={
                "order": n,
                "reason": f"profile has no classical derivative of order {n} "
                "everywhere on (0, inf)",
            },
        )
    return _profile_report(
        "polya_2n1", kern, dphi, n, False, grid_size, horizon, tol, {"order": n}
    )
