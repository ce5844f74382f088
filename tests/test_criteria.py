"""Convexity-criterion checkers and their consistency with the verdicts."""

import math
import re
import warnings

import numpy as np
import pytest
from conftest import DEFAULT_SPECS, EUCLIDEAN_DEFAULT_SPECS, IN_RANGE_POINTS
from scipy.integrate import IntegrationWarning, quad

from spherekernels import (
    catalog,
    estimate_fractal_index,
    kernel,
    membership,
    polya_2n1,
    polya_circle,
    polya_s3,
)
from spherekernels.errors import DomainError


def test_circle_linear_profile_yes():
    report = polya_circle(lambda th: 1.0 - th / math.pi)
    assert report.satisfied == "YES"
    assert report.implied_class == "Psi_1"
    assert report.details["strict_note"] == "piecewise linear or flat"
    assert report.details["integral"] == pytest.approx(math.pi / 2, rel=1e-12)


def test_circle_exponential_yes_and_strict():
    report = polya_circle(lambda th: np.exp(-th))
    assert report.satisfied == "YES"
    assert report.implied_class == "Psi_1+"
    assert report.details["strict_note"] == "not piecewise linear"


def test_circle_integral_on_the_theta_rule():
    # (1 - theta/c)_+^tau integrates to c/(tau+1); the rule splits at the support edge
    report = polya_circle(kernel("askey", c=0.5, tau=2.0))
    assert report.details["integral"] == pytest.approx(0.5 / 3.0, rel=1e-12)


_POLYA_SPECS = (
    DEFAULT_SPECS
    + [kernel(family, **params) for family, points in IN_RANGE_POINTS.items() for params in points]
    + [kernel("askey", c=2.5), kernel("gaspari_cohn", c=2.0)]
)


@pytest.mark.parametrize("spec", _POLYA_SPECS, ids=str)
def test_circle_integral_matches_adaptive_quadrature(spec):
    # reference: scipy's adaptive quad on each piece between the breakpoints
    psi, breaks = catalog.as_psi(spec)
    edges = [0.0, *breaks, math.pi]
    f = lambda t: float(psi(np.array([t]))[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)  # rough profiles at the origin
        ref = sum(quad(f, a, b, limit=200, epsabs=0.0, epsrel=1e-13)[0]
                  for a, b in zip(edges[:-1], edges[1:]))
    # measured at most 8.9e-16 (generalized_cauchy c = 2)
    assert abs(polya_circle(spec).details["integral"] - ref) < 1e-14 * max(1.0, abs(ref))


def test_circle_gaussian_no():
    report = polya_circle(lambda th: np.exp(-(th**2)))
    assert report.satisfied == "NO"
    assert report.violations  # concave near the origin
    assert min(report.violations) < 0.7


def test_circle_negative_integral_alone_is_no():
    # nonincreasing and linear, so no grid violation, but the integral is pi - pi^2/2 < 0
    report = polya_circle(lambda th: 1.0 - th)
    assert report.satisfied == "NO"
    assert report.violations == ()
    assert report.details["integral"] == pytest.approx(math.pi - math.pi**2 / 2, rel=1e-12)


def test_circle_excess_below_the_tolerance_is_inconclusive():
    # a ripple of 1e-10 exceeds the rounding floor but not the tolerance 1e-9
    ripple = lambda eps: (lambda th: 1.0 - th / (2 * math.pi) + eps * np.sin(50 * th))
    report = polya_circle(ripple(1e-10))
    assert report.satisfied == "INCONCLUSIVE"
    assert report.violations == ()
    assert polya_circle(ripple(1e-6)).satisfied == "NO"


def test_circle_requires_standardization():
    with pytest.raises(DomainError):
        polya_circle(lambda th: 2.0 * np.exp(-th))


def test_s3_askey_globally_supported_yes():
    report = polya_s3(kernel("askey", c=4.0, tau=2.0))
    assert report.satisfied == "YES"
    assert report.implied_class == "Psi_3+"


def test_s3_exponential_yes():
    report = polya_s3(lambda t: np.exp(-t), dphi=lambda t: -np.exp(-t))
    assert report.satisfied == "YES"


def test_s3_squared_exponential_no():
    report = polya_s3(
        lambda t: np.exp(-(t**2)), dphi=lambda t: -2.0 * t * np.exp(-(t**2))
    )
    assert report.satisfied == "NO"
    assert report.violations and report.details["limit_ok"]


# completely monotone profiles, still above 1e-6 at the default horizon T = 50c
@pytest.mark.parametrize(
    "spec",
    [kernel("generalized_cauchy"), kernel("dagum"), kernel("powered_exponential", alpha=0.5)],
    ids=str,
)
def test_decay_shortfall_alone_is_inconclusive(spec):
    for report in (polya_s3(spec), polya_2n1(spec, 1), polya_2n1(spec, 2)):
        assert report.satisfied == "INCONCLUSIVE", report.criterion
        assert not report.violations and not report.details["limit_ok"]


@pytest.mark.parametrize("spec", EUCLIDEAN_DEFAULT_SPECS, ids=str)
def test_profile_checkers_answer_no_only_with_a_violation(spec):
    for report in [polya_s3(spec)] + [polya_2n1(spec, n) for n in (1, 2, 3)]:
        if report.satisfied == "NO":
            # grid violations, or polya_2n1's missing derivative, stated as its reason
            assert report.violations or "reason" in report.details, (report.criterion, spec)


def test_2n1_exponential_order3_yes():
    report = polya_2n1(kernel("matern", c=1.0, nu=0.5), 3)
    assert report.satisfied == "YES"
    assert report.implied_class == "Psi_7+"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_2n1_callable_profile_agrees_with_its_spec(n):
    # e^{-t} is the matern nu = 1/2 profile; both take phi^(n) from phi' by one rule
    from_callable = polya_2n1(lambda t: np.exp(-t), n, dphi=lambda t: -np.exp(-t))
    from_spec = polya_2n1(kernel("matern", c=1.0, nu=0.5), n)
    assert from_callable.satisfied == from_spec.satisfied == "YES"
    assert from_callable.implied_class == from_spec.implied_class


@pytest.mark.parametrize(
    "check", [polya_s3, lambda k: polya_2n1(k, 1), lambda k: polya_2n1(k, 2)],
    ids=["polya_s3", "polya_2n1-1", "polya_2n1-2"],
)
def test_profile_callable_needs_dphi(check):
    with pytest.raises(DomainError, match="dphi"):
        check(lambda t: np.exp(-t))


@pytest.mark.parametrize(
    "check", [polya_s3, lambda k, **kw: polya_2n1(k, 2, **kw)], ids=["polya_s3", "polya_2n1"]
)
def test_profile_callable_needs_a_callable_dphi(check):
    with pytest.raises(DomainError, match="first derivative passed as dphi="):
        check(lambda t: np.exp(-t), dphi=-1.0)


def _nan_past(t):  # exp(-t), NaN beyond 1e-3: inside every grid of the checks below
    return np.where(t > 1e-3, math.nan, np.exp(-t))


def _nan_past_50(t):  # exp(-t), NaN beyond t = 50: finite at 0, NaN at the horizon T = 100
    return np.where(t > 50.0, math.nan, np.exp(-t))


_NON_FINITE = {
    # each message names the checked function, its grid variable (t^2 on
    # polya_s3's grid) and plain floats
    "polya_circle": (lambda: polya_circle(_nan_past),
                     r"psi is not finite at theta = 0\.0061479\d*: nan"),
    "polya_s3": (lambda: polya_s3(lambda t: np.exp(-t), dphi=_nan_past),
                 r"-phi'\(sqrt\(t\)\) is not finite at t = 1\.0944997\d*e-06: nan"),
    "polya_2n1-1": (lambda: polya_2n1(lambda t: np.exp(-t), 1, dphi=_nan_past),
                    r"-phi'\(t\) is not finite at t = 0\.0010274\d*: nan"),
    "polya_2n1-2": (lambda: polya_2n1(lambda t: np.exp(-t), 2, dphi=_nan_past),
                    r"phi''\(t\) is not finite at t = 0\.01: nan"),
    "polya_2n1-3": (lambda: polya_2n1(lambda t: np.exp(-t), 3, dphi=_nan_past),
                    r"-phi'''\(t\) is not finite at t = 0\.01: nan"),
    # phi itself is read only at 0 and at the horizon, T = 100 for a callable
    "polya_s3-horizon": (lambda: polya_s3(_nan_past_50, dphi=lambda t: -np.exp(-t)),
                         r"phi is not finite at t = 100\.0: nan"),
    "polya_2n1-horizon": (lambda: polya_2n1(_nan_past_50, 1, dphi=lambda t: -np.exp(-t)),
                          r"phi is not finite at t = 100\.0: nan"),
    "estimate_fractal_index": (lambda: estimate_fractal_index(_nan_past),
                               r"psi is not finite at theta = 0\.0011288\d*: nan"),
}


@pytest.mark.parametrize("call,message", _NON_FINITE.values(), ids=_NON_FINITE.keys())
def test_a_non_finite_callable_is_a_domain_error(call, message):
    # NaN fails every comparison, so without the gate a convexity check answers YES
    with pytest.raises(DomainError) as err:
        call()
    assert re.fullmatch(message, str(err.value)), str(err.value)


def test_2n1_askey_tau5_order3_yes():
    report = polya_2n1(kernel("askey", c=1.0, tau=5.0), 3)
    assert report.satisfied == "YES"


@pytest.mark.parametrize(
    "check",
    [polya_circle, lambda k, grid_size: polya_s3(k, grid_size=grid_size),
     lambda k, grid_size: polya_2n1(k, 1, grid_size=grid_size)],
    ids=["polya_circle", "polya_s3", "polya_2n1"],
)
@pytest.mark.parametrize("grid_size", [0, 1, 2])
def test_checkers_need_three_grid_points(check, grid_size):
    # powered_exponential alpha = 2 is positive definite on no sphere
    with pytest.raises(DomainError, match="grid_size"):
        check(kernel("powered_exponential", c=1.0, alpha=2.0), grid_size=grid_size)


def test_2n1_rejects_order_beyond_proven_range():
    with pytest.raises(DomainError, match="open"):
        polya_2n1(kernel("askey", c=1.0, tau=5.0), 4)


_IMPLIED_DIM = {"Psi_1": 1, "Psi_1+": 1, "Psi_3+": 3, "Psi_5+": 5, "Psi_7+": 7}


def _criterion_reports(spec):
    reports = [polya_circle(spec)]
    if spec.family not in ("multiquadric", "sine_power", "cosine"):
        reports.append(polya_s3(spec))
        for n in (1, 2, 3):
            reports.append(polya_2n1(spec, n))
    return reports


@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=str)
def test_yes_never_contradicts_membership(spec):
    for report in _criterion_reports(spec):
        if report.satisfied != "YES":
            continue
        d = _IMPLIED_DIM[report.implied_class]
        verdict = membership(spec, d, 100, tail_tol=1.0)
        assert verdict.verdict != "FAIL", (spec, report.criterion, d)


@pytest.mark.parametrize("spec", EUCLIDEAN_DEFAULT_SPECS, ids=str)
def test_grid_refinement_never_flips_yes_to_no(spec):
    for fine_factor in (2,):
        coarse = polya_s3(spec, grid_size=128)
        fine = polya_s3(spec, grid_size=128 * fine_factor)
        if coarse.satisfied == "YES":
            assert fine.satisfied != "NO", spec
        coarse = polya_circle(spec, grid_size=256)
        fine = polya_circle(spec, grid_size=512)
        if coarse.satisfied == "YES":
            assert fine.satisfied != "NO", spec
