"""Convexity-criterion checkers and their consistency with the verdicts."""

import math

import numpy as np
import pytest
from conftest import DEFAULT_SPECS, EUCLIDEAN_DEFAULT_SPECS

from spherekernels import kernel, membership, polya_2n1, polya_circle, polya_s3
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


def test_circle_gaussian_no():
    report = polya_circle(lambda th: np.exp(-(th**2)))
    assert report.satisfied == "NO"
    assert report.violations  # concave near the origin
    assert min(report.violations) < 0.7


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
