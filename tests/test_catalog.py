"""Kernel family closed forms, validation and the chordal substitution."""

import dataclasses
import io
import math
import os
import pickle
import re
import warnings

import numpy as np
import pytest
from conftest import DEFAULT_SPECS, EUCLIDEAN_DEFAULT_SPECS, IN_RANGE_POINTS
from hypothesis import given, settings
from hypothesis import strategies as st

from spherekernels import (
    FAMILY_NAMES,
    KernelSpec,
    SchoenbergSequence,
    SpherePointSet,
    bessel_k,
    estimate_fractal_index,
    evaluate,
    evaluate_euclidean,
    fourier_coeffs,
    fractal_index_theoretical,
    gauss_legendre,
    gegenbauer_coeffs,
    gram_report,
    interpolate_eval,
    interpolate_fit,
    kernel,
    localization_compare,
    membership,
    parse_kernel,
    polya_2n1,
    polya_circle,
    polya_s3,
    reconstruct,
    sample_points,
    simulate,
    validate_params,
    write_points,
    yadrenko,
)
from spherekernels.catalog import (
    _MATERN_T_FLOOR,
    _check_theta,
    breakpoints,
    euclid_derivative,
)
from spherekernels.schoenberg import from_csv
from spherekernels.special import gegenbauer_normalized_table
from spherekernels.errors import (
    DimensionMismatchError,
    DomainError,
    ParameterError,
    UnknownFamilyError,
)

COMPACT = ("spherical", "askey", "wendland_c2", "wendland_c4", "gaspari_cohn")


def _all_in_range_specs():
    return [
        kernel(name, **params)
        for name, points in IN_RANGE_POINTS.items()
        for params in points
    ]


# ---------------------------------------------------------------------------
# closed forms


@pytest.mark.parametrize("spec", _all_in_range_specs(), ids=str)
def test_standardization_at_zero(spec):
    assert abs(evaluate(spec, 0.0) - 1.0) < 1e-14


def test_spec_point_values():
    assert evaluate(kernel("sine_power", alpha=1.4), math.pi) == pytest.approx(0.0, abs=1e-15)
    assert evaluate(kernel("matern", c=1, nu=0.5), 2.0) == pytest.approx(math.exp(-2), rel=1e-12)
    assert evaluate(kernel("gaspari_cohn", c=1), 0.5) == pytest.approx(5.0 / 24.0, rel=1e-13)


# Matern at nu = 1/2, 3/2, 5/2: psi(t) and phi'(u) with t = theta / c, u = t_euclid / c
_MATERN_HALF_INTEGER = [
    (0.5, lambda t: np.exp(-t), lambda u, c: -np.exp(-u) / c),
    (1.5, lambda t: (1 + t) * np.exp(-t), lambda u, c: -(u / c) * np.exp(-u)),
    (2.5, lambda t: (1 + t + t * t / 3) * np.exp(-t),
     lambda u, c: -u * (1 + u) * np.exp(-u) / (3 * c)),
]


@pytest.mark.parametrize("nu, psi, dphi", _MATERN_HALF_INTEGER)
def test_matern_half_integer_closed_forms(nu, psi, dphi):
    c = math.pi / 50.0  # theta in [0, pi] reaches t = 50
    t = np.concatenate([np.geomspace(_MATERN_T_FLOOR, 50.0, 400), np.linspace(0.1, 50.0, 500)])
    spec = kernel("matern", c=c, nu=nu)
    theta = np.minimum(t * c, math.pi)
    assert np.max(np.abs(evaluate(spec, theta) - psi(theta / c))) <= 1e-15
    assert evaluate(spec, 0.0) == 1.0
    for scale in (1.0, 0.7):
        distance = t * scale
        exact = dphi(distance / scale, scale)
        got = euclid_derivative(kernel("matern", c=scale, nu=nu), distance)
        assert np.max(np.abs(got - exact)) <= 1e-15 * np.max(np.abs(exact))


def test_dagum_reads_its_tau():
    theta = np.array([0.3, 1.0, 2.5])
    # tau = 1: the values of the closed form 1 - (u/(1+u))^alpha, bit for bit
    at_one = kernel("dagum", c=1.5, tau=1.0, alpha=0.4)
    assert evaluate(at_one, theta).tolist() == [
        float.fromhex(h) for h in ("0x1.05f5c3ab6c918p-1", "0x1.3a383cfd07c78p-2",
                                   "0x1.5effe20edb9e0p-3")
    ]
    assert euclid_derivative(at_one, theta).tolist() == [
        -0.5426214910339855, -0.16635476235723518, -0.04971681026009979
    ]
    # tau = 0.5: 1 - (u^tau/(1+u^tau))^(alpha/tau) with u = theta/c
    spec = kernel("dagum", c=2.0, tau=0.5, alpha=0.3)
    closed = [1.0 - (math.sqrt(t / 2) / (1 + math.sqrt(t / 2))) ** 0.6 for t in theta]
    assert evaluate(spec, theta) == pytest.approx(closed, rel=1e-14)
    assert evaluate(spec, 1.0) != evaluate(kernel("dagum", c=2.0, tau=1.0, alpha=0.3), 1.0)


@pytest.mark.parametrize("delta", [0.2, 0.5, 0.8, 0.999, 0.99999, 1 - 1e-12])
def test_multiquadric_is_one_at_zero_for_delta_near_one(delta):
    theta = np.linspace(0.0, math.pi, 257)
    for tau in (0.5, 1.0, 2.5):
        spec = kernel("multiquadric", tau=tau, delta=delta)
        got = evaluate(spec, theta)
        assert got[0] == 1.0
        if delta <= 0.8:  # the textbook form, where 1 + d^2 - 2d cos(theta) cancels little
            old = (1 - delta) ** (2 * tau) / (1 + delta**2 - 2 * delta * np.cos(theta)) ** tau
            assert np.max(np.abs(got - old)) <= 1e-14
    polya_circle(kernel("multiquadric", tau=1.0, delta=delta))  # psi(0) = 1 within 1e-12


@pytest.mark.parametrize("name", COMPACT)
def test_compact_support(name):
    spec = kernel(name, c=1.2) if name in ("spherical", "gaspari_cohn") else kernel(name, c=1.2)
    theta = np.linspace(1.2, math.pi, 50)
    assert np.all(evaluate(spec, theta) == 0.0)


def test_gaspari_cohn_branches_agree_at_half():
    for c in (0.8, 1.0, math.pi):
        spec = kernel("gaspari_cohn", c=c)
        t = c / 2.0
        eps = 1e-9
        below = evaluate(spec, t - eps)
        above = evaluate(spec, t + eps)
        assert abs(below - above) < 1e-7  # continuity across the branch join
        assert evaluate(spec, t) == pytest.approx(5.0 / 24.0, abs=1e-14)


@pytest.mark.parametrize("name", COMPACT)
def test_support_edge_continuity(name):
    spec = kernel(name, c=2.0)
    vals = evaluate(spec, 2.0 - np.logspace(-9, -2, 8))
    assert np.all(np.abs(vals) < 1e-3)
    assert np.all(np.abs(np.diff(np.abs(vals[::-1]))) >= 0)  # decaying toward the edge


@pytest.mark.parametrize("spec", _all_in_range_specs(), ids=str)
def test_monotone_nonincreasing_for_valid_params(spec):
    if spec.family == "cosine":
        theta = np.linspace(0.0, math.pi, 1000)
        assert np.all(np.diff(evaluate(spec, theta)) <= 1e-15)
        return
    theta = np.linspace(0.0, math.pi, 1000)
    assert np.all(np.diff(evaluate(spec, theta)) <= 1e-12)


def test_eval_rejects_angles_outside_range():
    with pytest.raises(DomainError):
        evaluate(kernel("sine_power"), -0.1)
    with pytest.raises(DomainError):
        evaluate(kernel("sine_power"), math.pi + 0.1)


# ---------------------------------------------------------------------------
# spec construction and parsing


def test_unknown_family_rejected():
    with pytest.raises(UnknownFamilyError):
        KernelSpec("gaussian", {"c": 1.0})


def test_bad_parameters_rejected():
    with pytest.raises(ParameterError):
        KernelSpec("matern", {"c": 1.0})  # missing nu
    with pytest.raises(ParameterError):
        KernelSpec("matern", {"c": 1.0, "nu": 0.5, "tau": 1.0})
    with pytest.raises(ParameterError):
        KernelSpec("matern", {"c": float("nan"), "nu": 0.5})


_TWICE = {
    "parse_kernel": lambda: parse_kernel("matern:c=1,c=3"),
    "parse_kernel-case": lambda: parse_kernel("matern:C=1,nu=0.5,c=3"),
    "kernel": lambda: kernel("matern", c=1, C=2),
    "KernelSpec": lambda: KernelSpec("matern", {"c": 1, "C": 5, "nu": 0.5}),
}


@pytest.mark.parametrize("call", _TWICE.values(), ids=_TWICE.keys())
def test_parameter_given_twice_is_rejected(call):
    with pytest.raises(ParameterError, match="'c' is given more than once"):
        call()


def test_parse_kernel_roundtrip():
    spec = parse_kernel("Matern:C=0.3,NU=0.5")
    assert spec.family == "matern"
    assert spec.params == {"c": 0.3, "nu": 0.5}
    assert parse_kernel(str(spec)) == spec
    assert parse_kernel("cosine").family == "cosine"
    # missing parameters come from family defaults
    assert parse_kernel("askey:c=1").params["tau"] == 2.0
    # an empty item between commas is skipped
    assert parse_kernel("matern:c=1,,nu=0.5") == kernel("matern", c=1.0, nu=0.5)


def test_parse_kernel_errors():
    with pytest.raises(ParameterError, match="empty kernel specification"):
        parse_kernel("  ")
    with pytest.raises(ParameterError):
        parse_kernel("matern:c")
    with pytest.raises(ParameterError):
        parse_kernel("matern:c=abc")
    with pytest.raises(ParameterError, match="got 'family'"):  # not kernel()'s own argument
        parse_kernel("matern:family=1")
    with pytest.raises(UnknownFamilyError):
        parse_kernel("laplace:c=1")


# ---------------------------------------------------------------------------
# validation


def test_validation_spec_examples():
    v = validate_params(kernel("powered_exponential", c=1, alpha=0.5), math.inf)
    assert v.valid and v.strict

    v = validate_params(kernel("powered_exponential", c=1, alpha=1.5), 1)
    assert not v.valid

    v = validate_params(kernel("wendland_c2", c=math.pi, tau=4), 3)
    assert v.valid and v.strict

    v = validate_params(kernel("wendland_c2", c=3.5, tau=4), 1)
    assert not v.valid


@pytest.mark.parametrize(
    "name,params,max_valid_d,strict",
    [
        ("powered_exponential", {"c": 2.0, "alpha": 1.0}, math.inf, True),
        ("matern", {"c": 1.0, "nu": 0.5}, math.inf, True),
        ("matern", {"c": 1.0, "nu": 0.75}, 0, False),
        ("generalized_cauchy", {"c": 1.0, "alpha": 1.0, "tau": 3.0}, math.inf, True),
        ("generalized_cauchy", {"c": 1.0, "alpha": 1.2, "tau": 1.0}, 0, False),
        ("dagum", {"c": 1.0, "tau": 1.0, "alpha": 0.99}, math.inf, True),
        ("dagum", {"c": 1.0, "tau": 1.0, "alpha": 1.0}, 0, False),
        ("multiquadric", {"tau": 2.0, "delta": 0.9}, math.inf, True),
        ("multiquadric", {"tau": 2.0, "delta": 0.0}, math.inf, False),  # psi = 1
        ("sine_power", {"alpha": 1.99}, math.inf, True),
        ("sine_power", {"alpha": 2.0}, math.inf, False),
        ("sine_power", {"alpha": 2.2}, 0, False),
        ("spherical", {"c": 9.0}, 3, True),
        ("askey", {"c": 9.0, "tau": 2.0}, 3, True),
        ("askey", {"c": 1.0, "tau": 1.5}, 0, False),
        ("wendland_c2", {"c": 2.0, "tau": 4.0}, 3, True),
        ("wendland_c4", {"c": 2.0, "tau": 6.0}, 3, True),
        ("wendland_c4", {"c": 2.0, "tau": 5.0}, 0, False),
        ("gaspari_cohn", {"c": math.pi}, 3, True),
        ("gaspari_cohn", {"c": 3.5}, 0, False),
        ("cosine", {}, math.inf, False),
        # each boundary, and just past it
        ("powered_exponential", {"c": 2.0, "alpha": 1.0 + 1e-9}, 0, False),
        ("matern", {"c": 1.0, "nu": 0.5 + 1e-9}, 0, False),
        ("generalized_cauchy", {"c": 1.0, "alpha": 1.0 + 1e-9, "tau": 1.0}, 0, False),
        ("dagum", {"c": 1.0, "tau": 1.0 + 1e-9, "alpha": 0.5}, 0, False),
        ("multiquadric", {"tau": 2.0, "delta": 5e-324}, math.inf, True),
        ("sine_power", {"alpha": 2.0 + 1e-9}, 0, False),
        ("spherical", {"c": 1e-3}, 3, True),
        ("askey", {"c": 1.0, "tau": 2.0 - 1e-9}, 0, False),
        ("wendland_c2", {"c": 2.0, "tau": 3.9}, 0, False),
        ("wendland_c2", {"c": math.pi + 1e-9, "tau": 4.0}, 0, False),
        ("wendland_c4", {"c": math.pi, "tau": 6.0}, 3, True),
        ("wendland_c4", {"c": 3.2, "tau": 6.0}, 0, False),
        ("gaspari_cohn", {"c": math.pi + 1e-9}, 0, False),
    ],
)
def test_validity_table(name, params, max_valid_d, strict):
    spec = kernel(name, **params)
    for d in (1, 2, 3, 4, 7, math.inf):
        verdict = validate_params(spec, d)
        assert verdict.valid == (d <= max_valid_d)
        if verdict.valid:
            assert verdict.strict == strict
            assert verdict.rule


@pytest.mark.parametrize(
    "name,params",
    [
        # a scale c <= 0, a shape <= 0 and delta outside [0, 1) lie outside the domains
        ("powered_exponential", {"c": -1.0, "alpha": 1.0}),
        ("matern", {"c": -1.0, "nu": 0.5}),
        ("generalized_cauchy", {"c": -1.0, "alpha": 1.0, "tau": 1.0}),
        ("dagum", {"c": -1.0, "tau": 1.0, "alpha": 0.5}),
        ("spherical", {"c": -1.0}),
        ("multiquadric", {"tau": 2.0, "delta": 1.0}),
        ("matern", {"c": 0.0, "nu": 0.5}),
        ("matern", {"c": 1.0, "nu": 0.0}),
        ("generalized_cauchy", {"c": 1.0, "alpha": 0.0, "tau": 1.0}),
        ("dagum", {"c": 1.0, "tau": 0.0, "alpha": 0.5}),
        ("wendland_c4", {"c": -1.0, "tau": 6.0}),
        ("multiquadric", {"tau": 1.0, "delta": -0.1}),
        # a subnormal shape: Gamma(nu) overflows, and dagum's alpha/tau rounds to 0
        ("matern", {"c": 1.0, "nu": 5e-324}),
        ("dagum", {"c": 1.0, "tau": 2.0, "alpha": 1e-310}),
        # K_nu overflows at matern's floor t = 1e-14 from nu = 20.1 on
        ("matern", {"c": 3.0, "nu": 21.0}),
        ("matern", {"c": 1.0, "nu": 20.1}),
    ],
)
def test_specs_outside_the_parameter_domains_are_refused(name, params):
    domains = r"must lie in (\(0, inf\), not subnormal|\(0, 20\], not subnormal|\[0, 1\))"
    with pytest.raises(ParameterError, match=domains):
        kernel(name, **params)


@pytest.mark.parametrize("c", [1e-3, 1.0, 3.0, 1e6])
def test_matern_is_finite_at_the_largest_nu(c):
    # K_20 at the floor t = 1e-14 is 6.4e302; just above it psi is 1 to double precision
    spec = kernel("matern", c=c, nu=20.0)
    vals = evaluate(spec, np.linspace(0.0, math.pi, 513))
    assert np.all(np.isfinite(vals)) and vals[0] == 1.0
    near_floor = evaluate(spec, c * np.array([1e-14, 1.0000001e-14, 2e-14, 1e-12]))
    assert np.all(np.abs(near_floor - 1.0) < 1e-12)
    assert membership(spec, 2, 200).verdict in ("PASS", "FAIL", "INCONCLUSIVE")


_SCALES = st.sampled_from([-1.0, 0.0]) | st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
_DRAWS = {"c": _SCALES, "delta": st.floats(-0.5, 1.5)}  # the shapes: st.floats(-1, 10)


@settings(deadline=None, max_examples=400)
@given(st.sampled_from(FAMILY_NAMES), st.data())
def test_a_spec_is_refused_or_its_psi_is_finite(name, data):
    params = {k: data.draw(_DRAWS.get(k, st.floats(-1.0, 10.0)), label=k) for k in kernel(name).params}
    tiny = np.finfo(float).tiny
    outside = any(not 0 <= v < 1 if k == "delta" else v < tiny for k, v in params.items())
    try:
        spec = kernel(name, **params)
    except ParameterError:
        assert outside
        return
    assert not outside
    theta = np.concatenate([[0.0, 1e-300, 1e-14, 1e-8], np.linspace(0.0, math.pi, 513)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = evaluate(spec, theta)
    assert np.all(np.isfinite(vals)) and vals[0] == 1.0


# the default shapes, and shapes whose power of th/c overflows at a tiny c
_TINY_SCALE_SPECS = [(name, {}) for name in FAMILY_NAMES if "c" in kernel(name).params] + [
    ("powered_exponential", {"alpha": 2.0}),
    ("generalized_cauchy", {"alpha": 2.0}),
    ("dagum", {"tau": 2.0, "alpha": 1.0}),
    ("matern", {"nu": 3.0}),
    ("wendland_c2", {"tau": 10.0}),
]


@pytest.mark.parametrize("c", [2.3e-308, 1e-300, 1e-160])
@pytest.mark.parametrize(
    "name,shape", _TINY_SCALE_SPECS, ids=[f"{n}{s}" for n, s in _TINY_SCALE_SPECS]
)
def test_psi_is_finite_at_the_smallest_scales(name, shape, c):
    # th/c reaches 1.4e308 and its powers overflow: psi takes its limit,
    # exactly 0 past a compact support, and raises no warning
    vals = evaluate(kernel(name, c=c, **shape), np.array([0.0, 1e-3, 1.0, 3.0, math.pi]))
    assert vals[0] == 1.0 and np.all((vals >= 0.0) & (vals <= 1.0))
    if name in COMPACT:
        assert np.all(vals[1:] == 0.0)


_PROVED_INVALID = [
    ("powered_exponential", {"alpha": 1.0 + 1e-9}),
    ("powered_exponential", {"alpha": 2.0}),
    ("generalized_cauchy", {"alpha": 1.5}),
    ("matern", {"nu": 0.5 + 1e-9}),
    ("matern", {"nu": 2.5}),
    ("sine_power", {"alpha": 2.0 + 1e-9}),
]
_NOT_GUARANTEED = [
    ("dagum", {"tau": 1.5, "alpha": 0.5}),
    ("dagum", {"tau": 1.0, "alpha": 1.0}),
    ("askey", {"tau": 1.5}),
    ("wendland_c2", {"tau": 3.9}),
    ("wendland_c2", {"c": 3.2}),
    ("wendland_c4", {"c": 3.2, "tau": 5.0}),
    ("gaspari_cohn", {"c": 3.2}),
]
_ANY_SPHERE = "not positive definite on any sphere"


@pytest.mark.parametrize("d", [1, 3, 4, math.inf])
def test_only_the_proved_invalid_branches_say_not_positive_definite_on_any_sphere(d):
    for name, params in _PROVED_INVALID:
        verdict = validate_params(kernel(name, **params), d)
        assert not verdict.valid
        assert re.fullmatch(rf"(alpha|nu)=\S+ outside \(0,(1|1/2|2)\]: {_ANY_SPHERE}", verdict.reason)
    for name, params in _NOT_GUARANTEED:
        verdict = validate_params(kernel(name, **params), d)
        assert not verdict.valid and _ANY_SPHERE not in verdict.reason
    for spec in _all_in_range_specs():
        verdict = validate_params(spec, d)
        assert verdict.valid or _ANY_SPHERE not in verdict.reason
        if d > 3 and not verdict.valid:  # the support condition holds, but only up to S^3
            assert verdict.reason == f"guaranteed only for d <= 3, requested d={d}"


def test_the_support_condition_checks_c_before_tau():
    verdict = validate_params(kernel("wendland_c2", c=3.2, tau=3.9), 1)
    assert verdict.reason == "support scale must lie in (0, pi]"


def test_validity_monotone_in_dimension():
    for spec in _all_in_range_specs():
        flags = [validate_params(spec, d).valid for d in (1, 2, 3, 4, 5, math.inf)]
        # once invalid, invalid for every larger dimension
        assert flags == sorted(flags, reverse=True)


# ---------------------------------------------------------------------------
# chordal substitution and fractal index


def test_yadrenko_trivial_points():
    for spec in EUCLIDEAN_DEFAULT_SPECS:
        assert yadrenko(spec, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert yadrenko(kernel("askey", c=2, tau=2), math.pi) == pytest.approx(0.0, abs=1e-15)


def test_yadrenko_rejects_sphere_only_families():
    with pytest.raises(DomainError):
        yadrenko(kernel("multiquadric"), 0.5)
    with pytest.raises(DomainError):
        evaluate_euclidean(kernel("cosine"), 0.5)


def test_yadrenko_floor():
    theta = np.linspace(0.0, math.pi, 2000)
    for spec in EUCLIDEAN_DEFAULT_SPECS:
        assert yadrenko(spec, theta).min() >= -0.21274


def test_fractal_index_table():
    assert fractal_index_theoretical(kernel("matern", c=1, nu=0.3)) == pytest.approx(0.6)
    assert fractal_index_theoretical(kernel("askey")) == 1.0
    assert fractal_index_theoretical(kernel("sine_power", alpha=1.0)) == 1.0
    assert fractal_index_theoretical(kernel("wendland_c2")) == 2.0
    assert fractal_index_theoretical(kernel("multiquadric")) is None
    assert fractal_index_theoretical(kernel("gaspari_cohn")) is None


def test_yadrenko_preserves_fractal_index():
    # log-log slope of 1 - phi(2 sin(theta/2)) near zero matches the table
    theta = np.logspace(-4, -2, 30)
    for spec in EUCLIDEAN_DEFAULT_SPECS:
        expected = fractal_index_theoretical(spec)
        if expected is None:
            continue
        drop = 1.0 - yadrenko(spec, theta)
        slope = np.polyfit(np.log(theta), np.log(drop), 1)[0]
        assert abs(slope - expected) < 0.05, spec


def test_breakpoints():
    assert breakpoints(kernel("askey", c=1.0, tau=2.0)) == (1.0,)
    assert breakpoints(kernel("gaspari_cohn", c=1.0)) == (0.5, 1.0)
    assert breakpoints(kernel("gaspari_cohn", c=math.pi)) == (math.pi / 2,)
    assert breakpoints(kernel("matern")) == ()


@pytest.mark.parametrize(
    "call",
    [
        lambda k: fourier_coeffs(k, 10),
        lambda k: gegenbauer_coeffs(k, 2, 10),
        lambda k: polya_circle(k),
        lambda k: gram_report(k, sample_points(2, 5, seed=0)),
        lambda k: estimate_fractal_index(k),
    ],
    ids=["fourier_coeffs", "gegenbauer_coeffs", "polya_circle", "gram_report",
         "estimate_fractal_index"],
)
def test_non_callable_kernel_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call("matern")


# Each kind of user callable, through a call that evaluates it on arrays
_CALLABLE_USES = {
    "gram_report": lambda f: gram_report(f, sample_points(2, 5, seed=0)),
    "membership": lambda f: membership(f, 2, 50),
    "polya_circle": lambda f: polya_circle(f),
    "polya_s3-phi": lambda f: polya_s3(f, dphi=lambda t: -np.exp(-t)),
    "polya_s3-dphi": lambda f: polya_s3(lambda t: np.exp(-t), dphi=lambda t: -f(t)),
    "polya_2n1-dphi": lambda f: polya_2n1(lambda t: np.exp(-t), 2, dphi=lambda t: -f(t)),
}


@pytest.mark.parametrize("use", list(_CALLABLE_USES.values()), ids=list(_CALLABLE_USES))
def test_a_scalar_callable_value_is_broadcast_to_its_argument(use):
    assert pickle.dumps(use(lambda t: 1.0)) == pickle.dumps(use(lambda t: np.ones_like(t)))


@pytest.mark.parametrize("use", list(_CALLABLE_USES.values()), ids=list(_CALLABLE_USES))
def test_a_callable_value_of_another_shape_is_a_domain_error(use):
    with pytest.raises(DomainError, match=r"returned shape \(3,\) for (theta|t) of shape \(\d"):
        use(lambda t: np.ones(3))


@pytest.mark.parametrize("use", list(_CALLABLE_USES.values()), ids=list(_CALLABLE_USES))
def test_a_complex_callable_value_is_a_domain_error(use):
    # a zero imaginary part too: a psi must be real, not cast to its real part
    with pytest.raises(DomainError, match=r"returned complex values for (theta|t); it must be real"):
        use(lambda t: np.exp(-np.asarray(t)) + 0j)


@pytest.mark.parametrize(
    "call",
    [
        lambda k: validate_params(k, 2),
        lambda k: simulate(k, sample_points(2, 5, seed=0), 2),
        lambda k: interpolate_fit(k, sample_points(2, 5, seed=0), np.zeros(5)),
    ],
    ids=["validate_params", "simulate", "interpolate_fit"],
)
def test_a_callable_where_a_kernel_spec_is_required_is_a_domain_error(call):
    with pytest.raises(DomainError, match="must be a KernelSpec, got <class 'function'>"):
        call(lambda theta: np.cos(theta))


_MATERN = kernel("matern", c=0.3, nu=0.5)
_PE = kernel("powered_exponential")
_NAN = float("nan")


def _interpolant():
    return interpolate_fit(_MATERN, sample_points(2, 5, seed=0), np.arange(5.0))


_OUTSIDE = {
    "evaluate": lambda: evaluate(_MATERN, _NAN),
    "evaluate-array": lambda: evaluate(_MATERN, [0.0, _NAN]),
    "evaluate_euclidean": lambda: evaluate_euclidean(_MATERN, _NAN),
    "evaluate_euclidean-inf": lambda: evaluate_euclidean(_MATERN, math.inf),
    "euclid_derivative-negative": lambda: euclid_derivative(_PE, -1.0),
    "euclid_derivative": lambda: euclid_derivative(_PE, _NAN),
    "yadrenko": lambda: yadrenko(_MATERN, _NAN),
    "gegenbauer_normalized_table": lambda: gegenbauer_normalized_table(3, 0.5, _NAN),
    "reconstruct": lambda: reconstruct(fourier_coeffs(_MATERN, 20), _NAN),
    "localization_compare": lambda: localization_compare(1.0, [0.0, _NAN]),
    "interpolate_eval": lambda: interpolate_eval(_interpolant(), [_NAN, 0.0, 1.0]),
    "interpolate_eval-3d": lambda: interpolate_eval(
        _interpolant(), np.tile([0.0, 0.0, 1.0], (2, 3, 1))
    ),
    "bessel_k": lambda: bessel_k(0.5, _NAN),
    "validate_params": lambda: validate_params(_MATERN, _NAN),
    "validate_params-fraction": lambda: validate_params(_MATERN, 2.5),
    "interpolate_fit-nan-data": lambda: interpolate_fit(
        _MATERN, sample_points(2, 3, seed=0), [0.0, _NAN, 1.0]
    ),
    "interpolate_fit-inf-data": lambda: interpolate_fit(
        _MATERN, sample_points(2, 3, seed=0), [0.0, math.inf, 1.0]
    ),
    "sample_points-seed": lambda: sample_points(2, 5, seed=-1),
    "sample_points-seed-fraction": lambda: sample_points(2, 5, seed=2.5),
    "simulate-seed": lambda: simulate(_MATERN, sample_points(2, 5, seed=0), 2, seed=-1),
    "interpolate_fit-data-shape": lambda: interpolate_fit(
        _MATERN, sample_points(2, 3, seed=0), [0.0, 1.0]
    ),
    "SpherePointSet-one-column": lambda: SpherePointSet(np.ones((3, 1))),
    "write_points-too-few-values": lambda: write_points(
        sample_points(2, 3, seed=0), os.devnull, values=[1.0, 2.0]
    ),
    "SchoenbergSequence-empty": lambda: SchoenbergSequence(1, [], 0, "x"),
    "from_csv-no-rows": lambda: from_csv(io.StringIO("# d=1\nn,b\n")),
    "euclid_derivative-order-4": lambda: euclid_derivative(_PE, 0.5, 4),
    "polya_s3-phi0": lambda: polya_s3(
        lambda t: 0.5 * np.exp(-t), dphi=lambda t: -0.5 * np.exp(-t)
    ),
    # Gamma(d - 1) overflows a double from d = 173 on, and so does the Schoenberg scale
    "membership-d-173": lambda: membership(kernel("matern", c=1, nu=0.5), 173, 50),
    "gegenbauer_coeffs-d-173": lambda: gegenbauer_coeffs(kernel("matern", c=1, nu=0.5), 173, 50),
}
# Every tolerance (and the ridge) must be finite and >= 0, a Polya horizon finite and > 0.
_TOLERANCES = {
    "membership-tol_fail": lambda v: membership(_MATERN, 2, 20, tol_fail=v),
    "membership-tol_pass": lambda v: membership(_MATERN, 2, 20, tol_pass=v),
    "membership-tail_tol": lambda v: membership(_MATERN, 2, 20, tail_tol=v),
    "gram_report-tol": lambda v: gram_report(_MATERN, sample_points(2, 5, seed=0), tol=v),
    "interpolate_fit-ridge": lambda v: interpolate_fit(
        _MATERN, sample_points(2, 5, seed=0), np.arange(5.0), ridge=v
    ),
}
_HORIZONS = {
    "polya_s3-horizon": lambda v: polya_s3(_MATERN, horizon=v),
    "polya_2n1-horizon": lambda v: polya_2n1(_MATERN, 1, horizon=v),
}
_OUTSIDE.update(
    {f"{name}-{bad}": (lambda call=call, bad=bad: call(bad))
     for table, bads in ((_TOLERANCES, (-1.0, _NAN, math.inf)),
                         (_HORIZONS, (0.0, -1.0, _NAN, math.inf)))
     for name, call in table.items() for bad in bads}
)


@pytest.mark.parametrize("call", list(_OUTSIDE.values()), ids=list(_OUTSIDE))
def test_input_outside_its_domain_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


_ASKEY5 = kernel("askey", c=1.0, tau=5.0)

# Every integer count in the API: the call with the count as its one
# argument, an integer value it accepts, and the error for a non-integer.
_COUNTS = {
    "fourier_coeffs-n_max": (lambda v: fourier_coeffs(_MATERN, v), 3, DomainError),
    "gegenbauer_coeffs-d": (lambda v: gegenbauer_coeffs(_MATERN, v, 5), 3, DimensionMismatchError),
    "gegenbauer_coeffs-n_max": (lambda v: gegenbauer_coeffs(_MATERN, 2, v), 3, DomainError),
    "membership-d": (lambda v: membership(_MATERN, v, 20), 3, DimensionMismatchError),
    "membership-n_max": (lambda v: membership(_MATERN, 2, v), 50, DomainError),
    "SchoenbergSequence-d": (
        lambda v: SchoenbergSequence(v, [1.0], 0, "x"), 3, DimensionMismatchError
    ),
    "SchoenbergSequence-quadrature_order": (
        lambda v: SchoenbergSequence(1, [1.0], v, "x"), 3, DomainError
    ),
    "gegenbauer_normalized_table-n_max": (
        lambda v: gegenbauer_normalized_table(v, 0.5, [0.3, 0.6]), 3, DomainError
    ),
    "gauss_legendre-m": (gauss_legendre, 3, DomainError),
    "validate_params-d": (lambda v: validate_params(_MATERN, v), 3, DomainError),
    "euclid_derivative-order": (lambda v: euclid_derivative(_ASKEY5, 0.5, v), 3, DomainError),
    "polya_circle-grid_size": (lambda v: polya_circle(_MATERN, grid_size=v), 3, DomainError),
    "polya_s3-grid_size": (lambda v: polya_s3(_MATERN, grid_size=v), 3, DomainError),
    "polya_2n1-grid_size": (lambda v: polya_2n1(_MATERN, 1, grid_size=v), 3, DomainError),
    "polya_2n1-order": (lambda v: polya_2n1(_ASKEY5, v, grid_size=16), 3, DomainError),
    "simulate-n_samples": (
        lambda v: simulate(_MATERN, sample_points(2, 5, seed=0), v, seed=0), 3, DomainError
    ),
    "estimate_fractal_index-n_grid": (
        lambda v: estimate_fractal_index(_MATERN, n_grid=v), 3, DomainError
    ),
    "sample_points-n": (lambda v: sample_points(2, v, seed=0), 3, DomainError),
    "sample_points-d": (lambda v: sample_points(v, 5, seed=0), 3, DomainError),
}

# A non-integer above the floor (so that only the integer test rejects it),
# NaN and inf; inf is a valid dimension for validate_params, so -inf there.
_NON_COUNTS = [
    (name, bad)
    for name, (_, good, _) in _COUNTS.items()
    for bad in (good + 0.5, _NAN, -math.inf if name == "validate_params-d" else math.inf)
]


@pytest.mark.parametrize("name,bad", _NON_COUNTS, ids=[f"{n}-{b}" for n, b in _NON_COUNTS])
def test_non_integer_count_is_rejected(name, bad):
    call, _, error = _COUNTS[name]
    with pytest.raises(error):
        call(bad)


def _same(a, b) -> bool:
    """Equal values of equal types, arrays byte for byte, dataclasses field by field."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b or (a != a and b != b)


@pytest.mark.parametrize("name", _COUNTS)
@pytest.mark.parametrize("kind", [float, np.int64])
def test_integral_count_of_any_type_is_the_integer(name, kind):
    call, good, _ = _COUNTS[name]
    assert _same(call(kind(good)), call(good))


@pytest.mark.parametrize(
    "spec",
    [
        kernel("dagum", c=1.0, tau=1.0, alpha=0.5),
        kernel("powered_exponential", c=1.0, alpha=0.5),
        kernel("generalized_cauchy", c=1.0, alpha=0.5, tau=1.0),
        kernel("matern", c=1.0, nu=0.3),
    ],
    ids=str,
)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_derivative_at_zero_is_a_domain_error(spec, order):
    # rough profiles have no derivative at 0; no family answers -inf or a floor value there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            euclid_derivative(spec, 0.0, order)


def test_angle_gate_allows_the_same_slack_everywhere():
    grid = [-1e-13, 1.0, math.pi + 1e-13]
    table = localization_compare(1.0, grid)
    assert table[0, 0] == 0.0 and table[-1, 0] == math.pi
    assert np.array_equal(table[:, 2], evaluate(kernel("gaspari_cohn", c=1.0), grid))


_GATE_GRID = np.linspace(0.0, math.pi, 257)


@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=str)
def test_evaluate_never_writes_its_argument(spec):
    theta = _GATE_GRID.copy()
    want = evaluate(spec, theta)
    assert np.array_equal(theta, _GATE_GRID)
    theta.setflags(write=False)
    assert np.array_equal(evaluate(spec, theta), want)
    assert np.array_equal(theta, _GATE_GRID)


@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=str)
def test_angle_gate_clips_the_slack_to_the_end_points(spec):
    slack = np.array([-1e-12, -1e-13, 1.0, math.pi + 1e-13, math.pi + 1e-12])
    ends = np.array([0.0, 0.0, 1.0, math.pi, math.pi])
    assert np.array_equal(evaluate(spec, slack), evaluate(spec, ends))
    assert evaluate(spec, -1e-12) == 1.0
    assert evaluate(spec, math.pi + 1e-12) == evaluate(spec, math.pi)


@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=str)
@pytest.mark.parametrize("bad", [math.nan, -2e-12, math.pi + 2e-12, math.inf, -math.inf])
def test_angle_gate_rejects_nan_and_angles_beyond_the_slack(spec, bad):
    with pytest.raises(DomainError):
        evaluate(spec, bad)
    with pytest.raises(DomainError):
        evaluate(spec, np.array([[0.5, 1.0], [bad, 2.0]]))


@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=str)
def test_angle_gate_keeps_empty_and_scalar_results(spec):
    for empty in ([], np.empty((0, 3))):
        out = evaluate(spec, empty)
        assert isinstance(out, np.ndarray) and out.dtype == float
        assert out.shape == np.shape(empty)
    row = evaluate(spec, np.array([0.0, 0.5, math.pi]))
    for i, scalar in enumerate((0.0, np.float64(0.5), np.array(math.pi))):
        out = evaluate(spec, scalar)
        assert type(out) is float and out == row[i]
    assert row[0] == 1.0


def test_angle_gate_hands_back_an_in_range_array_and_clips_a_copy():
    theta = np.linspace(0.0, math.pi, 9)
    assert _check_theta(theta) is theta
    theta[0], theta[-1] = -1e-13, math.pi + 1e-13
    clipped = _check_theta(theta)
    assert clipped is not theta and theta[0] == -1e-13
    assert clipped[0] == 0.0 and clipped[-1] == math.pi
    assert np.array_equal(clipped[1:-1], theta[1:-1])


def test_euclid_derivative_matches_finite_differences():
    ts = np.array([0.05, 0.3, 0.7, 1.3])
    h = 1e-6
    for spec in EUCLIDEAN_DEFAULT_SPECS + [kernel("dagum", c=1.0, tau=0.5, alpha=0.3)]:
        exact = euclid_derivative(spec, ts, 1)
        fd = (evaluate_euclidean(spec, ts + h) - evaluate_euclidean(spec, ts - h)) / (2 * h)
        assert np.allclose(exact, fd, rtol=1e-6, atol=1e-8), spec
