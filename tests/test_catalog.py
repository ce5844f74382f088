"""Kernel family closed forms, validation and the chordal substitution."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import DEFAULT_SPECS, EUCLIDEAN_DEFAULT_SPECS, IN_RANGE_POINTS

from spherekernels import (
    KernelSpec,
    SchoenbergSequence,
    bessel_k,
    estimate_fractal_index,
    evaluate,
    evaluate_euclidean,
    fourier_coeffs,
    fractal_index_theoretical,
    gauss_legendre,
    gegenbauer,
    gegenbauer_coeffs,
    gegenbauer_normalized,
    gram_report,
    great_circle,
    interpolate_eval,
    interpolate_fit,
    kernel,
    legendre,
    legendre_from_fourier,
    localization_compare,
    membership,
    parse_kernel,
    polya_2n1,
    polya_circle,
    polya_s3,
    reconstruct,
    sample_points,
    simulate,
    strictness_evidence,
    validate_params,
    yadrenko,
)
from spherekernels.catalog import breakpoints, euclid_derivative
from spherekernels.special import gegenbauer_normalized_table, gegenbauer_one
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


def test_parse_kernel_roundtrip():
    spec = parse_kernel("Matern:C=0.3,NU=0.5")
    assert spec.family == "matern"
    assert spec.params == {"c": 0.3, "nu": 0.5}
    assert parse_kernel(str(spec)) == spec
    assert parse_kernel("cosine").family == "cosine"
    # missing parameters come from family defaults
    assert parse_kernel("askey:c=1").params["tau"] == 2.0


def test_parse_kernel_errors():
    with pytest.raises(ParameterError):
        parse_kernel("matern:c")
    with pytest.raises(ParameterError):
        parse_kernel("matern:c=abc")
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
        ("multiquadric", {"tau": 2.0, "delta": 1.0}, 0, False),
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


_MATERN = kernel("matern", c=0.3, nu=0.5)
_PE = kernel("powered_exponential")
_NAN = float("nan")


def _interpolant():
    return interpolate_fit(_MATERN, sample_points(2, 5, seed=0), np.arange(5.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: evaluate(_MATERN, _NAN),
        lambda: evaluate(_MATERN, [0.0, _NAN]),
        lambda: evaluate_euclidean(_MATERN, _NAN),
        lambda: evaluate_euclidean(_MATERN, math.inf),
        lambda: euclid_derivative(_PE, -1.0),
        lambda: euclid_derivative(_PE, _NAN),
        lambda: yadrenko(_MATERN, _NAN),
        lambda: gegenbauer_normalized(3, 0.5, _NAN),
        lambda: reconstruct(fourier_coeffs(_MATERN, 20), _NAN),
        lambda: localization_compare(1.0, [0.0, _NAN]),
        lambda: interpolate_eval(_interpolant(), [_NAN, 0.0, 1.0]),
        lambda: interpolate_eval(_interpolant(), np.tile([0.0, 0.0, 1.0], (2, 3, 1))),
        lambda: great_circle([_NAN, 0.0, 1.0], [0.0, 0.0, 1.0]),
        lambda: bessel_k(0.5, _NAN),
        lambda: validate_params(_MATERN, _NAN),
        lambda: validate_params(_MATERN, 2.5),
    ],
    ids=["evaluate", "evaluate-array", "evaluate_euclidean", "evaluate_euclidean-inf",
         "euclid_derivative-negative", "euclid_derivative", "yadrenko",
         "gegenbauer_normalized", "reconstruct", "localization_compare", "interpolate_eval",
         "interpolate_eval-3d", "great_circle", "bessel_k", "validate_params", "validate_params-fraction"],
)
def test_input_outside_its_domain_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


_ASKEY5 = kernel("askey", c=1.0, tau=5.0)
_SEQ = fourier_coeffs(_MATERN, 30)

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
    "legendre_from_fourier-n_out": (lambda v: legendre_from_fourier(_SEQ, v, 5), 3, DomainError),
    "legendre_from_fourier-k_tail": (lambda v: legendre_from_fourier(_SEQ, 3, v), 3, DomainError),
    "strictness_evidence-progression_n_max": (
        lambda v: strictness_evidence(_SEQ, progression_n_max=v), 3, DomainError
    ),
    "gegenbauer_one-n": (lambda v: gegenbauer_one(v, 1.5), 3, DomainError),
    "gegenbauer-n": (lambda v: gegenbauer(v, 1.5, 0.3), 3, DomainError),
    "gegenbauer_normalized-n": (lambda v: gegenbauer_normalized(v, 0.5, 0.3), 3, DomainError),
    "gegenbauer_normalized_table-n_max": (
        lambda v: gegenbauer_normalized_table(v, 0.5, [0.3, 0.6]), 3, DomainError
    ),
    "legendre-n": (lambda v: legendre(v, 0.3), 3, DomainError),
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


def test_euclid_derivative_matches_finite_differences():
    ts = np.array([0.05, 0.3, 0.7, 1.3])
    h = 1e-6
    for spec in EUCLIDEAN_DEFAULT_SPECS:
        exact = euclid_derivative(spec, ts, 1)
        fd = (evaluate_euclidean(spec, ts + h) - evaluate_euclidean(spec, ts - h)) / (2 * h)
        assert np.allclose(exact, fd, rtol=1e-6, atol=1e-8), spec
