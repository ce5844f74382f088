"""Interpolation, field simulation, fractal estimation and localization."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from conftest import STRICT_DEFAULT_SPECS, full_gram

from spherekernels import (
    apps,
    estimate_fractal_index,
    fractal_index_theoretical,
    gram_report,
    interpolate_eval,
    interpolate_fit,
    kernel,
    localization_compare,
    sample_points,
    simulate,
    sphere,
)
from spherekernels.catalog import evaluate
from spherekernels.apps import JITTER_LADDER, _chol_with_jitter
from spherekernels.errors import DomainError, FactorizationError, ParameterError
from spherekernels.sphere import _gram_packed, pairwise_angles


def _height_data(pts):
    return pts.points[:, 2].copy()


# ---------------------------------------------------------------------------
# interpolation


@pytest.mark.parametrize("spec", STRICT_DEFAULT_SPECS, ids=str)
def test_node_exactness_at_zero_ridge(spec):
    nodes = sample_points(2, 80, "fibonacci_s2")
    data = np.sin(3 * nodes.points[:, 2]) + 0.5 * nodes.points[:, 0]
    interp = interpolate_fit(spec, nodes, data)
    resid = np.abs(interpolate_eval(interp, nodes.points) - data)
    assert resid.max() <= 1e-8 * np.linalg.norm(data)


@pytest.mark.parametrize("entries", [None, 250], ids=["default", "one-row-blocks"])
@pytest.mark.parametrize("spec", STRICT_DEFAULT_SPECS, ids=str)
def test_eval_in_row_blocks_is_the_whole_matrix(monkeypatch, spec, entries):
    if entries is not None:
        monkeypatch.setattr(sphere, "_BLOCK_ENTRIES", entries)
    nodes = sample_points(2, 300, seed=12)
    interp = interpolate_fit(spec, nodes, np.sin(3 * nodes.points[:, 0]))
    queries = sample_points(2, 1000, seed=13).points  # 218-row blocks and one of 128
    want = evaluate(spec, pairwise_angles(queries, nodes.points)) @ interp.weights
    got = interpolate_eval(interp, queries)
    assert got.shape == (1000,)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    one = interpolate_eval(interp, queries[7])
    assert isinstance(one, float) and abs(one - want[7]) <= 1e-14 * np.max(np.abs(want))
    assert interpolate_eval(interp, np.empty((0, 3))).shape == (0,)


@pytest.mark.parametrize("family", ["matern", "powered_exponential"])
def test_eval_never_holds_the_query_by_node_matrix(family):
    nodes = sample_points(2, 1000, seed=14)
    interp = interpolate_fit(kernel(family), nodes, _height_data(nodes))
    queries = sample_points(2, 8000, seed=15).points
    tracemalloc.start()
    try:
        interpolate_eval(interp, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6  # the 8000 x 1000 kernel matrix alone is 64 MB


def test_zero_data_gives_zero_weights():
    nodes = sample_points(2, 30, "fibonacci_s2")
    interp = interpolate_fit(kernel("matern"), nodes, np.zeros(30))
    assert np.max(np.abs(interp.weights)) == 0.0
    assert interpolate_eval(interp, np.array([0.0, 0.0, 1.0])) == 0.0


def test_invalid_and_nonstrict_kernels_rejected():
    nodes = sample_points(2, 10, "fibonacci_s2")
    with pytest.raises(ParameterError, match="rule"):
        interpolate_fit(kernel("powered_exponential", c=1, alpha=1.5), nodes, np.ones(10))
    with pytest.raises(ParameterError):
        interpolate_fit(kernel("cosine"), nodes, np.ones(10))  # valid but not strict
    with pytest.raises(ParameterError):
        interpolate_fit(kernel("spherical", c=1.0), sample_points(4, 10, seed=0), np.ones(10))


def test_interpolation_beats_constant_mean_on_held_out_points():
    nodes = sample_points(2, 50, "fibonacci_s2")
    data = _height_data(nodes)
    interp = interpolate_fit(kernel("sine_power", alpha=1.0), nodes, data)
    held_out = sample_points(2, 500, "uniform_random", seed=77)
    truth = _height_data(held_out)
    pred_err = np.abs(interpolate_eval(interp, held_out.points) - truth).max()
    const_err = np.abs(truth - data.mean()).max()
    assert pred_err < const_err


def test_compact_support_vanishes_at_antipode():
    node = sample_points(2, 1, "equator")
    interp = interpolate_fit(kernel("askey", c=1.0, tau=2.0), node, np.array([3.0]))
    antipode = -node.points[0]
    assert interpolate_eval(interp, antipode) == 0.0


def test_ridge_is_recorded_and_shrinks_fit():
    nodes = sample_points(2, 40, "fibonacci_s2")
    data = _height_data(nodes)
    exact = interpolate_fit(kernel("matern"), nodes, data, ridge=0.0)
    smoothed = interpolate_fit(kernel("matern"), nodes, data, ridge=1.0)
    assert smoothed.ridge == 1.0
    assert np.linalg.norm(smoothed.weights) < np.linalg.norm(exact.weights)


# ---------------------------------------------------------------------------
# simulation


def test_simulation_deterministic_given_seed():
    pts = sample_points(2, 8, seed=0)
    a = simulate(kernel("matern"), pts, 5, seed=99)
    b = simulate(kernel("matern"), pts, 5, seed=99)
    assert np.array_equal(a.values, b.values)
    assert a.values.shape == (5, 8)


def test_simulation_mean_within_standard_error():
    pts = sample_points(2, 10, "uniform_random", seed=11)
    sample = simulate(kernel("matern"), pts, 10_000, seed=5)
    # standard error of a unit-variance mean over 1e4 draws is 0.01
    assert np.abs(sample.values.mean(axis=0)).max() <= 0.03


def test_simulation_pairwise_correlation_recovery():
    pts = sample_points(2, 10, "uniform_random", seed=11)
    spec = kernel("matern")
    sample = simulate(spec, pts, 10_000, seed=5)
    dist = pairwise_angles(pts.points, pts.points)
    cov = sample.values.T @ sample.values / sample.values.shape[0]
    for i, j in ((0, 1), (2, 7), (4, 9)):
        rho = evaluate(spec, dist[i, j])
        rho_hat = cov[i, j] / math.sqrt(cov[i, i] * cov[j, j])
        assert abs(rho_hat - rho) <= 3 * (1 - rho**2) / 100.0


def test_simulation_respects_rank_deficiency():
    # the single-frequency kernel on three equally spaced equator points has
    # a rank-2 covariance; draws stay in its range
    pts = sample_points(2, 3, "equator")
    sample = simulate(kernel("cosine"), pts, 5, seed=1)
    null_vector = np.ones(3) / math.sqrt(3.0)
    assert np.abs(sample.values @ null_vector).max() < 1e-6


def test_simulation_rejects_invalid_kernel():
    pts = sample_points(2, 5, seed=0)
    with pytest.raises(ParameterError):
        simulate(kernel("matern", c=1.0, nu=2.0), pts, 3, seed=0)


# ---------------------------------------------------------------------------
# the jitter ladder


_EQUATOR = sample_points(2, 3, "equator")
_RANK_3 = sample_points(2, 600, seed=2)  # cosine is x . y, a rank-3 Gram on any S^2 points


def _shifted_cosine(scale):
    # the rows of three equally spaced equator points sum to -3e-14 scale: the ones
    # vector gives a Gram eigenvalue near -3e-14 scale, far beyond rounding
    return lambda theta: scale * (np.cos(theta) - 1e-14)


def _unpack(packed, n):
    """The lower triangular matrix a packed factor holds."""
    full, info = scipy.linalg.lapack.dtfttr(n, packed, transr="N", uplo="L")
    assert info == 0
    return np.tril(full)


def _pack(K):
    packed, info = scipy.linalg.lapack.dtrttf(K, transr="N", uplo="L")
    assert info == 0
    return packed


@pytest.fixture
def builds(monkeypatch):
    """Every packed Gram matrix the jitter ladder builds, in order."""
    built = []

    def spy(kern, pts):
        built.append(_gram_packed(kern, pts))
        return built[-1]

    monkeypatch.setattr(apps, "_gram_packed", spy)
    return built


@pytest.mark.parametrize("scale", [1.0, 4.0])
def test_singular_gram_takes_the_first_nonzero_rung(scale):
    K = full_gram(_shifted_cosine(scale), _EQUATOR)
    F, jitter = _chol_with_jitter(_shifted_cosine(scale), _EQUATOR)
    assert jitter == JITTER_LADDER[1] * np.mean(np.diag(K))
    want, info = scipy.linalg.lapack.dpftrf(3, _pack(K + jitter * np.eye(3)), transr="N", uplo="L")
    assert info == 0 and np.array_equal(F, want)
    # the rung rebuilds K rather than restoring it, so a rebuild must be bit for bit the same
    assert np.array_equal(_gram_packed(_shifted_cosine(scale), _EQUATOR), _pack(K))


def test_a_gram_singular_up_to_rounding_is_factored_on_some_rung():
    # cosine on three equator points is singular only up to rounding, so which rung
    # succeeds is a property of the LAPACK routine, not of K; the factor is exact either way
    K = full_gram(kernel("cosine"), _EQUATOR)
    F, jitter = _chol_with_jitter(kernel("cosine"), _EQUATOR)
    assert jitter in [level * np.mean(np.diag(K)) for level in JITTER_LADDER]
    L = _unpack(F, 3)
    assert np.max(np.abs(L @ L.T - (K + jitter * np.eye(3)))) <= 1e-15


def test_simulate_records_the_jitter_used():
    field = simulate(kernel("cosine"), _RANK_3, 4, seed=2)
    assert field.jitter_used == 1e-12


def test_each_jitter_rung_starts_from_the_unmodified_gram(monkeypatch):
    K = full_gram(_shifted_cosine(1.0), _EQUATOR)
    factored = []
    dpftrf = scipy.linalg.lapack.dpftrf

    def spy(n, a, **kwargs):
        factored.append(np.array(a))  # before a rung factors its input in place
        return dpftrf(n, a, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpftrf", spy)
    _, jitter = _chol_with_jitter(_shifted_cosine(1.0), _EQUATOR)
    assert len(factored) == 2  # rung 0 fails, rung 1 succeeds
    assert np.array_equal(factored[0], _pack(K))
    assert np.array_equal(factored[1], _pack(K + jitter * np.eye(3)))


def test_a_gram_that_fails_every_rung_raises(builds):
    # two antipodal points and psi(pi) = -2: eigenvalues 3 and -1
    antipodes = sample_points(1, 2, "equator")
    with pytest.raises(FactorizationError, match="1e-08"):
        _chol_with_jitter(lambda theta: 1.0 - 3.0 * theta / math.pi, antipodes)
    assert len(builds) == len(JITTER_LADDER)


@pytest.mark.parametrize("ridge", [0.0, 1e-6])
def test_the_factor_is_the_memory_of_the_gram_it_was_built_in(builds, ridge):
    pts = sample_points(2, 40, seed=3)
    F, jitter = _chol_with_jitter(kernel("matern"), pts, ridge)
    assert jitter == 0.0 and len(builds) == 1  # K is built once when rung 0 succeeds
    assert np.shares_memory(F, builds[0]) and F.size == 40 * 41 // 2
    K = full_gram(kernel("matern"), pts) + ridge * np.eye(40)
    want, info = scipy.linalg.lapack.dpftrf(40, _pack(K), transr="N", uplo="L")
    assert info == 0 and np.array_equal(F, want)


def test_a_jitter_rung_factors_the_gram_it_rebuilt(builds):
    F, jitter = _chol_with_jitter(_shifted_cosine(1.0), _EQUATOR)
    assert jitter > 0.0 and len(builds) == 2  # one build per rung tried
    assert np.shares_memory(F, builds[1]) and not np.shares_memory(F, builds[0])


@pytest.mark.parametrize("n", [1, 2, 7, 40, 301])
def test_packed_solve_and_draws_are_the_dense_ones(n):
    pts = sample_points(2, n, seed=n)
    spec = kernel("matern", c=0.8)
    K = full_gram(spec, pts)
    L = scipy.linalg.cholesky(K, lower=True)
    data = np.sin(3 * pts.points[:, 0])
    w = interpolate_fit(spec, pts, data).weights
    want = scipy.linalg.cho_solve((L, True), data)
    assert np.max(np.abs(w - want)) <= 1e-12 * np.max(np.abs(want))
    field = simulate(spec, pts, 5, seed=n)
    z = np.random.default_rng(n).standard_normal((5, n))
    assert np.max(np.abs(field.values - z @ L.T)) <= 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_psi_is_a_domain_error(monkeypatch, bad):
    def psi(theta):  # finite up to 1 radian, so the first row blocks are finite
        return np.where(theta > 1.0, bad, np.cos(theta))

    pts = sample_points(2, 5, seed=0)
    with pytest.raises(DomainError, match="psi is not finite at theta = "):
        gram_report(psi, pts)
    with pytest.raises(DomainError, match="psi is not finite at theta = "):
        _chol_with_jitter(psi, pts)
    # simulate takes catalog kernels only: let the catalog's evaluation be the bad psi
    monkeypatch.setattr(apps.catalog, "evaluate", lambda spec, theta: psi(theta))
    with pytest.raises(DomainError, match="psi is not finite at theta = "):
        simulate(kernel("matern"), pts, 2, seed=0)


# ---------------------------------------------------------------------------
# fractal index estimation


@pytest.mark.parametrize(
    "spec,expected",
    [
        (kernel("powered_exponential", c=1, alpha=0.5), 0.5),
        (kernel("matern", c=1, nu=0.3), 0.6),
        (kernel("sine_power", alpha=0.5), 0.5),
        (kernel("sine_power", alpha=1.0), 1.0),
        (kernel("sine_power", alpha=1.5), 1.5),
        (kernel("spherical", c=math.pi / 2), 1.0),
        (kernel("wendland_c2", c=math.pi, tau=4), 2.0),
    ],
    ids=str,
)
def test_fractal_index_recovery(spec, expected):
    assert abs(estimate_fractal_index(spec) - expected) < 0.05
    assert fractal_index_theoretical(spec) == pytest.approx(expected)


def test_fractal_index_estimator_guards():
    with pytest.raises(DomainError):
        estimate_fractal_index(kernel("matern"), theta_min=0.05, theta_max=0.2)
    with pytest.raises(DomainError):
        estimate_fractal_index(lambda th: np.ones_like(th))  # flat


# ---------------------------------------------------------------------------
# localization comparison


def test_localization_endpoints_and_spot_values():
    c = math.pi / 2
    table = localization_compare(c, np.array([0.0, math.pi / 4, c, 3.0]))
    theta, psi1, psi2 = table.T
    assert psi1[0] == 1.0 and psi2[0] == 1.0
    assert np.all(psi1[2:] == 0.0) and np.all(psi2[2:] == 0.0)
    assert psi2[1] == pytest.approx(5.0 / 24.0, abs=1e-12)
    # direct evaluation of the profile at sin(pi/8)/sin(pi/4) = 0.5411961...
    assert psi1[1] == pytest.approx(0.1548187, abs=1e-6)


@pytest.mark.parametrize("c", [math.pi / 4, math.pi / 2, math.pi])
def test_localization_dominance(c):
    grid = np.linspace(0.0, math.pi, 1001)
    table = localization_compare(c, grid)
    theta, psi1, psi2 = table.T
    inside = (theta > 0) & (theta < c)
    assert np.all(psi2[inside] > psi1[inside])
    outside = theta >= c
    assert np.all(psi2[outside] == psi1[outside])


def test_localization_rejects_bad_support():
    with pytest.raises(DomainError):
        localization_compare(4.0, np.array([0.1]))
    with pytest.raises(DomainError):
        localization_compare(0.0, np.array([0.1]))
