"""Coefficient sequences, dimension walks, reconstruction and verdicts."""

import io
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from conftest import (
    DEFAULT_SPECS,
    IN_RANGE_POINTS,
    circle_exponential_coeffs,
    circle_sine_power_coeffs,
    cosine_coeffs,
    legendre_from_fourier,
    multiquadric_coeffs,
    sphere_sine_power_coeffs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from spherekernels import catalog, kernel, schoenberg
from spherekernels.errors import DimensionMismatchError, DomainError
from spherekernels.schoenberg import (
    SchoenbergSequence,
    _gegenbauer_scale,
    _theta_rule,
    fourier_coeffs,
    from_csv,
    gegenbauer_coeffs,
    membership,
    reconstruct,
    strictness_evidence,
    to_csv,
    walk_1_to_3,
    walk_d_to_d2,
)
from spherekernels.special import _normalized_blocks, gegenbauer_normalized_table

PI = math.pi


def _cos(theta):
    return np.cos(theta)


def _cos2(theta):
    return np.cos(theta) ** 2


def _reference_table_sums(n_max, d, x, fw):
    """g_{n,d} * sum_j R_n(cos x_j) fw_j on every node, from an explicit basis table.

    At d = 1, 3 and 5 the rows are the trigonometric forms of DLMF 18.5,
    cos nx, sin((n+1)x)/((n+1) sin x) and
    (3/2)[sin((n+1)x)/((n+1)(n+2)) - sin((n+3)x)/((n+2)(n+3))]/sin^3 x, built
    200 rows at a time, so the reference does not share the projection's
    arithmetic; at every other d it is the recurrence's table.
    """
    g = _gegenbauer_scale(n_max, d)
    if d not in (1, 3, 5):
        return g * (gegenbauer_normalized_table(n_max, (d - 1) / 2.0, np.cos(x)) @ fw)
    out = np.empty(n_max + 1)
    for start in range(0, n_max + 1, 200):
        n = np.arange(start, min(start + 200, n_max + 1), dtype=float)[:, None]
        if d == 1:
            rows = np.cos(n * x)
        elif d == 3:
            rows = np.sin((n + 1) * x) / ((n + 1) * np.sin(x))
        else:
            first, second = np.sin((n + 1) * x) / (n + 1), np.sin((n + 3) * x) / (n + 3)
            rows = 1.5 * (first - second) / ((n + 2) * np.sin(x) ** 3)
        out[start : start + n.size] = rows @ fw
    return g * out


# ---------------------------------------------------------------------------
# cosine (d = 1) coefficients


def test_fourier_cos_is_single_frequency():
    seq = fourier_coeffs(_cos, 20)
    expected = np.zeros(21)
    expected[1] = 1.0
    assert np.max(np.abs(seq.coeffs - expected)) < 1e-13
    assert seq.d == 1 and seq.source == "direct_quadrature"


def test_fourier_cos_squared():
    seq = fourier_coeffs(_cos2, 20)
    expected = np.zeros(21)
    expected[0], expected[2] = 0.5, 0.5
    assert np.max(np.abs(seq.coeffs - expected)) < 1e-13


def test_fourier_askey_analytic_oracle():
    # hand integration by parts of (1 - theta/pi)^2 against cos(n theta)
    seq = fourier_coeffs(kernel("askey", c=PI, tau=2), 80)
    n = np.arange(1, 81)
    assert abs(seq.coeffs[0] - 1.0 / 3.0) < 1e-9
    assert np.max(np.abs(seq.coeffs[1:] - 4.0 / (PI**2 * n**2))) < 1e-9


def test_fourier_spherical_analytic_oracle():
    # exact coefficients of the spherical profile with support beyond pi
    c = 1.2 * PI
    seq = fourier_coeffs(kernel("spherical", c=c), 31)
    b = seq.coeffs
    assert abs(b[0] - (8 * c**3 - 6 * PI * c**2 + PI**3) / (8 * c**3)) < 1e-12
    for k in (1, 2, 5, 15):
        assert abs(b[2 * k] - 3 * PI / (4 * c**3) / k**2) < 1e-12
    for k in (0, 1, 7, 14):
        n = 2 * k + 1
        expected = 3 / (PI * c**3) * ((2 * c**2 - PI**2) / n**2 + 4.0 / n**4)
        assert abs(b[n] - expected) < 1e-12


# (spec, closed form, its parameter); exp(-theta/c) is powered_exponential at
# alpha = 1 and matern at nu = 1/2
_CIRCLE_ORACLES = (
    [(kernel("powered_exponential", c=c, alpha=1.0), circle_exponential_coeffs, c)
     for c in (0.3, 1.0, 2.0)]
    + [(kernel("matern", c=c, nu=0.5), circle_exponential_coeffs, c) for c in (0.3, 1.0, 2.0)]
    + [(kernel("sine_power", alpha=a), circle_sine_power_coeffs, a) for a in (0.5, 1.0, 1.3, 1.9)]
)


@pytest.mark.parametrize("spec,exact,param", _CIRCLE_ORACLES,
                         ids=[str(spec) for spec, _, _ in _CIRCLE_ORACLES])
def test_fourier_matches_the_circle_closed_forms(spec, exact, param):
    # measured 4.3e-14 to 5.6e-14 at n_max = 2000; the tail agrees to 1.4e-11
    b = exact(param, 2000)
    assert np.max(np.abs(fourier_coeffs(spec, 2000).coeffs - b)) < 1e-13
    assert abs(membership(spec, 1, n_max=2000).tail_mass - (1.0 - b.sum())) < 1e-10


@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=str)
def test_fourier_matches_cosine_projection_on_the_same_rule(spec):
    # reference: the explicit cos(n theta) basis on the library's own nodes
    n_max = 2000
    x, w = _theta_rule(catalog.breakpoints(spec), n_max)
    basis = np.cos(np.outer(np.arange(n_max + 1), x))
    expected = (2.0 / PI) * basis @ (catalog.evaluate(spec, x) * w)
    expected[0] *= 0.5
    assert np.max(np.abs(fourier_coeffs(spec, n_max).coeffs - expected)) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_projection_matches_the_table_on_the_same_rule(d):
    # reference: the stored basis table on the h nodes below pi/2 times the
    # folded profile, near + far for even n and near - far for odd n.  At
    # d = 5 the table is itself 1.3e-9 to 2.6e-9 from a long-double sum, so
    # the trigonometric reference and the walk below check that dimension
    n_max = 2000
    for spec in DEFAULT_SPECS:
        x, w = _theta_rule(catalog.breakpoints(spec), n_max)
        h = x.size // 2
        fw = catalog.evaluate(spec, x) * np.sin(x) ** (d - 1) * w
        near, far = fw[:h], fw[h:][::-1]
        table = gegenbauer_normalized_table(n_max, (d - 1) / 2.0, np.cos(x[:h]))
        even = np.arange(n_max + 1) % 2 == 0
        folded = np.where(even, table @ (near + far), table @ (near - far))
        expected = _gegenbauer_scale(n_max, d) * folded
        got = fourier_coeffs(spec, n_max) if d == 1 else gegenbauer_coeffs(spec, d, n_max)
        assert np.max(np.abs(got.coeffs - expected)) < 1e-9, spec


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_folded_projection_matches_the_unfolded_table(d):
    # reference: an explicit basis table (trigonometric at d = 1, 3, 5) on
    # every node of the rule, the pi end included (measured at most
    # 2.9e-14 g_{n,d}, at d = 1)
    n_max = 2000
    g = _gegenbauer_scale(n_max, d)
    for spec in DEFAULT_SPECS + [kernel("askey", c=2.5)]:  # a break past pi/2
        x, w = _theta_rule(catalog.breakpoints(spec), n_max)
        fw = catalog.evaluate(spec, x) * np.sin(x) ** (d - 1) * w
        expected = _reference_table_sums(n_max, d, x, fw)
        got = fourier_coeffs(spec, n_max) if d == 1 else gegenbauer_coeffs(spec, d, n_max)
        assert np.all(np.abs(got.coeffs - expected) <= 1e-13 * g), spec


@pytest.mark.parametrize("breaks", [(), (1.0,), (PI / 4, PI / 2), (2.5,), (PI / 2,)], ids=str)
def test_theta_rule_mirrors_about_half_pi(breaks):
    # (PI / 4, PI / 2) is gaspari_cohn's (c/2, c); askey c = 2.5 has its break past pi/2
    x, w = _theta_rule(breaks, 300)
    h = x.size // 2
    assert x.size == 2 * h
    assert np.array_equal(w, w[::-1])
    assert np.array_equal(x[h:], (PI - x[:h])[::-1])
    assert np.all(x[:h] < PI / 2) and np.all(np.diff(x) > 0)
    assert abs(w.sum() - PI) < 1e-13


def test_full_support_recurrence_runs_on_the_nodes_below_half_pi(monkeypatch):
    # the rule has 4176 nodes at n_max = 2000, all used; the sums see half:
    # the moments of d = 1 or 2 for d = 1..5 (walked up at d = 3, 4, 5) and
    # the basis recurrence at d = 6
    sizes = []

    def recording(name, real):
        def spy(*args):
            sizes.append((name, args[2].size))
            return real(*args)
        return spy

    monkeypatch.setattr(schoenberg, "_moment_sums", recording("moments", schoenberg._moment_sums))
    monkeypatch.setattr(schoenberg, "_normalized_blocks", recording("blocks", _normalized_blocks))
    for d in (1, 2, 3, 4, 5, 6):
        seq = fourier_coeffs(_cos, 2000) if d == 1 else gegenbauer_coeffs(_cos, d, 2000)
        assert seq.quadrature_order == 4176
    assert sizes == [("moments", 2088)] * 5 + [("blocks", 2088)]


@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=str)
def test_walks_from_the_circle_match_direct_quadrature_at_full_size(spec):
    # the S^3 and S^5 projections walk the circle's sums up to n_max + 2 and n_max + 4 on
    # the n_max rule; here the circle sequences come from their own rules, which at
    # n_max = 2000 are the same nodes, so the two agree bit for bit (the closed-form
    # oracles below check the route against exact coefficients)
    s3 = walk_1_to_3(fourier_coeffs(spec, 2002))
    assert np.max(np.abs(s3.coeffs - gegenbauer_coeffs(spec, 3, 2000).coeffs)) < 3e-13
    s5 = walk_d_to_d2(walk_1_to_3(fourier_coeffs(spec, 2004)))
    assert np.max(np.abs(s5.coeffs - gegenbauer_coeffs(spec, 5, 2000).coeffs)) < 1e-10


# Parameter boxes of every family: the in-range boxes the verdict benchmark draws from
_CATALOG_BOXES = {
    "powered_exponential": {"c": (0.5, 2.0), "alpha": (0.5, 1.0)},
    "matern": {"c": (0.5, 2.0), "nu": (0.2, 0.5)},
    "generalized_cauchy": {"c": (0.5, 2.0), "alpha": (0.5, 1.0), "tau": (0.5, 3.0)},
    "dagum": {"c": (0.5, 2.0), "tau": (0.5, 1.0), "alpha": (0.1, 0.45)},
    "multiquadric": {"tau": (0.5, 2.0), "delta": (0.2, 0.8)},
    "sine_power": {"alpha": (0.5, 1.9)},
    "spherical": {"c": (0.5, 1.5)},
    "askey": {"c": (0.5, 1.5), "tau": (2.0, 2.3)},
    "wendland_c2": {"c": (0.5, 1.2), "tau": (4.0, 4.0)},
    "wendland_c4": {"c": (0.5, 1.5), "tau": (6.0, 7.0)},
    "gaspari_cohn": {"c": (0.5, 1.5)},
    "cosine": {},
}


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(sorted(_CATALOG_BOXES)),
    st.sampled_from([1, 2, 3, 4, 5]),
    st.sampled_from([10, 200, 2000]),
    st.data(),
)
def test_moment_and_recurrence_sums_agree_on_the_same_folded_input(family, d, n_max, data):
    # the bounds of the same-rule tests above: 1e-12 at d = 1, and 1e-13 g_{n,d} for the
    # walked sums at d = 3, 4, 5 (measured at most 4.4e-16 g_{n,d}); at d = 2 the Legendre
    # connection sum is within 1e-15 g_{n,2} (measured at most 4.4e-16)
    box = _CATALOG_BOXES[family]
    params = {k: data.draw(st.floats(lo, hi), label=k) for k, (lo, hi) in box.items()}
    spec = kernel(family, **params)
    t, folded, _ = schoenberg._fold(spec, d, n_max)
    g = _gegenbauer_scale(n_max, d)
    if d <= 2:
        projected = g * schoenberg._moment_sums(d, n_max, t, folded)
    else:
        projected = gegenbauer_coeffs(spec, d, n_max).coeffs
    recurrence = g * schoenberg._recurrence_sums(d, n_max, t, folded)
    bound = {1: 1e-12, 2: 1e-15 * g}.get(d, 1e-13 * g)
    assert np.all(np.abs(projected - recurrence) <= bound)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
def test_legendre_sums_from_the_cosine_moments_at_the_smallest_n_max(n_max):
    # n_max = 0 has no odd row; n_max = 1 one row of each parity
    t, folded, _ = schoenberg._fold(kernel("matern", c=0.7, nu=0.3), 2, n_max)
    moments = schoenberg._moment_sums(2, n_max, t, folded)
    assert moments.shape == (n_max + 1,)
    recurrence = schoenberg._recurrence_sums(2, n_max, t, folded)
    assert np.all(np.abs(moments - recurrence) <= 1e-15)  # b_n within 1e-15 g_{n,2}


# S^3 and S^5 coefficients of the circle closed forms, walked exactly:
# (spec, closed form, its parameter, S^3 bound, S^5 bound), each bound
# within 1.5 times the error measured before the fold (c = 0.3: 1.9e-12,
# 2.9e-10; c = 1.5: 1.18e-11, 4.2e-9; alpha = 0.5: 5.9e-12, 2.1e-9;
# alpha = 1.9: 1.35e-11, 5.7e-9)
_WALKED_ORACLES = (
    (kernel("matern", c=0.3, nu=0.5), circle_exponential_coeffs, 0.3, 2.8e-12, 4.4e-10),
    (kernel("matern", c=1.5, nu=0.5), circle_exponential_coeffs, 1.5, 1.7e-11, 6.3e-9),
    (kernel("sine_power", alpha=0.5), circle_sine_power_coeffs, 0.5, 8.9e-12, 3.1e-9),
    (kernel("sine_power", alpha=1.9), circle_sine_power_coeffs, 1.9, 2.0e-11, 8.5e-9),
)


@pytest.mark.parametrize("spec,exact,param,tol3,tol5", _WALKED_ORACLES,
                         ids=[str(o[0]) for o in _WALKED_ORACLES])
def test_gegenbauer_matches_the_walked_circle_closed_forms(spec, exact, param, tol3, tol5):
    n_max = 2000
    s3 = walk_d_to_d2(SchoenbergSequence(1, exact(param, n_max + 4), 0, "exact"))
    s5 = walk_d_to_d2(s3)
    for d, walked, tol in ((3, s3, tol3), (5, s5, tol5)):
        got = gegenbauer_coeffs(spec, d, n_max).coeffs
        assert np.max(np.abs(got - walked.coeffs[: n_max + 1])) < tol, d


def test_the_walk_from_s2_lowers_the_s4_error():
    # measured 1.6e-10 (cosine) and 5.0e-11 (multiquadric) at n_max = 2000; the basis
    # recurrence on S^4 gives 2.9e-10 and 7.8e-11
    n_max = 2000
    cosine = gegenbauer_coeffs(kernel("cosine"), 4, n_max).coeffs
    assert np.max(np.abs(cosine - cosine_coeffs(n_max))) < 2.0e-10
    multiquadric = gegenbauer_coeffs(kernel("multiquadric", tau=1.5, delta=0.5), 4, n_max).coeffs
    assert np.max(np.abs(multiquadric - multiquadric_coeffs(0.5, 4, n_max))) < 6.0e-11


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("delta", [0.2, 0.5, 0.8])
def test_gegenbauer_matches_the_multiquadric_generating_function(d, delta):
    # tau = (d-1)/2; measured at most 6.7e-16 g_{n,d} for n <= 60
    spec = kernel("multiquadric", tau=(d - 1) / 2.0, delta=delta)
    exact = multiquadric_coeffs(delta, d, 60)
    for n_max in (60, 2000):
        got = gegenbauer_coeffs(spec, d, n_max).coeffs[:61]
        assert np.all(np.abs(got - exact) <= 1e-15 * _gegenbauer_scale(60, d)), n_max


def test_sine_power_closed_form_at_alpha_2():
    # 1 - sin(theta/2)^2 = (1 + cos theta)/2 = (P_0 + P_1)/2
    assert np.array_equal(sphere_sine_power_coeffs(2.0, 5), [0.5, 0.5, 0, 0, 0, 0])


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 1.9, 2.0])
def test_gegenbauer_matches_the_sphere_sine_power_closed_form(alpha):
    # measured 2.5e-13 to 4.5e-13 at n_max = 2000
    got = gegenbauer_coeffs(kernel("sine_power", alpha=alpha), 2, 2000).coeffs
    assert np.max(np.abs(got - sphere_sine_power_coeffs(alpha, 2000))) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
def test_cosine_coefficients_are_exact_up_to_the_rounding_model(d):
    # the projection's rounding noise grows like (n+1) g_{n,d} eps: measured at
    # most 4.4e-16 (n+1) g_{n,d} here, which is 1.4e-6 absolute on S^7
    n_max = 2000
    spec = kernel("cosine")
    got = fourier_coeffs(spec, n_max) if d == 1 else gegenbauer_coeffs(spec, d, n_max)
    floor = 1e-15 * np.arange(1, n_max + 2) * _gegenbauer_scale(n_max, d)
    assert np.all(np.abs(got.coeffs - cosine_coeffs(n_max)) <= floor)


def test_projection_does_not_store_the_basis():
    spec = kernel("matern", c=0.3, nu=0.5)
    tracemalloc.start()
    try:
        fourier_coeffs(spec, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6  # a stored 2001 x nodes table takes 67 MB


def test_successive_projections_are_bit_identical():
    spec = kernel("askey", c=1.2, tau=2.5)
    for d in (1, 2, 3, 5):
        first = fourier_coeffs(spec, 300) if d == 1 else gegenbauer_coeffs(spec, d, 300)
        again = fourier_coeffs(spec, 300) if d == 1 else gegenbauer_coeffs(spec, d, 300)
        assert np.array_equal(first.coeffs, again.coeffs)
        assert first.quadrature_order == again.quadrature_order


COMPACT_FAMILIES = ("spherical", "askey", "wendland_c2", "wendland_c4", "gaspari_cohn")


@pytest.mark.parametrize("family", COMPACT_FAMILIES)
@pytest.mark.parametrize("c", [0.5, 1.0])
def test_projection_skips_the_nodes_where_psi_vanishes(family, c):
    # reference: an explicit basis table on every node of the rule, zeros
    # included: the recurrence's at d = 2, the trigonometric forms at d = 1, 3, 5
    spec = kernel(family, c=c)
    n_max = 300
    x, w = _theta_rule(catalog.breakpoints(spec), n_max)
    psi = catalog.evaluate(spec, x)
    for d in (1, 2, 3, 5):
        fw = psi * np.sin(x) ** (d - 1) * w
        g = _gegenbauer_scale(n_max, d)
        expected = _reference_table_sums(n_max, d, x, fw)
        got = fourier_coeffs(spec, n_max) if d == 1 else gegenbauer_coeffs(spec, d, n_max)
        assert got.quadrature_order == np.count_nonzero(psi) < x.size
        assert np.all(np.abs(got.coeffs - expected) <= 1e-15 * g), (spec, d)


def test_projection_trims_a_compactly_supported_callable():
    psi = lambda t: np.where(t < 1.0, (1.0 - t) ** 2, 0.0)
    x, w = _theta_rule((), 200)
    fw = psi(x) * np.sin(x) ** 2 * w
    expected = _gegenbauer_scale(200, 3) * (gegenbauer_normalized_table(200, 1.0, np.cos(x)) @ fw)
    seq = gegenbauer_coeffs(psi, 3, 200)
    assert seq.quadrature_order == np.count_nonzero(x < 1.0) < x.size
    assert np.all(np.abs(seq.coeffs - expected) <= 1e-15 * _gegenbauer_scale(200, 3))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_a_psi_that_vanishes_on_every_node_projects_to_zero(d):
    # no node is used, so both sum routines run on an empty node set
    for n_max in (0, 3, 200):
        seq = fourier_coeffs(lambda t: 0.0 * t, n_max) if d == 1 else gegenbauer_coeffs(
            lambda t: 0.0 * t, d, n_max)
        assert seq.quadrature_order == 0
        assert np.array_equal(seq.coeffs, np.zeros(n_max + 1))


def test_projection_rejects_a_non_finite_psi():
    # as in a Gram matrix: an error naming the angle, never NaN coefficients
    for bad in (math.nan, math.inf, -math.inf):
        def psi(t):
            out = np.exp(-t)
            out[t > 3.0] = bad
            return out

        for d in (1, 3):
            # plain floats, not numpy scalar reprs
            message = r"^psi is not finite at theta = 3\.\d+: -?(nan|inf)$"
            with pytest.raises(DomainError, match=message):
                fourier_coeffs(psi, 50) if d == 1 else gegenbauer_coeffs(psi, d, 50)


def test_projection_calls_psi_on_read_only_nodes():
    def psi(t):
        t[0] = 0.0
        return np.exp(-t)

    with pytest.raises(ValueError):
        fourier_coeffs(psi, 50)


def test_cached_rule_and_scale_are_read_only():
    x, w = _theta_rule((1.0,), 200)
    assert _theta_rule((1.0,), 200)[0] is x  # memoized
    for arr in (x, w, _gegenbauer_scale(200, 1), _gegenbauer_scale(200, 3)):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert _gegenbauer_scale(200, 3) is _gegenbauer_scale(200, 3)


_PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")


@pytest.mark.parametrize("d,integer,divisor", [
    (3, lambda n: 2 * (n + 1) ** 2, 1),
    (5, lambda n: (2 * n + 4) * (n + 1) * (n + 2) * (n + 3), 9),
], ids=["S^3", "S^5"])
def test_gegenbauer_scale_matches_its_closed_form(d, integer, divisor):
    # g_{n,3} = 2(n+1)^2/pi and g_{n,5} = (2n+4)(n+1)(n+2)(n+3)/(9 pi) in 50 digits
    # (measured within 1.7e-16 relative): the integer part is exact in a double, so
    # only the constant and one product round
    g = _gegenbauer_scale(2000, d)
    with localcontext() as ctx:
        ctx.prec = 50
        worst = max(
            abs(Decimal(float(g[n])) * divisor * _PI_50 / integer(n) - 1) for n in range(2001)
        )
    assert worst < Decimal("4.5e-16")


def test_a_scale_that_overflows_a_double_names_d():
    assert np.all(np.isfinite(_gegenbauer_scale(2000, 172)))
    # Gamma(d - 1) overflows from d = 173 on; at d = 172, binom(n + 170, 170) does for large n
    for d, n_max in ((173, 50), (300, 50), (172, 20000)):
        with pytest.raises(DomainError, match=f"d = {d} "):
            _gegenbauer_scale(n_max, d)


def test_a_dimension_too_large_fails_before_the_projection(monkeypatch):
    # at d = 100, n_max = 100000 the projection would run for minutes before the scale overflowed
    def no_rule(*args):
        raise AssertionError("the theta rule was built")

    monkeypatch.setattr(schoenberg, "_theta_rule", no_rule)
    with pytest.raises(DomainError, match="d = 100 "):
        gegenbauer_coeffs(_cos, 100, 100000)


# ---------------------------------------------------------------------------
# Gegenbauer (d >= 2) coefficients


def test_gegenbauer_cos_single_coefficient():
    for d in (2, 3):
        seq = gegenbauer_coeffs(_cos, d, 15)
        expected = np.zeros(16)
        expected[1] = 1.0
        assert np.max(np.abs(seq.coeffs - expected)) < 1e-12


def test_gegenbauer_cos_squared_d3():
    seq = gegenbauer_coeffs(_cos2, 3, 15)
    expected = np.zeros(16)
    expected[0], expected[2] = 0.25, 0.75
    assert np.max(np.abs(seq.coeffs - expected)) < 1e-12


@pytest.mark.parametrize("d,m", [(2, 7), (3, 5), (5, 4), (7, 3)])
def test_gegenbauer_projection_recovers_basis_element(d, m):
    lam = (d - 1) / 2.0
    psi = lambda th: gegenbauer_normalized_table(m, lam, np.cos(th))[-1]
    seq = gegenbauer_coeffs(psi, d, 12)
    expected = np.zeros(13)
    expected[m] = 1.0
    # roundoff grows with the d-dependent normalization factor; ~1.4e-9 at d=7
    assert np.max(np.abs(seq.coeffs - expected)) < 1e-8


def test_gegenbauer_requires_d_at_least_2():
    with pytest.raises(DimensionMismatchError):
        gegenbauer_coeffs(_cos, 1, 10)


# ---------------------------------------------------------------------------
# dimension walks


def test_walk_1_to_3_exact_sequences():
    cos_seq = SchoenbergSequence(1, [0.0, 1.0, 0.0, 0.0, 0.0], 0, "analytic")
    out = walk_1_to_3(cos_seq)
    assert out.d == 3
    assert np.allclose(out.coeffs, [0.0, 1.0, 0.0], atol=0)

    cos2_seq = SchoenbergSequence(1, [0.5, 0.0, 0.5, 0.0, 0.0], 0, "analytic")
    out = walk_1_to_3(cos2_seq)
    assert np.allclose(out.coeffs, [0.25, 0.0, 0.75], atol=0)

    const = SchoenbergSequence(1, [1.0, 0.0, 0.0, 0.0], 0, "analytic")
    assert np.allclose(walk_1_to_3(const).coeffs, [1.0, 0.0], atol=0)


def test_walk_d_to_d2_exact_sequences():
    cos_d2 = SchoenbergSequence(2, [0.0, 1.0, 0.0, 0.0], 0, "analytic")
    assert np.allclose(walk_d_to_d2(cos_d2).coeffs, [0.0, 1.0], atol=0)
    const = SchoenbergSequence(2, [1.0, 0.0, 0.0], 0, "analytic")
    assert np.allclose(walk_d_to_d2(const).coeffs, [1.0], atol=0)


@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=str)
def test_walk_1_to_3_matches_direct_quadrature(spec):
    d1 = fourier_coeffs(spec, 52)
    walked = walk_1_to_3(d1)
    direct = gegenbauer_coeffs(spec, 3, 50)
    assert np.max(np.abs(walked.coeffs - direct.coeffs)) < 1e-8


def test_walk_2_to_4_matches_direct_quadrature_multiquadric():
    spec = kernel("multiquadric", tau=1.0, delta=0.3)
    walked = walk_d_to_d2(gegenbauer_coeffs(spec, 2, 22))
    direct = gegenbauer_coeffs(spec, 4, 20)
    assert np.max(np.abs(walked.coeffs - direct.coeffs)) < 1e-8


def test_coeffs_d5_trivial_sequences():
    cos_seq = SchoenbergSequence(1, np.eye(8)[1], 0, "analytic")
    assert np.allclose(walk_d_to_d2(walk_1_to_3(cos_seq)).coeffs, np.eye(4)[1], atol=0)
    const = SchoenbergSequence(1, np.eye(8)[0], 0, "analytic")
    assert np.allclose(walk_d_to_d2(walk_1_to_3(const)).coeffs, np.eye(4)[0], atol=0)


def test_walk_dimension_mismatches():
    seq3 = SchoenbergSequence(3, [1.0, 0, 0, 0], 0, "analytic")
    with pytest.raises(DimensionMismatchError):
        walk_1_to_3(seq3)
    seq1 = SchoenbergSequence(1, [1.0, 0, 0, 0], 0, "analytic")
    assert walk_d_to_d2(seq1).d == 3
    assert np.array_equal(walk_d_to_d2(seq1).coeffs, walk_1_to_3(seq1).coeffs)
    with pytest.raises(DimensionMismatchError, match="up to n=2"):
        walk_d_to_d2(SchoenbergSequence(3, [1.0, 0.0], 0, "analytic"))


def _reference_walk(b, d):
    """The walk as two formulas: the general row for d >= 2, the circle's own at d = 1."""
    n_out = b.size - 3
    if d == 1:
        out = np.empty(n_out + 1)
        out[0] = b[0] - 0.5 * b[2]
        n = np.arange(1, n_out + 1)
        out[1:] = 0.5 * (n + 1) * (b[1 : n_out + 1] - b[3 : n_out + 3])
        return out
    n = np.arange(n_out + 1)
    return (n + d - 1) * (n + d) / (d * (2 * n + d - 1)) * b[: n_out + 1] - (n + 1) * (n + 2) / (
        d * (2 * n + d + 3)
    ) * b[2 : n_out + 3]


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=60), st.integers(1, 7))
def test_one_walk_for_every_dimension(values, d):
    # d >= 2: the general row bit for bit; d = 1: the circle's formula up to rounding
    b = np.array(values)
    walked = walk_d_to_d2(SchoenbergSequence(d, b, 0, "analytic")).coeffs
    reference = _reference_walk(b, d)
    if d >= 2:
        assert walked.tobytes() == reference.tobytes()
    else:
        n = np.arange(walked.size)
        bound = 4.0 * np.finfo(float).eps * (n + 1) * np.abs(b).max()
        assert np.all(np.abs(walked - reference) <= bound)


# ---------------------------------------------------------------------------
# cosine-to-Legendre series


def test_legendre_from_fourier_trivial():
    # the oracle's own check: cos theta and the constant are single Legendre terms
    assert np.allclose(legendre_from_fourier(np.eye(200)[1], 5, 40), np.eye(6)[1], atol=1e-14)
    assert np.allclose(legendre_from_fourier(np.eye(200)[0], 5, 40), np.eye(6)[0], atol=1e-14)


def test_legendre_from_fourier_matches_quadrature():
    # n <= 10 for the compactly supported quadratic profile; the series
    # tail shrinks like k^-4, measured 7.4e-6 at k_tail=40, 1.9e-7 at 150
    spec = kernel("askey", c=PI / 2, tau=2.0)
    d1 = fourier_coeffs(spec, 330).coeffs
    direct = gegenbauer_coeffs(spec, 2, 10).coeffs
    assert np.max(np.abs(legendre_from_fourier(d1, 10, 40) - direct)) < 1e-5
    assert np.max(np.abs(legendre_from_fourier(d1, 10, 150) - direct)) < 1e-6


def test_matern_on_s2_matches_the_exact_legendre_series():
    # the gram workload's kernel on its sphere, against the series fed with the
    # circle's closed form; measured 4.1e-13 at k_tail = 30000 (1.1e-11 at 10000)
    n_out, k_tail = 200, 30000
    circle = circle_exponential_coeffs(1.0, n_out + 2 * k_tail + 2)
    exact = legendre_from_fourier(circle, n_out, k_tail)
    direct = gegenbauer_coeffs(kernel("matern", c=1, nu=0.5), 2, n_out).coeffs
    assert np.max(np.abs(direct - exact)) < 1e-12


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_at_zero_returns_partial_mass():
    seq = fourier_coeffs(kernel("powered_exponential", c=1, alpha=0.5), 60)
    assert reconstruct(seq, 0.0) == pytest.approx(seq.total_mass, abs=1e-13)


def test_reconstruct_exact_finite_expansion():
    seq = gegenbauer_coeffs(_cos2, 3, 30)
    theta = np.linspace(0, PI, 101)
    assert np.max(np.abs(reconstruct(seq, theta) - np.cos(theta) ** 2)) < 1e-12


def test_reconstruct_truncation_error_decreases():
    # slow n^-2 coefficient decay: the n=100 truncation still carries
    # about half a percent of mass at the origin
    spec = kernel("sine_power", alpha=1.0)
    theta = np.linspace(0, PI, 400)
    errs = []
    for n in (100, 200):
        seq = gegenbauer_coeffs(spec, 2, n)
        errs.append(np.max(np.abs(reconstruct(seq, theta) - (1 - np.sin(theta / 2)))))
    assert errs[0] < 6e-3
    assert errs[1] < errs[0]


def test_reconstruct_keeps_one_block_of_the_basis():
    # a stored 2001 x 20000 basis table takes 320 MB; the blocks take 1 MB
    seq = gegenbauer_coeffs(kernel("matern", c=1.0, nu=0.5), 3, 2000)
    theta = np.linspace(0.0, PI, 20000)
    tracemalloc.start()
    try:
        vals = reconstruct(seq, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    picks = theta[::40]
    dense = seq.coeffs @ gegenbauer_normalized_table(2000, 1.0, np.cos(picks))
    assert np.max(np.abs(vals[::40] - dense)) < 1e-13


def test_reconstruct_rejects_bad_angles():
    seq = SchoenbergSequence(1, [1.0], 0, "analytic")
    with pytest.raises(DomainError):
        reconstruct(seq, -0.5)


# ---------------------------------------------------------------------------
# membership verdicts


def test_membership_pass_powered_exponential():
    # alpha = 0.5 decays like n^-1.5: at n = 100 about 10% of the mass is
    # beyond the truncation, so the tail tolerance must leave room for it
    verdict = membership(kernel("powered_exponential", c=1, alpha=0.5), 2, 100, tail_tol=0.15)
    assert verdict.verdict == "PASS"
    assert verdict.min_coeff > -1e-12


def test_membership_fail_powered_exponential_alpha2():
    verdict = membership(kernel("powered_exponential", c=1, alpha=2), 1, 200)
    assert verdict.verdict == "FAIL"
    first_n, first_b = verdict.witnesses[0]
    assert first_n == 8  # first coefficient below -1e-6, located by quadrature
    assert first_b == pytest.approx(-1.9918e-06, rel=1e-3)


def test_membership_cosine_extremal():
    verdict = membership(_cos, 2, 50)
    assert verdict.verdict == "PASS"
    assert verdict.strict_evidence.even_count == 0
    assert verdict.strict_evidence.odd_count == 1
    # requesting strictness downgrades the single-frequency extremal member
    strict = membership(_cos, 2, 50, strict=True)
    assert strict.verdict == "INCONCLUSIVE"


def test_membership_strict_on_the_circle_reads_the_progressions():
    # every coefficient of the multiquadric is positive, so every progression holds
    assert membership(kernel("multiquadric", tau=1.0, delta=0.5), 1, strict=True).verdict == "PASS"
    # cosine has b_1 only, sine_power alpha = 2 has b_0 and b_1 only
    cases = [(kernel("cosine"), (0, 2)), (kernel("sine_power", alpha=2.0), (2, 3))]
    for spec, first_failing in cases:
        assert membership(spec, 1).verdict == "PASS"
        strict = membership(spec, 1, strict=True)
        assert strict.verdict == "INCONCLUSIVE"
        assert strict.strict_evidence.progressions_ok is False
        assert strict.strict_evidence.failing_progressions[0] == first_failing


def _s3_monotonicity(kern, n_max):
    # the circle's conditions read off the S^3 verdict's coefficients, through
    # b_{0,3} = b_{0,1} - b_{2,1}/2 and b_{n,3} = (n+1)(b_{n,1} - b_{n+2,1})/2,
    # with a cosine-side slack of 1e-12
    b = membership(kern, 3, n_max).sequence.coeffs
    slack = 1e-12
    n = np.arange(1, n_max + 1)
    violations = n[b[1:] < -0.5 * slack * (n + 1)]
    return {
        "b2_le_2b0": bool(b[0] >= -0.5 * slack),
        "pairs_nonincreasing": violations.size == 0,
        "violations": tuple(int(v) for v in violations[:10]),
    }


def test_membership_monotonicity_diagnostics_for_d3():
    mono = _s3_monotonicity(kernel("sine_power", alpha=1.0), 60)
    assert mono["b2_le_2b0"]
    assert mono["pairs_nonincreasing"]


def _cosine_monotonicity(kern, n_max):
    # reference: the conditions read directly off the cosine sequence
    cb = fourier_coeffs(kern, n_max + 2).coeffs
    slack = 1e-12 * max(1.0, float(np.abs(cb).max()))
    pair_gap = cb[3:] - cb[1:-2]  # b_{n+2,1} - b_{n,1}, n = 1..n_max
    violations = np.flatnonzero(pair_gap > slack) + 1
    return {
        "b2_le_2b0": bool(cb[2] <= 2.0 * cb[0] + slack),
        "pairs_nonincreasing": violations.size == 0,
        "violations": tuple(int(v) for v in violations[:10]),
    }


@pytest.mark.parametrize("n_max", [60, 200])
@pytest.mark.parametrize("spec", [*DEFAULT_SPECS, kernel("askey", c=1.0, tau=1.5)], ids=str)
def test_membership_monotonicity_matches_cosine_sequence(spec, n_max):
    assert _s3_monotonicity(spec, n_max) == _cosine_monotonicity(spec, n_max)


def test_membership_monotonicity_violations_gaussian():
    spec = kernel("powered_exponential", c=1, alpha=2)
    mono = _s3_monotonicity(spec, 200)
    assert mono == _cosine_monotonicity(spec, 200)
    assert not mono["pairs_nonincreasing"]
    assert mono["violations"][:3] == (8, 10, 12)


def test_membership_nesting():
    # PASS at d+2 implies PASS at d at the same tolerances
    for spec in (
        kernel("powered_exponential", c=1, alpha=1.0),
        kernel("multiquadric", tau=1.0, delta=0.5),
        kernel("sine_power", alpha=1.0),
    ):
        for low_d, high_d in ((1, 3), (2, 4), (3, 5)):
            high = membership(spec, high_d, 120, tail_tol=0.1)
            low = membership(spec, low_d, 120, tail_tol=0.1)
            if high.verdict == "PASS":
                assert low.verdict == "PASS", (spec, low_d)


def test_membership_normalization_bound():
    for name, points in IN_RANGE_POINTS.items():
        spec = kernel(name, **points[0])
        for d in (1, 2, 3):
            verdict = membership(spec, d, 80, tail_tol=1.0)
            assert -1e-9 <= verdict.sequence.total_mass <= 1.0 + 1e-6


def test_membership_requires_enough_coefficients():
    with pytest.raises(DomainError):
        membership(_cos, 2, 5)


# ---------------------------------------------------------------------------
# strictness evidence


def test_strictness_sine_power():
    seq = gegenbauer_coeffs(kernel("sine_power", alpha=1.0), 2, 100)
    ev = strictness_evidence(seq)
    assert ev.even_count >= 10 and ev.odd_count >= 10


def test_strictness_cosine_progressions():
    seq = fourier_coeffs(_cos, 40)
    ev = strictness_evidence(seq)
    assert ev.even_count == 0 and ev.odd_count == 1
    assert ev.progressions_ok is False
    assert (0, 2) in ev.failing_progressions


def test_strictness_threshold_and_progression_steps_are_fixed():
    # a coefficient counts when above 1e-12; the d = 1 progressions run to step 10
    b = np.zeros(23)
    b[[0, 11, 22]] = 1.0
    b[1], b[2] = 1e-12, 2e-12
    ev = strictness_evidence(SchoenbergSequence(1, b, 0, "x"))
    assert ev.tol == 1e-12
    assert (ev.even_count, ev.odd_count, ev.max_even_index, ev.max_odd_index) == (3, 1, 22, 11)
    assert ev.progressions_ok is False and (1, 4) in ev.failing_progressions
    assert max(n for _, n in ev.failing_progressions) == 10


def test_strictness_multiquadric_all_positive():
    seq = gegenbauer_coeffs(kernel("multiquadric", tau=1.0, delta=0.5), 2, 40)
    assert np.all(seq.coeffs > 0)
    ev = strictness_evidence(seq)
    assert ev.progressions_ok is None  # d = 1 condition does not apply
    assert ev.even_count + ev.odd_count >= 30


# ---------------------------------------------------------------------------
# serialization


def test_csv_roundtrip():
    seq = gegenbauer_coeffs(kernel("askey", c=1.0, tau=2.0), 2, 25)
    buf = io.StringIO()
    to_csv(seq, buf)
    text = buf.getvalue()
    assert text.startswith("# d=2\n")
    assert "n,b" in text
    back = from_csv(io.StringIO(text))
    assert back.d == seq.d
    assert back.source == seq.source
    assert back.quadrature_order == seq.quadrature_order
    assert np.array_equal(back.coeffs, seq.coeffs)
    # blank lines, spaces around them included, are skipped
    spaced = from_csv(io.StringIO(text.replace("\n1,", "\n\n  \n1,")))
    assert np.array_equal(spaced.coeffs, seq.coeffs)


@pytest.mark.parametrize("indices", [(0, 1, 3), (0, 1, 3, 3), (0, 1, 1, 2), (-1, 0, 1), (1, 2)])
def test_csv_rejects_gapped_duplicated_or_negative_indices(indices):
    text = "# d=1\nn,b\n" + "".join(f"{n},0.25\n" for n in indices)
    with pytest.raises(DomainError):
        from_csv(io.StringIO(text))


# a row that is not n,b with b finite is named; NaN is kept only in memory
@pytest.mark.parametrize("row", ["1,abc", "x,0.25", "1", "1,nan", "1,inf", "1,-inf"])
def test_csv_rejects_non_numeric_rows(row):
    text = "# d=1\nn,b\n0,0.5\n" + row + "\n"
    with pytest.raises(DomainError, match=row):
        from_csv(io.StringIO(text))


@pytest.mark.parametrize("order", [2.5, -3, math.nan])
def test_sequence_rejects_a_quadrature_order_that_is_not_a_count(order):
    with pytest.raises(DomainError, match="quadrature_order"):
        SchoenbergSequence(1, [1.0, 0.0], order, "x")


@pytest.mark.parametrize(
    "meta,named",
    [
        ("# n_max=5\n", "n_max=5.*0..1"),  # a truncated write
        ("# n_max=0\n", "n_max=0.*0..1"),
        ("# n_max=x\n", "n_max='x'"),
        ("# quadrature_order=-3\n", "quadrature_order"),
        ("# quadrature_order=2.5\n", "quadrature_order='2.5'"),
    ],
)
def test_csv_rejects_metadata_that_disagrees_with_the_rows(meta, named):
    text = "# d=1\n" + meta + "n,b\n0,0.75\n1,0.25\n"
    with pytest.raises(DomainError, match=named):
        from_csv(io.StringIO(text))


def test_csv_roundtrip_via_file(tmp_path):
    seq = fourier_coeffs(_cos, 12)
    path = tmp_path / "seq.csv"
    to_csv(seq, path)
    back = from_csv(path)
    assert np.array_equal(back.coeffs, seq.coeffs)
