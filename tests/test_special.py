"""Orthogonal polynomials, Bessel evaluation and quadrature rules."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from conftest import gegenbauer_connection
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special

from spherekernels import special
from spherekernels.errors import DomainError
from spherekernels.special import (
    bessel_k,
    gauss_legendre,
    gegenbauer_normalized_table,
)


# ---------------------------------------------------------------------------
# independent Bessel oracle: ascending series for small t, the divergent
# asymptotic expansion truncated at its smallest term for large t, and the
# half-integer closed forms everywhere.


def _bessel_i_series(nu, t, terms=60):
    total = 0.0
    for k in range(terms):
        total += (t / 2.0) ** (2 * k + nu) / (math.factorial(k) * math.gamma(k + nu + 1.0))
    return total


def _bessel_k_series(nu, t):
    # reflection through I_{+-nu}; valid for non-integer nu and t small
    # enough that the cancellation stays below the target accuracy
    return (
        math.pi / 2.0 * (_bessel_i_series(-nu, t) - _bessel_i_series(nu, t))
        / math.sin(math.pi * nu)
    )


def _bessel_k_asymptotic(nu, t):
    mu = 4.0 * nu * nu
    total, term = 1.0, 1.0
    for k in range(1, 30):
        factor = (mu - (2 * k - 1) ** 2) / (8.0 * t * k)
        if abs(term * factor) >= abs(term):
            break
        term *= factor
        total += term
    return math.sqrt(math.pi / (2.0 * t)) * math.exp(-t) * total


def _bessel_k_half_integer(half_order, t):
    # K_{1/2}, K_{3/2}, K_{5/2}, ... via the exact three-term recurrence
    base = math.sqrt(math.pi / (2.0 * t)) * math.exp(-t)
    prev, cur = base, base * (1.0 + 1.0 / t)  # K_{1/2}, K_{3/2}
    if half_order == 0:
        return prev
    for j in range(1, half_order):
        prev, cur = cur, prev + (2 * j + 1) / t * cur
    return cur


_PI_40 = Decimal("3.141592653589793238462643383279502884197")


def _bessel_k_half_integer_40(half_order, t):
    # the same recurrence as above, in 40-digit decimal arithmetic from an
    # exact copy of the double t; it does not use the finite sum of DLMF 10.49.12
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(float(t))
        base = (_PI_40 / (2 * x)).sqrt() * (-x).exp()
        prev, cur = base, base * (1 + 1 / x)
        if half_order == 0:
            return prev
        for j in range(1, half_order):
            prev, cur = cur, prev + (2 * j + 1) / x * cur
        return cur


_HALF_INTEGER_T = np.concatenate([np.geomspace(1e-8, 600.0, 300), np.linspace(0.5, 600.0, 300)])


@pytest.mark.parametrize("half_order", range(16))
def test_bessel_k_half_integer_finite_sum(half_order):
    nu = half_order + 0.5
    ours = bessel_k(nu, _HALF_INTEGER_T)
    exact = np.array([float(_bessel_k_half_integer_40(half_order, t)) for t in _HALF_INTEGER_T])
    kv = scipy_special.kv(nu, _HALF_INTEGER_T)
    assert np.max(np.abs(ours / exact - 1.0)) <= 2e-15
    # against scipy: 2e-15 plus scipy's own error (2.7e-15 at n = 10, 4.7e-15 at n = 15)
    assert np.all(np.abs(ours / kv - 1.0) <= 2e-15 + np.abs(kv / exact - 1.0))


def test_bessel_k_calls_scipy_only_off_half_integers(monkeypatch):
    calls = []
    kv = special._sp.kv
    monkeypatch.setattr(special._sp, "kv", lambda nu, t: calls.append(nu) or kv(nu, t))
    t = np.array([1e-6, 0.5, 3.0])
    for half_order in range(16):
        bessel_k(half_order + 0.5, t)
    assert calls == []
    bessel_k(0.3, t)
    bessel_k(16.5, t)
    assert calls == [0.3, 16.5]


@pytest.mark.parametrize("t", [1.0, 2.0])
def test_bessel_k_half_closed_form(t):
    assert bessel_k(0.5, t) == pytest.approx(math.sqrt(math.pi / (2 * t)) * math.exp(-t), rel=1e-12)


@pytest.mark.parametrize("nu", [0.3, 0.9, 1.7, 2.5, 3.3, 4.9])
@pytest.mark.parametrize("t", [1e-8, 1e-4, 0.1, 0.5, 1.0, 2.0, 5.0])
def test_bessel_k_against_series_oracle(nu, t):
    assert bessel_k(nu, t) == pytest.approx(_bessel_k_series(nu, t), rel=1e-10)


@pytest.mark.parametrize("nu", [0.3, 1.7, 3.3, 5.0])
@pytest.mark.parametrize("t", [25.0, 35.0, 50.0])
def test_bessel_k_against_asymptotic_oracle(nu, t):
    assert bessel_k(nu, t) == pytest.approx(_bessel_k_asymptotic(nu, t), rel=1e-10)


@pytest.mark.parametrize("half_order", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("t", [0.5, 5.0, 10.0, 20.0, 50.0])
def test_bessel_k_half_integer_recurrence(half_order, t):
    nu = half_order + 0.5
    assert bessel_k(nu, t) == pytest.approx(_bessel_k_half_integer(half_order, t), rel=1e-11)


def test_bessel_k_domain_errors():
    with pytest.raises(DomainError):
        bessel_k(-1.0, 1.0)
    with pytest.raises(DomainError):
        bessel_k(0.5, 0.0)
    with pytest.raises(DomainError):
        bessel_k(0.5, -2.0)
    with pytest.raises(OverflowError):
        bessel_k(0.5, 1e-40)
    for nu in (15.5, 20.5):  # the finite sum overflows, and warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                bessel_k(nu, 1e-30)


# ---------------------------------------------------------------------------
# Gegenbauer


def _degree(n, lam, x):
    # one degree of the normalized recurrence: the table's last row, shaped like x
    return gegenbauer_normalized_table(n, lam, x)[-1].reshape(np.shape(x))


def _classical(n, lam, x):
    # C_n^lam(x) from the package's normalized recurrence, scaled by
    # C_n^lam(1) = binom(n + 2 lam - 1, n); cos(n arccos x) at lam = 0
    scale = 1.0 if lam == 0.0 else scipy_special.binom(n + 2 * lam - 1, n)
    return _degree(n, lam, x) * scale


def test_gegenbauer_spec_values():
    assert _classical(0, 1.0, 0.3) == pytest.approx(1.0, abs=0)
    assert _classical(2, 1.0, 1.0) == pytest.approx(3.0, rel=1e-14)
    assert _classical(2, 0.0, 0.5) == pytest.approx(-0.5, abs=1e-14)


def test_gegenbauer_normalized_values():
    for lam in (0.5, 1.0, 2.5):
        for n in (0, 1, 3, 10):
            assert _degree(n, lam, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert _degree(1, lam, 0.37) == pytest.approx(0.37, rel=1e-14)
    # C_2^1(x) = 4x^2 - 1, C_2^1(1) = 3
    assert _degree(2, 1.0, 0.0) == pytest.approx(-1.0 / 3.0, rel=1e-14)


def test_gegenbauer_domain_errors():
    with pytest.raises(DomainError):
        gegenbauer_normalized_table(2, 1.0, 1.5)
    with pytest.raises(DomainError):
        gegenbauer_normalized_table(2, -0.5, 0.5)
    with pytest.raises(DomainError):
        gegenbauer_normalized_table(-1, 1.0, 0.5)


def test_generating_function_identity():
    # sum_n r^n C_n^lam(cos t) converges to (1 + r^2 - 2 r cos t)^(-lam)
    theta = np.linspace(0.0, math.pi, 50)
    for lam in (0.5, 1.0, 1.5):
        for r in (0.3, 0.5):
            n_terms = 2
            while r**n_terms * (n_terms + 2.0) ** (2 * lam) / (1 - r) > 1e-12:
                n_terms += 1
            total = np.zeros_like(theta)
            for n in range(n_terms + 1):
                total += r**n * _classical(n, lam, np.cos(theta))
            closed = (1.0 + r * r - 2.0 * r * np.cos(theta)) ** (-lam)
            assert np.max(np.abs(total - closed)) < 1e-10


def test_gegenbauer_connection_sum():
    # the positive-coefficient expansion of C_n^lam in the C^nu basis
    theta = np.linspace(0.0, math.pi, 33)
    x = np.cos(theta)
    for n in range(7):
        direct = _classical(n, 1.5, x)
        expanded = gegenbauer_connection(n, 1.5, 0.5, x)
        assert np.max(np.abs(direct - expanded)) < 1e-10


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(0.0, math.pi), min_size=1, max_size=16))
def test_lambda_zero_table_is_cosine_basis(thetas):
    # at lambda = 0 the normalized recurrence is Chebyshev: R_n(cos t) = cos(n t)
    theta = np.array(thetas)
    n = np.arange(2001)
    table = gegenbauer_normalized_table(2000, 0.0, np.cos(theta))
    bound = 4.0 * np.maximum(1, n)[:, None] ** 2 * np.finfo(float).eps
    assert np.all(np.abs(table - np.cos(np.outer(n, theta))) <= bound)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
def test_recurrence_matches_scipy_oracle(lam):
    # every degree n <= 2000 against scipy's own evaluation: Chebyshev T_n at
    # lam = 0, else C_n^lam(x) / C_n^lam(1).  Max errors on this grid:
    # 6.0e-13, 1.8e-12, 2.4e-12 and 1.3e-12 for lam = 0, 1/2, 1 and 2, at
    # n > 1500 or at x = -1; the form (n + 2 lam) R_{n+1} = 2 (n + lam) x R_n
    # - n R_{n-1} meets the same bound (5.1e-13 to 2.3e-12).
    x = np.cos(np.linspace(0.0, math.pi, 65))
    n = np.arange(2001)[:, None]
    if lam == 0.0:
        oracle = scipy_special.eval_chebyt(n, x)
    else:
        oracle = scipy_special.eval_gegenbauer(n, lam, x) / scipy_special.eval_gegenbauer(n, lam, 1.0)
    assert np.max(np.abs(gegenbauer_normalized_table(2000, lam, x) - oracle)) < 1e-11


@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("n", [0, 1, 2, 50])
def test_single_degree_is_the_table_last_row(n, lam):
    # degree n is the last row of the table to n: bit for bit the same row of a
    # longer table, for a vector and for a scalar; x itself is never written
    x = np.linspace(-1.0, 1.0, 9)
    kept = x.copy()
    assert np.array_equal(gegenbauer_normalized_table(n, lam, x)[-1],
                          gegenbauer_normalized_table(n + 40, lam, x)[n])
    assert gegenbauer_normalized_table(n, lam, 0.3).shape == (n + 1, 1)
    assert _degree(n, lam, 0.3) == gegenbauer_normalized_table(n + 40, lam, 0.3)[n, 0]
    assert gegenbauer_normalized_table(n, lam, np.empty(0)).shape == (n + 1, 0)
    for _ in special._normalized_blocks(n, lam, x):
        pass
    assert np.array_equal(x, kept)


def _normalized_oracle(n_max, lam, x):
    # scipy's own evaluation: cos(n arccos x) at lam = 0, else C_n^lam(x) / C_n^lam(1)
    n = np.arange(n_max + 1)[:, None]
    if lam == 0.0:
        return np.cos(n * np.arccos(x))
    return scipy_special.eval_gegenbauer(n, lam, x) / scipy_special.eval_gegenbauer(n, lam, 1.0)


# degrees at and around the block boundaries: the first block holds rows
# 0..rows + 1 and every later block ``rows`` more, so blocks end at rows + 1
# and 2 rows + 1
_BLOCK_EDGES = [0, 1, 2] + [
    k * special._BLOCK_ROWS + j for k, j in ((1, -1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2))
]


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
    st.one_of(st.just(0.0), st.floats(0.5, 500.0)),
    st.sampled_from(_BLOCK_EDGES),
)
def test_block_recurrence_matches_scipy(xs, lam, n_max):
    # one-point to 40-point x: the blocks are 32 rows, so these degrees
    # end a block, start one, or fill two
    x = np.array(xs)
    table = gegenbauer_normalized_table(n_max, lam, x)
    assert table.shape == (n_max + 1, x.size)
    assert np.max(np.abs(table - _normalized_oracle(n_max, lam, x))) < 1e-12


@settings(deadline=None, max_examples=30)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
    st.integers(0, 2000),
)
def test_block_recurrence_is_exactly_even_or_odd(xs, lam, n_max):
    # R_n(-x) = (-1)^n R_n(x) bit for bit: the projection folds the theta rule on it
    x = np.array(xs)
    sign = np.where(np.arange(n_max + 1) % 2 == 0, 1.0, -1.0)[:, None]
    table = gegenbauer_normalized_table(n_max, lam, x)
    assert np.array_equal(gegenbauer_normalized_table(n_max, lam, -x), sign * table)


@pytest.mark.parametrize("lam", [0.0, 0.5, 49.5, 500.0])
@pytest.mark.parametrize("size", [20000, 50000])
def test_small_blocks_for_many_points_match_scipy(size, lam):
    # 20000 points run 4-row blocks and 50000 points 1-row blocks, each
    # restarting from normalized rows
    assert special._block_rows(size) == {20000: 4, 50000: 1}[size]
    x = np.cos(np.linspace(0.0, math.pi, size))
    table = gegenbauer_normalized_table(20, lam, x)
    assert np.max(np.abs(table - _normalized_oracle(20, lam, x))) < 1e-13


@pytest.mark.parametrize("n_max", _BLOCK_EDGES)
def test_block_recurrence_on_empty_and_one_point_x(n_max):
    assert gegenbauer_normalized_table(n_max, 1.5, np.empty(0)).shape == (n_max + 1, 0)
    one = gegenbauer_normalized_table(n_max, 1.5, [0.3])
    assert one.shape == (n_max + 1, 1)
    assert np.max(np.abs(one - _normalized_oracle(n_max, 1.5, np.array([0.3])))) < 1e-14


def test_block_buffer_is_capped_near_one_megabyte():
    for size in (1, 10, 1000, 4176, 20000, 10**5, 10**6):
        rows = special._block_rows(size)
        assert 1 <= rows <= special._BLOCK_ROWS
        assert rows == 1 or (rows + 2) * size <= 2**17
    assert special._block_rows(10**6) == 1  # a large x never gets 30 rows


def test_recurrence_bound_on_random_samples():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(0, 60))
        lam = float(rng.uniform(0.0, 4.0))
        x = float(rng.uniform(-1.0, 1.0))
        assert abs(_degree(n, lam, x)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# quadrature


def test_gauss_legendre_small_orders():
    x, w = gauss_legendre(1)
    assert x == pytest.approx([0.0], abs=1e-15)
    assert w == pytest.approx([2.0], abs=1e-15)
    x, w = gauss_legendre(2)
    assert x == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert w == pytest.approx([1.0, 1.0], abs=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 16, 64, 128])
def test_gauss_legendre_invariants(m):
    x, w = gauss_legendre(m)
    assert x.shape == w.shape == (m,)
    assert not x.flags.writeable and not w.flags.writeable
    assert gauss_legendre(m)[0] is x and gauss_legendre(m)[1] is w  # memoized
    assert abs(w.sum() - 2.0) < 1e-12
    assert np.all(np.diff(x) > 0)
    assert np.all(w > 0)
    # exact for monomials of degree <= 2m - 1
    for deg in range(2 * m):
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert w @ x**deg == pytest.approx(exact, abs=1e-10)


def test_gauss_legendre_quartic():
    for m in (3, 5, 9):
        x, w = gauss_legendre(m)
        assert w @ x**4 == pytest.approx(0.4, abs=1e-14)


def test_gauss_legendre_rejects_bad_order():
    cached = gauss_legendre.cache_info().currsize
    for m in (0, 2.5, float("nan")):
        with pytest.raises(DomainError):
            gauss_legendre(m)
    assert gauss_legendre.cache_info().currsize == cached  # errors are not cached
