"""Orthogonal polynomials, Bessel evaluation and quadrature rules."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import gegenbauer_connection
from hypothesis import given, settings
from hypothesis import strategies as st

from spherekernels.errors import DomainError
from spherekernels.special import (
    bessel_k,
    gauss_legendre,
    gegenbauer,
    gegenbauer_normalized,
    gegenbauer_normalized_table,
    gegenbauer_one,
    legendre,
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


# ---------------------------------------------------------------------------
# Gegenbauer / Legendre


def test_gegenbauer_spec_values():
    assert gegenbauer(0, 1.0, 0.3) == pytest.approx(1.0, abs=0)
    assert gegenbauer(2, 1.0, 1.0) == pytest.approx(3.0, rel=1e-14)
    assert gegenbauer(2, 0.0, 0.5) == pytest.approx(-0.5, abs=1e-14)


def test_gegenbauer_one_matches_gamma_formula():
    for n in (0, 1, 2, 7, 30):
        for lam in (0.5, 1.0, 1.5, 3.0):
            expected = math.gamma(n + 2 * lam) / (math.factorial(n) * math.gamma(2 * lam))
            assert gegenbauer_one(n, lam) == pytest.approx(expected, rel=1e-13)
            assert gegenbauer(n, lam, 1.0) == pytest.approx(expected, rel=1e-12)


def test_gegenbauer_normalized_values():
    for lam in (0.5, 1.0, 2.5):
        for n in (0, 1, 3, 10):
            assert gegenbauer_normalized(n, lam, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert gegenbauer_normalized(1, lam, 0.37) == pytest.approx(0.37, rel=1e-14)
    # C_2^1(x) = 4x^2 - 1, C_2^1(1) = 3
    assert gegenbauer_normalized(2, 1.0, 0.0) == pytest.approx(-1.0 / 3.0, rel=1e-14)


def test_gegenbauer_domain_errors():
    with pytest.raises(DomainError):
        gegenbauer(2, 1.0, 1.5)
    with pytest.raises(DomainError):
        gegenbauer(2, -0.5, 0.5)
    with pytest.raises(DomainError):
        gegenbauer(-1, 1.0, 0.5)


def test_legendre_values():
    assert legendre(1, 0.7) == pytest.approx(0.7, abs=0)
    assert legendre(2, 0.5) == pytest.approx(-0.125, rel=1e-14)
    for n in (0, 1, 5, 40):
        assert legendre(n, 1.0) == pytest.approx(1.0, abs=1e-12)


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
                total += r**n * gegenbauer(n, lam, np.cos(theta))
            closed = (1.0 + r * r - 2.0 * r * np.cos(theta)) ** (-lam)
            assert np.max(np.abs(total - closed)) < 1e-10


def test_gegenbauer_connection_sum():
    # the positive-coefficient expansion of C_n^lam in the C^nu basis
    theta = np.linspace(0.0, math.pi, 33)
    x = np.cos(theta)
    for n in range(7):
        direct = gegenbauer(n, 1.5, x)
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


def test_single_degree_keeps_two_rows():
    # the recurrence is streamed: no (n + 1) x len(x) table behind one degree
    x = np.linspace(-1.0, 1.0, 2000)
    tracemalloc.start()
    try:
        out = gegenbauer_normalized(2000, 1.0, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert np.array_equal(out, gegenbauer_normalized_table(2000, 1.0, x)[-1])


def test_recurrence_bound_on_random_samples():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(0, 60))
        lam = float(rng.uniform(0.0, 4.0))
        x = float(rng.uniform(-1.0, 1.0))
        bound = gegenbauer_one(n, lam)
        assert abs(gegenbauer(n, lam, x)) <= bound * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# quadrature


def test_gauss_legendre_small_orders():
    rule = gauss_legendre(1)
    assert rule.nodes == pytest.approx([0.0], abs=1e-15)
    assert rule.weights == pytest.approx([2.0], abs=1e-15)
    rule = gauss_legendre(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 16, 64, 128])
def test_gauss_legendre_invariants(m):
    rule = gauss_legendre(m)
    assert rule.order == m
    assert abs(rule.weights.sum() - 2.0) < 1e-12
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    # exact for monomials of degree <= 2m - 1
    for deg in range(2 * m):
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert rule.integrate(lambda x: x**deg) == pytest.approx(exact, abs=1e-10)


def test_gauss_legendre_quartic():
    for m in (3, 5, 9):
        assert gauss_legendre(m).integrate(lambda x: x**4) == pytest.approx(0.4, abs=1e-14)


def test_gauss_legendre_rejects_bad_order():
    for m in (0, 2.5, float("nan")):
        with pytest.raises(DomainError):
            gauss_legendre(m)
