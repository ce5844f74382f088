"""Coefficient sequences, dimension walks, reconstruction and verdicts."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from conftest import DEFAULT_SPECS, IN_RANGE_POINTS
from hypothesis import given, settings
from hypothesis import strategies as st

from spherekernels import catalog, kernel
from spherekernels.errors import DimensionMismatchError, DomainError
from spherekernels.schoenberg import (
    SchoenbergSequence,
    _gegenbauer_scale,
    _theta_rule,
    fourier_coeffs,
    from_csv,
    gegenbauer_coeffs,
    legendre_from_fourier,
    membership,
    reconstruct,
    strictness_evidence,
    to_csv,
    walk_1_to_3,
    walk_d_to_d2,
)
from spherekernels.special import gegenbauer_normalized, gegenbauer_normalized_table

PI = math.pi


def _cos(theta):
    return np.cos(theta)


def _cos2(theta):
    return np.cos(theta) ** 2


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


@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=str)
def test_fourier_matches_cosine_projection_on_the_same_rule(spec):
    # reference: the explicit cos(n theta) basis on the library's own nodes
    n_max = 2000
    x, w = _theta_rule(catalog.breakpoints(spec), n_max)
    basis = np.cos(np.outer(np.arange(n_max + 1), x))
    expected = (2.0 / PI) * basis @ (catalog.evaluate(spec, x) * w)
    expected[0] *= 0.5
    assert np.max(np.abs(fourier_coeffs(spec, n_max).coeffs - expected)) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_projection_matches_the_table_on_the_same_rule(d):
    # reference: the stored basis table times the weighted profile
    n_max = 2000
    for spec in DEFAULT_SPECS:
        x, w = _theta_rule(catalog.breakpoints(spec), n_max)
        fw = catalog.evaluate(spec, x) * np.sin(x) ** (d - 1) * w
        table = gegenbauer_normalized_table(n_max, (d - 1) / 2.0, np.cos(x))
        expected = _gegenbauer_scale(n_max, d) * (table @ fw)
        got = fourier_coeffs(spec, n_max) if d == 1 else gegenbauer_coeffs(spec, d, n_max)
        assert np.max(np.abs(got.coeffs - expected)) < 1e-9, spec


def test_projection_does_not_store_the_basis():
    spec = kernel("matern", c=0.3, nu=0.5)
    tracemalloc.start()
    try:
        fourier_coeffs(spec, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6  # a stored 2001 x nodes table takes 67 MB


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
    psi = lambda th: gegenbauer_normalized(m, lam, np.cos(th))
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
    cos_seq = SchoenbergSequence(1, np.eye(200)[1], 0, "analytic")
    out, residual = legendre_from_fourier(cos_seq, 5, 40)
    assert out.d == 2
    assert np.allclose(out.coeffs, np.eye(6)[1], atol=1e-14)
    assert np.all(residual >= 0)

    const = SchoenbergSequence(1, np.eye(200)[0], 0, "analytic")
    out, _ = legendre_from_fourier(const, 5, 40)
    assert np.allclose(out.coeffs, np.eye(6)[0], atol=1e-14)


def test_legendre_from_fourier_matches_quadrature():
    # n <= 10 for the compactly supported quadratic profile; the series
    # tail shrinks like k^-4, measured 7.4e-6 at k_tail=40, 1.9e-7 at 150
    spec = kernel("askey", c=PI / 2, tau=2.0)
    d1 = fourier_coeffs(spec, 330)
    direct = gegenbauer_coeffs(spec, 2, 10)
    est40, res40 = legendre_from_fourier(d1, 10, 40)
    assert np.max(np.abs(est40.coeffs - direct.coeffs)) < 1e-5
    est150, res150 = legendre_from_fourier(d1, 10, 150)
    assert np.max(np.abs(est150.coeffs - direct.coeffs)) < 1e-6
    assert np.all(res150 <= res40 + 1e-15)


def test_legendre_from_fourier_length_guard():
    short = SchoenbergSequence(1, np.eye(20)[0], 0, "analytic")
    with pytest.raises(DimensionMismatchError):
        legendre_from_fourier(short, 10, 40)


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


def test_membership_monotonicity_diagnostics_for_d3():
    verdict = membership(kernel("sine_power", alpha=1.0), 3, 60)
    assert verdict.monotonicity is not None
    assert verdict.monotonicity["b2_le_2b0"]
    assert verdict.monotonicity["pairs_nonincreasing"]
    assert membership(kernel("sine_power", alpha=1.0), 2, 60).monotonicity is None


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
    assert membership(spec, 3, n_max).monotonicity == _cosine_monotonicity(spec, n_max)


def test_membership_monotonicity_violations_gaussian():
    spec = kernel("powered_exponential", c=1, alpha=2)
    mono = membership(spec, 3, 200).monotonicity
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


@pytest.mark.parametrize("indices", [(0, 1, 3), (0, 1, 3, 3), (0, 1, 1, 2), (-1, 0, 1), (1, 2)])
def test_csv_rejects_gapped_duplicated_or_negative_indices(indices):
    text = "# d=1\nn,b\n" + "".join(f"{n},0.25\n" for n in indices)
    with pytest.raises(DomainError):
        from_csv(io.StringIO(text))


@pytest.mark.parametrize("row", ["1,abc", "x,0.25", "1"])
def test_csv_rejects_non_numeric_rows(row):
    text = "# d=1\nn,b\n0,0.5\n" + row + "\n"
    with pytest.raises(DomainError, match=row):
        from_csv(io.StringIO(text))


def test_csv_roundtrip_via_file(tmp_path):
    seq = fourier_coeffs(_cos, 12)
    path = tmp_path / "seq.csv"
    to_csv(seq, path)
    back = from_csv(path)
    assert np.array_equal(back.coeffs, seq.coeffs)
