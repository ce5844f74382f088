"""Point sets, distances, sampling schemes and Gram verdicts."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import DEFAULT_SPECS, STRICT_DEFAULT_SPECS, full_gram, spec_id
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dtrttf
from scipy.spatial.distance import cdist

from spherekernels import (
    SpherePointSet,
    gegenbauer_coeffs,
    gram_report,
    interpolate_fit,
    kernel,
    read_points,
    reconstruct,
    sample_points,
    simulate,
    sphere,
    write_points,
)
from spherekernels.catalog import evaluate
from spherekernels.errors import DomainError
from spherekernels.sphere import _gram_packed, _packed_diagonal, pairwise_angles


def _angle(x, y):
    return pairwise_angles(x[None], y[None])[0, 0]


def test_great_circle_trivial_points():
    x = np.array([1.0, 0.0, 0.0])
    assert _angle(x, x) == 0.0
    assert _angle(x, -x) == pytest.approx(math.pi, abs=1e-15)
    y = np.array([math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3), 0.0])
    assert _angle(x, y) == pytest.approx(2 * math.pi / 3, rel=1e-15)
    near = np.array([math.cos(1e-7), math.sin(1e-7), 0.0])
    assert _angle(x, near) == pytest.approx(1e-7, rel=1e-12)


_coords = st.floats(-1.0, 1.0, allow_nan=False)


@settings(deadline=None, max_examples=100)
@given(st.lists(_coords, min_size=3, max_size=3).filter(lambda v: np.linalg.norm(v) > 0.1),
       st.lists(_coords, min_size=3, max_size=3).filter(lambda v: np.linalg.norm(v) > 0.1))
def test_pairwise_angles_is_zero_on_a_repeated_point_and_symmetric(u, v):
    x = np.array(u) / np.linalg.norm(u)
    y = np.array(v) / np.linalg.norm(v)
    assert _angle(x, x) == 0.0
    assert _angle(x, y) == _angle(y, x)


def test_metric_axioms_on_random_triples():
    # every triple of the 30 points: exact symmetry and the triangle inequality
    pts = sample_points(3, 30, seed=3).points
    dist = pairwise_angles(pts, pts)
    assert np.array_equal(dist, dist.T)
    # [i, k, j] holds d(i, k) + d(k, j), which bounds d(i, j)
    detour = dist[:, :, None] + dist[None, :, :]
    assert np.all(dist[:, None, :] <= detour + 1e-12)


def test_sample_points_deterministic():
    a = sample_points(2, 50, "uniform_random", seed=123)
    b = sample_points(2, 50, "uniform_random", seed=123)
    assert np.array_equal(a.points, b.points)
    c = sample_points(2, 50, "uniform_random", seed=124)
    assert not np.array_equal(a.points, c.points)


def test_sample_points_unit_norms():
    for d in (1, 2, 4):
        pts = sample_points(d, 40, seed=1)
        assert pts.d == d
        assert np.max(np.abs(np.linalg.norm(pts.points, axis=1) - 1.0)) < 1e-12


def test_equator_scheme():
    pts = sample_points(2, 3, "equator")
    dist = pairwise_angles(pts.points, pts.points)
    off = dist[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off - 2 * math.pi / 3)) < 1e-14


def test_fibonacci_quasi_uniform():
    pts = sample_points(2, 100, "fibonacci_s2")
    dist = pairwise_angles(pts.points, pts.points)
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 0.1


@pytest.mark.parametrize("n", [50, 2500])
def test_point_set_rejects_duplicates_at_any_size(n):
    pts = sample_points(2, n, seed=4).points.copy()
    pts[-1] = pts[n // 2]
    with pytest.raises(DomainError):
        SpherePointSet(pts)


def test_sampling_scheme_errors():
    with pytest.raises(DomainError):
        sample_points(3, 10, "fibonacci_s2")
    with pytest.raises(DomainError):
        sample_points(2, 10, "hammersley")
    with pytest.raises(DomainError):
        sample_points(2, 0)


def test_point_set_validation():
    with pytest.raises(DomainError):
        SpherePointSet(np.array([[1.0, 1.0, 0.0]]))  # not unit
    with pytest.raises(DomainError):
        SpherePointSet(np.array([[1.0, 0.0], [1.0, 0.0]]))  # duplicates
    with pytest.raises(DomainError, match="finite"):
        SpherePointSet(np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 1.0]]))
    ps = SpherePointSet(np.eye(3))
    assert ps.n_points == 3 and ps.d == 2


def test_distances_build_only_the_result():
    pts = sample_points(2, 2000, seed=4).points
    tracemalloc.start()
    try:
        dist = pairwise_angles(pts, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * dist.nbytes  # no N x N x (d+1) difference tensor
    assert np.array_equal(dist, dist.T) and not np.any(np.diag(dist))


# ---------------------------------------------------------------------------
# Gram reports


def test_gram_cosine_equator_non_strict_witness():
    report = gram_report(kernel("cosine"), sample_points(2, 3, "equator"))
    assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-10)
    assert report.max_eigenvalue == pytest.approx(1.5, rel=1e-12)
    assert report.psd


@pytest.mark.parametrize("spec", STRICT_DEFAULT_SPECS, ids=spec_id)
def test_gram_psd_for_valid_kernels(spec):
    pts = sample_points(2, 120, seed=42)
    report = gram_report(spec, pts)
    assert report.psd
    assert report.min_eigenvalue >= -1e-8 * report.n_points


def test_gram_unit_diagonal_and_symmetry():
    pts = sample_points(2, 60, seed=5)
    K = kernel("sine_power", alpha=0.7)
    gram = evaluate(K, pairwise_angles(pts.points, pts.points))
    assert np.array_equal(gram, gram.T)
    assert np.max(np.abs(np.diag(gram) - 1.0)) < 1e-14


# (N, block entries): the whole matrix in one block; 218-row blocks with a
# last block of 82 rows; a row wider than a block, so one row per block
_BLOCKINGS = [(40, None), (300, None), (50, 49)]


@pytest.mark.parametrize("n, entries", _BLOCKINGS)
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=spec_id)
def test_gram_in_row_blocks_is_the_whole_matrix(monkeypatch, spec, d, n, entries):
    if entries is not None:
        monkeypatch.setattr(sphere, "_BLOCK_ENTRIES", entries)
    pts = sample_points(d, n, seed=d * 1000 + n)
    report = gram_report(spec, pts)
    eigvals = np.linalg.eigvalsh(full_gram(spec, pts))
    assert (report.min_eigenvalue, report.max_eigenvalue) == (eigvals[0], eigvals[-1])


@pytest.mark.parametrize("family", ["matern", "powered_exponential"])
def test_gram_holds_little_beyond_its_result(family):
    pts = sample_points(2, 1500, seed=6)
    tracemalloc.start()
    try:
        gram_report(kernel(family), pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * pts.n_points**2 * 8  # K is 18 MB; psi of the whole distance matrix peaks at 7x


def test_gram_evaluates_one_triangle(monkeypatch):
    monkeypatch.setattr(sphere, "_BLOCK_ENTRIES", 2**15)  # 29-row blocks
    n = 1100
    pts = sample_points(2, n, seed=16)
    spec = kernel("askey")
    seen = []

    def counting_psi(theta):
        seen.append(theta.size)
        return evaluate(spec, theta)

    gram_report(counting_psi, pts)
    assert sum(seen) <= 0.55 * n * n  # the whole matrix is n^2 values


@pytest.mark.parametrize("use", ["interpolate_fit", "simulate", "simulate-jitter"])
def test_fit_and_simulate_hold_half_a_gram(use):
    if use == "simulate-jitter":  # cosine has rank 3 on S^2, so rung 0 fails
        pts, spec = sample_points(2, 600, seed=2), kernel("cosine")
    else:
        pts, spec = sample_points(2, 1500, seed=6), kernel("matern")
    tracemalloc.start()
    try:
        if use == "interpolate_fit":
            interpolate_fit(spec, pts, pts.points[:, 2].copy())
        else:
            jitter = simulate(spec, pts, 32, seed=1).jitter_used
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gram = pts.n_points**2 * 8
    if use == "simulate-jitter":
        assert jitter == 1e-12 * np.mean(np.diag(full_gram(spec, pts)))
        # at N = 600 the psi block temporaries are a third of the packed Gram
        assert peak < 1.1 * gram
    else:
        # the packed Gram (N(N+1)/2 doubles), factored in place, and its build
        # temporaries; a full N x N array alone reaches 1x
        assert peak < 0.85 * gram


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 80), st.sampled_from([None, 1, 5, 64]), st.integers(0, 2**16))
def test_packed_gram_is_the_lower_triangle_of_the_full_one(n, entries, seed):
    # n of both parities; block sizes down to one row per block and a square of one entry
    with pytest.MonkeyPatch.context() as m:
        if entries is not None:
            m.setattr(sphere, "_BLOCK_ENTRIES", entries)
        pts = sample_points(2, n, seed=seed)
        packed = _gram_packed(kernel("matern"), pts)
        full = full_gram(kernel("matern"), pts)
    want, info = dtrttf(full, transr="N", uplo="L")
    assert info == 0 and packed.shape == (n * (n + 1) // 2,)
    assert np.array_equal(packed, want)
    assert np.array_equal(packed[_packed_diagonal(n)], np.diag(full))


# Valid on S^2 with every computed b_{n,2}, n <= 400, positive (the smallest is about 2e-10)
_POSITIVE_ON_S2 = st.one_of(
    st.builds(lambda c: kernel("matern", c=c, nu=0.5), st.floats(0.2, 10.0)),
    st.builds(lambda c, a: kernel("powered_exponential", c=c, alpha=a),
              st.floats(0.2, 10.0), st.floats(0.2, 1.0)),
    st.builds(lambda c, a, t: kernel("generalized_cauchy", c=c, alpha=a, tau=t),
              st.floats(0.2, 3.0), st.floats(0.3, 1.0), st.floats(0.3, 3.0)),
    st.builds(lambda a: kernel("sine_power", alpha=a), st.floats(0.05, 1.95)),
    st.builds(lambda c: kernel("spherical", c=c), st.floats(0.2, math.pi)),
    st.builds(lambda c: kernel("wendland_c2", c=c, tau=4.0), st.floats(0.2, math.pi)),
)


@settings(deadline=None, max_examples=12)
@given(_POSITIVE_ON_S2)
def test_gram_is_the_coefficient_series_up_to_its_tail(spec):
    # with every b_n >= 0, |psi(theta) - sum_{n<=N} b_n R_n(cos theta)| <= 1 - sum_{n<=N} b_n,
    # with equality at theta = 0: the Gram path and the coefficient path meet on the diagonal
    seq = gegenbauer_coeffs(spec, 2, 400)
    assert seq.coeffs.min() >= 0.0
    pts = sample_points(2, 300, seed=4)
    upper = np.triu_indices(300)
    series = reconstruct(seq, pairwise_angles(pts.points, pts.points)[upper])
    worst = np.max(np.abs(full_gram(spec, pts)[upper] - series))
    assert abs(worst - (1.0 - seq.coeffs.sum())) <= 1e-12


def test_gram_detects_indefinite_kernel():
    # a profile too smooth at the origin loses positive definiteness on the
    # circle; dense equally spaced points expose a negative eigenvalue
    report = gram_report(
        kernel("powered_exponential", c=1, alpha=2), sample_points(1, 200, "equator")
    )
    assert not report.psd
    assert report.min_eigenvalue < -1e-6


@pytest.mark.parametrize(
    "spec",
    [kernel("powered_exponential", c=1, alpha=2), kernel("matern", c=2, nu=1.5)],
    ids=spec_id,
)
def test_membership_fail_has_empirical_witness(spec):
    # a FAIL verdict must be realizable as an indefinite Gram matrix on
    # some concrete point set; search dense circles and random sets
    from spherekernels import membership

    assert membership(spec, 1, 200).verdict == "FAIL"
    witness = None
    for n in (100, 200, 400):
        report = gram_report(spec, sample_points(1, n, "equator"))
        if report.min_eigenvalue < -1e-6:
            witness = ("equator", n, report.min_eigenvalue)
            break
    if witness is None:
        for seed in range(10):
            report = gram_report(spec, sample_points(1, 400, seed=seed))
            if report.min_eigenvalue < -1e-6:
                witness = ("uniform_random", seed, report.min_eigenvalue)
                break
    assert witness is not None, "no indefinite point set found"
    print(f"    witness for {spec}: {witness}")


# ---------------------------------------------------------------------------
# CSV round-trips


def test_latlon_roundtrip(tmp_path):
    pts = sample_points(2, 17, seed=8)
    path = tmp_path / "pts.csv"
    write_points(pts, path)
    header = path.read_text().splitlines()[0]
    assert header == "lat_deg,lon_deg"
    back, values = read_points(path)
    assert values is None
    assert np.max(np.abs(back.points - pts.points)) < 1e-12


def test_raw_coordinates_roundtrip(tmp_path):
    pts = sample_points(3, 9, seed=2)
    path = tmp_path / "pts4.csv"
    write_points(pts, path)
    assert path.read_text().splitlines()[0] == "x0,x1,x2,x3"
    back, _ = read_points(path)
    assert np.max(np.abs(back.points - pts.points)) < 1e-15


def test_value_column_roundtrip(tmp_path):
    pts = sample_points(2, 11, seed=4)
    vals = np.linspace(-1, 1, 11)
    path = tmp_path / "ptsv.csv"
    write_points(pts, path, values=vals)
    back, values = read_points(path)
    assert values == pytest.approx(vals, abs=1e-15)
    assert back.n_points == 11


def test_read_points_latitude_range(tmp_path):
    path = tmp_path / "poles.csv"
    path.write_text("lat_deg,lon_deg\n90,0\n-90,0\n0,0\n")
    back, _ = read_points(path)
    assert np.allclose(back.points[:, 2], [1.0, -1.0, 0.0])
    for lat in ("100", "-90.000001", "nan"):
        path.write_text(f"lat_deg,lon_deg\n0,0\n{lat},20\n")
        with pytest.raises(DomainError, match=f"latitude.*'{lat},20'"):
            read_points(path)


def test_read_points_longitude_finite(tmp_path):
    path = tmp_path / "lon.csv"
    for lon in ("nan", "inf", "-inf"):
        path.write_text(f"lat_deg,lon_deg\n0,0\n10,{lon}\n")
        with pytest.raises(DomainError, match=f"longitude.*'10,{lon}'"):
            read_points(path)


def test_read_points_rejects_unknown_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DomainError):
        read_points(path)


def test_read_points_names_a_non_numeric_cell_and_a_short_row(tmp_path):
    path = tmp_path / "bad.csv"
    for text, named in (
        ("lat_deg,lon_deg\n0,0\n10,abc\n", "malformed row '10,abc'.*expected numbers"),
        ("x0,x1,x2\n1,0,0\n0,x,1\n", "malformed row '0,x,1'"),
        ("lat_deg,lon_deg,value\n0,0,1\n10,20\n", "malformed row '10,20'.*2 cells"),
        ("x0,x1,x2\n1,0,0\n0,1\n", "malformed row '0,1'.*2 cells"),
    ):
        path.write_text(text)
        with pytest.raises(DomainError, match=named):
            read_points(path)


def test_read_points_rejects_extra_cells_and_columns(tmp_path):
    path = tmp_path / "wide.csv"
    for text, named in (
        ("lat_deg,lon_deg,elevation\n10,20,5\n", "unrecognized point columns"),
        ("lat_deg,lon_deg,value,extra\n10,20,1,2\n", "unrecognized point columns"),
        ("lat_deg,lon_deg\n0,0\n10,20,999\n", "malformed row '10,20,999'.*3 cells"),
        ("x0,x1,x2\n0,1,0\n1,0,0,7\n", "malformed row '1,0,0,7'.*4 cells"),
        # S^1 is the smallest sphere: fewer than two coordinate columns is no point file
        ("value\n1\n2\n", r"unrecognized point columns \['value'\]"),
        ("x0\n1\n-1\n", r"unrecognized point columns \['x0'\]"),
        ("x0,value\n1,5\n", r"unrecognized point columns \['x0', 'value'\]"),
        ("lat_deg,lon_deg,value\n0,0,1\n10,20,1,99\n", "malformed row '10,20,1,99'.*4 cells"),
    ):
        path.write_text(text)
        with pytest.raises(DomainError, match=named):
            read_points(path)


def test_read_points_names_the_first_bad_row_in_file_order(tmp_path):
    path = tmp_path / "two.csv"
    rows = ["0,0", "95,10", "20,30", "-10,40", "abc,50", "30,60,7"]
    path.write_text("lat_deg,lon_deg\n" + "\n".join(rows) + "\n")
    with pytest.raises(DomainError, match="latitude.*'95,10'"):
        read_points(path)
    rows[1] = "15,10"
    path.write_text("lat_deg,lon_deg\n" + "\n".join(rows) + "\n")
    with pytest.raises(DomainError, match="malformed row 'abc,50'"):
        read_points(path)
    for rows, named in ((["0,0", "10,20,5", "95,0"], "malformed row '10,20,5'"),
                        (["0,0", "95,0", "10,20,5"], "latitude.*'95,0'")):
        path.write_text("lat_deg,lon_deg\n" + "\n".join(rows) + "\n")
        with pytest.raises(DomainError, match=named):
            read_points(path)


def test_read_points_reads_what_write_points_wrote_to_the_bit(tmp_path):
    pts = sample_points(4, 40, seed=12)
    vals = np.random.default_rng(0).standard_normal(40)
    path = tmp_path / "raw.csv"
    write_points(pts, path, values=vals)
    back, values = read_points(path)
    assert np.array_equal(values, vals)
    assert np.array_equal(back.points, SpherePointSet(pts.points).points)


def _angles_by_clip(a, b):
    return 2.0 * np.arcsin(np.clip(cdist(a, b) / 2.0, 0.0, 1.0))


@pytest.mark.parametrize("d", [1, 2, 4])
def test_pairwise_angles_is_the_clipped_chord_formula_to_the_bit(d):
    rng = np.random.default_rng(d)
    a = sample_points(d, 60, seed=d).points
    b = sample_points(d, 45, seed=d + 10).points
    near = a + 1e-9 * rng.standard_normal(a.shape)
    near /= np.linalg.norm(near, axis=1)[:, None]
    for x, y in ((a, b), (a, a), (a, near), (a, -a), (b[:1], a)):
        assert np.array_equal(pairwise_angles(x, y), _angles_by_clip(x, y))
