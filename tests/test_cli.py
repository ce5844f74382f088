"""Command line surface: verbs, formats, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spherekernels import (
    fourier_coeffs,
    gegenbauer_coeffs,
    gram_report,
    interpolate_eval,
    interpolate_fit,
    localization_compare,
    membership,
    parse_kernel,
    read_points,
    reconstruct,
    sample_points,
    simulate,
    walk_d_to_d2,
    write_points,
)
from spherekernels.catalog import evaluate
from spherekernels.schoenberg import from_csv
from spherekernels.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(out):
    return list(csv.DictReader(io.StringIO(out)))


def test_list_families(capsys):
    code, out, _ = _run(capsys, "list")
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 12
    names = {r["family"] for r in rows}
    assert {"matern", "askey", "gaspari_cohn", "cosine"} <= names

    code, out, _ = _run(capsys, "list", "--format", "json")
    data = json.loads(out)
    assert len(data) == 12 and data[0]["family"]


def test_eval_sine_power_at_pi(capsys):
    code, out, _ = _run(capsys, "eval", "--kernel", "sine_power:alpha=1", "--theta", "3.14159265")
    assert code == 0
    value = float(_rows(out)[0]["value"])
    assert abs(value) < 1e-8


def test_eval_degrees_flag(capsys):
    _, out_rad, _ = _run(capsys, "eval", "--kernel", "matern:c=1,nu=0.5", "--theta", "1.0471975511965976")
    _, out_deg, _ = _run(capsys, "eval", "--kernel", "matern:c=1,nu=0.5", "--theta", "60", "--degrees")
    assert float(_rows(out_rad)[0]["value"]) == pytest.approx(
        float(_rows(out_deg)[0]["value"]), rel=1e-12
    )


def test_fractal_degrees_flag(capsys):
    kern = ("--kernel", "matern:c=1,nu=0.3")
    _, out_rad, _ = _run(capsys, "fractal", *kern, "--theta-min", repr(math.radians(0.006)),
                         "--theta-max", repr(math.radians(0.6)))
    code, out_deg, _ = _run(capsys, "fractal", *kern, "--theta-min", "0.006",
                            "--theta-max", "0.6", "--degrees")
    assert code == 0 and out_deg == out_rad


def test_eval_grid(capsys):
    code, out, _ = _run(capsys, "eval", "--kernel", "cosine", "--grid", "0:3.14159:5")
    rows = _rows(out)
    assert code == 0 and len(rows) == 5
    assert float(rows[0]["value"]) == 1.0


def test_member_pass_verdict(capsys):
    code, out, _ = _run(
        capsys,
        "member", "--kernel", "powered_exponential:c=1,alpha=0.5",
        "--dim", "2", "--n", "100", "--tail-tol", "0.15",
    )
    assert code == 0
    row = _rows(out)[0]
    assert row["verdict"] == "PASS"


def test_member_fail_verdict_with_witness(capsys):
    code, out, _ = _run(
        capsys, "member", "--kernel", "powered_exponential:c=1,alpha=2", "--dim", "1", "--n", "200"
    )
    row = _rows(out)[0]
    assert row["verdict"] == "FAIL"
    assert row["witnesses"].startswith("8:")


def test_coeffs_reconstruct_roundtrip(capsys, tmp_path):
    code, out, _ = _run(capsys, "coeffs", "--kernel", "multiquadric:tau=1,delta=0.5", "--dim", "2", "--n", "60")
    assert code == 0
    seq_file = tmp_path / "seq.csv"
    seq_file.write_text(out)
    code, out2, _ = _run(capsys, "reconstruct", "--coeffs", str(seq_file), "--grid", "0.1:3:7")
    assert code == 0
    code, out3, _ = _run(capsys, "eval", "--kernel", "multiquadric:tau=1,delta=0.5", "--grid", "0.1:3:7")
    recon = [float(r["value"]) for r in _rows(out2)]
    direct = [float(r["value"]) for r in _rows(out3)]
    assert np.allclose(recon, direct, atol=1e-9)


def test_walk_matches_direct_coeffs(capsys):
    _, walked, _ = _run(capsys, "walk", "--kernel", "sine_power:alpha=1", "--dim", "1", "--n", "42", "--to", "3")
    _, direct, _ = _run(capsys, "coeffs", "--kernel", "sine_power:alpha=1", "--dim", "3", "--n", "40")
    parse = lambda text: [
        float(line.split(",")[1])
        for line in text.splitlines()
        if line and not line.startswith("#") and not line.startswith("n,")
    ]
    assert np.allclose(parse(walked), parse(direct), atol=1e-8)


def test_coeffs_and_walk_json_carry_the_library_sequence(capsys):
    spec = parse_kernel("askey:c=1,tau=3")
    direct = gegenbauer_coeffs(spec, 2, 40)
    walked = walk_d_to_d2(walk_d_to_d2(fourier_coeffs(spec, 42)))
    for argv, seq in [
        (["coeffs", "--dim", "2", "--n", "40"], direct),
        (["walk", "--dim", "1", "--n", "42", "--to", "5"], walked),
    ]:
        code, out, _ = _run(capsys, *argv, "--kernel", "askey:c=1,tau=3", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["coeffs"] == seq.coeffs.tolist()  # bit for bit, through repr
        assert (data["d"], data["n_max"], data["quadrature_order"], data["source"]) == (
            seq.d, seq.n_max, seq.quadrature_order, seq.source)


def test_walk_rejects_impossible_target(capsys):
    code, _, err = _run(capsys, "walk", "--kernel", "cosine", "--dim", "1", "--n", "20", "--to", "4")
    assert code == 1
    assert "walk" in err


def test_criteria_verb(capsys):
    code, out, _ = _run(
        capsys, "criteria", "--kernel", "powered_exponential:c=1,alpha=1", "--criterion", "polya_circle"
    )
    row = _rows(out)[0]
    assert code == 0 and row["satisfied"] == "YES"


@pytest.mark.parametrize("kernel_text, flags, implied", [
    ("matern:c=1,nu=0.5", ["--criterion", "polya_s3"], "Psi_3+"),
    ("askey:c=1,tau=5", ["--criterion", "polya_2n1", "--order", "3"], "Psi_7+"),
])
def test_criteria_verb_profile_checkers(capsys, kernel_text, flags, implied):
    code, out, _ = _run(capsys, "criteria", "--kernel", kernel_text, *flags)
    row = _rows(out)[0]
    assert code == 0
    assert (row["satisfied"], row["implied_class"]) == ("YES", implied)


def test_gram_and_simulate_read_a_point_file(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    write_points(sample_points(3, 12, seed=7), path)  # x0..x3 columns
    pts, _ = read_points(path)
    spec = parse_kernel("matern")
    code, out, _ = _run(capsys, "gram", "--kernel", "matern", "--points", str(path))
    report = gram_report(spec, pts)
    row = _rows(out)[0]
    assert code == 0 and row["n_points"] == "12"
    assert float(row["min_eigenvalue"]) == report.min_eigenvalue
    code, out, _ = _run(capsys, "simulate", "--kernel", "matern", "--points", str(path),
                        "--samples", "2", "--seed", "3")
    draws = [[float(r[f"v{j}"]) for j in range(12)] for r in _rows(out)]
    assert code == 0
    assert draws == simulate(spec, pts, 2, seed=3).values.tolist()


def test_gram_verb_equator(capsys):
    code, out, _ = _run(
        capsys, "gram", "--kernel", "cosine", "--scheme", "equator", "--n-points", "3", "--dim", "2"
    )
    row = _rows(out)[0]
    assert code == 0
    assert row["psd"] == "True"
    assert abs(float(row["min_eigenvalue"])) < 1e-10


def test_fractal_verb(capsys):
    code, out, _ = _run(capsys, "fractal", "--kernel", "sine_power:alpha=1")
    row = _rows(out)[0]
    assert code == 0
    assert float(row["estimate"]) == pytest.approx(1.0, abs=0.05)
    assert float(row["theoretical"]) == 1.0


def test_localize_verb(capsys):
    code, out, _ = _run(capsys, "localize", "--c", "1.5707963267948966", "--grid", "0:3.14159:101")
    rows = _rows(out)
    assert code == 0 and len(rows) == 101
    mid = rows[25]  # inside the support
    assert float(mid["psi2_great_circle"]) > float(mid["psi1_chordal"])


def test_interp_verb(capsys, tmp_path):
    nodes = sample_points(2, 25, "fibonacci_s2")
    values = nodes.points[:, 2]
    node_file = tmp_path / "nodes.csv"
    write_points(nodes, node_file, values=values)
    code, out, _ = _run(capsys, "interp", "--kernel", "matern:c=1,nu=0.5", "--points", str(node_file))
    assert code == 0
    preds = [float(r["prediction"]) for r in _rows(out)]
    assert np.allclose(preds, values, atol=1e-8)


def test_interp_requires_value_column(capsys, tmp_path):
    nodes = sample_points(2, 5, "fibonacci_s2")
    node_file = tmp_path / "nodes.csv"
    write_points(nodes, node_file)
    code, _, err = _run(capsys, "interp", "--kernel", "matern:c=1,nu=0.5", "--points", str(node_file))
    assert code == 1 and "value" in err


def _interp_on(capsys, tmp_path, eval_text):
    node_file, eval_file = tmp_path / "nodes.csv", tmp_path / "grid.csv"
    write_points(sample_points(2, 20, seed=2), node_file, values=np.arange(20.0))
    eval_file.write_text(eval_text)
    return _run(capsys, "interp", "--kernel", "matern:c=1,nu=0.5", "--points", str(node_file),
                "--eval-points", str(eval_file))


def test_interp_eval_points_may_repeat(capsys, tmp_path):
    # a lat/lon grid holds the north pole once per longitude: targets need not be distinct
    code, out, err = _interp_on(capsys, tmp_path, "lat_deg,lon_deg\n90,0\n90,10\n0,0\n90,0\n")
    assert code == 0, err
    preds = [float(r["prediction"]) for r in _rows(out)]
    assert len(preds) == 4
    assert preds[0] == preds[3]
    assert preds[1] == pytest.approx(preds[0], rel=1e-12)


@pytest.mark.parametrize("text, named", [
    ("lat_deg,lon_deg\n90,0\n91,10\n", "latitude outside [-90, 90] in row '91,10'"),
    ("lat_deg,lon_deg\n", "no data rows"),
    ("x0,x1,x2\n1,0,0\n2,0,0\n0,0,3\n", "unit vector (norm 1 within 1e-9) in row '2,0,0'"),
])
def test_interp_eval_points_keep_the_row_checks(capsys, tmp_path, text, named):
    code, out, err = _interp_on(capsys, tmp_path, text)
    assert code == 1 and out == ""
    assert err.startswith("error:") and named in err, err


def test_simulate_deterministic_output(capsys):
    argv = [
        "simulate", "--kernel", "matern:c=1,nu=0.5", "--scheme", "fibonacci_s2",
        "--n-points", "6", "--samples", "4", "--seed", "3",
    ]
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for identical argv + seed
    rows = _rows(out1)
    assert len(rows) == 4 and len(rows[0]) == 7


def test_simulate_notes_the_jitter_on_stderr_only(capsys):
    # cosine is x . y, so its Gram matrix on 600 points of S^2 has rank 3: the
    # factorization takes the first jitter step, and stdout stays the CSV draws alone
    code, out, err = _run(capsys, "simulate", "--kernel", "cosine", "--n-points", "600",
                          "--samples", "4", "--seed", "2")
    assert code == 0
    assert err == "jitter used: 1e-12\n"
    lines = out.splitlines()
    assert lines[0] == ",".join(["draw"] + [f"v{j}" for j in range(600)]) and len(lines) == 5
    assert [int(r["draw"]) for r in _rows(out)] == [0, 1, 2, 3]


# verb, file flag, file content, text the one-line error must contain
_BAD_FILES = [
    ("interp", "--points", "lat_deg,lon_deg,value\n0,0,1.0\n30,abc,2.0\n", "30,abc,2.0"),
    ("interp", "--points", "lat_deg,lon_deg,value\n0,0,1.0\n30\n", "'30'"),
    ("interp", "--points", "lat_deg,lon_deg,value\n0,0,1.0\n100,0,2.0\n", "'100,0,2.0'"),
    ("gram", "--points", "lat_deg,lon_deg\n0,0\n-90.5,10\n", "'-90.5,10'"),
    ("interp", "--points", "lat_deg,lon_deg,value\n0,0,1.0\n10,inf,2.0\n", "'10,inf,2.0'"),
    ("gram", "--points", "lat_deg,lon_deg\n0,0\n10,nan\n", "'10,nan'"),
    ("gram", "--points", "x0,x1,x2\n1,0,0\nnan,0,1\n", "finite"),
    # the first row off the unit sphere is named, for every verb that reads points
    ("gram", "--points", "x0,x1,x2\n1,0,0\n2,0,0\n0,0,3\n",
     "unit vector (norm 1 within 1e-9) in row '2,0,0'"),
    ("simulate", "--points", "x0,x1,x2\n1,0,0\n2,0,0\n0,0,3\n", "in row '2,0,0'"),
    ("interp", "--points", "x0,x1,x2,value\n1,0,0,1\n2,0,0,2\n0,0,3,3\n", "in row '2,0,0,2'"),
    ("gram", "--points", "x0,x1,x2\n1,0,0\n0,1\n", "'0,1'"),
    ("gram", "--points", "value\n1\n2\n", "unrecognized point columns ['value']"),
    ("reconstruct", "--coeffs", "# d=abc\nn,b\n0,1.0\n", "d='abc'"),
    ("reconstruct", "--coeffs", "0,1.0\n1,nan\n2,0.5\n3,nan\n", "row '1,nan'"),
    ("reconstruct", "--coeffs", "0,1.0\n1,inf\n2,0.5\n3,nan\n", "row '1,inf'"),
    ("reconstruct", "--coeffs", "0,1.0\n1,-inf\n2,0.5\n3,nan\n", "row '1,-inf'"),
    ("walk", "--coeffs", "0,1.0\n1,nan\n2,0.5\n3,nan\n", "row '1,nan'"),
    ("walk", "--coeffs", "0,1.0\n1,inf\n2,0.5\n3,nan\n", "row '1,inf'"),
    ("walk", "--coeffs", "0,1.0\n1,-inf\n2,0.5\n3,nan\n", "row '1,-inf'"),
    ("interp", "--points", "x0,x1,x2,value\n1,0,0,1.0\n0,1,0,nan\n", "finite"),
    ("interp", "--points", "x0,x1,x2,value\n1,0,0,1.0\n0,1,0,inf\n", "finite"),
]

# argv after the verb and --kernel, text the one-line error must contain
_BAD_ARGS = [
    ("member", "--tol", "-1", "tol_fail"),
    ("member", "--tol", "nan", "tol_fail"),
    ("member", "--tail-tol", "nan", "tail_tol"),
    ("gram", "--tol", "nan", "tol"),
    ("gram", "--tol", "-1", "tol"),
    ("gram", "--seed", "-1", "seed -1"),
    ("simulate", "--seed", "-1", "seed -1"),
    ("interp", "--ridge", "inf", "ridge"),
    ("eval", "--grid", "0:1", "malformed grid '0:1'"),
    ("eval", "--grid", "0:1:0", "grid count"),
]


def test_exit_code_domain_error(capsys, tmp_path):
    code, _, err = _run(capsys, "eval", "--kernel", "nosuchfamily:c=1", "--theta", "1")
    assert code == 1
    assert "error:" in err
    code, out, err = _run(capsys, "eval", "--kernel", "matern:c=1,c=3", "--theta", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "'c'" in err
    bad = tmp_path / "bad.csv"
    bad.write_text("# d=1\nn,b\n0,0.5\n1,abc\n")
    code, out, err = _run(capsys, "reconstruct", "--coeffs", str(bad), "--theta", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "1,abc" in err
    for verb, flag, text, named in _BAD_FILES:
        bad.write_text(text)
        argv = [verb, flag, str(bad)]
        argv += {"reconstruct": ["--theta", "1"], "walk": ["--to", "5"]}.get(
            verb, ["--kernel", "matern:c=1,nu=0.5"])
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == "", text
        assert err.startswith("error:") and err.count("\n") == 1 and named in err, err
    nodes = tmp_path / "nodes.csv"
    write_points(sample_points(2, 5, seed=0), nodes, values=np.arange(5.0))
    for verb, flag, value, named in _BAD_ARGS:
        argv = [verb, "--kernel", "matern:c=1,nu=0.5", flag, value]
        argv += ["--points", str(nodes)] if verb == "interp" else []
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1 and named in err, err


def test_exit_code_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["nosuchverb"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--kernel", "cosine"])  # neither --theta nor --grid
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gram", "--kernel", "cosine", "--degrees"])  # gram takes no angles
    assert exc.value.code == 2


def test_process_exit_codes():
    # the `sys.exit(main())` wiring, run as a module in a fresh interpreter
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "spherekernels.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    done = run("list")
    assert done.returncode == 0 and len(done.stdout.splitlines()) == 13
    done = run("eval", "--kernel", "nosuch", "--theta", "1")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
    assert run("gram", "--kernel", "cosine", "--degrees").returncode == 2
    done = run("member", "--kernel", "matern", "--tol", "-1")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
    # c = 0 lies outside the scale's domain: the spec is refused before psi is
    # evaluated, so no verb prints NaN or a numpy warning
    for argv in (("eval", "--theta", "1"), ("criteria", "--criterion", "polya_circle"),
                 ("member", "--dim", "2")):
        done = run(argv[0], "--kernel", "matern:c=0", *argv[1:])
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == "error: matern: parameter c=0.0 must lie in (0, inf), not subnormal\n"


def test_json_mirrors_csv_fields(capsys):
    _, out_csv, _ = _run(capsys, "gram", "--kernel", "cosine", "--scheme", "equator", "--n-points", "3")
    _, out_json, _ = _run(
        capsys, "gram", "--kernel", "cosine", "--scheme", "equator", "--n-points", "3",
        "--format", "json",
    )
    csv_fields = set(_rows(out_csv)[0].keys())
    json_fields = set(json.loads(out_json)[0].keys())
    assert csv_fields == json_fields



def _reference_emit(table: list[dict], fmt: str) -> str:
    """A table as the verbs wrote it row by row: dicts through csv.DictWriter or json.dump."""
    sink = io.StringIO()
    if fmt == "json":
        json.dump(table, sink, indent=2, default=str)
        sink.write("\n")
    elif table:
        writer = csv.DictWriter(sink, fieldnames=list(table[0].keys()))
        writer.writeheader()
        writer.writerows(table)
    return sink.getvalue()


def _f(x) -> str:
    return repr(float(x))


def _reference_cases(tmp_path, capsys) -> list[tuple[list[str], list[dict]]]:
    """(argv, table) per verb, each table built from the library calls the verb wraps."""
    nodes = sample_points(2, 30, seed=5)
    node_file, query_file, coeff_file = (str(tmp_path / n) for n in ("n.csv", "q.csv", "c.csv"))
    write_points(nodes, node_file, values=np.sin(3.0 * nodes.points[:, 0]))
    write_points(sample_points(2, 20, seed=6), query_file)
    matern = "matern:c=0.8,nu=0.5"
    spec = parse_kernel(matern)
    _, out, _ = _run(capsys, "coeffs", "--kernel", matern, "--dim", "2", "--n", "30")
    Path(coeff_file).write_text(out)
    grid = np.linspace(0.0, 3.0, 9)

    def interp_table(targets):
        preds = interpolate_eval(interpolate_fit(spec, *read_points(node_file)), targets.points)
        return [{**{f"x{i}": _f(c) for i, c in enumerate(p)}, "prediction": _f(v)}
                for p, v in zip(targets.points, preds)]

    def value_table(values):
        return [{"theta_rad": _f(t), "value": _f(v)} for t, v in zip(grid, values)]

    sample = simulate(spec, sample_points(2, 12, seed=4), 3, seed=4)
    verdict = membership(parse_kernel("cosine"), 3, 60, tol_fail=1e-6, tail_tol=1e-3, strict=True)
    report = gram_report(parse_kernel("matern"), sample_points(2, 15, seed=1), tol=1e-8)
    return [
        (["interp", "--kernel", matern, "--points", node_file],
         interp_table(read_points(node_file)[0])),
        (["interp", "--kernel", matern, "--points", node_file, "--eval-points", query_file],
         interp_table(read_points(query_file)[0])),
        (["simulate", "--kernel", matern, "--n-points", "12", "--samples", "3", "--seed", "4"],
         [{"draw": i, **{f"v{j}": _f(v) for j, v in enumerate(draw)}}
          for i, draw in enumerate(sample.values)]),
        (["eval", "--kernel", matern, "--grid", "0:3:9"], value_table(evaluate(spec, grid))),
        (["reconstruct", "--coeffs", coeff_file, "--grid", "0:3:9"],
         value_table(reconstruct(from_csv(coeff_file), grid))),
        (["localize", "--c", "1.2", "--grid", "0:3:13"],
         [{"theta_rad": _f(t), "psi1_chordal": _f(a), "psi2_great_circle": _f(b)}
          for t, a, b in localization_compare(1.2, np.linspace(0.0, 3.0, 13))]),
        (["member", "--kernel", "cosine", "--dim", "3", "--n", "60", "--strict"],
         [{"verdict": verdict.verdict, "dim": verdict.d, "n_max": verdict.n_max,
           "min_coeff": _f(verdict.min_coeff), "min_index": verdict.min_index,
           "tail_mass": _f(verdict.tail_mass),
           "witnesses": ";".join(f"{n}:{b:.3e}" for n, b in verdict.witnesses),
           "even_positive": verdict.strict_evidence.even_count,
           "odd_positive": verdict.strict_evidence.odd_count}]),
        (["gram", "--kernel", "matern", "--n-points", "15", "--seed", "1"],
         [{"n_points": report.n_points, "min_eigenvalue": _f(report.min_eigenvalue),
           "max_eigenvalue": _f(report.max_eigenvalue), "psd": report.psd,
           "tolerance_used": _f(report.tolerance_used)}]),
    ]


def test_columnar_output_is_byte_identical_to_row_dicts(capsys, tmp_path):
    for argv, table in _reference_cases(tmp_path, capsys):
        for fmt in ("csv", "json"):
            code, out, _ = _run(capsys, *argv, "--format", fmt)
            assert code == 0, argv
            assert out == _reference_emit(table, fmt), (argv, fmt)
