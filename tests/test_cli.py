"""Command line surface: verbs, formats, exit codes, determinism."""

import csv
import io
import json
import math

import numpy as np
import pytest

from spherekernels import sample_points, write_points
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


# verb, file flag, file content, text the one-line error must contain
_BAD_FILES = [
    ("interp", "--points", "lat_deg,lon_deg,value\n0,0,1.0\n30,abc,2.0\n", "30,abc,2.0"),
    ("interp", "--points", "lat_deg,lon_deg,value\n0,0,1.0\n30\n", "'30'"),
    ("gram", "--points", "x0,x1,x2\n1,0,0\nnan,0,1\n", "finite"),
    ("gram", "--points", "x0,x1,x2\n1,0,0\n0,1\n", "'0,1'"),
    ("reconstruct", "--coeffs", "# d=abc\nn,b\n0,1.0\n", "d='abc'"),
]


def test_exit_code_domain_error(capsys, tmp_path):
    code, _, err = _run(capsys, "eval", "--kernel", "nosuchfamily:c=1", "--theta", "1")
    assert code == 1
    assert "error:" in err
    bad = tmp_path / "bad.csv"
    bad.write_text("# d=1\nn,b\n0,0.5\n1,abc\n")
    code, out, err = _run(capsys, "reconstruct", "--coeffs", str(bad), "--theta", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "1,abc" in err
    for verb, flag, text, named in _BAD_FILES:
        bad.write_text(text)
        argv = [verb, flag, str(bad)]
        argv += ["--theta", "1"] if verb == "reconstruct" else ["--kernel", "matern:c=1,nu=0.5"]
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == "", text
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


def test_json_mirrors_csv_fields(capsys):
    _, out_csv, _ = _run(capsys, "gram", "--kernel", "cosine", "--scheme", "equator", "--n-points", "3")
    _, out_json, _ = _run(
        capsys, "gram", "--kernel", "cosine", "--scheme", "equator", "--n-points", "3",
        "--format", "json",
    )
    csv_fields = set(_rows(out_csv)[0].keys())
    json_fields = set(json.loads(out_json)[0].keys())
    assert csv_fields == json_fields
