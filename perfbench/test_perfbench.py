"""Tests of the benchmark harness: helpers, tracing and tiny end-to-end runs."""

import json
import shutil
import subprocess
import sys

import numpy as np
import numpy.linalg
import pytest
import scipy.linalg

import run
import spans
from spherekernels import kernel, schoenberg, special, sphere

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf8"))


def test_weighted_quantile_is_harrell_davis_and_follows_weights():
    q = run.weighted_quantile
    assert q([5.0, 1.0, 3.0, 2.0, 4.0], [1.0] * 5, 0.5) == pytest.approx(3.0)
    assert q([7.0], [1.0], 0.9) == pytest.approx(7.0)
    assert q([1.0, 2.0, 3.0, 4.0], [1.0] * 4, 0.75) > q([1.0, 2.0, 3.0, 4.0], [1.0] * 4, 0.5)
    # three ops on a cheap input weigh as much as one op on an expensive one
    assert q([10.0, 10.0, 10.0, 50.0], [1 / 3, 1 / 3, 1 / 3, 1.0], 0.5) == pytest.approx(30.0)
    # a value far out in the tail barely moves the median
    assert q([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 1e4], [1.0] * 10, 0.5) < 60.0


def test_input_weights_count_each_distinct_input_once():
    assert run.input_weights([0, 1, 0, 2, 0]) == pytest.approx([1 / 3, 1, 1 / 3, 1, 1 / 3])


def _span(name, start, end, parent):
    return spans.Span(name, start, parent, end=end)


def test_self_time_subtracts_union_of_children():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 4.0, 0),  # overlaps a: covered part counts once
        _span("c", 6.0, 8.0, 0),
        _span("c.child", 6.5, 7.0, 3),
        _span("late", 9.0, 12.0, 0),  # clipped at the parent's end
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx([10.0 - 3.0 - 2.0 - 1.0, 2.0, 2.0, 1.5, 0.5, 3.0])


def test_install_wraps_every_lookup_and_restore_puts_originals_back():
    originals = {
        (schoenberg, "gegenbauer_normalized_table"): schoenberg.gegenbauer_normalized_table,
        (special, "gegenbauer_normalized_table"): special.gegenbauer_normalized_table,
        (sphere, "pairwise_angles"): sphere.pairwise_angles,
        (numpy.linalg, "eigvalsh"): numpy.linalg.eigvalsh,
        (scipy.linalg, "cholesky"): scipy.linalg.cholesky,
        (scipy.linalg, "cho_solve"): scipy.linalg.cho_solve,
    }
    import spherekernels

    originals[(spherekernels, "membership")] = spherekernels.membership
    from spherekernels import apps, catalog

    originals[(apps, "pairwise_angles")] = apps.pairwise_angles
    originals[(catalog, "bessel_k")] = catalog.bessel_k
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        for (namespace, attr), fn in originals.items():
            assert getattr(namespace, attr) is not fn, f"{namespace.__name__}.{attr}"
            assert getattr(namespace, attr).__wrapped__ is fn
    finally:
        patches.restore()
    for (namespace, attr), fn in originals.items():
        assert getattr(namespace, attr) is fn, f"{namespace.__name__}.{attr}"
    assert not patches.replaced


def test_traced_calls_nest_and_count_work():
    pts = sphere.sample_points(2, 30, seed=3)
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        sphere.gram_report(kernel("matern", c=1.0, nu=0.5), pts)  # inactive: no spans
        assert tracer.spans == []
        tracer.active = True
        sphere.gram_report(kernel("matern", c=1.0, nu=0.5), pts)
        special.gauss_legendre(997)  # rule-cache miss: leggauss runs eigvalsh inside
    finally:
        tracer.active = False
        patches.restore()
    names = [s.name for s in tracer.spans]
    assert names[0] == "sphere.gram_report"
    by_name = {s.name: s for s in tracer.spans}
    for child in ("sphere.pairwise_angles", "catalog.evaluate", "linalg.eigvalsh"):
        assert tracer.spans[by_name[child].parent].name == "sphere.gram_report"
    totals = spans.layer_totals(tracer.spans)
    assert totals["sphere.pairwise_angles"]["pairs"] == 900
    assert totals["sphere.pairwise_angles"]["computed_mb"] == pytest.approx(900 * 3 * 8 / 1e6)
    assert totals["linalg.eigvalsh"]["calls"] == 1  # leggauss's own eigvalsh is not counted
    assert totals["linalg.eigvalsh"]["flops"] == pytest.approx(4.0 / 3.0 * 30**3)
    assert totals["special.leggauss"]["calls"] == 1
    assert totals["special.bessel_k"]["values"] == totals["catalog.evaluate"]["values"] - 30


def _run_main(capsys, monkeypatch, *argv):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # restored after the test, whatever main sets
    code = run.main(["--size", "tiny", "--seconds", "0.5", *argv])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric_and_passes_checks(capsys, monkeypatch, workload, trace):
    code, lines = _run_main(capsys, monkeypatch, "--workload", workload, "--seed", "5",
                            "--trace", trace)
    assert code == 0
    env = json.loads(lines[0])["env"]
    assert env["seed"] == 5 and 1 <= env["blas_threads"] <= env["nproc"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and np.isfinite(got["value"])
        if trace == "0":
            assert got["value"] > 0


def test_tiny_runs_repeat_their_inputs_for_a_seed(capsys, monkeypatch):
    shares = []
    for _ in range(2):
        _, lines = _run_main(capsys, monkeypatch, "--workload", "verdict", "--seed", "9",
                             "--trace", "0", "--seconds", "1.5")
        shares.append(json.loads(lines[-1])["metrics"]["decisive_share"]["value"])
    assert shares[0] == shares[1]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verdict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
