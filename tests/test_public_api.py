"""The public surface: every exported name resolves, removed names stay gone,
and the coefficient path imports no more of scipy than it uses."""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spherekernels
from spherekernels import MembershipVerdict, SpherePointSet, schoenberg, special, sphere


@pytest.mark.parametrize(
    "module", ["catalog", "special", "schoenberg", "criteria", "sphere", "apps", "cli"]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"spherekernels.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize(
    "name", ["gegenbauer", "gegenbauer_one", "legendre", "gegenbauer_normalized"]
)
def test_removed_polynomial_names_are_gone(name):
    # one degree is the last row of gegenbauer_normalized_table; C_n^lam is that row
    # times C_n^lam(1), and Legendre is its lam = 1/2 case
    for mod in (spherekernels, special):
        assert not hasattr(mod, name)
        assert name not in mod.__all__


def test_membership_verdict_has_no_monotonicity_field():
    # the S^3 sign pattern is read off the verdict's sequence
    assert "monotonicity" not in {f.name for f in dataclasses.fields(MembershipVerdict)}


@pytest.mark.parametrize("name", ["great_circle", "legendre_from_fourier"])
def test_removed_distance_and_series_names_are_gone(name):
    # pairwise_angles is the one distance routine; the series is the tests' S^2 oracle
    for mod in (spherekernels, sphere, schoenberg):
        assert not hasattr(mod, name)
        assert name not in mod.__all__


def test_point_set_has_no_distance_matrix():
    assert not hasattr(SpherePointSet, "distance_matrix")


def test_strictness_evidence_takes_no_options():
    # the 1e-12 threshold and the progressions n <= 10 are fixed, as membership's counts are
    params = inspect.signature(schoenberg.strictness_evidence).parameters
    assert list(params) == ["seq"]


# Coefficient-only work in a fresh interpreter: the package, a verdict, a walk,
# a Polya check and every CLI verb that takes no point set.
_COEFFICIENT_WORK = """
import contextlib, io, sys
import spherekernels as sk
from spherekernels.cli import main

spec = sk.kernel("matern", c=1, nu=0.5)
sk.membership(spec, 3, 200)
sk.walk_1_to_3(sk.fourier_coeffs(spec, 200))
sk.polya_circle(spec)
sk.schoenberg.to_csv(sk.gegenbauer_coeffs(spec, 2, 50), sys.argv[1])
verbs = [
    ["list"],
    ["eval", "--kernel", "matern", "--theta", "1"],
    ["coeffs", "--kernel", "matern", "--dim", "3"],
    ["walk", "--kernel", "matern", "--to", "3"],
    ["member", "--kernel", "matern", "--dim", "3", "--n", "200"],
    ["criteria", "--kernel", "askey", "--criterion", "polya_2n1", "--order", "2"],
    ["fractal", "--kernel", "matern"],
    ["localize", "--c", "1"],
    ["reconstruct", "--coeffs", sys.argv[1], "--theta", "0.5"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in verbs]
assert codes == [0] * len(verbs), codes
print("scipy.spatial" in sys.modules)
"""

# Point-set work in a fresh interpreter: each of these loads scipy.spatial.
_POINT_SET_WORK = [
    "sk.sample_points(2, 10, seed=0)",
    "sk.sphere.pairwise_angles(np.eye(3), np.eye(3))",
    "main(['gram', '--kernel', 'matern', '--n-points', '10'])",
]


def _fresh(code, *argv):
    """Run ``code`` in a new interpreter on this checkout's source; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_coefficient_work_never_loads_scipy_spatial(tmp_path):
    # pytest's own process holds scipy.spatial already, so the check runs in a new one
    assert _fresh(_COEFFICIENT_WORK, str(tmp_path / "seq.csv")) == "False\n"


@pytest.mark.parametrize("work", _POINT_SET_WORK, ids=["sample_points", "pairwise_angles", "gram"])
def test_the_first_point_set_or_distance_loads_scipy_spatial(work):
    code = ("import contextlib, io, sys\nimport numpy as np\nimport spherekernels as sk\n"
            "from spherekernels.cli import main\n"
            "assert 'scipy.spatial' not in sys.modules\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    {work}\n"
            "print('scipy.spatial' in sys.modules)\n")
    assert _fresh(code) == "True\n"
