"""The public surface: every exported name resolves, and removed names stay gone."""

import dataclasses
import importlib
import inspect

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
