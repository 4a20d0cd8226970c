"""Caller input enters the library one way per kind: points through
ParamDomain.wrap, poles through Frontal.pole.  Every entry point that takes
them raises UsageError on a malformed one, before any value is computed."""
import numpy as np
import pytest

from frontalforge.analysis import (cahn_hoffman, front_equivalence,
                                   is_front_at, opening_residual)
from frontalforge.catalog import catalog
from frontalforge.errors import UsageError
from frontalforge.frontal import (Frontal, ParamDomain, SampledMap,
                                  check_frontal, jacobian_f, sample)
from frontalforge.io import svg_table
from frontalforge.linalg import numeric_rank
from frontalforge.silhouette import RasterGrid, ns_membership, ns_raster
from frontalforge.transforms import TransformKind, sample_poles, transform
from frontalforge.verify import grid_for, run_suite

# the circle (n = 1, m = 2) and the sphere (n = 2, m = 3), each with a pole
# in its no-silhouette set
FRONTALS = {"circle": (0.1, 0.2), "sphere": (0.1, 0.2, 0.05)}

POINT_CALLS = {
    "sample": lambda F, P, x: sample(F, x),
    "check_frontal": lambda F, P, x: check_frontal(F, x),
    "ns_membership": lambda F, P, x: ns_membership(F, P, x),
    "ns_raster": lambda F, P, x: ns_raster(F, (-2, 2, -2, 2), 4, x),
    "sample_poles": lambda F, P, x: sample_poles(F, x, 1),
    "sample_poles-values": lambda F, P, x: sample_poles(
        F, x, 1, values=F.eval(np.zeros((5, F.param_dim)))),
    "jacobian_f": lambda F, P, x: jacobian_f(F, x),
    "eval": lambda F, P, x: F.eval(x),
    "cahn_hoffman": lambda F, P, x: cahn_hoffman(F, P, x),
    "opening_residual": lambda F, P, x: opening_residual(F, P, x),
    "front_equivalence": lambda F, P, x: front_equivalence(F, P, x),
    "is_front_at": lambda F, P, x: is_front_at(F, x),
}


def _bad_points(n):
    """A 1-D k-vector (k != n, read as one point of k coordinates), and
    (k, n + 1) and (k, n - 1) arrays."""
    return {"vector": np.linspace(0.1, 0.5, 5),
            "wide": np.full((5, n + 1), 0.5),
            "narrow": np.full((5, n - 1), 0.5)}


@pytest.mark.parametrize("shape", ["vector", "wide", "narrow"])
@pytest.mark.parametrize("call, name", [
    (call, name) for call in sorted(POINT_CALLS) for name in sorted(FRONTALS)
    if not (call == "ns_raster" and name == "sphere")])  # ns_raster: m = 2
def test_malformed_points_are_usage_errors(call, name, shape):
    F = catalog(name)
    x = _bad_points(F.param_dim)[shape]
    with pytest.raises(UsageError, match=r"expected parameter points of "
                       rf"shape \(k, {F.param_dim}\), got \(\d+, \d+\)"):
        POINT_CALLS[call](F, FRONTALS[name], x)


def test_one_point_as_a_vector_is_one_row():
    """A 1-D point of the domain's dimension is one row, as it always was."""
    F = catalog("sphere")
    np.testing.assert_array_equal(F.eval([1.0, 0.5])[0],
                                  F.eval([[1.0, 0.5]])[0])


POLE_CALLS = {
    "transform": lambda F, P, x: transform(TransformKind.PEDAL, F, P),
    "ns_membership": lambda F, P, x: ns_membership(F, P, x),
    "cahn_hoffman": lambda F, P, x: cahn_hoffman(F, P, x),
    "opening_residual": lambda F, P, x: opening_residual(F, P, x),
    "front_equivalence": lambda F, P, x: front_equivalence(F, P, x),
    "run_suite-thm1": lambda F, P, x: run_suite("thm1", F, [P], 64),
    "run_suite-thm2": lambda F, P, x: run_suite("thm2", F, [P], 64),
}

BAD_POLES = {"nan": ([np.nan, 0.2], "is not finite"),
             "inf": ([0.1, -np.inf], "is not finite"),
             "long": ([0.1, 0.2, 0.0], "pole has dimension 3, expected 2"),
             "short": ([0.1], "pole has dimension 1, expected 2")}


@pytest.mark.parametrize("pole", sorted(BAD_POLES))
@pytest.mark.parametrize("call", sorted(POLE_CALLS))
def test_malformed_poles_are_usage_errors(call, pole):
    F = catalog("circle")
    P, says = BAD_POLES[pole]
    with pytest.raises(UsageError, match=says):
        POLE_CALLS[call](F, P, F.domain.grid([16]))


def test_run_suite_checks_each_pole_before_counting():
    """Rows of unequal length name the bad pole, for a one-pole suite too;
    they never reach numpy as one ragged array."""
    F = catalog("circle")
    for suite in ("thm1", "thm2"):
        with pytest.raises(UsageError,
                           match="pole has dimension 3, expected 2"):
            run_suite(suite, F, [[0.0, 0.0], [0.1, 0.0, 0.0]], 64)


@pytest.mark.parametrize("suite", ["thm1", "prop1", "thm2", "thm3", "thm4",
                                   "square-reconstruction"])
def test_no_pole_rows_is_a_usage_error(suite):
    """An empty list of rows is neither a count nor None: a suite given it
    would test no pole and report a pass."""
    F = catalog("square" if suite == "square-reconstruction" else "circle")
    with pytest.raises(UsageError, match="no pole given"):
        run_suite(suite, F, [], 64)


def test_pole_is_returned_as_floats():
    P = catalog("sphere").pole([0, 1, 2])
    assert P.dtype == float and P.tolist() == [0.0, 1.0, 2.0]


# a count of 0 asks for nothing, which is not the default
@pytest.mark.parametrize("call, says", [
    (lambda: run_suite("thm1", catalog("circle"), poles=0, samples=32),
     "pole count of at least 1, got 0"),
    (lambda: run_suite("thm2", catalog("circle"), poles=0, samples=32),
     "pole count of at least 1, got 0"),
    (lambda: sample_poles(catalog("circle"), np.zeros((4, 1)), 0),
     "pole count of at least 1, got 0"),
    (lambda: run_suite("thm1", catalog("circle"), samples=0),
     "at least 1 sample, got 0"),
    (lambda: grid_for(catalog("circle"), 0), "at least 1 sample, got 0"),
    (lambda: run_suite("square-reconstruction", catalog("circle")),
     "runs on the square only, not on 'circle'")],
    ids=["thm1-poles-0", "thm2-poles-0", "sample_poles-0", "thm1-samples-0",
         "grid_for-0", "square-reconstruction-on-circle"])
def test_zero_count_and_wrong_frontal_are_usage_errors(call, says):
    with pytest.raises(UsageError, match=says):
        call()


def _circle():
    return catalog("circle")


# every library argument check raises UsageError (a ValueError too)
@pytest.mark.parametrize("call, says", [
    (lambda: ParamDomain([0.0], [1.0, 2.0], [False]), "matching shapes"),
    (lambda: ParamDomain([1.0], [1.0], [False]), "lo < hi"),
    (lambda: _circle().domain.grid([4, 4]), "one sample count per axis"),
    (lambda: _circle().domain.grid([1]), "at least 2 samples per axis"),
    (lambda: _circle().eval_wrapped(np.zeros((2, 1)), 2), "order must be"),
    (lambda: SampledMap(np.zeros((2, 1)), np.zeros((3, 2))),
     "length mismatch"),
    (lambda: SampledMap(np.zeros((2, 1)), np.zeros((2, 2)), np.zeros((2, 3))),
     "gauss shape mismatch"),
    (lambda: check_frontal(_circle(), np.zeros((0, 1))), "empty grid"),
    (lambda: ns_membership(_circle(), (0.1, 0.2), np.zeros((0, 1))),
     "empty grid"),
    (lambda: ns_raster(_circle(), (-2, 2, -2, 2), 4, np.zeros((0, 1))),
     "empty grid"),
    (lambda: sample_poles(_circle(), np.zeros((0, 1)), 1), "empty grid"),
    (lambda: RasterGrid((-2.0, 2.0, -2.0, 2.0), (4, 4), np.zeros((3, 4))),
     "cells shape"),
    (lambda: front_equivalence(_circle(), (0.1, 0.2), np.zeros((2, 1)), 0.0),
     "tol must be positive"),
    (lambda: numeric_rank(np.eye(2), 0.0), "tol must be positive"),
    (lambda: svg_table(np.zeros((4, 3))), r"requires \(k, 2\) points"),
    (lambda: Frontal(_circle().domain, None, None, 2), "a jet or both maps")],
    ids=["domain-shapes", "domain-empty-axis", "grid-counts", "grid-one",
         "eval-order", "sampled-length", "sampled-gauss",
         "check_frontal-empty", "ns_membership-empty", "ns_raster-empty",
         "sample_poles-empty", "raster-cells", "front_equivalence-tol",
         "numeric_rank-tol", "svg_table-shape", "frontal-no-evaluator"])
def test_argument_errors_are_usage_errors(call, says):
    with pytest.raises(UsageError, match=says):
        call()
