"""Caller input enters the library one way per kind: points through
ParamDomain.wrap, poles through Frontal.pole.  Every entry point that takes
them raises UsageError on a malformed one, before any value is computed."""
import numpy as np
import pytest

from frontalforge.analysis import (cahn_hoffman, front_equivalence,
                                   is_front_at, opening_residual)
from frontalforge.catalog import catalog
from frontalforge.errors import UsageError
from frontalforge.frontal import check_frontal, jacobian_f, sample
from frontalforge.silhouette import ns_membership, ns_raster
from frontalforge.transforms import TransformKind, sample_poles, transform
from frontalforge.verify import run_suite

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
    with pytest.raises(UsageError, match="no pole given"):
        run_suite(suite, catalog("circle"), [], 64)


def test_pole_is_returned_as_floats():
    P = catalog("sphere").pole([0, 1, 2])
    assert P.dtype == float and P.tolist() == [0.0, 1.0, 2.0]
