"""The error hierarchy: which classes are degeneracies, and the library
calls that reject an argument with UsageError."""
import numpy as np
import pytest

from frontalforge import errors, verify
from frontalforge.catalog import catalog
from frontalforge.errors import DegenerateError, FrontalForgeError, UsageError
from frontalforge.silhouette import RasterGrid, ns_raster


def test_usage_error_is_a_value_error_and_a_frontalforge_error():
    assert issubclass(UsageError, ValueError)
    assert issubclass(UsageError, FrontalForgeError)
    assert not issubclass(UsageError, DegenerateError)


def test_the_five_degeneracies_keep_their_other_base():
    degenerate = {cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, DegenerateError)}
    assert degenerate - {DegenerateError} == {
        errors.EmptyNSSetError, errors.GaussDegenerateError,
        errors.NoPointTestedError, errors.NonFiniteSampleError,
        errors.PoleOnSilhouetteError, errors.SupportDegenerateError}
    assert issubclass(errors.EmptyNSSetError, RuntimeError)
    assert issubclass(errors.NonFiniteSampleError, ValueError)


def _raster(bbox):
    return RasterGrid(bbox=bbox, resolution=(4, 4),
                      cells=np.zeros((4, 4), dtype=bool))


@pytest.mark.parametrize("call, match", [
    (lambda: verify.run_suite("thm99", catalog("circle")), "unknown suite"),
    (lambda: verify.run_suite("thm1"), "needs a frontal"),
    (lambda: verify.run_suite("thm2", catalog("circle"),
                              poles=[[0.1, 0.2], [0.3, 0.1]]),
     "suite thm2 takes one pole"),
    (lambda: verify.run_suite("square-reconstruction",
                              poles=[[0.3, -0.2], [0.1, 0.1]]),
     "suite square-reconstruction takes one pole"),
    (lambda: verify.run_suite("frontal-condition", catalog("circle"),
                              poles=[[5, 5]]),
     "suite frontal-condition takes no pole"),
    (lambda: verify.suite_square_reconstruction(catalog("square"), 7,
                                                [(0.3, -0.2)]),
     "at least 8 samples"),
    (lambda: ns_raster(catalog("sphere"), (-2, 2, -2, 2), 4,
                       np.zeros((1, 2))), "ambient dimension 2"),
    (lambda: _raster((2.0, -2.0, -2.0, 2.0)), "degenerate bounding box"),
    (lambda: _raster((-2.0, 2.0, 1.0, 1.0)), "degenerate bounding box"),
    (lambda: _raster((-1e308, 1e308, -2.0, 2.0)), "cell centre overflows"),
    (lambda: _raster((-2.0, 2.0, -0.8e308, 0.8e308)),
     "cell centre overflows")],
    ids=["unknown-suite", "no-frontal", "thm2-two-poles", "square-two-poles",
         "frontal-condition-pole", "square-7-samples", "ns-sphere",
         "box-reversed", "box-flat", "box-width-overflows",
         "box-centre-overflows"])
def test_rejected_argument_raises_usage_error(call, match):
    with pytest.raises(UsageError, match=match):
        call()


def test_wide_box_with_finite_centres_is_accepted():
    """The check is the centres' own arithmetic, not a bound on the width:
    the last centre's offset, 3.5 times a width of 4e307, is finite."""
    xs, ys = _raster((-0.2e308, 0.2e308, -2.0, 2.0)).centers()
    assert np.isfinite(xs).all() and np.isfinite(ys).all()
