import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontalforge.errors import NonFiniteSampleError
from frontalforge.linalg import finite_rows, numeric_rank, row_norm


# inf, nan, zeros of both signs, subnormals, and magnitudes whose squares
# overflow (above ~1.34e154) or lose bits to gradual underflow
_SPECIAL = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -2.5e-310, 1e-160,
            1e154, -1.3e154, 1.35e154, 1e300, 1.5]


def _bits_equal_numpy(a):
    with np.errstate(over="ignore", under="ignore"):
        want = np.linalg.norm(a, axis=1)
        got = row_norm(a)
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


class TestRowNorm:
    """row_norm against np.linalg.norm(a, axis=1), bit for bit."""

    @pytest.mark.parametrize("k", [0, 1, 65536])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_random_rows(self, m, k):
        rng = np.random.default_rng(10 * m + k % 7)
        a = rng.standard_normal((k, m)) \
            * 10.0 ** rng.integers(-320, 300, size=(k, m))
        hit = rng.random((k, m)) < 0.05
        a[hit] = rng.choice(_SPECIAL, size=int(hit.sum()))
        assert _bits_equal_numpy(a)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_special_combination(self, m):
        a = np.array(list(itertools.product(_SPECIAL, repeat=m)))
        assert _bits_equal_numpy(a)
        assert _bits_equal_numpy(a[::-1])  # non-contiguous rows

    def test_overflowing_squares_read_inf(self):
        with np.errstate(over="ignore"):
            assert row_norm(np.array([[1e155, 0.0]]))[0] == np.inf


class TestNumericRank:
    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((2, 1)), tol=1e-8) == 0

    def test_identity(self):
        assert numeric_rank(np.eye(3), tol=1e-8) == 3

    def test_tiny_singular_value(self):
        M = np.array([[1.0, 0.0], [0.0, 1e-12]])
        assert numeric_rank(M, tol=1e-8) == 1

    def test_scale_floor(self):
        # noise-level matrix: full rank relatively, rank 0 with a unit floor
        M = 1e-10 * np.eye(2)
        assert numeric_rank(M, tol=1e-6) == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_invariant_under_row_permutation(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.uniform(-1.0, 1.0, (5, 3))
        M[:, 2] = M[:, 0] + M[:, 1]  # force rank 2
        r = numeric_rank(M, tol=1e-8)
        assert r == 2
        perm = rng.permutation(5)
        assert numeric_rank(M[perm], tol=1e-8) == r

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_invariant_under_orthogonal_column_mix(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.uniform(-1.0, 1.0, (5, 3))
        Q, _ = np.linalg.qr(rng.uniform(-1.0, 1.0, (3, 3)))
        assert numeric_rank(M @ Q, tol=1e-8) == numeric_rank(M, tol=1e-8)


class TestFiniteRows:
    """finite_rows names the first row of x where any array is not
    finite, whatever the arrays' shapes and memory layouts."""

    @pytest.mark.parametrize("rows", [[5], [2, 5], [5, 2], [0], [6]])
    def test_first_bad_row_of_all_arrays(self, rows):
        x = np.arange(7.0)[:, None]
        f = np.ones((7, 2))
        J = np.asfortranarray(np.ones((7, 3, 2)))  # not C-contiguous
        f[rows[0], 1] = np.nan
        J[rows[-1], 2, 0] = -np.inf
        with pytest.raises(NonFiniteSampleError,
                           match=re.escape(f"x=[{min(rows)}.0]")):
            finite_rows(x, f, J[:, ::-1])

    def test_finite_and_empty_pass(self):
        finite_rows(np.zeros((3, 1)), np.ones((3, 2)), np.ones((3, 2, 1)))
        finite_rows(np.zeros((0, 1)), np.ones((0, 2)))
