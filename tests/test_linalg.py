import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontalforge.linalg import (cofactor, numeric_rank, row_norm,
                                 tangent_frame)


def unit_vectors(dim):
    return st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).map(
        np.array).filter(lambda v: np.linalg.norm(v) > 1e-3).map(
        lambda v: v / np.linalg.norm(v))


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


class TestTangentFrame:
    def test_axis_2d(self):
        fr = tangent_frame(np.array([0.0, 1.0]))
        assert fr.basis.shape == (2, 1)
        assert abs(fr.basis[:, 0] @ np.array([0.0, 1.0])) == 0.0
        # sign convention: the reflection at an exact axis is the identity
        np.testing.assert_allclose(np.abs(fr.basis[:, 0]), [1.0, 0.0])

    def test_axis_3d(self):
        fr = tangent_frame(np.array([0.0, 0.0, 1.0]))
        assert fr.basis.shape == (3, 2)
        np.testing.assert_allclose(fr.basis[2, :], 0.0, atol=1e-15)

    def test_diagonal_direction(self):
        u = np.ones(3) / np.sqrt(3.0)
        fr = tangent_frame(u)
        for j in range(2):
            assert abs(fr.basis[:, j] @ u) <= 1e-12
            assert abs(fr.basis[:, j] @ fr.basis[:, j] - 1.0) <= 1e-12
        assert abs(fr.basis[:, 0] @ fr.basis[:, 1]) <= 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            tangent_frame(np.array([0.5, 0.5]))

    @given(unit_vectors(3))
    @settings(max_examples=200)
    def test_frame_invariants_3d(self, u):
        fr = tangent_frame(u)
        G = fr.basis.T @ fr.basis
        np.testing.assert_allclose(G, np.eye(2), atol=1e-11)
        np.testing.assert_allclose(fr.basis.T @ u, 0.0, atol=1e-11)

    @given(unit_vectors(4))
    @settings(max_examples=100)
    def test_frame_deterministic(self, u):
        a = tangent_frame(u)
        b = tangent_frame(u.copy())
        np.testing.assert_array_equal(a.basis, b.basis)


class TestCofactor:
    def test_identity(self):
        np.testing.assert_array_equal(cofactor(np.eye(2)), np.eye(2))

    def test_2x2_adjugate(self):
        M = np.array([[2.0, 3.0], [5.0, 7.0]])
        C = cofactor(M)
        np.testing.assert_allclose(M @ C.T, np.linalg.det(M) * np.eye(2),
                                   atol=1e-12)

    @given(st.integers(2, 4), st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_adjugate_identity_random(self, n, seed):
        M = np.random.default_rng(seed).uniform(-2.0, 2.0, (n, n))
        C = cofactor(M)
        err = np.max(np.abs(M @ C.T - np.linalg.det(M) * np.eye(n)))
        assert err <= 1e-10 * max(1.0, np.linalg.norm(M)) ** n

    def test_singular_matrix_defined(self):
        M = np.array([[1.0, 2.0], [2.0, 4.0]])
        C = cofactor(M)
        np.testing.assert_allclose(M @ C.T, 0.0, atol=1e-12)


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
        assert numeric_rank(M, tol=1e-6) == 2
        assert numeric_rank(M, tol=1e-6, scale_floor=1.0) == 0

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
