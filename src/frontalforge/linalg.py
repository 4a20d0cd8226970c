"""Small dense linear algebra helpers: row norms, column bounds, a row
finiteness check, singular values and tolerance-based rank estimation.

Everything here works on plain numpy arrays in low ambient dimension
(m = n+1, typically 2 or 3); nothing is tuned for large matrices.
"""
from __future__ import annotations

import numpy as np

from .errors import NonFiniteSampleError, UsageError

RANK_SCALE_FLOOR = 1.0  # keeps noise on degenerate points from reading as rank


def row_norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (k, m) array, summed column by
    column: sqrt((a0*a0 + a1*a1) + a2*a2).  For m <= 3 this is the
    summation order of np.linalg.norm(a, axis=1), so the two agree bit for
    bit (inf, nan and overflow included), without its reduction overhead."""
    a = np.asarray(a, dtype=float)
    s = a[:, 0] * a[:, 0]
    for j in range(1, a.shape[1]):
        s += a[:, j] * a[:, j]
    return np.sqrt(s, out=s)


def _lengths(v: np.ndarray) -> np.ndarray:
    """Row norms of v.  A finite row whose squares overflow is divided by
    its largest |entry| first and its norm scaled back; every other row
    keeps the bits of the plain norm."""
    with np.errstate(over="ignore"):
        out = row_norm(v)
        scale = np.max(np.abs(v), axis=1)
        huge = np.isinf(out) & np.isfinite(scale)
        out[huge] = scale[huge] * row_norm(v[huge] / scale[huge, None])
    return out


def _length(v: np.ndarray) -> float:
    """The length of one vector: np.linalg.norm(v), bit for bit, where that
    is finite, else as in _lengths, so that a finite v whose squares
    overflow (beyond about 1.3e154) keeps a finite length."""
    with np.errstate(over="ignore"):
        out = float(np.linalg.norm(v))
    return out if np.isfinite(out) else float(_lengths(v[None])[0])


def col_bounds(a: np.ndarray) -> tuple:
    """(lo, hi): the min and max of each column of a (k, m) array, k >= 1
    (else a UsageError: the array is a map on an empty grid).  One 1-D
    reduction per column gives the values of a.min(axis=0) and
    a.max(axis=0), NaN included (a zero's sign may differ), in a fraction
    of the time of their strided reduction when k is large and m small."""
    if len(a) == 0:
        raise UsageError("empty grid")
    return (np.array([c.min() for c in a.T]),
            np.array([c.max() for c in a.T]))


def finite_rows(x: np.ndarray, *arrays) -> None:
    """NonFiniteSampleError at the first row of x where one of the arrays,
    each with a row per row of x, is not finite."""
    bad = [np.argmin(ok) // (ok.size // len(x))  # the first False's row
           for ok in map(np.isfinite, arrays) if not ok.all()]
    if bad:
        raise NonFiniteSampleError(
            f"non-finite sample at x={x[min(bad)].tolist()!r}")


def numeric_rank(M: np.ndarray, tol: float):
    """Number of singular values above tol * max(sigma_max, RANK_SCALE_FLOOR).

    M is one matrix, giving an int, or a stack (..., a, b), giving an int
    array of the stack's shape.
    """
    if tol <= 0.0:
        raise UsageError("tol must be positive")
    sv = singular_values(M)
    # sv[..., :1] is sigma_max, or empty (rank 0) for an empty matrix
    rank = np.sum(sv > tol * np.maximum(sv[..., :1], RANK_SCALE_FLOOR),
                  axis=-1)
    return int(rank) if rank.ndim == 0 else rank


def singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values, descending, of one matrix or of each matrix of a
    stack (..., a, b)."""
    return np.linalg.svd(np.atleast_2d(np.asarray(M, dtype=float)),
                         compute_uv=False)
