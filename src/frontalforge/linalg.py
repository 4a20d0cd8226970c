"""Small dense linear algebra helpers: tangent frames on the unit sphere,
cofactor matrices, and tolerance-based rank estimation.

Everything here works on plain numpy arrays in low ambient dimension
(m = n+1, typically 2 or 3); nothing is tuned for large matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-9


def as_unit(v: np.ndarray, tol: float = UNIT_TOL) -> np.ndarray:
    """Validate that v has unit norm (within tol) and return it as float64."""
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"expected unit vector, got norm {nrm!r}")
    return v


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal basis of the tangent space of S^(m-1) at `base`.

    `basis` has shape (m, m-1); its columns span base-perp and satisfy
    basis.T @ basis = I and basis.T @ base = 0.
    """

    base: np.ndarray
    basis: np.ndarray


def tangent_frame(u: np.ndarray, tol: float = UNIT_TOL) -> TangentFrame:
    """Deterministic orthonormal basis of the hyperplane orthogonal to u.

    Construction: Householder reflection exchanging u and -s*e_k, where k is
    the index of the largest |u_i| (lowest index wins ties) and s = sign(u_k);
    the sign keeps ||w||^2 = 2(1+|u_k|) away from zero, so the reflection is
    well conditioned even for u near a standard axis.  The basis columns are
    the reflected remaining axes, ordered by original axis index.
    """
    u = as_unit(u, tol=tol)
    m = u.shape[0]
    k = int(np.argmax(np.abs(u)))
    s = 1.0 if u[k] >= 0.0 else -1.0
    w = u.copy()
    w[k] += s
    wn2 = float(w @ w)
    others = [j for j in range(m) if j != k]
    basis = np.zeros((m, m - 1))
    for col, j in enumerate(others):
        e = np.zeros(m)
        e[j] = 1.0
        basis[:, col] = e - (2.0 * w[j] / wn2) * w
    return TangentFrame(base=u, basis=basis)


def _minor(M: np.ndarray, i: int, j: int) -> np.ndarray:
    rows = [r for r in range(M.shape[0]) if r != i]
    cols = [c for c in range(M.shape[1]) if c != j]
    return M[np.ix_(rows, cols)]


def cofactor(M: np.ndarray) -> np.ndarray:
    """Cofactor matrix C of a square M: C[i, j] = (-1)^(i+j) * minor(i, j).

    Convention: C.T is the adjugate, so M @ C.T = det(M) * I.  Defined for
    singular M as well.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("cofactor requires a square matrix")
    if n == 1:
        return np.ones((1, 1))
    C = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            C[i, j] = (-1.0) ** (i + j) * np.linalg.det(_minor(M, i, j))
    return C


def numeric_rank(M: np.ndarray, tol: float = 1e-6, scale_floor: float = 0.0):
    """Number of singular values exceeding tol * max(sigma_max, scale_floor).

    M is one matrix, giving an int, or a stack (..., a, b), giving an int
    array of the stack's shape.  scale_floor guards rank decisions on
    matrices whose entries are pure numerical noise (sigma_max itself
    tiny): with the default 0.0 the threshold is purely relative.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    sv = singular_values(M)
    # sv[..., :1] is sigma_max, or empty (rank 0) for an empty matrix
    rank = np.sum(sv > tol * np.maximum(sv[..., :1], scale_floor), axis=-1)
    return int(rank) if rank.ndim == 0 else rank


def singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values, descending, of one matrix or of each matrix of a
    stack (..., a, b)."""
    return np.linalg.svd(np.atleast_2d(np.asarray(M, dtype=float)),
                         compute_uv=False)
