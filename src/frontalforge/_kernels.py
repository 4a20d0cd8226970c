"""The one rule of every no-silhouette decision: the samples and margin of
`support_samples`, and d = (f-P).nu written out in plain ufuncs by
`support_values`, which round alike on every SIMD level and BLAS kernel.
`silhouette.ns_raster` reproduces the dense sweep `support_extrema`."""
from __future__ import annotations

import numpy as np

from .linalg import _length, col_bounds, finite_rows


def support_samples(F, grid, frac: float, jet=None):
    """(grid wrapped, f, nu, lo, hi, diag, margin): F's samples (or the held
    jet), checked finite; their box, its diagonal, frac * max(diag, 1)."""
    grid, (fv, nv, *_) = F.at(grid, jet=jet)
    finite_rows(grid, fv, nv)
    lo, hi = col_bounds(fv)
    with np.errstate(over="ignore"):
        diag = _length(hi - lo)
    return grid, fv, nv, lo, hi, diag, frac * max(diag, 1.0)


def support_offsets(f_vals: np.ndarray, nu_vals: np.ndarray) -> np.ndarray:
    """a_k = f(x_k).nu(x_k), so that d_k(P) = a_k - P.nu(x_k); shared with
    `silhouette.ns_raster`, whose bounds start from the same rounded a_k."""
    f_vals = np.ascontiguousarray(f_vals, dtype=float)
    nu_vals = np.ascontiguousarray(nu_vals, dtype=float)
    return np.einsum("sm,sm->s", f_vals, nu_vals)


def support_values(a: np.ndarray, nu_cols: np.ndarray, P: np.ndarray):
    """d = a - ((nu_0 P_0 + nu_1 P_1) + nu_2 P_2) from a (s,) and nu's
    columns (m, s), each contiguous: (s,) for one pole P (m,), (c, s) for a
    block of poles (c, m)."""
    p = P.tolist() if P.ndim == 1 else P.T[:, :, None]
    d = nu_cols[0] * p[0]
    for j in range(1, len(p)):
        d += nu_cols[j] * p[j]
    return np.subtract(a, d, out=d)


def support_extrema(f_vals: np.ndarray, nu_vals: np.ndarray,
                    poles: np.ndarray):
    """For each pole P, the extrema over the samples x of the signed support
    value d(x) = (f(x)-P).nu(x), by `support_values`.

    f_vals, nu_vals: (s, m); poles: (c, m).  Returns (dmin (c,), dmax (c,)).
    """
    a = support_offsets(f_vals, nu_vals)
    nu_cols = np.ascontiguousarray(np.transpose(nu_vals), dtype=float)
    poles = np.atleast_2d(np.asarray(poles, dtype=float))
    dmin, dmax = np.empty((2, len(poles)))
    step = max(1, (1 << 16) // len(a))  # (step, s) blocks of 512 kB
    for i in range(0, len(poles), step):
        d = support_values(a, nu_cols, poles[i:i + step])
        dmin[i:i + step], dmax[i:i + step] = d.min(axis=1), d.max(axis=1)
    return dmin, dmax
