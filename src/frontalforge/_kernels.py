"""The dense support-extrema sweep, every pole against every sample: the
reference whose decisions `silhouette.ns_raster` reproduces, and which it
runs on the cells its error bands leave undecided."""
from __future__ import annotations

import numpy as np


def support_offsets(f_vals: np.ndarray, nu_vals: np.ndarray) -> np.ndarray:
    """a_k = f(x_k).nu(x_k), so that d_k(P) = a_k - P.nu(x_k); shared with
    `silhouette.ns_raster`, whose bounds start from the same rounded a_k."""
    f_vals = np.ascontiguousarray(f_vals, dtype=float)
    nu_vals = np.ascontiguousarray(nu_vals, dtype=float)
    return np.einsum("sm,sm->s", f_vals, nu_vals)


_POLE_BLOCK = 512  # poles per block, bounding the (block, s) workspace


def support_extrema(f_vals: np.ndarray, nu_vals: np.ndarray,
                    poles: np.ndarray):
    """For each pole P, the extrema over the samples x of the signed support
    value d(x) = (f(x)-P).nu(x).

    f_vals, nu_vals: (s, m); poles: (c, m).  Returns (dmin (c,), dmax (c,)).
    """
    a = support_offsets(f_vals, nu_vals)
    nu_vals = np.ascontiguousarray(nu_vals, dtype=float)
    poles = np.atleast_2d(np.ascontiguousarray(poles, dtype=float))
    c = poles.shape[0]
    dmin = np.empty(c)
    dmax = np.empty(c)
    for start in range(0, c, _POLE_BLOCK):
        stop = min(start + _POLE_BLOCK, c)
        block = a[None, :] - poles[start:stop] @ nu_vals.T
        dmin[start:stop] = block.min(axis=1)
        dmax[start:stop] = block.max(axis=1)
    return dmin, dmax
