"""No-silhouette set of a frontal: pointwise membership with margin, and a
planar raster for curve frontals (ambient dimension 2).

A pole P belongs to the no-silhouette set when the support value
d(x) = (f(x)-P).nu(x) never vanishes over the parameter domain.  Membership
here is certified on a sampled grid only; grid density is the caller's
choice.  Since d is continuous on the connected parameter box, sampled
values of both signs certify a zero between samples, so membership requires
d to keep one sign with margin above a scale-aware threshold.

For fixed x, d is affine in P, so the sampled set is the union of two
intersections of s open half-planes (d > tol at every sample, or d < -tol),
and each raster row meets it in at most two intervals, found in O(s).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import UsageError
from .frontal import Frontal
from .io import Table, choice, table_text
from .linalg import col_bounds

DEFAULT_NS_TOL_FRAC = 1e-9
# `ns_raster`'s error-band factor and rows per (rows, samples) block
_BAND = 8.0 * np.finfo(float).eps
_ROW_BLOCK = 32


@dataclass(frozen=True)
class NSReport:
    member: bool
    margin: float
    argmin_x: np.ndarray
    tol: float


@dataclass(frozen=True)
class RasterGrid:
    """Boolean membership raster over a planar bounding box; cells[iy, ix]
    is evaluated at the cell center, which must be finite."""

    bbox: tuple  # (xmin, xmax, ymin, ymax)
    resolution: tuple  # (nx, ny)
    cells: np.ndarray  # bool, shape (ny, nx)

    def __post_init__(self):
        xmin, xmax, ymin, ymax = self.bbox
        if not (xmax > xmin and ymax > ymin):
            raise UsageError("degenerate bounding box")
        nx, ny = self.resolution
        if nx < 2 or ny < 2:
            raise UsageError("resolution must be at least 2x2")
        if self.cells.shape != (ny, nx):
            raise ValueError("cells shape does not match resolution")
        with np.errstate(over="ignore", invalid="ignore"):
            if not all(np.isfinite(c).all() for c in self.centers()):
                raise UsageError("bounding box too large: a cell centre "
                                 "overflows")

    def centers(self):
        """Cell-center coordinate axes (xs (nx,), ys (ny,))."""
        xmin, xmax, ymin, ymax = self.bbox
        nx, ny = self.resolution
        xs = xmin + (np.arange(nx) + 0.5) * (xmax - xmin) / nx
        ys = ymin + (np.arange(ny) + 0.5) * (ymax - ymin) / ny
        return xs, ys


def _ns_tol(scale: float, tol_frac: float) -> float:
    return tol_frac * max(scale, 1.0)


def ns_membership(F: Frontal, P, grid: np.ndarray) -> NSReport:
    """Grid-relative no-silhouette membership of the pole P.

    margin = min over grid of |(f(x)-P).nu(x)|; member iff the support value
    keeps one sign on the grid and the margin exceeds a scale-aware
    threshold (DEFAULT_NS_TOL_FRAC times the image bbox diagonal, at
    least 1).
    """
    grid = F.domain.wrap(np.atleast_2d(np.asarray(grid, dtype=float)))
    if grid.shape[0] == 0:
        raise ValueError("empty grid")
    P = np.asarray(P, dtype=float)
    fv, nv = F.eval_wrapped(grid)
    d = np.einsum("km,km->k", fv - P, nv)
    lo, hi = col_bounds(fv)
    scale = float(np.linalg.norm(hi - lo))
    tol = _ns_tol(scale, DEFAULT_NS_TOL_FRAC)
    member = bool(d.min() > tol or d.max() < -tol)
    i = int(np.argmin(np.abs(d)))
    return NSReport(member=member, margin=float(abs(d[i])),
                    argmin_x=grid[i], tol=tol)


def _lowest(v):
    return np.min(v, axis=1, initial=np.inf)[:, None]


def _highest(v):
    return np.max(v, axis=1, initial=-np.inf)[:, None]


def ns_raster(F: Frontal, bbox, resolution, grid: np.ndarray,
              tol_frac: float = DEFAULT_NS_TOL_FRAC) -> RasterGrid:
    """Rasterized no-silhouette membership over a planar bounding box.

    bbox = (xmin, xmax, ymin, ymax); resolution = (nx, ny) or a single int.
    The cells are those of the dense sweep `_kernels.support_extrema` at the
    cell centers (dmin > tol or dmax < -tol), found row by row from
    half-plane bounds.  In row y, for sign s, sample k admits x iff
    c_k - x m_k > 0, c_k = s (a_k - y nu_k,y) - tol, m_k = s nu_k,x: an
    upper bound c_k/m_k on x if m_k > 0, a lower one if m_k < 0, all or none
    of the row if m_k = 0.  The sweep's rounding error in d_k is below
    3u (|a_k| + |y nu_k,y| + |x nu_k,x|), and the computed bound is within
    4u (|a_k| + |y nu_k,y| + tol)/|m_k| of the exact one (u = eps/2).  So
    outside a band w_k = 8 eps (|a_k| + |y nu_k,y| + max|x| |nu_k,x| + tol
    + tiny)/|m_k| about its bound (tiny, the least normal float, covers
    underflow), sample k decides as the sweep does.  Cells left undecided
    by the bands (next to an interval end, or with NaN bounds) go to
    `_kernels.support_extrema`, so every cell equals the sweep's, whatever
    FMA use or summation order the BLAS picks.
    """
    if F.ambient_dim != 2:
        raise UsageError("ns_raster requires ambient dimension 2")
    if np.isscalar(resolution):
        resolution = (int(resolution), int(resolution))
    nx, ny = resolution
    raster = RasterGrid(bbox=tuple(float(v) for v in bbox),
                        resolution=(nx, ny),
                        cells=np.zeros((ny, nx), dtype=bool))
    xs, ys = raster.centers()

    grid = F.domain.wrap(np.atleast_2d(np.asarray(grid, dtype=float)))
    fv, nv = F.eval_wrapped(grid)
    lo, hi = col_bounds(fv)
    scale = float(np.linalg.norm(hi - lo))
    tol = _ns_tol(scale, tol_frac)

    # samples ordered nu_x > 0, nu_x < 0, then nu_x = 0 (or NaN)
    group = np.where(nv[:, 0] > 0, 0, np.where(nv[:, 0] < 0, 1, 2))
    order = np.argsort(group, kind="stable")
    n_up, k = np.searchsorted(group[order], [1, 2])
    pos, neg = slice(0, n_up), slice(n_up, k)
    a = _kernels.support_offsets(fv, nv)[order]
    nu_x, nu_y = nv[order].T
    xmax = float(np.max(np.abs(xs)))
    unsure = np.zeros((ny, nx), dtype=bool)
    # bounds that overflow (boxes near 1e308) leave NaNs: cells undecided
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        base = np.abs(a) + xmax * np.abs(nu_x) + (tol + np.finfo(float).tiny)
        for start in range(0, ny, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            y = ys[rows, None]
            e = a - y * nu_y
            slack = _BAND * (base + np.abs(y) * np.abs(nu_y))
            w = slack[:, :k] / np.abs(nu_x[:k])
            sure_in, sure_out = False, True
            for sign, upper, lower in ((1.0, pos, neg), (-1.0, neg, pos)):
                t = sign * tol
                b = (e[:, :k] - t) / nu_x[:k]
                c0 = sign * (e[:, k:] - t)
                sure_in = sure_in | (
                    (xs > _highest(b[:, lower] + w[:, lower]))
                    & (xs < _lowest(b[:, upper] - w[:, upper]))
                    & np.all(c0 > slack[:, k:], axis=1)[:, None])
                sure_out = sure_out & (
                    (xs < _highest(b[:, lower] - w[:, lower]))
                    | (xs > _lowest(b[:, upper] + w[:, upper]))
                    | np.any(c0 < -slack[:, k:], axis=1)[:, None])
            raster.cells[rows] = sure_in
            unsure[rows] = ~(sure_in | sure_out)

    iy, ix = np.nonzero(unsure)
    poles = np.stack([xs[ix], ys[iy]], axis=-1)
    dmin, dmax = _kernels.support_extrema(fv, nv, poles)
    raster.cells[iy, ix] = (dmin > tol) | (dmax < -tol)
    return raster


def raster_to_pgm(raster: RasterGrid) -> str:
    """Serialize to PGM (P2 ASCII), a table of one Choice block: 255 =
    member, 0 = outside, top row (largest y) first so images render upright."""
    nx, ny = raster.resolution
    return table_text(Table(f"P2\n{nx} {ny}\n255\n",
                            [choice(("0 ", "255 "), raster.cells[::-1])]))


def raster_to_csv(raster: RasterGrid) -> str:
    """Serialize to CSV rows `x,y,member` at cell centers, row-major from
    the bottom-left cell."""
    xs, ys = raster.centers()
    nx, ny = raster.resolution
    blocks = [np.tile(xs, ny)[:, None], np.repeat(ys, nx)[:, None],
              choice(("0,", "1,"), raster.cells.ravel())]
    return table_text(Table("x,y,member\n", blocks))
