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
and each raster row meets it in at most two intervals.  Their ends are
extreme bounds over the samples, each affine in y; per block of rows, the
samples whose bound cannot be extreme in any row are dropped first.  A
sample of f or nu that is not finite raises NonFiniteSampleError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import UsageError
from .frontal import Frontal
from .io import Table, choice, table_text

DEFAULT_NS_TOL_FRAC = 1e-9
# `ns_raster`'s error-band factor, cull margin factor and rows per block
_BAND = 8.0 * np.finfo(float).eps
_CULL = 4.0
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
            raise UsageError("cells shape does not match resolution")
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


def ns_membership(F: Frontal, P, grid: np.ndarray) -> NSReport:
    """Grid-relative no-silhouette membership of the pole P.

    margin = min over grid of |(f(x)-P).nu(x)| (`_kernels.support_values`);
    member iff dmin > tol or dmax < -tol, as for an `ns_raster` cell centred
    at P, with tol DEFAULT_NS_TOL_FRAC times the image bbox diagonal, at
    least 1.
    """
    P = F.pole(P)
    grid, fv, nv, *_, tol = _kernels.support_samples(F, grid,
                                                     DEFAULT_NS_TOL_FRAC)
    d = _kernels.support_values(_kernels.support_offsets(fv, nv),
                                np.ascontiguousarray(nv.T), P)
    member = bool(d.min() > tol or d.max() < -tol)
    i = int(np.argmin(np.abs(d)))
    return NSReport(member=member, margin=float(abs(d[i])),
                    argmin_x=grid[i], tol=tol)


def _row_minima(fv, nv, xmax, ys, tol):
    """r[j, row, c]: the least v - w (j = 0) or v + w (j = 1) in the row over
    the samples of class c = 3 i + g (sign (1, -1)[i]; nu_x > 0, < 0, else),
    +inf if there are none; see `ns_raster`."""
    key = np.stack([_kernels.support_offsets(fv, nv), *nv.T], axis=1)
    bits = key.view(np.int64)  # a sample repeating the last adds nothing
    key = key[np.r_[True, np.any(bits[1:] != bits[:-1], axis=1)]]
    group = np.where(key[:, 1] > 0, 0, np.where(key[:, 1] < 0, 1, 2))
    order = np.argsort(group, kind="stable")
    (a, nu_x, nu_y), group = key[order].T, group[order]
    m = np.tile(np.where(group == 2, 1.0, np.abs(nu_x)), 2)
    base = np.tile(np.abs(a) + xmax * np.abs(nu_x)
                   + (tol + np.finfo(float).tiny), 2)
    a, nu_y = np.r_[a, -a], np.r_[nu_y, -nu_y]
    cuts = np.searchsorted(np.r_[group, group + 3], np.arange(7))
    classes = [c for c in range(6) if cuts[c] < cuts[c + 1]]

    def lines(y, k):
        return ((a[k] - y * nu_y[k] - tol) / m[k],
                _BAND * (base[k] + np.abs(y) * np.abs(nu_y[k])) / m[k])

    r = np.full((2, ys.size, 6), np.inf)
    for start in range(0, ys.size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        y = ys[rows, None]
        v, w = lines(y[[0, -1]], slice(None))
        near, far = v - _CULL * w, v + _CULL * w
        kept = []
        for c in classes:
            k = slice(cuts[c], cuts[c + 1])
            j = cuts[c] + np.argmin(np.max(far[:, k], axis=0))
            d = near[:, k] - far[:, j, None]
            kept.append(cuts[c] + np.flatnonzero(
                ~np.all((d > 0) & (d < np.inf), axis=0)))
        v, w = lines(y, np.concatenate(kept))
        heads = np.cumsum([0] + [len(k) for k in kept[:-1]])
        r[0, rows][:, classes] = np.minimum.reduceat(v - w, heads, axis=1)
        r[1, rows][:, classes] = np.minimum.reduceat(v + w, heads, axis=1)
    return r


def ns_raster(F: Frontal, bbox, resolution, grid: np.ndarray,
              tol_frac: float = DEFAULT_NS_TOL_FRAC) -> RasterGrid:
    """Rasterized no-silhouette membership over a planar bounding box.

    bbox = (xmin, xmax, ymin, ymax); resolution = (nx, ny) or a single int.
    A cell is a member iff the d_k = `_kernels.support_values` at its centre
    give dmin > tol or dmax < -tol, `ns_membership`'s test; cells are found
    row by row from half-plane bounds.  For sign s, sample k admits (x, y) iff
    s d_k - tol > 0, iff sigma_k x < v_k = (s (a_k - y nu_k,y) - tol)/m_k,
    where m_k = |nu_k,x| and sigma_k = s sgn(nu_k,x) (m_k = 1, sigma_k = 0
    if nu_k,x is 0 or NaN).  From the a_k the bounds share, the rule rounds
    d_k = a_k - (x nu_k,x + y nu_k,y) four times, so its error is below
    3u (1 + 2u) (|a_k| + |y nu_k,y| + |x nu_k,x|); the computed v_k is within
    4u (|a_k| + |y nu_k,y| + tol)/m_k of the exact one (u = eps/2).  So
    outside a band w_k = 8 eps (|a_k| + |y nu_k,y| + max|x| |nu_k,x| + tol
    + tiny)/m_k about its bound (tiny, the least normal float, covers
    underflow), sample k decides as the rule does: per row and class
    (s, sigma), cells with sigma x < min(v - w) are surely admitted, and
    cells with sigma x > min(v + w) surely refused.  Cells the bands leave
    undecided (next to an interval end, or with NaN bounds) go to the dense
    sweep `_kernels.support_extrema`, so every cell is the rule's.

    The minima are taken per block of rows y0..y1 over the samples a cull
    keeps: with j the sample of its class of least max(v_j + c w_j) at the
    end rows (c = _CULL), sample k goes if v_k - c w_k > v_j + c w_j at both
    end rows, all finite.  Then v_k - w_k >= v_j + w_j in every row of the
    block, so neither minimum changes by a bit.  Proof: computed v and w are
    monotone in y and |y|, so they stay finite between finite ends.  With V,
    W the exact v, w and unit normals (m <= 1, so W >= 16u tiny):
    |v - V| <= W/4, |w - W| <= W/7 (relative 4u, or 0.13 where 8 eps (...)
    is subnormal), and the test rounds by at most u (|v| + tiny) <= W/15.
    So at the end rows V_k - V_j > (6c/7 - 1/15 - 1/4)(W_k + W_j), and in
    every row v_k - w_k - v_j - w_j >= g = V_k - V_j - (1/4 + 8/7)(W_k + W_j).
    V is affine and W convex in y, so the concave g is at least its value at
    an end row, which is positive once c > 2; c = 4 leaves room.
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

    _, fv, nv, *_, tol = _kernels.support_samples(F, grid, tol_frac)

    # bounds that overflow (boxes near 1e308) leave NaNs: cells undecided
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r_in, r_out = _row_minima(fv, nv, float(np.max(np.abs(xs))), ys, tol)
    # per sign, the classes of sigma = 1, -1, 0: the last admits the whole
    # row if min(v - w) > 0, and refuses it if min(v + w) < 0
    sure_in, sure_out = False, True
    for up, down, flat in ((0, 1, 2), (4, 3, 5)):
        x_hi = np.where(r_in[:, flat] > 0, r_in[:, up], -np.inf)[:, None]
        x_lo = np.where(r_out[:, flat] < 0, np.inf, -r_out[:, down])[:, None]
        sure_in = sure_in | ((xs > -r_in[:, down, None]) & (xs < x_hi))
        sure_out = sure_out & ((xs < x_lo) | (xs > r_out[:, up, None]))
    raster.cells[:] = sure_in
    iy, ix = np.nonzero(~(sure_in | sure_out))
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
