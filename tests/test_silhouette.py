import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontalforge import _kernels, silhouette
from frontalforge.catalog import catalog, catalog_names
from frontalforge.frontal import Frontal, interval
from frontalforge.errors import NonFiniteSampleError, UsageError
from frontalforge.linalg import col_bounds
from frontalforge.silhouette import (_ROW_BLOCK, DEFAULT_NS_TOL_FRAC,
                                     RasterGrid, ns_membership, ns_raster,
                                     raster_to_csv, raster_to_pgm)
from frontalforge.transforms import anti_orthotomic, sample_poles


def _grid(F, n=1024):
    return F.domain.grid([max(2, int(round(n ** (1.0 / F.param_dim))))]
                         * F.param_dim)


class TestMembership:
    def test_circle_center_member(self):
        F = catalog("circle")
        rep = ns_membership(F, [0.0, 0.0], _grid(F))
        assert rep.member
        assert abs(rep.margin - 1.0) < 1e-15

    def test_circle_outside_tangency(self):
        # support value 1 - 2 cos t vanishes at t = pi/3: not a member
        F = catalog("circle")
        grid = np.linspace(0.0, 2.0 * np.pi, 1536, endpoint=False)[:, None]
        assert np.any(np.isclose(grid[:, 0], np.pi / 3.0))
        rep = ns_membership(F, [2.0, 0.0], grid)
        assert not rep.member
        assert rep.margin < 1e-12
        assert abs(rep.argmin_x[0] - np.pi / 3.0) < 1e-9

    def test_sign_change_rejected_even_with_margin(self):
        # coarse grid straddles the support zero with large |d| everywhere
        F = catalog("circle")
        grid = np.array([[0.0], [np.pi]])
        rep = ns_membership(F, [2.0, 0.0], grid)
        assert not rep.member
        assert rep.margin > 0.5

    def test_square_interior_member(self):
        F = catalog("square")
        assert ns_membership(F, [0.3, -0.2], _grid(F, 2048)).member

    def test_square_exterior_not_member(self):
        F = catalog("square")
        assert not ns_membership(F, [1.5, 0.0], _grid(F, 2048)).member

    def test_empty_grid_rejected(self):
        F = catalog("circle")
        with pytest.raises(ValueError):
            ns_membership(F, [0.0, 0.0], np.empty((0, 1)))

    def test_margin_monotone_under_refinement(self):
        F = catalog("circle-cubic")
        P = [0.2, 0.1]
        margins = [ns_membership(F, P, _grid(F, n)).margin
                   for n in (64, 256, 1024)]
        assert margins[0] >= margins[1] >= margins[2]

    def test_sampled_poles_are_members(self):
        F = catalog("cusp")
        g = _grid(F, 512)
        for P in sample_poles(F, g, 5):
            assert ns_membership(F, P, g).member

    def test_anti_orthotomic_margin_bound(self):
        # the transformed support value equals ||f-P||/2, so membership
        # transfers with margin at least half the minimum pole distance
        F = catalog("circle")
        g = _grid(F, 512)
        P = np.array([0.3, 0.4])
        assert ns_membership(F, P, g).member
        rep = ns_membership(anti_orthotomic(F, P).result, P, g)
        assert rep.member
        bound = float(np.min(np.linalg.norm(F.eval(g)[0] - P, axis=1))) / 2.0
        assert rep.margin >= bound - 1e-8


class TestRaster:
    def test_circle_raster_is_open_disk(self):
        F = catalog("circle")
        raster = ns_raster(F, (-2.0, 2.0, -2.0, 2.0), 64, _grid(F, 2048))
        xs, ys = raster.centers()
        gx, gy = np.meshgrid(xs, ys)
        r = np.hypot(gx, gy)
        diag = np.hypot(4.0 / 64, 4.0 / 64)
        decided = np.abs(r - 1.0) >= diag
        np.testing.assert_array_equal(raster.cells[decided],
                                      (r < 1.0)[decided])

    def test_huge_circle_keeps_a_finite_scale(self):
        """R = 1e300: the image's bounding-box diagonal overflows a plain
        norm, but the scale, and with it the tolerance, stays finite.  The
        box +-2 lies inside the circle; on the box +-2e300 the members are
        the cell centres inside it."""
        F = catalog("circle", {"R": 1e300})
        grid = _grid(F, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = ns_membership(F, [0.0, 0.0], grid)
            near = ns_raster(F, (-2.0, 2.0, -2.0, 2.0), 8, grid)
            far = ns_raster(F, (-2e300, 2e300, -2e300, 2e300), 8, grid)
        assert rep.member and np.isfinite(rep.tol) and rep.tol > 0.0
        assert near.cells.all()
        xs, ys = far.centers()
        inside = np.hypot(*np.meshgrid(xs / 1e300, ys / 1e300)) < 1.0
        assert inside.sum() == 12
        np.testing.assert_array_equal(far.cells, inside)

    def test_square_raster_is_open_square(self):
        F = catalog("square")
        raster = ns_raster(F, (-3.0, 3.0, -3.0, 3.0), 64, _grid(F, 2048))
        xs, ys = raster.centers()
        gx, gy = np.meshgrid(xs, ys)
        dist = np.max(np.abs(np.stack([gx, gy])), axis=0)
        diag = np.hypot(6.0 / 64, 6.0 / 64)
        decided = np.abs(dist - 1.0) >= diag
        np.testing.assert_array_equal(raster.cells[decided],
                                      (dist < 1.0)[decided])

    def test_bbox_outside_ns_all_false(self):
        # the circle's no-silhouette set is the open unit disk, so a bbox
        # placed entirely outside it rasterizes to all-false
        F = catalog("circle")
        raster = ns_raster(F, (1.5, 2.5, 1.5, 2.5), (8, 9), _grid(F, 2048))
        assert raster.cells.shape == (9, 8)
        assert not raster.cells.any()

    def test_line_frontal_two_half_planes(self):
        # line segment with flat normal: membership is the sign of -y alone
        def f(x):
            return np.stack([x[:, 0], np.zeros(x.shape[0])], axis=-1)

        def nu(x):
            return np.stack([np.zeros(x.shape[0]), np.ones(x.shape[0])],
                            axis=-1)

        F = Frontal(domain=interval(-2.0, 2.0), f=f, nu=nu, ambient_dim=2)
        raster = ns_raster(F, (-1.0, 1.0, -0.5, 0.5), (8, 9),
                           F.domain.grid([64]))
        off_line = np.abs(raster.centers()[1]) > 0.1
        assert bool(np.all(raster.cells[off_line]))
        np.testing.assert_array_equal(
            raster.cells, _dense_cells(F, (-1.0, 1.0, -0.5, 0.5), (8, 9),
                                       F.domain.grid([64])))

    def test_rejects_sphere(self):
        with pytest.raises(ValueError):
            ns_raster(catalog("sphere"), (-1, 1, -1, 1), 8,
                      catalog("sphere").domain.grid([8, 8]))

    def test_rejects_degenerate_bbox(self):
        F = catalog("circle")
        with pytest.raises(ValueError):
            ns_raster(F, (1.0, 1.0, -1.0, 1.0), 8, _grid(F, 64))

    def test_backends_agree(self):
        # the row-interval raster against the dense sweep it replaces
        F = catalog("circle-cubic")
        g = _grid(F, 512)
        raster = ns_raster(F, (-2, 2, -2, 2), 32, g)
        np.testing.assert_array_equal(
            raster.cells, _dense_cells(F, (-2, 2, -2, 2), (32, 32), g))


def _dense_cells(F, bbox, resolution, grid, tol_frac=DEFAULT_NS_TOL_FRAC):
    """Reference raster: `_kernels.support_extrema` at every cell center."""
    nx, ny = resolution
    xmin, xmax, ymin, ymax = bbox
    xs = xmin + (np.arange(nx) + 0.5) * (xmax - xmin) / nx
    ys = ymin + (np.arange(ny) + 0.5) * (ymax - ymin) / ny
    gx, gy = np.meshgrid(xs, ys)
    grid = F.domain.wrap(grid)
    fv, nv = F.eval(grid)
    dmin, dmax = _kernels.support_extrema(
        fv, nv, np.stack([gx.ravel(), gy.ravel()], axis=-1))
    scale = float(np.linalg.norm(fv.max(axis=0) - fv.min(axis=0)))
    tol = tol_frac * max(scale, 1.0)
    return ((dmin > tol) | (dmax < -tol)).reshape(ny, nx)


PLANAR = tuple(name for name in catalog_names()
               if catalog(name).ambient_dim == 2)


class TestRasterMatchesDense:
    """Cell-for-cell agreement of `ns_raster` with the dense sweep."""

    @pytest.mark.parametrize("samples", [64, 512, 4096])
    @pytest.mark.parametrize("name", PLANAR)
    def test_seeded_boxes(self, name, samples):
        F = catalog(name)
        g = _grid(F, samples)
        rng = np.random.default_rng([samples, PLANAR.index(name)])
        for _ in range(4):
            cx, cy = rng.uniform(-1.0, 1.0, 2)
            hx, hy = rng.uniform(0.2, 3.0, 2)
            bbox = (cx - hx, cx + hx, cy - hy, cy + hy)
            res = tuple(int(v) for v in rng.integers(2, 40, 2))
            np.testing.assert_array_equal(
                ns_raster(F, bbox, res, g).cells,
                _dense_cells(F, bbox, res, g))

    @pytest.mark.parametrize("res", [(2, 2), (2, 7), (7, 2), (3, 5)])
    def test_small_non_square(self, res):
        F = catalog("square")
        g = _grid(F, 512)
        bbox = (-1.7, 1.3, -0.9, 2.1)
        np.testing.assert_array_equal(ns_raster(F, bbox, res, g).cells,
                                      _dense_cells(F, bbox, res, g))

    @pytest.mark.parametrize("top", [1.5, 1.5 - 1e-15])
    @pytest.mark.parametrize("res", [(3, 3), (5, 3), (9, 9)])
    def test_band_cells_use_dense_sweep(self, res, top, monkeypatch):
        # with no margin, cell centers on the unit circle sit exactly on a
        # half-plane bound, so only the dense sweep can decide them; the
        # lowered top edge moves some centers just inside, where they are
        # members
        F = catalog("circle")
        g = _grid(F, 1024)
        bbox = (-1.5, top, -1.5, top)
        redone = []
        dense = _kernels.support_extrema

        def counting(f_vals, nu_vals, poles):
            redone.append(len(poles))
            return dense(f_vals, nu_vals, poles)

        monkeypatch.setattr(_kernels, "support_extrema", counting)
        cells = ns_raster(F, bbox, res, g, tol_frac=0.0).cells
        monkeypatch.undo()
        assert sum(redone) > 0
        np.testing.assert_array_equal(
            cells, _dense_cells(F, bbox, res, g, tol_frac=0.0))

    @pytest.mark.parametrize("name", PLANAR)
    def test_boxes_around_image_points(self, name):
        # boxes a few ulps wide around points of the curve: every cell lies
        # within rounding distance of some half-plane bound
        F = catalog(name)
        g = _grid(F, 512)
        points = F.eval(F.domain.wrap(g))[0]
        rng = np.random.default_rng(PLANAR.index(name))
        for cx, cy in points[rng.choice(len(points), 4)]:
            for h in (1e-15, 1e-14, 1e-13):
                bbox = (cx - h, cx + h, cy - h, cy + h)
                for tol_frac in (0.0, DEFAULT_NS_TOL_FRAC):
                    np.testing.assert_array_equal(
                        ns_raster(F, bbox, 16, g, tol_frac=tol_frac).cells,
                        _dense_cells(F, bbox, (16, 16), g, tol_frac))

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(PLANAR),
           samples=st.sampled_from([64, 512, 4096]),
           corner=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
           size=st.tuples(st.floats(0.01, 4.0), st.floats(0.01, 4.0)),
           res=st.tuples(st.integers(2, 24), st.integers(2, 24)),
           tol_frac=st.sampled_from([0.0, DEFAULT_NS_TOL_FRAC, 1e-3]))
    def test_property(self, name, samples, corner, size, res, tol_frac):
        F = catalog(name)
        g = _grid(F, samples)
        bbox = (corner[0], corner[0] + size[0],
                corner[1], corner[1] + size[1])
        np.testing.assert_array_equal(
            ns_raster(F, bbox, res, g, tol_frac=tol_frac).cells,
            _dense_cells(F, bbox, res, g, tol_frac=tol_frac))


# Boxes of the `raster` benchmark workload: its half-width for each curve,
# and a centre shift within its range of +-0.25
BENCH_BOXES = {"circle": (2.0, (0.11, -0.19)), "square": (3.0, (-0.23, 0.05)),
               "circle-cubic": (2.0, (0.0, 0.25)), "cusp": (2.0, (-0.25, 0.0))}


class TestRasterAcrossBlocks:
    """Dense equivalence where the raster spans several row blocks."""

    @pytest.mark.parametrize("ny", [_ROW_BLOCK, 2 * _ROW_BLOCK, 3 * _ROW_BLOCK,
                                    _ROW_BLOCK - 1, _ROW_BLOCK + 1,
                                    2 * _ROW_BLOCK - 1, 2 * _ROW_BLOCK + 1,
                                    3 * _ROW_BLOCK + 1])
    @pytest.mark.parametrize("name", PLANAR)
    def test_block_edges(self, name, ny):
        F = catalog(name)
        g = _grid(F, 512)
        rng = np.random.default_rng([ny, PLANAR.index(name)])
        cx, cy = rng.uniform(-0.5, 0.5, 2)
        hx, hy = rng.uniform(0.8, 2.5, 2)
        bbox = (cx - hx, cx + hx, cy - hy, cy + hy)
        for tol_frac in (0.0, DEFAULT_NS_TOL_FRAC):
            np.testing.assert_array_equal(
                ns_raster(F, bbox, (17, ny), g, tol_frac=tol_frac).cells,
                _dense_cells(F, bbox, (17, ny), g, tol_frac))

    @pytest.mark.parametrize("name", sorted(BENCH_BOXES))
    def test_benchmark_boxes(self, name):
        F = catalog(name)
        g = _grid(F, 4096)
        half, (sx, sy) = BENCH_BOXES[name]
        bbox = (sx - half, sx + half, sy - half, sy + half)
        np.testing.assert_array_equal(
            ns_raster(F, bbox, 256, g).cells,
            _dense_cells(F, bbox, (256, 256), g))

    @pytest.mark.parametrize("res", [(3, 3 * 33), (9, 3 * 33), (33, 3)])
    def test_centres_on_unit_circle(self, res):
        # with no margin, centres at (0, +-1) and (+-1, 0) sit exactly on a
        # half-plane bound; with 99 rows, y = -1, 0 and 1 fall in three
        # different row blocks
        F = catalog("circle")
        g = _grid(F, 1024)
        bbox = (-1.5, 1.5, -1.5, 1.5)
        raster = ns_raster(F, bbox, res, g, tol_frac=0.0)
        xs, ys = raster.centers()
        assert np.any(np.abs(np.abs(ys) - 1.0) < 1e-15)
        np.testing.assert_array_equal(
            raster.cells, _dense_cells(F, bbox, res, g, tol_frac=0.0))

    @pytest.mark.parametrize("half", [1.3e306, 1e306, 1e300])
    @pytest.mark.parametrize("name", ["circle", "square", "cusp"])
    def test_boxes_near_overflow_are_silent(self, name, half):
        F = catalog(name)
        g = _grid(F, 256)
        bbox = (-half, half, -half, half)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = ns_raster(F, bbox, (5, 2 * _ROW_BLOCK + 3), g).cells
            np.testing.assert_array_equal(
                cells, _dense_cells(F, bbox, (5, 2 * _ROW_BLOCK + 3), g))
            with pytest.raises(UsageError):
                ns_raster(F, (-1e308, 1e308, -1e308, 1e308), 4, g)


def _unculled_bounds(fv, nv, xs, ys, tol):
    """The row loop of `ns_raster` before it culled samples, over all rows at
    once: per sign, max(b + w) and max(b - w) over the lower bounds,
    min(b - w) and min(b + w) over the upper ones, and whether every
    nu_x = 0 sample surely admits the row and some one surely refuses it."""
    group = np.where(nv[:, 0] > 0, 0, np.where(nv[:, 0] < 0, 1, 2))
    order = np.argsort(group, kind="stable")
    n_up, k = np.searchsorted(group[order], [1, 2])
    pos, neg = slice(0, n_up), slice(n_up, k)
    a = _kernels.support_offsets(fv, nv)[order]
    nu_x, nu_y = nv[order].T
    xmax = float(np.max(np.abs(xs)))
    y = ys[:, None]
    out = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        base = np.abs(a) + xmax * np.abs(nu_x) + (tol + np.finfo(float).tiny)
        e = a - y * nu_y
        slack = silhouette._BAND * (base + np.abs(y) * np.abs(nu_y))
        w = slack[:, :k] / np.abs(nu_x[:k])
        for sign, upper, lower in ((1.0, pos, neg), (-1.0, neg, pos)):
            t = sign * tol
            b = (e[:, :k] - t) / nu_x[:k]
            c0 = sign * (e[:, k:] - t)
            out.append({
                "lower_in": np.max(b[:, lower] + w[:, lower], axis=1,
                                   initial=-np.inf),
                "upper_in": np.min(b[:, upper] - w[:, upper], axis=1,
                                   initial=np.inf),
                "lower_out": np.max(b[:, lower] - w[:, lower], axis=1,
                                    initial=-np.inf),
                "upper_out": np.min(b[:, upper] + w[:, upper], axis=1,
                                    initial=np.inf),
                "flat_in": np.all(c0 > slack[:, k:], axis=1),
                "flat_out": np.any(c0 < -slack[:, k:], axis=1)})
    return out


def _same_bits(x, y):
    nan = np.isnan(x)
    np.testing.assert_array_equal(nan, np.isnan(y))
    np.testing.assert_array_equal(x[~nan].view(np.int64),
                                  y[~nan].view(np.int64))


def _pencil(p):
    """All tangent lines through the point p: a pencil of half-planes whose
    bounds tie up to rounding in the row y = p[1], while their bands differ."""
    def f(x):
        return np.broadcast_to(np.asarray(p, dtype=float), (x.shape[0], 2))

    def nu(x):
        return np.stack([np.cos(x[:, 0]), np.sin(x[:, 0])], axis=-1)

    return Frontal(domain=interval(0.0, 2.0 * np.pi, periodic=True), f=f,
                   nu=nu, ambient_dim=2)


# boxes where many bounds nearly tie: along the square's flat edges, around
# the cusp's singular point, and pencils through the first or the last row
# of a block (with rows at y = j / 64 exactly)
ROWS_64THS = (-0.5 / 64, (3 * _ROW_BLOCK + 5 - 0.5) / 64)
TIE_BOXES = [
    (_pencil((0.3, _ROW_BLOCK / 64)), (-1.0, 1.0) + ROWS_64THS),
    (_pencil((-0.7, (2 * _ROW_BLOCK - 1) / 64)), (-1.0, 1.0) + ROWS_64THS),
    (_pencil((0.0, 0.0)), (-1.0, 1.0) + ROWS_64THS),
]
TIE_BOXES += [
    ("square", (-0.9, 0.9, 1.0 - 1e-9, 1.0 + 1e-9)),
    ("square", (1.0 - 1e-12, 1.0 + 1e-12, -0.9, 0.9)),
    ("square", (-1.2, 1.2, -1.0 - 1e-3, -1.0 + 1e-3)),
    ("square", (0.99, 1.01, 0.99, 1.01)),
    ("square", (-3.0, 3.0, -3.0, 3.0)),
    ("cusp", (-1e-6, 1e-6, -1e-6, 1e-6)),
    ("cusp", (-0.1, 0.1, -0.1, 0.1)),
    ("cusp", (-1e-3, 1.0, -1e-9, 1e-9)),
    ("circle", (-1.5, 1.5, -1.5, 1.5)),
    ("circle", (-8e305, 8e305, -8e305, 8e305)),
    ("circle-cubic", (-2.0, 2.0, -2.0, 2.0)),
] + [(name, (sx - h, sx + h, sy - h, sy + h))
     for name, (h, (sx, sy)) in BENCH_BOXES.items()]


class TestCulledMinima:
    """`ns_raster`'s per-row bounds, taken over the samples its cull keeps,
    against the unculled row loop: the same bits in every row."""

    @pytest.mark.parametrize("tol_frac", [0.0, DEFAULT_NS_TOL_FRAC])
    @pytest.mark.parametrize("samples", [512, 4096])
    @pytest.mark.parametrize("name, bbox", TIE_BOXES,
                             ids=[f"{n if isinstance(n, str) else 'pencil'}"
                                  f"-{i}" for i, (n, _) in
                                  enumerate(TIE_BOXES)])
    def test_bit_identical(self, name, bbox, samples, tol_frac):
        F = catalog(name) if isinstance(name, str) else name
        fv, nv = F.eval_wrapped(F.domain.wrap(_grid(F, samples)))
        lo, hi = col_bounds(fv)
        tol = silhouette._ns_tol(float(np.linalg.norm(hi - lo)), tol_frac)
        ny = 3 * _ROW_BLOCK + 5
        xs, ys = RasterGrid(bbox, (64, ny), np.zeros((ny, 64), bool)).centers()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r_in, r_out = silhouette._row_minima(fv, nv, float(np.max(
                np.abs(xs))), ys, tol)
        for ref, (up, down, flat) in zip(_unculled_bounds(fv, nv, xs, ys,
                                                          tol),
                                         ((0, 1, 2), (4, 3, 5))):
            _same_bits(ref["upper_in"], r_in[:, up])
            _same_bits(ref["upper_out"], r_out[:, up])
            _same_bits(ref["lower_in"], -r_in[:, down])
            _same_bits(ref["lower_out"], -r_out[:, down])
            np.testing.assert_array_equal(ref["flat_in"], r_in[:, flat] > 0)
            np.testing.assert_array_equal(ref["flat_out"], r_out[:, flat] < 0)


class TestNonFiniteSamples:
    """A value of f or nu that is not finite is NonFiniteSampleError at its
    grid point, raised before any pole or cell is judged: no raster of
    undecided cells, no NaN margin, no futile pole candidates."""

    @pytest.mark.parametrize("field", ["nu", "f"])
    @pytest.mark.parametrize("call", [
        lambda F, grid: ns_raster(F, (-2.0, 2.0, -2.0, 2.0), 128, grid),
        lambda F, grid: ns_membership(F, [0.1, 0.2], grid),
        lambda F, grid: sample_poles(F, grid, 1)],
        ids=["ns_raster", "ns_membership", "sample_poles"])
    def test_nan_sample_raises_at_its_point(self, call, field, monkeypatch):
        C = catalog("circle")

        def with_nan(x):
            out = getattr(C, field)(x)
            out[100] = np.nan
            return out

        def judged(*args):
            raise AssertionError("a pole was judged")

        monkeypatch.setattr(silhouette, "_row_minima", judged)
        monkeypatch.setattr(_kernels, "support_extrema", judged)
        grid = _grid(C)
        with pytest.raises(NonFiniteSampleError, match=re.escape(
                f"non-finite sample at x={grid[100].tolist()!r}")):
            call(dataclasses.replace(C, **{field: with_nan}), grid)


class TestSerialization:
    def _raster(self):
        F = catalog("circle")
        return ns_raster(F, (-2.0, 2.0, -2.0, 2.0), (4, 3), _grid(F, 256))

    def test_pgm_shape_and_values(self):
        text = raster_to_pgm(self._raster())
        lines = text.splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "4 3"
        assert lines[2] == "255"
        assert len(lines) == 6
        assert set(" ".join(lines[3:]).split()) <= {"0", "255"}

    def test_csv_header_and_rows(self):
        text = raster_to_csv(self._raster())
        lines = text.splitlines()
        assert lines[0] == "x,y,member"
        assert len(lines) == 1 + 12
        x0, y0, m0 = lines[1].split(",")
        assert abs(float(x0) + 1.5) < 1e-12
        assert abs(float(y0) + 4.0 / 3.0) < 1e-12
        assert m0 in ("0", "1")

    def test_pgm_row_order_top_down(self):
        cells = np.zeros((2, 2), dtype=bool)
        cells[1, 0] = True  # top-left in image terms
        from frontalforge.silhouette import RasterGrid

        raster = RasterGrid(bbox=(0.0, 1.0, 0.0, 1.0), resolution=(2, 2),
                            cells=cells)
        body = raster_to_pgm(raster).splitlines()[3:]
        assert body == ["255 0", "0 0"]
