import numpy as np
import pytest

from frontalforge.catalog import catalog
from frontalforge.frontal import SampledMap, sample
from frontalforge.io import (_CHUNK_ROWS, _split_arcs, curve_to_svg,
                             sampled_map_to_csv)
from frontalforge.silhouette import RasterGrid, raster_to_csv
from frontalforge.transforms import orthotomic


class TestCsv:
    def test_header_with_gauss(self):
        F = catalog("circle")
        text = sampled_map_to_csv(sample(F, F.domain.grid([4])))
        assert text.splitlines()[0] == "t1,f1,f2,nu1,nu2"

    def test_header_without_gauss(self):
        F = catalog("sphere")
        sm = sample(F, F.domain.grid([3, 3]), with_gauss=False)
        assert sampled_map_to_csv(sm).splitlines()[0] == "t1,t2,f1,f2,f3"

    def test_values_round_trip(self):
        F = catalog("circle")
        sm = sample(F, F.domain.grid([8]))
        lines = sampled_map_to_csv(sm).splitlines()[1:]
        parsed = np.array([[float(v) for v in ln.split(",")]
                           for ln in lines])
        np.testing.assert_array_equal(parsed[:, 1:3], sm.values)
        np.testing.assert_array_equal(parsed[:, 3:5], sm.gauss)

    def test_deterministic(self):
        F = catalog("cusp")
        sm = sample(F, F.domain.grid([16]))
        assert sampled_map_to_csv(sm) == sampled_map_to_csv(sm)

    def test_unix_line_endings(self):
        F = catalog("circle")
        text = sampled_map_to_csv(sample(F, F.domain.grid([4])))
        assert "\r" not in text
        assert text.endswith("\n")


class TestSplitArcs:
    def test_continuous_curve_single_arc(self):
        t = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
        pts = np.stack([np.cos(t), np.sin(t)], axis=-1)
        arcs = _split_arcs(pts)
        assert len(arcs) == 1
        assert arcs[0].shape[0] == 100

    def test_jump_splits(self):
        a = np.stack([np.linspace(0, 1, 50), np.zeros(50)], axis=-1)
        b = a + np.array([0.0, 5.0])
        arcs = _split_arcs(np.vstack([a, b]))
        assert len(arcs) == 2
        assert arcs[0].shape[0] == 50

    def test_points_preserved(self):
        # splitting never drops or reorders samples
        F = catalog("square")
        res = orthotomic(F, [0.3, -0.2]).result
        t = np.linspace(0.0, 8.0, 2048, endpoint=False)[:, None]
        pts = res.eval_f(t)
        arcs = _split_arcs(pts)
        np.testing.assert_array_equal(np.vstack(arcs), pts)


class TestSvg:
    def test_structure(self):
        t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        pts = np.stack([np.cos(t), np.sin(t)], axis=-1)
        text = curve_to_svg(pts)
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
        assert text.count("<polyline") == 1
        assert "viewBox=" in text
        assert text.rstrip().endswith("</svg>")

    def test_deterministic(self):
        pts = np.random.default_rng(0).normal(size=(32, 2))
        assert curve_to_svg(pts) == curve_to_svg(pts)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            curve_to_svg(np.zeros((4, 3)))

    def test_degenerate_point_cloud(self):
        text = curve_to_svg(np.zeros((5, 2)))
        assert "<polyline" in text  # still a valid document


# The per-float writers the chunked row formatter replaced: the byte oracle.
def _ref_fmt(v):
    return repr(float(v))


def _ref_csv(sm):
    n, m = sm.params.shape[1], sm.values.shape[1]
    header = [f"t{j + 1}" for j in range(n)] + [f"f{j + 1}" for j in range(m)]
    if sm.gauss is not None:
        header += [f"nu{j + 1}" for j in range(m)]
    lines = [",".join(header)]
    for i in range(sm.params.shape[0]):
        row = list(sm.params[i]) + list(sm.values[i])
        if sm.gauss is not None:
            row += list(sm.gauss[i])
        lines.append(",".join(_ref_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _ref_polylines(points):
    return [f'<polyline points="'
            f'{" ".join(f"{_ref_fmt(p[0])},{_ref_fmt(p[1])}" for p in arc)}"/>'
            for arc in _split_arcs(points)]


def _ref_raster_csv(raster):
    xs, ys = raster.centers()
    lines = ["x,y,member"]
    for iy in range(raster.resolution[1]):
        for ix in range(raster.resolution[0]):
            lines.append(f"{_ref_fmt(xs[ix])},{_ref_fmt(ys[iy])},"
                         f"{1 if raster.cells[iy, ix] else 0}")
    return "\n".join(lines) + "\n"


_SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 0.1, 3.0,
                     -7.0, 1e300, -1e300])
_ROWS = [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
         3 * _CHUNK_ROWS + 7]


def _table(seed, k, c):
    """Floats over many magnitudes, a third replaced by special values."""
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(k, c)) * 10.0 ** rng.integers(-20, 21, size=(k, c))
    hit = rng.random((k, c)) < 0.3
    t[hit] = rng.choice(_SPECIAL, size=int(hit.sum()))
    t[0, :] = _SPECIAL[:c]  # every table, even a one-row one, has specials
    return t


def _same(text, ref):
    """Byte equality, failing with the first difference (a full diff of
    megabyte strings would take minutes)."""
    if text != ref:
        i = next((i for i, (a, b) in enumerate(zip(text, ref)) if a != b),
                 min(len(text), len(ref)))
        at = slice(max(i - 40, 0), i + 40)
        pytest.fail(f"first difference at {i}: {text[at]!r} != {ref[at]!r}")


class TestByteOracle:
    """The writers against the per-float reference, byte for byte, at row
    counts on both sides of the chunk boundary."""

    @pytest.mark.parametrize("k", _ROWS)
    @pytest.mark.parametrize("gauss", [True, False])
    def test_csv(self, k, gauss):
        t = _table(k, k, 6)
        sm = SampledMap(params=t[:, :2], values=t[:, 2:4],
                        gauss=t[:, 4:] if gauss else None)
        _same(sampled_map_to_csv(sm), _ref_csv(sm))

    def test_csv_integer_params(self):
        # an integer parameter column is still written as floats
        sm = SampledMap(params=np.arange(5)[:, None], values=_table(1, 5, 2))
        _same(sampled_map_to_csv(sm), _ref_csv(sm))

    @pytest.mark.parametrize("k", _ROWS)
    def test_svg_multi_arc(self, k):
        pts = _table(k + 1, k, 2)
        # moderate magnitudes keep the bbox finite; two jumps split arcs
        pts = np.where(np.abs(pts) > 1e10, np.sign(pts), pts)
        pts[k // 3:] += 1e6
        pts[2 * k // 3:] -= 3e6
        text = curve_to_svg(pts)
        lines = text.splitlines()
        _same("\n".join(lines[3:-2]), "\n".join(_ref_polylines(pts)))
        if k > 3:
            assert len(lines[3:-2]) > 1
        np.testing.assert_array_equal(
            np.array([[float(v) for v in p.split(",")]
                      for ln in lines[3:-2]
                      for p in ln[len('<polyline points="'):-3].split()]),
            pts)

    def test_svg_extremes(self):
        pts = np.array([[1e300, -1e300], [-1e300, 1e300], [1e16, 5e-324],
                        [-0.0, 0.1], [3.0, -1e-5]])
        with np.errstate(over="ignore"):  # step norms and diagonal overflow
            text = curve_to_svg(pts)
            _same("\n".join(text.splitlines()[3:-2]),
                  "\n".join(_ref_polylines(pts)))

    def test_svg_header(self):
        pts = np.array([[0.1, -0.0], [1e-5, 3.0], [0.1, 1e16]])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        span = hi - lo
        diag = float(np.linalg.norm(span))
        pad = 0.05 * span
        x0, y0 = lo - pad
        w, h = span + 2 * pad
        head = curve_to_svg(pts).splitlines()[1:3]
        assert head[0].endswith(f'viewBox="{_ref_fmt(x0)} {_ref_fmt(y0)} '
                                f'{_ref_fmt(w)} {_ref_fmt(h)}">')
        assert f"translate(0 {_ref_fmt(2 * y0 + h)})" in head[1]
        assert f'stroke-width="{_ref_fmt(0.005 * diag)}"' in head[1]

    @pytest.mark.parametrize("k", _ROWS)
    def test_raster_csv(self, k):
        # the least nx * ny >= k with nx, ny >= 2 (k itself unless prime)
        n = max(k, 4)
        while not any(n % d == 0 for d in range(2, n // 2 + 1)):
            n += 1
        nx = next(d for d in range(2, n // 2 + 1) if n % d == 0)
        ny = n // nx
        cells = np.random.default_rng(k).random((ny, nx)) < 0.5
        raster = RasterGrid(bbox=(-1e-5, 0.1, -1e16, 1e300),
                            resolution=(nx, ny), cells=cells)
        _same(raster_to_csv(raster), _ref_raster_csv(raster))


def test_sampled_map_validation():
    with pytest.raises(ValueError):
        SampledMap(params=np.zeros((3, 1)), values=np.zeros((4, 2)))
