import math
from io import StringIO

import numpy as np
import pytest

from frontalforge.catalog import catalog
from frontalforge.cli import main
from frontalforge.frontal import SampledMap, sample
import frontalforge.io as ffio
from frontalforge.io import (_CHUNK_ROWS, Table, _lengths, _split_arcs,
                             choice, csv_table, curve_to_svg,
                             sampled_map_to_csv, svg_table, table_text,
                             write_tables)
from frontalforge.silhouette import RasterGrid, raster_to_csv, raster_to_pgm
from frontalforge.transforms import TransformKind, orthotomic, transform
from frontalforge.verify import grid_for


class TestCsv:
    def test_header_with_gauss(self):
        F = catalog("circle")
        text = sampled_map_to_csv(sample(F, F.domain.grid([4])))
        assert text.splitlines()[0] == "t1,f1,f2,nu1,nu2"

    def test_header_without_gauss(self):
        F = catalog("sphere")
        full = sample(F, F.domain.grid([3, 3]))
        sm = SampledMap(full.params, full.values)
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
        pts = res.eval(t)[0]
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


def _ref_svg(points):
    """The whole SVG document, its polylines from _ref_polylines."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    span = hi - lo
    dx, dy = span.tolist()
    diag = math.sqrt(dx * dx + dy * dy)
    if math.isinf(diag):
        diag = float(_lengths(span[None])[0])
    if diag <= 0.0:
        diag = 1.0
        span = np.array([1.0, 1.0])
    pad = 0.05 * span
    pad[pad <= 0.0] = 0.05 * diag
    x0, y0 = lo - pad
    w, h = span + 2 * pad
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_ref_fmt(x0)} '
        f'{_ref_fmt(y0)} {_ref_fmt(w)} {_ref_fmt(h)}">',
        f'<g transform="translate(0 {_ref_fmt(2 * y0 + h)}) scale(1 -1)" '
        f'fill="none" stroke="black" stroke-width="{_ref_fmt(0.005 * diag)}" '
        f'stroke-linecap="round">',
        *_ref_polylines(points), "</g>", "</svg>", ""])


def _ref_raster_csv(raster):
    xs, ys = raster.centers()
    lines = ["x,y,member"]
    for iy in range(raster.resolution[1]):
        for ix in range(raster.resolution[0]):
            lines.append(f"{_ref_fmt(xs[ix])},{_ref_fmt(ys[iy])},"
                         f"{1 if raster.cells[iy, ix] else 0}")
    return "\n".join(lines) + "\n"


def _ref_pgm(raster):
    nx, ny = raster.resolution
    lines = ["P2", f"{nx} {ny}", "255"]
    for iy in range(ny - 1, -1, -1):
        lines.append(" ".join("255" if v else "0" for v in raster.cells[iy]))
    return "\n".join(lines) + "\n"


_SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 0.1, 3.0,
                     -7.0, 1e300, -1e300])
# the edges of the first and of the second chunk, and a few chunks plus a tail
_ROWS = [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
         2 * _CHUNK_ROWS - 1, 2 * _CHUNK_ROWS, 2 * _CHUNK_ROWS + 1,
         3 * _CHUNK_ROWS + 7, 6 * _CHUNK_ROWS + 7]


def _table(seed, k, c):
    """Floats over many magnitudes, a third replaced by special values."""
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(k, c)) * 10.0 ** rng.integers(-20, 21, size=(k, c))
    hit = rng.random((k, c)) < 0.3
    t[hit] = rng.choice(_SPECIAL, size=int(hit.sum()))
    t[0, :] = _SPECIAL[:c]  # every table, even a one-row one, has specials
    return t


def _arcs_at(k, starts):
    """k points of the unit circle, moved up by 100 from each row of
    starts on, so that a new arc begins at each of those rows."""
    t = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
    pts = np.stack([np.cos(t), np.sin(t)], axis=-1)
    for i in starts:
        pts[i:, 1] += 100.0
    return pts


# (catalog, kind, pole): each kind, the sphere (no SVG), and a square whose
# anti-orthotomic falls into 50-152 arcs, some of them across chunk edges
_TRANSFORM_CASES = [pytest.param(name, kind, pole, id=f"{name}-{kind}")
                    for name, kind, pole in [
    ("square", "orthotomic", "0.3,-0.2"), ("cusp", "pedal", "0.1,1.5"),
    ("circle", "anti-orthotomic", "0.3,-0.2"),
    ("circle-cubic", "negative-pedal", "0.1,0.2"),
    ("sphere", "anti-orthotomic", "0.1,0.2,-0.1"),
    ("square", "anti-orthotomic", "0.6763929203677508,0.8455041975773083")]]


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

    @pytest.mark.parametrize("k", _ROWS)
    def test_shared_tables(self, k):
        """Three tables streamed together, sharing the t and f blocks as a
        transform's CSV, SVG and source CSV do, each equal to its own
        reference; the SVG has arcs that start on chunk edges."""
        C = _CHUNK_ROWS
        starts = sorted({1, C - 1, C, C + 1, 2 * C, k - 1} & set(range(1, k)))
        pts = _arcs_at(k, starts)
        assert np.cumsum([len(a) for a in _split_arcs(pts)])[:-1].tolist() \
            == starts
        t = _table(k, k, 5)
        image = SampledMap(params=t[:, :1], values=pts, gauss=t[:, 1:3])
        source = SampledMap(params=image.params, values=t[:, 3:],
                            gauss=t[:, 3:])
        files = [StringIO() for _ in range(3)]
        write_tables(list(zip(files, [csv_table(image), svg_table(pts),
                                      csv_table(source)])))
        _same(files[0].getvalue(), _ref_csv(image))
        _same(files[1].getvalue(), _ref_svg(pts))
        _same(files[2].getvalue(), _ref_csv(source))

    # `--samples 1` still samples two points, so 2 stands in for 1 row
    @pytest.mark.parametrize("k", [2, *_ROWS[1:]])
    @pytest.mark.parametrize("name,kind,pole", _TRANSFORM_CASES)
    def test_transform_files(self, name, kind, pole, k, tmp_path):
        """`transform --out --svg --source-out` against the reference
        writers, each run on its own evaluation of the transform or the
        source."""
        paths = {opt: tmp_path / opt for opt in ("out", "svg", "source-out")}
        planar = name != "sphere"
        argv = ["transform", "--catalog", name, "--kind", kind,
                f"--pole={pole}", "--samples", str(k)]
        for opt, path in paths.items():
            if planar or opt != "svg":
                argv += [f"--{opt}", str(path)]
        assert main(argv) == 0
        F = catalog(name)
        grid = grid_for(F, k)
        P = np.array([float(v) for v in pole.split(",")])
        sm = sample(transform(TransformKind(kind), F, P).result, grid)
        text = {opt: p.read_bytes().decode() for opt, p in paths.items()
                if p.exists()}
        _same(text["out"], _ref_csv(sm))
        _same(text["source-out"], _ref_csv(sample(F, grid)))
        if planar:
            _same(text["svg"], _ref_svg(sm.values))
        else:
            assert "svg" not in text

    def test_svg_extremes(self):
        pts = np.array([[1e300, -1e300], [-1e300, 1e300], [1e16, 5e-324],
                        [-0.0, 0.1], [3.0, -1e-5]])
        text = curve_to_svg(pts)
        _same("\n".join(text.splitlines()[3:-2]),
              "\n".join(_ref_polylines(pts)))
        # the diagonal's squares overflow; the scaled norm does not
        stroke = float(text.split('stroke-width="')[1].split('"')[0])
        assert np.isfinite(stroke)
        assert stroke == 0.005 * (2e300 * np.sqrt(2.0))

    def test_svg_header(self):
        pts = np.array([[0.1, -0.0], [1e-5, 3.0], [0.1, 1e16]])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        span = hi - lo
        dx, dy = span.tolist()
        diag = math.sqrt(dx * dx + dy * dy)
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

    # ny on both sides of the first chunk's edges, and two chunks plus one
    @pytest.mark.parametrize("ny", [2, _CHUNK_ROWS - 1, _CHUNK_ROWS,
                                    _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1])
    @pytest.mark.parametrize("fill", ["none", "all", "random"])
    def test_pgm(self, ny, fill):
        nx = 7
        cells = {"none": np.zeros((ny, nx), bool),
                 "all": np.ones((ny, nx), bool),
                 "random": np.random.default_rng(ny).random((ny, nx)) < 0.5
                 }[fill]
        raster = RasterGrid(bbox=(-2.0, 2.0, -1.0, 3.0), resolution=(nx, ny),
                            cells=cells)
        _same(raster_to_pgm(raster), _ref_pgm(raster))

    @pytest.mark.parametrize("k", _ROWS)
    def test_choice_blocks(self, k):
        """A Choice between float blocks, and one (of two columns) as the
        last block, whose last text's ',' gives way to the line end."""
        t = _table(k + 2, k, 3)
        rng = np.random.default_rng(k)
        words = ("no,", "maybe,", "yes,")
        mid, last = rng.integers(0, 3, size=k), rng.integers(0, 3, size=(k, 2))
        text = table_text(Table("h\n", [t[:, :2], choice(words, mid), t[:, 2:],
                                        choice(words, last)], tail="t\n"))
        ref = "".join(
            f"{_ref_fmt(a)},{_ref_fmt(b)},{words[m]}{_ref_fmt(c)},"
            f"{words[l0]}{words[l1][:-1]}\n"
            for (a, b, c), m, (l0, l1) in zip(t, mid, last))
        _same(text, "h\n" + ref + "t\n")


def _formatter_floats():
    """About 2e5 doubles, both signs of each: zeros, subnormals, infinities
    and NaN; every power of 2 and of 10 with its neighbours; 2^53 +- k;
    the edges of repr's fixed notation and their neighbours; and random
    bit patterns."""
    rng = np.random.default_rng(20200704)
    powers = np.array([2.0 ** e for e in range(-1074, 1024)]
                      + [float(f"1e{e}") for e in range(-323, 309)])
    edges = np.array([1e-5, 1e-4, 9999999999999998.0, 1e16])
    for _ in range(3):
        edges = np.concatenate([edges, np.nextafter(edges, np.inf),
                                np.nextafter(edges, 0.0)])
    x = np.concatenate([
        [0.0, 5e-324, 2.225073858507201e-308, np.inf, np.nan],
        rng.integers(1, 2**52, size=1000, dtype=np.uint64).view(float),
        powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0),
        2.0**53 + np.arange(-2000.0, 2001.0), edges,
        rng.integers(0, 2**63, size=80000, dtype=np.uint64).view(float)])
    return np.concatenate([x, -x])


class TestFormatterOracle:
    """The vectorised formatter against repr, value by value."""

    def test_floats(self):
        x = _formatter_floats()
        assert 1.8e5 < x.size < 2.2e5
        text = table_text(Table("", [x[:, None]]))
        assert text.split("\n")[:-1] == list(map(repr, x.tolist()))


def test_square_transform_needs_no_repr(monkeypatch, tmp_path):
    """Every value of a square transform's files, its zeros included, goes
    through the formatter: none is left to repr."""
    sent = []
    to_repr = ffio._repr_cells

    def spy(cells, x, rows):
        sent.append(rows.size)
        to_repr(cells, x, rows)
    monkeypatch.setattr(ffio, "_repr_cells", spy)
    table_text(Table("", [np.array([[1.0], [np.nan]])]))
    assert sent == [1]  # the spy sees what goes to repr
    sent.clear()
    out = {opt: tmp_path / opt for opt in ("out", "svg", "source-out")}
    assert main(["transform", "--catalog", "square", "--kind", "orthotomic",
                 "--pole=0.3,-0.2", "--samples", "4096",
                 *[f"--{opt}={path}" for opt, path in out.items()]]) == 0
    assert sent == []
    source = out["source-out"].read_text().split("\n", 1)[1]
    assert "0.0" in source.replace("\n", ",").split(",")


def test_sampled_map_validation():
    with pytest.raises(ValueError):
        SampledMap(params=np.zeros((3, 1)), values=np.zeros((4, 2)))
