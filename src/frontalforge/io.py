"""Deterministic serialization: CSV for sampled maps and SVG polylines for
planar curves.

Floats are written with repr (shortest round-trip decimal), '.' decimal
separator, '\n' line endings; identical inputs yield byte-identical output.

Every file is a `Table` written by `write_tables`, which streams one or more
tables of the same row count to their open files chunk by chunk: for each
chunk of _CHUNK_ROWS rows it formats each distinct column block once, as the
repr of each value's Python equivalent (repr(float(v)) for float64), builds
every table's rows of that chunk from those shared strings and writes them
before the next chunk.  Tables that hold the same block object (the t
columns of a transform's CSV and its source's, the f columns of a CSV and
an SVG) thus format it once, and no file's text is ever held whole.
"""
from __future__ import annotations

from io import StringIO
from operator import add
from typing import Callable, NamedTuple

import numpy as np

from .frontal import SampledMap
from .linalg import row_norm

# rows per chunk: a whole table as Python floats would outweigh its text
_CHUNK_ROWS = 1024


class Table(NamedTuple):
    """One output file: head, rows, tail.  blocks are (k, c_i) arrays read
    side by side; rows(cols, start) is the text of the chunk starting at row
    `start`, from its columns as lists of repr strings."""

    head: str
    blocks: list
    rows: Callable[[list, int], str]
    tail: str = ""


def csv_rows(cols, start) -> str:
    """',' within a row, '\n' after each."""
    return "\n".join(map(",".join, zip(*cols))) + "\n"


def write_tables(sinks) -> None:
    """Write each (file, Table) pair of sinks; all tables have the same row
    count.  A block shared by several tables is formatted once per chunk."""
    k = sinks[0][1].blocks[0].shape[0]
    for fh, table in sinks:
        fh.write(table.head)
    for start in range(0, k, _CHUNK_ROWS):
        strings = {}
        for fh, table in sinks:
            cols = []
            for b in table.blocks:
                s = strings.get(id(b))
                if s is None:
                    s = strings[id(b)] = [
                        list(map(repr, col))
                        for col in b[start:start + _CHUNK_ROWS].T.tolist()]
                cols += s
            fh.write(table.rows(cols, start))
    for fh, table in sinks:
        fh.write(table.tail)


def table_text(table: Table) -> str:
    """The text write_tables writes for table alone."""
    buf = StringIO()
    write_tables([(buf, table)])
    return buf.getvalue()


def csv_table(sm: SampledMap) -> Table:
    """CSV with header t1..tn,f1..fm,nu1..num (nu columns only when the
    Gauss map was sampled)."""
    cols = {"t": sm.params, "f": sm.values, "nu": sm.gauss}
    blocks = {k: np.asarray(v, dtype=float)
              for k, v in cols.items() if v is not None}
    header = ",".join(f"{k}{j + 1}" for k, b in blocks.items()
                      for j in range(b.shape[1]))
    return Table(header + "\n", list(blocks.values()), csv_rows)


def sampled_map_to_csv(sm: SampledMap) -> str:
    """The text of csv_table(sm)."""
    return table_text(csv_table(sm))


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


def _split_arcs(points: np.ndarray) -> list[np.ndarray]:
    """Split a sampled curve where consecutive samples jump by more than
    10x the median step (mirror-point clusters joined to distant arcs)."""
    if points.shape[0] < 2:
        return [points]
    steps = _lengths(np.diff(points, axis=0))
    med = float(np.median(steps))
    if med <= 0.0:
        nz = steps[steps > 0]
        med = float(np.median(nz)) if nz.size else 0.0
    if med <= 0.0:
        return [points]
    return np.split(points, np.nonzero(steps > 10.0 * med)[0] + 1)


_OPEN = '<polyline points="'
_CLOSE = '"/>\n'


def svg_table(points: np.ndarray) -> Table:
    """SVG document with one polyline per connected arc of the sampled
    planar curve; viewBox is the data bbox plus 5% pad, stroke width 0.5%
    of the bbox diagonal."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("curve_to_svg requires (k, 2) points")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = hi - lo
    with np.errstate(over="ignore"):
        diag = float(np.linalg.norm(span))
    if np.isinf(diag):  # the squares overflow (bbox beyond ~1.3e154)
        diag = float(_lengths(span[None])[0])
    if diag <= 0.0:
        diag = 1.0
        span = np.array([1.0, 1.0])
    pad = 0.05 * span
    pad[pad <= 0.0] = 0.05 * diag
    x0, y0 = (lo - pad).tolist()
    w, h = (span + 2 * pad).tolist()
    stroke = 0.005 * diag
    head = "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0!r} {y0!r} {w!r} {h!r}">',
        # flip y so the mathematical orientation renders upright
        f'<g transform="translate(0 {2 * y0 + h!r}) scale(1 -1)" '
        f'fill="none" stroke="black" stroke-width="{stroke!r}" '
        f'stroke-linecap="round">',
        ""])
    # what precedes each row's "x,y": a new polyline at each arc's first row
    before = [" "] * points.shape[0]
    before[0] = _OPEN
    for i in np.cumsum([arc.shape[0] for arc in _split_arcs(points)])[:-1]:
        before[i] = _CLOSE + _OPEN

    def rows(cols, start):
        return "".join(map(add, before[start:start + _CHUNK_ROWS],
                           map(",".join, zip(*cols))))

    return Table(head, [points], rows, _CLOSE + "</g>\n</svg>\n")


def curve_to_svg(points: np.ndarray) -> str:
    """The text of svg_table(points)."""
    return table_text(svg_table(points))
