"""Deterministic serialization: CSV for sampled maps and SVG polylines for
planar curves.

Floats are written with repr (shortest round-trip decimal), '.' decimal
separator, '\n' line endings; identical inputs yield byte-identical output.
Every float writer formats its rows with `_format_rows`.
"""
from __future__ import annotations

import numpy as np

from .frontal import SampledMap

# rows per chunk: a whole table as Python floats would outweigh its text
_CHUNK_ROWS = 1024


def _format_rows(blocks, sep: str) -> list[str]:
    """Rows of the column blocks (each (k, c_i), side by side) as text, one
    string per chunk: ',' within a row, sep between rows, each value the
    repr of its Python equivalent (repr(float(v)) for float64)."""
    k = blocks[0].shape[0]
    chunks = []
    for start in range(0, k, _CHUNK_ROWS):
        rows = np.hstack([b[start:start + _CHUNK_ROWS] for b in blocks])
        chunks.append(sep.join([",".join(map(repr, row))
                                for row in rows.tolist()]))
    return chunks


def sampled_map_to_csv(sm: SampledMap) -> str:
    """CSV with header t1..tn,f1..fm,nu1..num (nu columns only when the
    Gauss map was sampled)."""
    cols = {"t": sm.params, "f": sm.values, "nu": sm.gauss}
    blocks = {k: np.asarray(v, dtype=float)
              for k, v in cols.items() if v is not None}
    header = ",".join(f"{k}{j + 1}" for k, b in blocks.items()
                      for j in range(b.shape[1]))
    rows = _format_rows(list(blocks.values()), "\n")
    return "\n".join([header, *rows, ""])


def _split_arcs(points: np.ndarray) -> list[np.ndarray]:
    """Split a sampled curve where consecutive samples jump by more than
    10x the median step (mirror-point clusters joined to distant arcs)."""
    if points.shape[0] < 2:
        return [points]
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    med = float(np.median(steps))
    if med <= 0.0:
        nz = steps[steps > 0]
        med = float(np.median(nz)) if nz.size else 0.0
    if med <= 0.0:
        return [points]
    return np.split(points, np.nonzero(steps > 10.0 * med)[0] + 1)


def curve_to_svg(points: np.ndarray) -> str:
    """SVG document with one polyline per connected arc of the sampled
    planar curve; viewBox is the data bbox plus 5% pad, stroke width 0.5%
    of the bbox diagonal."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("curve_to_svg requires (k, 2) points")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = hi - lo
    diag = float(np.linalg.norm(span))
    if diag <= 0.0:
        diag = 1.0
        span = np.array([1.0, 1.0])
    pad = 0.05 * span
    pad[pad <= 0.0] = 0.05 * diag
    x0, y0 = (lo - pad).tolist()
    w, h = (span + 2 * pad).tolist()
    stroke = 0.005 * diag
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0!r} {y0!r} {w!r} {h!r}">',
        # flip y so the mathematical orientation renders upright
        f'<g transform="translate(0 {2 * y0 + h!r}) scale(1 -1)" '
        f'fill="none" stroke="black" stroke-width="{stroke!r}" '
        f'stroke-linecap="round">',
    ]
    for arc in _split_arcs(points):
        pts = " ".join(_format_rows([arc], " "))
        lines.append(f'<polyline points="{pts}"/>')
    lines += ["</g>", "</svg>", ""]
    return "\n".join(lines)
