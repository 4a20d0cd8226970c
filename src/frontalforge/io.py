"""Deterministic serialization: CSV for sampled maps and SVG polylines for
planar curves.

Floats are written as Python's repr of the float (the shortest decimal that
reads back to the same double), '.' decimal separator, '\n' line endings;
identical inputs yield byte-identical output.

Every file is a `Table` written by `write_tables`, which streams one or more
tables of the same row count to their open files chunk by chunk: for each
chunk of _CHUNK_ROWS rows it formats each distinct float block once into
byte cells, builds every table's rows of that chunk from those cells and its
`Choice` blocks, and writes them before the next chunk.  Tables that hold
the same block object (the t columns of a transform's CSV and its source's,
the f columns of a CSV and an SVG) thus format it once, and no file's text
is ever held whole.

The cells come from one vectorised formatter, `_float_cells`, whose bytes
are those of repr(float(v)), so the files are byte for byte those that
repr writes: Schubfach (Giulietti, "The Schubfach way to render doubles",
2020) picks the shortest round-trip digits on uint64 arrays, and repr's
layout places them.  A cell is a zero-filled uint8 row with a fixed slot for
each character repr may write (sign, "0.000" prefix, 17 digits each with a
'.' slot after it, "e+XXX") and a last one for the ',' that follows it, so
that a table's text is the non-zero bytes of its rows of cells.  repr itself
still writes, value by value, the subnormals, infinities and NaNs
(`_repr_cells`); zeros go through the formatter.  A `Choice` block takes its
cells from a few fixed texts instead: the SVG's arc starts, the 0/1 and 0/255
of the rasters.
"""
from __future__ import annotations

from functools import cache
from io import StringIO
from typing import NamedTuple

import numpy as np

from .errors import UsageError
from .frontal import SampledMap
from .linalg import _length, _lengths, col_bounds

# rows per chunk: bounds the cells and rows held at once
_CHUNK_ROWS = 512


class Table(NamedTuple):
    """One output file: head, rows, tail.  Row i is the cells of row i of
    the blocks read side by side, its last byte (the last cell's separator)
    replaced by end.  A block is a (k, c) float array, each value a cell
    followed by ',', or a Choice."""

    head: str
    blocks: list
    end: str = "\n"
    tail: str = ""


class Choice(NamedTuple):
    """A block whose cell (i, j) is text pick[i, j] (or pick[i]) of texts,
    an (m, w) uint8 table of texts right-aligned behind zero bytes: like a
    float cell's ',', a text's closing separator is its cell's last byte."""

    texts: np.ndarray
    pick: np.ndarray


def choice(texts, pick) -> Choice:
    """The Choice of the ASCII strings texts by the indices pick."""
    w = max(map(len, texts))
    table = np.zeros((len(texts), w), np.uint8)
    for row, text in zip(table, texts):
        row[w - len(text):] = np.frombuffer(text.encode("ascii"), np.uint8)
    return Choice(table, np.asarray(pick))


def write_tables(sinks) -> None:
    """Write each (file, Table) pair of sinks; all tables have the same row
    count.  A float block shared by several tables is formatted once per
    chunk."""
    first = sinks[0][1].blocks[0]
    k = (first.pick if isinstance(first, Choice) else first).shape[0]
    floats = {id(b): b for _, table in sinks for b in table.blocks
              if not isinstance(b, Choice)}
    for fh, table in sinks:
        fh.write(table.head)
    for start in range(0, k, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, k)
        cells = _block_cells(floats, start, stop)
        for fh, table in sinks:
            fh.write(_rows_text(table, cells, start, stop))
    for fh, table in sinks:
        fh.write(table.tail)


def _block_cells(blocks, start, stop) -> dict:
    """{id: (stop - start, c_i w) cells of rows start:stop of each float
    block, a row's c_i cells side by side}.  The blocks are formatted
    together, and the byte slots that no value of theirs uses dropped."""
    if not blocks:
        return {}
    flat = _float_cells(np.concatenate(
        [b[start:stop].ravel() for b in blocks.values()]))
    used = np.bitwise_or.reduce(flat.view(np.uint64), axis=0)
    flat = flat.take(np.flatnonzero(used.view(np.uint8)), axis=1)
    cells, at = {}, 0
    for i, b in blocks.items():
        n = (stop - start) * b.shape[1]
        cells[i] = flat[at:at + n].reshape(stop - start, -1)
        at += n
    return cells


def _rows_text(table: Table, cells: dict, start: int, stop: int) -> str:
    """The text of rows start:stop of table, from the chunk's cells."""
    rows = np.concatenate(
        [b.texts.take(b.pick[start:stop], axis=0).reshape(stop - start, -1)
         if isinstance(b, Choice) else cells[id(b)] for b in table.blocks],
        axis=1)
    rows[:, -1] = ord(table.end or "\0")  # the last cell's separator
    return rows[rows != 0].tobytes().decode("ascii")


def table_text(table: Table) -> str:
    """The text write_tables writes for table alone."""
    buf = StringIO()
    write_tables([(buf, table)])
    return buf.getvalue()


# --- the formatter ---------------------------------------------------------

_M32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of normal doubles
_CELL = np.dtype("<u2")  # cells are built two bytes at a time
_ONE = np.uint64(0x3FF0000000000000)  # the bits of 1.0


def _flog2pow10(e):
    """floor(log2(10^e)) for |e| <= 6432162."""
    return e * 913124641741 >> 38


@cache
def _tables():
    """Read-only tables, built on first use:
    - limbs: the four 32-bit limbs, lowest first, of g(k) =
      ceil(10^-k 2^-r) with 2^125 <= 10^-k 2^-r < 2^126, by k - _K_MIN;
    - quads: the four ASCII digits of 0..9999; zeros: their trailing '0's;
    - by decpt + 400, for the text 0.DDD x 10^decpt: frame, a cell (as
      24 two-byte words) holding only repr's "0.000" prefix or "e+XXX"
      suffix, and the ','; dot, the digit its '.' follows (-1: none does);
      least, the digits it shows even if they are trailing zeros;
    - keep, by shown * 17 + dot + 1: the 17 words (digit, '.') masks that
      show the first `shown` digits and the '.' after digit `dot`, when a
      digit follows it."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = 10 ** max(-k, 0) << max(-r, 0), 10 ** max(k, 0) << max(r, 0)
        g.append(-(-num // den))
    limbs = np.array([[v >> 32 * i & 0xFFFFFFFF for v in g]
                      for i in range(4)], dtype=np.uint64)
    text = [b"%04d" % i for i in range(10000)]
    quads = np.frombuffer(b"".join(text), np.uint8).reshape(10000, 4)
    zeros = np.array([len(t) - len(t.rstrip(b"0")) for t in text], np.int64)
    frame = np.zeros((800, 48), np.uint8)
    dot = np.full(800, -1, np.int64)
    least = np.zeros(800, np.int64)
    for decpt in range(-400, 400):
        i = decpt + 400
        if -4 < decpt <= 0:    # 0.000DDD
            affix = b"0." + b"0" * -decpt
            frame[i, 1:1 + len(affix)] = np.frombuffer(affix, np.uint8)
        elif 0 < decpt <= 16:  # DDD.DDD, DDD.0
            dot[i], least[i] = decpt - 1, decpt + 1
        else:                  # D.DDDe+XX
            affix = b"e%+03d" % (decpt - 1)
            frame[i, 40:40 + len(affix)] = np.frombuffer(affix, np.uint8)
            dot[i] = 0
    frame[:, 47] = ord(",")
    keep = np.zeros((18, 17, 17, 2), np.uint8)
    for shown in range(1, 18):
        keep[shown, :, :shown, 0] = 0xFF
        for j in range(shown - 1):
            keep[shown, j + 1, j, 1] = 0xFF
    tables = (limbs, quads, zeros, frame.view(_CELL), dot, least,
              keep.reshape(-1, 34).view(_CELL))
    for a in tables:
        a.flags.writeable = False
    return tables


def _quads(u: np.ndarray, n: int) -> np.ndarray:
    """The n 4-digit groups, most significant first, of each uint64 in u
    (all below 10^4n): (N, n) rows of the digit table."""
    quad = np.empty((u.size, n), np.intp)
    for j in range(n - 1, 0, -1):
        q = u // np.uint64(10000)
        quad[:, j] = u - q * np.uint64(10000)
        u = q
    quad[:, 0] = u
    return quad


def _rop(g, cp: np.ndarray) -> np.ndarray:
    """floor(g cp / 2^127), its lowest bit set where bits 64..126 of g cp
    are not all zero (Schubfach's round to odd: g exceeds the power of ten
    it stands for by less than 1, so bits below 64 hold only that error),
    for g < 2^126 given as its four 32-bit limbs and cp < 2^64.

    The eight 32x32 -> 64 bit partial products g_i c_j are summed by 32-bit
    column, each column taking the carry of the one below; the work is done
    in place in a few arrays, as fresh temporaries of this size cost more
    to allocate than to compute."""
    g0, g1, g2, g3 = g
    c0, c1 = cp & _M32, cp >> _S32
    p = g0 * c0
    a = p >> _S32                       # column 1
    np.multiply(g1, c0, out=p)
    b = p >> _S32                       # column 2
    p &= _M32
    a += p
    np.multiply(g0, c1, out=p)
    a += p & _M32
    p >>= _S32
    b += p
    a >>= _S32
    b += a
    np.multiply(g2, c0, out=p)
    np.right_shift(p, _S32, out=a)      # column 3
    p &= _M32
    b += p
    np.multiply(g1, c1, out=p)
    a += p >> _S32
    p &= _M32
    b += p
    low = b & _M32                      # bits 64..95
    b >>= _S32
    a += b
    np.multiply(g3, c0, out=p)
    np.right_shift(p, _S32, out=b)      # columns 4 and up
    p &= _M32
    a += p
    np.multiply(g2, c1, out=p)
    b += p >> _S32
    p &= _M32
    a += p
    np.multiply(g3, c1, out=p)
    b += p
    low |= a & np.uint64(0x7FFFFFFF)    # bits 96..126
    a >>= np.uint64(31)
    b <<= np.uint64(1)
    b += a
    b |= low != 0
    return b


def _schubfach(bits: np.ndarray):
    """(d, k) with d 10^k the shortest decimal that rounds to the positive
    normal double of each of bits (the closest if several, the even one on
    a tie), as Giulietti's Schubfach finds it; d has 16 or 17 digits."""
    limbs = _tables()[0]
    t = bits & np.uint64((1 << 52) - 1)
    bq = (bits >> 52).astype(np.int64)
    q = bq - 1075
    c = t | np.uint64(1 << 52)
    # at a power of 2 above the least normal the gap below is half the gap
    # above: k is floor(log10(3/4 2^q)) there, floor(log10(2^q)) elsewhere
    # (exact for |q| <= 5456721)
    irregular = (t == 0) & (bq > 1)
    k = q * 661971961083 - irregular * 274743187321 >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g = [limb.take(k - _K_MIN) for limb in limbs]
    cb = c << np.uint64(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, cb - np.uint64(2) + irregular << h)
    vbr = _rop(g, cb + np.uint64(2) << h)
    out = c & np.uint64(1)  # an even c's interval includes its ends
    s = vb >> np.uint64(2)
    sp10 = s // 10 * np.uint64(10)
    tp10 = sp10 + np.uint64(10)
    upin = vbl + out <= sp10 << np.uint64(2)
    wpin = (tp10 << np.uint64(2)) + out <= vbr
    t1 = s + np.uint64(1)
    uin = vbl + out <= s << np.uint64(2)
    win = (t1 << np.uint64(2)) + out <= vbr
    mid = s + t1 << np.uint64(1)
    lower = (vb < mid) | (vb == mid) & (s & np.uint64(1) == 0)
    d = np.where(upin != wpin, np.where(upin, sp10, tp10),
                 np.where((uin != win) & uin | (uin == win) & lower, s, t1))
    return d, k


def _float_cells(x: np.ndarray) -> np.ndarray:
    """(N, 48) uint8 cells of the float64 values x: each row holds the bytes
    of repr(float(v)) in the slots sign | "0.000" | 17 digits, each with a
    '.' slot after it | "e+XXX", zero elsewhere, then ','."""
    _, quads, zeros, frame, dot, least, keep = _tables()
    bits = np.ascontiguousarray(x, dtype=float).view(np.uint64)
    mag = bits & np.uint64((1 << 63) - 1)
    zero = mag == 0
    expo = mag >> np.uint64(52)
    other = (expo == 0) & ~zero | (expo == 2047)
    # zeros and the values left to repr run on the bits of 1.0
    d, k = _schubfach(np.where(zero | other, _ONE, mag))
    long = d >= np.uint64(10 ** 16)
    d = np.where(long, d, d * np.uint64(10))  # the 17 digits D0..D16
    d[zero] = 0
    lead = d // np.uint64(10 ** 16)
    quad = _quads(d - lead * np.uint64(10 ** 16), 4)
    digits = np.empty((x.size, 17), _CELL)
    digits[:, 0] = lead + np.uint64(48)
    digits[:, 1:] = quads.take(quad, axis=0).reshape(-1, 16)
    # trailing zeros, from the last 4-digit group back (D0 is not '0')
    tz = zeros.take(quad)
    trail = tz[:, 3]
    for j in (2, 1, 0):
        trail += (trail == 4 * (3 - j)) * tz[:, j]
    nd = np.where(zero, 1, 17 - trail)
    decpt = np.where(zero, 1, k + 16 + long) + 400
    shown = np.maximum(nd, least.take(decpt))
    digits |= np.uint16(0x2E00)  # '.' in each digit's second byte
    digits &= keep.take(shown * 17 + dot.take(decpt) + 1, axis=0)
    cells = frame.take(decpt, axis=0)
    cells[:, 3:20] = digits
    cells[:, 0] |= (bits >> np.uint64(63)).astype(_CELL) * np.uint16(45)
    cells = cells.view(np.uint8)
    if other.any():
        _repr_cells(cells, x, np.flatnonzero(other))
    return cells


def _repr_cells(cells: np.ndarray, x: np.ndarray, rows: np.ndarray) -> None:
    """Overwrite the given rows of cells with repr of their values: the
    subnormals, infinities and NaNs, which the formatter leaves out."""
    for r in rows.tolist():
        text = repr(float(x[r])).encode("ascii")
        cells[r, :-1] = 0
        cells[r, :len(text)] = np.frombuffer(text, np.uint8)


# --- the tables --------------------------------------------------------------

def csv_table(sm: SampledMap) -> Table:
    """CSV with header t1..tn,f1..fm,nu1..num (nu columns only when the
    Gauss map was sampled)."""
    cols = {"t": sm.params, "f": sm.values, "nu": sm.gauss}
    blocks = {k: np.asarray(v, dtype=float)
              for k, v in cols.items() if v is not None}
    names = [f"{k}{j + 1}" for k, b in blocks.items()
             for j in range(b.shape[1])]
    return Table(",".join(names) + "\n", list(blocks.values()))


def sampled_map_to_csv(sm: SampledMap) -> str:
    """The text of csv_table(sm)."""
    return table_text(csv_table(sm))


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
# what precedes a row's "x,y": a space, or a new polyline at an arc's start
_LEADS = [" ", _OPEN, _CLOSE + _OPEN]


def svg_table(points: np.ndarray) -> Table:
    """SVG document with one polyline per connected arc of the sampled
    planar curve; viewBox is the data bbox plus 5% pad, stroke width 0.5%
    of the bbox diagonal."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise UsageError("curve_to_svg requires (k, 2) points")
    lo, hi = col_bounds(points)
    span = hi - lo
    diag = _length(span)
    if diag <= 0.0:
        diag = 1.0
        span = np.array([1.0, 1.0])
    pad = 0.05 * span
    pad[pad <= 0.0] = 0.05 * diag
    x0, y0 = lo - pad
    w, h = span + 2 * pad
    x0, y0, w, h, top, stroke = table_text(Table("", [np.array(
        [[x0, y0, w, h, 2 * y0 + h, 0.005 * diag]])], "")).split(",")
    head = "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0} {y0} {w} {h}">',
        # flip y so the mathematical orientation renders upright
        f'<g transform="translate(0 {top}) scale(1 -1)" '
        f'fill="none" stroke="black" stroke-width="{stroke}" '
        f'stroke-linecap="round">',
        ""])
    pick = np.zeros(points.shape[0], np.intp)
    pick[0] = 1
    pick[np.cumsum([arc.shape[0] for arc in _split_arcs(points)])[:-1]] = 2
    return Table(head, [choice(_LEADS, pick), points], "",
                 _CLOSE + "</g>\n</svg>\n")


def curve_to_svg(points: np.ndarray) -> str:
    """The text of svg_table(points)."""
    return table_text(svg_table(points))
