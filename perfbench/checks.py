"""Output checks, one per command kind.

Every check compares the program's output with a computation made here
(closed forms from `geometry`) or with a property the method must have.
None compares with a stored copy of an earlier output.  A check returns the
list of problems it found; an empty list means the output is correct.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

import geometry

# cahn-hoffman: the thm2 suite's tolerance on |direct - formula| / (1 + |direct|).
CAHN_HOFFMAN_TOL = 1e-5
# Recomputed closed forms agree with the program's rows to a few ulps.
RECOMPUTE_TOL = 1e-12
# ||f~ - P|| = ||f~ - f|| holds relative to ||f~ - P|| (thm1's tolerance).
EQUIDISTANCE_TOL = 1e-9


def _close(a, b, tol):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= tol * (1.0 + np.abs(b))))


def _jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _grid_rows(curve, samples):
    """Row count of `verify.grid_for(F, samples)` for the curve's parameter
    dimension (one axis, or a square grid on the sphere)."""
    if curve == "sphere":
        return max(2, int(round(math.sqrt(samples)))) ** 2
    return max(2, samples)


def check_front(spec, d):
    rows = _jsonl(d / "front_{}.jsonl".format(spec["curve"]))
    curve = spec["curve"]
    probs = []
    if len(rows) != _grid_rows(curve, spec["samples"]):
        probs.append(f"front-check {curve}: {len(rows)} rows")
    bad = [r["x"] for r in rows if not r["ambiguous"] and not r["consistent"]]
    if bad:
        probs.append(f"front-check {curve}: criteria disagree at {bad[:3]}")
    if curve in ("circle", "cusp"):
        nf = [r["x"] for r in rows if not r["is_front"]]
        if nf:
            probs.append(f"front-check {curve}: not a front at {nf[:3]}")
    if curve == "nonfront":
        zero = [r for r in rows if abs(r["x"][0]) <= 1e-12]
        if len(zero) != 1 or zero[0]["is_front"]:
            probs.append("front-check nonfront: t = 0 missing or reported "
                         "a front")
    return probs


def _closed_form(curve, x):
    x = np.asarray(x, dtype=float)
    if curve == "sphere":
        return geometry.sphere(x[:, 0], x[:, 1])
    return {"circle": geometry.circle, "circle-cubic": geometry.circle_cubic,
            "cusp": geometry.cusp}[curve](x[:, 0])


def check_cahn_hoffman(spec, d):
    """`direct` is f~ - g from the negative-pedal formula of the abstract,
    f~ = 2g - P - ||g-P||^2 / ((g-P).nu) nu; `formula` must agree with it to
    the thm2 suite's tolerance.  The induced Gauss map of a circle or sphere
    about an inner pole is a diffeomorphism, so no row may be singular."""
    curve = spec["curve"]
    P = np.asarray(spec["pole"], dtype=float)
    rows = _jsonl(d / f"ch_{curve}.jsonl")
    probs = []
    if len(rows) != _grid_rows(curve, spec["samples"]):
        probs.append(f"cahn-hoffman {curve}: {len(rows)} rows")
    sing = [r["x"] for r in rows if r.get("singular")]
    if sing:
        probs.append(f"cahn-hoffman {curve}: singular at {sing[:3]}")
    rows = [r for r in rows if not r.get("singular")]
    if not rows:
        return probs + [f"cahn-hoffman {curve}: no rows"]
    g, nu = _closed_form(curve, [r["x"] for r in rows])
    gp = g - P
    r2 = np.einsum("km,km->k", gp, gp)
    supp = np.einsum("km,km->k", gp, nu)
    ftilde = 2.0 * g - P - (r2 / supp)[:, None] * nu
    direct = np.array([r["direct"] for r in rows])
    formula = np.array([r["formula"] for r in rows])
    if not _close(direct, ftilde - g, 1e-9):
        probs.append(f"cahn-hoffman {curve}: direct differs from f~ - g")
    dn = np.linalg.norm(direct, axis=1)
    err = np.linalg.norm(formula - direct, axis=1) / (1.0 + dn)
    if float(err.max()) > CAHN_HOFFMAN_TOL:
        probs.append(f"cahn-hoffman {curve}: formula off by {err.max():.2e}")
    resid = np.array([r["residual"] for r in rows])
    if not _close(resid, np.linalg.norm(direct - formula, axis=1), 1e-9):
        probs.append(f"cahn-hoffman {curve}: residual field is not "
                     "|direct - formula|")
    gamma = np.array([r["gamma"] for r in rows])
    if not _close(gamma, np.sqrt(r2), 1e-12):
        probs.append(f"cahn-hoffman {curve}: gamma is not |g - P|")
    return probs


def _within(pairs):
    return [f"{k} = {v!r} exceeds {t!r}" for k, v, t in pairs
            if not (isinstance(v, (int, float)) and v <= t)]


def check_report(spec, d):
    """A verify report passes, names the suite and frontal it was asked
    for, and each residual it states is within the tolerance it states."""
    suite = spec["suite"]
    name = spec["curve"]
    path = d / f"verify_{suite}_{name}.json"
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    probs = []
    if rep.get("passed") is not True:
        probs.append("passed is not true")
    if rep.get("suite") != suite or (name and rep.get("frontal") != name):
        probs.append(f"report is for {rep.get('suite')}/{rep.get('frontal')}")
    if suite == "thm1":
        tols = rep["tols"]
        probs += _within([(k, v, tols[k])
                          for k, v in rep["max_residuals"].items()])
        if set(rep["max_residuals"]) != set(tols):
            probs.append("thm1 residual names differ from tolerance names")
    elif suite == "prop1":
        probs += _within([("max_identity_residual",
                           rep["max_identity_residual"], rep["tol"])])
        if not rep["min_separation"] > 1e-3:
            probs.append(f"min_separation {rep['min_separation']!r}")
    elif suite == "frontal-condition":
        probs += _within([("max_residual", rep["max_residual"], rep["tol"])])
    elif suite == "thm3":
        probs += _within([("max_scaled_residual",
                           rep["max_scaled_residual"], rep["tol"])])
        if not rep["points_tested"] > 0:
            probs.append("no points tested")
    elif suite == "square-reconstruction":
        tol = rep["tol"]
        probs += _within([(k, rep[k], tol) for k in (
            "max_mirror_residual", "max_radius_residual",
            "max_pedal_shrink_residual")])
        if rep["hemicircle_side_ok"] is not True:
            probs.append("hemicircle_side_ok is not true")
        if not _close(rep["pole"], spec["pole"], 0.0):
            probs.append(f"report pole {rep['pole']} is not the one given")
    return [f"verify {suite} {name}: {p}" for p in probs]


def read_pgm(path):
    """P2 raster -> bool cells[iy, ix] with iy = 0 the bottom row."""
    toks = Path(path).read_text(encoding="ascii").split()
    if toks[0] != "P2" or toks[3] != "255":
        raise ValueError("not a P2 raster with maxval 255")
    nx, ny = int(toks[1]), int(toks[2])
    vals = np.array(toks[4:], dtype=int)
    if vals.size != nx * ny or not np.all((vals == 0) | (vals == 255)):
        raise ValueError("raster body does not hold nx*ny values of 0/255")
    return (vals.reshape(ny, nx) == 255)[::-1]


def check_raster(spec, d):
    """Cells whose centre lies at least one cell diagonal from the NS
    boundary match the exact NS set of the curve."""
    curve = spec["curve"]
    try:
        cells = read_pgm(d / f"ns_{curve}.pgm")
    except (ValueError, IndexError) as exc:
        return [f"ns {curve}: {exc}"]
    res = spec["resolution"]
    if cells.shape != (res, res):
        return [f"ns {curve}: raster shape {cells.shape}"]
    xmin, xmax, ymin, ymax = spec["bbox"]
    xs = xmin + (np.arange(res) + 0.5) * (xmax - xmin) / res
    ys = ymin + (np.arange(res) + 0.5) * (ymax - ymin) / res
    diag = math.hypot((xmax - xmin) / res, (ymax - ymin) / res)
    wrong = decided = members = 0
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            member, sure = geometry.ns_decision(curve, (x, y), diag)
            if not sure:
                continue
            decided += 1
            members += member
            wrong += bool(cells[iy, ix]) != member
    probs = []
    if wrong:
        probs.append(f"ns {curve}: {wrong} of {decided} decided cells wrong")
    if decided < 0.8 * res * res or members == 0 or members == decided:
        probs.append(f"ns {curve}: only {decided} decided cells, "
                     f"{members} members")
    return probs


def read_csv(path):
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


_SVG_POLY = re.compile(r'<polyline points="([^"]*)"/>')


def read_svg_points(path):
    text = Path(path).read_text(encoding="utf-8")
    pts = [p for m in _SVG_POLY.finditer(text) for p in m.group(1).split()]
    return np.array([[float(v) for v in p.split(",")] for p in pts]
                    ).reshape(-1, 2)


def _source_ok(curve, t, f, nu):
    """The source rows are the catalog curve itself."""
    if curve == "square":
        on_edge = np.max(np.abs(f), axis=1)
        return bool(np.all(np.abs(on_edge - 1.0) <= RECOMPUTE_TOL)
                    and np.all(np.abs(np.linalg.norm(nu, axis=1) - 1.0)
                               <= RECOMPUTE_TOL))
    fc, nc = _closed_form(curve, t)
    return _close(f, fc, 1e-11) and _close(nu, nc, 1e-11)


def check_transform(spec, d):
    """Forward kinds are recomputed from the source rows; inverse kinds must
    give nu~ = (f-P)/|f-P| and |f~-P| = |f~-f| (for the negative pedal, f is
    2g - P); the SVG polylines hold every row in order."""
    curve, kind = spec["curve"], spec["kind"]
    P = np.asarray(spec["pole"], dtype=float)
    base = f"tr_{curve}"
    tag = f"transform {kind} {curve}"
    h_out, out = read_csv(d / f"{base}.csv")
    h_src, src = read_csv(d / f"{base}_src.csv")
    m = P.shape[0]
    n = out.shape[1] - 2 * m
    probs = []
    if out.shape[0] != spec["rows"] or src.shape != out.shape:
        return [f"{tag}: {out.shape[0]} rows, source {src.shape[0]}"]
    if h_out != h_src or n < 1:
        return [f"{tag}: headers {h_out} / {h_src}"]
    t, f, nu = src[:, :n], src[:, n:n + m], src[:, n + m:]
    ft, nt = out[:, n:n + m], out[:, n + m:]
    if not np.array_equal(out[:, :n], t):
        probs.append(f"{tag}: parameter columns differ from the source")
    if not _source_ok(curve, t, f, nu):
        probs.append(f"{tag}: source rows are not the {curve} curve")
    supp = np.einsum("km,km->k", f - P, nu)
    if kind in ("orthotomic", "pedal"):
        lam = 2.0 if kind == "orthotomic" else 1.0
        img = lam * supp[:, None] * nu + P
        diff = 2.0 * supp[:, None] * nu + P - f
        gauss = diff / np.linalg.norm(diff, axis=1)[:, None]
        if not _close(ft, img, RECOMPUTE_TOL):
            probs.append(f"{tag}: image rows differ from the recomputation")
        if not _close(nt, gauss, RECOMPUTE_TOL):
            probs.append(f"{tag}: Gauss rows differ from the recomputation")
    else:
        ref = f if kind == "anti-orthotomic" else 2.0 * f - P
        dirn = (f - P) / np.linalg.norm(f - P, axis=1)[:, None]
        if not _close(nt, dirn, RECOMPUTE_TOL):
            probs.append(f"{tag}: nu~ is not (f-P)/|f-P|")
        a = np.linalg.norm(ft - P, axis=1)
        b = np.linalg.norm(ft - ref, axis=1)
        if float(np.max(np.abs(a - b) / (1.0 + a))) > EQUIDISTANCE_TOL:
            probs.append(f"{tag}: |f~-P| != |f~-f|")
    if m == 2:
        pts = read_svg_points(d / f"{base}.svg")
        if pts.shape != ft.shape or not np.array_equal(pts, ft):
            probs.append(f"{tag}: SVG holds {pts.shape[0]} of "
                         f"{ft.shape[0]} rows or other values")
    return probs


CHECKS = {
    "front_check": check_front,
    "cahn_hoffman": check_cahn_hoffman,
    "report": check_report,
    "raster": check_raster,
    "transform": check_transform,
}


def check(cmd, d):
    """Problems with one command's outputs in directory d."""
    d = Path(d)
    missing = [o for o in cmd["outputs"] if not (d / o).is_file()]
    if missing:
        return [f"{cmd['argv'][0]}: missing {missing}"]
    try:
        return CHECKS[cmd["check"]](cmd["spec"], d)
    except (ValueError, KeyError, TypeError, IndexError,
            json.JSONDecodeError) as exc:
        return [f"{cmd['argv'][0]}: unreadable output ({exc!r})"]
