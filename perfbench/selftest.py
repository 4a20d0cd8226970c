#!/usr/bin/env python3
"""Self-test of the benchmark: its checks must not pass vacuously.

    python3 perfbench/selftest.py

For each workload at a tiny size: run one round in a fresh worker, require
every command to succeed and every output to pass its check, then corrupt
each output in several ways, one at a time, and require the check to reject
every corruption.  It also compares the closed-form NS tests of `geometry`
with a dense sampling of the support values, and the metrics an untraced and
a traced run print with those listed in BENCHMARK.json.  Exits 0 when all
hold.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import geometry
import run
import workloads

SEED = 7


# --- corruptions: each edits the outputs of one command in directory d -----

def _edit_jsonl(path, fn):
    rows = checks._jsonl(path)
    rows = fn(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def _edit_json(path, fn):
    rep = json.loads(path.read_text())
    fn(rep)
    path.write_text(json.dumps(rep))


def _edit_csv(path, row, col, fn):
    lines = path.read_text().splitlines()
    fields = lines[row + 1].split(",")
    fields[col] = repr(fn(float(fields[col])))
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _first(rows, pred):
    return next(i for i, r in enumerate(rows) if pred(r))


def front_corruptions(spec, d):
    path = d / "front_{}.jsonl".format(spec["curve"])

    def inconsistent(rows):
        rows[_first(rows, lambda r: not r["ambiguous"])]["consistent"] = False
        return rows

    def not_front(rows):
        rows[0]["is_front"] = False
        return rows

    def zero_front(rows):
        for r in rows:
            if abs(r["x"][0]) <= 1e-12:
                r["is_front"] = True
        return rows

    out = {"inconsistent row": lambda: _edit_jsonl(path, inconsistent),
           "row dropped": lambda: _edit_jsonl(path, lambda rows: rows[:-1])}
    if spec["curve"] in ("circle", "cusp"):
        out["non-front row"] = lambda: _edit_jsonl(path, not_front)
    if spec["curve"] == "nonfront":
        out["front at t = 0"] = lambda: _edit_jsonl(path, zero_front)
    return out


def cahn_hoffman_corruptions(spec, d):
    path = d / "ch_{}.jsonl".format(spec["curve"])

    def field(key, fn):
        def edit(rows):
            rows[1][key] = fn(rows[1][key])
            return rows
        return lambda: _edit_jsonl(path, edit)

    def singular(rows):
        rows[2] = {"x": rows[2]["x"], "singular": True}
        return rows

    return {
        "direct moved": field("direct", lambda v: [v[0] + 1e-6] + v[1:]),
        "formula moved": field("formula", lambda v: [v[0] + 1e-3] + v[1:]),
        "residual changed": field("residual", lambda v: 2.0 * v + 1e-6),
        "gamma changed": field("gamma", lambda v: v + 1e-6),
        "singular row": lambda: _edit_jsonl(path, singular),
    }


def report_corruptions(spec, d):
    path = d / "verify_{}_{}.json".format(spec["suite"], spec["curve"])

    def failed(rep):
        rep["passed"] = False

    def other(rep):
        rep["suite"] = "thm4"

    def residual(rep):
        if "max_residuals" in rep:
            k = sorted(rep["max_residuals"])[0]
            rep["max_residuals"][k] = 10.0 * rep["tols"][k]
        else:
            k = next(k for k in ("max_identity_residual", "max_residual",
                                 "max_scaled_residual", "max_mirror_residual")
                     if k in rep)
            rep[k] = 10.0 * rep["tol"]

    return {"passed false": lambda: _edit_json(path, failed),
            "other suite": lambda: _edit_json(path, other),
            "residual over tolerance": lambda: _edit_json(path, residual)}


def raster_corruptions(spec, d):
    path = d / "ns_{}.pgm".format(spec["curve"])

    def flip():
        cells = checks.read_pgm(path)
        res = spec["resolution"]
        xmin, xmax, ymin, ymax = spec["bbox"]
        xs = xmin + (np.arange(res) + 0.5) * (xmax - xmin) / res
        ys = ymin + (np.arange(res) + 0.5) * (ymax - ymin) / res
        diag = np.hypot((xmax - xmin) / res, (ymax - ymin) / res)
        iy, ix = next((iy, ix) for iy in range(res) for ix in range(res)
                      if geometry.ns_decision(spec["curve"], (xs[ix], ys[iy]),
                                              diag)[1])
        cells[iy, ix] = not cells[iy, ix]
        body = "\n".join(" ".join("255" if v else "0" for v in row)
                         for row in cells[::-1])
        path.write_text(f"P2\n{res} {res}\n255\n{body}\n")

    def truncate():
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")

    return {"decided cell flipped": flip, "row missing": truncate}


def transform_corruptions(spec, d):
    base = d / "tr_{}".format(spec["curve"])
    out, src = Path(f"{base}.csv"), Path(f"{base}_src.csv")
    m = len(spec["pole"])
    n = 1 if m == 2 else 2

    def bump(v):
        return v + 1e-6 * (1.0 + abs(v))

    cases = {
        "image value moved": lambda: _edit_csv(out, 3, n, bump),
        "Gauss value moved": lambda: _edit_csv(out, 3, n + m, bump),
        "source value moved": lambda: _edit_csv(src, 3, n, bump),
        "parameter moved": lambda: _edit_csv(out, 3, 0, bump),
        "row dropped": lambda: out.write_text(
            "\n".join(out.read_text().splitlines()[:-1]) + "\n"),
    }
    if m == 2:
        svg = Path(f"{base}.svg")

        def drop_point():
            text = svg.read_text()
            i = text.index('points="') + len('points="')
            j = text.index(" ", i)
            svg.write_text(text[:i] + text[j + 1:])
        cases["SVG point dropped"] = drop_point
    return cases


CORRUPTIONS = {
    "front_check": front_corruptions,
    "cahn_hoffman": cahn_hoffman_corruptions,
    "report": report_corruptions,
    "raster": raster_corruptions,
    "transform": transform_corruptions,
}


def selftest_workload(workload, scratch):
    result, commands, rdir = run.measure(workload, SEED, 0.0, 0, size="tiny")
    try:
        attempted, failed, correct, problems = run.tally(result, commands)
        if failed or not correct or attempted != len(commands):
            return [f"{workload}: clean run failed: {problems}"]
        clean = Path(result["rounds"][0]["dir"])
        errors = []
        n = 0
        for cmd in commands:
            cases = CORRUPTIONS[cmd["check"]](cmd["spec"], scratch)
            for label, corrupt in cases.items():
                shutil.rmtree(scratch, ignore_errors=True)
                shutil.copytree(clean, scratch)
                corrupt()
                n += 1
                if not checks.check(cmd, scratch):
                    errors.append(f"{workload}: {' '.join(cmd['argv'][:3])}: "
                                  f"'{label}' passed the check")
        print(f"{workload}: {len(commands)} commands pass; "
              f"{n - len(errors)} of {n} corruptions rejected")
        return errors
    finally:
        shutil.rmtree(rdir, ignore_errors=True)


def selftest_geometry():
    """Closed-form NS decisions against dense sampling of d(t)."""
    rng = np.random.default_rng(SEED)
    t = np.linspace(-1.0, 1.0, 200001)
    curves = {
        "circle": geometry.circle(np.linspace(-np.pi, np.pi, 200001)),
        "circle-cubic": geometry.circle_cubic(1.2 * t),
        "cusp": geometry.cusp(t),
        "nonfront": (np.stack([t ** 3, t ** 6], axis=-1),
                     np.stack([-2.0 * t ** 3, np.ones_like(t)], axis=-1)),
    }
    errors = []
    for name, (f, nu) in curves.items():
        for P in rng.uniform(-2.5, 2.5, (400, 2)):
            member, sure = geometry.ns_decision(name, P, 0.01)
            if not sure:
                continue
            dvals = np.einsum("km,km->k", f - P, nu)
            sampled = bool(dvals.min() > 0.0 or dvals.max() < 0.0)
            if sampled != member:
                errors.append(f"geometry {name}: P={P.tolist()} closed form "
                              f"{member}, sampled {sampled}")
    print(f"geometry: {len(curves)} NS tests against sampling, "
          f"{len(errors)} disagreements")
    return errors


def selftest_manifest():
    """BENCHMARK.json names exactly the metrics the two kinds of run print;
    a tiny traced run exercises the tracer."""
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, commands, rdir = run.measure("pointwise", SEED, 0.0, trace,
                                             size="tiny")
        try:
            printed = {k: u for k, (v, u) in run.metrics(result, trace).items()}
        finally:
            shutil.rmtree(rdir, ignore_errors=True)
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        if printed != listed:
            errors.append(f"manifest {key}: printed {sorted(printed.items())} "
                          f"but BENCHMARK.json lists {sorted(listed.items())}")
    print(f"manifest: {len(errors)} mismatches")
    return errors


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    errors = selftest_geometry() + selftest_manifest()
    run.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        for workload in workloads.WORKLOADS:
            errors += selftest_workload(workload, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for e in errors:
        print("FAIL", e)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
