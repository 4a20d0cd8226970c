"""The four workloads: fixed lists of CLI commands whose inputs are drawn
from the benchmark seed.

Each command is a dict with
  argv     the arguments for `frontalforge.cli.main`, where "{dir}" stands
           for the round's output directory,
  outputs  the files it writes (relative to that directory),
  check    the name of its output check in `checks.CHECKS`,
  spec     what the check needs to know (curve, pole, sizes).

Poles come from `--seed` and lie inside NS sets known independently of the
program (see `geometry`).  The `verify` suites other than
square-reconstruction ignore explicit poles and run the program's own
sampler with its fixed seed, so their inputs do not depend on `--seed`.
"""
from __future__ import annotations

import math

import numpy as np

import geometry

WORKLOADS = ("pointwise", "raster", "export", "identities")
CATALOG = ("circle", "circle-cubic", "constant", "cusp", "nonfront",
           "sphere", "square")

# How far inside its NS set a drawn pole must lie.  Near the NS boundary the
# transforms blow up and the finite-difference Jacobians lose accuracy; the
# workloads time the method, not its behaviour at the edge of its domain.
POLE_RADIUS = 0.8
POLE_MARGIN = 0.2

# Sizes of each workload, full and for the self-test.
SIZES = {
    "full": {"front_samples": 257, "ch_samples": 256, "thm3_samples": 256,
             "resolution": 256, "ns_samples": 4096,
             "export_samples": 32768, "identity_samples": 65536},
    "tiny": {"front_samples": 33, "ch_samples": 36, "thm3_samples": 24,
             "resolution": 48, "ns_samples": 512,
             "export_samples": 600, "identity_samples": 1024},
}

# Half-widths of the raster boxes, centred at the origin before the seed
# shifts each box by up to RASTER_SHIFT per axis.
RASTER_HALF = {"circle": 2.0, "square": 3.0, "circle-cubic": 2.0, "cusp": 2.0}
RASTER_SHIFT = 0.25


def _fmt(P):
    return ",".join(repr(float(v)) for v in P)


def _ball(rng, dim, radius=POLE_RADIUS):
    """Uniform point of the open ball of the given radius."""
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return v * radius * rng.uniform() ** (1.0 / dim)


def _box(rng, dim, half=POLE_RADIUS):
    return rng.uniform(-half, half, dim)


def _inside(rng, name, box=2.0):
    """Rejection-sample a pole whose support values keep one sign with
    margin POLE_MARGIN (in the curve's own sign function)."""
    while True:
        P = rng.uniform(-box, box, 2)
        lo, hi, _ = geometry.SUPPORT_RANGE[name](P)
        if lo > POLE_MARGIN or hi < -POLE_MARGIN:
            return P


def draw_pole(rng, name):
    """A pole inside the NS set of the named catalog frontal."""
    if name in ("circle", "circle-cubic"):
        return _ball(rng, 2)
    if name == "sphere":
        return _ball(rng, 3)
    if name == "square":
        return _box(rng, 2)
    return _inside(rng, name)


def _pointwise(rng, z):
    cmds = []
    for name in ("cusp", "nonfront", "circle", "square"):
        P = draw_pole(rng, name)
        out = f"front_{name}.jsonl"
        cmds.append({
            "argv": ["front-check", "--catalog", name, "--pole=" + _fmt(P),
                     "--samples", str(z["front_samples"]),
                     "--json", "{dir}/" + out],
            "outputs": [out], "check": "front_check",
            "spec": {"curve": name, "pole": P.tolist(),
                     "samples": z["front_samples"]}})
    for name in ("circle", "sphere"):
        P = draw_pole(rng, name)
        out = f"ch_{name}.jsonl"
        cmds.append({
            "argv": ["cahn-hoffman", "--catalog", name, "--pole=" + _fmt(P),
                     "--samples", str(z["ch_samples"]),
                     "--json", "{dir}/" + out],
            "outputs": [out], "check": "cahn_hoffman",
            "spec": {"curve": name, "pole": P.tolist(),
                     "samples": z["ch_samples"]}})
    for name in CATALOG:
        cmds.append(_verify("thm3", name, z["thm3_samples"]))
    return cmds


def _raster(rng, z):
    cmds = []
    for name, half in RASTER_HALF.items():
        sx, sy = rng.uniform(-RASTER_SHIFT, RASTER_SHIFT, 2)
        bbox = [sx - half, sx + half, sy - half, sy + half]
        out = f"ns_{name}.pgm"
        cmds.append({
            "argv": ["ns", "--catalog", name, "--bbox=" + _fmt(bbox),
                     "--resolution", str(z["resolution"]),
                     "--samples", str(z["ns_samples"]),
                     "--out-pgm", "{dir}/" + out],
            "outputs": [out], "check": "raster",
            "spec": {"curve": name, "bbox": bbox,
                     "resolution": z["resolution"]}})
    return cmds


# One planar curve per transform kind, then the sphere.
EXPORT_CASES = (("square", "orthotomic"), ("cusp", "pedal"),
                ("circle", "anti-orthotomic"),
                ("circle-cubic", "negative-pedal"))


def _export(rng, z):
    n = z["export_samples"]
    cmds = []
    for name, kind in EXPORT_CASES:
        P = draw_pole(rng, name)
        base = f"tr_{name}"
        cmds.append({
            "argv": ["transform", "--catalog", name, "--kind", kind,
                     "--pole=" + _fmt(P), "--samples", str(n),
                     "--out", "{dir}/" + base + ".csv",
                     "--svg", "{dir}/" + base + ".svg",
                     "--source-out", "{dir}/" + base + "_src.csv"],
            "outputs": [base + ".csv", base + "_src.csv", base + ".svg"],
            "check": "transform",
            "spec": {"curve": name, "kind": kind, "pole": P.tolist(),
                     "rows": n}})
    P = draw_pole(rng, "sphere")
    per_axis = max(2, int(round(math.sqrt(n))))
    cmds.append({
        "argv": ["transform", "--catalog", "sphere", "--kind",
                 "anti-orthotomic", "--pole=" + _fmt(P), "--samples", str(n),
                 "--out", "{dir}/tr_sphere.csv",
                 "--source-out", "{dir}/tr_sphere_src.csv"],
        "outputs": ["tr_sphere.csv", "tr_sphere_src.csv"],
        "check": "transform",
        "spec": {"curve": "sphere", "kind": "anti-orthotomic",
                 "pole": P.tolist(), "rows": per_axis * per_axis}})
    return cmds


def _verify(suite, name, samples, pole=None):
    out = f"verify_{suite}_{name}.json"
    argv = ["verify", "--suite", suite]
    if name:
        argv += ["--catalog", name]
    if pole is not None:
        argv += ["--pole=" + _fmt(pole)]
    argv += ["--samples", str(samples), "--json", "{dir}/" + out]
    return {"argv": argv, "outputs": [out], "check": "report",
            "spec": {"suite": suite, "curve": name,
                     "pole": None if pole is None else list(pole)}}


def _identities(rng, z):
    n = z["identity_samples"]
    cmds = [_verify(suite, name, n)
            for suite in ("thm1", "prop1", "frontal-condition")
            for name in CATALOG]
    cmds.append(_verify("square-reconstruction", None, n,
                        pole=draw_pole(rng, "square").tolist()))
    return cmds


_BUILD = {"pointwise": _pointwise, "raster": _raster, "export": _export,
          "identities": _identities}


def commands(workload, seed, size="full"):
    """The workload's command list for this seed."""
    if workload not in _BUILD:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILD[workload](rng, SIZES[size])
