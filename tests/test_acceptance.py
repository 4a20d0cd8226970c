"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line;
the conftest hook repeats the lines after the run so they survive capture.
"""
import time
from pathlib import Path

import numpy as np

from frontalforge import verify
from frontalforge.analysis import is_front_at, opening_residual
from frontalforge.catalog import catalog, catalog_names
from frontalforge.cli import EXIT_OK, main
from frontalforge.frontal import check_frontal
from frontalforge.silhouette import ns_raster
from frontalforge.transforms import negative_pedal

GOLDEN = Path(__file__).parent / "golden"
REPORT_LINES: list[str] = []


def _report(num: int, name: str, ok: bool, detail: str):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    REPORT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_01_frontal_conditions():
    t0 = time.perf_counter()
    worst = 0.0
    worst_name = ""
    for name in catalog_names():
        F = catalog(name)
        rep = check_frontal(F, verify.grid_for(F, 2048))
        if rep.max_residual > worst:
            worst, worst_name = rep.max_residual, name
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    _report(1, "frontal conditions", ok,
            f"max residual {worst:.2e} on {worst_name or 'n/a'}, "
            f"{elapsed:.2f} s")


def test_criterion_02_thm1_suite():
    worst = {}
    ok = True
    for name in catalog_names():
        rep = verify.suite_thm1(catalog(name), samples=1024)
        ok &= rep["passed"]
        for k, v in rep["max_residuals"].items():
            worst[k] = max(worst.get(k, 0.0), v)
    _report(2, "anti-orthotomic identity suite", ok,
            ", ".join(f"{k} {v:.1e}" for k, v in sorted(worst.items())))


def test_criterion_03_prop1_suite():
    worst_id = 0.0
    min_sep = np.inf
    ok = True
    for name in catalog_names():
        rep = verify.suite_prop1(catalog(name), samples=512)
        ok &= rep["passed"]
        worst_id = max(worst_id, rep["max_identity_residual"])
        min_sep = min(min_sep, rep["min_separation"])
    _report(3, "orthotomic support identity", ok,
            f"identity {worst_id:.1e}, min separation {min_sep:.1e}")


def test_criterion_04_negative_pedal_regression():
    G = catalog("circle-cubic")
    t = np.linspace(-1.2, 1.2, 512, endpoint=False)[:, None]
    assert np.any(t == 0.0)
    res = negative_pedal(G, [0.0, 0.0]).result
    err = float(np.max(np.linalg.norm(res.eval(t)[0] - G.eval(t)[0], axis=1)))
    ok = err <= 1e-12
    _report(4, "cubic-circle negative pedal restores the circle", ok,
            f"max error {err:.1e} at 512 points incl. the singular one")


def test_criterion_05_square_reconstruction():
    rep = verify.suite_square_reconstruction(catalog("square"), samples=4096,
                                             poles=[(0.3, -0.2)])
    _report(5, "square orthotomic reconstruction", rep["passed"],
            f"mirror {rep['max_mirror_residual']:.1e}, "
            f"radius {rep['max_radius_residual']:.1e}, "
            f"shrink {rep['max_pedal_shrink_residual']:.1e}, "
            f"side_ok {rep['hemicircle_side_ok']}")


def test_criterion_06_vector_formula():
    rep_s = verify.suite_thm2(catalog("sphere"), samples=1024,
                              poles=[[0.0, 0.0, 0.3]])
    rep_c = verify.suite_thm2(catalog("circle"), samples=1024,
                              poles=[[0.5, 0.0]])
    ok = rep_s["passed"] and rep_c["passed"]
    _report(6, "negative-pedal offset vector formula", ok,
            f"sphere residual {rep_s['max_residual']:.1e} "
            f"({rep_s['points_tested']} pts), "
            f"circle residual {rep_c['max_residual']:.1e} "
            f"({rep_c['points_tested']} pts)")


def test_criterion_07_opening_identity():
    worst = 0.0
    ok = True
    for name in catalog_names():
        rep = verify.suite_thm3(catalog(name), samples=256)
        ok &= rep["passed"]
        worst = max(worst, rep["max_scaled_residual"])
    # the identity holds even where the induced Gauss map is singular
    sing = opening_residual(catalog("circle-cubic"), [0.0, 0.0],
                            np.array([[0.0]]))[0]
    ok &= sing <= 1e-6
    _report(7, "opening identity", ok,
            f"max scaled residual {worst:.1e}, "
            f"singular-point residual {sing:.1e}")


def test_criterion_08_front_equivalence():
    ok = True
    tested = excluded = 0
    for name in ("cusp", "nonfront", "circle", "square"):
        rep = verify.suite_thm4(catalog(name), samples=256)
        ok &= rep["passed"]
        tested += rep["points_tested"]
        excluded += rep["points_excluded"]
    zero = np.array([[0.0]])
    ok &= not is_front_at(catalog("nonfront"), zero)
    ok &= is_front_at(catalog("cusp"), zero)
    _report(8, "front criterion equivalence", ok,
            f"{tested} points consistent, {excluded} rank-ambiguous "
            f"excluded; nonfront(0)=False, cusp(0)=True")


def test_criterion_09_ns_rasters():
    t0 = time.perf_counter()
    checks = []
    for name, bbox in (("circle", (-2.0, 2.0, -2.0, 2.0)),
                       ("square", (-3.0, 3.0, -3.0, 3.0))):
        F = catalog(name)
        raster = ns_raster(F, bbox, 128, verify.grid_for(F, 2048))
        xs, ys = raster.centers()
        gx, gy = np.meshgrid(xs, ys)
        if name == "circle":
            dist = np.hypot(gx, gy)
        else:
            dist = np.max(np.abs(np.stack([gx, gy])), axis=0)
        cell = (bbox[1] - bbox[0]) / 128.0
        diag = float(np.hypot(cell, cell))
        decided = np.abs(dist - 1.0) >= diag
        checks.append(bool(np.all(raster.cells[decided]
                                  == (dist < 1.0)[decided])))
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 5.0
    _report(9, "no-silhouette rasters", ok,
            f"circle {checks[0]}, square {checks[1]}, {elapsed:.2f} s")


def test_criterion_10_determinism_and_goldens(tmp_path):
    specs = [
        ("circle_cubic_negative_pedal.csv",
         ["transform", "--catalog", "circle-cubic", "--kind",
          "negative-pedal", "--pole", "0,0", "--samples", "512",
          "--out", "{}"]),
        ("square_reconstruction.json",
         ["verify", "--suite", "square-reconstruction", "--pole", "0.3,-0.2",
          "--json", "{}"]),
        ("circle_ns_128.pgm",
         ["ns", "--catalog", "circle", "--bbox=-2,2,-2,2",
          "--resolution", "128", "--samples", "2048", "--out-pgm", "{}"]),
        ("square_ns_128.pgm",
         ["ns", "--catalog", "square", "--bbox=-3,3,-3,3",
          "--resolution", "128", "--samples", "2048", "--out-pgm", "{}"]),
    ]
    ok = True
    details = []
    for fname, argv in specs:
        runs = []
        for i in range(2):
            out = tmp_path / f"{i}_{fname}"
            code = main([a.format(out) if a == "{}" else a for a in argv])
            ok &= code == EXIT_OK
            runs.append(out.read_bytes())
        identical = runs[0] == runs[1]
        golden = (GOLDEN / fname).read_bytes()
        matches = runs[0] == golden
        ok &= identical and matches
        details.append(f"{fname}: repeat={identical} golden={matches}")
    _report(10, "CLI determinism and golden files", ok, "; ".join(details))
