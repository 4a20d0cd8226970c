"""Command-line interface.

Subcommands: catalog, transform, verify, ns, cahn-hoffman, front-check.
Exit codes follow the error classes: 0 success, 1 verification failure,
3 numerical degeneracy (an `errors.DegenerateError`), 2 usage or configuration
error (any other `errors.FrontalForgeError`, as a --bbox whose width or height
overflows, and argparse's own errors).

Identical invocations produce byte-identical output files.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import ExitStack

import numpy as np

from . import verify
from .analysis import (DEFAULT_JNU_TOL, DEFAULT_RANK_TOL, cahn_hoffman,
                       front_equivalence)
from .catalog import catalog, catalog_names
from .errors import DegenerateError, FrontalForgeError, UsageError
from .frontal import SampledMap, sample
# curve_to_svg and sampled_map_to_csv stay bound for perfbench/tracer.py
from .io import (csv_table, curve_to_svg, sampled_map_to_csv, svg_table,
                 write_tables)
from .silhouette import (DEFAULT_NS_TOL_FRAC, ns_raster, raster_to_csv,
                         raster_to_pgm)
# sample_poles stays bound for perfbench/tracer.py
from .transforms import (DEFAULT_DEGENERACY_TOL, TransformKind, sample_poles,
                         transform)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


def _parse_params(args) -> dict:
    params = {}
    for kv in args.param or []:
        if "=" not in kv:
            raise UsageError(f"--param expects key=value, got {kv!r}")
        k, v = kv.split("=", 1)
        try:
            params[k] = json.loads(v)
        except json.JSONDecodeError:
            params[k] = v
    return params


def _load_frontal(args):
    if not args.catalog:
        raise UsageError("--catalog is required")
    return catalog(args.catalog, _parse_params(args))


def _parse_reals(text: str, what: str) -> list:
    """Comma-separated finite reals; anything else is a usage error."""
    try:
        vals = [float(v) for v in text.split(",")]
        if np.all(np.isfinite(vals)):
            return vals
    except ValueError:
        pass
    raise UsageError(f"bad {what} {text!r}; expected comma-separated "
                     "finite reals")


def _parse_poles(args):
    """--poles (auto:k, as the count k, or poles separated by ';') or else
    --pole, as lists of reals; None when neither is given."""
    if not args.poles:
        return [_parse_reals(args.pole, "pole")] if args.pole else None
    if args.poles.startswith("auto:"):
        k = args.poles[5:]
        if not k.isdecimal() or int(k) < 1:
            raise UsageError(f"bad --poles {args.poles!r}; expected auto:k "
                             "with k >= 1")
        return int(k)
    return [_parse_reals(p, "pole") for p in args.poles.split(";")]


def _open(path: str):
    return open(path, "w", encoding="utf-8", newline="")


def _write(path: str, text: str):
    with _open(path) as fh:
        fh.write(text)


def _emit(path: str | None, text: str):
    """Write text to the file at path, or to stdout without one."""
    if path:
        _write(path, text)
    else:
        sys.stdout.write(text)


def cmd_catalog(args) -> int:
    for name in catalog_names():
        F = catalog(name)
        print(f"{name}: n={F.param_dim}, ambient dim {F.ambient_dim}, "
              f"params {json.dumps(F.params, sort_keys=True)}")
    return EXIT_OK


def cmd_transform(args) -> int:
    F = _load_frontal(args)
    T = transform(TransformKind(args.kind), F, _parse_reals(args.pole, "pole"),
                  args.tol_degeneracy)
    if args.svg and F.ambient_dim != 2:
        raise UsageError("--svg requires ambient dimension 2")
    paths = [p for p in (args.out, args.svg, args.source_out) if p]
    if len({os.path.realpath(p) for p in paths}) < len(paths):
        raise UsageError("--out, --svg and --source-out must name "
                         "different files")
    grid = verify.grid_for(F, args.samples)
    # F is evaluated once; the image is the transform applied to it
    source = sample(F, grid)
    x, fv, nv = source.params, source.values, source.gauss
    if args.no_gauss:  # the forward kinds' image exists where d = 0
        image = SampledMap(x, T.image(x, fv, nv))
    else:
        image = SampledMap(x, *T.apply(x, fv, nv))
    tables = []
    if args.out:
        tables.append((args.out, csv_table(image)))
    if args.svg:
        tables.append((args.svg, svg_table(image.values)))
    if args.source_out:
        tables.append((args.source_out, csv_table(source)))
    # every value is checked and every table laid out before a file opens
    with ExitStack() as stack:
        sinks = [(stack.enter_context(_open(path)), table)
                 for path, table in tables]
        write_tables(sinks or [(sys.stdout, csv_table(image))])
    return EXIT_OK


def cmd_verify(args) -> int:
    F = _load_frontal(args) if args.catalog or args.param else None
    report = verify.run_suite(args.suite, F=F, poles=_parse_poles(args),
                              samples=args.samples)
    _emit(args.json, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAIL


def cmd_ns(args) -> int:
    F = _load_frontal(args)
    bbox = _parse_reals(args.bbox, "--bbox")
    if len(bbox) != 4:
        raise UsageError(f"bad --bbox {args.bbox!r}; expected "
                         "xmin,xmax,ymin,ymax")
    parts = args.resolution.split(",")
    if not (len(parts) in (1, 2) and all(v.strip().isdecimal() for v in parts)
            and min(int(v) for v in parts) >= 2):
        raise UsageError(f"bad --resolution {args.resolution!r}; expected "
                         "nx[,ny] with integers >= 2")
    res = (int(parts[0]), int(parts[-1]))
    grid = verify.grid_for(F, args.samples)
    raster = ns_raster(F, bbox, res, grid, args.tol_ns)
    if args.out_pgm or not args.out_csv:
        _emit(args.out_pgm, raster_to_pgm(raster))
    if args.out_csv:
        _write(args.out_csv, raster_to_csv(raster))
    return EXIT_OK


def _report_lines(reports, path):
    text = "\n".join(json.dumps(r, sort_keys=True) for r in reports)
    _emit(path, text + "\n")


def cmd_cahn_hoffman(args) -> int:
    F = _load_frontal(args)
    P = _parse_reals(args.pole, "pole")
    grid = verify.grid_for(F, args.samples, interior_margin=verify.GRID_INSET)
    rep = cahn_hoffman(F, P, grid, args.tol_jnu)
    reports = [
        {"x": x, "singular": True} if singular else
        {"x": x, "direct": direct, "formula": formula, "residual": residual,
         "det_jnu": det, "gamma": gamma}
        for x, singular, direct, formula, residual, det, gamma in zip(
            grid.tolist(), rep.singular.tolist(), rep.direct.tolist(),
            rep.formula.tolist(), rep.residual.tolist(),
            rep.det_jnu.tolist(), rep.gamma.tolist())]
    _report_lines(reports, args.json)
    return EXIT_OK


_FRONT_FIELDS = ("rank_f_nu", "rank_ftilde_nutilde", "rank_f_ftilde",
                 "is_front", "consistent", "ambiguous")


def cmd_front_check(args) -> int:
    F = _load_frontal(args)
    P = _parse_reals(args.pole, "pole")
    grid = verify.grid_for(F, args.samples, interior_margin=verify.GRID_INSET)
    rep = front_equivalence(F, P, grid, args.tol_rank)
    columns = [getattr(rep, key).tolist() for key in _FRONT_FIELDS]
    reports = [dict(zip(("x",) + _FRONT_FIELDS, row))
               for row in zip(grid.tolist(), *columns)]
    _report_lines(reports, args.json)
    return EXIT_OK


def _positive_int(text: str) -> int:
    """argparse type of --samples: an integer >= 1."""
    if not (text.strip().isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    """argparse type of the --tol-* options: a finite real >= 0.  Against a
    NaN or negative tolerance every `<=` test is false, so the checks it
    bounds would silently pass or fail everywhere."""
    try:
        tol = float(text)
    except ValueError:
        tol = -1.0
    if not (np.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(
            f"expected a finite real >= 0, got {text!r}")
    return tol


def _rank_tolerance(text: str) -> float:
    """argparse type of --tol-rank: a finite real > 0 (a rank cutoff)."""
    if _tolerance(text) == 0.0:
        raise argparse.ArgumentTypeError(
            f"expected a finite real > 0, got {text!r}")
    return float(text)


def _add_frontal_args(p):
    p.add_argument("--catalog", help="catalog frontal name")
    p.add_argument("--param", action="append",
                   help="catalog parameter key=value (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="frontalforge")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list catalog frontals")

    p = sub.add_parser("transform", help="sample a transform to CSV/SVG")
    _add_frontal_args(p)
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in TransformKind])
    p.add_argument("--pole", required=True)
    p.add_argument("--samples", type=_positive_int, default=1024)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--svg", help="SVG output path (planar curves)")
    p.add_argument("--source-out", help="CSV path for the source samples")
    p.add_argument("--no-gauss", action="store_true",
                   help="omit the induced Gauss map columns")
    p.add_argument("--tol-degeneracy", type=_tolerance,
                   default=DEFAULT_DEGENERACY_TOL,
                   help="override the pole degeneracy tolerance")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    _add_frontal_args(p)
    p.add_argument("--pole")
    p.add_argument("--poles", help="'auto:k' for k sampled poles")
    p.add_argument("--samples", type=_positive_int)
    p.add_argument("--json", help="write the report to this path")

    p = sub.add_parser("ns", help="no-silhouette raster (PGM/CSV)")
    _add_frontal_args(p)
    p.add_argument("--bbox", required=True, help="xmin,xmax,ymin,ymax")
    p.add_argument("--resolution", default="128", help="nx[,ny]")
    p.add_argument("--samples", type=_positive_int, default=1024)
    p.add_argument("--out-pgm")
    p.add_argument("--out-csv")
    p.add_argument("--tol-ns", type=_tolerance, default=DEFAULT_NS_TOL_FRAC,
                   help="override the membership margin fraction")

    p = sub.add_parser("cahn-hoffman",
                       help="vector-formula report per grid point (JSONL)")
    _add_frontal_args(p)
    p.add_argument("--pole", required=True)
    p.add_argument("--samples", type=_positive_int, default=256)
    p.add_argument("--json", help="output path (default stdout)")
    p.add_argument("--tol-jnu", type=_tolerance, default=DEFAULT_JNU_TOL,
                   help="override the Gauss-Jacobian determinant cutoff")

    p = sub.add_parser("front-check",
                       help="front-criterion report per grid point (JSONL)")
    _add_frontal_args(p)
    p.add_argument("--pole", required=True)
    p.add_argument("--samples", type=_positive_int, default=256)
    p.add_argument("--json", help="output path (default stdout)")
    p.add_argument("--tol-rank", type=_rank_tolerance,
                   default=DEFAULT_RANK_TOL,
                   help="override the rank-decision tolerance")

    return ap


_COMMANDS = {
    "catalog": cmd_catalog,
    "transform": cmd_transform,
    "verify": cmd_verify,
    "ns": cmd_ns,
    "cahn-hoffman": cmd_cahn_hoffman,
    "front-check": cmd_front_check,
}


# argparse takes a value such as -0.5,0.1 for an option, so these options
# get one joined on: `--pole -0.5,0.1` becomes `--pole=-0.5,0.1`.
_REAL_LIST_OPTIONS = ("--pole", "--poles", "--bbox")
_NEGATIVE_REAL_LIST = re.compile(r"-[0-9.][0-9.eE+\-,;]*")


def _join_negative_values(argv):
    out = []
    for arg in argv:
        if out and out[-1] in _REAL_LIST_OPTIONS \
                and _NEGATIVE_REAL_LIST.fullmatch(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_values(argv))
    try:
        return _COMMANDS[args.command](args)
    except DegenerateError as exc:
        print(f"error: numerical degeneracy "
              f"[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except FrontalForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
