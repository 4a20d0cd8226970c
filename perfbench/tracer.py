"""Spans and counts around the program's layer calls, for the traced run.

The tracer wraps the public functions of each module at the names their
callers use: `cli` and `verify` bind most of them with from-imports, so a
function is patched in the namespace of every module that calls it.  Each
call records a span (name, start, end, parent) and the counts of that
boundary.  Spans stay in memory; the worker writes them out when the run
ends.  A span's self time is its duration minus the time of its child
spans, and every `_s` metric below is a self time.
"""
from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

import numpy as np

from frontalforge import _kernels, analysis, cli, frontal, verify
from frontalforge.errors import FrontalForgeError

SUITES = ("frontal-condition", "thm1", "prop1", "thm3",
          "square-reconstruction")
COMMANDS = ("front-check", "cahn-hoffman", "verify", "ns", "transform")

# (metric, unit); the traced run prints every one of them.
PER_LAYER = [
    ("catalog.eval_calls", "count"), ("catalog.eval_rows", "count"),
    ("catalog.self_s", "s"),
    ("frontal.wrap_calls", "count"), ("frontal.wrap_s", "s"),
    ("frontal.jacobian_calls", "count"), ("frontal.jacobian_s", "s"),
    ("frontal.sample_s", "s"),
    ("transforms.build_calls", "count"), ("transforms.eval_s", "s"),
    ("transforms.source_rows", "count"),
    ("transforms.transformed_rows", "count"),
    ("transforms.source_rows_per_row", "ratio"),
    ("transforms.sample_poles_calls", "count"),
    ("transforms.sample_poles_s", "s"),
    ("silhouette.ns_raster_s", "s"), ("silhouette.cells", "count"),
    ("silhouette.pgm_s", "s"), ("silhouette.pgm_bytes", "bytes"),
    ("kernels.support_extrema_s", "s"), ("kernels.pairs_per_s", "1/s"),
    ("analysis.front_equivalence_calls", "count"),
    ("analysis.front_equivalence_s", "s"),
    ("analysis.cahn_hoffman_calls", "count"),
    ("analysis.cahn_hoffman_s", "s"),
    ("analysis.opening_residual_calls", "count"),
    ("analysis.opening_residual_s", "s"),
    ("analysis.rows_per_call", "ratio"),
    ("linalg.calls", "count"), ("linalg.s", "s"),
] + [(f"verify.{s}_s", "s") for s in SUITES] + [
    ("verify.points_tested", "count"), ("verify.points_skipped", "count"),
    ("io.csv_s", "s"), ("io.csv_rows", "count"), ("io.csv_bytes", "bytes"),
    ("io.svg_s", "s"), ("io.svg_bytes", "bytes"),
] + [(f"cli.{c}_s", "s") for c in COMMANDS] + [
    ("cli.jsonl_s", "s"), ("cli.write_s", "s"), ("cli.write_bytes", "bytes"),
    ("trace.spans", "count"), ("trace.uncovered_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Collects spans and counts while installed; `uninstall` restores
    every patched name."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []         # [span index, time covered by children]
        self._patches = []       # (owner, key, original)
        self._transform_depth = 0

    # -- spans ---------------------------------------------------------------

    def span(self, name, fn, after=None):
        """fn wrapped in a span; after(args, result) adds counts."""
        spans, stack, self_s = self.spans, self._stack, self.self_s
        counts = self.counts
        calls = name + "_calls"
        clock = time.perf_counter

        def traced(*args, **kw):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                spans[frame[0]] = (name, t0, t1, parent)
                self_s[name] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                counts[calls] += 1
            if after is not None:
                after(args, res)
            return res

        return traced

    def top_level_s(self):
        return sum(e - s for _, s, e, p in self.spans if p == -1)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def _patch_span(self, owners, key, name, after=None):
        for owner in owners:
            orig = owner[key] if isinstance(owner, dict) else getattr(owner, key)
            self._patch(owner, key, self.span(name, orig, after))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    def _count(self, key, amount=1):
        self.counts[key] += amount

    def _catalog_eval(self, fn):
        def rows(args, res):
            k = args[0].shape[0]
            self._count("catalog.eval_rows", k)
            if self._transform_depth:
                self._count("transforms.source_rows", k)
        return self.span("catalog.eval", fn, rows)

    def _transform_eval(self, fn):
        inner = self.span("transforms.eval", fn)

        def evaluate(x):
            if not self._transform_depth:
                self._count("transforms.transformed_rows", x.shape[0])
            self._transform_depth += 1
            try:
                return inner(x)
            finally:
                self._transform_depth -= 1
        return evaluate

    def _wrap_catalog(self, orig):
        def build(*args, **kw):
            F = orig(*args, **kw)
            return dataclasses.replace(F, f=self._catalog_eval(F.f),
                                       nu=self._catalog_eval(F.nu))
        return build

    def _wrap_transform(self, orig):
        def build(*args, **kw):
            self._count("transforms.build_calls")
            res = orig(*args, **kw)
            r = res.result
            return dataclasses.replace(res, result=dataclasses.replace(
                r, f=self._transform_eval(r.f), nu=self._transform_eval(r.nu)))
        return build

    def _skips(self, fn):
        """Count the points a suite drops because the analysis raised."""
        def call(*args, **kw):
            try:
                return fn(*args, **kw)
            except FrontalForgeError:
                self._count("verify.points_skipped")
                raise
        return call

    def install(self):
        """Patch every layer boundary the workloads cross."""
        # catalog and transforms: the frontals they return carry wrapped
        # evaluators, so nested evaluation shows up span by span.
        for owner in (cli, verify):
            self._patch(owner, "catalog", self._wrap_catalog(owner.catalog))
        for owner, names in ((cli, ("transform",)),
                             (verify, ("orthotomic", "pedal",
                                       "anti_orthotomic", "negative_pedal")),
                             (analysis, ("anti_orthotomic", "negative_pedal"))):
            for key in names:
                self._patch(owner, key,
                            self._wrap_transform(getattr(owner, key)))
        self._patch_span([cli, verify], "sample_poles",
                         "transforms.sample_poles")

        self._patch_span([frontal.ParamDomain], "wrap", "frontal.wrap")
        self._patch_span([frontal], "jacobian_f", "frontal.jacobian")
        for key in ("jacobian_f", "jacobian_nu", "_fd_jacobian"):
            self._patch_span([analysis], key, "frontal.jacobian")
        self._patch_span([cli], "sample", "frontal.sample")

        for key in ("cofactor", "numeric_rank", "singular_values",
                    "tangent_frame"):
            self._patch_span([analysis], key, "linalg")

        def rows(args, res):
            self._count("analysis.rows", np.atleast_2d(args[2]).shape[0])
        for key in ("cahn_hoffman", "front_equivalence"):
            self._patch_span([cli], key, f"analysis.{key}", rows)
        for key in ("cahn_hoffman", "front_equivalence", "opening_residual"):
            self._patch(verify, key, self.span(
                f"analysis.{key}", self._skips(getattr(verify, key)), rows))

        def tested(args, res):
            self._count("verify.points_tested", res.get("points_tested", 0))
        for suite in SUITES:
            key = "suite_" + suite.replace("-", "_")
            self._patch_span([verify], key, f"verify.{suite}", tested)

        def cells(args, res):
            self._count("silhouette.cells", res.cells.size)
        self._patch_span([cli], "ns_raster", "silhouette.ns_raster", cells)

        def pairs(args, res):
            self._count("kernels.pairs", args[0].shape[0] * args[2].shape[0])
        self._patch_span([_kernels], "support_extrema",
                         "kernels.support_extrema", pairs)

        def nbytes(key):
            def count(args, res):
                self._count(key, len(res.encode()))
            return count
        self._patch_span([cli], "raster_to_pgm", "silhouette.pgm",
                         nbytes("silhouette.pgm_bytes"))

        def csv(args, res):
            self._count("io.csv_rows", args[0].params.shape[0])
            self._count("io.csv_bytes", len(res.encode()))
        self._patch_span([cli], "sampled_map_to_csv", "io.csv", csv)
        self._patch_span([cli], "curve_to_svg", "io.svg",
                         nbytes("io.svg_bytes"))

        for command in COMMANDS:
            self._patch_span([cli._COMMANDS], command, f"cli.{command}")
        self._patch_span([cli], "_report_lines", "cli.jsonl")

        def written(args, res):
            self._count("cli.write_bytes", len(args[1].encode()))
        self._patch_span([cli], "_write", "cli.write", written)

    # -- metrics -------------------------------------------------------------

    def metrics(self, round_wall):
        """Per-layer metrics of one traced round (all but the overhead)."""
        s, c = self.self_s, self.counts
        out = {
            "catalog.eval_calls": c["catalog.eval_calls"],
            "catalog.eval_rows": c["catalog.eval_rows"],
            "catalog.self_s": s["catalog.eval"],
            "frontal.wrap_calls": c["frontal.wrap_calls"],
            "frontal.wrap_s": s["frontal.wrap"],
            "frontal.jacobian_calls": c["frontal.jacobian_calls"],
            "frontal.jacobian_s": s["frontal.jacobian"],
            "frontal.sample_s": s["frontal.sample"],
            "transforms.build_calls": c["transforms.build_calls"],
            "transforms.eval_s": s["transforms.eval"],
            "transforms.source_rows": c["transforms.source_rows"],
            "transforms.transformed_rows": c["transforms.transformed_rows"],
            "transforms.source_rows_per_row": _ratio(
                c["transforms.source_rows"], c["transforms.transformed_rows"]),
            "transforms.sample_poles_calls":
                c["transforms.sample_poles_calls"],
            "transforms.sample_poles_s": s["transforms.sample_poles"],
            "silhouette.ns_raster_s": s["silhouette.ns_raster"],
            "silhouette.cells": c["silhouette.cells"],
            "silhouette.pgm_s": s["silhouette.pgm"],
            "silhouette.pgm_bytes": c["silhouette.pgm_bytes"],
            "kernels.support_extrema_s": s["kernels.support_extrema"],
            "kernels.pairs_per_s": _ratio(c["kernels.pairs"],
                                          s["kernels.support_extrema"]),
            "analysis.rows_per_call": _ratio(
                c["analysis.rows"],
                sum(c[f"analysis.{k}_calls"] for k in (
                    "cahn_hoffman", "front_equivalence",
                    "opening_residual"))),
            "linalg.calls": c["linalg_calls"],
            "linalg.s": s["linalg"],
            "verify.points_tested": c["verify.points_tested"],
            "verify.points_skipped": c["verify.points_skipped"],
            "io.csv_s": s["io.csv"], "io.csv_rows": c["io.csv_rows"],
            "io.csv_bytes": c["io.csv_bytes"],
            "io.svg_s": s["io.svg"], "io.svg_bytes": c["io.svg_bytes"],
            "cli.jsonl_s": s["cli.jsonl"], "cli.write_s": s["cli.write"],
            "cli.write_bytes": c["cli.write_bytes"],
            "trace.spans": len(self.spans),
            "trace.uncovered_s": round_wall - self.top_level_s(),
        }
        for key in ("front_equivalence", "cahn_hoffman", "opening_residual"):
            out[f"analysis.{key}_calls"] = c[f"analysis.{key}_calls"]
            out[f"analysis.{key}_s"] = s[f"analysis.{key}"]
        for suite in SUITES:
            out[f"verify.{suite}_s"] = s[f"verify.{suite}"]
        for command in COMMANDS:
            out[f"cli.{command}_s"] = s[f"cli.{command}"]
        return out

    def write_spans(self, fh, round_index):
        """Spans as tab-separated lines: round, index, name, start, end,
        parent index (-1 for a top-level span)."""
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            fh.write(f"{round_index}\t{i}\t{name}\t{t0!r}\t{t1!r}\t{parent}\n")
