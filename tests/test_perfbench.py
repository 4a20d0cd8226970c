"""The traced benchmark run still instruments the program.

perfbench/tracer.py patches Frontal.f/.nu through dataclasses.replace and
the analysis helpers by name; this runs one traced verify and front-check
through the CLI, as `perfbench/run.py --trace 1` does.
"""
import sys
from pathlib import Path

import pytest

from frontalforge.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def test_traced_commands_run_and_count(tracer_module, tmp_path):
    t = tracer_module.Tracer()
    t.install()
    try:
        codes = [
            main(["verify", "--suite", "thm1", "--catalog", "circle",
                  "--samples", "64", "--json", str(tmp_path / "thm1.json")]),
            main(["front-check", "--catalog", "cusp", "--pole=0.1,1.5",
                  "--samples", "9", "--json", str(tmp_path / "front.jsonl")]),
        ]
    finally:
        t.uninstall()
    assert codes == [EXIT_OK, EXIT_OK]
    metrics = t.metrics(round_wall=0.0)
    assert metrics["catalog.eval_rows"] > 0
    # one batched call covers all 9 grid points
    assert metrics["analysis.front_equivalence_calls"] == 1
    assert metrics["analysis.rows_per_call"] == 9


def test_traced_transform_runs(tracer_module, tmp_path):
    """The tracer patches cli.sample, cli.sampled_map_to_csv,
    cli.curve_to_svg and cli._write by name; a traced transform writing all
    three files still runs, and evaluates the source once."""
    t = tracer_module.Tracer()
    t.install()
    try:
        code = main(["transform", "--catalog", "square", "--kind",
                     "orthotomic", "--pole=0.3,-0.2", "--samples", "64",
                     "--out", str(tmp_path / "a.csv"),
                     "--svg", str(tmp_path / "a.svg"),
                     "--source-out", str(tmp_path / "s.csv")])
    finally:
        t.uninstall()
    assert code == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.csv", "a.svg", "s.csv"]
    metrics = t.metrics(round_wall=0.0)
    assert metrics["catalog.eval_rows"] == 2 * 64  # f and nu, once each
    assert metrics["cli.transform_s"] > 0.0
