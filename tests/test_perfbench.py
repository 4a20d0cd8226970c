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
