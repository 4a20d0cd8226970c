"""The benchmark's workload commands write the bytes they wrote before.

perfbench/workloads.py lists the CLI commands each benchmark workload runs.
At their tiny size, for seeds 0-2, every output file must hash to the sum
recorded in golden/workloads_tiny.sha256 (`sha256sum` format, named
workload/seed/file).  The `tr_square*` files are left out: the square's
smooth step evaluates np.exp, whose last bit follows the SIMD level numpy
picks at run time.
"""
import hashlib
import sys
from pathlib import Path

import pytest

from frontalforge.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
SUMS = ROOT / "tests" / "golden" / "workloads_tiny.sha256"


def _pinned(prefix):
    """{workload/seed/file: sha256} of the recorded sums under prefix."""
    table = {}
    for line in SUMS.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        if name.startswith(prefix):
            table[name] = digest
    return table


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    yield workloads
    sys.modules.pop("workloads", None)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload",
                         ["pointwise", "raster", "export", "identities"])
def test_workload_outputs_pinned(workload, seed, workloads, tmp_path):
    prefix = f"{workload}/{seed}/"
    digests = {}
    for cmd in workloads.commands(workload, seed, "tiny"):
        argv = [arg.replace("{dir}", str(tmp_path)) for arg in cmd["argv"]]
        assert main(argv) == EXIT_OK, argv
        for out in cmd["outputs"]:
            if not out.startswith("tr_square"):
                digests[prefix + out] = hashlib.sha256(
                    (tmp_path / out).read_bytes()).hexdigest()
    assert digests == _pinned(prefix)
