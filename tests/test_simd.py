"""Golden bytes must not depend on the SIMD kernels numpy dispatches to,
nor on the BLAS kernel."""
import os
import subprocess
import sys
from pathlib import Path

import frontalforge

ROOT = Path(__file__).resolve().parent.parent
# numpy's own switch; it only warns about features the CPU lacks anyway.
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"
GOLDEN_TESTS = (
    "tests/test_acceptance.py::test_criterion_10_determinism_and_goldens",
    "tests/test_transforms.py::test_transform_csv_bytes_pinned",
    "tests/test_verify.py::test_suite_report_bytes_pinned",
    "tests/test_verify.py::test_suite_report_bytes_pinned_under_split",
    "tests/test_io.py::TestByteOracle",
    "tests/test_io.py::TestFormatterOracle",
)


# OpenBLAS's oldest x86-64 kernel, on one thread: a 4096x3 matrix-vector
# product and a 3x700 matrix product give other bits under it than under the
# default kernel, so the pins must not rest on the kernel's rounding.
PRESCOTT_BLAS = {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1"}


def _run_goldens(**env):
    """Run GOLDEN_TESTS in a fresh interpreter with env added."""
    src = str(Path(frontalforge.__file__).resolve().parent.parent)
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *GOLDEN_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


def test_goldens_without_avx512():
    _run_goldens(NPY_DISABLE_CPU_FEATURES=NO_AVX512)


def test_goldens_under_prescott_blas():
    _run_goldens(**PRESCOTT_BLAS)
