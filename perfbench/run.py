#!/usr/bin/env python3
"""Benchmark of the frontalforge CLI.

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout.  One run:
  1. byte-compiles src/ (a no-op once done) so that set-up times imports;
  2. starts SETUP_PROBES processes that only import the program and takes
     the time from process start to "ready" as set-up;
  3. starts one fresh worker process that runs whole rounds of the
     workload's CLI commands, drawn from --seed, for --seconds seconds
     (see worker.py), writing outputs under perfbench/out/;
  4. checks every output (see checks.py) and prints one JSON line:
     {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones: setup_s, wall_s, cpu_s
and peak_rss_mb.  With --trace 1 untraced and traced rounds alternate and
the metrics are the per-layer ones (see tracer.py), each the median over the
traced rounds, plus the tracing overhead.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
# A worker gets this long beyond its measuring time to finish its last round.
WORKER_GRACE_S = 120.0


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _start(args, err):
    """Start a worker; return (process, seconds until it printed ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + args,
                            stdout=subprocess.PIPE, stderr=err, env=_env(),
                            cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError("the program could not be imported")
    return proc, ready


def _finish(proc, timeout):
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("the worker did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"the worker exited with code {proc.returncode}")


def measure(workload, seed, seconds, trace, size="full"):
    """Run one benchmark run; return (result dict, commands, run dir)."""
    if not (ROOT / "src" / "frontalforge" / "cli.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}")
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    commands = workloads.commands(workload, seed, size)
    OUT.mkdir(exist_ok=True)
    rdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    plan = {"commands": commands, "dir": str(rdir), "seconds": seconds,
            "trace": bool(trace),
            "trace_file": str(OUT / f"trace-{workload}.tsv")}
    (rdir / "plan.json").write_text(json.dumps(plan))
    setups = []
    try:
        with open(rdir / "worker.err", "w") as err:
            for _ in range(SETUP_PROBES):
                proc, ready = _start(["--setup-only"], err)
                _finish(proc, 60.0)
                setups.append(ready)
            proc, ready = _start([str(rdir / "plan.json")], err)
            setups.append(ready)
            _finish(proc, seconds + WORKER_GRACE_S)
    except BenchError:
        sys.stderr.write((rdir / "worker.err").read_text())
        shutil.rmtree(rdir, ignore_errors=True)
        raise
    result = json.loads((rdir / "result.json").read_text())
    result["setups"] = setups
    return result, commands, rdir


def tally(result, commands):
    """(attempted, failed, correct, problems) over every round."""
    problems = []
    checked = {}
    attempted = failed = 0
    correct = True
    for entry in result["rounds"]:
        d = entry["dir"] or result["rounds"][0]["dir"]
        if d not in checked:
            checked[d] = [checks.check(c, d) for c in commands]
        for code, cmd, probs in zip(entry["codes"], commands, checked[d]):
            attempted += 1
            if code != 0:
                failed += 1
                problems.append(f"exit {code}: {' '.join(cmd['argv'])}")
            elif probs:
                failed += 1
                correct = False
                problems += probs
    return attempted, failed, correct, problems


def metrics(result, trace):
    rounds = result["rounds"]
    if not trace:
        return {
            "setup_s": (statistics.median(result["setups"]), "s"),
            "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
            "cpu_s": (statistics.median(r["cpu"] for r in rounds), "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        }
    import tracer  # only the traced run needs the program's modules here

    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out = {}
    for name, unit in tracer.PER_LAYER:
        if name == "trace.overhead_ratio":
            value = (statistics.median(r["wall"] for r in traced)
                     / statistics.median(r["wall"] for r in plain))
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = (value, unit)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.trace:
        sys.path.insert(0, str(ROOT / "src"))
    try:
        result, commands, rdir = measure(args.workload, args.seed,
                                         args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    try:
        attempted, failed, correct, problems = tally(result, commands)
        values = metrics(result, args.trace)
    finally:
        shutil.rmtree(rdir, ignore_errors=True)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
