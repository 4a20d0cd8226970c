"""One fresh process of a benchmark run.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py PLAN.json

The worker imports the program, prints "ready" on standard output (the
parent times process start to that line as set-up), and with a plan runs
rounds of the plan's CLI commands through `frontalforge.cli.main` while another round
fits into the plan's seconds.  Round k writes into DIR/r<k>; a round whose
outputs hash the same as round 0's is deleted, so the parent checks round 0
and every round that differed.  With tracing, untraced and traced rounds
alternate.  The result goes to DIR/result.json.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

from frontalforge.cli import main  # noqa: E402  (the set-up being timed)

print("ready", flush=True)


def _run(argv):
    """Exit code of one command; an exception counts as a failure."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing command is a failed operation
        traceback.print_exc()
        return 1


def _digest(rdir, outputs):
    h = hashlib.sha256()
    for name in outputs:
        try:
            with open(os.path.join(rdir, name), "rb") as fh:
                h.update(hashlib.file_digest(fh, "sha256").digest())
        except FileNotFoundError:
            h.update(b"missing")
    return h.hexdigest()


def _round(commands, rdir):
    os.makedirs(rdir)
    argvs = [[a.replace("{dir}", rdir) for a in c["argv"]] for c in commands]
    c0 = time.process_time()
    t0 = time.perf_counter()
    codes = [_run(argv) for argv in argvs]
    return time.perf_counter() - t0, time.process_time() - c0, codes


def run(plan):
    commands = plan["commands"]
    outdir = plan["dir"]
    tracing = plan["trace"]
    tracers = []
    if tracing:
        import tracer
    rounds = []
    first_digests = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = tracing and len(rounds) % 2 == 1
        rdir = os.path.join(outdir, f"r{len(rounds)}")
        if traced:
            tr = tracer.Tracer()
            tr.install()
        try:
            wall, cpu, codes = _round(commands, rdir)
        finally:
            if traced:
                tr.uninstall()
        digests = [_digest(rdir, c["outputs"]) for c in commands]
        entry = {"wall": wall, "cpu": cpu, "codes": codes,
                 "digests": digests, "traced": traced, "dir": rdir}
        if traced:
            entry["layers"] = tr.metrics(wall)
            tracers.append(tr)
        if first_digests is None:
            first_digests = digests
        elif digests == first_digests:
            shutil.rmtree(rdir)
            entry["dir"] = None
        now = time.perf_counter()
        entry["span"] = now - began
        rounds.append(entry)
        # Stop before a round that would end after the measuring window, as
        # judged by the last round of the same kind; always finish one round
        # (and with tracing, one traced round).
        nxt = tracing and len(rounds) % 2 == 1
        last = [r for r in rounds if r["traced"] == nxt][-1:] or rounds[-1:]
        if (now - start + last[0]["span"] > plan["seconds"]
                and (not tracing or len(rounds) >= 2)):
            break
    if tracing:
        with open(plan["trace_file"], "w", encoding="utf-8") as fh:
            fh.write("round\tindex\tname\tstart\tend\tparent\n")
            for i, tr in enumerate(tracers):
                tr.write_spans(fh, 2 * i + 1)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump({"rounds": rounds, "peak_rss_kb": peak_kb}, fh)


if __name__ == "__main__":
    if sys.argv[1:] != ["--setup-only"]:
        with open(sys.argv[1], encoding="utf-8") as fh:
            run(json.load(fh))
