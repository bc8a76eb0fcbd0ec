#!/usr/bin/env python3
"""linkscrub benchmark: one workload per invocation.

    python3 bench/run.py --workload crawl-to-list --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; linkscrub is imported from its
``src`` directory, never from an installed copy. Whole rounds of the
workload repeat until the next one would end after ``--seconds``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7  # set-up is timed this many times, each in a fresh process
TAIL_BEYOND = 10  # operations of a round above the tail latency


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _use_checkout_source() -> None:
    if not (SRC / "linkscrub" / "__init__.py").is_file():
        sys.exit(f"error: no linkscrub sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _probe_setup(workload: str, work: Path) -> float:
    """Seconds one fresh interpreter spends in the workload's set-up."""
    out = subprocess.run(
        [sys.executable, __file__, "--probe-setup", "--workload", workload,
         "--work", str(work)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 work_root: Path, probes: int = SETUP_PROBES) -> dict:
    """Prepare inputs, time set-up and whole rounds, and return the result
    document."""
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        inputs = workload.prepare(work, seed)
        tracer = Tracer(trace)
        ctx = workload.setup(work, tracer)
        setup_s = statistics.median(
            _probe_setup(workload.name, work) for _ in range(probes))

        rounds = []
        begin = perf_counter()
        while True:
            tracer.round = len(rounds)
            t0 = perf_counter()
            rnd = workload.run_round(inputs, ctx, tracer)
            rounds.append(rnd)
            spent = perf_counter() - t0
            _log(f"round {len(rounds)}: {rnd.wall():.3f} s, "
                 f"{rnd.failed} of {len(rnd.op_times)} ops failed"
                 + "".join(f"; {e}" for e in rnd.errors))
            if perf_counter() - begin + spent > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Every round repeats the same operations and steps on the same inputs.
    # Each figure is taken within one round and averaged over the rounds.
    # On a shared machine whose speed switches between a fast and a slow
    # phase, a mean moves in proportion to the share of slow rounds, where a
    # median or a minimum jumps between the phases. The first round counts
    # like every other.
    run_s = statistics.fmean(r.wall() for r in rounds)
    op_p50 = statistics.fmean(r.op_percentile(0) for r in rounds)
    op_tail = statistics.fmean(r.op_percentile(TAIL_BEYOND) for r in rounds)
    tail_pct = 100 * (1 - TAIL_BEYOND / workload.ops_per_round)
    errors = [e for r in rounds for e in r.errors]
    if trace and not tracer.counts_repeat():
        errors.append("per-layer counts differ between rounds")
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "run_s": {"value": run_s, "unit": "s"},
        "op_p50_ms": {"value": 1000 * op_p50, "unit": "ms"},
        "op_tail_ms": {"value": 1000 * op_tail, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    if trace:
        for (rnd, name), secs in sorted(tracer.self_times().items()):
            _log(f"span self time: round {rnd} {name} {secs:.6f} s")
    _log(f"{workload.name} seed {seed}: {len(rounds)} rounds (first "
         f"{rounds[0].wall():.3f} s), p{tail_pct:.4g} tail; " + ", ".join(
             f"{k} {v['value']:.4f}" for k, v in end_to_end.items()))
    return {
        "correct": not errors,
        "attempted": workload.ops_per_round * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": tracer.layer_metrics() if trace else end_to_end,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _use_checkout_source()
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    if args.probe_setup:
        if {"linkscrub", "numpy"} & sys.modules.keys():
            sys.exit("error: set-up probe started with linkscrub imported")
        start = perf_counter()
        workload.setup(args.work, Tracer(False))
        print(perf_counter() - start)
        return 0
    result = run_workload(workload, args.seed, args.seconds,
                          bool(args.trace), ROOT / ".bench_work")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
