"""Run one noisepad session workload and print its metrics.

    python3 perfbench/run.py --workload loopback-1k --seed 1 --seconds 30 --trace 0

Workloads (see sessions.WORKLOADS): `loopback-1k`, `tcp-1k-slips`,
`tcp-256k`.  Sessions run back to back, closed loop, for `--seconds`;
a run with fewer than 100 cycles by then goes on, up to twice as long, so
that the 90th percentile keeps ten samples beyond it.  Every session is
checked: chains bit-equal, the fixed operating point, the per-cycle ledger
floor and, with slips, a bisection probe for every KEYBLOCK.  A failed session is counted and the run goes on.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs half the time
untraced and half traced, prints the per-layer metrics and writes every
span to perfbench/results/.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when every session passed every check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_RUNS = 5          # this run's own set-up plus four in fresh interpreters
SETUP_TIMEOUT = 170.0
MIN_CYCLES = 100
MAX_EXTENSION = 2.0   # a run short of MIN_CYCLES goes on to at most 2x --seconds


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit")
    return p.parse_args(argv)


def set_up(workload: str, seed: int, keyblock_path: Path):
    """Import noisepad, build the workload and run the untimed warm-up session.

    Returns (bench, warm-up outcome, seconds taken).  The warm-up is session
    0; its KEYBLOCK stream and keys give the run's fingerprint.
    """
    t0 = perf_counter()
    from perfbench import sessions
    if workload not in sessions.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(sessions.WORKLOADS)}")
    bench = sessions.Bench(sessions.WORKLOADS[workload], seed)
    try:
        warm = bench.run(bench.inputs(0), keyblock_path)
    finally:
        keyblock_path.unlink(missing_ok=True)
    return bench, warm, perf_counter() - t0


def fresh_setup_s(args) -> float:
    """Set-up time measured in a new interpreter (numpy imported untimed)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure(bench, first_index: int, seconds: float, min_cycles: int,
            tracer=None) -> list:
    outcomes, cycles = [], 0
    start = perf_counter()
    index = first_index
    while True:
        if tracer is not None:
            tracer.session = index
        outcome = bench.run(bench.inputs(index))
        outcomes.append(outcome)
        cycles += outcome.cycles
        index += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds and (cycles >= min_cycles
                                  or elapsed >= MAX_EXTENSION * seconds):
            return outcomes


def key_kbps(outcomes) -> float:
    return sum(o.delivered_bits for o in outcomes) / sum(o.wall_s for o in outcomes) / 1e3


def e2e_metrics(timed: list, setup_s: float) -> dict:
    cycle_ms = [ms for o in timed for ms in o.cycle_ms] or [0.0]
    return {
        "key_kbps": (key_kbps(timed), "kbit/s"),
        "cycle_p50_ms": (float(np.percentile(cycle_ms, 50)), "ms"),
        "cycle_p90_ms": (float(np.percentile(cycle_ms, 90)), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def traced_run(bench, args):
    """Half the time untraced, half traced; returns (outcomes, per-layer metrics)."""
    from perfbench import tracer as tracing
    plain = measure(bench, 1, args.seconds / 2, 0)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = measure(bench, 1 + len(plain), args.seconds / 2, 0, tracer)
    finally:
        tracer.restore()
    cycles = sum(o.cycles for o in traced)
    metrics = tracing.layer_metrics(tracer, cycles)
    metrics["trace.untraced_key_kbps"] = (key_kbps(plain), "kbit/s")
    metrics["trace.traced_key_kbps"] = (key_kbps(traced), "kbit/s")
    b_times = tracing.role_b_times(tracer, cycles)
    span_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(span_path, workload=args.workload, seed=args.seed, cycles=cycles,
                role_b_self_ms_per_cycle=b_times)
    print(f"traced {len(traced)} sessions, {cycles} cycles, "
          f"{len(tracer.spans)} spans -> {span_path.relative_to(ROOT)}")
    if metrics["trace.traced_key_kbps"][0] > 0:
        overhead = metrics["trace.untraced_key_kbps"][0] / metrics["trace.traced_key_kbps"][0] - 1
        print(f"tracing overhead {100 * overhead:+.1f}% key_kbps")
    print(f"{'span':24s} {'A ms/cycle':>12s} {'B ms/cycle':>12s}")
    for metric, span in tracing.TIME_METRICS:
        print(f"{span:24s} {metrics[metric][0]:12.4f} {b_times[span]:12.4f}")
    return plain + traced, metrics


def report_failures(outcomes) -> tuple[int, int]:
    failed = violations = 0
    for o in outcomes:
        if o.error is not None:
            failed += 1
            print(f"session {o.index} FAILED: {o.error}", file=sys.stderr)
        for v in o.violations:
            violations += 1
            print(f"session {o.index} GATE: {v}", file=sys.stderr)
    return failed, violations


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "noisepad" / "__init__.py").is_file():
        print(f"noisepad sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    RESULTS.mkdir(exist_ok=True)
    keyblock_path = RESULTS / f"keyblocks-{os.getpid()}.bin"
    bench, warm, setup_s = set_up(args.workload, args.seed, keyblock_path)

    import noisepad
    if Path(noisepad.__file__).resolve().parent != SRC / "noisepad":
        print(f"imported noisepad from {noisepad.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        bench.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"env python {platform.python_version()} numpy {np.__version__} nproc {nproc}")
    if warm.fingerprint is not None:
        print(f"fingerprint session 0: keys sha256 {warm.fingerprint['keys_sha256']} "
              f"keyblocks sha256 {warm.fingerprint['keyblocks_sha256']}")

    try:
        if args.trace:
            timed, metrics = traced_run(bench, args)
        else:
            timed = measure(bench, 1, args.seconds, MIN_CYCLES)
    finally:
        bench.close()
    outcomes = [warm] + timed
    failed, violations = report_failures(outcomes)
    error_rate = failed / len(outcomes)
    print(f"session_error_rate {error_rate:g} ({failed} of {len(outcomes)} sessions failed)")
    if args.trace:
        metrics["session_error_rate"] = (error_rate, "ratio")
    else:
        setups = [setup_s] + [fresh_setup_s(args) for _ in range(SETUP_RUNS - 1)]
        metrics = e2e_metrics(timed, statistics.median(setups))
        samples = sum(o.cycles for o in timed)
        print(f"timed {len(timed)} sessions, {samples} cycle samples, "
              f"{sum(o.wall_s for o in timed):.2f} s; set-ups "
              + " ".join(f"{s:.3f}" for s in setups) + " s")
        if samples < MIN_CYCLES:
            print(f"only {samples} cycle samples: cycle_p90_ms has fewer than "
                  f"ten beyond it", file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    correct = failed == 0 and violations == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
