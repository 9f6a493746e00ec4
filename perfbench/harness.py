"""Runs one perfbench workload, checks every operation and prints the
result; perfbench/run.py is the entry point."""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import optiqft
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

#: Set-up is repeated this many times, each in a fresh process, and the
#: median reported.
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
#: A percentile is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100
#: An untraced run measures at least this many operations, so that its
#: median has a middle sample even when one operation outlasts --seconds.
MIN_OPS = 3

#: The set-up probe times the reference kernel this many times.
SETUP_REFERENCE_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s",
                    "latency_p50_ms": "ms", "peak_rss_mb": "MB"}

NOTES = ("Load is a closed loop: one caller in one process, BLAS pinned to "
         "one thread. Operation i draws its inputs from "
         "numpy.random.default_rng([seed, i]); i = 0 is the warm-up. Fit "
         "traces use the CLI's 720-point grid: fit() rejects endpoint-free "
         "grids under 100 points (span check), so failed = 0 does not mean "
         "fit accepts every grid.")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description="optiqft benchmark")
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measured time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_op(workload, index: int, tracer=None):
    """Make, run, check and release operation index; returns the
    perf_counter times at which the run started and ended, and the check.

    A failure in run or check is recorded in info and the run goes on.
    """
    inputs = workload.make(index)
    try:
        if tracer is not None:
            tracer.op = index
            tracer.active = True
            span = tracer.open("bench.op")
        start = time.perf_counter()
        try:
            output = workload.run(inputs)
        finally:
            end = time.perf_counter()
            if tracer is not None:
                tracer.close(span)
                tracer.active = False
        info = workload.check(inputs, output)
    except Exception:  # noqa: BLE001 - a failed operation is data
        info = {"ok": False, "error": traceback.format_exc(limit=4)}
    finally:
        workload.release(inputs)
    return start, end, info


def percentile(sorted_values: list, q: float) -> float:
    """Linear-interpolated percentile; inf (failed ops) propagates."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    a, b = sorted_values[lo], sorted_values[hi]
    if pos == lo or a == b:
        return a
    return a + (b - a) * (pos - lo)


def setup_samples(args) -> list[tuple[float, float]]:
    """Set-up time (import, input generation, one warm-up operation) of
    SETUP_REPEATS fresh processes, each with the median reference time
    measured right after it."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        setup, reference = proc.stdout.split()[-2:]
        samples.append((float(setup), float(reference)))
    return samples


def measure(workload, seconds: float):
    """Closed loop of checked operations until seconds have passed and
    MIN_OPS operations are done, with the machine's speed sampled
    throughout; returns each operation's time at reference speed and
    wall time, its check, and the sampled reference times."""
    ops = []
    index = 1
    with speed.Sampler() as sampler:
        begin = time.perf_counter()
        while len(ops) < MIN_OPS or time.perf_counter() - begin < seconds:
            ops.append(run_op(workload, index))
            index += 1
    scaled = [sampler.scaled(start, end) for start, end, _ in ops]
    walls = [end - start for start, end, _ in ops]
    return scaled, walls, [i for *_, i in ops], sampler.reference_times()


def end_to_end(workload, args):
    samples = setup_samples(args)
    workload.warm_up()
    times, walls, infos, references = measure(workload, args.seconds)
    setups = [t * speed.REFERENCE_S / r for t, r in samples]
    ok = [i["ok"] for i in infos]
    latencies = sorted(t if good else float("inf")
                       for t, good in zip(times, ok))
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(ok) / sum(times),
        "latency_p50_ms": 1e3 * percentile(latencies, 0.5),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    fits = [i["phase_err"] for i in infos if "phase_err" in i]
    extra = {
        "ops": len(times),
        "latency_p90_ms": (1e3 * percentile(latencies, 0.9)
                           if len(times) >= P90_MIN_OPS else None),
        "failed_ratio": ok.count(False) / len(ok),
        "phase_err_p50_rad": statistics.median(fits) if fits else None,
        "wall_latency_p50_ms": 1e3 * statistics.median(walls),
        "wall_setup_s": statistics.median(t for t, _ in samples),
        "reference_p50_ms": 1e3 * statistics.median(references),
        "setup_samples_s": [list(s) for s in samples],
        "latencies_ms": [1e3 * t for t in times],
        "wall_latencies_ms": [1e3 * t for t in walls],
        "references_ms": [1e3 * t for t in references],
    }
    return metrics, dict(END_TO_END_UNITS), infos, extra


def traced(workload, args):
    # Imported here: tracing loads optiqft.cli and click, which the
    # untraced fit_default and calibrate_random runs must not pay for.
    import layers
    import tracing

    k = workload.trace_ops
    workload.warm_up()
    untraced = [run_op(workload, i) for i in range(1, k + 1)]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    workload.span = tracer.span
    try:
        passes = []
        for _ in range(2):
            tracer.reset()
            ops = [run_op(workload, i, tracer) for i in range(1, k + 1)]
            passes.append((ops, tracer.counts, tracer.spans))
        probe, probe_checks = layers.probe_times(args.seed, workload.workdir,
                                                 tracer)
    finally:
        tracer.restore()
    (ops_a, counts_a, spans_a), (ops_b, counts_b, _) = passes
    infos = [i for *_, i in untraced + ops_a + ops_b] + probe_checks
    infos_a = [i for *_, i in ops_a]
    metrics = layers.per_op(counts_a, spans_a, infos_a, k)
    metrics.update(probe)
    metrics["trace.overhead_ratio"] = (sum(e - s for s, e, _ in untraced)
                                       / sum(e - s for s, e, _ in ops_a))
    units = dict(layers.PER_LAYER)
    metrics = {name: metrics[name] for name in units}
    counts_match = counts_a == counts_b
    extra = {"ops_per_pass": k, "counts_match": counts_match,
             "counts": dict(sorted(counts_a.items())),
             "absent": sorted(set(tracer.absent))}
    if not counts_match:
        extra["counts_second_pass"] = dict(sorted(counts_b.items()))
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
    write_spans(spans_path, spans_a, counts_a)
    extra["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, units, infos, extra


def write_spans(path: Path, spans: list, counts):
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][1] if spans else 0.0
    path.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "op"],
        "names": names,
        "spans": [[index[s[0]], s[1] - t0, s[2] - t0, s[3], s[4]]
                  for s in spans],
        "counts": dict(sorted(counts.items())),
    }) + "\n")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "optiqft": optiqft.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": {v: os.environ[v] for v in sorted(os.environ)
                        if v.endswith("_NUM_THREADS")},
    }


def main(argv, t0: float) -> int:
    args = parse_args(argv)
    if optiqft.__file__ is None or ROOT not in Path(optiqft.__file__).parents:
        print(f"perfbench: optiqft imported from {optiqft.__file__}, not from "
              f"this checkout", file=sys.stderr)
        return 2
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            workload.warm_up()
            setup = time.perf_counter() - t0
            reference = speed.reference_median(SETUP_REFERENCE_REPEATS)
            print(f"{setup!r} {reference!r}")
            return 0
        run = traced if args.trace else end_to_end
        metrics, units, infos, extra = run(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [i for i in infos if not i["ok"]]
    correct = not failures and extra.get("counts_match", True)
    reported = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    record = {
        "workload": args.workload, "why": workload.why, "notes": NOTES,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "metrics": reported,
        "attempted": len(infos), "failed": len(failures),
        "failures": failures[:5], **extra,
    }
    record_path = RESULTS / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{workload.why}")
    print(f"  python {env['python']}, numpy {env['numpy']}, nproc "
          f"{env['nproc']}, threads {env['thread_pins']}")
    for name, value in metrics.items():
        print(f"  {name:38s} {value:14.6g} {units[name]}")
    for name in ("ops", "latency_p90_ms", "failed_ratio", "phase_err_p50_rad",
                 "wall_latency_p50_ms", "wall_setup_s", "reference_p50_ms",
                 "ops_per_pass", "counts_match", "absent"):
        if name in extra:
            print(f"  {name:38s} {extra[name]}")
    for failure in failures[:3]:
        print(f"  FAILED: {failure}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": bool(correct), "attempted": len(infos),
        "failed": len(failures), "metrics": reported,
    }))
    return 0
