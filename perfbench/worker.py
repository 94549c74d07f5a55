"""One benchmark process: set up a workload, measure host speed, then run
the closed measurement loop.  Started by run.py; prints one JSON record as
its last line.

Set-up is everything from the launcher starting the process to the first
timed op: interpreter start, imports, building the inputs from the seed and
one untimed warm-up op.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import refkernels  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import wrvc  # noqa: E402
import workloads  # noqa: E402

SETUP_REF_MIN_REPS = 5
SETUP_REF_MAX_S = 0.5


def _check_import_root():
    source = Path(wrvc.__file__).resolve()
    if ROOT / "src" not in source.parents:
        sys.exit(f"error: wrvc imported from {source}, not from {ROOT / 'src'}")


def _attempt(workload, tally, i):
    """Run one op and its check; returns (seconds, digits or None)."""
    t0 = time.perf_counter()
    try:
        out = workload.op(i)
    except Exception as exc:  # every failure is counted, never dropped
        tally.record(f"op {i}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, None
    elapsed = time.perf_counter() - t0
    try:
        acc = workload.check(i, out)
    except Exception as exc:
        tally.record(f"check {i}: {type(exc).__name__}: {exc}")
        return elapsed, None
    tally.record(None)
    return elapsed, acc


def measure(workload, kernel, ref_reps, seconds, min_ops, traced):
    """Closed loop, one client: op, check, then reference-kernel samples.

    Runs for ``seconds`` and on until ``min_ops`` ops are done.  In a
    traced run, ops alternate between untraced and traced.
    """
    tracer = tracing.Tracer() if traced else None
    tally = stats.Tally()
    op_ms, op_ok, op_traced, acc = [], [], [], []
    ref_gaps = [refkernels.time_kernel(kernel, ref_reps)]
    start = time.perf_counter()
    deadline, hard = start + seconds, start + seconds + 60.0
    k = 0
    while True:
        now = time.perf_counter()
        if now >= hard or (now >= deadline and k >= min_ops):
            break
        i = k % len(workload.inputs)
        on = traced and k % 2 == 1
        if on:
            tracer.install(k)
        try:
            elapsed, digits = _attempt(workload, tally, i)
        finally:
            if on:
                tracer.uninstall()
        op_ms.append(elapsed * 1e3)
        op_ok.append(digits is not None)
        op_traced.append(on)
        if digits is not None:
            acc.append(digits)
        ref_gaps.append(refkernels.time_kernel(kernel, ref_reps))
        k += 1
    record = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failure_reasons": tally.reasons,
        "op_ms": op_ms,
        "op_ok": op_ok,
        "ref_gaps_ms": ref_gaps,
        "accuracy_digits": min(acc) if acc else 0.0,
        "loop_s": time.perf_counter() - start,
    }
    if traced:
        traced_ops = sum(op_traced)
        record["op_traced"] = op_traced
        record["traced_ops"] = traced_ops
        record["counters"] = tracer.counters
        record["span_count"] = len(tracer.spans)
        record["layer_metrics"] = tracing.layer_metrics(
            tracer.spans, tracer.counters, traced_ops)
        record["spans"] = tracer.spans
    return record


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--kernel", choices=sorted(refkernels.KERNELS), required=True)
    parser.add_argument("--ref-reps", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the launcher just before it "
                             "started this process")
    args = parser.parse_args(argv)
    _check_import_root()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    warm = stats.Tally()
    _attempt(workload, warm, 0)
    setup_s = time.monotonic() - args.spawned

    # host speed right after set-up, over about as long as set-up took
    kernel = refkernels.KERNELS[args.kernel]
    setup_ref = refkernels.time_kernel(kernel, SETUP_REF_MIN_REPS)
    stop = time.perf_counter() + min(setup_s, SETUP_REF_MAX_S)
    while time.perf_counter() < stop:
        setup_ref += refkernels.time_kernel(kernel, 1)
    record = measure(workload, kernel, args.ref_reps, args.seconds, args.min_ops,
                     bool(args.trace))
    record["setup_s"] = setup_s
    record["setup_ref_ms"] = stats.trimmed_mean(setup_ref)
    record["warmup_failures"] = warm.reasons
    record["attempted"] += warm.attempted
    record["failed"] += warm.failed
    record["failure_reasons"] = warm.reasons + record["failure_reasons"]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["numpy"] = np.__version__
    record["python"] = sys.version.split()[0]
    record["threads_env"] = {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS", "WRVC_THREADS", "PYTHONHASHSEED")}
    spans = record.pop("spans", None)
    if spans is not None:
        path = args.out / f"{args.workload}-seed{args.seed}-spans.json"
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": spans}))
        record["spans_file"] = str(path.relative_to(ROOT))
    if args.workload == "verify":
        record["verify_seed"] = workload.verify_seed
        record["verify_stdout_sha256"] = workload.stdout_sha256
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
