"""Benchmark launcher for wrvc.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  A workload runs as one
closed-loop client in fresh single-threaded worker processes (worker.py),
one after another, with BLAS threading off, WRVC_THREADS unset and a fixed
hash seed.  With ``--trace 0`` the run reports the end-to-end metrics, with
times corrected for host speed by the workload's reference kernel (see
refkernels.py and host_reference.json); with ``--trace 1`` it reports
per-layer metrics from spans around the library's public functions (see
tracing.py).  Every op is checked against a reference outside the timed
region, and any failed op makes the run incorrect and the exit status 1.
``--workload all`` runs the four workloads in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full run record,
with raw values, sample counts and the machine description, goes to
``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

OUT_DIR = ROOT / ".perfbench_runs"
PROCESSES = 5
WORKLOADS = ("pointwise", "ambient", "quadrature", "verify")
RUN_LIMIT_S = 170


class RunError(Exception):
    """The run could not produce a valid measurement."""


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("WRVC_THREADS", "PYTHONPATH"):
        env.pop(key, None)
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    })
    return env


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "loadavg": list(os.getloadavg())}


def _worker(args, conf, seconds, min_ops, deadline):
    """Run one worker process; returns its record."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--min-ops", str(min_ops),
           "--trace", str(args.trace), "--kernel", conf["kernel"],
           "--ref-reps", str(conf["ref_reps"]), "--out", str(OUT_DIR)]
    t0 = time.monotonic()
    timeout = max(1.0, deadline - t0)
    cmd += ["--spawned", repr(t0)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise RunError(f"worker exited with status {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def run_one(args) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record).

    An untraced run splits its time over PROCESSES worker processes run one
    after another, so each also gives a set-up sample and no single
    process's memory layout decides the result; a traced run uses one.
    """
    if not (ROOT / "src" / "wrvc" / "__init__.py").is_file():
        raise RunError(f"no wrvc sources under {ROOT / 'src'}")
    conf = json.loads((HERE / "host_reference.json").read_text())[args.workload]
    nominal = conf["nominal_ref_ms"]
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", str(HERE)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    host_before = machine()

    procs = 1 if args.trace else PROCESSES
    min_ops = -(-stats.min_samples(50) // procs) * (2 if args.trace else 1)
    records = [_worker(args, conf, args.seconds / procs, min_ops, deadline)
               for _ in range(procs)]

    setups, raw_ms, corrected_ms, traced_ms, ref_all = [], [], [], [], []
    for rec in records:
        setups.append(rec["setup_s"] * stats.host_factor(nominal, rec["setup_ref_ms"]))
        # each op is corrected by the host speed measured around it
        local = stats.local_refs(rec["ref_gaps_ms"], conf["ref_window"])
        rec["op_local_ref_ms"] = local
        ref_all += [x for gap in rec["ref_gaps_ms"] for x in gap]
        traced = rec.get("op_traced") or [False] * len(local)
        for t, ok, on, ref in zip(rec["op_ms"], rec["op_ok"], traced, local):
            if ok and on:
                traced_ms.append(t)
            elif ok:
                raw_ms.append(t)
                corrected_ms.append(t * stats.host_factor(nominal, ref))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kernel": conf["kernel"], "nominal_ref_ms": nominal,
        "ref_window": conf["ref_window"], "measured_ref_ms": stats.median(ref_all),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "failure_reasons": [x for r in records for x in r["failure_reasons"]],
        "setups_corrected_s": setups,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        "accuracy_digits": min(r["accuracy_digits"] for r in records),
        "latency_raw": stats.latency_summary(raw_ms),
        "latency_corrected": stats.latency_summary(corrected_ms),
        "machine_before": host_before, "machine_after": machine(),
        "processes": records,
    }
    if args.workload == "verify":
        shas = {r["verify_stdout_sha256"] for r in records}
        record["verify_stdout_sha256"] = sorted(shas)
        if len(shas) > 1:
            record["failed"] += 1
            record["failure_reasons"].append("verify stdout differs between processes")
    record["failed_share"] = record["failed"] / record["attempted"]
    if not stats.reportable(len(raw_ms), 50) or (args.trace and not traced_ms):
        raise RunError(f"only {len(raw_ms)} untraced ops passed their checks: "
                       f"{record['failure_reasons'][:3]}")

    if args.trace:
        metrics = dict(records[0]["layer_metrics"])
        metrics["host.ref_kernel_ms"] = record["measured_ref_ms"]
        metrics["trace.overhead_pct"] = 100.0 * (
            stats.median(traced_ms) / stats.median(raw_ms) - 1.0)
    else:
        metrics = {
            "setup_s": stats.median(setups),
            "throughput_per_s": len(corrected_ms) / (sum(corrected_ms) / 1e3),
            "latency_p50_ms": record["latency_corrected"]["p50"],
            "peak_rss_mb": record["peak_rss_mb"],
            "accuracy_digits": record["accuracy_digits"],
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RunError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record))
    return result, record


def _print_table(workload, result, record):
    print(f"== {workload}: {record['attempted']} ops attempted, "
          f"{record['failed']} failed, reference {record['measured_ref_ms']:.4f} ms "
          f"({record['kernel']} kernel, nominal {record['nominal_ref_ms']} ms)")
    for reason in record["failure_reasons"][:10]:
        print(f"   FAILED {reason}")
    for name, m in result["metrics"].items():
        print(f"   {name:<42} {m['value']:>14.6g} {m['unit']}")
    print(f"   latency samples (raw ms): {record['latency_raw']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        args.workload = name
        try:
            result, record = run_one(args)
        except (RunError, subprocess.CalledProcessError, OSError, ValueError,
                KeyError, IndexError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        _print_table(name, result, record)
        results.append(result)
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}.{metric}": value
                        for name, r in zip(names, results)
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
