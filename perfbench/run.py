"""qmsflow benchmark: three closed-loop workloads that drive the qmsflow CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-d16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Each run starts fresh worker processes (`workload.py`) with the BLAS thread
variables set in their environment only. With `--trace 0` it reports the
end-to-end metrics: set-up time (median of five set-ups), median wall and
CPU time per op, and peak memory; times are scaled to the idle machine's
speed with the reference kernels of `speed.py`. With `--trace 1` it runs two
workers for half the budget each, one at `nproc` BLAS threads and one at a
single thread (`t1.` prefix). Each runs every op untraced and traced, in
ABBA order, and reports per-module self time and calls per traced op and
the tracing overhead. The last line of standard output is the JSON result;
the lines before it give the environment, raw times and every metric with
its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dense-d16", "geodesic-d4", "verify-small")
FUNCTIONS = (
    "generators.dual_semigroup",
    "generators.certify_detailed_balance",
    "generators.check_complete_positivity",
    "generators.commutant_dimension",
    "generators.build_generator",
    "linalg.choi",
    "linalg.sharp",
    "canonical.gks_matrix",
    "canonical.extract_canonical",
    "states.inner_s",
    "states.weight_superoperator_s",
    "entropy.entropy_trajectory",
    "entropy.entropy_production",
    "transport.geodesic_distance",
    "transport.metric_tensor",
    "transport.continuity_solve",
    "verify.run_suite",
)
SETUPS = 5
# Whole-run limit, under the 180 s a run may take.
RUN_LIMIT_S = 170.0


class HarnessError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_worker(workload, seed, seconds, work, *, trace=False, threads=None,
               corrupt_op=-1, deadline):
    """Runs one worker process to completion and returns its record."""
    threads = str(threads or nproc())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    record = Path(work) / f"record-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--work", str(work),
           "--record", str(record), "--corrupt-op", str(corrupt_op)]
    if trace:
        cmd.append("--trace")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("run time limit reached before a worker could start")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker exceeded the run time limit: {exc}") from exc
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(record.read_text())


def end_to_end(records) -> dict:
    """Times are divided by the worker's slowdown against its reference
    kernel (see speed.py): they read as seconds on the idle machine."""
    main = records[-1]
    ops = main["ops"]
    k = main["op_slowdown"]
    return {
        "setup_s": (statistics.median(r["setup_s"] / r["setup_slowdown"] for r in records), "s"),
        "wall_s": (statistics.median(o["wall_s"] for o in ops) / k, "s"),
        "cpu_s": (statistics.median(o["cpu_s"] for o in ops) / k, "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }


def layer_metrics(record, prefix="") -> dict:
    trace = record["trace"]
    traced = [o["wall_s"] for o in record["ops"] if o["traced"]]
    plain = [o["wall_s"] for o in record["ops"] if not o["traced"]]
    n = len(traced)
    calls, self_s = trace["calls"], trace["self_s"]
    out = {f"{prefix}trace.overhead_ratio": (sum(traced) / sum(plain), "ratio")}
    for layer in LAYERS:
        total = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
        out[f"{prefix}{layer}.self_s"] = (total / n, "s/op")
    for fn in FUNCTIONS:
        out[f"{prefix}{fn}.self_s"] = (self_s.get(fn, 0.0) / n, "s/op")
        out[f"{prefix}{fn}.calls"] = (calls.get(fn, 0) / n, "calls/op")
    solves = calls.get("transport.geodesic_distance", 0)
    iterations = trace["geodesic_iterations"]
    out[f"{prefix}transport.geodesic_distance.iterations"] = (
        iterations / solves if solves else 0.0, "iterations")
    out[f"{prefix}transport.geodesic_distance.action"] = (
        trace["geodesic_action"] / solves if solves else 0.0, "1")
    out[f"{prefix}transport.s_per_iteration"] = (
        trace["geodesic_s"] / iterations if iterations else 0.0, "s")
    out[f"{prefix}trace.coverage"] = (trace["top_level_s"] / sum(traced), "ratio")
    return out


def measure(workload, seed, seconds, trace, work, corrupt_op=-1):
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        half = seconds / 2.0
        records = [
            run_worker(workload, seed, half, work, trace=True, corrupt_op=corrupt_op,
                       deadline=deadline),
            run_worker(workload, seed, half, work, trace=True, threads=1, deadline=deadline),
        ]
        metrics = layer_metrics(records[0])
        metrics.update(layer_metrics(records[1], prefix="t1."))
    else:
        records = [run_worker(workload, seed, 0, work, deadline=deadline)
                   for _ in range(SETUPS - 1)]
        records.append(run_worker(workload, seed, seconds, work,
                                  corrupt_op=corrupt_op, deadline=deadline))
        metrics = end_to_end(records)
    ops = [o for r in records for o in r["ops"]]
    errors = [o["error"] for o in ops if o["error"]]
    notes = [f"worker {i}: raw set-up {r['setup_s']:.4g} s, set-up slowdown "
             f"{r['setup_slowdown']:.3f}"
             + (f", {r['wrapped']} functions wrapped" if "wrapped" in r else "")
             + (f", {len(r['ops'])} ops, raw median op wall "
                f"{statistics.median(o['wall_s'] for o in r['ops']):.4g} s, op slowdown "
                f"{r['op_slowdown']:.3f}" if r["ops"] else "")
             for i, r in enumerate(records)]
    return records[0]["env"], notes, ops, errors, metrics


def report(workload, env, notes, ops, errors, metrics) -> dict:
    failed = len(errors)
    print(f"# workload {workload}, {len(ops)} ops")
    print("# env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(f"# {note}")
    for e in errors[:10]:
        print(f"# failed op: {e}")
    print(f"# failed_frac {failed / len(ops):.4g} ({failed}/{len(ops)} ops)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def self_test(work) -> int:
    """Checks metric names and units against BENCHMARK.json, and that a
    corrupted output of each workload counts as a failed op."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        *_, errors, metrics = measure("verify-small", 1, 3, trace, work)
        declared = {m["name"]: m["unit"] for m in spec[key]}
        emitted = {name: unit for name, (_, unit) in metrics.items()}
        if declared != emitted:
            problems.append(f"{key}: declared and emitted names or units differ: "
                            f"{sorted(set(declared.items()) ^ set(emitted.items()))}")
        if errors:
            problems.append(f"{key}: clean run failed ops: {errors}")
    for workload in WORKLOADS:
        *_, ops, errors, _ = measure(workload, 1, 0.1, 0, work, corrupt_op=0)
        if len(errors) != 1 or len(ops) != 1:
            problems.append(f"{workload}: corrupted output gave {len(errors)} failed "
                            f"of {len(ops)} ops, expected 1 of 1")
        else:
            print(f"# {workload}: corrupted output counted as failed: {errors[0]}")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check metric names against BENCHMARK.json and failure counting")
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    if not (ROOT / "src" / "qmsflow" / "cli.py").is_file():
        print(f"error: no qmsflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.self_test:
            return self_test(work)
        result = report(args.workload, *measure(args.workload, args.seed, args.seconds,
                                                args.trace, work))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
