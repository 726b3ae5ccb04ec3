"""One benchmark process: write seeded inputs, then drive the qmsflow CLI.

Run by `run.py` with the thread variables already set in its environment.
It times set-up (importing qmsflow and writing the inputs), then runs one
closed-loop client: ops back to back until the time budget is spent. Each
op's outputs are checked after its timing stops, and after each CLI call a
reference kernel (`speed.py`) gauges the machine's current speed. The
record is written as JSON to the path given by `--record`.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import qmsflow  # noqa: E402
from qmsflow import cli, models, serialize  # noqa: E402

import speed  # noqa: E402

# Inputs are drawn for this many ops and reused cyclically beyond it.
POOL = 48
# Pinned acceptance tolerances: canonical round trip and decay bounds.
ROUNDTRIP_TOL = 1e-9
BOUND_TOL = 1e-10
# The monotonicity slack the verify suite itself allows.
MONOTONE_TOL = 1e-11
EVOLVE_POINTS = 31
EVOLVE_GRID = f"0:3:{EVOLVE_POINTS}"
GEODESIC_SEGMENTS = "4"
VERIFY_CHECKS = 26


class CheckFailed(Exception):
    pass


def _rng(seed: int, *stream: int):
    return np.random.default_rng([seed, *stream])


def _dump(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"unreadable output {os.path.basename(path)}: {exc}") from exc


def check_inspect(path: str):
    report = _load_json(path)
    try:
        _require(report["certification"]["gns_dbc"] is True, "inspect: gns_dbc is not true")
        _require(report["completely_positive"] is True, "inspect: not completely positive")
        err = float(report["canonical"]["roundtrip_error"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"inspect: missing field {exc}") from exc
    _require(err <= ROUNDTRIP_TOL, f"inspect: roundtrip_error {err:.3e} > {ROUNDTRIP_TOL}")


def check_evolve(path: str, points: int, bounded: bool):
    """Parses the trajectory CSV here rather than with qmsflow, so the check
    is independent of the program and no traced function runs outside ops."""
    try:
        with open(path) as fh:
            header, *lines = fh.read().splitlines()
        rows = [line.split(",") for line in lines]
        entropy = [float(r[1]) for r in rows]
        bound = [float(r[3]) if r[3] else None for r in rows]
    except (OSError, ValueError, IndexError) as exc:
        raise CheckFailed(f"evolve: unreadable CSV: {exc}") from exc
    _require(header == "t,entropy,production,exp_bound,production_bound",
             f"evolve: header {header!r}")
    _require(len(rows) == points, f"evolve: {len(rows)} rows, expected {points}")
    for k in range(1, points):
        _require(entropy[k] <= entropy[k - 1] + MONOTONE_TOL, f"evolve: entropy rises at row {k}")
    if bounded:
        for k in range(points):
            _require(bound[k] is not None, "evolve: exp_bound column is empty")
            _require(entropy[k] <= bound[k] + BOUND_TOL, f"evolve: entropy above exp_bound at row {k}")


def check_geodesic(path: str):
    out = _load_json(path)
    try:
        converged = out["converged"]
        distance, action = float(out["distance"]), float(out["action"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"geodesic: missing field {exc}") from exc
    _require(converged is True, "geodesic: not converged")
    _require(math.isfinite(action) and action > 0, f"geodesic: action {action!r}")
    _require(math.isclose(distance * distance, action, rel_tol=1e-12),
             f"geodesic: distance^2 {distance * distance!r} != action {action!r}")


def check_verify(path: str, seed: int):
    try:
        with open(path) as fh:
            last = fh.read().splitlines()[-1]
    except (OSError, IndexError) as exc:
        raise CheckFailed(f"verify: unreadable report: {exc}") from exc
    expected = f"OK {VERIFY_CHECKS} checks, seed {seed}"
    _require(last == expected, f"verify: summary {last!r}, expected {expected!r}")


# ---------------------------------------------------------------------------
# workloads: set-up writes the inputs; each op is a list of CLI calls plus
# the checks of their outputs
# ---------------------------------------------------------------------------


def setup_dense(work: str, seed: int):
    fermi = models.fermi_ou(4, 1.0, [1.0, 1.3, 1.7, 2.2])
    specs = [
        (_dump(f"{work}/fermi4.json", serialize.spec_to_json(fermi.spec)),
         ["--decay-rate", repr(fermi.decay_rate())]),
        (_dump(f"{work}/random16.json",
               serialize.spec_to_json(models.random_dbc_spec(16, _rng(seed, 1), ergodic=True))),
         []),
    ]
    ops = []
    for i in range(POOL):
        rng = _rng(seed, 2, i)
        calls, checks = [], []
        for k, (spec, extra) in enumerate(specs):
            rho = _dump(f"{work}/rho16_{i}_{k}.json",
                        serialize.density_to_json(models.random_density(16, rng)))
            ins, evo = f"{work}/inspect_{k}.json", f"{work}/evolve_{k}.csv"
            calls.append((["inspect", "--input", spec, "--output", ins], ins))
            calls.append((["evolve", "--input", spec, "--rho0", rho, "--grid", EVOLVE_GRID,
                           *extra, "--output", evo], evo))
            checks.append(lambda ins=ins: check_inspect(ins))
            checks.append(lambda evo=evo, b=bool(extra): check_evolve(evo, EVOLVE_POINTS, b))
        ops.append((calls, checks))
    return ops


def setup_geodesic(work: str, seed: int):
    spec = _dump(f"{work}/fermi2.json",
                 serialize.spec_to_json(models.fermi_ou(2, 1.0, [1.0, 2.0]).spec))
    out = f"{work}/geodesic.json"
    ops = []
    for i in range(POOL):
        rho = _dump(f"{work}/rho4_{i}.json",
                    serialize.density_to_json(models.random_density(4, _rng(seed, 2, i))))
        argv = ["geodesic", "--input", spec, "--rho0", rho,
                "--segments", GEODESIC_SEGMENTS, "--output", out]
        ops.append(([(argv, out)], [lambda: check_geodesic(out)]))
    return ops


def setup_verify(work: str, seed: int):
    out = f"{work}/verify.txt"
    ops = []
    for i in range(POOL):
        s = int(_rng(seed, 3, i).integers(0, 2**31))
        argv = ["verify", "--seed", str(s), "--output", out]
        ops.append(([(argv, out)], [lambda s=s: check_verify(out, s)]))
    return ops


WORKLOADS = {
    "dense-d16": setup_dense,
    "geodesic-d4": setup_geodesic,
    "verify-small": setup_verify,
}
OP_KERNELS = {
    "dense-d16": speed.lapack_kernel,
    "geodesic-d4": speed.python_kernel,
    "verify-small": speed.python_kernel,
}
# Python-kernel samples that gauge the machine right after set-up.
SETUP_SAMPLES = 5


def run_op(calls, checks, corrupt: bool, gauge):
    """Times the CLI calls of one op, then checks their outputs.

    After each call the gauge samples the machine's speed, outside the
    timed region, so its samples spread over the op's duration.
    """
    wall = cpu = 0.0
    codes = []
    error = None
    for argv, _ in calls:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            codes.append(cli.main(argv))
        except (Exception, SystemExit) as exc:  # an op that crashes is a failed op
            error = f"{argv[0]}: {type(exc).__name__}: {exc}"
        call_wall = time.perf_counter() - wall0
        wall, cpu = wall + call_wall, cpu + time.process_time() - cpu0
        gauge.sample(call_wall)
        if error is not None:
            break
    if corrupt:
        with open(calls[0][1], "w") as fh:
            fh.write("corrupted\n")
    if error is None:
        bad = [(argv[0], rc) for (argv, _), rc in zip(calls, codes) if rc != 0]
        if bad:
            error = f"unexpected exit codes {bad}"
    if error is None:
        try:
            for check in checks:
                check()
        except CheckFailed as exc:
            error = str(exc)
    return {"wall_s": wall, "cpu_s": cpu, "error": error}


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qmsflow": qmsflow.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="op budget; 0 stops after set-up")
    p.add_argument("--work", required=True, help="directory for generated inputs and outputs")
    p.add_argument("--record", required=True, help="where to write the JSON record")
    p.add_argument("--trace", action="store_true",
                   help="run every op untraced and traced (public qmsflow functions wrapped)")
    p.add_argument("--corrupt-op", type=int, default=-1,
                   help="overwrite this op's first output before checking (harness self-test)")
    args = p.parse_args(argv)

    os.makedirs(args.work, exist_ok=True)
    ops = WORKLOADS[args.workload](args.work, args.seed)
    record = {"setup_s": time.perf_counter() - _T0, "env": environment(args.seed), "ops": []}

    tracer = None
    if args.trace:
        from tracer import Tracer, bind, install

        tracer = Tracer()
        bindings = install(tracer)
        record["wrapped"] = len({id(w) for *_, w in bindings})

    # Set-up is mostly imports, so the Python kernel gauges it.
    setup_gauge = speed.Gauge(speed.python_kernel)
    setup_gauge.sample(at_least=SETUP_SAMPLES)
    record["setup_slowdown"] = setup_gauge.slowdown()
    op_gauge = speed.Gauge(OP_KERNELS[args.workload])

    start = time.perf_counter()
    i = 0
    while args.seconds > 0:
        calls, checks = ops[i % POOL]
        # Traced workers run each op untraced and traced, in ABBA order, so
        # the overhead ratio compares the same inputs at nearly the same time.
        order = ((False, True) if i % 2 == 0 else (True, False)) if tracer else (False,)
        for traced in order:
            if tracer:
                bind(bindings, traced)
            op = run_op(calls, checks, len(record["ops"]) == args.corrupt_op, op_gauge)
            op["traced"] = traced
            record["ops"].append(op)
        if tracer:
            bind(bindings, False)
        i += 1
        # Start another op only if it should end within half an op of the
        # budget, so a run overshoots by less than one op on average.
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / i > args.seconds:
            break

    if record["ops"]:
        record["op_slowdown"] = op_gauge.slowdown()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["trace"] = {
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "top_level_s": tracer.top_level_s,
            "geodesic_s": tracer.geodesic_s,
            "geodesic_iterations": tracer.geodesic_iterations,
            "geodesic_action": tracer.geodesic_action,
        }
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
