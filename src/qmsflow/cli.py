"""Command-line front end.

Subcommands: inspect, evolve, metric, geodesic, restrict, zoo, verify.
Exit codes: 0 on success, 1 on a semantic failure (certification or
verification did not pass; reports are still written), 2 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

import numpy as np

from . import serialize
from .canonical import extract_canonical
from .entropy import entropy_trajectory
from .generators import (
    GNS_FLAG_TOL,
    PSD_TOL,
    GeneratorSpec,
    Superoperator,
    certify_detailed_balance,
    check_complete_positivity,
    ergodicity,
    modular_subalgebra,
    restrict_to_commutative,
)
from .models import (
    depolarizing,
    fermi_ou,
    fermi_ou_infinite,
    hypercube_restriction,
    kms_counterexample,
    printed_hypercube_rates,
)
from .serialize import (
    density_from_json,
    dump_json,
    matrix_from_json,
    matrix_json_dim,
    rate_matrix_to_json,
    spec_from_json,
    spec_to_json,
    trajectory_to_csv,
    write_text_atomic,
)
from .transport import geodesic_distance, metric_tensor
from .linalg import traceless_hermitian_basis
from .states import DensityState
from .verify import run_suite

DEFAULT_TOLERANCES = {
    "gns_flag": GNS_FLAG_TOL,
    "psd": PSD_TOL,
}


class InputError(Exception):
    pass


def _load_json(path: str, convert):
    """``convert`` of the JSON in the file ``path``, with the cyclic garbage
    collector paused until the parsed tree has been converted and dropped.
    That matters only for a file of nested matrices (a packed matrix is one
    string): its rows and cells make hundreds of thousands of containers,
    none of them in a cycle, and each collection the allocations trigger
    would walk them all.  A file that cannot be read, is not UTF-8 or is
    not JSON is an input error naming ``path``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as fh:
            return convert(json.load(fh))
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except OSError as exc:  # a directory, no permission
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text (byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}") from exc
    finally:
        if enabled:
            gc.enable()


def _spec_or_superop(obj):
    """The admitted L of the input: a GeneratorSpec of jump data or a
    Superoperator; what admission refuses is an input error."""
    if not isinstance(obj, dict):
        raise InputError("input must be a JSON object")
    try:
        if "jumps" in obj:
            return spec_from_json(obj)
        if "superoperator" in obj:
            if "sigma" not in obj:
                raise InputError("superoperator input must carry 'sigma'")
            sigma = density_from_json(obj, "sigma")
            rows = obj["superoperator"]
            # refused before its n^4 cells are converted or decoded
            count = matrix_json_dim(rows)
            if count is not None and count != sigma.dim**2:
                raise InputError(f"superoperator has {count} rows, not n^2 = {sigma.dim**2} "
                                 f"for sigma of dim n = {sigma.dim}")
            return Superoperator(sigma, matrix_from_json(rows))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    raise InputError("input must carry either 'jumps' or 'superoperator'")


def _load_spec(path: str, command: str):
    """The spec of ``path``; a superoperator is an input error for ``command``."""
    spec = _load_json(path, _spec_or_superop)
    if not isinstance(spec, GeneratorSpec):
        raise InputError(f"{command} needs a jump specification input")
    return spec


def _load_side_file(path: str, spec, parse):
    """Parses a --rho0/--rho/--rho1/--projections file with ``parse`` into a
    DensityState or a list of matrices; malformed content and a dimension
    other than the spec's are input errors."""
    try:
        obj = _load_json(path, parse)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    for m in [obj.rho] if isinstance(obj, DensityState) else obj:
        if m.shape != (spec.dim, spec.dim):
            raise InputError(f"{path}: a {m.shape[0]} x {m.shape[1]} matrix for a spec of dim {spec.dim}")
    return obj


def _projections_from_json(obj) -> list:
    if not isinstance(obj, list):
        raise ValueError("projections JSON must be a list of matrices")
    return [matrix_from_json(p) for p in obj]


def _write_output(args, text: str):
    if args.output:
        try:
            write_text_atomic(args.output, text)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise InputError(f"cannot write {args.output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _parse_grid(text: str):
    try:
        t0, t1, steps = text.split(":")
        t0, t1, steps = float(t0), float(t1), int(steps)
    except ValueError as exc:
        raise InputError(f"grid must be t0:t1:steps, got {text!r}") from exc
    if steps < 1 or not np.all(np.isfinite([t0, t1])) or t1 < t0 or t0 < 0:
        raise InputError(f"bad grid {text!r}")
    return np.linspace(t0, t1, steps)


def _parse_tols(pairs):
    out = dict(DEFAULT_TOLERANCES)
    for item in pairs or []:
        if "=" not in item:
            raise InputError(f"tolerance must be name=value, got {item!r}")
        name, val = item.split("=", 1)
        if name not in DEFAULT_TOLERANCES:
            raise InputError(f"unknown tolerance {name!r}; known: {', '.join(DEFAULT_TOLERANCES)}")
        try:
            out[name] = _positive(float(val), f"tolerance {name}")
        except ValueError as exc:
            raise InputError(f"bad tolerance value in {item!r}") from exc
    return out


def _positive(val: float, what: str) -> float:
    if not (np.isfinite(val) and val > 0):
        raise InputError(f"{what} must be finite and positive, got {val!r}")
    return val


def _model(build, *args):
    """``build(*args)``, with a model argument out of its range an input error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_inspect(args) -> int:
    tols = _parse_tols(args.tol)
    # one admitted L, a spec or a superoperator, whose reads the three checks share
    l = _load_json(args.input, _spec_or_superop)
    cert = certify_detailed_balance(l, tol=tols["gns_flag"])
    report = {"certification": cert.as_dict()}
    try:
        cp_ok, min_eig = check_complete_positivity(l, psd_tol=tols["psd"])
    except ValueError as exc:
        cp_ok, min_eig = False, None
        report["cp_error"] = str(exc)
    report["completely_positive"] = cp_ok
    report["reduced_min_eigenvalue"] = min_eig
    if isinstance(l, GeneratorSpec):
        report["ergodicity"] = ergodicity(l)
    ok = cert.gns_dbc and cp_ok
    if ok:
        try:
            extracted, ext_report = extract_canonical(l, psd_tol=tols["psd"], tol=tols["gns_flag"])
            report["canonical"] = ext_report.as_dict()
            report["canonical"]["jump_count"] = extracted.njumps
            report["canonical"]["omegas"] = sorted(float(w) for w in extracted.omegas())
        except ValueError as exc:
            report["canonical_error"] = str(exc)
            ok = False
    _write_output(args, dump_json(report))
    return 0 if ok else 1


def cmd_evolve(args) -> int:
    spec = _load_spec(args.input, "evolve")
    rho0 = _load_side_file(args.rho0, spec, density_from_json) if args.rho0 else spec.sigma
    grid = _parse_grid(args.grid)
    lam = None if args.decay_rate is None else _positive(args.decay_rate, "--decay-rate")
    rows = entropy_trajectory(spec, rho0, grid, lam=lam)
    _write_output(args, trajectory_to_csv(rows))
    return 0


def cmd_metric(args) -> int:
    spec = _load_spec(args.input, "metric")
    rho = _load_side_file(args.rho, spec, density_from_json) if args.rho else spec.sigma
    basis = traceless_hermitian_basis(spec.dim)
    g = metric_tensor(spec, rho, basis)
    evals = np.linalg.eigvalsh(g)
    out = {
        "dim": spec.dim,
        "tensor": [[float(x) for x in row] for row in g],
        "eigenvalues": [float(x) for x in evals],
        "min_eigenvalue": float(evals[0]),
    }
    _write_output(args, dump_json(out))
    return 0


def cmd_geodesic(args) -> int:
    if args.segments < 1:
        raise InputError(f"--segments must be at least 1, got {args.segments}")
    if args.budget < 0:
        raise InputError(f"--budget must be nonnegative, got {args.budget}")
    spec = _load_spec(args.input, "geodesic")
    rho0 = _load_side_file(args.rho0, spec, density_from_json)
    rho1 = _load_side_file(args.rho1, spec, density_from_json) if args.rho1 else spec.sigma
    res = geodesic_distance(spec, rho0, rho1, segments=args.segments, max_iter=args.budget)
    out = res.as_dict()
    out["path"] = [serialize.matrix_to_json(p) for p in res.path]
    _write_output(args, dump_json(out))
    return 0 if res.converged else 1


def cmd_restrict(args) -> int:
    spec = _load_spec(args.input, "restrict")
    if args.projections:
        projs = _load_side_file(args.projections, spec, _projections_from_json)
    else:
        try:
            projs = modular_subalgebra(spec.sigma)
        except ValueError as exc:
            raise InputError(f"{exc}, so it has no default projections: give them with --projections") from exc
    try:
        rate = restrict_to_commutative(spec, projs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _write_output(args, dump_json(rate_matrix_to_json(rate)))
    return 0


# the zoo flags each model reads; any other flag given is an input error
ZOO_FLAGS = {"fermi": ("m", "beta", "energies", "rates"), "fermi-infinite": ("m",), "depolarizing": ("m",),
             "kms-counterexample": ()}


def cmd_zoo(args) -> int:
    unread = [f"--{flag}" for flag in ("m", "beta", "energies", "rates")
              if getattr(args, flag) is not None and flag not in ZOO_FLAGS[args.model]]
    if unread:
        raise InputError(f"--model {args.model} does not read {', '.join(unread)}")
    m = 1 if args.m is None else args.m
    if args.model == "fermi":
        beta = 1.0 if args.beta is None else args.beta
        energies = args.energies.split(",") if args.energies else [1.0] * m
        model = _model(fermi_ou, m, beta, energies)
        out = spec_to_json(model.spec)
        out["model"] = "fermi"
        out["beta"] = beta
        out["energies"] = model.energies.tolist()
        out["krawtchouk_eigenvalues"] = sorted(
            float(model.krawtchouk_eigenvalue(al))
            for al in _all_krawtchouk_indices(m)
        )
        if args.rates:
            rate = hypercube_restriction(model)
            out["hypercube"] = rate_matrix_to_json(
                rate, extra={"rate_comparison": printed_hypercube_rates(model)}
            )
    elif args.model == "fermi-infinite":
        out = spec_to_json(_model(fermi_ou_infinite, m))
        out["model"] = "fermi-infinite"
    elif args.model == "depolarizing":
        out = spec_to_json(_model(depolarizing, m))
        out["model"] = "depolarizing"
    else:  # kms-counterexample
        u = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        v1 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        v2 = np.array([1.0, 2.0]) / np.sqrt(5.0)
        lmat, sigma, report = kms_counterexample(u, v1, v2)
        out = {
            "model": "kms-counterexample",
            "dim": 2,
            "sigma": serialize.matrix_to_json(sigma.rho),
            "superoperator": serialize.matrix_to_json(lmat),
            "report": report,
        }
    _write_output(args, dump_json(out))
    return 0


def _all_krawtchouk_indices(m: int):
    singles = [(0, 0), (1, 0), (0, 1), (1, 1)]
    out = [()]
    for _ in range(m):
        out = [prev + (s,) for prev in out for s in singles]
    return out


def cmd_verify(args) -> int:
    ok, lines = run_suite(args.seed)
    text = "\n".join(lines) + "\n"
    summary = f"{'OK' if ok else 'FAILED'} {len(lines)} checks, seed {args.seed}\n"
    _write_output(args, text + summary)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    :func:`main` call in the process."""
    parser = argparse.ArgumentParser(
        prog="qmsflow",
        description="Detailed-balance quantum Markov semigroups: certification, "
        "canonical forms, entropy flow, and the transport metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", help="write result to this path (atomic)")

    p = sub.add_parser("inspect", help="certify detailed balance and extract the canonical form")
    p.add_argument("--input", required=True, help="spec JSON or superoperator+sigma JSON")
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help=f"override a tolerance ({', '.join(DEFAULT_TOLERANCES)})")
    add_common(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("evolve", help="entropy/production trajectory CSV along the dual flow")
    p.add_argument("--input", required=True)
    p.add_argument("--rho0", help="initial state JSON (default: the invariant state)")
    p.add_argument("--grid", default="0:1:11", help="time grid t0:t1:steps")
    p.add_argument("--decay-rate", type=float, default=None, help="decay constant for bound columns")
    add_common(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("metric", help="coordinate metric tensor at a state")
    p.add_argument("--input", required=True)
    p.add_argument("--rho", help="state JSON (default: the invariant state)")
    add_common(p)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("geodesic", help="transport distance between states: sqrt of the minimized "
                       "K-segment midpoint action, which approaches the continuum "
                       "value from below as K grows")
    p.add_argument("--input", required=True)
    p.add_argument("--rho0", required=True)
    p.add_argument("--rho1", help="default: the invariant state")
    p.add_argument("--segments", type=int, default=16, help="K, the number of path segments")
    p.add_argument("--budget", type=int, default=400, help="Newton step budget")
    add_common(p)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("restrict", help="classical rate matrix on an invariant abelian algebra")
    p.add_argument("--input", required=True)
    p.add_argument("--projections", help="JSON list of projection matrices (default: spectral)")
    add_common(p)
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("zoo", help="emit a model specification as JSON")
    p.add_argument("--model", required=True, choices=list(ZOO_FLAGS))
    p.add_argument("--m", type=int, help="mode count / generator count / dimension (default 1)")
    p.add_argument("--beta", type=float, help="inverse temperature, fermi only (default 1)")
    p.add_argument("--energies", help="comma-separated mode energies, fermi only")
    p.add_argument("--rates", action="store_true", default=None, help="include the hypercube restriction, fermi only")
    add_common(p)
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser("verify", help="run every module's invariant suite")
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized checks")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
