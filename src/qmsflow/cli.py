"""Command-line front end.

Subcommands: inspect, evolve, metric, geodesic, restrict, zoo, verify.
Exit codes: 0 on success, 1 on a semantic failure (certification or
verification did not pass; reports are still written), 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import serialize
from .canonical import extract_canonical
from .entropy import entropy_trajectory
from .generators import (
    certify_detailed_balance,
    check_complete_positivity,
    ergodicity,
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
    rate_matrix_to_json,
    spec_from_json,
    spec_to_json,
    trajectory_to_csv,
    write_text_atomic,
)
from .transport import geodesic_distance, metric_tensor
from .linalg import check_finite, traceless_hermitian_basis
from .states import DensityState, build_modular_basis
from .verify import run_suite

DEFAULT_TOLERANCES = {
    "gns_flag": 1e-9,
    "psd": 1e-10,
}


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}") from exc


def _load_spec_or_superop(path: str):
    """Returns (spec, None, sigma) for jump data, (None, superoperator, sigma) otherwise."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise InputError("input must be a JSON object")
    try:
        if "jumps" in obj:
            spec = spec_from_json(obj)
            return spec, None, spec.sigma
        if "superoperator" in obj:
            if "sigma" not in obj:
                raise InputError("superoperator input must carry 'sigma'")
            sigma = density_from_json({"rho": obj["sigma"]})
            rows = obj["superoperator"]
            # refused before its n^4 cells are converted
            if isinstance(rows, list) and len(rows) != sigma.dim**2:
                raise InputError(f"superoperator has {len(rows)} rows, not n^2 = {sigma.dim**2} "
                                 f"for sigma of dim n = {sigma.dim}")
            return None, check_finite(matrix_from_json(rows), "superoperator"), sigma
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    raise InputError("input must carry either 'jumps' or 'superoperator'")


def _load_side_file(path: str, spec, parse):
    """Parses a --rho0/--rho/--rho1/--projections file with ``parse`` into a
    DensityState or a list of matrices; malformed content and a dimension
    other than the spec's are input errors."""
    try:
        obj = parse(_load_json(path))
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
        write_text_atomic(args.output, text)
    else:
        sys.stdout.write(text)


def _parse_grid(text: str):
    try:
        t0, t1, steps = text.split(":")
        t0, t1, steps = float(t0), float(t1), int(steps)
    except ValueError as exc:
        raise InputError(f"grid must be t0:t1:steps, got {text!r}") from exc
    if steps < 1 or t1 < t0 or t0 < 0:
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
            out[name] = float(val)
        except ValueError as exc:
            raise InputError(f"bad tolerance value in {item!r}") from exc
    return out


def cmd_inspect(args) -> int:
    tols = _parse_tols(args.tol)
    spec, l, sigma = _load_spec_or_superop(args.input)
    # one route for both input kinds: a spec on its Bohr blocks, a superoperator as one block
    generator = l if spec is None else spec
    cert = certify_detailed_balance(generator, sigma, tol=tols["gns_flag"])
    report = {"certification": cert.as_dict()}
    # a superoperator's complete positivity and extraction share sigma's modular basis
    modular = build_modular_basis(sigma) if spec is None else None
    try:
        cp_ok, min_eig = check_complete_positivity(
            generator, psd_tol=tols["psd"], l_norm=cert.l_norm, modular=modular
        )
    except ValueError as exc:
        cp_ok, min_eig = False, float("nan")
        report["cp_error"] = str(exc)
    report["completely_positive"] = cp_ok
    report["reduced_min_eigenvalue"] = min_eig
    if spec is not None:
        report["ergodicity"] = ergodicity(spec)
    ok = cert.gns_dbc and cp_ok
    if ok:
        try:
            extracted, ext_report = extract_canonical(
                generator, sigma, modular=modular, certification=cert, psd_tol=tols["psd"],
                complete_positivity=(cp_ok, min_eig),
            )
            report["canonical"] = ext_report.as_dict()
            report["canonical"]["jump_count"] = extracted.njumps
            report["canonical"]["omegas"] = sorted(float(w) for w in extracted.omegas())
        except ValueError as exc:
            report["canonical_error"] = str(exc)
            ok = False
    _write_output(args, dump_json(report))
    return 0 if ok else 1


def cmd_evolve(args) -> int:
    spec, _, _ = _load_spec_or_superop(args.input)
    if spec is None:
        raise InputError("evolve needs a jump specification input")
    rho0 = _load_side_file(args.rho0, spec, density_from_json) if args.rho0 else spec.sigma
    grid = _parse_grid(args.grid)
    lam = args.decay_rate
    rows = entropy_trajectory(spec, rho0, grid, lam=lam)
    _write_output(args, trajectory_to_csv(rows))
    return 0


def cmd_metric(args) -> int:
    spec, _, _ = _load_spec_or_superop(args.input)
    if spec is None:
        raise InputError("metric needs a jump specification input")
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
    spec, _, _ = _load_spec_or_superop(args.input)
    if spec is None:
        raise InputError("geodesic needs a jump specification input")
    rho0 = _load_side_file(args.rho0, spec, density_from_json)
    rho1 = _load_side_file(args.rho1, spec, density_from_json) if args.rho1 else spec.sigma
    res = geodesic_distance(spec, rho0, rho1, segments=args.segments, max_iter=args.budget)
    out = res.as_dict()
    out["path"] = [serialize.matrix_to_json(p) for p in res.path]
    _write_output(args, dump_json(out))
    return 0 if res.converged else 1


def cmd_restrict(args) -> int:
    spec, _, _ = _load_spec_or_superop(args.input)
    if spec is None:
        raise InputError("restrict needs a jump specification input")
    if args.projections:
        projs = _load_side_file(args.projections, spec, _projections_from_json)
    else:
        from .generators import modular_subalgebra

        projs = modular_subalgebra(spec.sigma)
    try:
        rate = restrict_to_commutative(spec, projs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _write_output(args, dump_json(rate_matrix_to_json(rate)))
    return 0


def cmd_zoo(args) -> int:
    if args.model == "fermi":
        energies = [float(x) for x in args.energies.split(",")] if args.energies else [1.0] * args.m
        model = fermi_ou(args.m, args.beta, energies)
        out = spec_to_json(model.spec)
        out["model"] = "fermi"
        out["beta"] = args.beta
        out["energies"] = energies
        out["krawtchouk_eigenvalues"] = sorted(
            float(model.krawtchouk_eigenvalue(al))
            for al in _all_krawtchouk_indices(args.m)
        )
        if args.rates:
            rate = hypercube_restriction(model)
            out["hypercube"] = rate_matrix_to_json(
                rate, extra={"rate_comparison": printed_hypercube_rates(model)}
            )
    elif args.model == "fermi-infinite":
        spec = fermi_ou_infinite(args.m)
        out = spec_to_json(spec)
        out["model"] = "fermi-infinite"
    elif args.model == "depolarizing":
        out = spec_to_json(depolarizing(args.m))
        out["model"] = "depolarizing"
    elif args.model == "kms-counterexample":
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
    else:
        raise InputError(f"unknown model {args.model!r}")
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--model", required=True,
                   choices=["fermi", "fermi-infinite", "depolarizing", "kms-counterexample"])
    p.add_argument("--m", type=int, default=1, help="mode count / generator count / dimension")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--energies", help="comma-separated mode energies")
    p.add_argument("--rates", action="store_true", help="include the hypercube restriction")
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
