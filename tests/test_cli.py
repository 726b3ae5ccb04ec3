import functools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmsflow import canonical, entropy, generators
from qmsflow.cli import main
from qmsflow.generators import GeneratorSpec
from qmsflow.linalg import dag
from qmsflow.models import depolarizing, fermi_ou, random_dbc_spec
from qmsflow.states import DensityState
from qmsflow.serialize import (
    density_from_json,
    density_to_json,
    dump_json,
    matrix_from_json,
    matrix_to_json,
    spec_from_json,
    spec_to_json,
)
from conftest import near_degenerate_spec, random_matrix


@pytest.fixture
def fermi_spec_file(tmp_path):
    model = fermi_ou(1, 1.0, [1.0])
    path = tmp_path / "fermi.json"
    path.write_text(dump_json(spec_to_json(model.spec)))
    return str(path)


class TestSerialization:
    def test_matrix_roundtrip(self, rng):
        a = random_matrix(rng, 3)
        back = matrix_from_json(matrix_to_json(a))
        assert np.allclose(back, a)

    def test_density_roundtrip(self, rng):
        from qmsflow.models import random_density

        rho = random_density(3, rng)
        back = density_from_json(density_to_json(rho))
        assert np.allclose(back.rho, rho.rho)

    def test_spec_roundtrip(self, rng):
        from qmsflow.models import random_dbc_spec

        spec = random_dbc_spec(3, rng)
        back = spec_from_json(spec_to_json(spec))
        assert back.njumps == spec.njumps
        for (v1, w1), (v2, w2) in zip(back.jumps, spec.jumps):
            assert np.allclose(v1, v2)
            assert w1 == w2

    def test_density_validation_reports_defect(self):
        bad = {"dim": 2, "rho": matrix_to_json(np.eye(2))}
        with pytest.raises(ValueError, match="trace"):
            density_from_json(bad)

    @pytest.mark.parametrize("dim", [None, [2], 3, "two", float("inf"), float("nan")])
    def test_density_rejects_bad_dim(self, dim):
        with pytest.raises(ValueError, match="dim"):
            density_from_json({"dim": dim, "rho": matrix_to_json(np.eye(2) / 2)})

    def test_matrix_rejects_ragged(self):
        with pytest.raises(ValueError):
            matrix_from_json([[[1, 0]], [[1, 0], [0, 0]]])

    def test_trajectory_csv_roundtrip(self, fermi_spec_file, rng):
        from qmsflow.entropy import entropy_trajectory
        from qmsflow.models import random_density
        from qmsflow.serialize import trajectory_from_csv, trajectory_to_csv

        spec = spec_from_json(json.loads(open(fermi_spec_file).read()))
        rho = random_density(2, rng)
        rows = entropy_trajectory(spec, rho, [0.0, 0.5, 1.0], lam=1.0)
        back = trajectory_from_csv(trajectory_to_csv(rows))
        for a, b in zip(rows, back):
            assert a.t == b.t
            assert a.entropy == b.entropy
            assert a.production == b.production
            assert a.entropy_bound == b.entropy_bound
            assert a.production_bound == b.production_bound


class TestInspect:
    def test_fermi_spec_green(self, fermi_spec_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["inspect", "--input", fermi_spec_file, "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["certification"]["gns_dbc"]
        assert report["completely_positive"]
        assert report["ergodicity"] == 1
        assert report["canonical"]["jump_count"] == 2
        assert report["canonical"]["roundtrip_error"] < 1e-9

    def test_counterexample_fails_with_kms_flags(self, tmp_path):
        zoo_out = tmp_path / "counter.json"
        assert main(["zoo", "--model", "kms-counterexample", "--output", str(zoo_out)]) == 0
        obj = json.loads(zoo_out.read_text())
        report_in = tmp_path / "counter_in.json"
        report_in.write_text(
            dump_json({"dim": 2, "sigma": obj["sigma"], "superoperator": obj["superoperator"]})
        )
        out = tmp_path / "report.json"
        code = main(["inspect", "--input", str(report_in), "--output", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert not report["certification"]["gns_dbc"]
        assert report["certification"]["kms_only"]
        assert report["certification"]["s_residuals"]["0.5"] < 1e-10

    def test_gns_tolerance_reaches_extraction(self, tmp_path):
        # L of Fermi m=1 against sigma with its (0, 0) entry moved by 3e-8
        # relative: GNS residual ~7e-9, so it passes at gns_flag=1e-6 and
        # extraction must not re-certify at the default 1e-9
        from qmsflow.generators import build_generator

        model = fermi_ou(1, 1.0, [1.0])
        sigma = model.spec.sigma.rho.copy()
        sigma[0, 0] *= 1 + 3e-8
        sigma /= np.trace(sigma).real
        path = tmp_path / "perturbed.json"
        path.write_text(dump_json({
            "dim": 2,
            "sigma": matrix_to_json(sigma),
            "superoperator": matrix_to_json(build_generator(model.spec)),
        }))
        out = tmp_path / "report.json"
        code = main(["inspect", "--input", str(path), "--tol", "gns_flag=1e-6",
                     "--output", str(out)])
        report = json.loads(out.read_text())
        assert 1e-9 < report["certification"]["s_residuals"]["1.0"] < 1e-6
        assert report["certification"]["gns_dbc"]
        assert "canonical_error" not in report
        assert report["canonical"]["jump_count"] == 2
        assert code == 0

        code = main(["inspect", "--input", str(path), "--output", str(out)])
        report = json.loads(out.read_text())
        assert not report["certification"]["gns_dbc"]
        assert "canonical" not in report
        assert code == 1

    @pytest.mark.parametrize("tol", ["gns=1e-3", "invariance=1e-10"])
    def test_unknown_tolerance_is_an_input_error(self, tmp_path, fermi_spec_file, capsys, tol):
        # an unknown name would otherwise certify at the default tolerance
        out = tmp_path / "report.json"
        assert main(["inspect", "--input", fermi_spec_file, "--tol", tol, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: unknown tolerance {tol.split('=')[0]!r}")
        assert "gns_flag" in err and "psd" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["inspect", "--input", "x.json", "--seed", "1"],
         ["evolve", "--input", "x.json", "--tol", "psd=1e-9"],
         ["geodesic", "--input", "x.json", "--rho0", "r.json", "--seed", "1"],
         ["verify", "--tol", "psd=1e-9"]],
    )
    def test_option_only_on_the_command_that_reads_it(self, argv, capsys):
        # --seed belongs to verify and --tol to inspect
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_one_norm_of_l_and_one_reduced_eigensolve(self, tmp_path, monkeypatch):
        # on superoperator input certification takes ||L|| once and passes it
        # on; extraction reuses the complete-positivity verdict of the
        # reduced block.  Counted on n^2 = 16 rows, stacked or not: SVDs and
        # 2-norms (||L||, the modular commutator, the round trip), Hermitian
        # eigensolves of 16 x 16 (the five s-residuals and BKM), and the
        # 15 x 15 reduced block
        spec = fermi_ou(2, 1.0, [1.0, 2.0]).spec
        l = generators.build_generator(spec)
        path = tmp_path / "fermi2.json"
        path.write_text(dump_json(
            {"dim": 4, "sigma": matrix_to_json(spec.sigma.rho), "superoperator": matrix_to_json(l)}
        ))
        norm, svd, eigvalsh, eigh = np.linalg.norm, np.linalg.svd, np.linalg.eigvalsh, np.linalg.eigh
        calls = []

        def counting(name, fn, counted):
            def wrapped(x, *args, **kwargs):
                if np.ndim(x) >= 2 and counted(x, *args, **kwargs):
                    calls.append((name, np.shape(x)[-2:]))
                return fn(x, *args, **kwargs)
            return wrapped

        def norm_2(x, ord=None, *args, **kwargs):
            return ord == 2 and np.shape(x)[-2] == 16

        monkeypatch.setattr(np.linalg, "norm", counting("svd", norm, norm_2))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", svd, lambda x, *a, **k: np.shape(x)[-2] == 16))
        for name, fn in (("eigvalsh", eigvalsh), ("eigh", eigh)):
            monkeypatch.setattr(np.linalg, name, counting("eig", fn, lambda *a, **k: True))
        out = tmp_path / "report.json"
        assert main(["inspect", "--input", str(path), "--output", str(out)]) == 0
        assert "canonical" in json.loads(out.read_text())
        assert len([c for c in calls if c[0] == "svd"]) <= 3
        assert calls.count(("eig", (16, 16))) <= 6
        assert calls.count(("eig", (15, 15))) == 1

    @pytest.mark.parametrize("name", ["fermi2", "random4", "depolarizing3"])
    def test_one_modular_basis_per_superoperator_inspect(self, monkeypatch, name):
        # complete positivity and extraction share sigma's modular basis
        from qmsflow import states

        spec = {
            "fermi2": lambda: fermi_ou(2, 1.0, [1.0, 2.0]).spec,
            "random4": lambda: random_dbc_spec(4, np.random.default_rng(3)),
            "depolarizing3": lambda: depolarizing(3),
        }[name]()
        l, sigma = generators.build_generator(spec), spec.sigma
        builds = []
        build = states.build_modular_basis

        def counting(s):
            builds.append(s.dim)
            return build(s)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("qmsflow") and getattr(mod, "build_modular_basis", None) is build:
                monkeypatch.setattr(mod, "build_modular_basis", counting)
        code, report = _inspect_superoperator(l, sigma)
        assert code == 0 and report["canonical"]["roundtrip_error"] <= 1e-9
        assert builds == [sigma.dim]

    def test_oversized_block_exits_two_before_allocating(self, tmp_path, capsys):
        # sigma = I/128 is one Bohr block of 16,384 units, about 25 GB to
        # build; create refuses it after grouping the frequencies.  The
        # address-space cap turns a regression into a MemoryError here
        # instead of exhausting the machine.
        import resource
        import tracemalloc

        n = 128
        path = tmp_path / "big.json"
        path.write_text(dump_json({
            "dim": n, "sigma": matrix_to_json(np.eye(n) / n),
            "jumps": [{"V": matrix_to_json(np.diag(np.linspace(-1.0, 1.0, n))), "omega": 0.0}],
        }))
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        with open("/proc/self/statm") as fh:
            mapped = int(fh.read().split()[0]) * resource.getpagesize()
        cap = mapped + 2**30
        resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
        tracemalloc.start()
        try:
            code = main(["inspect", "--input", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert code == 2
        assert "largest Bohr block has 16384 units" in capsys.readouterr().err
        assert peak < 30e6

    def test_identity_superoperator_has_no_negative_zero(self):
        # every weighted residual of the identity map is zero, printed as 0.0
        sigma = DensityState.from_matrix(np.diag([0.3, 0.7]).astype(complex))
        code, report = _inspect_superoperator(np.eye(4), sigma)
        assert code == 1 and report["certification"]["s_residuals"]["1.0"] == 0.0
        assert not re.search(r"-0\.0(?=[,\]}])", json.dumps(report))

    @pytest.mark.parametrize("gap", [0.0, 1e-13, 5e-12, 2e-11, 5e-11])
    def test_near_degenerate_sigma_canonical_form(self, gap):
        code, report = _inspect(near_degenerate_spec(gap))
        assert code == 0
        assert report["certification"]["gns_dbc"]
        assert report["completely_positive"]
        assert report["canonical"]["roundtrip_error"] <= 1e-9
        assert report["canonical"]["jump_count"] == 4

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(["inspect", "--input", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file_exit_two(self):
        assert main(["inspect", "--input", "/nonexistent/x.json"]) == 2

    @pytest.mark.parametrize(
        "name",
        ["no_V", "no_omega", "jumps_not_list", "jump_not_object",
         "superoperator_without_sigma", "superoperator_wrong_size", "omega_nan",
         "cell_three_entries", "cell_out_of_range", "cell_boolean"],
    )
    def test_malformed_wire_format_exit_two(self, tmp_path, capsys, name):
        obj = spec_to_json(fermi_ou(1, 1.0, [1.0]).spec)
        if name == "no_V":
            del obj["jumps"][0]["V"]
        elif name == "no_omega":
            del obj["jumps"][0]["omega"]
        elif name == "jumps_not_list":
            obj["jumps"] = {"V": obj["sigma"], "omega": 0.0}
        elif name == "jump_not_object":
            obj["jumps"][0] = [obj["sigma"], 0.0]
        elif name == "superoperator_without_sigma":
            obj = {"dim": 2, "superoperator": matrix_to_json(np.eye(4))}
        elif name == "superoperator_wrong_size":
            obj = {"dim": 2, "sigma": obj["sigma"], "superoperator": matrix_to_json(np.eye(3))}
        elif name == "cell_three_entries":
            obj["sigma"][0][0].append(7)
        elif name == "cell_out_of_range":
            obj["jumps"][0]["V"][0][1] = [10**400, 0]
        elif name == "cell_boolean":
            obj["sigma"][0][1] = [False, False]
        else:
            for jump in obj["jumps"]:
                jump["omega"] = float("nan")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["inspect", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and len(err) > len("input error: \n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("rows", [3, 9, 25])
    def test_superoperator_row_count_refused_before_conversion(self, tmp_path, capsys, monkeypatch, rows):
        # sigma is parsed first, and a superoperator whose row count is not
        # n^2 exits 2 before any of its cells is converted
        from qmsflow import cli

        converted = []
        convert = cli.matrix_from_json

        def counting(obj):
            converted.append(len(obj))
            return convert(obj)

        monkeypatch.setattr(cli, "matrix_from_json", counting)
        sigma = matrix_to_json(np.diag([0.3, 0.7]))
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": 2, "sigma": sigma, "superoperator": [["not a cell"]] * rows}))
        assert main(["inspect", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"superoperator has {rows} rows, not n^2 = 4 for sigma of dim n = 2" in err
        assert converted == []

    @pytest.mark.parametrize("kind", ["spec", "superoperator"])
    @pytest.mark.parametrize("lam0", [1e-12, 1e-10])
    def test_extreme_sigma_ratio_canonical_form(self, tmp_path, lam0, kind):
        # sigma = diag(lam0, 1/2 - lam0, 1/2) with the exact pair
        # (E02, omega), (E20, -omega): the spec loads, and extraction keeps
        # the +-omega pair although the -omega block's entries are e^omega,
        # about 1/lam0, times the +omega block's
        spec = _extreme_ratio_spec(lam0)
        obj = {"dim": 3, "sigma": matrix_to_json(spec.sigma.rho)}
        if kind == "spec":
            obj["jumps"] = [{"V": matrix_to_json(v), "omega": w} for v, w in spec.jumps]
        else:
            obj["superoperator"] = matrix_to_json(generators.build_generator(spec))
        path, out = tmp_path / "in.json", tmp_path / "report.json"
        path.write_text(dump_json(obj))
        assert main(["inspect", "--input", str(path), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["canonical"]["jump_count"] == 2
        assert report["canonical"]["roundtrip_error"] <= 1e-9


def _inspect(spec, dense=False):
    """Exit code and JSON report of ``qmsflow inspect`` on ``spec``, or with
    ``dense`` on its superoperator."""
    if dense:
        return _inspect_superoperator(generators.build_generator(spec), spec.sigma)
    return _inspect_json(spec_to_json(spec))


def _inspect_superoperator(l, sigma):
    return _inspect_json({"dim": sigma.dim, "sigma": matrix_to_json(sigma.rho),
                          "superoperator": matrix_to_json(l)})


def _inspect_json(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "spec.json", Path(tmp) / "report.json"
        path.write_text(dump_json(obj))
        code = main(["inspect", "--input", str(path), "--output", str(out)])
        return code, json.loads(out.read_text())


def _verdicts(code, report):
    """The parts of an inspect report that no change of units, basis or jump listing may move."""
    return {
        "code": code,
        "gns_dbc": report["certification"]["gns_dbc"],
        "completely_positive": report["completely_positive"],
        "ergodicity": report.get("ergodicity"),  # absent on superoperator input
        "jump_count": report["canonical"]["jump_count"],
        "block_sizes": sorted(report["canonical"]["block_sizes"].values()),
    }


INSPECT_MODELS = ["fermi_m1", "fermi_m2", "depolarizing_n3", "random4"]
INSPECT_SETTINGS = settings(max_examples=16, deadline=None, derandomize=True, database=None)


@functools.cache
def _inspect_model(name):
    if name == "fermi_m1":
        spec = fermi_ou(1, 2.0, [1.0]).spec
    elif name == "fermi_m2":
        spec = fermi_ou(2, 1.0, [1.0, 2.0]).spec
    elif name == "depolarizing_n3":
        spec = depolarizing(3)
    else:
        spec = random_dbc_spec(4, np.random.default_rng(4))
    return spec, _verdicts(*_inspect(spec))


class TestInspectCovariance:
    """inspect verdicts, on the spec route, under changes that leave L alone
    or transform it."""

    @INSPECT_SETTINGS
    @given(name=st.sampled_from(INSPECT_MODELS), c=st.sampled_from([1e-10, 1.0, 1e10]))
    def test_scaling(self, name, c):
        # jumps sqrt(c) V give c L
        spec, expect = _inspect_model(name)
        scaled = GeneratorSpec.create(spec.sigma, [(np.sqrt(c) * v, w) for v, w in spec.jumps])
        assert _verdicts(*_inspect(scaled)) == expect

    @INSPECT_SETTINGS
    @given(name=st.sampled_from(INSPECT_MODELS), seed=st.integers(0, 2**32 - 1))
    def test_unitary_conjugation(self, name, seed):
        spec, expect = _inspect_model(name)
        w, _ = np.linalg.qr(random_matrix(np.random.default_rng(seed), spec.dim))
        sigma = DensityState.from_matrix(w @ spec.sigma.rho @ dag(w))
        rotated = GeneratorSpec.create(sigma, [(w @ v @ dag(w), om) for v, om in spec.jumps])
        assert _verdicts(*_inspect(rotated)) == expect

    @INSPECT_SETTINGS
    @given(name=st.sampled_from(INSPECT_MODELS), seed=st.integers(0, 2**32 - 1))
    def test_reordered_jumps(self, name, seed):
        spec, expect = _inspect_model(name)
        order = np.random.default_rng(seed).permutation(spec.njumps)
        permuted = GeneratorSpec.create(spec.sigma, [spec.jumps[i] for i in order])
        assert _verdicts(*_inspect(permuted)) == expect

    @pytest.mark.parametrize("name", INSPECT_MODELS)
    def test_split_jumps(self, name):
        # V -> (V/sqrt2, V/sqrt2), for every jump or only the first with
        # V^* left whole, is the same L
        spec, expect = _inspect_model(name)
        split = [(v / np.sqrt(2.0), w) for v, w in spec.jumps for _ in range(2)]
        (v, w), rest = spec.jumps[0], list(spec.jumps[1:])
        split_first = [(v / np.sqrt(2.0), w)] * 2 + rest
        for jumps in (split, split_first):
            assert _verdicts(*_inspect(GeneratorSpec.create(spec.sigma, jumps))) == expect


class TestInspectCovarianceSuperoperator:
    """inspect verdicts on superoperator input, which is rotated into
    sigma's eigenbasis, under L -> cL and unitary conjugation."""

    @pytest.mark.parametrize("c", [1e-10, 1e10])
    @pytest.mark.parametrize("name", INSPECT_MODELS)
    def test_scaling(self, name, c):
        spec, _ = _inspect_model(name)
        l = generators.build_generator(spec)
        expect = _verdicts(*_inspect_superoperator(l, spec.sigma))
        assert _verdicts(*_inspect_superoperator(c * l, spec.sigma)) == expect

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", INSPECT_MODELS)
    def test_unitary_conjugation(self, name, seed):
        # X -> w X w^* has the superoperator conj(w) (x) w in column stacking
        spec, _ = _inspect_model(name)
        l = generators.build_generator(spec)
        expect = _verdicts(*_inspect_superoperator(l, spec.sigma))
        w, _ = np.linalg.qr(random_matrix(np.random.default_rng(seed), spec.dim))
        big = np.kron(np.conj(w), w)
        sigma = DensityState.from_matrix(w @ spec.sigma.rho @ dag(w))
        assert _verdicts(*_inspect_superoperator(big @ l @ dag(big), sigma)) == expect


def _extreme_ratio_spec(lam0):
    """sigma = diag(lam0, 1/2 - lam0, 1/2) with the exact pair (E02, omega), (E20, -omega)."""
    lam = np.array([lam0, 0.5 - lam0, 0.5])
    e02 = np.zeros((3, 3), dtype=complex)
    e02[0, 2] = 1.0
    omega = float(np.log(lam[2] / lam[0]))
    sigma = DensityState.from_matrix(np.diag(lam).astype(complex))
    return GeneratorSpec(sigma, ((e02, omega), (e02.T.copy(), -omega)))


ROUTE_SPECS = {
    "fermi_m1": lambda: fermi_ou(1, 2.0, [1.0]).spec,
    "fermi_m2": lambda: fermi_ou(2, 1.0, [1.0, 2.0]).spec,
    "depolarizing_n3": lambda: depolarizing(3),
    "random4": lambda: random_dbc_spec(4, np.random.default_rng(4)),
    "random16": lambda: random_dbc_spec(16, np.random.default_rng([1, 1]), ergodic=True),
    "near_degenerate": lambda: near_degenerate_spec(5e-11),
    "extreme_ratio": lambda: _extreme_ratio_spec(1e-12),
}

CERT_RESIDUALS = ["bkm_residual", "modular_commutation", "star_preservation", "unital_residual"]


def _offblock_spec(base, rel):
    """``base`` with rel of every jump's Frobenius mass moved off its Bohr
    block: a traceless diagonal shift for omega != 0 (its adjoint partner
    shifted to match), a Hermitian hop between two eigenvectors of sigma
    of different eigenvalue for omega = 0."""
    n, u = base.dim, base.sigma.eigenvectors
    diag, hop = np.zeros((n, n)), np.zeros((n, n))
    diag[0, 0], diag[1, 1] = 1.0, -1.0
    hop[0, n - 1] = hop[n - 1, 0] = 1.0
    jumps, done = list(base.jumps), set()
    for i, (v, w) in enumerate(jumps):
        if i in done:
            continue
        shift = rel * np.linalg.norm(v) * (u @ (diag if w != 0 else hop) @ dag(u)) / np.sqrt(2.0)
        jumps[i] = (v + shift, w)
        done.add(i)
        if w != 0:
            k = next(k for k, (x, om) in enumerate(jumps)
                     if k not in done and om == -w and np.allclose(x, dag(v)))
            jumps[k] = (dag(v + shift), -w)
            done.add(k)
    return GeneratorSpec.create(base.sigma, jumps)


def _route_fields(code, report):
    cert, canon = report["certification"], report.get("canonical", {})
    return {
        "code": code,
        "gns_dbc": cert["gns_dbc"],
        "kms_only": cert["kms_only"],
        "completely_positive": report["completely_positive"],
        "jump_count": canon.get("jump_count"),
        "omegas": canon.get("omegas"),
        "block_sizes": canon.get("block_sizes"),
    }


class TestInspectRoutes:
    """A spec is inspected on its Bohr blocks; its dense superoperator is the oracle."""

    @pytest.mark.parametrize("name", list(ROUTE_SPECS))
    def test_spec_route_matches_dense(self, name):
        spec = ROUTE_SPECS[name]()
        (code, report), (dense_code, dense) = _inspect(spec), _inspect(spec, dense=True)
        assert _route_fields(code, report) == _route_fields(dense_code, dense)
        assert code == 0
        assert report["canonical"]["roundtrip_error"] <= 1e-9
        assert dense["canonical"]["roundtrip_error"] <= 1e-9
        assert "offblock_bound" in report["certification"]
        assert dense["certification"]["offblock_bound"] == 0.0

    @pytest.mark.parametrize("eps, gns", [(1e-9, True), (3e-9, False), (5e-9, False)])
    def test_gns_defect_of_the_jumps_seen_on_both_routes(self, eps, gns):
        # Fermi m=1 with its second jump scaled by 1 + eps passes create's
        # KMS check but is not GNS-symmetric; symmetrised blocks would hide it
        jumps = list(fermi_ou(1, 1.0, [1.0]).spec.jumps)
        v, w = jumps[1]
        spec = GeneratorSpec.create(fermi_ou(1, 1.0, [1.0]).spec.sigma, [jumps[0], ((1 + eps) * v, w)])
        for dense in (False, True):
            report = _inspect(spec, dense=dense)[1]["certification"]
            assert report["gns_dbc"] == gns
            assert report["s_residuals"]["1.0"] > 0.25 * eps

    @pytest.mark.parametrize(
        "name, rel, spec_gns",
        [("random4", 1e-11, True), ("random4", 0.99e-10, False), ("fermi_m2", 0.99e-10, False)],
    )
    def test_offblock_mass_makes_every_residual_an_upper_bound(self, name, rel, spec_gns):
        # rel of every jump's mass moved off its Bohr block, adjoints to
        # match: the spec loads, and each block-route residual bounds the
        # dense one from above.  Near create's limit (JUMP_EIGEN_TOL = 1e-10)
        # the bound alone passes GNS_FLAG_TOL, so the spec route says
        # not GNS and exits 1 where the superoperator passes
        spec = _offblock_spec(ROUTE_SPECS[name](), rel)
        assert spec.bohr_blocks[2] > 0
        (code, report), (dense_code, dense) = _inspect(spec), _inspect(spec, dense=True)
        mine, theirs = report["certification"], dense["certification"]
        assert (code, mine["gns_dbc"]) == ((0, True) if spec_gns else (1, False))
        assert (dense_code, theirs["gns_dbc"]) == (0, True)
        for s, value in theirs["s_residuals"].items():
            assert mine["s_residuals"][s] >= value
        for key in CERT_RESIDUALS:
            assert mine[key] >= theirs[key]
        if spec_gns:
            assert report["canonical"]["roundtrip_error"] >= dense["canonical"]["roundtrip_error"]

    def test_no_dense_matrix_on_the_spec_route(self, tmp_path, monkeypatch):
        # no n^2 x n^2 generator, GKS matrix or Choi matrix, and no
        # eigensolve, SVD or 2-norm of an array with n^2 rows
        from qmsflow import linalg

        spec = random_dbc_spec(16, np.random.default_rng(7), ergodic=True)
        path = tmp_path / "spec.json"
        path.write_text(dump_json(spec_to_json(spec)))
        calls = []

        def counting(name, fn, big=lambda *args, **kwargs: True):
            def wrapped(*args, **kwargs):
                if big(*args, **kwargs):
                    calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        def dense(x, *args, **kwargs):
            return np.ndim(x) >= 2 and np.shape(x)[-2] >= 256

        assert not hasattr(canonical, "build_generator")
        monkeypatch.setattr(generators, "build_generator", counting("build_generator", generators.build_generator))
        monkeypatch.setattr(canonical, "gks_matrix", counting("gks_matrix", canonical.gks_matrix))
        for mod in (canonical, linalg):
            monkeypatch.setattr(mod, "choi", counting("choi", linalg.choi))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh, dense))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd, dense))
        norm = np.linalg.norm

        def norm_2(x, ord=None, *args, **kwargs):
            return ord == 2 and dense(x)

        monkeypatch.setattr(np.linalg, "norm", counting("norm", norm, norm_2))
        out = tmp_path / "report.json"
        assert main(["inspect", "--input", str(path), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["canonical"]["jump_count"] == spec.njumps
        assert calls == []


class TestEvolve:
    def test_invariant_start_zero_column(self, fermi_spec_file, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            ["evolve", "--input", fermi_spec_file, "--grid", "0:1:5", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,entropy,production,exp_bound,production_bound"
        assert len(lines) == 6
        for line in lines[1:]:
            fields = line.split(",")
            assert abs(float(fields[1])) < 1e-12

    def test_monotone_with_bound(self, fermi_spec_file, tmp_path, rng):
        from qmsflow.models import random_density

        rho = random_density(2, rng)
        rho_path = tmp_path / "rho.json"
        rho_path.write_text(dump_json(density_to_json(rho)))
        out = tmp_path / "traj.csv"
        lam = np.cosh(0.5)
        code = main(
            [
                "evolve",
                "--input", fermi_spec_file,
                "--rho0", str(rho_path),
                "--grid", "0:2:9",
                "--decay-rate", str(lam),
                "--output", str(out),
            ]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        entropies = [float(r[1]) for r in rows]
        bounds = [float(r[3]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(entropies, entropies[1:]))
        assert all(d <= b + 1e-10 for d, b in zip(entropies, bounds))

    def test_single_point_grid(self, fermi_spec_file, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(
            ["evolve", "--input", fermi_spec_file, "--grid", "0:0:1", "--output", str(out)]
        ) == 0
        assert len(out.read_text().strip().splitlines()) == 2

    def test_bad_grid_exit_two(self, fermi_spec_file):
        assert main(["evolve", "--input", fermi_spec_file, "--grid", "nope"]) == 2

    def test_one_generator_build(self, fermi_spec_file, tmp_path, monkeypatch):
        # the flow runs on the Bohr blocks built from the jumps: no dense
        # generator and no Kronecker product
        kron, build = np.kron, generators.build_generator
        calls = []

        def counting_kron(*args, **kwargs):
            calls.append("kron")
            return kron(*args, **kwargs)

        def counting_build(spec):
            calls.append("build_generator")
            return build(spec)

        monkeypatch.setattr(np, "kron", counting_kron)
        for mod in (entropy, generators):
            monkeypatch.setattr(mod, "build_generator", counting_build)
        out = tmp_path / "traj.csv"
        assert main(
            ["evolve", "--input", fermi_spec_file, "--grid", "0:1:5", "--output", str(out)]
        ) == 0
        assert calls == []


class TestMetricGeodesicRestrict:
    def test_metric_psd(self, fermi_spec_file, tmp_path):
        out = tmp_path / "metric.json"
        assert main(["metric", "--input", fermi_spec_file, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["min_eigenvalue"] > 0

    def test_geodesic_output(self, fermi_spec_file, tmp_path, rng):
        from qmsflow.models import random_density

        rho = random_density(2, rng)
        rho_path = tmp_path / "rho.json"
        rho_path.write_text(dump_json(density_to_json(rho)))
        out = tmp_path / "geo.json"
        code = main(
            [
                "geodesic",
                "--input", fermi_spec_file,
                "--rho0", str(rho_path),
                "--segments", "8",
                "--output", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["converged"]
        assert report["distance"] > 0
        assert 0.0 <= report["decrement"] <= 1e-12 * report["action"]
        assert len(report["path"]) == 9
        # path states parse back into densities
        for p in report["path"]:
            density_from_json({"rho": p})

    def test_geodesic_budget_exhaustion_exit_one(self, fermi_spec_file, tmp_path, rng):
        from qmsflow.models import random_density

        rho = random_density(2, rng)
        rho_path = tmp_path / "rho.json"
        rho_path.write_text(dump_json(density_to_json(rho)))
        out = tmp_path / "geo.json"
        code = main(
            [
                "geodesic",
                "--input", fermi_spec_file,
                "--rho0", str(rho_path),
                "--segments", "16",
                "--budget", "1",  # Newton converges on this input in two steps
                "--output", str(out),
            ]
        )
        assert code == 1  # flagged, best-so-far report still written
        report = json.loads(out.read_text())
        assert not report["converged"]
        assert report["distance"] > 0

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--segments", "0", "--segments"), ("--segments", "-3", "--segments"),
         ("--budget", "-1", "--budget")],
    )
    def test_geodesic_bad_counts_exit_two(self, fermi_spec_file, tmp_path, capsys,
                                          flag, value, message):
        rho_path = tmp_path / "rho.json"
        rho_path.write_text(dump_json(density_to_json(fermi_ou(1, 1.0, [1.0]).spec.sigma)))
        out = tmp_path / "geo.json"
        code = main(
            ["geodesic", "--input", fermi_spec_file, "--rho0", str(rho_path),
             flag, value, "--output", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_restrict_rates(self, fermi_spec_file, tmp_path):
        out = tmp_path / "rates.json"
        assert main(["restrict", "--input", fermi_spec_file, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["size"] == 2
        assert report["detailed_balance_residual"] < 1e-11
        # modular projections order ascending sigma eigenvalues: occupied first
        rates = np.array(report["rates"])
        assert sorted([rates[0, 1], rates[1, 0]]) == pytest.approx(
            sorted([np.exp(0.5), np.exp(-0.5)]), abs=1e-10
        )

    def test_restrict_zero_projection_exit_two(self, fermi_spec_file, tmp_path, capsys):
        proj_path = tmp_path / "projs.json"
        proj_path.write_text(dump_json([matrix_to_json(np.eye(2)), matrix_to_json(np.zeros((2, 2)))]))
        out = tmp_path / "rates.json"
        code = main(
            ["restrict", "--input", fermi_spec_file, "--projections", str(proj_path),
             "--output", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "projection 1 is zero" in err and "Traceback" not in err
        assert not out.exists()

    def test_restrict_without_dense_generator(self, tmp_path, monkeypatch):
        # invariance and rates come from the jumps: no n^2 x n^2 L, no SVD
        spec = random_dbc_spec(16, np.random.default_rng(7), ergodic=True)
        path = tmp_path / "spec.json"
        path.write_text(dump_json(spec_to_json(spec)))
        norm, build = np.linalg.norm, generators.build_generator
        calls = []

        def counting_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                calls.append("norm")
            return norm(x, ord, *args, **kwargs)

        def counting_build(spec):
            calls.append("build_generator")
            return build(spec)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        monkeypatch.setattr(generators, "build_generator", counting_build)
        out = tmp_path / "rates.json"
        assert main(["restrict", "--input", str(path), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["size"] == 16
        assert calls == []


SIDE_FILE_FLAGS = [("evolve", "--rho0"), ("metric", "--rho"), ("geodesic", "--rho0"),
                   ("geodesic", "--rho1"), ("restrict", "--projections")]


@pytest.mark.parametrize("command, flag", SIDE_FILE_FLAGS)
@pytest.mark.parametrize("defect", ["malformed", "invalid", "wrong_dim",
                                    "long_cell", "huge_cell", "bool_cell"])
def test_side_file_errors_exit_two(fermi_spec_file, tmp_path, capsys, command, flag, defect):
    # a state or projection file that does not parse, is not a state or a
    # projection list, has another dimension than the dim-2 spec, or has a
    # matrix cell that is not two numbers of double range
    if defect == "malformed":
        content = {"a": 1}
    elif defect.endswith("_cell"):
        cell = {"long_cell": [0.0, 0.0, 7], "huge_cell": [10**400, 0], "bool_cell": [False, False]}
        if flag == "--projections":
            content = [matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.diag([0.0, 1.0]))]
            content[0][0][1] = cell[defect]
        else:
            content = density_to_json(DensityState.from_matrix(np.diag([0.4, 0.6])))
            content["rho"][0][1] = cell[defect]
    elif flag == "--projections":
        content = [[[[1, 0], [0, 0], [0, 0]]]] if defect == "invalid" else [matrix_to_json(np.eye(3))]
    elif defect == "invalid":
        content = {"rho": matrix_to_json(np.diag([1.0, 0.0]))}  # singular
    else:
        content = density_to_json(DensityState.from_matrix(np.eye(3) / 3))
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps(content))
    good.write_text(dump_json(density_to_json(DensityState.from_matrix(np.diag([0.4, 0.6])))))
    argv = [command, "--input", fermi_spec_file, flag, str(bad), "--output", str(tmp_path / "out")]
    if command == "geodesic" and flag == "--rho1":
        argv += ["--rho0", str(good)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


class TestZoo:
    def test_fermi_json_rates(self, tmp_path):
        out = tmp_path / "zoo.json"
        code = main(
            [
                "zoo", "--model", "fermi", "--m", "2", "--beta", "1",
                "--energies", "1,2", "--rates", "--output", str(out),
            ]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        spec = spec_from_json(obj)
        assert spec.dim == 4
        assert spec.njumps == 4
        assert obj["hypercube"]["size"] == 4
        assert "printed" in obj["hypercube"]["rate_comparison"]
        assert "direct" in obj["hypercube"]["rate_comparison"]
        # spectrum metadata matches the eigenvalue law
        expect = sorted(
            -(abs(k1) + abs(l1)) * np.cosh(0.5) - (abs(k2) + abs(l2)) * np.cosh(1.0)
            for k1, l1 in [(0, 0), (1, 0), (0, 1), (1, 1)]
            for k2, l2 in [(0, 0), (1, 0), (0, 1), (1, 1)]
        )
        assert np.allclose(obj["krawtchouk_eigenvalues"], expect)

    def test_depolarizing(self, tmp_path):
        out = tmp_path / "depol.json"
        assert main(["zoo", "--model", "depolarizing", "--m", "3", "--output", str(out)]) == 0
        spec = spec_from_json(json.loads(out.read_text()))
        assert spec.dim == 3
        assert spec.njumps == 8


class TestVerify:
    def test_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "v1.txt"
        out2 = tmp_path / "v2.txt"
        assert main(["verify", "--seed", "42", "--output", str(out1)]) == 0
        assert main(["verify", "--seed", "42", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_gram_matrices_are_one_call_each(self, monkeypatch):
        # every Gram matrix of the suite is one stacked call of the form
        # under test, not one call per entry
        from qmsflow import calculus, states, verify

        calls = []
        for home, name in ((states, "inner_s"), (states, "inner_f"), (calculus, "rho_mult")):
            fn = getattr(home, name)

            def counting(*args, _fn=fn, **kwargs):
                calls.append(_fn.__name__)
                return _fn(*args, **kwargs)

            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("qmsflow") and getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counting)
        for seed in (1, 2, 3, 4):
            assert verify.run_suite(seed)[0]
        assert 0 < len(calls) <= 500

    def test_extraction_uniqueness_checks_positivity_once_per_generator(self, monkeypatch):
        # both extractions of each L share one complete-positivity verdict:
        # the reduced block's spectrum does not depend on the basis order
        from qmsflow import verify

        calls = []
        check = generators.check_complete_positivity

        def counting(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(generators, "check_complete_positivity", counting)
        monkeypatch.setattr(canonical, "check_complete_positivity", counting)
        ok, _ = verify.check_extraction_uniqueness(np.random.default_rng(1))
        assert ok and len(calls) == 3

    def test_null_count_is_scale_free(self):
        # null_matches_commutant counts eigenvalues of L near zero relative
        # to its largest one, so the count is the same for cL at any c
        from qmsflow.verify import _null_count

        spec = fermi_ou(2, 1.0, [1.0, 2.0]).spec
        evals = np.linalg.eigvals(generators.build_generator(spec))
        assert _null_count(evals) == generators.ergodicity(spec) == 1
        for c in (1e-12, 1.0, 1e12):
            assert _null_count(c * evals) == 1

    def test_python_dash_m(self, tmp_path):
        # `python -m qmsflow` runs the same command line as `qmsflow`
        out = tmp_path / "v.txt"
        assert main(["verify", "--seed", "42", "--output", str(out)]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        run = subprocess.run([sys.executable, "-m", "qmsflow", "verify", "--seed", "42"],
                             env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == out.read_text()

    def test_cli_paths_do_not_import_scipy_linalg(self, tmp_path):
        # scipy.linalg costs most of the start-up, so every subcommand runs on
        # numpy alone; only generators.semigroup imports it.  The pytest
        # process has it loaded already, so this runs in a fresh interpreter.
        spec = fermi_ou(1, 1.0, [1.0]).spec
        (tmp_path / "rho.json").write_text(
            dump_json(density_to_json(DensityState.from_matrix(np.diag([0.1, 0.2, 0.3, 0.4]))))
        )
        (tmp_path / "super.json").write_text(
            dump_json({"dim": 2, "sigma": matrix_to_json(spec.sigma.rho),
                       "superoperator": matrix_to_json(generators.build_generator(spec))})
        )
        script = """if True:
            import json, sys
            import numpy as np
            from qmsflow.cli import main

            calls = [
                ["zoo", "--model", "fermi", "--m", "2", "--output", "spec.json"],
                ["zoo", "--model", "kms-counterexample", "--output", "kms.json"],
                ["inspect", "--input", "spec.json", "--output", "inspect.json"],
                ["inspect", "--input", "kms.json", "--output", "inspect_kms.json"],
                ["inspect", "--input", "super.json", "--output", "inspect_super.json"],
                ["evolve", "--input", "spec.json", "--grid", "0:1:5", "--output", "evolve.csv"],
                ["geodesic", "--input", "spec.json", "--rho0", "rho.json", "--segments", "2",
                 "--output", "geodesic.json"],
                ["metric", "--input", "spec.json", "--rho", "rho.json", "--output", "metric.json"],
                ["verify", "--seed", "1", "--output", "verify.txt"],
            ]
            codes = [main(argv) for argv in calls]
            before = "scipy.linalg" in sys.modules
            from qmsflow.generators import semigroup

            semigroup(np.zeros((4, 4)), 1.0)
            print(json.dumps({"codes": codes, "before": before,
                              "after": "scipy.linalg" in sys.modules}))
        """
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        run = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout.splitlines()[-1])
        # the KMS counterexample fails certification (exit 1); everything else succeeds
        assert result["codes"] == [0, 0, 0, 1, 0, 0, 0, 0, 0]
        assert not result["before"]
        assert result["after"]

    def test_seed_changes_details(self, tmp_path):
        out1 = tmp_path / "v1.txt"
        out2 = tmp_path / "v2.txt"
        assert main(["verify", "--seed", "1", "--output", str(out1)]) == 0
        assert main(["verify", "--seed", "2", "--output", str(out2)]) == 0
        assert out1.read_text() != out2.read_text()


def test_rate_matrix_json_roundtrip():
    from qmsflow.models import fermi_ou, hypercube_restriction
    from qmsflow.serialize import rate_matrix_from_json, rate_matrix_to_json

    rate = hypercube_restriction(fermi_ou(2, 0.8, [1.0, 2.0]))
    back = rate_matrix_from_json(rate_matrix_to_json(rate))
    assert np.allclose(back.rates, rate.rates)
    assert np.allclose(back.stationary, rate.stationary)
