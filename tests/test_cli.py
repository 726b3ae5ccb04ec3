import base64
import functools
import gc
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

from qmsflow import canonical, cli, entropy, generators
from qmsflow.cli import InputError, _load_json, main
from qmsflow.generators import GeneratorSpec
from qmsflow.linalg import dag
from qmsflow.models import depolarizing, fermi_ou, fermi_ou_infinite, random_dbc_spec
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
from conftest import (
    kron_sum_generator,
    near_degenerate_spec,
    nested_density_to_json,
    nested_matrix_to_json,
    nested_spec_to_json,
    random_matrix,
    rate_matrix_from_json,
    trajectory_from_csv,
)


def scaled_jumps(obj, c):
    """A nested spec JSON with every jump's cells times ``c``."""
    for jump in obj["jumps"]:
        jump["V"] = [[[c * x for x in cell] for cell in row] for row in jump["V"]]
    return obj


# sigma = diag(0.6, 0.4) with the single jump E_12 at omega = log 0.4 - log 0.6:
# no adjoint, so L is not KMS-symmetric at any scale
def one_sided_spec(c):
    e12 = [[[0.0, 0.0], [c, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    sigma = matrix_to_json(np.diag([0.6, 0.4]))
    return {"dim": 2, "sigma": sigma, "jumps": [{"V": e12, "omega": float(np.log(0.4) - np.log(0.6))}]}


KMS_MESSAGE = ("L is not KMS-symmetric (the jumps are not closed under adjoints): "
               "weighted Bohr blocks 7.845e-01 off Hermitian")
# the message each scaled spec of test_malformed_wire_format_exit_two exits
# with: the verdict of the jumps at scale 1 (KMS_MESSAGE), until K or the
# blocks overflow double precision
SCALED_MESSAGES = {
    "kms_asymmetric_x1e100": KMS_MESSAGE,
    "kms_asymmetric_x1e150": KMS_MESSAGE,
    "blocks_overflow_x1e154": "L's Bohr blocks are not finite: the jumps overflow double precision",
    "k_overflow_x1e200": "K = sum_j c_j V_j^* V_j is not finite: the jumps overflow double precision",
}


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

    @pytest.mark.parametrize("dim", [None, [2], 3, "two", float("inf"), float("nan"), "2", 2.5, 2.0, True])
    def test_density_rejects_bad_dim(self, dim):
        with pytest.raises(ValueError, match="dim"):
            density_from_json({"dim": dim, "rho": matrix_to_json(np.eye(2) / 2)})

    def test_matrix_rejects_ragged(self):
        with pytest.raises(ValueError):
            matrix_from_json([[[1, 0]], [[1, 0], [0, 0]]])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_dump_json_refuses_non_finite_floats(self, value):
        # RFC 8259 has no NaN or Infinity, so no command may write them
        with pytest.raises(ValueError):
            dump_json({"x": value})

    def test_trajectory_csv_roundtrip(self, fermi_spec_file, rng):
        from qmsflow.entropy import entropy_trajectory
        from qmsflow.models import random_density
        from qmsflow.serialize import trajectory_to_csv

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

    def test_one_rotation_and_one_coefficient_matrix_per_superoperator_inspect(self, tmp_path, monkeypatch):
        # a superoperator is admitted once: certification, complete
        # positivity and extraction read one rotated block and one
        # coefficient matrix (three rotations and two matrices before)
        spec = random_dbc_spec(16, np.random.default_rng(1), ergodic=True)
        path, out = tmp_path / "superoperator.json", tmp_path / "report.json"
        path.write_text(dump_json({"dim": 16, "sigma": matrix_to_json(spec.sigma.rho),
                                   "superoperator": matrix_to_json(generators.build_generator(spec))}))
        calls = []

        def counting(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        for name in ("_rotated", "_superoperator_coefficients"):
            monkeypatch.setattr(generators, name, counting(name, getattr(generators, name)))
        assert main(["inspect", "--input", str(path), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["canonical"]["jump_count"] == spec.njumps
        assert sorted(calls) == ["_rotated", "_superoperator_coefficients"]

    @pytest.mark.parametrize("c, code", [(1e-320, 2), (1e-310, 2), (1.0, 0), (1e200, 0)])
    def test_superoperator_refused_like_a_spec(self, tmp_path, capsys, c, code):
        # the dense L of a random ergodic dim-3 spec: where L times c
        # underflows, admission refuses it (exit 2), as it refuses the spec's
        # jumps times sqrt(c); at 1e200 it reads as at x1, with no numpy warning
        import warnings

        spec = random_dbc_spec(3, np.random.default_rng(0), ergodic=True)
        l = generators.build_generator(spec)
        path, out = tmp_path / "superoperator.json", tmp_path / "report.json"
        path.write_text(dump_json({"dim": 3, "sigma": matrix_to_json(spec.sigma.rho),
                                   "superoperator": matrix_to_json(c * l)}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["inspect", "--input", str(path), "--output", str(out)]) == code
        if code == 2:
            assert capsys.readouterr().err.startswith("input error: L underflows double precision")
            assert not out.exists()
        else:
            assert _verdicts(code, json.loads(out.read_text())) == _verdicts(*_inspect_superoperator(l, spec.sigma))

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
        # build; admission refuses it after grouping the frequencies.  The
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

    def test_complete_positivity_error_writes_json(self, tmp_path):
        # the identity map does not annihilate the identity, so complete
        # positivity has no verdict; its eigenvalue is null, not NaN
        path, out = tmp_path / "superoperator.json", tmp_path / "report.json"
        path.write_text(dump_json({"dim": 2, "sigma": matrix_to_json(np.eye(2) / 2),
                                   "superoperator": matrix_to_json(np.eye(4))}))
        assert main(["inspect", "--input", str(path), "--output", str(out)]) == 1

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads(out.read_text(), parse_constant=refuse)
        assert report["cp_error"] == "superoperator does not annihilate the identity"
        assert report["completely_positive"] is False
        assert report["reduced_min_eigenvalue"] is None

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

    @pytest.mark.parametrize("was_enabled", [True, False])
    @pytest.mark.parametrize("content", ['{"a": [[1, 2], [3, 4]]}', "{ not json", None])
    def test_json_parses_with_gc_paused(self, tmp_path, monkeypatch, was_enabled, content):
        # the collector is off while the file parses and as it was before
        # afterwards, also when the file is malformed or missing
        seen = []
        real_load = json.load

        def load(fh):
            seen.append(gc.isenabled())
            return real_load(fh)

        monkeypatch.setattr(json, "load", load)
        path = tmp_path / "x.json"
        if content is not None:
            path.write_text(content)
        (gc.enable if was_enabled else gc.disable)()
        try:
            try:
                _load_json(str(path), lambda obj: obj)
            except InputError:
                pass
            after = gc.isenabled()
        finally:
            gc.enable()
        assert seen == ([] if content is None else [False])
        assert after == was_enabled

    @pytest.mark.parametrize(
        "name",
        ["no_V", "no_omega", "jumps_not_list", "jump_not_object",
         "superoperator_without_sigma", "superoperator_wrong_size", "omega_nan",
         "cell_three_entries", "cell_out_of_range", "cell_boolean", "dim_mismatch",
         "omega_boolean", "superoperator_dim_mismatch", "dim_string", "dim_float",
         *SCALED_MESSAGES],
    )
    def test_malformed_wire_format_exit_two(self, tmp_path, capsys, name):
        obj = nested_spec_to_json(fermi_ou(1, 1.0, [1.0]).spec)
        if name == "no_V":
            del obj["jumps"][0]["V"]
        elif name == "no_omega":
            del obj["jumps"][0]["omega"]
        elif name == "jumps_not_list":
            obj["jumps"] = {"V": obj["sigma"], "omega": 0.0}
        elif name == "jump_not_object":
            obj["jumps"][0] = [obj["sigma"], 0.0]
        elif name == "superoperator_without_sigma":
            obj = {"dim": 2, "superoperator": nested_matrix_to_json(np.eye(4))}
        elif name == "superoperator_wrong_size":
            obj = {"dim": 2, "sigma": obj["sigma"], "superoperator": nested_matrix_to_json(np.eye(3))}
        elif name == "cell_three_entries":
            obj["sigma"][0][0].append(7)
        elif name == "cell_out_of_range":
            obj["jumps"][0]["V"][0][1] = [10**400, 0]
        elif name == "cell_boolean":
            obj["sigma"][0][1] = [False, False]
        elif name == "dim_mismatch":
            obj["dim"] = 3
        elif name == "dim_string":
            obj["dim"] = "2"
        elif name == "dim_float":
            obj["dim"] = 2.0
        elif name == "omega_boolean":
            obj["jumps"][1]["omega"] = True
        elif name == "superoperator_dim_mismatch":
            obj = {"dim": 5, "sigma": obj["sigma"], "superoperator": nested_matrix_to_json(np.eye(4))}
        elif name.startswith(("kms_asymmetric", "blocks_overflow")):
            obj = one_sided_spec(float(name.split("_x")[1]))
        elif name == "k_overflow_x1e200":
            obj = scaled_jumps(obj, 1e200)
        else:
            for jump in obj["jumps"]:
                jump["omega"] = float("nan")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["inspect", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and len(err) > len("input error: \n")
        assert "Traceback" not in err
        if name in SCALED_MESSAGES:
            assert err == f"input error: {SCALED_MESSAGES[name]}\n"

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

    @pytest.mark.parametrize("command", ["inspect", "evolve", "metric", "geodesic"])
    def test_jumps_without_headroom_exit_two(self, tmp_path, capsys, command):
        # every jump x1e154: K and L's blocks are finite (about 1e308), but
        # the commands would overflow, so the spec is refused at load
        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps(scaled_jumps(nested_spec_to_json(fermi_ou(1, 1.0, [1.0]).spec), 1e154)))
        rho_path = tmp_path / "rho.json"
        rho_path.write_text(dump_json(density_to_json(DensityState.from_matrix(np.diag([0.3, 0.7])))))
        extra = {"evolve": ["--rho0", str(rho_path)], "metric": ["--rho", str(rho_path)],
                 "geodesic": ["--rho0", str(rho_path), "--segments", "4"]}.get(command, [])
        assert main([command, "--input", str(scaled), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: the jumps overflow double precision: max_a tilde K_aa = 8.244e+307")

    @pytest.mark.parametrize("command", ["metric", "geodesic"])
    def test_jumps_too_small_for_the_metric_exit_two(self, tmp_path, capsys, command):
        # Fermi m=2 (energies 1, 2) with every jump x1e-154: L's largest
        # weighted entry, 4.4e-308, is a normal float, but the metric, about
        # 2.3 / max_a tilde K_aa, would not fit in double precision; the spec
        # is refused at load, and so it is at x1e-153, where the metric fits
        # without the headroom of the geodesic solver
        rho = tmp_path / "rho.json"
        rho.write_text(dump_json(density_to_json(DensityState.from_matrix(np.diag([0.4, 0.3, 0.2, 0.1])))))
        extra = {"metric": ["--rho", str(rho)], "geodesic": ["--rho0", str(rho), "--segments", "4"]}[command]
        for c in (1e-154, 1e-153):
            path = tmp_path / f"small_{c:g}.json"
            path.write_text(json.dumps(scaled_jumps(nested_spec_to_json(fermi_ou(2, 1.0, [1.0, 2.0]).spec), c)))
            assert main([command, "--input", str(path), *extra]) == 2
            err = capsys.readouterr().err
            assert err.startswith("input error: L underflows double precision") and "transport metric" in err

    def test_inspect_at_1e150_raises_no_warning(self, tmp_path):
        # every norm of the certification and extraction is taken of scaled
        # entries, so none squares an entry of about 1e300
        import warnings

        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps(scaled_jumps(nested_spec_to_json(fermi_ou(1, 1.0, [1.0]).spec), 1e150)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["inspect", "--input", str(scaled), "--output", str(tmp_path / "report.json")]) == 0

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
        scaled = GeneratorSpec(spec.sigma, [(np.sqrt(c) * v, w) for v, w in spec.jumps])
        assert _verdicts(*_inspect(scaled)) == expect

    @INSPECT_SETTINGS
    @given(name=st.sampled_from(INSPECT_MODELS), seed=st.integers(0, 2**32 - 1))
    def test_unitary_conjugation(self, name, seed):
        spec, expect = _inspect_model(name)
        w, _ = np.linalg.qr(random_matrix(np.random.default_rng(seed), spec.dim))
        sigma = DensityState.from_matrix(w @ spec.sigma.rho @ dag(w))
        rotated = GeneratorSpec(sigma, [(w @ v @ dag(w), om) for v, om in spec.jumps])
        assert _verdicts(*_inspect(rotated)) == expect

    @INSPECT_SETTINGS
    @given(name=st.sampled_from(INSPECT_MODELS), seed=st.integers(0, 2**32 - 1))
    def test_reordered_jumps(self, name, seed):
        spec, expect = _inspect_model(name)
        order = np.random.default_rng(seed).permutation(spec.njumps)
        permuted = GeneratorSpec(spec.sigma, [spec.jumps[i] for i in order])
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
            assert _verdicts(*_inspect(GeneratorSpec(spec.sigma, jumps))) == expect


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


def _offblock_jumps(base, rel):
    """The jumps of ``base`` with rel of every jump's Frobenius mass moved
    off its Bohr block: a traceless diagonal shift for omega != 0 (its
    adjoint partner shifted to match), a Hermitian hop between two
    eigenvectors of sigma of different eigenvalue for omega = 0."""
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
    return jumps


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

    @pytest.mark.parametrize("eps, gns", [(1e-9, True), (3e-9, False), (5e-9, False)])
    def test_gns_defect_of_the_jumps_seen_on_both_routes(self, eps, gns):
        # Fermi m=1 with its second jump scaled by 1 + eps passes admission's
        # KMS check but is not GNS-symmetric; symmetrised blocks would hide it
        jumps = list(fermi_ou(1, 1.0, [1.0]).spec.jumps)
        v, w = jumps[1]
        spec = GeneratorSpec(fermi_ou(1, 1.0, [1.0]).spec.sigma, [jumps[0], ((1 + eps) * v, w)])
        for dense in (False, True):
            report = _inspect(spec, dense=dense)[1]["certification"]
            assert report["gns_dbc"] == gns
            assert report["s_residuals"]["1.0"] > 0.25 * eps

    @pytest.mark.parametrize(
        "name, rel",
        [("random4", 1e-11), ("random4", 0.99e-10), ("fermi_m2", 0.99e-10), ("random16", 0.99e-10)],
    )
    def test_offblock_mass_is_snapped_at_load(self, name, rel):
        # rel of every jump's mass moved off its Bohr block, adjoints to
        # match, up to admission's limit (JUMP_EIGEN_TOL = 1e-10): the spec
        # loads with its jumps snapped back onto their blocks, and its route
        # agrees with the dense route on the raw, unsnapped jumps
        base = ROUTE_SPECS[name]()
        raw = _offblock_jumps(base, rel)
        spec = GeneratorSpec(base.sigma, raw)
        assert any(not np.array_equal(v, x) for (v, _), (x, _) in zip(spec.jumps, raw))
        code, report = _inspect(spec)
        dense_code, dense = _inspect_superoperator(kron_sum_generator(raw), base.sigma)
        assert _route_fields(code, report) == _route_fields(dense_code, dense)
        assert (code, report["certification"]["gns_dbc"]) == (0, True)
        assert report["certification"]["s_residuals"]["1.0"] < 1e-15

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

        # the dense GKS matrix is a test reference, and canonical imports neither
        assert not any(hasattr(canonical, name) for name in ("build_generator", "gks_matrix", "choi"))
        monkeypatch.setattr(generators, "build_generator", counting("build_generator", generators.build_generator))
        coefficients = generators._superoperator_coefficients
        monkeypatch.setattr(generators, "_superoperator_coefficients", counting("coefficients", coefficients))
        monkeypatch.setattr(linalg, "choi", counting("choi", linalg.choi))
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


def _with_far_zero_jump(spec, far):
    """``spec`` as spec JSON, with a zero jump at omega = 1e12 appended when ``far``."""
    obj = spec_to_json(spec)
    if far:
        obj["jumps"].append({"V": matrix_to_json(np.zeros((spec.dim, spec.dim))), "omega": 1e12})
    return obj


class TestFarJumpFrequency:
    """sigma alone decides the Bohr blocks: a zero jump at omega = 1e12, far
    beyond every Bohr frequency, is looked up among them, finds none, and
    neither merges the blocks nor moves an output."""

    def test_inspect_and_evolve_read_as_without_it(self, tmp_path):
        from qmsflow.models import random_density

        spec = fermi_ou(2, 1.0, [1.0, 1.3]).spec
        rho = tmp_path / "rho.json"
        rho.write_text(dump_json(density_to_json(random_density(4, np.random.default_rng(3)))))
        texts = []
        for far in (False, True):
            path = tmp_path / f"spec_{far}.json"
            path.write_text(dump_json(_with_far_zero_jump(spec, far)))
            ins, evo = tmp_path / f"inspect_{far}.json", tmp_path / f"evolve_{far}.csv"
            assert main(["inspect", "--input", str(path), "--output", str(ins)]) == 0
            assert main(["evolve", "--input", str(path), "--rho0", str(rho), "--grid", "0:2:9",
                         "--output", str(evo)]) == 0
            texts.append((ins.read_text(), evo.read_text()))
        assert texts[1] == texts[0]

    def test_inspect_at_dim_48_exits_zero(self, tmp_path, capsys):
        # with the jumps' frequencies grouped in, sigma's 2,304 units became
        # one block, over MAX_BOHR_BLOCK
        spec = random_dbc_spec(48, np.random.default_rng(1), ergodic=True)
        path = tmp_path / "spec.json"
        path.write_text(dump_json(_with_far_zero_jump(spec, True)))
        assert main(["inspect", "--input", str(path), "--output", str(tmp_path / "report.json")]) == 0
        assert capsys.readouterr().err == ""


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

    def test_scaled_jumps_keep_the_null_mode(self, fermi_spec_file, tmp_path, rng):
        # every jump x1e10: L's null eigenvalue is 0, not its round-off
        # (+16384, of a largest |mu| of 2.3e20), so e^{t mu} stays finite,
        # and D(0) is the unscaled spec's
        from qmsflow.models import random_density

        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps(scaled_jumps(nested_spec_to_json(fermi_ou(1, 1.0, [1.0]).spec), 1e10)))
        rho_path = tmp_path / "rho.json"
        rho_path.write_text(dump_json(density_to_json(random_density(2, rng))))
        rows = {}
        for name, path in (("unscaled", fermi_spec_file), ("scaled", str(scaled))):
            out = tmp_path / f"{name}.csv"
            assert main(["evolve", "--input", path, "--rho0", str(rho_path), "--grid", "0:3:31",
                         "--output", str(out)]) == 0
            rows[name] = trajectory_from_csv(out.read_text())
        assert abs(rows["scaled"][0].entropy - rows["unscaled"][0].entropy) <= 1e-12
        assert all(abs(r.entropy) <= 1e-12 for r in rows["scaled"][1:])

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
        monkeypatch.setattr(generators, "build_generator", counting_build)
        assert not hasattr(entropy, "build_generator")
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

    @pytest.mark.parametrize("command", ["metric", "geodesic"])
    def test_dim_one_spec_has_no_metric(self, tmp_path, capsys, command):
        # sigma = [[1]] and the jump [[0.5]] at omega = 0: the only traceless
        # Hermitian matrix is 0, so there is no tangent direction
        one = [[[1.0, 0.0]]]
        spec_path, rho_path = tmp_path / "spec.json", tmp_path / "rho.json"
        spec_path.write_text(json.dumps({"dim": 1, "sigma": one, "jumps": [{"V": [[[0.5, 0.0]]], "omega": 0.0}]}))
        rho_path.write_text(json.dumps({"dim": 1, "rho": one}))
        side = ["--rho0", str(rho_path)] if command == "geodesic" else ["--rho", str(rho_path)]
        assert main([command, "--input", str(spec_path), *side]) == 1
        err = capsys.readouterr().err
        assert err == "error: the transport metric needs dim >= 2, not dim 1\n"

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

    @pytest.mark.parametrize("model", [["depolarizing", "--m", "3"], ["fermi-infinite", "--m", "4"]])
    def test_restrict_degenerate_sigma_exit_two(self, tmp_path, capsys, model):
        # a degenerate sigma has no default projections: an input error that
        # names --projections, as every other refusal of restrict's input is
        spec_path, out = tmp_path / "spec.json", tmp_path / "rates.json"
        assert main(["zoo", "--model", *model, "--output", str(spec_path)]) == 0
        assert main(["restrict", "--input", str(spec_path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: sigma has (numerically) degenerate eigenvalues")
        assert "--projections" in err and not out.exists()

    @pytest.mark.parametrize("c", [1e100, 1e150])
    def test_restrict_invariance_verdict_at_every_scale(self, tmp_path, capsys, c):
        # the Hadamard projections (I +- X)/2 are refused at x1 with residual
        # 7.369e-01; every jump times c scales it by c^2, and the norms do
        # not overflow, so the verdict is x1's
        hadamard = [0.5 * np.array([[1.0, s], [s, 1.0]]) for s in (1.0, -1.0)]
        proj_path, spec_path = tmp_path / "projs.json", tmp_path / "scaled.json"
        proj_path.write_text(dump_json([matrix_to_json(e) for e in hadamard]))
        spec_path.write_text(json.dumps(scaled_jumps(nested_spec_to_json(fermi_ou(1, 1.0, [1.0]).spec), c)))
        assert main(["restrict", "--input", str(spec_path), "--projections", str(proj_path)]) == 2
        err = capsys.readouterr().err
        assert err == ("input error: span of projections is not invariant under the dual generator "
                       f"(projection 0, residual {0.7369 * c * c:.3e})\n")

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
            content = [nested_matrix_to_json(np.diag([1.0, 0.0])), nested_matrix_to_json(np.diag([0.0, 1.0]))]
            content[0][0][1] = cell[defect]
        else:
            content = nested_density_to_json(DensityState.from_matrix(np.diag([0.4, 0.6])))
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


# the packed wire form: one base64 string of 16 n^2 bytes per matrix
SPECIAL_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -1.0]


def _bits(a):
    return np.ascontiguousarray(a, dtype="<c16").tobytes()


class TestPackedMatrices:
    def test_matrix_roundtrip_is_bit_exact(self, rng):
        special = np.empty((4, 4), dtype=complex)
        special.real = np.resize(SPECIAL_ENTRIES, (4, 4))
        special.imag = np.roll(special.real, 3)
        for a in (random_matrix(rng, 1), random_matrix(rng, 5), special, np.diag([0.0, -0.0])):
            text = matrix_to_json(a)
            # the decoding the README gives
            assert _bits(np.frombuffer(base64.b64decode(text), "<c16").reshape(a.shape)) == _bits(a)
            back = matrix_from_json(json.loads(json.dumps(text)))
            assert _bits(back) == _bits(a)
            # an owned, writable, native-endian array
            assert back.dtype == np.dtype(complex) and back.flags.owndata and back.flags.writeable

    def test_density_and_spec_roundtrip_is_bit_exact(self, rng):
        from qmsflow.models import random_density

        tiny = np.array([[0.5, complex(5e-324, -0.0)], [complex(5e-324, 0.0), 0.5]])
        for state in (random_density(4, rng), DensityState.from_matrix(tiny)):
            obj = json.loads(dump_json(density_to_json(state)))
            assert isinstance(obj["rho"], str)
            assert _bits(density_from_json(obj).rho) == _bits(state.rho)
        # on the maximally mixed sigma every unit is in one Bohr block, so
        # admission stores the jump as given
        v = np.array([[1.0, complex(5e-324, -0.0)], [complex(5e-324, 0.0), -0.0]])
        for spec in (random_dbc_spec(3, rng), GeneratorSpec(DensityState.from_matrix(np.eye(2) / 2), [(v, 0.0)])):
            obj = json.loads(dump_json(spec_to_json(spec)))
            back = spec_from_json(obj)
            assert _bits(matrix_from_json(obj["sigma"])) == _bits(spec.sigma.rho)
            assert [_bits(matrix_from_json(j["V"])) for j in obj["jumps"]] == [_bits(w) for w, _ in spec.jumps]
            assert _bits(back.sigma.rho) == _bits(spec.sigma.rho)
        assert _bits(back.jumps[0][0]) == _bits(v)

    @pytest.mark.parametrize("text, message", [
        ("", "packed matrix holds 0 bytes"),
        ("AAA", "packed matrix is not base64: length 3"),
        (matrix_to_json(np.eye(2))[:-4], "packed matrix holds 63 bytes"),
        (base64.b64encode(bytes(20)).decode(), "packed matrix holds 20 bytes"),
        ("*" + matrix_to_json(np.eye(2))[1:], "packed matrix is not base64"),
        ("\u00e9" + matrix_to_json(np.eye(2))[1:], "packed matrix is not base64"),
        (matrix_to_json(np.eye(2))[:-8] + "A=AA" + matrix_to_json(np.eye(2))[-4:], "packed matrix is not base64"),
    ], ids=["empty", "short", "truncated", "twenty_bytes", "bad_character", "non_ascii", "inner_padding"])
    def test_malformed_packed_matrix(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            matrix_from_json(text)


PACKED_DEFECTS = ["not_base64", "bad_length", "other_n", "other_dim"]


def _packed_spec_defect(defect):
    """The dim-2 Fermi m=1 spec JSON with one packed defect."""
    obj = spec_to_json(fermi_ou(1, 1.0, [1.0]).spec)
    if defect == "not_base64":
        obj["jumps"][0]["V"] = "!" + obj["jumps"][0]["V"][1:]
    elif defect == "bad_length":
        obj["sigma"] = obj["sigma"][:-4]
    elif defect == "other_n":
        obj["jumps"][1]["V"] = matrix_to_json(np.zeros((3, 3)))
    else:
        obj["dim"] = 3
    return obj


@pytest.mark.parametrize("defect", PACKED_DEFECTS)
def test_packed_input_defects_exit_two(tmp_path, capsys, defect):
    path, out = tmp_path / "bad.json", tmp_path / "out"
    path.write_text(json.dumps(_packed_spec_defect(defect)))
    assert main(["inspect", "--input", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    expected = {"not_base64": "packed matrix is not base64", "bad_length": "packed matrix holds 63 bytes",
                "other_n": "jump 1 has shape (3, 3), expected (2, 2)",
                "other_dim": "declared dim 3 does not match matrix dim 2"}[defect]
    assert err.startswith("input error: ") and expected in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", SIDE_FILE_FLAGS)
@pytest.mark.parametrize("defect", PACKED_DEFECTS)
def test_packed_side_file_defects_exit_two(fermi_spec_file, tmp_path, capsys, command, flag, defect):
    # a packed state or projection that is not base64, holds no n x n
    # matrix, or is not of the dim-2 spec's or its declared dimension
    rho = np.diag([0.4, 0.6])
    text = {"not_base64": "!" + matrix_to_json(rho)[1:], "bad_length": matrix_to_json(rho)[:-4],
            "other_n": matrix_to_json(np.eye(3) / 3)}.get(defect, matrix_to_json(rho))
    if flag == "--projections":
        content = [text, matrix_to_json(np.diag([0.0, 1.0]))]
        if defect == "other_dim":  # a projection list declares no dim: a list of one 3 x 3
            content = [matrix_to_json(np.eye(3))]
    elif defect == "other_dim":
        content = {"dim": 3, "rho": text}
    else:
        content = {"rho": text}
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps(content))
    good.write_text(dump_json(density_to_json(DensityState.from_matrix(rho))))
    argv = [command, "--input", fermi_spec_file, flag, str(bad), "--output", str(tmp_path / "out")]
    if command == "geodesic" and flag == "--rho1":
        argv += ["--rho0", str(good)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    expected = {"not_base64": "packed matrix is not base64", "bad_length": "packed matrix holds 63 bytes",
                "other_n": "a 3 x 3 matrix for a spec of dim 2",
                "other_dim": ("a 3 x 3 matrix for a spec of dim 2" if flag == "--projections"
                              else "declared dim 3 does not match matrix dim 2")}[defect]
    assert err.startswith(f"input error: {bad}: ") and expected in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rows", [3, 9, 25])
def test_packed_superoperator_size_refused_before_decoding(tmp_path, capsys, monkeypatch, rows):
    # the byte count of a packed superoperator is known from its length: one
    # of 16 m^2 bytes, m != n^2, exits 2 with the nested row-count message
    # before it is decoded, although its first character is not base64
    converted = []
    convert = cli.matrix_from_json
    monkeypatch.setattr(cli, "matrix_from_json", lambda obj: converted.append(obj) or convert(obj))
    text = "!" + matrix_to_json(np.zeros((rows, rows)))[1:]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 2, "sigma": matrix_to_json(np.diag([0.3, 0.7])), "superoperator": text}))
    assert main(["inspect", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (f"input error: superoperator has {rows} rows, not n^2 = 4 "
                                       "for sigma of dim n = 2\n")
    assert converted == []


def test_nested_superoperator_input(tmp_path):
    spec = fermi_ou(1, 1.0, [1.0]).spec
    path, out = tmp_path / "l.json", tmp_path / "report.json"
    path.write_text(dump_json({"dim": 2, "sigma": nested_matrix_to_json(spec.sigma.rho),
                               "superoperator": nested_matrix_to_json(generators.build_generator(spec))}))
    assert main(["inspect", "--input", str(path), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["canonical"]["jump_count"] == 2


def test_benchmark_specs_read_alike_in_either_form(tmp_path):
    # the dense-d16 benchmark's inputs (Fermi OU m=4 and a random ergodic
    # dim-16 spec, seed 1): nested and packed files give byte-identical
    # inspect reports and evolve trajectories
    from qmsflow.models import random_density

    fermi = fermi_ou(4, 1.0, [1.0, 1.3, 1.7, 2.2])
    cases = [("fermi4", fermi.spec, ["--decay-rate", repr(fermi.decay_rate())]),
             ("random16", random_dbc_spec(16, np.random.default_rng([1, 1]), ergodic=True), [])]
    state = random_density(16, np.random.default_rng([1, 2, 0]))
    for name, spec, extra in cases:
        outputs = []
        for form, write, write_rho in (("nested", nested_spec_to_json, nested_density_to_json),
                                       ("packed", spec_to_json, density_to_json)):
            path, rho = tmp_path / f"{name}_{form}.json", tmp_path / f"rho_{form}.json"
            path.write_text(json.dumps(write(spec)))
            rho.write_text(json.dumps(write_rho(state)))
            ins, evo = tmp_path / f"{name}_{form}_inspect.json", tmp_path / f"{name}_{form}_evolve.csv"
            assert main(["inspect", "--input", str(path), "--output", str(ins)]) == 0
            assert main(["evolve", "--input", str(path), "--rho0", str(rho), "--grid", "0:3:31", *extra,
                         "--output", str(evo)]) == 0
            outputs.append((ins.read_bytes(), evo.read_bytes()))
        assert outputs[0] == outputs[1], name


@pytest.mark.parametrize(
    "argv",
    [
        ["zoo", "--model", "fermi", "--m", "5"],
        ["zoo", "--model", "fermi", "--m", "2", "--energies", "1"],
        ["zoo", "--model", "fermi", "--m", "2", "--energies", "a,b"],
        ["zoo", "--model", "fermi", "--m", "2", "--energies", "1,inf"],
        ["zoo", "--model", "depolarizing", "--m", "9"],
        ["zoo", "--model", "fermi-infinite", "--m", "3"],
        ["zoo", "--model", "fermi", "--beta", "-1"],
        ["zoo", "--model", "fermi", "--beta", "nan"],
        ["inspect", "--input", "SPEC", "--tol", "gns_flag=inf"],
        ["inspect", "--input", "SPEC", "--tol", "gns_flag=nan"],
        ["inspect", "--input", "SPEC", "--tol", "psd=-1"],
        ["evolve", "--input", "SPEC", "--decay-rate", "nan"],
        ["evolve", "--input", "SPEC", "--decay-rate", "0"],
        ["evolve", "--input", "SPEC", "--grid", "0:inf:3"],
        ["evolve", "--input", "SPEC", "--grid", "nan:1:3"],
        ["evolve", "--input", "SPEC", "--grid", "0:nan:3"],
    ],
    ids=lambda argv: " ".join(argv).replace("SPEC", "spec"),
)
def test_malformed_numeric_argument_exit_two(fermi_spec_file, tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = [fermi_spec_file if a == "SPEC" else a for a in argv] + ["--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("input error:")
    assert not out.exists()


# the units sweep: every spec command on each spec with every jump times c,
# so L times c^2
def _ladder_spec():
    """sigma = diag(1, 1e2, 1e4, 1e6) normalised, lam_max/lam_min = 1e6, with
    the jump pairs E_{i,i+1}, E_{i+1,i} between adjacent levels."""
    lam = 10.0 ** np.arange(0, 7, 2)
    units = np.eye(4)
    jumps = []
    for i in range(3):
        w = float(np.log(lam[i + 1] / lam[i]))  # E_ab has omega = log lam_b - log lam_a
        jumps += [(np.outer(units[i], units[i + 1]), w), (np.outer(units[i + 1], units[i]), -w)]
    return GeneratorSpec(DensityState.from_matrix(np.diag(lam / lam.sum())), jumps)


SWEEP_SPECS = {
    "fermi_m1": lambda: fermi_ou(1, 1.0, [1.0]).spec,
    "fermi_m2": lambda: fermi_ou(2, 1.0, [1.0, 2.0]).spec,
    "depolarizing_n3": lambda: depolarizing(3),
    "fermi_infinite_m4": lambda: fermi_ou_infinite(4),
    "random4": lambda: random_dbc_spec(4, np.random.default_rng(1), ergodic=True),
    "random6": lambda: random_dbc_spec(6, np.random.default_rng(2), ergodic=True),
    # large J (33 jumps) and sigma near the headroom bound
    "random6_j33": lambda: random_dbc_spec(6, np.random.default_rng(7), n_offdiag=15, n_zero=3, ergodic=True),
    "ladder_ratio_1e6": _ladder_spec,
}
SWEEP_SCALES = (1e-165, 1e-155, 1e-154, 1e-153, 1e-150, 1.0, 1e100, 1e150, 1e154)


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _sweep_verdicts(command, code, out):
    """The exit code and the fields of a command's output that no change of
    units may move; a JSON output must parse as strict JSON."""
    if not out.exists():
        return (code,)
    text = out.read_text()
    if command == "evolve":
        return code, len(trajectory_from_csv(text))
    report = json.loads(text, parse_constant=_refuse_constant)
    if command == "inspect":  # no ergodicity on superoperator input
        cert, canon = report["certification"], report.get("canonical", {})
        return (code, cert["gns_dbc"], cert["kms_only"], report["completely_positive"], report.get("ergodicity"),
                canon.get("jump_count"), canon.get("omegas"))
    if command == "metric":
        return code, report["min_eigenvalue"] > 0
    if command == "geodesic":
        return code, report["converged"], report["iterations"]
    return code, np.shape(report["rates"])


class TestUnitsSweep:
    @pytest.mark.parametrize(
        "name, nested",
        [*(pytest.param(name, False, id=name) for name in sorted(SWEEP_SPECS)),
         pytest.param("fermi_m2", True, id="fermi_m2_nested")],
    )
    def test_every_spec_command_at_every_scale(self, tmp_path, name, nested):
        # inspect, evolve, metric, geodesic and restrict (default
        # projections) read as at x1 at every scale admission takes, raise
        # no numpy warning and write strict JSON; a refused scale exits 2.
        # The scaled jumps are written packed, and once as nested cells
        # times c
        import warnings

        from qmsflow.models import random_density

        spec = SWEEP_SPECS[name]()
        rho = tmp_path / "rho.json"
        rho.write_text(dump_json(density_to_json(random_density(spec.dim, np.random.default_rng(3)))))
        commands = {
            "inspect": [],
            "evolve": ["--rho0", str(rho), "--grid", "0:1:5"],
            "metric": ["--rho", str(rho)],
            "geodesic": ["--rho0", str(rho), "--segments", "4"],
            "restrict": [],
        }
        verdicts, admitted = {}, {}
        for c in SWEEP_SCALES:
            path = tmp_path / f"spec_{c:g}.json"
            jumps = [(c * v, w) for v, w in spec.jumps]
            if nested:
                obj = scaled_jumps(nested_spec_to_json(spec), c)
            else:
                obj = {"dim": spec.dim, "sigma": matrix_to_json(spec.sigma.rho),
                       "jumps": [{"V": matrix_to_json(v), "omega": w} for v, w in jumps]}
            path.write_text(json.dumps(obj))
            try:
                GeneratorSpec(spec.sigma, jumps)
                admitted[c] = True
            except ValueError:
                admitted[c] = False
            for command, extra in commands.items():
                out = tmp_path / f"{command}_{c:g}.out"
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main([command, "--input", str(path), *extra, "--output", str(out)])
                verdicts[c, command] = _sweep_verdicts(command, code, out)
        assert admitted[1.0] and not admitted[1e154] and verdicts[1.0, "inspect"][0] == 0
        for (c, command), verdict in verdicts.items():
            assert verdict == (verdicts[1.0, command] if admitted[c] else (2,)), (c, command)

    @pytest.mark.parametrize("name", sorted(SWEEP_SPECS))
    def test_inspect_on_the_superoperator_at_every_scale(self, tmp_path, name):
        # inspect on the dense L of each spec with every jump times c, so L
        # times c^2: where Superoperator admits it, it reads as at x1 with no
        # numpy warning and strict JSON; a refused scale exits 2.  At 1e-165
        # every entry of c^2 L rounds to 0: that input is the zero map, which
        # is admitted, certified and has no jumps
        import warnings

        spec = SWEEP_SPECS[name]()
        l = generators.build_generator(spec)
        verdicts, admitted, zero = {}, {}, {}
        for c in SWEEP_SCALES:
            with np.errstate(over="ignore"):
                lc = c * (c * l)
            try:
                generators.Superoperator(spec.sigma, lc)
                admitted[c] = True
            except ValueError:
                admitted[c] = False
            path, out = tmp_path / f"superoperator_{c:g}.json", tmp_path / f"inspect_{c:g}.out"
            path.write_text(json.dumps({"dim": spec.dim, "sigma": matrix_to_json(spec.sigma.rho),
                                        "superoperator": matrix_to_json(lc)}))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["inspect", "--input", str(path), "--output", str(out)])
            verdicts[c], zero[c] = _sweep_verdicts("inspect", code, out), not lc.any()
        assert admitted[1.0] and not admitted[1e154] and verdicts[1.0][0] == 0
        assert zero == {c: c == 1e-165 for c in SWEEP_SCALES}
        for c, verdict in verdicts.items():
            expect = (0, True, False, True, None, 0, []) if zero[c] else verdicts[1.0] if admitted[c] else (2,)
            assert verdict == expect, c


@functools.cache
def _depolarizing_distance(segments):
    from qmsflow.models import random_density
    from qmsflow.transport import geodesic_distance

    spec = depolarizing(3)
    return geodesic_distance(spec, random_density(3, np.random.default_rng(3)), spec.sigma, segments=segments)


@pytest.mark.parametrize("segments", [256, 1024])
@pytest.mark.parametrize("c", [1.3e-153, 2e-153])
def test_geodesic_many_segments_near_the_admission_floor(tmp_path, c, segments):
    # depolarizing n=3 with every jump times c is admitted, and 2K M^{-1}
    # would not fit in double precision: the Newton system is formed on a
    # power-of-2 scale, so the solve raises no numpy warning and reads the
    # distance at x1 over c
    import warnings

    from qmsflow.models import random_density

    spec = depolarizing(3)
    path, rho, out = tmp_path / "spec.json", tmp_path / "rho.json", tmp_path / "geodesic.json"
    path.write_text(json.dumps({"dim": 3, "sigma": matrix_to_json(spec.sigma.rho),
                                "jumps": [{"V": matrix_to_json(c * v), "omega": w} for v, w in spec.jumps]}))
    rho.write_text(json.dumps(density_to_json(random_density(3, np.random.default_rng(3)))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["geodesic", "--input", str(path), "--rho0", str(rho), "--segments", str(segments),
                     "--output", str(out)])
    report = json.loads(out.read_text())
    reference = _depolarizing_distance(segments)
    assert code == 0 and report["converged"] and report["iterations"] == reference.iterations
    assert report["distance"] * c == pytest.approx(reference.distance, rel=1e-12)


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

    @pytest.mark.parametrize(
        "flags, unread",
        [
            (["--model", "depolarizing", "--m", "2", "--beta", "nan", "--energies", "x,y", "--rates"],
             "--beta, --energies, --rates"),
            (["--model", "kms-counterexample", "--m", "7", "--beta", "-3"], "--m, --beta"),
            (["--model", "kms-counterexample", "--m", "0"], "--m"),
            (["--model", "depolarizing", "--beta", "0"], "--beta"),
            (["--model", "fermi-infinite", "--m", "4", "--rates"], "--rates"),
        ],
    )
    def test_refuses_flags_the_model_does_not_read(self, tmp_path, capsys, flags, unread):
        out = tmp_path / "zoo.json"
        assert main(["zoo", *flags, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.rstrip().endswith(f"does not read {unread}")
        assert not out.exists()


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
        # the reduced block's spectrum does not depend on the basis order, so
        # each L is admitted (rotated) once and its reduced block eigensolved once
        from qmsflow import verify

        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("_reduced_spectrum", "_rotated"):
            monkeypatch.setattr(generators, name, counting(name, getattr(generators, name)))
        ok, _ = verify.check_extraction_uniqueness(np.random.default_rng(1))
        assert ok and calls.count("_reduced_spectrum") == 3 and calls.count("_rotated") == 3

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
        # numpy is the only runtime dependency: with scipy made unimportable
        # (a None entry in sys.modules), the package imports and every
        # subcommand runs.  The pytest process has scipy loaded already, so
        # this runs in a fresh interpreter.
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
            sys.modules["scipy"] = None
            import qmsflow
            from qmsflow.cli import main

            calls = [
                ["zoo", "--model", "fermi", "--m", "2", "--output", "spec.json"],
                ["zoo", "--model", "kms-counterexample", "--output", "kms.json"],
                ["zoo", "--model", "fermi-infinite", "--m", "4", "--output", "infinite.json"],
                ["zoo", "--model", "fermi", "--m", "2", "--energies", "1,2", "--output", "spec12.json"],
                ["inspect", "--input", "spec.json", "--output", "inspect.json"],
                ["inspect", "--input", "kms.json", "--output", "inspect_kms.json"],
                ["inspect", "--input", "super.json", "--output", "inspect_super.json"],
                ["evolve", "--input", "spec.json", "--grid", "0:1:5", "--output", "evolve.csv"],
                ["geodesic", "--input", "spec.json", "--rho0", "rho.json", "--segments", "2",
                 "--output", "geodesic.json"],
                ["metric", "--input", "spec.json", "--rho", "rho.json", "--output", "metric.json"],
                ["restrict", "--input", "spec12.json", "--output", "restrict.json"],
                ["verify", "--seed", "1", "--output", "verify.txt"],
            ]
            codes = [main(argv) for argv in calls]
            print(json.dumps({"codes": codes}))
        """
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        run = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout.splitlines()[-1])
        # the KMS counterexample fails certification (exit 1); everything else succeeds
        assert result["codes"] == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
        rates = json.loads((tmp_path / "restrict.json").read_text())
        assert len(rates["rates"]) == 4

    def test_seed_changes_details(self, tmp_path):
        out1 = tmp_path / "v1.txt"
        out2 = tmp_path / "v2.txt"
        assert main(["verify", "--seed", "1", "--output", str(out1)]) == 0
        assert main(["verify", "--seed", "2", "--output", str(out2)]) == 0
        assert out1.read_text() != out2.read_text()


class TestInProcessCalls:
    def test_parser_built_once(self, fermi_spec_file, tmp_path, monkeypatch):
        # main reuses one parser: later calls construct no ArgumentParser
        import argparse

        main(["inspect", "--input", fermi_spec_file, "--output", str(tmp_path / "a.json")])
        built = []
        real_init = argparse.ArgumentParser.__init__

        def init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
        for name in ("b", "c"):
            assert main(["inspect", "--input", fermi_spec_file, "--output", str(tmp_path / name)]) == 0
        assert main(["evolve", "--input", fermi_spec_file, "--output", str(tmp_path / "d.csv")]) == 0
        assert built == []
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("outcome", ["return", "input_error", "json_error", "argparse_exit"])
    def test_gc_enabled_after_main(self, fermi_spec_file, tmp_path, capsys, outcome):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        argv = {
            "return": ["inspect", "--input", fermi_spec_file, "--output", str(tmp_path / "out.json")],
            "input_error": ["inspect", "--input", str(tmp_path / "missing.json")],
            "json_error": ["inspect", "--input", str(bad)],
            "argparse_exit": ["inspect"],
        }[outcome]
        assert gc.isenabled()
        try:
            if outcome == "argparse_exit":
                with pytest.raises(SystemExit):
                    main(argv)
            else:
                assert main(argv) == (0 if outcome == "return" else 2)
            assert gc.isenabled()
        finally:
            gc.enable()

    def test_conversion_runs_with_gc_paused(self, fermi_spec_file):
        # the parsed tree is converted, and dropped, before the collector resumes
        assert _load_json(fermi_spec_file, lambda obj: gc.isenabled()) is False
        assert gc.isenabled()


def _unreadable(tmp_path, defect):
    """A path that is a directory, or a file of bytes that are not UTF-8."""
    bad = tmp_path / "bad"
    if defect == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b'{"rho": "\xe9t\xe9"}')
    return bad


UNREADABLE_MESSAGES = {"directory": r"cannot read {path}: Is a directory",
                       "not_utf8": r"{path} is not UTF-8 text \(byte 9\)"}


@pytest.mark.parametrize("defect", ["directory", "not_utf8"])
def test_unreadable_file_is_input_error(tmp_path, defect):
    bad = _unreadable(tmp_path, defect)
    with pytest.raises(InputError, match=UNREADABLE_MESSAGES[defect].format(path=re.escape(str(bad)))):
        _load_json(str(bad), lambda obj: obj)


@pytest.mark.parametrize("command, flag", [("inspect", "--input"), ("evolve", "--rho0"),
                                           ("restrict", "--projections")])
@pytest.mark.parametrize("defect", ["directory", "not_utf8"])
def test_unreadable_input_exit_two(fermi_spec_file, tmp_path, capsys, command, flag, defect):
    bad = _unreadable(tmp_path, defect)
    out = tmp_path / "out"
    argv = [command, "--input", fermi_spec_file, "--output", str(out)]
    argv = [str(bad) if a == fermi_spec_file and flag == "--input" else a for a in argv]
    if flag != "--input":
        argv += [flag, str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    message = UNREADABLE_MESSAGES[defect].format(path=re.escape(str(bad)))
    assert re.fullmatch(rf"input error: {message}\n", err)
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_unwritable_output_exit_two(fermi_spec_file, tmp_path, capsys, target):
    # the output path's directory does not exist, or the path is a directory
    parent = tmp_path / "out"
    parent.mkdir()
    out = parent / "missing" / "x.json" if target == "missing_directory" else parent
    assert main(["inspect", "--input", fermi_spec_file, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    reason = "No such file or directory" if target == "missing_directory" else "Is a directory"
    assert re.fullmatch(rf"input error: cannot write {re.escape(str(out))}: {reason}\n", err)
    assert list(parent.iterdir()) == [] and not list(tmp_path.rglob(".qmsflow-*"))  # no temporary file left


def _openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not sys.platform.startswith("linux") or not _openblas(),
                    reason="reads OpenBLAS worker threads from /proc")
def test_dim16_commands_leave_blas_workers_idle(tmp_path):
    # jump-weighted sums at dim 16 (31 jumps) are too small to gain from a
    # second BLAS thread; a BLAS call on them wakes OpenBLAS's worker, which
    # then spins.  The worker threads' CPU time over 5 inspect and 5 evolve
    # calls, read from /proc after the worker has had time to go idle, stays
    # at most 2 clock ticks.
    script = """if True:
        import json, os, time
        import numpy as np
        from qmsflow import cli, models, serialize

        def worker_ticks():
            total = 0
            for tid in os.listdir("/proc/self/task"):
                if int(tid) != os.getpid():
                    with open(f"/proc/self/task/{tid}/stat") as fh:
                        fields = fh.read().rsplit(")", 1)[1].split()
                    total += int(fields[11]) + int(fields[12])  # utime, stime
            return total

        rng = np.random.default_rng([3, 1])
        with open("spec.json", "w") as fh:
            json.dump(serialize.spec_to_json(models.random_dbc_spec(16, rng, ergodic=True)), fh)
        with open("rho.json", "w") as fh:
            json.dump(serialize.density_to_json(models.random_density(16, rng)), fh)
        time.sleep(0.5)
        before = worker_ticks()
        for _ in range(5):
            assert cli.main(["inspect", "--input", "spec.json", "--output", "inspect.json"]) == 0
            assert cli.main(["evolve", "--input", "spec.json", "--rho0", "rho.json",
                             "--output", "evolve.csv"]) == 0
        time.sleep(0.5)
        print(worker_ticks() - before)
    """
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "OPENBLAS_NUM_THREADS": "2"}
    run = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout.splitlines()[-1]) <= 2


def test_rate_matrix_json_roundtrip():
    from qmsflow.models import fermi_ou, hypercube_restriction
    from qmsflow.serialize import rate_matrix_to_json

    rate = hypercube_restriction(fermi_ou(2, 0.8, [1.0, 2.0]))
    back = rate_matrix_from_json(rate_matrix_to_json(rate))
    assert np.allclose(back.rates, rate.rates)
    assert np.allclose(back.stationary, rate.stationary)


# removed from the package: test-only oracles (now in conftest), the
# superoperator helpers of verify's commutant dimension, and GKSMatrix
REMOVED = ["dirichlet_form", "chain_rule_residual", "modular_apply", "modular_shift",
           "modular_superoperator", "weight_superoperator_s", "rate_matrix_from_json",
           "trajectory_from_csv", "super_of_left", "super_of_right", "commutator_super", "GKSMatrix"]


def _package_modules():
    import pkgutil

    import qmsflow

    names = [m.name for m in pkgutil.iter_modules(qmsflow.__path__) if m.name != "__main__"]
    return [qmsflow] + [__import__(f"qmsflow.{name}", fromlist=[name]) for name in names]


def test_every_public_name_resolves():
    for module in _package_modules():
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_removed_names_are_gone():
    from dataclasses import fields

    from qmsflow.linalg import HermitianSpectrum
    from qmsflow.models import CliffordContext
    from qmsflow.transport import TangentDecomposition

    for module in _package_modules():
        assert not [name for name in REMOVED if hasattr(module, name)], module.__name__
    assert not hasattr(HermitianSpectrum, "reconstruct")
    assert not hasattr(CliffordContext, "monomial")
    assert [f.name for f in fields(TangentDecomposition)] == ["potential", "metric_value"]
