import json

import numpy as np
import pytest

from qmsflow.cli import main
from qmsflow.models import fermi_ou
from qmsflow.serialize import (
    density_from_json,
    density_to_json,
    dump_json,
    matrix_from_json,
    matrix_to_json,
    spec_from_json,
    spec_to_json,
)
from conftest import random_matrix


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

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(["inspect", "--input", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file_exit_two(self):
        assert main(["inspect", "--input", "/nonexistent/x.json"]) == 2


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
                "--budget", "2",
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
