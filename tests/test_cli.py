import hashlib
import json
import math

import pytest

from fermigas.cli import main


def write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


@pytest.fixture
def harmonic_2d_config(tmp_path):
    return write_config(
        tmp_path / "harmonic2d.json",
        {
            "schema_version": 1,
            "d": 2,
            "constants": "paper_literal",
            "potential": {"family": "harmonic"},
            "beta": 0.18,
            "interaction": {"family": "box", "params": {"radius": 2.0, "height": 1.0}},
            "grid": {"half_width": 2.5, "points_per_axis": 96},
        },
    )


@pytest.fixture
def harmonic_1d_config(tmp_path):
    return write_config(
        tmp_path / "harmonic1d.json",
        {
            "schema_version": 1,
            "d": 1,
            "constants": "bathtub_consistent",
            "potential": {"family": "harmonic"},
            "grid": {"half_width": 3.0, "points_per_axis": 1024},
        },
    )


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestTFMinimize:
    def test_happy_path_artifacts_and_manifest(self, harmonic_2d_config, tmp_path):
        out = tmp_path / "run"
        assert main(["tf-minimize", "--config", harmonic_2d_config, "--out", str(out)]) == 0
        with open(out / "solution.json") as fh:
            solution = json.load(fh)
        assert solution["lambda"] == pytest.approx(4.0, abs=1e-3)
        assert solution["schema_version"] == 1
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        listed = {entry["path"]: entry["sha256"] for entry in manifest["outputs"]}
        assert set(listed) == {"solution.json", "density.csv"}
        for name, digest in listed.items():
            assert sha(out / name) == digest

    def test_determinism_across_runs(self, harmonic_2d_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["tf-minimize", "--config", harmonic_2d_config, "--out", str(out1)])
        main(["tf-minimize", "--config", harmonic_2d_config, "--out", str(out2)])
        for name in ("solution.json", "density.csv"):
            assert sha(out1 / name) == sha(out2 / name)

    def test_d3_config_exits_2_citing_dimension(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.json", {"d": 3, "potential": {"family": "harmonic"}})
        assert main(["tf-minimize", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "d=3" in err["message"]

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["tf-minimize", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


class TestOracleCommand:
    def test_basis_cap_exit_4(self, tmp_path):
        assert main(["oracle", "--N", "4", "--M", "80", "--out", str(tmp_path)]) == 4

    def test_unreachable_tol_exit_3(self, tmp_path):
        assert main(["oracle", "--N", "2", "--M", "40", "--tol", "1e-300", "--out", str(tmp_path)]) == 3

    def test_flag_driven_run(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["oracle", "--N", "2", "--M", "30", "--beta", "0.2", "--interaction", "bump", "--out", str(out)]
        )
        assert code == 0
        with open(out / "oracle.json") as fh:
            record = json.load(fh)
        assert record["n_particles"] == 2
        assert record["basis_dim"] == math.comb(30, 2)
        assert max(record["occupations"]) <= 1.0 + 1e-8


class TestVlasovLift:
    def test_lift_consumes_density_csv(self, harmonic_1d_config, tmp_path):
        out = tmp_path / "tf"
        assert main(["tf-minimize", "--config", harmonic_1d_config, "--out", str(out)]) == 0
        out2 = tmp_path / "lift"
        code = main(
            [
                "vlasov-lift",
                "--config",
                harmonic_1d_config,
                "--density",
                str(out / "density.csv"),
                "--out",
                str(out2),
            ]
        )
        assert code == 0
        with open(out2 / "vlasov_report.json") as fh:
            report = json.load(fh)
        with open(out / "solution.json") as fh:
            solution = json.load(fh)
        # bathtub-consistent constants make the two energies agree
        assert report["total"] == pytest.approx(solution["energy"]["total"], rel=1e-6)
        assert report["normalization"] == pytest.approx(1.0, abs=1e-5)


class TestHusimiCommands:
    @pytest.fixture
    def husimi_config(self, tmp_path):
        return write_config(
            tmp_path / "husimi.json",
            {
                "d": 1,
                "constants": "bathtub_consistent",
                "potential": {"family": "harmonic"},
                "beta": 0.2,
                "n_particles": 4,
                "grid": {"half_width": 2.2, "points_per_axis": 192},
            },
        )

    def test_husimi_table(self, husimi_config, tmp_path):
        out = tmp_path / "h"
        assert main(["husimi", "--config", husimi_config, "--hbar-x", "0.25", "--out", str(out)]) == 0
        with open(out / "husimi_summary.json") as fh:
            summary = json.load(fh)
        assert summary["pauli_ok"]
        rows = (out / "husimi.csv").read_text().strip().splitlines()
        assert rows[0] == "x,p,m1"
        assert len(rows) == 1 + 192 * 192

    def test_semiclassics_check(self, husimi_config, tmp_path):
        out = tmp_path / "s"
        code = main(["semiclassics-check", "--config", husimi_config, "--hbar-x", "0.25", "--out", str(out)])
        assert code == 0
        with open(out / "semiclassics.json") as fh:
            record = json.load(fh)
        assert record["correction_gap"] <= 1e-3


class TestDFExperiment:
    def test_seeded_run_reproducible(self, tmp_path):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            code = main(
                ["df-experiment", "--seed", "7", "--N", "32", "--trials", "2000", "--out", str(out)]
            )
            assert code == 0
            outs.append(json.load(open(out / "df_stats.json")))
        assert outs[0]["frequency"] == outs[1]["frequency"]
        assert outs[0]["matches_exact"]

    def test_zero_trials_exits_2(self, tmp_path, capsys):
        code = main(["df-experiment", "--seed", "7", "--trials", "0", "--out", str(tmp_path / "z")])
        assert code == 2
        assert "trial" in capsys.readouterr().err


class TestSweep:
    def test_oracle_sweep_rows(self, tmp_path):
        out = tmp_path / "sw"
        code = main(
            [
                "sweep",
                "--subcommand",
                "oracle",
                "--param",
                "N",
                "--values",
                "2,3",
                "--args",
                "--M 24 --beta 0.2 --interaction bump",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        assert "energy_per_particle" in header
        assert len(rows) == 3

    def test_empty_values(self, tmp_path):
        out = tmp_path / "empty"
        assert main(["sweep", "--subcommand", "oracle", "--param", "N", "--values", "", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows == ["value,exit_code"]

    def test_partial_failure_recorded(self, tmp_path):
        out = tmp_path / "pf"
        code = main(
            [
                "sweep",
                "--subcommand",
                "oracle",
                "--param",
                "N",
                "--values",
                "2,200",
                "--args",
                "--M 24",
                "--out",
                str(out),
            ]
        )
        assert code == 0  # the sweep itself continues and reports per-row codes
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        assert rows[2].split(",")[1] == "2"  # N=200 > M=24 is a validation failure


class TestConstantsAudit:
    def test_audit_artifact(self, tmp_path):
        out = tmp_path / "audit"
        assert main(["constants-audit", "--d", "2", "--out", str(out)]) == 0
        with open(out / "constants_audit.json") as fh:
            report = json.load(fh)
        assert report["conventions"]["paper_literal"]["ratio_to_lift"] == pytest.approx(4.0, rel=1e-9)


class TestSemiclassicsSweep:
    def test_hbar_x_sweep_recovers_sqrt_slope(self, tmp_path):
        # plateau kernel: the smearing defect scales like sqrt(hbar_x), so the
        # log-log regression over the sweep column sits near slope 1/2
        cfg = write_config(
            tmp_path / "sc.json",
            {
                "d": 1,
                "potential": {"family": "harmonic"},
                "beta": 0.25,
                "n_particles": 4,
                "interaction": {"family": "plateau", "params": {"edge_width": 1e-3}},
                "grid": {"half_width": 2.2, "points_per_axis": 192},
            },
        )
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--subcommand",
                "semiclassics-check",
                "--param",
                "smear-hbar-x",
                "--values",
                "1e-2,1e-3,1e-4",
                "--args",
                f"--config {cfg}",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        col = header.index("smearing.0.error_single")
        errors = [float(r.split(",")[col]) for r in rows[1:]]
        slope = float(
            __import__("numpy").polyfit(
                __import__("numpy").log([1e-2, 1e-3, 1e-4]), __import__("numpy").log(errors), 1
            )[0]
        )
        assert 0.4 <= slope <= 0.65
