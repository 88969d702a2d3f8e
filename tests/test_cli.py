import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fermigas.cli import main
from fermigas.model import theorem_beta_limit


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


def config_hash(out):
    with open(os.path.join(out, "manifest.json")) as fh:
        return json.load(fh)["config_hash"]


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

    @pytest.mark.parametrize("config", ["harmonic_2d_config", "harmonic_1d_config"])
    def test_certificates_match_el_residual(self, config, request, tmp_path):
        # the record carries the solver's certificates, which el_residual recomputes
        from fermigas.model import load_config
        from fermigas.tf_solver import RelaxedLocalEnergy, minimize_1d_relaxed, minimize_2d
        from tf_reference import el_residual

        path = request.getfixturevalue(config)
        assert main(["tf-minimize", "--config", path, "--out", str(tmp_path / "run")]) == 0
        with open(tmp_path / "run" / "solution.json") as fh:
            solution = json.load(fh)
        cfg = load_config(path)
        i_w = cfg.interaction.i_w if cfg.interaction is not None else 0.0
        if cfg.d == 2:
            sol = minimize_2d(cfg.potential, cfg.constants, i_w, cfg.grid, tol=1e-6)
        else:
            sol = minimize_1d_relaxed(cfg.potential, RelaxedLocalEnergy(cfg.constants.c_tf, i_w), cfg.grid, tol=1e-6)
        assert (solution["el_residual"], solution["el_complement_min"]) == el_residual(sol, cfg.potential)

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

    def test_memory_cap_flag_exit_4(self, tmp_path):
        assert main(["oracle", "--N", "3", "--M", "40", "--memory-cap", "1", "--out", str(tmp_path)]) == 4

    def test_single_particle(self, tmp_path):
        out = tmp_path / "one"
        assert main(["oracle", "--N", "1", "--M", "40", "--beta", "0.2", "--interaction", "bump",
                     "--out", str(out)]) == 0
        with open(out / "oracle.json") as fh:
            record = json.load(fh)
        assert record["basis_dim"] == 40
        assert record["occupations"][0] == pytest.approx(1.0, abs=1e-12)
        assert record["interaction_integral"] == 0.0
        rho2 = np.loadtxt(out / "rho2_slice.csv", delimiter=",", skiprows=1)
        assert not np.any(rho2[:, 1])

    def test_more_than_63_sites(self, tmp_path):
        out = tmp_path / "wide"
        assert main(["oracle", "--N", "2", "--M", "100", "--out", str(out)]) == 0
        with open(out / "oracle.json") as fh:
            assert json.load(fh)["basis_dim"] == math.comb(100, 2)

    def test_unreachable_tol_exit_3(self, tmp_path, monkeypatch):
        # the residual gate after the solve: ARPACK's vector is moved 1e-6 off the eigenvector
        import scipy.sparse.linalg

        solve = scipy.sparse.linalg.eigsh

        def perturbed(*args, **kwargs):
            evals, evecs = solve(*args, **kwargs)
            return evals, evecs + 1e-6 * np.random.default_rng(0).standard_normal(evecs.shape)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", perturbed)
        assert main(["oracle", "--N", "2", "--M", "40", "--out", str(tmp_path)]) == 3

    def test_tol_below_residual_floor_exit_2(self, tmp_path, capsys):
        assert main(["oracle", "--N", "2", "--M", "40", "--tol", "1e-300", "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "residual floor" in err["message"]

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


    def test_half_width_flag_overrides_config(self, tmp_path):
        payload = {"schema_version": 1, "d": 1, "potential": {"family": "harmonic"}, "beta": 0.2,
                   "interaction": {"family": "bump"}, "grid": {"half_width": 4.0, "points_per_axis": 30}}
        config = write_config(tmp_path / "wide.json", payload)
        runs = {}
        for half in (None, "2.0", "3.0"):
            out = tmp_path / f"run{half}"
            argv = ["oracle", "--config", config, "--N", "2", "--M", "30", "--out", str(out)]
            assert main(argv + (["--half-width", half] if half else [])) == 0
            with open(out / "oracle.json") as fh:
                energy = json.load(fh)["energy"]
            x = np.loadtxt(out / "density1.csv", delimiter=",", skiprows=1)[:, 0]
            with open(out / "manifest.json") as fh:
                runs[half] = energy, x, json.load(fh)["config_hash"]
        for half, (energy, x, _) in runs.items():
            width = 4.0 if half is None else float(half)
            assert x[-1] == pytest.approx(width * (1.0 - 1.0 / 30.0), abs=1e-12)  # the last cell centre
        assert len({energy for energy, _, _ in runs.values()}) == 3
        assert len({digest for _, _, digest in runs.values()}) == 3
        # the flag-only run on the same lattice agrees with the config run
        out = tmp_path / "flags"
        assert main(["oracle", "--N", "2", "--M", "30", "--half-width", "2.0", "--beta", "0.2",
                     "--interaction", "bump", "--out", str(out)]) == 0
        with open(out / "oracle.json") as fh:
            assert json.load(fh)["energy"] == runs["2.0"][0]
        with open(out / "manifest.json") as fh:
            assert json.load(fh)["config_hash"] != runs["2.0"][2]  # the config's contents differ
        # an edited config at the same path is a different run
        write_config(config, {**payload, "potential": {"family": "harmonic", "params": {"stiffness": 2.0}}})
        out = tmp_path / "stiff"
        assert main(["oracle", "--config", config, "--N", "2", "--M", "30", "--half-width", "2.0",
                     "--out", str(out)]) == 0
        with open(out / "manifest.json") as fh:
            assert json.load(fh)["config_hash"] != runs["2.0"][2]

    def test_beta_flag_overrides_config(self, tmp_path):
        payload = {"d": 1, "potential": {"family": "harmonic"}, "beta": 0.2, "n_particles": 2,
                   "interaction": {"family": "bump", "params": {"height": 2.0}},
                   "grid": {"half_width": 2.5, "points_per_axis": 24}}
        config = write_config(tmp_path / "bump.json", payload)
        runs = {}
        for beta in ("0.1", "0.4"):
            out = tmp_path / beta
            assert main(["oracle", "--config", config, "--beta", beta, "--out", str(out)]) == 0
            with open(out / "oracle.json") as fh:
                runs[beta] = json.load(fh)["energy"], config_hash(out)
        assert runs["0.1"][0] != runs["0.4"][0]
        assert runs["0.1"][1] != runs["0.4"][1]
        # an interaction with no beta in the config or the flags is still refused
        bare = write_config(tmp_path / "bare.json", {"d": 1, "potential": {"family": "harmonic"}})
        assert main(["oracle", "--config", bare, "--N", "2", "--M", "24", "--interaction", "bump",
                     "--out", str(tmp_path / "bare")]) == 2

    def test_config_that_is_not_an_object_exits_2(self, tmp_path):
        # the oracle sets its flags as keys of the config's JSON object
        config = write_config(tmp_path / "list.json", [{"d": 1}])
        assert main(["oracle", "--config", config, "--N", "2", "--out", str(tmp_path / "o")]) == 2

    def test_record_carries_nnz_and_memory_estimate(self, tmp_path):
        from fermigas.model import SpatialGrid, harmonic_potential
        from fermigas.oracle import DiscreteHamiltonian, oracle_memory_bytes

        out = tmp_path / "obs"
        assert main(["oracle", "--N", "3", "--M", "24", "--out", str(out)]) == 0
        with open(out / "oracle.json") as fh:
            record = json.load(fh)
        ham = DiscreteHamiltonian(SpatialGrid(1, 2.5, 24), harmonic_potential(1), 3)
        assert record["nnz"] == ham.matrix.nnz
        assert record["memory_estimate_mib"] == oracle_memory_bytes(24, 3) / 2**20
        sweep = tmp_path / "sweep"
        argv = ["sweep", "--subcommand", "oracle", "--param", "N", "--values", "3", "--args", "--M 24"]
        assert main(argv + ["--out", str(sweep)]) == 0
        header, row = (sweep / "sweep.csv").read_text().strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["nnz"]) == ham.matrix.nnz
        assert float(fields["memory_estimate_mib"]) == record["memory_estimate_mib"]


@pytest.mark.parametrize("beta, warns", [(0.2, False), (0.66, False), (0.7, True)])
def test_beta_outside_theorem_range_warns(beta, warns, tmp_path, capsys):
    # 2/(d(2d+1)) = 2/3 in 1D: beta = 0.7 is in (0, 1/d) but outside the two-sided theorem's range
    assert theorem_beta_limit(1) == 2.0 / 3.0
    config = write_config(tmp_path / "c.json", {"d": 1, "potential": {"family": "harmonic"}, "beta": beta,
                                                "interaction": {"family": "bump"},
                                                "grid": {"half_width": 3.0, "points_per_axis": 64}})
    assert main(["tf-minimize", "--config", config, "--tol", "1e-2", "--out", str(tmp_path / "tf")]) == 0
    assert main(["oracle", "--N", "2", "--M", "16", "--beta", str(beta), "--interaction", "bump",
                 "--out", str(tmp_path / "oracle")]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if "two-sided" in line]
    assert len(warnings) == (2 if warns else 0)


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
        assert report["pauli_bound_ok"] is True  # the record keeps the key the benchmark reads

    @pytest.mark.parametrize("case", ["empty", "non_numeric", "shifted_x"])
    def test_bad_density_file_exits_2(self, case, tmp_path, capsys):
        # an unreadable file or one over other points is a config error, not a traceback or a lift
        config = write_config(
            tmp_path / "coupled.json",
            {"d": 1, "potential": {"family": "harmonic"}, "beta": 0.2, "interaction": {"family": "bump"},
             "grid": {"half_width": 3.0, "points_per_axis": 64}},
        )
        assert main(["tf-minimize", "--config", config, "--tol", "1e-2", "--out", str(tmp_path / "tf")]) == 0
        header, *rows = (tmp_path / "tf" / "density.csv").read_text().splitlines()
        table = [row.split(",") for row in rows]
        if case == "non_numeric":
            table[10][1] = "abc"
        elif case == "shifted_x":
            table = [[repr(float(x) + 1.0), rho] for x, rho in table]
        body = "" if case == "empty" else "\n".join([header] + [",".join(row) for row in table]) + "\n"
        (tmp_path / "bad.csv").write_text(body)
        capsys.readouterr()
        out = tmp_path / "lift"
        assert main(["vlasov-lift", "--config", config, "--density", str(tmp_path / "bad.csv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "ConfigError"
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "subcommand, flag, values",
        [("husimi", "--hbar-x", ("0.2", "0.3")), ("semiclassics-check", "--hbar-x", ("0.2", "0.3")),
         ("semiclassics-check", "--smear-hbar-x", ("1e-2", "1e-3"))],
    )
    def test_flags_enter_config_hash(self, subcommand, flag, values, tmp_path):
        raw = {"d": 1, "potential": {"family": "harmonic"}, "beta": 0.2, "n_particles": 2,
               "grid": {"half_width": 2.2, "points_per_axis": 64}}
        if flag == "--smear-hbar-x":  # the kernel-blur scale needs a kernel
            raw["interaction"] = {"family": "plateau", "params": {"edge_width": 1e-3}}
        config = write_config(tmp_path / "small.json", raw)
        hashes = set()
        for idx, value in enumerate(values):
            out = tmp_path / str(idx)
            assert main([subcommand, "--config", config, flag, value, "--out", str(out)]) == 0
            hashes.add(config_hash(out))
        assert len(hashes) == 2

    def test_smearing_scale_without_interaction_exits_2(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "free.json",
            {"d": 1, "potential": {"family": "harmonic"}, "n_particles": 2,
             "grid": {"half_width": 2.2, "points_per_axis": 64}},
        )
        out = tmp_path / "s"
        assert main(["semiclassics-check", "--config", config, "--smear-hbar-x", "1e-3", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1e-3"])
    def test_nonpositive_smearing_scale_exits_2(self, value, tmp_path, capsys):
        config = write_config(
            tmp_path / "sc.json",
            {"d": 1, "constants": "bathtub_consistent", "potential": {"family": "harmonic"}, "beta": 0.25,
             "interaction": {"family": "plateau", "params": {"radius": 0.5, "edge_width": 1e-3, "height": 1.0}},
             "n_particles": 2, "grid": {"half_width": 2.2, "points_per_axis": 64}},
        )
        out = tmp_path / "s"
        assert main(["semiclassics-check", "--config", config, f"--smear-hbar-x={value}", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "ValidationError"
        assert not out.exists()


class TestDFExperiment:
    def test_seeded_run_reproducible(self, tmp_path):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            code = main(
                ["df-experiment", "--seed", "7", "--N", "32", "--trials", "2000", "--out", str(out)]
            )
            assert code == 0
            outs.append(json.loads((out / "df_stats.json").read_text()))
        assert outs[0]["frequency"] == outs[1]["frequency"]
        assert outs[0]["matches_exact"]

    def test_sweep_reuses_the_run_at_n(self, tmp_path, monkeypatch):
        # --N in --sweep: the sweep row reuses the Monte Carlo run of the same
        # arguments and seed, so each command runs two, not three
        from fermigas import df_measures

        calls = []
        real = df_measures.pauli_violation_stats
        monkeypatch.setattr(
            df_measures, "pauli_violation_stats", lambda *args, **kw: calls.append(args) or real(*args, **kw)
        )
        decay = []
        for n in ("16", "64"):
            out = tmp_path / n
            argv = ["df-experiment", "--seed", "7", "--N", n, "--sweep", "16", "64", "--trials", "2000"]
            assert main(argv + ["--out", str(out)]) == 0
            decay.append((out / "decay.csv").read_bytes())
        assert len(calls) == 4
        # a reused row (N = 16 first, N = 64 second) is byte for byte a fresh one
        assert decay[0] == decay[1]

    @pytest.mark.parametrize(
        "flag, values",
        [("--cells", ("2", "4")), ("--cell", ("0", "1")), ("--half-width", ("1.0", "1.5")),
         ("--sweep", ("16", "32"))],
    )
    def test_flags_enter_config_hash(self, flag, values, tmp_path):
        hashes = set()
        for idx, value in enumerate(values):
            out = tmp_path / str(idx)
            argv = ["df-experiment", "--seed", "7", "--N", "16", "--trials", "200", flag, value]
            assert main(argv + ["--out", str(out)]) == 0
            hashes.add(config_hash(out))
        assert len(hashes) == 2

    def test_beta_needs_paper_scaling(self, tmp_path, capsys):
        argv = ["df-experiment", "--seed", "7", "--N", "16", "--trials", "200"]
        assert main(argv + ["--beta", "0.3", "--out", str(tmp_path / "c")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "custom" in err["message"]
        assert not (tmp_path / "c").exists()
        # under paper-scaling the flag is read, and 0.2 is its default
        runs = {}
        for beta in (None, "0.2", "0.3"):
            out = tmp_path / str(beta)
            extra = [] if beta is None else ["--beta", beta]
            assert main(argv + ["--preset", "paper-scaling", "--out", str(out)] + extra) == 0
            runs[beta] = (out / "df_stats.json").read_bytes(), config_hash(out)
        assert runs[None] == runs["0.2"]
        assert runs["0.3"][0] != runs["0.2"][0] and runs["0.3"][1] != runs["0.2"][1]

    @pytest.mark.parametrize(
        "flag, value, preset",
        [("--cells", "8", "paper-scaling"), ("--half-width", "1.5", "paper-scaling"), ("--n-boxes", "3", "custom")],
    )
    def test_flag_rejected_by_preset_that_ignores_it(self, flag, value, preset, tmp_path, capsys):
        argv = ["df-experiment", "--seed", "1", "--N", "16", "--trials", "200", "--preset", preset, flag, value]
        assert main(argv + ["--out", str(tmp_path / "c")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and flag in err["message"] and repr(preset) in err["message"]
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize(
        "args",
        [["--N", "0", "--sweep", "16"], ["--N", "-3"], ["--N", "16", "--sweep", "16", "0"],
         ["--preset", "paper-scaling", "--N", "0"]],
    )
    def test_nonpositive_particle_count_exits_2(self, args, tmp_path, capsys):
        out = tmp_path / "n"
        assert main(["df-experiment", "--seed", "1", "--trials", "10", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "particle" in json.loads(err[0])["message"]
        assert not out.exists()

    def test_zero_trials_exits_2(self, tmp_path, capsys):
        code = main(["df-experiment", "--seed", "7", "--trials", "0", "--out", str(tmp_path / "z")])
        assert code == 2
        assert "trial" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["df-experiment", "--seed", "-1", "--N", "16", "--trials", "100", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "ValidationError"
        assert not out.exists()

    def test_artifacts_identical_under_one_worker_and_the_default(self, tmp_path):
        # 10^4 trials are five chunks, which the default runs on a pool wherever two CPUs are available
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS") and k != "FERMIGAS_THREADS"}
        env["PYTHONPATH"] = _SRC
        artifacts = []
        for name, cap in (("one", ["--threads", "1"]), ("default", [])):
            out = tmp_path / name
            argv = cap + ["df-experiment", "--seed", "7", "--N", "64", "--trials", "10000", "--out", str(out)]
            subprocess.run([sys.executable, "-m", "fermigas"] + argv, env=env, check=True, timeout=120,
                           capture_output=True)
            artifacts.append([(out / f).read_bytes() for f in ("df_stats.json", "decay.csv")])
        assert artifacts[0] == artifacts[1]


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

    def test_forwarded_args_enter_config_hash(self, tmp_path):
        hashes = set()
        for d in ("1", "2"):
            out = tmp_path / d
            argv = ["sweep", "--subcommand", "df-experiment", "--param", "N", "--values", "16",
                    "--args", f"--seed 7 --trials 200 --cells {d}", "--out", str(out)]
            assert main(argv) == 0
            hashes.add(config_hash(out))
        assert len(hashes) == 2

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


# Runs an entry module as `python -m` does, then one BLAS matmul, then prints
# the exit code and the process's OS thread count.
_THREADS_PROBE = """
import runpy, sys
module, sys.argv = sys.argv[1], ["fermigas"] + sys.argv[2:]
try:
    runpy.run_module(module, run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
import numpy as np
a = np.ones((256, 256))
a @ a
with open("/proc/self/status") as fh:
    threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
print(code, threads)
"""
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# Imports every module, then runs a 1D tf-minimize, printing the scipy and
# concurrent.futures modules loaded after each step and the exit code.
_SCIPY_PROBE = """
import json, sys
import fermigas.cli, fermigas.df_measures, fermigas.husimi, fermigas.model, fermigas.oracle
import fermigas.tf_solver, fermigas.vlasov

def scipy_modules():
    # concurrent.futures starts the Monte Carlo's worker pool; only a Monte Carlo run loads it
    lazy = ("scipy", "concurrent.futures")
    return sorted(m for m in sys.modules if any(m == p or m.startswith(p + ".") for p in lazy))

imported = scipy_modules()
code = fermigas.cli.main(["tf-minimize", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([imported, code, scipy_modules()]))
"""


def test_import_and_tf_minimize_load_no_scipy(harmonic_1d_config, tmp_path):
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, harmonic_1d_config, str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    imported, code, after_run = json.loads(out.stdout.splitlines()[-1])
    assert imported == []
    assert code == 0
    assert after_run == []


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a thread cap needs at least two CPUs to show")
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the thread count from /proc")
class TestThreadCap:
    def _threads(self, module, argv, env_cap=None):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS") and k != "FERMIGAS_THREADS"}
        env["PYTHONPATH"] = _SRC
        if env_cap is not None:
            env["FERMIGAS_THREADS"] = env_cap
        out = subprocess.run(
            [sys.executable, "-c", _THREADS_PROBE, module] + argv,
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        code, threads = out.stdout.split()[-2:]
        assert code == "0"
        return int(threads)

    @pytest.mark.parametrize("module", ["fermigas.cli", "fermigas"])
    @pytest.mark.parametrize("flag", [["--threads", "1"], ["--threads=1"]])
    def test_flag_caps_blas_threads(self, tmp_path, module, flag):
        argv = flag + ["constants-audit", "--d", "1", "--out", str(tmp_path)]
        assert self._threads(module, argv) == 1

    def test_environment_variable_caps_blas_threads(self, tmp_path):
        argv = ["constants-audit", "--d", "1", "--out", str(tmp_path)]
        assert self._threads("fermigas.cli", argv, env_cap="1") == 1
        # the control: without a cap the same probe sees BLAS worker threads
        assert self._threads("fermigas.cli", argv) > 1

    def test_sweep_runs_under_cap(self, tmp_path):
        argv = ["--threads", "1", "sweep", "--subcommand", "constants-audit", "--param", "d",
                "--values", "1,2", "--out", str(tmp_path)]
        assert self._threads("fermigas.cli", argv) == 1
        with open(tmp_path / "sweep.csv") as fh:
            assert [line.split(",")[:2] for line in fh.read().split()[1:]] == [["1", "0"], ["2", "0"]]

    def test_rejects_nonpositive_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "0", "constants-audit", "--d", "1"])
        assert exc.value.code == 2


class TestThreadCapVariable:
    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5", ""])
    def test_rejects_a_cap_that_is_not_a_positive_integer(self, monkeypatch, capsys, tmp_path, value):
        monkeypatch.setenv("FERMIGAS_THREADS", value)
        with pytest.raises(SystemExit) as exc:
            main(["constants-audit", "--d", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "FERMIGAS_THREADS must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_process_exits_2_without_writing_the_cap(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env.update(PYTHONPATH=_SRC, FERMIGAS_THREADS="abc")
        probe = "import os, runpy, sys; sys.argv = ['fermigas'] + sys.argv[1:]\n" \
                "try:\n    runpy.run_module('fermigas', run_name='__main__')\n" \
                "finally:\n    print(os.environ.get('OMP_NUM_THREADS'), file=sys.stderr)"
        out = subprocess.run([sys.executable, "-c", probe, "constants-audit", "--d", "1", "--out", str(tmp_path)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 2
        assert "FERMIGAS_THREADS must be a positive integer" in out.stderr
        assert out.stderr.splitlines()[-1] == "None"

    @pytest.mark.parametrize(
        "argv, env_cap, cap",
        [(["--threads", "3", "husimi"], None, "3"), (["--threads=2", "oracle"], "5", "2"), (["oracle"], "4", "4"),
         (["oracle", "--threads", "3"], None, None), (["--threads", "0", "oracle"], None, None)],
    )
    def test_writes_the_cap_to_every_variable(self, monkeypatch, argv, env_cap, cap):
        from fermigas.__main__ import apply_thread_cap

        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "FERMIGAS_THREADS"):
            monkeypatch.delenv(var, raising=False)
        if env_cap is not None:
            monkeypatch.setenv("FERMIGAS_THREADS", env_cap)
        apply_thread_cap(argv)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            assert os.environ.get(var) == cap
        assert os.environ.get("FERMIGAS_THREADS") == (cap or env_cap)
