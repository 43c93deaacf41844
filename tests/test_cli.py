import numpy as np
import pytest
import yaml

from hcntk import io
from hcntk.cli import main
from hcntk.linalg import SymMatrix, eig_sym


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def kn_seed_cfg(**extra):
    cfg = {
        "schema_version": 1,
        "kind": "kn-invariance-seed",
        "seeds": [0, 1, 2],
        "network": {"input_dim": 1, "hidden": [8, 8], "activation": "tanh"},
        "grid": {"n_per_axis": 12, "mode": "inclusive"},
        "thresholds": [{"metric": "cka_mean", "op": "ge", "value": 0.5}],
    }
    cfg.update(extra)
    return cfg


def kt_cfg(**extra):
    cfg = {
        "schema_version": 1,
        "kind": "kt-spectrum",
        "seeds": [0],
        "network": {"input_dim": 1, "hidden": [12, 12], "activation": "tanh"},
        "grid": {"n_per_axis": 16, "mode": "trimmed"},
        "families": [
            {"family": "power", "params": {"alpha": p}} for p in (0.5, 1.0, 2.0)
        ],
    }
    cfg.update(extra)
    return cfg


class TestInvarianceVerb:
    def test_runs_and_writes_rows(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.yaml", kn_seed_cfg())
        assert main(["invariance", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        header, rows = io.read_csv(tmp_path / "out" / "rows.csv")
        assert len(rows) == 3
        assert "eff_rank" in header
        summary = io.read_json(tmp_path / "out" / "summary.json")
        assert summary["kind"] == "kn-invariance-seed"
        assert 0.0 <= summary["metrics"]["cka_mean"] <= 1.0

    def test_seed_override(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", kt_cfg())
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "7"]) == 0
        header, rows = io.read_csv(tmp_path / "o" / "rows.csv")
        idx = {c: i for i, c in enumerate(header)}
        assert {r[idx["seed"]] for r in rows} == {"7"}

    def test_wrong_verb_for_kind(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", kn_seed_cfg())
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_unknown_key_exit_code(self, tmp_path):
        bad = kn_seed_cfg()
        bad["unknown_section"] = {}
        cfg = write_cfg(tmp_path, "c.yaml", bad)
        assert main(["invariance", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("families,extra", [
        ([{"family": "spline", "params": {"alpha": 1.0}}], {}),
        ([{"family": "mixed_power2d", "params": {"alpha": 1.0}}], {}),
        ([{"family": "power", "params": {"alpha": 1.0}},
          {"family": "power2d", "params": {"alpha": 1.0}}], {}),
        ([{"family": "power", "params": {"alpha": 1.0}}],
         {"kind": "kr-spectrum", "benchmark": "diffusion2d"}),
    ], ids=["unknown-family", "missing-beta", "mixed-dims", "1d-family-on-2d-benchmark"])
    def test_bad_family_exit_code(self, tmp_path, capsys, families, extra):
        cfg = write_cfg(tmp_path, "c.yaml", kt_cfg(families=families, **extra))
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o" / "rows.csv").exists()


class TestDeterminism:
    def test_rerun_byte_identical_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", kt_cfg())
        main(["spectrum", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["spectrum", "--config", cfg, "--out", str(tmp_path / "b")])
        rows_a = (tmp_path / "a" / "rows.csv").read_bytes()
        rows_b = (tmp_path / "b" / "rows.csv").read_bytes()
        assert rows_a == rows_b


class TestNtkVerbPersistsKernels:
    def test_persisted_kernel_metrics_recompute(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", kt_cfg())
        assert main(["ntk", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        header, rows = io.read_csv(tmp_path / "out" / "rows.csv")
        idx = {c: i for i, c in enumerate(header)}
        kdir = tmp_path / "out" / "kernels"
        files = sorted(kdir.glob("*.csv"))
        assert len(files) == 3
        # spectral metrics recompute identically from the persisted CSV
        row = rows[1]
        mat = np.loadtxt(kdir / f"kt_power_alpha{float(row[idx['alpha']]):g}_s0.csv",
                         delimiter=",", skiprows=1)
        rep = eig_sym(SymMatrix(mat))
        assert rep.eff_rank == pytest.approx(float(row[idx["eff_rank"]]), rel=1e-12)
        assert rep.trace == pytest.approx(float(row[idx["trace"]]), rel=1e-12)


class TestNtkVerbKrPersistsCoefficients:
    def test_coefficient_audit_dump(self, tmp_path):
        cfg_dict = {
            "schema_version": 1,
            "kind": "kr-spectrum",
            "benchmark": "poisson1d_sin",
            "seeds": [0],
            "network": {"hidden": [8, 8], "activation": "tanh"},
            "grid": {"n_per_axis": 12, "mode": "trimmed"},
            "families": [{"family": "power", "params": {"alpha": 1.0}}],
        }
        cfg = write_cfg(tmp_path, "c.yaml", cfg_dict)
        assert main(["ntk", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        header, rows = io.read_csv(tmp_path / "out" / "coefficients" / "power_alpha1.csv")
        assert header == ["x0", "alpha", "beta0", "gamma"]
        assert len(rows) == 10
        # alpha column equals B'' = -2 for the quadratic boundary function
        assert all(float(r[1]) == pytest.approx(-2.0) for r in rows)


class TestSpectrumFailuresSurfaceAsRows:
    def test_singular_coefficient_rows(self, tmp_path):
        cfg_dict = {
            "schema_version": 1,
            "kind": "kr-spectrum",
            "benchmark": "poisson1d_sin",
            "seeds": [0],
            "network": {"hidden": [8, 8], "activation": "tanh"},
            # inclusive grid hits the alpha<1 second-derivative singularity
            "grid": {"n_per_axis": 10, "mode": "inclusive"},
            "families": [
                {"family": "power", "params": {"alpha": 0.5}},
                {"family": "power", "params": {"alpha": 2.0}},
            ],
        }
        cfg = write_cfg(tmp_path, "c.yaml", cfg_dict)
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2  # failures present, ok rows too
        header, rows = io.read_csv(tmp_path / "out" / "rows.csv")
        idx = {c: i for i, c in enumerate(header)}
        statuses = {float(r[idx["alpha"]]): r[idx["status"]] for r in rows}
        assert statuses[0.5] == "singular-coefficient"
        assert statuses[2.0] == "ok"


class TestCorrelateVerb:
    def test_correlations_from_sweep(self, tmp_path):
        cfg_dict = {
            "schema_version": 1,
            "kind": "kr-correlation",
            "benchmark": "poisson1d_sin",
            "seeds": [0],
            "network": {"hidden": [10, 10], "activation": "tanh"},
            "grid": {"n_per_axis": 14, "mode": "trimmed"},
            "families": [
                {"family": "power", "params": {"alpha": p}} for p in (0.5, 1.0, 2.0, 3.0)
            ],
            "correlate": {"features": ["b2_max"], "targets": ["eff_rank"]},
        }
        cfg = write_cfg(tmp_path, "c.yaml", cfg_dict)
        assert main(["correlate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        header, rows = io.read_csv(tmp_path / "out" / "correlations.csv")
        assert header == ["feature", "target", "scope", "n", "rho", "status"]
        all_row = [r for r in rows if r[2] == "all"][0]
        assert -1.0 <= float(all_row[4]) <= 1.0

    def test_correlate_from_existing_table(self, tmp_path):
        io.write_csv(
            tmp_path / "table.csv",
            ["family", "alpha", "status", "feat", "targ"],
            [["f", 1.0, "ok", 1.0, 3.0], ["f", 2.0, "ok", 2.0, 2.0], ["f", 3.0, "ok", 3.0, 1.0]],
        )
        cfg_dict = {
            "schema_version": 1,
            "kind": "kr-correlation",
            "benchmark": "poisson1d_sin",
            "network": {"hidden": [8]},
            "grid": {"n_per_axis": 10},
            "families": [{"family": "power", "params": {"alpha": 1.0}}],
            "correlate": {
                "features": ["feat"],
                "targets": ["targ"],
                "table": str(tmp_path / "table.csv"),
            },
        }
        cfg = write_cfg(tmp_path, "c.yaml", cfg_dict)
        assert main(["correlate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        _, rows = io.read_csv(tmp_path / "out" / "correlations.csv")
        all_row = [r for r in rows if r[2] == "all"][0]
        assert float(all_row[4]) == pytest.approx(-1.0)


class TestTrainVerb:
    def test_train_study_smoke(self, tmp_path):
        cfg_dict = {
            "schema_version": 1,
            "kind": "train-study",
            "benchmark": "poisson1d_sin",
            "seeds": [0],
            "network": {"hidden": [12, 12], "activation": "tanh"},
            "grid": {"n_per_axis": 16, "mode": "trimmed"},
            "families": [{"family": "power", "params": {"alpha": 1.0}}],
            "train": {"phases": [{"kind": "adam", "steps": 40, "lr": 1e-3}],
                      "test_points": 100},
        }
        cfg = write_cfg(tmp_path, "c.yaml", cfg_dict)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        header, rows = io.read_csv(tmp_path / "out" / "rows.csv")
        idx = {c: i for i, c in enumerate(header)}
        assert rows[0][idx["status"]] == "ok"
        assert float(rows[0][idx["final_loss"]]) < float(rows[0][idx["initial_loss"]])
        runs = list((tmp_path / "out" / "runs").glob("*_summary.json"))
        assert len(runs) == 1

    def test_divergence_becomes_status_row(self, tmp_path):
        cfg_dict = {
            "schema_version": 1,
            "kind": "train-study",
            "benchmark": "poisson1d_sin",
            "seeds": [0],
            "network": {"hidden": [12, 12], "activation": "tanh"},
            "grid": {"n_per_axis": 16, "mode": "trimmed"},
            "families": [{"family": "power", "params": {"alpha": 1.0}}],
            "train": {"phases": [{"kind": "sgd", "steps": 400, "lr": 10.0}],
                      "test_points": 100},
        }
        cfg = write_cfg(tmp_path, "c.yaml", cfg_dict)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        header, rows = io.read_csv(tmp_path / "out" / "rows.csv")
        idx = {c: i for i, c in enumerate(header)}
        assert rows[0][idx["status"]] == "divergence"


class TestDynamicsVerb:
    def test_dynamics_sim(self, tmp_path):
        cfg_dict = {
            "schema_version": 1,
            "kind": "dynamics-sim",
            "benchmark": "poisson1d_sin",
            "seeds": [0],
            "network": {"hidden": [10, 10], "activation": "tanh"},
            "grid": {"n_per_axis": 12, "mode": "trimmed"},
            "families": [{"family": "power", "params": {"alpha": 1.0}}],
            "dynamics": {"eta": 1e-5, "t_end_frac": 0.1, "n_steps": 400},
        }
        cfg = write_cfg(tmp_path, "c.yaml", cfg_dict)
        assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        header, rows = io.read_csv(tmp_path / "out" / "rows.csv")
        idx = {c: i for i, c in enumerate(header)}
        assert float(rows[0][idx["max_rel_diff"]]) <= 1e-3
        assert float(rows[0][idx["parseval_rel_err"]]) <= 1e-8
        assert float(rows[0][idx["loss_monotone"]]) == 1.0
        traj = io.read_csv(tmp_path / "out" / "trajectory_s0.csv")[1]
        assert len(traj) == 401


class TestReportVerb:
    def test_report_over_results(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.yaml", kn_seed_cfg())
        main(["invariance", "--config", cfg, "--out", str(tmp_path / "res" / "a")])
        main(["invariance", "--config", cfg, "--out", str(tmp_path / "res" / "b")])
        assert main(["report", "--dir", str(tmp_path / "res"), "--out", str(tmp_path / "rep")]) == 0
        rep = io.read_json(tmp_path / "rep" / "report.json")
        assert rep["n_experiments"] == 2
        assert rep["all_thresholds_pass"] is True
        assert rep["experiments"][0]["thresholds"][0]["pass"] is True

    def test_empty_dir_is_ok(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert main(["report", "--dir", str(tmp_path / "empty"), "--out", str(tmp_path / "rep")]) == 0
        rep = io.read_json(tmp_path / "rep" / "report.json")
        assert rep["n_experiments"] == 0
