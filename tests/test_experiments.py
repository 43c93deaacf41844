import os
import re
import sys

import numpy as np
import pytest

from hcntk import experiments, io
from hcntk.errors import SchemaError

from conftest import read_csv


def base_net(width=10):
    return {"input_dim": 1, "hidden": [width, width], "activation": "tanh"}


class TestInvarianceRunners:
    def test_width_study_metrics(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "kn-invariance-width",
            "seeds": [0, 1, 2],
            "widths": [4, 32],
            "network": base_net(),
            "grid": {"n_per_axis": 12, "mode": "inclusive"},
        }
        res = experiments.run_kn_invariance_width(cfg, str(tmp_path))
        assert len(res.rows) == 6
        assert res.metrics["cv_mean_w4"] > res.metrics["cv_mean_w32"]
        assert 0.0 <= res.metrics["cka_meanmat_min_max_width"] <= 1.0

    def test_depth_study_metrics(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "kn-invariance-depth",
            "seeds": [0, 1, 2],
            "depths": [1, 4],
            "network": base_net(16),
            "grid": {"n_per_axis": 12, "mode": "inclusive"},
        }
        res = experiments.run_kn_invariance_depth(cfg, str(tmp_path))
        assert res.metrics["trace_mean_d1"] > res.metrics["trace_mean_d4"]
        assert res.metrics["trace_ratio_first_last"] > 1.0

    def test_activation_study_groups(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "kn-invariance-activation",
            "seeds": [0, 1, 2],
            "activations": ["tanh", "relu"],
            "network": base_net(32),
            "grid": {"n_per_axis": 12, "mode": "inclusive"},
        }
        res = experiments.run_kn_invariance_activation(cfg, str(tmp_path))
        assert "cv_mean_smooth" in res.metrics and "cv_mean_nonsmooth" in res.metrics
        assert "cross_group_cka_max" in res.metrics

    def test_persist_ensemble_files(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "kn-invariance-seed",
            "seeds": [0, 1],
            "network": base_net(),
            "grid": {"n_per_axis": 8, "mode": "inclusive"},
            "output": {"persist_kernels": True},
        }
        res = experiments.run_kn_invariance_seed(cfg, str(tmp_path))
        assert any("mean" in f for f in res.extra_files)
        mean = np.loadtxt(res.extra_files[0], delimiter=",", skiprows=1)
        assert mean.shape == (8, 8)


class TestSpectrumSweep:
    def test_kt_grid_takes_the_family_dimension(self, tmp_path):
        # kt-spectrum has no benchmark: the grid's dimension is the families'
        cfg = {
            "schema_version": 1,
            "kind": "kt-spectrum",
            "seeds": [0],
            "network": base_net(),
            "grid": {"n_per_axis": 5, "mode": "trimmed"},
            "families": [{"family": "power2d", "params": {"alpha": 1.0}},
                         {"family": "mixed_power2d", "params": {"alpha": 1.0, "beta": 2.0}}],
        }
        res = experiments.run_kt_spectrum(cfg, str(tmp_path))
        assert [r["status"] for r in res.rows] == ["ok", "ok"]
        assert all(1 <= r["numerical_rank"] <= 9 for r in res.rows)  # 3 x 3 interior points


class TestSeedMeanRows:
    def test_groups_preserve_order_and_average(self):
        rows = [
            {"family": "f", "alpha": 1.0, "beta": "", "gamma": "", "seed": 0,
             "status": "ok", "eff_rank": 2.0},
            {"family": "f", "alpha": 1.0, "beta": "", "gamma": "", "seed": 1,
             "status": "ok", "eff_rank": 4.0},
            {"family": "f", "alpha": 2.0, "beta": "", "gamma": "", "seed": 0,
             "status": "ok", "eff_rank": 1.0},
            {"family": "f", "alpha": 2.0, "beta": "", "gamma": "", "seed": 1,
             "status": "eig-failure", "eff_rank": float("nan")},
        ]
        out = experiments._seed_mean_rows(rows, ["eff_rank"])
        assert len(out) == 2
        assert out[0]["eff_rank"] == pytest.approx(3.0)
        assert out[1]["eff_rank"] == pytest.approx(1.0)


class TestCorrelateRows:
    def test_overall_and_stratified(self):
        rows = []
        for fam, sign in (("a", 1.0), ("b", -1.0)):
            for i in range(4):
                rows.append(
                    {"family": fam, "status": "ok", "x": float(i), "y": sign * i}
                )
        out = experiments.correlate_rows(rows, ["x"], ["y"])
        scopes = {c["scope"]: c for c in out}
        assert scopes["family=a"]["rho"] == pytest.approx(1.0)
        assert scopes["family=b"]["rho"] == pytest.approx(-1.0)
        assert abs(scopes["all"]["rho"]) < 1.0

    def test_single_family_stratum_equals_direct_spearman(self, rng):
        from hcntk.linalg import spearman

        rows = [
            {"family": "only", "status": "ok", "x": float(v), "y": float(w)}
            for v, w in zip(rng.standard_normal(10), rng.standard_normal(10))
        ]
        out = experiments.correlate_rows(rows, ["x"], ["y"])
        scopes = {c["scope"]: c for c in out}
        direct = spearman([r["x"] for r in rows], [r["y"] for r in rows])
        assert scopes["family=only"]["rho"] == pytest.approx(direct, abs=0)
        assert scopes["all"]["rho"] == pytest.approx(direct, abs=0)

    def test_undefined_flagged(self):
        rows = [{"family": "a", "status": "ok", "x": 1.0, "y": float(i)} for i in range(4)]
        out = experiments.correlate_rows(rows, ["x"], ["y"])
        assert out[0]["status"] == "undefined"
        assert np.isnan(out[0]["rho"])

    def test_insufficient_rows_flagged(self):
        rows = [{"status": "ok", "x": 1.0, "y": 2.0}]
        out = experiments.correlate_rows(rows, ["x"], ["y"])
        assert out[0]["status"] == "insufficient"


class TestReport:
    def test_mixed_schema_versions_rejected(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        io.write_json(a / "summary.json", {"schema_version": 1, "kind": "x", "metrics": {}})
        io.write_json(b / "summary.json", {"schema_version": 2, "kind": "x", "metrics": {}})
        with pytest.raises(SchemaError):
            experiments.report(str(tmp_path))

    def test_threshold_evaluation(self, tmp_path):
        d = tmp_path / "exp"
        d.mkdir()
        io.write_json(
            d / "summary.json",
            {
                "schema_version": 1,
                "kind": "kt-spectrum",
                "metrics": {"m": 2.0},
                "n_failures": 1,
                "config": {"thresholds": [
                    {"metric": "m", "op": "ge", "value": 1.0},
                    {"metric": "m", "op": "le", "value": 1.5},
                    {"metric": "absent", "op": "ge", "value": 0.0},
                ]},
            },
        )
        rep = experiments.report(str(tmp_path), str(tmp_path / "out"))
        checks = rep["experiments"][0]["thresholds"]
        assert [c["pass"] for c in checks] == [True, False, False]
        assert rep["all_thresholds_pass"] is False
        assert rep["total_run_failures"] == 1
        assert (tmp_path / "out" / "report.json").exists()


class TestOptimizerCompare:
    def test_two_strategies(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "optimizer-compare",
            "benchmark": "poisson1d_sin",
            "seeds": [0],
            "network": base_net(12),
            "grid": {"n_per_axis": 14, "mode": "trimmed"},
            "families": [{"family": "power", "params": {"alpha": 1.0}}],
            "strategies": [
                {"name": "slow", "phases": [{"kind": "sgd", "steps": 20, "lr": 1e-6}]},
                {"name": "fast", "phases": [{"kind": "adam", "steps": 200, "lr": 1e-3}]},
            ],
            "train": {"test_points": 64},
        }
        res = experiments.run_optimizer_compare(cfg, str(tmp_path))
        assert [r["strategy"] for r in res.rows] == ["slow", "fast"]
        assert res.metrics["final_loss_fast"] < res.metrics["final_loss_slow"]
        assert "wall_s_fast" in res.metrics


class TestFailureCauses:
    """Each failed row's cause goes to summary.json; rows.csv keeps only the status."""

    @staticmethod
    def _run(cfg, out):
        res = experiments.run_experiment(cfg, str(out))
        header, _ = read_csv(out / "rows.csv")
        assert header == res.columns
        summary = io.read_json(out / "summary.json")
        assert summary["n_failures"] == len(summary["failures"]) == res.n_failures
        return res, summary["failures"]

    def test_singular_coefficient_point_index(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "kr-spectrum",
            "benchmark": "poisson1d_sin",
            "seeds": [0, 1],
            "network": base_net(8),
            # the inclusive grid hits the alpha < 1 singularity of B'' at x = 0
            "grid": {"n_per_axis": 10, "mode": "inclusive"},
            "families": [
                {"family": "power", "params": {"alpha": 2.0}},
                {"family": "power", "params": {"alpha": 0.5}},
            ],
        }
        res, failures = self._run(cfg, tmp_path / "out")
        assert [r["status"] for r in res.rows] == ["ok", "ok", "singular-coefficient", "singular-coefficient"]
        assert failures == [
            {"row": i, "status": "singular-coefficient", "message": "singular coefficient at point index 0"}
            for i in (2, 3)
        ]

    def test_eig_failure_lapack_message(self, tmp_path, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        cfg = {
            "schema_version": 1,
            "kind": "dynamics-sim",
            "benchmark": "poisson1d_sin",
            "seeds": [0],
            "network": base_net(8),
            "grid": {"n_per_axis": 12, "mode": "trimmed"},
            "families": [{"family": "power", "params": {"alpha": 1.0}}],
            "dynamics": {"eta": 1e-3, "n_steps": 10},
        }
        res, failures = self._run(cfg, tmp_path / "out")
        assert [r["status"] for r in res.rows] == ["eig-failure"]
        assert failures == [{"row": 0, "status": "eig-failure", "message": "Eigenvalues did not converge"}]

    def test_divergence_epoch_and_loss(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "train-study",
            "benchmark": "poisson1d_sin",
            "seeds": [0],
            "network": base_net(16),
            "grid": {"n_per_axis": 20, "mode": "trimmed"},
            "families": [{"family": "power", "params": {"alpha": 1.0}}],
            "train": {"phases": [{"kind": "sgd", "steps": 300, "lr": 10.0}], "test_points": 100},
        }
        res, failures = self._run(cfg, tmp_path / "out")
        assert [r["status"] for r in res.rows] == ["divergence"]
        (failure,) = failures
        assert failure["row"] == 0 and failure["status"] == "divergence"
        assert re.fullmatch(r"training diverged at epoch \d+ \(loss \S+\)", failure["message"])


class TestEnvironment:
    """Every summary file names the environment its numbers depend on; rows.csv does not."""

    @pytest.fixture
    def fresh_environment(self):
        io.environment.cache_clear()
        yield
        io.environment.cache_clear()

    def test_every_summary_carries_it(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "train-study",
            "benchmark": "poisson1d_sin",
            "seeds": [0],
            "network": base_net(8),
            "grid": {"n_per_axis": 12, "mode": "trimmed"},
            "families": [{"family": "power", "params": {"alpha": 1.0}}],
            "train": {"phases": [{"kind": "adam", "steps": 3, "lr": 1e-3}], "test_points": 50},
        }
        out = tmp_path / "out"
        res = experiments.run_experiment(cfg, str(out))
        summaries = sorted(out.rglob("*summary.json"))
        assert {p.name for p in summaries} == {"summary.json", "power_alpha1_s0_summary.json"}
        env = io.environment()
        for path in summaries:
            assert io.read_json(path)["environment"] == env
        assert env["python"] == ".".join(map(str, sys.version_info[:3]))
        assert env["numpy"] == np.__version__
        assert env["thread_vars"] == {v: os.environ.get(v) for v in io.BLAS_THREAD_VARS}
        assert env["usable_cores"] == len(os.sched_getaffinity(0))
        header, _ = read_csv(out / "rows.csv")
        assert header == res.columns
        assert not set(header) & {"environment", *env}

    def test_blas_and_lapack_from_numpy_build(self, fresh_environment):
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        env = io.environment()
        for lib in ("blas", "lapack"):
            assert env[lib] == {"name": deps[lib]["name"], "version": deps[lib]["version"]}

    def test_computed_once_per_process(self, fresh_environment, monkeypatch):
        calls = []
        show_config = np.show_config

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return show_config(*args, **kwargs)

        monkeypatch.setattr(np, "show_config", counted)
        assert io.environment() is io.environment()
        assert calls == [{"mode": "dicts"}]

    def test_numpy_without_dict_config_reads_unknown(self, fresh_environment, monkeypatch):
        def show_config():  # numpy < 1.25 takes no mode and only prints
            pass

        monkeypatch.setattr(np, "show_config", show_config)
        env = io.environment()
        assert env["blas"] == env["lapack"] == {"name": "unknown", "version": "unknown"}
