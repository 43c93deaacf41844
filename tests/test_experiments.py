import os
import re
import sys

import numpy as np
import pytest

from hcntk import boundary, experiments, io, kernels, net, pde, train
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
        res = experiments.run_kn_invariance(cfg, str(tmp_path))
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
        res = experiments.run_kn_invariance(cfg, str(tmp_path))
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
        res = experiments.run_kn_invariance(cfg, str(tmp_path))
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
        experiments.run_kn_invariance(cfg, str(tmp_path))
        for label in ("mean", "std", "cv"):  # the seed study is the width sweep at width 10
            arr = np.loadtxt(tmp_path / "ensemble" / f"width10_{label}.csv", delimiter=",", skiprows=1)
            assert arr.shape == (8, 8)


class TestTrainConfigFrom:
    def test_keys_left_out_take_train_config_defaults(self):
        cfg = {"benchmark": "poisson1d_sin", "network": {}, "grid": {"n_per_axis": 12}}
        got = experiments._train_config_from(cfg, {"family": "power"}, 3)
        assert got == train.TrainConfig("poisson1d_sin", "power", {}, seed=3, grid_n=12)

    def test_given_keys_and_the_forced_first_snapshot(self):
        cfg = {
            "benchmark": "poisson1d_sin",
            "network": {"hidden": [8, 8], "activation": "sigmoid"},
            "grid": {"n_per_axis": 12, "mode": "interior"},
            "train": {"phases": [{"kind": "adam", "steps": 5, "lr": "2e-3"}, {"kind": "lbfgs", "steps": 3}],
                      "snapshot_epochs": [4], "test_points": 50},
        }
        got = experiments._train_config_from(cfg, {"family": "power", "params": {"alpha": 2.0}}, 1)
        assert got == train.TrainConfig(
            "poisson1d_sin", "power", {"alpha": 2.0}, hidden=(8, 8), activation="sigmoid", seed=1,
            phases=(train.Phase("adam", 5, 2e-3), train.Phase("lbfgs", 3)), grid_n=12,
            grid_mode="interior", snapshot_epochs=(0, 4), test_points=50,
        )


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


class TestNetworkMemo:
    SIZES = (1, 8, 8, 1)

    def test_one_entry_shared_and_read_only(self):
        first = experiments._network(self.SIZES, "tanh", 0)
        assert experiments._network(self.SIZES, "tanh", 0) is first
        other = experiments._network(self.SIZES, "tanh", 1)
        assert other is not first and experiments._network.cache_info().currsize == 1
        assert experiments._network(self.SIZES, "tanh", 0) is not first  # evicted, rebuilt
        for arr in (*other.weights, *other.biases):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        fresh = net.init_kaiming_uniform(self.SIZES, "tanh", 1)
        for arr, shared in zip((*fresh.weights, *fresh.biases), (*other.weights, *other.biases)):
            assert arr.flags.writeable and not np.shares_memory(arr, shared)
            assert np.array_equal(arr, shared)

    def test_sweep_builds_each_network_once(self, tmp_path, monkeypatch):
        built = []
        init = net.init_kaiming_uniform
        monkeypatch.setattr(net, "init_kaiming_uniform", lambda *a: built.append(a) or init(*a))
        experiments._network.cache_clear()
        cfg = {
            "schema_version": 1,
            "kind": "kr-spectrum",
            "benchmark": "poisson1d_sin",
            "seeds": [0],
            "network": base_net(),
            "grid": {"n_per_axis": 8, "mode": "trimmed"},
            "families": [{"family": "power", "params": {"alpha": a}} for a in (1.0, 2.0, 3.0)],
        }
        res = experiments.run_kr_spectrum(cfg, str(tmp_path))
        assert [r["status"] for r in res.rows] == ["ok"] * 3
        assert built == [((1, 10, 10, 1), "tanh", 0)]


# Ten 1D families, as in a boundary search; 1D grids small enough that the
# component stack, 6 N^2 floats, is below the 2x32 network's 1153 parameters.
TEN_1D_FAMILIES = (
    [{"family": "power", "params": {"alpha": a}} for a in (0.5, 1.0, 2.0, 5.0)]
    + [{"family": "trig", "params": {"alpha": a}} for a in (1.0, 4.0)]
    + [{"family": "rational", "params": {"alpha": a}} for a in (0.0, 20.0)]
    + [{"family": "exponential", "params": {"alpha": 0.0}}, {"family": "tanh", "params": {"alpha": 3.0}}]
)


def kr_sweep_cfg(families, seeds=(0,), dim=1, hidden=32, n_per_axis=12):
    return {
        "schema_version": 1,
        "kind": "kr-spectrum",
        "benchmark": "poisson1d_sin" if dim == 1 else "diffusion2d",
        "seeds": list(seeds),
        "network": {"hidden": [hidden, hidden], "activation": "tanh"},
        "grid": {"n_per_axis": n_per_axis, "mode": "trimmed"},
        "families": list(families),
    }


class TestComposedSweep:
    """A K_r sweep on the composed path builds the component kernels once per network and grid."""

    def _record(self, monkeypatch):
        """Count ``component_kernels`` calls and keep every ``assemble_kr`` call's inputs and kernel."""
        builds, assembled = [], []
        component_kernels, assemble_kr = kernels.component_kernels, kernels.assemble_kr

        def counting(*args):
            builds.append(args)
            return component_kernels(*args)

        def keeping(*args, **kwargs):
            mat = assemble_kr(*args, **kwargs)
            assembled.append((args, kwargs, mat.a))
            return mat

        monkeypatch.setattr(kernels, "component_kernels", counting)
        monkeypatch.setattr(kernels, "assemble_kr", keeping)
        experiments._network.cache_clear()
        experiments._components.cache_clear()
        return builds, assembled

    def test_sweep_kernels_equal_direct_assembly(self, tmp_path, monkeypatch):
        _, assembled = self._record(monkeypatch)
        cfg = kr_sweep_cfg(TEN_1D_FAMILIES[:3], seeds=(0, 1))
        experiments.run_kr_spectrum(cfg, str(tmp_path))
        assert len(assembled) == 6
        for (params, problem, pair, points), kwargs, k in list(assembled):
            assert kwargs["path"] == "composed"
            direct = kernels.assemble_kr(params, problem, pair, points, path="direct").a
            assert np.linalg.norm(k - direct) / np.linalg.norm(direct) <= 1e-14

    def test_build_counts(self, tmp_path, monkeypatch):
        builds, _ = self._record(monkeypatch)
        res = experiments.run_kr_spectrum(kr_sweep_cfg(TEN_1D_FAMILIES), str(tmp_path / "a"))
        assert len(builds) == 1 and [r["status"] for r in res.rows] == ["ok"] * 10
        builds.clear()
        experiments._components.cache_clear()
        res = experiments.run_kr_spectrum(kr_sweep_cfg(TEN_1D_FAMILIES[:3], seeds=(0, 1)), str(tmp_path / "b"))
        assert len(builds) == 2
        # rows stay in (family, seed) order
        assert [(r["family"], r["alpha"], r["seed"]) for r in res.rows] == [
            (f["family"], f["params"]["alpha"], s) for f in TEN_1D_FAMILIES[:3] for s in (0, 1)]

    def test_memo_holds_one_read_only_entry(self, tmp_path, monkeypatch):
        builds, _ = self._record(monkeypatch)
        experiments.run_kr_spectrum(kr_sweep_cfg(TEN_1D_FAMILIES[:2], seeds=(0, 1)), str(tmp_path))
        assert experiments._components.cache_info().currsize == 1
        sizes, grid = (1, 32, 32, 1), (1, 12, "trimmed")
        comp = experiments._components(sizes, "tanh", 1, *grid)  # the last seed's entry
        assert len(builds) == 2 and experiments._components.cache_info().hits == 1
        kept = {key: arr.copy() for key, arr in comp.items()}
        for arr in comp.values():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0
        points = train.build_grid(*grid)
        pair = boundary.make_pair("power", {"alpha": 2.0})
        kernels.compose_kr(comp, pde.coefficients(pde.benchmark("poisson1d_sin").op, pair, points))
        assert all(np.array_equal(comp[key], kept[key]) for key in kept)
        fresh = kernels.component_kernels(experiments._network(sizes, "tanh", 1), points)
        assert all(np.array_equal(comp[key], fresh[key]) for key in kept)

    def test_repeats_are_bitwise(self, tmp_path, monkeypatch):
        # one seed, so the second sweep composes from the first one's memo entry
        builds, _ = self._record(monkeypatch)
        cfg = kr_sweep_cfg(TEN_1D_FAMILIES[:4])
        cold = experiments.run_kr_spectrum(cfg, str(tmp_path)).rows
        memoised = experiments.run_kr_spectrum(cfg, str(tmp_path)).rows
        assert len(builds) == 1
        assert repr(cold) == repr(memoised)  # every float bitwise, NaN included

    def test_2d_desk_size_stays_direct(self, tmp_path, monkeypatch):
        builds, assembled = self._record(monkeypatch)
        cfg = kr_sweep_cfg([{"family": "tanh2d", "params": {"alpha": 5.0}}], dim=2, hidden=64, n_per_axis=24)
        res = experiments.run_kr_spectrum(cfg, str(tmp_path))
        assert builds == [] and [kwargs["path"] for _, kwargs, _ in assembled] == ["direct"]
        assert len(res.rows) == 1


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
