import numpy as np
import pytest

from hcntk import boundary, kernels, net, pde, train
from hcntk.errors import ConfigError, DegenerateReference, DivergenceDetected


@pytest.fixture(scope="module")
def poisson():
    return pde.benchmark("poisson1d_sin")


@pytest.fixture(scope="module")
def quad_pair():
    return boundary.make_pair("power", {"alpha": 1.0})


def small_config(**overrides):
    base = dict(
        benchmark="poisson1d_sin",
        family="power",
        params={"alpha": 1.0},
        hidden=(16, 16),
        activation="tanh",
        seed=0,
        phases=(train.Phase("adam", 30, 1e-3),),
        grid_n=24,
        grid_mode="trimmed",
        snapshot_epochs=(0,),
        test_points=200,
    )
    base.update(overrides)
    return train.TrainConfig(**base)


class TestLossAndGrad:
    def test_zero_network_loss_is_mean_f_squared(self, poisson, quad_pair):
        pts = boundary.trim_boundary(boundary.grid(1, 20, include_boundary=True))
        p = net.init_kaiming_uniform((1, 8, 1), "tanh", 0)
        p = p.unflatten(np.zeros(p.param_count()))
        loss, _ = train.make_closure(p, quad_pair, poisson, pts)(p.flatten())
        f = poisson.source(pts)
        assert loss == pytest.approx(float(f @ f) / len(pts), rel=1e-12)

    def test_gradient_matches_finite_differences(self, poisson, quad_pair):
        pts = boundary.trim_boundary(boundary.grid(1, 18, include_boundary=True))
        p = net.init_kaiming_uniform((1, 10, 10, 1), "tanh", 5)
        fg = train.make_closure(p, quad_pair, poisson, pts)
        theta = p.flatten()
        _, grad = fg(theta)
        rng = np.random.default_rng(0)
        for k in rng.choice(theta.size, size=50, replace=False):
            up, dn = theta.copy(), theta.copy()
            up[k] += 1e-6
            dn[k] -= 1e-6
            fd = (fg(up)[0] - fg(dn)[0]) / 2e-6
            assert abs(grad[k] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_exact_solution_residuals_kill_gradient(self, poisson, quad_pair):
        # synthetic override: with residuals computed from the exact solution
        # the loss is ~0 and the weighted gradient vanishes
        pts = boundary.trim_boundary(boundary.grid(1, 30, include_boundary=True))
        r = pde.residual(
            poisson, pts, poisson.exact(pts), poisson.exact_grad(pts), poisson.exact_lap(pts)
        )
        loss = float(r @ r) / len(pts)
        assert loss <= 1e-15
        p = net.init_kaiming_uniform((1, 12, 1), "tanh", 1)
        st = net.forward(p, pts, order=2)
        cf = pde.coefficients(poisson.op, quad_pair, pts)
        scale = 2.0 / len(pts)
        grad = net.weighted_residual_gradient(
            p, st, scale * r * cf.alpha, scale * r[:, None] * cf.beta, scale * r * cf.gamma
        )
        assert np.linalg.norm(grad) <= 1e-7


class TestL2Error:
    def test_zero_for_matching_reference(self, quad_pair):
        # custom problem whose exact solution IS the trial function
        p = net.init_kaiming_uniform((1, 10, 1), "tanh", 3)
        trial = kernels.TrialFunction(quad_pair, p)

        def exact(x):
            return kernels.trial_eval(trial, x).value

        prob = pde.Problem(name="synthetic", dim=1,
                           op=pde.LinearOperator(dim=1, c2=1.0),
                           source=lambda x: np.zeros(len(x)), exact=exact)
        grid = boundary.grid(1, 64, include_boundary=True)
        assert train.l2_error(trial, prob, grid) == pytest.approx(0.0, abs=1e-14)

    def test_double_amplitude_gives_unit_error(self, quad_pair):
        p = net.init_kaiming_uniform((1, 10, 1), "tanh", 3)
        trial = kernels.TrialFunction(quad_pair, p)

        def exact(x):  # trial == 2 * exact
            return 0.5 * kernels.trial_eval(trial, x).value

        prob = pde.Problem(name="synthetic", dim=1,
                           op=pde.LinearOperator(dim=1, c2=1.0),
                           source=lambda x: np.zeros(len(x)), exact=exact)
        grid = boundary.grid(1, 64, include_boundary=False)
        assert train.l2_error(trial, prob, grid) == pytest.approx(1.0, rel=1e-12)

    def test_zero_reference_rejected(self, quad_pair):
        p = net.init_kaiming_uniform((1, 6, 1), "tanh", 0)
        trial = kernels.TrialFunction(quad_pair, p)
        prob = pde.Problem(name="synthetic", dim=1,
                           op=pde.LinearOperator(dim=1, c2=1.0),
                           source=lambda x: np.zeros(len(x)),
                           exact=lambda x: np.zeros(len(x)))
        with pytest.raises(DegenerateReference):
            train.l2_error(trial, prob, boundary.grid(1, 16))


class TestRun:
    def test_zero_epoch_schedule(self):
        cfg = small_config(phases=(train.Phase("adam", 0, 1e-3),), snapshot_epochs=(0,),
                           keep_snapshot_matrices=True)
        rec = train.run(cfg)
        assert rec.epochs.size == 0
        assert len(rec.snapshots) == 1 and rec.snapshots[0]["epoch"] == 0
        # snapshot kernels at epoch 0 are bit-identical to standalone
        # assembly with the same seed
        prob = pde.benchmark(cfg.benchmark)
        pair = boundary.make_pair(cfg.family, cfg.params)
        pts = train.build_grid(1, cfg.grid_n, cfg.grid_mode)
        params = net.init_kaiming_uniform((1, 16, 16, 1), "tanh", 0)
        bundle = rec.snapshots[0]["bundle"]
        assert np.array_equal(bundle.kn.a, kernels.assemble_kn(params, pts).a)
        assert np.array_equal(
            bundle.kr.a, kernels.assemble_kr(params, prob, pair, pts, path="direct").a
        )

    def test_deterministic_given_seed(self):
        r1 = train.run(small_config())
        r2 = train.run(small_config())
        assert np.array_equal(r1.losses, r2.losses)
        assert np.array_equal(r1.final_theta, r2.final_theta)
        assert r1.final_loss == r2.final_loss

    def test_final_loss_is_recomputed_value(self, poisson, quad_pair):
        rec = train.run(small_config())
        p = net.init_kaiming_uniform((1, 16, 16, 1), "tanh", 0)
        pts = train.build_grid(1, 24, "trimmed")
        fg = train.make_closure(p, quad_pair, poisson, pts)
        assert rec.final_loss == pytest.approx(fg(rec.final_theta)[0], rel=1e-12)

    def test_loss_history_decreases_overall(self):
        rec = train.run(small_config(phases=(train.Phase("adam", 200, 1e-3),)))
        assert rec.losses[-1] < rec.losses[0]

    def test_divergence_detected(self):
        cfg = small_config(phases=(train.Phase("sgd", 500, 10.0),))
        with pytest.raises(DivergenceDetected) as exc:
            train.run(cfg)
        assert exc.value.epoch > 0

    def test_lbfgs_phase_records_status(self):
        rec = train.run(
            small_config(phases=(train.Phase("adam", 50, 1e-3), train.Phase("lbfgs", 20, 1.0)))
        )
        assert rec.phase_statuses[1]["kind"] == "lbfgs"
        assert rec.phase_statuses[1]["status"] in (
            "finished",
            "grad_converged",
            "line_search_failed",
        )

    def test_power_asym_barred(self):
        with pytest.raises(ConfigError):
            train.run(small_config(family="power_asym", params={"alpha": 2.0}))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            train.run(small_config(family="tanh2d", params={"alpha": 3.0}))

    def test_invalid_phase_rejected(self):
        with pytest.raises(ConfigError):
            train.run(small_config(phases=(train.Phase("newton", 5, 1.0),)))


class TestPersistence:
    def test_write_record_roundtrip(self, tmp_path):
        rec = train.run(small_config(phases=(train.Phase("adam", 10, 1e-3),)))
        out = train.write_record(rec, tmp_path, tag="t")
        from hcntk import io

        header, rows = io.read_csv(tmp_path / "t_epochs.csv")
        assert header == ["epoch", "loss", "wall_ms"]
        assert len(rows) == 10
        assert float(rows[0][1]) == rec.losses[0]
        summary = io.read_json(tmp_path / "t_summary.json")
        assert summary["final_loss"] == rec.final_loss
        params = net.load_params(tmp_path / "t_params.bin")
        assert np.array_equal(params.flatten(), rec.final_theta)


class TestBuildGrid:
    def test_modes(self):
        inc = train.build_grid(1, 5, "inclusive")
        assert len(inc) == 5 and inc[0, 0] == 0.0
        interior = train.build_grid(1, 5, "interior")
        assert len(interior) == 5 and interior[0, 0] > 0.0
        trm = train.build_grid(1, 5, "trimmed")
        assert len(trm) == 3
        with pytest.raises(ConfigError):
            train.build_grid(1, 5, "random")
