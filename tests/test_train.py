import tracemalloc

import numpy as np
import pytest

from hcntk import boundary, kernels, net, pde, train
from hcntk.errors import ConfigError, DegenerateReference, DivergenceDetected
from hcntk.linalg import SPECTRUM_COLS, eig_sym

from conftest import read_csv


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
        r = poisson.op.apply(
            poisson.exact(pts), poisson.exact_grad(pts), poisson.exact_lap(pts), pts
        ) - poisson.source(pts)
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


CLOSURE_CASES = {  # dim: (benchmark, family, params)
    1: ("diffusion1d_sincos", "tanh", {"alpha": 3.0}),
    2: ("diffusion2d", "tanh2d", {"alpha": 3.0}),
    3: ("diffusion3d", "mixed_power_sym3d", {"alpha": 1.0}),
}


def closure_setup(dim, hidden, activation, grid_n, seed=0):
    bench, family, params = CLOSURE_CASES[dim]
    problem = pde.benchmark(bench)
    pair = boundary.make_pair(family, params)
    pts = train.build_grid(dim, grid_n, "trimmed")
    template = net.init_kaiming_uniform((dim, *hidden, 1), activation, seed)
    return template, pair, problem, pts


def fresh_loss_grad(template, pair, problem, x, theta):
    # the closure's arithmetic, composed from the workspace-free passes
    p = template.unflatten(theta)
    cf = pde.coefficients(problem.op, pair, x)
    const = -problem.source(x)
    st = net.forward(p, x, order=2)
    r = const + cf.alpha * st.value + np.sum(cf.beta * st.grad, axis=1) + cf.gamma * st.lap
    n = len(x)
    scale = 2.0 / n
    grad = net.weighted_residual_gradient(
        p, st, scale * r * cf.alpha, scale * r[:, None] * cf.beta, scale * r * cf.gamma
    )
    return float(r @ r) / n, grad, r


class TestClosureWorkspace:
    @pytest.mark.parametrize("dim,grid_n", [(1, 20), (2, 7), (3, 5)])
    @pytest.mark.parametrize("activation", ["tanh", "sigmoid", "elu", "selu"])
    def test_bitwise_equal_to_fresh_passes(self, dim, grid_n, activation):
        template, pair, problem, pts = closure_setup(dim, (9, 7), activation, grid_n)
        fg = train.make_closure(template, pair, problem, pts)
        rng = np.random.default_rng(dim)
        theta0 = template.flatten()
        for theta in (theta0, theta0 + 0.1 * rng.standard_normal(theta0.size)):
            loss, grad = fg(theta)
            want_loss, want_grad, want_r = fresh_loss_grad(template, pair, problem, pts, theta)
            assert loss == want_loss
            assert np.array_equal(grad, want_grad)
            assert np.array_equal(fg.residuals(theta), want_r)

    def test_repeated_point_gives_same_bits(self):
        template, pair, problem, pts = closure_setup(2, (12, 12), "tanh", 8)
        fg = train.make_closure(template, pair, problem, pts)
        a = template.flatten()
        b = a + 0.05 * np.random.default_rng(1).standard_normal(a.size)
        loss_a, grad_a = fg(a)
        keep = grad_a.copy()
        loss_b, grad_b = fg(b)
        assert loss_b != loss_a
        loss_a2, grad_a2 = fg(a)
        assert loss_a2 == loss_a and np.array_equal(grad_a2, keep)

    def test_returned_vectors_are_never_overwritten(self):
        template, pair, problem, pts = closure_setup(1, (12, 12), "tanh", 30)
        fg = train.make_closure(template, pair, problem, pts)
        a = template.flatten()
        b = a + 0.05 * np.random.default_rng(2).standard_normal(a.size)
        _, grad_a = fg(a)
        r_a = fg.residuals(a)
        kept_grad, kept_r = grad_a.copy(), r_a.copy()
        _, grad_b = fg(b)
        r_b = fg.residuals(b)
        assert np.array_equal(grad_a, kept_grad) and np.array_equal(r_a, kept_r)
        assert not np.shares_memory(grad_a, grad_b) and not np.shares_memory(r_a, r_b)
        assert not np.shares_memory(r_a, grad_b)

    @pytest.mark.parametrize("dim,grid_n", [(1, 100), (2, 24)])
    def test_warm_call_allocates_little(self, dim, grid_n):
        # train-1d's shape (n=98) and the 2D desk study's (n=484), 2x64 tanh
        template, pair, problem, pts = closure_setup(dim, (64, 64), "tanh", grid_n)
        fg = train.make_closure(template, pair, problem, pts)
        theta = template.flatten()
        fg(theta)

        def warm_peak():
            tracemalloc.start()
            try:
                fg(theta)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                fg(theta)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        # Most of the first peak is numpy's ufunc iterator buffers, so it is
        # taken at numpy's default buffer size of 8192 elements, set
        # explicitly. With the buffers cut to the minimum, what remains is
        # the closure's own allocations: the gradient, the per-point
        # residual terms and no N x width array.
        old = np.setbufsize(8192)
        try:
            assert warm_peak() <= 128 * 1024
            np.setbufsize(16)
            assert warm_peak() < len(pts) * 64 * 8
        finally:
            np.setbufsize(old)


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
        cfg = small_config(phases=(train.Phase("adam", 0, 1e-3),), snapshot_epochs=(0,))
        rec = train.run(cfg)
        assert rec.epochs.size == 0
        assert len(rec.snapshots) == 1 and rec.snapshots[0]["epoch"] == 0
        # the epoch-0 snapshot's spectra are bit-identical to those of
        # standalone assembly with the same seed
        prob = pde.benchmark(cfg.benchmark)
        pair = boundary.make_pair(cfg.family, cfg.params)
        pts = train.build_grid(1, cfg.grid_n, cfg.grid_mode)
        params = net.init_kaiming_uniform((1, 16, 16, 1), "tanh", 0)
        standalone = {
            "kn": kernels.assemble_kn(params, pts),
            "kt": kernels.assemble_kt(params, pair, pts, path="direct"),
            "kr": kernels.assemble_kr(params, prob, pair, pts, path="direct"),
        }
        for name, mat in standalone.items():
            rep = eig_sym(mat)
            entry = rec.snapshots[0][name]
            assert list(entry) == list(SPECTRUM_COLS)
            for key, value in entry.items():
                assert value == getattr(rep, key), (name, key)

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

        header, rows = read_csv(tmp_path / "t_epochs.csv")
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
