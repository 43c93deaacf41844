import numpy as np
import pytest

from hcntk import dynamics
from hcntk.errors import DegenerateKernel, ShapeError, StepSizeError
from hcntk.linalg import SymMatrix

from conftest import random_psd


class TestDecompose:
    def test_identity_kernel(self):
        dec = dynamics.decompose(SymMatrix(np.eye(3)), np.array([1.0, 0.0, 0.0]), eta=0.1)
        assert np.allclose(np.sort(np.abs(dec.coeffs)), [0.0, 0.0, 1.0])

    def test_diagonal_two_modes(self):
        dec = dynamics.decompose(SymMatrix(np.diag([2.0, 1.0])), np.array([1.0, 1.0]), eta=0.5)
        assert np.allclose(np.abs(dec.coeffs), [1.0, 1.0])

    def test_parseval(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 11))
            k = SymMatrix(random_psd(rng, n))
            r0 = rng.standard_normal(n)
            dec = dynamics.decompose(k, r0, eta=1e-3)
            assert float(dec.coeffs @ dec.coeffs) == pytest.approx(float(r0 @ r0), rel=1e-8)

    def test_shape_check(self):
        with pytest.raises(ShapeError):
            dynamics.decompose(SymMatrix(np.eye(3)), np.ones(4), eta=0.1)


class TestAnalyticResidual:
    def test_t_zero_reproduces_initial(self, rng):
        k = SymMatrix(random_psd(rng, 6))
        r0 = rng.standard_normal(6)
        dec = dynamics.decompose(k, r0, eta=0.01)
        assert np.allclose(dynamics.analytic_residual(dec, 0.0), r0, atol=1e-10)

    def test_scalar_decay_for_isotropic_kernel(self, rng):
        lam = 2.5
        n = 4
        dec = dynamics.decompose(SymMatrix(lam * np.eye(n)), rng.standard_normal(n), eta=0.1, n_r=n)
        t = 3.0
        expected = np.exp(-2 * 0.1 * lam * t / n) * dec.r0
        assert np.allclose(dynamics.analytic_residual(dec, t), expected, rtol=1e-12)

    def test_mode_ordering(self, rng):
        # larger-eigenvalue modal components decay strictly faster at every t
        k = SymMatrix(np.diag([4.0, 1.0]))
        dec = dynamics.decompose(k, np.array([1.0, 1.0]), eta=0.5, n_r=2)
        for t in (0.5, 1.0, 2.0):
            r = dynamics.analytic_residual(dec, t)
            mags = np.abs(dec.spectrum.eigenvectors.T @ r)  # modal magnitudes
            assert mags[0] < mags[1]  # eigenvalues sorted descending


class TestIntegrateFrozen:
    def test_zero_initial_residual(self):
        k = SymMatrix(np.eye(3))
        _, traj = dynamics.integrate_frozen(k, np.zeros(3), eta=0.1, n_r=3, t_end=1.0, dt=0.1)
        assert np.all(traj == 0.0)

    def test_1x1_exponential(self):
        # lambda = 1, eta = n_r / 2 gives R(t) = R(0) e^{-t}
        k = SymMatrix([[1.0]])
        times, traj = dynamics.integrate_frozen(k, np.array([2.0]), eta=0.5, n_r=1,
                                                t_end=1.0, dt=1e-3)
        assert traj[-1, 0] == pytest.approx(2.0 * np.exp(-times[-1]), rel=1e-8)

    def test_rk4_matches_analytic(self, rng):
        for _ in range(3):
            n = int(rng.integers(3, 20))
            k = SymMatrix(random_psd(rng, n))
            r0 = rng.standard_normal(n)
            eta = 0.01
            dec = dynamics.decompose(k, r0, eta, n_r=n)
            pred = dynamics.predict(dec)
            t_end = min(0.1 * pred.t_conv, 200.0 / (2 * eta * dec.spectrum.lambda_max / n))
            times, traj = dynamics.integrate_frozen(k, r0, eta, n, t_end, dt=t_end / 2000)
            for idx in (1, len(times) // 2, -1):
                exact = dynamics.analytic_residual(dec, times[idx])
                assert np.linalg.norm(traj[idx] - exact) <= 1e-4 * np.linalg.norm(exact)

    def test_loss_monotone_under_psd(self, rng):
        k = SymMatrix(random_psd(rng, 8))
        r0 = rng.standard_normal(8)
        rate = 2 * 0.05 * float(np.linalg.eigvalsh(k.a).max()) / 8
        _, traj = dynamics.integrate_frozen(k, r0, eta=0.05, n_r=8, t_end=1.0 / rate, dt=0.01 / rate)
        losses = dynamics.trajectory_loss(traj, 8)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_loss_matches_modal_formula(self, rng):
        k = SymMatrix(random_psd(rng, 6))
        r0 = rng.standard_normal(6)
        eta = 0.02
        dec = dynamics.decompose(k, r0, eta, n_r=6)
        lam_max = dec.spectrum.lambda_max
        t_end = 50.0 / (2 * eta * lam_max / 6)
        times, traj = dynamics.integrate_frozen(k, r0, eta, 6, t_end, dt=t_end / 5000)
        losses = dynamics.trajectory_loss(traj, 6)
        for idx in (0, len(times) // 3, -1):
            modal = dynamics.trajectory_loss(dynamics.analytic_residual(dec, times[idx])[None], 6)[0]
            assert losses[idx] == pytest.approx(modal, rel=1e-3)

    def test_euler_instability_detected(self):
        k = SymMatrix(np.diag([100.0, 1.0]))
        with pytest.raises(StepSizeError):
            dynamics.integrate_frozen(k, np.array([1.0, 1.0]), eta=1.0, n_r=1,
                                      t_end=10.0, dt=0.5)


class TestPredict:
    def test_basic_formula(self):
        dec = dynamics.decompose(SymMatrix([[1.0]]), np.array([1.0]), eta=0.5, n_r=1)
        pred = dynamics.predict(dec)
        assert pred.t_conv == pytest.approx(1.0)
        assert pred.loss_rate == pytest.approx(2.0)

    def test_doubling_eta_halves_t_conv(self, rng):
        k = SymMatrix(random_psd(rng, 5))
        r0 = rng.standard_normal(5)
        t1 = dynamics.predict(dynamics.decompose(k, r0, eta=0.1, n_r=5)).t_conv
        t2 = dynamics.predict(dynamics.decompose(k, r0, eta=0.2, n_r=5)).t_conv
        assert t1 == pytest.approx(2.0 * t2)

    def test_per_mode_rates_are_scaled_eigenvalues(self, rng):
        k = SymMatrix(random_psd(rng, 6))
        dec = dynamics.decompose(k, rng.standard_normal(6), eta=0.3, n_r=6)
        pred = dynamics.predict(dec)
        lam = dec.spectrum.eigenvalues
        keep = lam >= dynamics.FROZEN_MODE_CUT * lam[0]
        assert np.allclose(pred.per_mode_rates[keep], 2 * 0.3 * lam[keep] / 6)

    def test_frozen_modes_get_zero_rate(self):
        k = SymMatrix(np.diag([1.0, 1e-20]))
        dec = dynamics.decompose(k, np.array([1.0, 1.0]), eta=0.1, n_r=2)
        pred = dynamics.predict(dec)
        assert pred.n_frozen == 1
        assert pred.per_mode_rates[1] == 0.0
        assert pred.lambda_min_used == pytest.approx(1.0)

    def test_degenerate_kernel(self):
        dec = dynamics.decompose(SymMatrix(np.zeros((3, 3))), np.ones(3), eta=0.1)
        with pytest.raises(DegenerateKernel):
            dynamics.predict(dec)

    def test_asymptotic_rate_matches_fitted_slope(self, rng):
        # for t >= 5 t_conv the fitted log-loss slope approaches
        # -4 eta lambda_min / n_r
        lam = np.array([5.0, 1.0])
        k = SymMatrix(np.diag(lam))
        r0 = np.array([1.0, 1.0])
        eta, n = 0.1, 2
        dec = dynamics.decompose(k, r0, eta, n_r=n)
        pred = dynamics.predict(dec)
        ts = np.linspace(5 * pred.t_conv, 8 * pred.t_conv, 20)
        traj = np.array([dynamics.analytic_residual(dec, t) for t in ts])
        logs = np.log(dynamics.trajectory_loss(traj, n))
        slope = np.polyfit(ts, logs, 1)[0]
        assert slope == pytest.approx(-pred.loss_rate, rel=0.05)
