"""Lazy-regime training dynamics of the residual under a frozen kernel.

The residual follows dR/dt = -(2 eta / N_r) K_r R; expanding R(0) in the
kernel eigenbasis gives mode-wise exponential decay, a convergence time set
by the slowest retained mode, and an asymptotic loss decay rate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKernel, ShapeError, StepSizeError
from .linalg import FROZEN_MODE_CUT, SpectrumReport, SymMatrix, eig_sym


@dataclass
class ModalDecomposition:
    spectrum: SpectrumReport
    coeffs: np.ndarray  # c_k = v_k^T R(0)
    eta: float
    n_r: int
    r0: np.ndarray


@dataclass
class ConvergencePrediction:
    t_conv: float  # n_r / (2 eta lambda_min), slowest retained mode
    loss_rate: float  # asymptotic exponential rate 4 eta lambda_min / n_r
    per_mode_rates: np.ndarray  # 2 eta lambda_k / n_r, frozen modes at 0
    lambda_min_used: float
    n_frozen: int
    convergent: bool  # False when no positive non-frozen mode exists


def decompose(kr: SymMatrix, r0, eta, n_r=None) -> ModalDecomposition:
    """Expand the initial residual in the kernel eigenbasis."""
    r0 = np.asarray(r0, dtype=np.float64)
    if r0.ndim != 1 or r0.size != kr.n:
        raise ShapeError(f"residual length {r0.size} does not match kernel dimension {kr.n}")
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    spectrum = eig_sym(kr)
    coeffs = spectrum.eigenvectors.T @ r0
    return ModalDecomposition(
        spectrum=spectrum,
        coeffs=coeffs,
        eta=float(eta),
        n_r=int(n_r if n_r is not None else kr.n),
        r0=r0.copy(),
    )


def analytic_residual(dec: ModalDecomposition, t) -> np.ndarray:
    """R(t) = sum_k c_k exp(-(2 eta / N_r) lambda_k t) v_k."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    rates = (2.0 * dec.eta / dec.n_r) * dec.spectrum.eigenvalues
    return dec.spectrum.eigenvectors @ (dec.coeffs * np.exp(-rates * t))


def integrate_frozen(kr: SymMatrix, r0, eta, n_r, t_end, dt):
    """Numeric trajectory of the frozen-kernel linear ODE (classical RK4).

    Returns (times, residuals) with residuals[k] = R(times[k]), including
    t = 0. Sustained norm growth (10 consecutive increasing steps) under
    this decaying-only system raises StepSizeError.
    """
    r = np.asarray(r0, dtype=np.float64).copy()
    if r.size != kr.n:
        raise ShapeError(f"residual length {r.size} does not match kernel dimension {kr.n}")
    if dt <= 0.0 or t_end < 0.0:
        raise ValueError("need dt > 0 and t_end >= 0")
    a = -(2.0 * eta / n_r) * kr.a

    def f(vec):
        return a @ vec

    n_steps = int(np.ceil(t_end / dt - 1e-12)) if t_end > 0 else 0
    times = np.empty(n_steps + 1)
    traj = np.empty((n_steps + 1, r.size))
    times[0] = 0.0
    traj[0] = r
    growth_streak = 0
    prev_norm = float(np.linalg.norm(r))
    for k in range(1, n_steps + 1):
        k1 = f(r)
        k2 = f(r + 0.5 * dt * k1)
        k3 = f(r + 0.5 * dt * k2)
        k4 = f(r + dt * k3)
        r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm = float(np.linalg.norm(r))
        growth_streak = growth_streak + 1 if norm > prev_norm else 0
        if growth_streak >= 10:
            raise StepSizeError(
                f"norm grew for {growth_streak} consecutive steps at t={k * dt:.3e}; reduce dt"
            )
        prev_norm = norm
        times[k] = k * dt
        traj[k] = r
    return times, traj


def trajectory_loss(traj, n_r):
    """J(t) = ||R(t)||^2 / N_r along a trajectory."""
    return np.sum(traj * traj, axis=1) / n_r


def predict(dec: ModalDecomposition) -> ConvergencePrediction:
    """Convergence time and decay rates from the retained spectrum.

    Eigenvalues below FROZEN_MODE_CUT * lambda_max are treated as frozen
    (rate 0) and excluded from the slowest-mode time scale; the smallest
    kernels the studies produce put those modes at numerical noise level.
    """
    lam = dec.spectrum.eigenvalues
    lam_max = dec.spectrum.lambda_max
    if lam_max <= 0.0:
        raise DegenerateKernel("all-zero spectrum")
    frozen = lam < FROZEN_MODE_CUT * lam_max
    rates = (2.0 * dec.eta / dec.n_r) * np.where(frozen, 0.0, lam)
    lam_min = dec.spectrum.lambda_min_retained
    convergent = lam_min > 0.0
    if convergent:
        t_conv = dec.n_r / (2.0 * dec.eta * lam_min)
        loss_rate = 4.0 * dec.eta * lam_min / dec.n_r
    else:
        lam_min = 0.0
        t_conv = float("inf")
        loss_rate = 0.0
    return ConvergencePrediction(
        t_conv=t_conv,
        loss_rate=loss_rate,
        per_mode_rates=rates,
        lambda_min_used=lam_min,
        n_frozen=int(frozen.sum()),
        convergent=convergent,
    )
