"""HC-PINN training: loss, optimizer schedules, error evaluation, NTK snapshots."""

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import boundary, io, kernels, net, optim, pde
from .errors import ConfigError, DegenerateReference, DivergenceDetected
from .linalg import eig_sym


GRID_MODES = ("inclusive", "interior", "trimmed")


def build_grid(dim, n_per_axis, mode):
    """Collocation grid in one of three boundary treatments.

    inclusive: endpoints on the boundary; interior: (i+1)/(n+1), i = 0..n-1;
    trimmed: inclusive grid with exact-boundary points dropped (the mode the
    kernel studies use).
    """
    if mode == "inclusive":
        return boundary.grid(dim, n_per_axis, include_boundary=True)
    if mode == "interior":
        return boundary.grid(dim, n_per_axis, include_boundary=False)
    if mode == "trimmed":
        return boundary.trim_boundary(boundary.grid(dim, n_per_axis, include_boundary=True))
    raise ConfigError(f"unknown grid mode '{mode}' (choose from {GRID_MODES})")


# A run whose loss exceeds this multiple of its first loss has diverged.
DIVERGENCE_FACTOR = 1e6


@dataclass
class Phase:
    kind: str  # sgd | adam | lbfgs
    steps: int
    lr: float = 1e-3

    def validate(self):
        if self.kind not in ("sgd", "adam", "lbfgs"):
            raise ConfigError(f"unknown optimizer kind '{self.kind}'")
        if self.steps < 0:
            raise ConfigError("phase step count must be >= 0")
        if self.lr <= 0.0:
            raise ConfigError("learning rate must be positive")


@dataclass
class TrainConfig:
    benchmark: str
    family: str
    params: dict
    hidden: tuple = (500, 500)
    activation: str = "tanh"
    seed: int = 0
    phases: tuple = (Phase("adam", 10000, 1e-3), Phase("lbfgs", 500, 1.0))
    grid_n: int = 100
    grid_mode: str = "trimmed"
    snapshot_epochs: tuple = (0,)
    test_points: int = 1000  # total test-grid size target

    def validate(self):
        for ph in self.phases:
            ph.validate()
        if self.family in boundary.ASYMMETRIC_AT_ONE:
            raise ConfigError(
                f"family '{self.family}' violates B=0 on the whole boundary and is "
                "barred from training configs (spectral studies only)"
            )


@dataclass
class TrainRecord:
    config: TrainConfig
    epochs: np.ndarray
    losses: np.ndarray
    wall_ms: np.ndarray
    final_loss: float
    final_l2: float
    final_theta: np.ndarray
    initial_loss: float
    phase_statuses: list
    snapshots: list = field(default_factory=list)
    total_wall_s: float = 0.0


def make_closure(params_template, pair, problem, points):
    """Loss/gradient closure over the flat parameter vector.

    The trial function is u~ = B N (A = 0: every benchmark has zero
    Dirichlet data), so the residual is alpha N + beta . grad N +
    gamma lap N - f. Everything theta-independent (the coefficient fields
    and -f) is precomputed once; each call runs one extended forward pass
    and one reverse pass. The closure owns a workspace dict
    that both passes write their carriers, adjoints and scratch into, and
    reads the parameters as views of ``theta``, so a call allocates only
    its per-point residual terms and the returned gradient. The loss,
    gradient and residual vectors it returns are never written again.
    """
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = x.shape[0]
    cf = pde.coefficients(problem.op, pair, x)
    const = -problem.source(x)
    ws = {}

    def residual_of(st):
        return const + cf.alpha * st.value + (cf.beta * st.grad).sum(axis=1) + cf.gamma * st.lap

    def residuals(theta):
        return residual_of(net.forward(params_template.view(theta), x, order=2, ws=ws))

    def fg(theta):
        p = params_template.view(theta)
        st = net.forward(p, x, order=2, ws=ws)
        r = residual_of(st)
        loss = float(r @ r) / n
        scale = 2.0 / n
        grad = net.weighted_residual_gradient(
            p, st, scale * r * cf.alpha, scale * r[:, None] * cf.beta, scale * r * cf.gamma
        )
        return loss, grad

    fg.residuals = residuals
    return fg


def l2_error(trial, problem, test_grid, chunk=20000):
    """Relative L2 error of the trial function against the exact solution.

    Evaluates in chunks so the 125k-point 3D test grids stay cheap in memory
    even for wide networks.
    """
    x = np.atleast_2d(np.asarray(test_grid, dtype=np.float64))
    err_sq = 0.0
    ref_sq = 0.0
    for lo in range(0, len(x), chunk):
        xc = x[lo : lo + chunk]
        st = net.forward(trial.params, xc, order=0)
        u_trial = trial.pair.value(xc) * st.value
        u_exact = problem.exact(xc)
        diff = u_trial - u_exact
        err_sq += float(diff @ diff)
        ref_sq += float(u_exact @ u_exact)
    if ref_sq == 0.0:
        raise DegenerateReference("exact solution has zero norm on the test grid")
    return float(np.sqrt(err_sq / ref_sq))


def test_grid_for(problem, total_points):
    """Uniform test grid with approximately ``total_points`` points."""
    per_axis = max(2, int(round(total_points ** (1.0 / problem.dim))))
    return boundary.grid(problem.dim, per_axis, include_boundary=True)


def _snapshot(epoch, theta, template, pair, problem, points):
    p = template.unflatten(theta)
    entry = {"epoch": int(epoch)}
    for name, mat in (("kn", kernels.assemble_kn(p, points)),
                      ("kt", kernels.assemble_kt(p, pair, points, path="direct")),
                      ("kr", kernels.assemble_kr(p, problem, pair, points, path="direct"))):
        entry[name] = eig_sym(mat).metrics()
    return entry


def run(config: TrainConfig) -> TrainRecord:
    """Execute the optimizer schedule; deterministic given the config seed."""
    config.validate()
    problem = pde.benchmark(config.benchmark)
    pair = boundary.make_pair(config.family, config.params)
    points = build_grid(problem.dim, config.grid_n, config.grid_mode)
    sizes = (problem.dim, *config.hidden, 1)
    template = net.init_kaiming_uniform(sizes, config.activation, config.seed)
    fg = make_closure(template, pair, problem, points)
    theta = template.flatten()

    snapshot_set = set(int(e) for e in config.snapshot_epochs)
    snapshots = []
    epochs, losses, wall_ms = [], [], []
    state = {"offset": 0, "last_t": time.perf_counter(), "loss0": None}

    def callback(k, loss, th):
        epoch = state["offset"] + k
        now = time.perf_counter()
        epochs.append(epoch)
        losses.append(loss)
        wall_ms.append((now - state["last_t"]) * 1e3)
        state["last_t"] = now
        if state["loss0"] is None:
            state["loss0"] = loss
        elif state["loss0"] > 0 and loss > DIVERGENCE_FACTOR * state["loss0"]:
            raise DivergenceDetected(epoch, loss)
        if epoch in snapshot_set:
            snapshots.append(_snapshot(epoch, th, template, pair, problem, points))

    t_start = time.perf_counter()
    statuses = []
    for phase in config.phases:
        if phase.kind == "sgd":
            res = optim.sgd(theta, fg, phase.lr, phase.steps, callback=callback)
        elif phase.kind == "adam":
            res = optim.adam(theta, fg, phase.lr, phase.steps, callback=callback)
        else:
            res = optim.lbfgs(theta, fg, phase.steps, callback=callback)
        theta = res.theta
        statuses.append({"kind": phase.kind, "epochs": res.epochs, "status": res.status})
        state["offset"] += res.epochs
    total_epochs = state["offset"]

    final_loss = float(fg(theta)[0])  # recomputed from the final parameters
    if total_epochs in snapshot_set and (not snapshots or snapshots[-1]["epoch"] != total_epochs):
        snapshots.append(_snapshot(total_epochs, theta, template, pair, problem, points))
    trial = kernels.TrialFunction(pair=pair, params=template.unflatten(theta))
    final_l2 = l2_error(trial, problem, test_grid_for(problem, config.test_points))
    return TrainRecord(
        config=config,
        epochs=np.asarray(epochs, dtype=np.int64),
        losses=np.asarray(losses),
        wall_ms=np.asarray(wall_ms),
        final_loss=final_loss,
        final_l2=final_l2,
        final_theta=theta,
        initial_loss=float(state["loss0"]) if state["loss0"] is not None else float(fg(theta)[0]),
        phase_statuses=statuses,
        snapshots=snapshots,
        total_wall_s=time.perf_counter() - t_start,
    )


def write_record(record: TrainRecord, out_dir, tag="run"):
    """Persist per-epoch CSV, JSON summary, and the final parameter vector."""
    os.makedirs(out_dir, exist_ok=True)
    io.write_csv(
        os.path.join(out_dir, f"{tag}_epochs.csv"),
        ["epoch", "loss", "wall_ms"],
        zip(record.epochs, record.losses, record.wall_ms),
    )
    cfg = record.config
    summary = {
        "config": {
            "benchmark": cfg.benchmark,
            "family": cfg.family,
            "params": cfg.params,
            "hidden": list(cfg.hidden),
            "activation": cfg.activation,
            "seed": cfg.seed,
            "phases": [{"kind": p.kind, "steps": p.steps, "lr": p.lr} for p in cfg.phases],
            "grid_n": cfg.grid_n,
            "grid_mode": cfg.grid_mode,
            "test_points": cfg.test_points,
        },
        "initial_loss": record.initial_loss,
        "final_loss": record.final_loss,
        "final_l2": record.final_l2,
        "epochs_run": int(record.epochs[-1] + 1) if record.epochs.size else 0,
        "phase_statuses": record.phase_statuses,
        "total_wall_s": record.total_wall_s,
        "snapshots": record.snapshots,
        "environment": io.environment(),
    }
    io.write_json(os.path.join(out_dir, f"{tag}_summary.json"), summary)
    template = net.init_kaiming_uniform(
        (pde.benchmark(cfg.benchmark).dim, *cfg.hidden, 1), cfg.activation, cfg.seed
    )
    net.save_params(template.unflatten(record.final_theta), os.path.join(out_dir, f"{tag}_params.bin"))
    return out_dir
