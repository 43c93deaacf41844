"""The three workloads: their operations, the configs they hand to hcntk, and how one runs.

Every input that decides whether the eigensolver converges (network seed,
families, grids, widths) is fixed here. The benchmark seed only sets the
order in which a round visits the operations, so every run fails the same
operations and the failed share of ``attempted`` is the same in every run.
"""

import os
from dataclasses import dataclass

from hcntk import config, experiments, train
from hcntk.errors import HcntkError

NET_SEED = 0  # the reference seed of the desk configs and the paper's reference point

# Every family and the three spellings of B = x(1-x), in a round short
# enough (~15 s on the reference machine) to keep a run near 40 s when the
# host is slow.
KR_1D_CANDIDATES = (
    [("power", {"alpha": a}) for a in (0.5, 1.0, 2.0, 5.0)]
    + [("trig", {"alpha": a}) for a in (1.0, 4.0)]
    + [("rational", {"alpha": a}) for a in (0.0, 20.0)]
    + [("exponential", {"alpha": 0.0}), ("tanh", {"alpha": 3.0})]
)

# The three spellings of B = x(1-x); their K_r spectra must agree.
QUADRATIC_B = (("power", 1.0), ("rational", 0.0), ("exponential", 0.0))

# One desk 2D family of each kind; all nine (18 spectra, ~28 s a round)
# would make a run too long to repeat ~70 times within an hour.
DESK_2D_FAMILIES = (
    ("power2d", {"alpha": 0.5}),
    ("mixed_power2d", {"alpha": 1.0, "beta": 1.0}),
    ("tanh2d", {"alpha": 5.0}),
)

TRAIN_1D_FAMILIES = (
    ("power", {"alpha": 1.0}),
    ("trig", {"alpha": 1.0}),
    ("rational", {"alpha": 5.0}),
    ("exponential", {"alpha": 2.0}),
    ("tanh", {"alpha": 1.0}),
    ("tanh", {"alpha": 5.0}),
)

ADAM_STEPS = 2000
LBFGS_STEPS = 300


@dataclass(frozen=True)
class Op:
    kind: str  # kr | kt | train
    family: str
    params: dict

    @property
    def tag(self):
        bits = [self.kind, self.family] + [f"{k}{v:g}" for k, v in sorted(self.params.items())]
        return "_".join(bits)


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str
    hidden: tuple
    grid_n: int
    ops: tuple

    @property
    def dim(self):
        return 2 if self.benchmark == "diffusion2d" else 1

    @property
    def sizes(self):
        return (self.dim, *self.hidden, 1)

    @property
    def is_sweep(self):
        return self.ops[0].kind != "train"


WORKLOADS = {
    "kr-sweep-1d": Workload(
        "kr-sweep-1d", "poisson1d_sin", (500, 500), 100,
        tuple(Op("kr", f, p) for f, p in KR_1D_CANDIDATES),
    ),
    "spectra-2d": Workload(
        "spectra-2d", "diffusion2d", (64, 64), 24,
        tuple(Op(kind, f, p) for f, p in DESK_2D_FAMILIES for kind in ("kt", "kr")),
    ),
    "train-1d": Workload(
        "train-1d", "diffusion1d_sincos", (64, 64), 100,
        tuple(Op("train", f, p) for f, p in TRAIN_1D_FAMILIES),
    ),
}


def spectrum_config(wl, op):
    """The kt-spectrum / kr-spectrum config ``hcntk spectrum`` would load for one candidate."""
    cfg = {
        "schema_version": config.SCHEMA_VERSION,
        "kind": f"{op.kind}-spectrum",
        "seeds": [NET_SEED],
        "network": {"input_dim": wl.dim, "hidden": list(wl.hidden), "activation": "tanh"},
        "grid": {"n_per_axis": wl.grid_n, "mode": "trimmed"},
        "families": [{"family": op.family, "params": dict(op.params)}],
    }
    if op.kind == "kr":
        cfg["benchmark"] = wl.benchmark
    return cfg


def train_config(wl, op):
    return train.TrainConfig(
        benchmark=wl.benchmark,
        family=op.family,
        params=dict(op.params),
        hidden=wl.hidden,
        activation="tanh",
        seed=NET_SEED,
        phases=(train.Phase("adam", ADAM_STEPS, 1e-3), train.Phase("lbfgs", LBFGS_STEPS, 1.0)),
        grid_n=wl.grid_n,
        grid_mode="trimmed",
        snapshot_epochs=(),  # an epoch-0 snapshot hits the eigensolver fault and aborts the run
        test_points=1000,
    )


@dataclass
class Outcome:
    status: str  # "ok", a sweep row status, or the error class of a failed training run
    items: int  # spectra (sweeps) or optimizer epochs (training) completed
    result: object  # ExperimentResult or TrainRecord; None when training raised


def run_op(wl, op, out_root):
    """Run one operation through the public entry point a user would call."""
    if op.kind == "train":
        try:
            rec = train.run(train_config(wl, op))
        except HcntkError as exc:
            return Outcome(type(exc).__name__, 0, None)
        return Outcome("ok", len(rec.epochs), rec)
    cfg = config.validate(spectrum_config(wl, op))
    res = experiments.run_experiment(cfg, os.path.join(out_root, op.tag))
    status = res.rows[0]["status"]
    return Outcome(status, int(status == "ok"), res)
