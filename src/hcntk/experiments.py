"""Experiment kinds: spectral and training studies driven by declarative configs.

Every sweep point becomes one result row; failed points become rows with a
non-ok status instead of silent omissions or crashes, and the summary JSON
lists the cause of each (``failures``). Result tables carry no wall-clock
columns so re-running a config byte-reproduces them; timing lives in the
summary JSON.
"""

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from . import boundary, dynamics, io, kernels, net, pde, train
from .config import SCHEMA_VERSION, network_sizes
from .errors import (
    DivergenceDetected,
    EigFailure,
    SchemaError,
    SingularCoefficient,
    UndefinedCorrelation,
)
from .linalg import SPECTRUM_COLS, SymMatrix, cka, eig_sym, ensemble_stats, pairwise_cka, spearman

FEATURE_COLS = ("grad_l2", "tv", "gini", "dyn_range", "curv_l2", "b2_max", "b2_tv")


@dataclass
class ExperimentResult:
    kind: str
    rows: list
    columns: list
    metrics: dict
    failures: list = field(default_factory=list)  # {"row", "status", "message"} per failed row

    @property
    def n_failures(self):
        return len(self.failures)


_FAILURE_STATUS = {
    DivergenceDetected: "divergence",
    EigFailure: "eig-failure",
    SingularCoefficient: "singular-coefficient",
}


def _fail(row, exc, index, failures):
    """Give ``row`` the status of ``exc`` and record its cause as failed row ``index``.

    The message is the exception's text: LAPACK's for ``EigFailure``, the
    point index for ``SingularCoefficient``, the epoch and loss for
    ``DivergenceDetected``.
    """
    row["status"] = _FAILURE_STATUS[type(exc)]
    failures.append({"row": index, "status": row["status"], "message": str(exc)})


def _log(msg):
    """Print a progress line when ``HCNTK_VERBOSE`` is 1 or more (0, the default, is quiet)."""
    try:
        verbose = int(os.environ.get("HCNTK_VERBOSE", "0"))
    except ValueError:
        verbose = 0
    if verbose >= 1:
        print(msg, flush=True)


def _grid_key(cfg, dim):
    """``train.build_grid``'s arguments for the config's grid."""
    gc = cfg["grid"]
    return dim, int(gc["n_per_axis"]), gc.get("mode", "trimmed")


def _grid_of(cfg, dim):
    return train.build_grid(*_grid_key(cfg, dim))


def _activation(cfg):
    return cfg["network"].get("activation", "tanh")


def _seeds(cfg):
    return [int(s) for s in cfg.get("seeds", [0])]


def _fam_coords(fam):
    params = fam.get("params", {})
    return {
        "family": fam["family"],
        "alpha": params.get("alpha", ""),
        "beta": params.get("beta", ""),
        "gamma": params.get("gamma", ""),
    }


def _fam_tag(fam):
    params = fam.get("params", {})
    bits = [fam["family"]] + [f"{k}{params[k]:g}" for k in ("alpha", "beta", "gamma") if k in params]
    return "_".join(bits)


def _persist(cfg, out_dir, name, matrix):
    if cfg.get("output", {}).get("persist_kernels", False):
        io.write_matrix_csv(os.path.join(out_dir, "kernels", f"{name}.csv"), matrix.a)


def _maybe_mean(values):
    vals = [v for v in values if np.isfinite(v)]
    return float(np.mean(vals)) if vals else float("nan")


def _safe_spearman(xs, ys):
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    good = np.isfinite(x) & np.isfinite(y)
    if good.sum() < 3:
        return float("nan"), "insufficient"
    try:
        return spearman(x[good], y[good]), "ok"
    except UndefinedCorrelation:
        return float("nan"), "undefined"


# One entry: a spectrum sweep holds the network of each of its seeds, and
# every other run uses one network at a time, so the last network is every
# network a run asks for again.
@functools.lru_cache(maxsize=1)
def _network(sizes, activation, seed):
    """``net.init_kaiming_uniform``'s network, the same object as the last call's for the same key.

    Its arrays are read-only, so no caller can change the network the next one is handed.
    """
    params = net.init_kaiming_uniform(sizes, activation, seed)
    for arr in (*params.weights, *params.biases):
        arr.flags.writeable = False
    return params


# One entry: only a one-seed K_r sweep composes (``kernels.sweep_path``), and
# it asks for the components of its one network for every family.
@functools.lru_cache(maxsize=1)
def _components(sizes, activation, seed, dim, n_per_axis, mode):
    """``kernels.component_kernels`` of ``_network``'s network on ``train.build_grid``'s grid.

    Built once per key, in read-only arrays, which ``kernels.compose_kr`` only reads.
    """
    comp = kernels.component_kernels(_network(sizes, activation, seed),
                                     train.build_grid(dim, n_per_axis, mode))
    for arr in comp.values():
        arr.flags.writeable = False
    return comp


# ---------------------------------------------------------------------------
# K_n invariance studies


EFF_RANK_STEP_SLACK = 1e-2


def eff_rank_decreasing(effs):
    """Whether per-depth mean effective ranks fall with depth, up to seed noise.

    The ranks must drop from the first depth to the last, and no step
    between adjacent depths may rise by more than ``EFF_RANK_STEP_SLACK``:
    at 10 seeds adjacent depths differ by ~2e-3 against an overall drop of
    ~0.09, so a strict per-step comparison would test the seed noise, not
    the depth.
    """
    return all(a >= b - EFF_RANK_STEP_SLACK for a, b in zip(effs, effs[1:])) and effs[0] > effs[-1]


def _strictly_decreasing(vals):
    return float(all(a > b for a, b in zip(vals, vals[1:])))


def _width_trend(per, means):
    mats = list(means.values())
    return {"cv_strictly_decreasing": _strictly_decreasing([s["cv_mean"] for s in per.values()]),
            "cka_meanmat_min_max_width": cka(mats[0], mats[-1])}


def _depth_trend(per, means):
    mats = list(means.values())
    traces = [s["trace_mean"] for s in per.values()]
    return {
        "trace_strictly_decreasing": _strictly_decreasing(traces),
        "eff_rank_decreasing": float(eff_rank_decreasing([s["eff_rank_mean"] for s in per.values()])),
        "trace_ratio_first_last": traces[0] / traces[-1] if traces[-1] else float("inf"),
        "cka_meanmat_min_max_depth": cka(mats[0], mats[-1]),
    }


def _activation_groups(per, means):
    """Each activation group's mean cv, and the CKA of mean kernels within and across the groups."""
    metrics = {}
    for name, group in (("smooth", net.SMOOTH_ACTIVATIONS), ("nonsmooth", net.NONSMOOTH_ACTIVATIONS)):
        if cvs := [s["cv_mean"] for a, s in per.items() if a in group]:
            metrics[f"cv_mean_{name}"] = float(np.mean(cvs))
    within, across, acts = [], [], list(per)
    for i, a in enumerate(acts):
        for b in acts[i + 1 :]:
            same = (a in net.SMOOTH_ACTIVATIONS) == (b in net.SMOOTH_ACTIVATIONS)
            (within if same else across).append(cka(means[a], means[b]))
    if within:
        metrics["within_group_cka_min"] = float(min(within))
    if across:
        metrics["cross_group_cka_max"] = float(max(across))
    return metrics


# Per kind: the sweep column of rows.csv; the sweep, as (value, layer sizes,
# activation) per value; the metric-name suffix, formatted with the value;
# the per-value statistics it reports, in metric order; and its cross-value
# metrics, from the per-value statistics and mean kernels. The seed study is
# the width sweep at the configured width.
_KN_STUDIES = {
    "kn-invariance-seed": (
        "width", lambda cfg: [(network_sizes(cfg)[1], network_sizes(cfg), _activation(cfg))],
        "", ("cka_mean", "cka_min", "cv_mean", "cv_max", "trace_mean", "frob_mean", "eff_rank_mean"),
        lambda per, means: {}),
    "kn-invariance-width": (
        "width", lambda cfg: [(w, network_sizes(cfg, width=w), _activation(cfg)) for w in cfg["widths"]],
        "_w{}", ("cv_mean", "cka_mean", "trace_mean"), _width_trend),
    "kn-invariance-depth": (
        "depth", lambda cfg: [(d, network_sizes(cfg, depth=d), _activation(cfg)) for d in cfg["depths"]],
        "_d{}", ("trace_mean", "eff_rank_mean"), _depth_trend),
    "kn-invariance-activation": (
        "activation", lambda cfg: [(a, network_sizes(cfg), a) for a in cfg["activations"]],
        "_{}", ("trace_mean", "cv_mean"), _activation_groups),
}


def run_kn_invariance(cfg, out_dir):
    """A K_n invariance study: per sweep value, K_n of every seed, its spectra and its spread.

    Each (value, seed) is a row. Per value the study reports the statistics
    its ``_KN_STUDIES`` entry names as ``{statistic}{suffix}``, from seed
    means of trace, frob and eff_rank, the element-wise cv's mean and max
    and the pairwise CKA's mean and min; its cross-value metrics follow.
    """
    column, sweep, suffix, stats, across = _KN_STUDIES[cfg["kind"]]
    seeds = _seeds(cfg)
    points = _grid_of(cfg, int(cfg["network"].get("input_dim", 1)))
    rows, per, means = [], {}, {}
    for value, sizes, activation in sweep(cfg):
        mats = [kernels.assemble_kn(_network(sizes, activation, s), points) for s in seeds]
        spectra = [eig_sym(mat).metrics() for mat in mats]
        rows += [{column: value, "seed": s, "status": "ok", **m} for s, m in zip(seeds, spectra)]
        ens, ckas = ensemble_stats(mats), pairwise_cka(mats)
        means[value] = SymMatrix(ens.mean)
        per[value] = {
            **{f"{c}_mean": _maybe_mean([m[c] for m in spectra]) for c in ("trace", "frob", "eff_rank")},
            "cv_mean": ens.cv_mean, "cv_max": ens.cv_max,
            "cka_mean": float(ckas.mean()), "cka_min": float(ckas.min()),
        }
        if cfg.get("output", {}).get("persist_kernels", False):
            for label, arr in (("mean", ens.mean), ("std", ens.std), ("cv", ens.cv)):
                io.write_matrix_csv(os.path.join(out_dir, "ensemble", f"{column}{value}_{label}.csv"), arr)
        _log(f"  {column}={value}: cv_mean={ens.cv_mean:.4f} cka_mean={ckas.mean():.6f}")
    metrics = {f"{name}{suffix.format(v)}": st[name] for v, st in per.items() for name in stats}
    metrics.update(across(per, means))
    return ExperimentResult(cfg["kind"], rows, [column, "seed", "status", *SPECTRUM_COLS], metrics)


# ---------------------------------------------------------------------------
# Kernel spectrum sweeps


def _spectrum_sweep(cfg, out_dir, which):
    """The rows of a K_t or K_r sweep, in (family, seed) order, and their failures.

    Each seed's network is built once for all families. A K_r sweep takes
    ``kernels.sweep_path``'s path; where that composes (one seed), the
    seed's component kernels are built once for all families.
    """
    seeds = _seeds(cfg)
    problem = pde.benchmark(cfg["benchmark"]) if which == "kr" else None
    pairs = [boundary.make_pair(fam["family"], fam.get("params", {})) for fam in cfg["families"]]
    dim = problem.dim if problem else pairs[0].dim
    grid = _grid_key(cfg, dim)
    points = train.build_grid(*grid)
    sizes = network_sizes(cfg, input_dim=dim)
    activation = _activation(cfg)
    feats = [boundary.features(pair, points).as_dict() for pair in pairs]
    networks = [_network(sizes, activation, seed) for seed in seeds]  # one build per seed
    rows, failures = [], []
    for fam, pair, feat in zip(cfg["families"], pairs, feats):
        for seed, params in zip(seeds, networks):
            row = {**_fam_coords(fam), "seed": seed, "status": "ok",
                   **{c: float("nan") for c in SPECTRUM_COLS}, **feat}
            try:
                if which == "kt":
                    mat = kernels.assemble_kt(params, pair, points, path="composed")
                else:
                    path = kernels.sweep_path(params, len(points), len(seeds))
                    comp = _components(sizes, activation, seed, *grid) if path == "composed" else None
                    mat = kernels.assemble_kr(params, problem, pair, points, path=path, comp=comp)
                row.update(eig_sym(mat).metrics())
                _persist(cfg, out_dir, f"{which}_{_fam_tag(fam)}_s{seed}", mat)
                if which == "kr" and cfg.get("output", {}).get("persist_kernels", False):
                    coeff_path = os.path.join(out_dir, "coefficients", f"{_fam_tag(fam)}.csv")
                    if not os.path.exists(coeff_path):
                        pde.dump_coefficients(problem.op, pair, points, coeff_path)
            except (EigFailure, SingularCoefficient) as exc:
                _fail(row, exc, len(rows), failures)
            rows.append(row)
        _log(f"  {_fam_tag(fam)}: done")
    return rows, failures


def _seed_mean_rows(rows, value_cols):
    """Average metric columns over seeds for each (family, alpha, beta, gamma)."""
    groups = {}
    for r in rows:
        if r["status"] == "ok":
            groups.setdefault((r["family"], r["alpha"], r["beta"], r["gamma"]), []).append(r)
    return [{**grp[0], **{c: _maybe_mean([g[c] for g in grp]) for c in value_cols}} for grp in groups.values()]


def _sweep_metrics(mean_rows):
    """Per-family monotonicity flags and extremes along alpha of seed-mean rows."""
    metrics = {}
    for fam in sorted({r["family"] for r in mean_rows}):
        sub = [r for r in mean_rows if r["family"] == fam and r["alpha"] != ""]
        sub.sort(key=lambda r: float(r["alpha"]))
        if len(sub) >= 2:
            for col in ("eff_rank", "trace", "frob"):
                vals = [r[col] for r in sub]
                metrics[f"{col}_strictly_decreasing_{fam}"] = _strictly_decreasing(vals)
            if sub[-1]["trace"]:
                metrics[f"trace_ratio_extremes_{fam}"] = sub[0]["trace"] / sub[-1]["trace"]
            metrics[f"kappa_max_{fam}"] = float(np.nanmax([r["kappa"] for r in sub]))
            metrics[f"kappa_alpha_min_{fam}"] = sub[0]["kappa"]
    return metrics


def correlate_rows(rows, features, targets):
    """Spearman rho per (feature, target), overall and per family."""
    out = []
    ok_rows = [r for r in rows if r.get("status", "ok") == "ok"]
    scopes = [("all", ok_rows)]
    if any("family" in r for r in ok_rows):
        for value in sorted({r["family"] for r in ok_rows}):
            scopes.append((f"family={value}", [r for r in ok_rows if r["family"] == value]))
    for feat in features:
        for targ in targets:
            for scope, rows_in in scopes:
                xs = [float(r[feat]) for r in rows_in if r.get(feat) not in ("", None)]
                ys = [float(r[targ]) for r in rows_in if r.get(feat) not in ("", None)]
                rho, status = _safe_spearman(xs, ys)
                out.append(
                    {"feature": feat, "target": targ, "scope": scope,
                     "n": len(xs), "rho": rho, "status": status}
                )
    return out


_SWEEP_COLS = ["family", "alpha", "beta", "gamma", "seed", "status",
               *SPECTRUM_COLS, *FEATURE_COLS]
_CORRELATION_COLS = ["feature", "target", "scope", "n", "rho", "status"]

# The (features, targets) each sweep correlates.
_CORRELATE = {
    "kt": (FEATURE_COLS, ("eff_rank", "kappa")),
    "kr": (("b2_max", "curv_l2", "b2_tv"), ("eff_rank", "kappa")),
}


def _run_spectrum(cfg, out_dir, which):
    """A K_t or K_r sweep: rows per (family, seed), correlations over the seed means.

    Every (feature, target, scope) correlation goes to ``correlations.csv``
    and becomes the metric ``spearman_{feature}_{target}`` (scope ``all``)
    or ``spearman_{feature}_{target}_{family}``, with a ``_status`` key when
    it is not ``ok``.
    """
    rows, failures = _spectrum_sweep(cfg, out_dir, which)
    mean_rows = _seed_mean_rows(rows, SPECTRUM_COLS + FEATURE_COLS)
    corr = correlate_rows(mean_rows, *_CORRELATE[which])
    io.write_csv(os.path.join(out_dir, "correlations.csv"), _CORRELATION_COLS,
                 [[c[k] for k in _CORRELATION_COLS] for c in corr])
    metrics = _sweep_metrics(mean_rows)
    for c in corr:
        name = f"spearman_{c['feature']}_{c['target']}"
        if c["scope"] != "all":
            name += "_" + c["scope"].removeprefix("family=")
        metrics[name] = c["rho"]
        if c["status"] != "ok":
            metrics[f"{name}_status"] = c["status"]
    return ExperimentResult(f"{which}-spectrum", rows, _SWEEP_COLS, metrics, failures)


def run_kt_spectrum(cfg, out_dir):
    return _run_spectrum(cfg, out_dir, "kt")


def run_kr_spectrum(cfg, out_dir):
    return _run_spectrum(cfg, out_dir, "kr")


# ---------------------------------------------------------------------------
# Dynamics simulation


def run_dynamics_sim(cfg, out_dir):
    dc = cfg["dynamics"]
    eta = float(dc["eta"])
    t_frac = float(dc.get("t_end_frac", 0.1))
    n_steps = int(dc.get("n_steps", 1000))
    problem = pde.benchmark(cfg["benchmark"])
    fam = cfg["families"][0]
    pair = boundary.make_pair(fam["family"], fam.get("params", {}))
    points = _grid_of(cfg, problem.dim)
    sizes = network_sizes(cfg, input_dim=problem.dim)
    activation = _activation(cfg)
    rows, failures = [], []
    for seed in _seeds(cfg):
        row = {**_fam_coords(fam), "seed": seed, "status": "ok"}
        try:
            params = _network(sizes, activation, seed)
            kr = kernels.assemble_kr(params, problem, pair, points, path="direct")
            fg = train.make_closure(params, pair, problem, points)
            r0 = fg.residuals(params.flatten())
            dec = dynamics.decompose(kr, r0, eta, n_r=len(r0))
            pred = dynamics.predict(dec)
            parseval = abs(float(dec.coeffs @ dec.coeffs) - float(r0 @ r0)) / float(r0 @ r0)
            rate_max = 2.0 * eta * dec.spectrum.lambda_max / dec.n_r
            t_end = t_frac * pred.t_conv if pred.convergent else float("inf")
            dt_stable = 0.5 / rate_max
            if not np.isfinite(t_end) or t_end / n_steps > dt_stable:
                t_end = n_steps * dt_stable  # stability-capped horizon, recorded below
            dt = t_end / n_steps
            times, traj = dynamics.integrate_frozen(kr, r0, eta, dec.n_r, t_end, dt)
            rel_diffs = []
            for k in range(0, len(times), max(1, len(times) // 50)):
                exact_r = dynamics.analytic_residual(dec, times[k])
                rel_diffs.append(
                    float(np.linalg.norm(traj[k] - exact_r)) / max(1e-300, float(np.linalg.norm(exact_r)))
                )
            losses = dynamics.trajectory_loss(traj, dec.n_r)
            # per-mode magnitudes of the leading modes alongside t and loss
            n_modes = min(5, dec.n_r)
            modal = np.abs(traj @ dec.spectrum.eigenvectors[:, :n_modes])
            io.write_csv(
                os.path.join(out_dir, f"trajectory_s{seed}.csv"),
                ["t", "loss"] + [f"mode{k}" for k in range(n_modes)],
                np.column_stack([times, losses, modal]).tolist(),
            )
            row.update(
                {
                    "t_conv": pred.t_conv,
                    "loss_rate": pred.loss_rate,
                    "n_frozen": pred.n_frozen,
                    "convergent": int(pred.convergent),
                    "t_end": t_end,
                    "max_rel_diff": max(rel_diffs),
                    "parseval_rel_err": parseval,
                    "loss_monotone": float(all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))),
                }
            )
        except (EigFailure, SingularCoefficient) as exc:
            _fail(row, exc, len(rows), failures)
        rows.append(row)
    cols = ["family", "alpha", "beta", "gamma", "seed", "status", "t_conv", "loss_rate",
            "n_frozen", "convergent", "t_end", "max_rel_diff", "parseval_rel_err", "loss_monotone"]
    ok = [r for r in rows if r["status"] == "ok"]
    metrics = {
        "max_rel_diff_max": float(np.max([r["max_rel_diff"] for r in ok])) if ok else float("nan"),
        "parseval_max": float(np.max([r["parseval_rel_err"] for r in ok])) if ok else float("nan"),
        "loss_monotone_all": float(all(r["loss_monotone"] for r in ok)) if ok else 0.0,
    }
    return ExperimentResult("dynamics-sim", rows, cols, metrics, failures)


# ---------------------------------------------------------------------------
# Training studies


def _phase(p):
    return train.Phase(p["kind"], int(p["steps"]), *([float(p["lr"])] if "lr" in p else []))


# (section, key, TrainConfig field, conversion) of each key a run takes from
# its config when the config gives it; TrainConfig's defaults stand for the rest.
_TRAIN_KEYS = (
    ("network", "hidden", "hidden", tuple),
    ("network", "activation", "activation", str),
    ("grid", "mode", "grid_mode", str),
    ("train", "phases", "phases", lambda phases: tuple(map(_phase, phases))),
    ("train", "test_points", "test_points", int),
)


def _train_config_from(cfg, fam, seed):
    """One run's ``TrainConfig``, always with the epoch-0 snapshot that fills the ``kr0_*`` columns."""
    given = {field: conv(cfg[sec][key]) for sec, key, field, conv in _TRAIN_KEYS if key in cfg.get(sec, {})}
    snaps = tuple(int(e) for e in cfg.get("train", {}).get("snapshot_epochs", ()))
    return train.TrainConfig(
        benchmark=cfg["benchmark"], family=fam["family"], params=fam.get("params", {}), seed=seed,
        grid_n=int(cfg["grid"]["n_per_axis"]), snapshot_epochs=snaps if 0 in snaps else (0, *snaps), **given,
    )


_KR0_COLS = ("kappa", "eff_rank", "trace", "frob", "lambda_min", "lambda_min_retained")
_TRAIN_COLS = ["family", "alpha", "beta", "gamma", "seed", "status", "final_loss", "final_l2",
               "initial_loss", "epochs_run", "conv_rate", *[f"kr0_{c}" for c in _KR0_COLS],
               *FEATURE_COLS]


def _family_features(cfg):
    """Each family's boundary features on the study's grid, in config order.

    Building every family's pair before the first training makes a bad
    family a config error before any run is spent or recorded.
    """
    points = _grid_of(cfg, pde.benchmark(cfg["benchmark"]).dim)
    pairs = [boundary.make_pair(fam["family"], fam.get("params", {})) for fam in cfg["families"]]
    return [boundary.features(pair, points).as_dict() for pair in pairs]


def _train_row(cfg, fam, feats, seed, index, failures):
    """The result row of one training run, which becomes row ``index``, and its record.

    ``feats`` are the family's boundary features. A run that fails gets its
    status in the row, its cause in ``failures`` and no record.
    """
    row = {**_fam_coords(fam), "seed": seed, "status": "ok",
           **{c: float("nan") for c in _TRAIN_COLS[6:]}, **feats}
    problem = pde.benchmark(cfg["benchmark"])
    tcfg = _train_config_from(cfg, fam, seed)
    try:
        rec = train.run(tcfg)
    except (DivergenceDetected, EigFailure, SingularCoefficient) as exc:
        _fail(row, exc, index, failures)
        return row, None
    row["final_loss"] = rec.final_loss
    row["final_l2"] = rec.final_l2
    row["initial_loss"] = rec.initial_loss
    row["epochs_run"] = int(rec.epochs[-1] + 1) if rec.epochs.size else 0
    snap0 = next((s for s in rec.snapshots if s["epoch"] == 0), None)
    if snap0 is not None:
        for c in _KR0_COLS:
            row[f"kr0_{c}"] = snap0["kr"][c]
        lam_ret = row["kr0_lambda_min_retained"]
        eta0 = tcfg.phases[0].lr
        n_r = len(train.build_grid(problem.dim, tcfg.grid_n, tcfg.grid_mode))
        if np.isfinite(lam_ret) and lam_ret > 0:
            row["conv_rate"] = 4.0 * eta0 * lam_ret / n_r
    return row, rec


def run_train_study(cfg, out_dir):
    rows, failures = [], []
    for fam, feats in zip(cfg["families"], _family_features(cfg)):
        for seed in _seeds(cfg):
            _log(f"  training {_fam_tag(fam)} seed={seed}")
            row, rec = _train_row(cfg, fam, feats, seed, len(rows), failures)
            if rec is not None:
                run_dir = os.path.join(out_dir, "runs")
                train.write_record(rec, run_dir, tag=f"{_fam_tag(fam)}_s{seed}")
            rows.append(row)
    ok = [r for r in rows if r["status"] == "ok"]
    metrics = {"n_ok": len(ok), "n_failed": len(failures)}
    for fam_name in sorted({r["family"] for r in rows}):
        sub = [r for r in ok if r["family"] == fam_name]
        metrics[f"l2_mean_{fam_name}"] = _maybe_mean([r["final_l2"] for r in sub])
        metrics[f"l2_max_{fam_name}"] = (
            float(np.nanmax([r["final_l2"] for r in sub])) if sub else float("nan")
        )
        metrics[f"loss_mean_{fam_name}"] = _maybe_mean([r["final_loss"] for r in sub])
    rho, status = _safe_spearman([r["kr0_eff_rank"] for r in ok], [r["final_l2"] for r in ok])
    metrics["spearman_kr0_eff_rank_final_l2"] = rho
    if status != "ok":
        metrics["spearman_kr0_eff_rank_final_l2_status"] = status
    return ExperimentResult("train-study", rows, _TRAIN_COLS, metrics, failures)


def run_optimizer_compare(cfg, out_dir):
    fam = cfg["families"][0]
    feats = _family_features(cfg)[0]
    seed = _seeds(cfg)[0]
    rows, metrics, failures = [], {}, []
    for strat in cfg["strategies"]:
        name = strat["name"]
        sub = dict(cfg)
        sub["train"] = dict(cfg.get("train", {}))
        sub["train"]["phases"] = strat["phases"]
        row, rec = _train_row(sub, fam, feats, seed, len(rows), failures)
        row = {"strategy": name, **row}
        if rec is not None:
            train.write_record(rec, os.path.join(out_dir, "runs"), tag=name)
            metrics[f"wall_s_{name}"] = rec.total_wall_s
        metrics[f"final_loss_{name}"] = row["final_loss"]
        metrics[f"final_l2_{name}"] = row["final_l2"]
        metrics[f"epochs_{name}"] = row["epochs_run"]
        rows.append(row)
        _log(f"  strategy {name}: loss={row['final_loss']:.3e}")
    cols = ["strategy", *_TRAIN_COLS]
    return ExperimentResult("optimizer-compare", rows, cols, metrics, failures)


# ---------------------------------------------------------------------------
# Dispatch, persistence, report

KIND_RUNNERS = {
    **dict.fromkeys(_KN_STUDIES, run_kn_invariance),
    "kt-spectrum": run_kt_spectrum,
    "kr-spectrum": run_kr_spectrum,
    "dynamics-sim": run_dynamics_sim,
    "train-study": run_train_study,
    "optimizer-compare": run_optimizer_compare,
}


def run_experiment(cfg, out_dir):
    """Run a validated config, writing rows.csv and summary.json into out_dir."""
    kind = cfg["kind"]
    _log(f"running {kind} -> {out_dir}")
    result = KIND_RUNNERS[kind](cfg, out_dir)
    rows_path = os.path.join(out_dir, "rows.csv")
    io.write_csv(
        rows_path,
        result.columns,
        [[row.get(c, "") for c in result.columns] for row in result.rows],
    )
    summary = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": cfg,
        "metrics": result.metrics,
        "n_rows": len(result.rows),
        "n_failures": result.n_failures,
        "failures": result.failures,
        "environment": io.environment(),
    }
    io.write_json(os.path.join(out_dir, "summary.json"), summary)
    return result


def _threshold_pass(op, actual, value):
    if not np.isfinite(actual):
        return False
    return {
        "le": actual <= value,
        "ge": actual >= value,
        "lt": actual < value,
        "gt": actual > value,
        "eq": actual == value,
    }[op]


def report(result_dir, out_dir=None):
    """Consolidate summary.json files under result_dir into one report.

    Each experiment's thresholds (embedded in its config) are evaluated
    against its metrics; mixed schema versions raise SchemaError, and a
    ``result_dir`` that is not a directory FileNotFoundError, before
    anything is written.
    """
    if not os.path.isdir(result_dir):
        raise FileNotFoundError(f"no result directory '{result_dir}'")
    summaries = []
    for root, _, files in os.walk(result_dir):
        if "summary.json" in files:
            summaries.append((os.path.relpath(root, result_dir), io.read_json(os.path.join(root, "summary.json"))))
    summaries.sort(key=lambda kv: kv[0])
    versions = {s.get("schema_version") for _, s in summaries}
    if len(versions) > 1:
        raise SchemaError(f"mixed schema versions in '{result_dir}': {sorted(versions)}")
    experiments = []
    all_pass = True
    total_failures = 0
    for name, summ in summaries:
        checks = []
        for th in summ.get("config", {}).get("thresholds", []) or []:
            actual = summ.get("metrics", {}).get(th["metric"], float("nan"))
            ok = _threshold_pass(th["op"], float(actual) if actual is not None else float("nan"),
                                 float(th["value"]))
            all_pass &= ok
            checks.append({**th, "actual": actual, "pass": ok})
        total_failures += int(summ.get("n_failures", 0))
        experiments.append(
            {
                "name": name,
                "kind": summ.get("kind"),
                "metrics": summ.get("metrics", {}),
                "n_rows": summ.get("n_rows", 0),
                "n_failures": summ.get("n_failures", 0),
                "thresholds": checks,
            }
        )
    consolidated = {
        "schema_version": SCHEMA_VERSION,
        "n_experiments": len(experiments),
        "all_thresholds_pass": bool(all_pass),
        "total_run_failures": total_failures,
        "experiments": experiments,
    }
    if out_dir is not None:
        io.write_json(os.path.join(out_dir, "report.json"), consolidated)
    return consolidated
