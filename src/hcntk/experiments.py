"""Experiment kinds: spectral and training studies driven by declarative configs.

Every sweep point becomes one result row; failed points become rows with a
non-ok status instead of silent omissions or crashes, and the summary JSON
lists the cause of each (``failures``). Result tables carry no wall-clock
columns so re-running a config byte-reproduces them; timing lives in the
summary JSON.
"""

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
    extra_files: list = field(default_factory=list)

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


def _verbose():
    try:
        return int(os.environ.get("HCNTK_VERBOSE", "0"))
    except ValueError:
        return 0


def _log(msg, level=1):
    if _verbose() >= level:
        print(msg, flush=True)


def _grid_of(cfg, dim):
    gc = cfg["grid"]
    return train.build_grid(dim, int(gc["n_per_axis"]), gc.get("mode", "trimmed"))


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
        path = os.path.join(out_dir, "kernels", f"{name}.csv")
        io.write_matrix_csv(path, matrix.a)
        return [path]
    return []


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


# ---------------------------------------------------------------------------
# K_n invariance studies


def _kn_matrices(sizes, activation, seeds, points):
    return [kernels.assemble_kn(net.init_kaiming_uniform(sizes, activation, s), points) for s in seeds]


def _kn_group_rows(cfg, out_dir, sweep_name, sweep_values, sizes_for):
    """Shared engine of the four invariance studies: per sweep value, an
    ensemble of K_n over seeds with spectra, element-wise stats, and CKA."""
    seeds = _seeds(cfg)
    activation_for = lambda v: (v if sweep_name == "activation" else cfg["network"].get("activation", "tanh"))
    dim = int(cfg["network"].get("input_dim", 1))
    points = _grid_of(cfg, dim)
    rows, mean_mats, group_stats = [], {}, {}
    extra = []
    for value in sweep_values:
        sizes = sizes_for(value)
        act = activation_for(value)
        mats = _kn_matrices(sizes, act, seeds, points)
        for seed, mat in zip(seeds, mats):
            row = {sweep_name: value, "seed": seed, "status": "ok", **eig_sym(mat).metrics()}
            rows.append(row)
        stats = ensemble_stats(mats)
        ckas = pairwise_cka(mats) if len(mats) > 1 else np.array([1.0])
        mean_mats[value] = SymMatrix(stats.mean)
        group_stats[value] = {
            "cv_mean": stats.cv_mean,
            "cv_max": stats.cv_max,
            "cka_mean": float(ckas.mean()),
            "cka_min": float(ckas.min()),
        }
        tag = f"{sweep_name}{value}"
        if cfg.get("output", {}).get("persist_kernels", False):
            for label, arr in (("mean", stats.mean), ("std", stats.std), ("cv", stats.cv)):
                path = os.path.join(out_dir, "ensemble", f"{tag}_{label}.csv")
                io.write_matrix_csv(path, arr)
                extra.append(path)
        _log(f"  {sweep_name}={value}: cv_mean={stats.cv_mean:.4f} cka_mean={ckas.mean():.6f}")
    return rows, mean_mats, group_stats, extra


def run_kn_invariance_seed(cfg, out_dir):
    sizes = network_sizes(cfg)
    rows, _, stats, extra = _kn_group_rows(cfg, out_dir, "width", [sizes[1]], lambda v: sizes)
    st = stats[sizes[1]]
    metrics = {
        "cka_mean": st["cka_mean"],
        "cka_min": st["cka_min"],
        "cv_mean": st["cv_mean"],
        "cv_max": st["cv_max"],
        "trace_mean": _maybe_mean([r["trace"] for r in rows]),
        "frob_mean": _maybe_mean([r["frob"] for r in rows]),
        "eff_rank_mean": _maybe_mean([r["eff_rank"] for r in rows]),
    }
    cols = ["width", "seed", "status", *SPECTRUM_COLS]
    return ExperimentResult("kn-invariance-seed", rows, cols, metrics, extra_files=extra)


def run_kn_invariance_width(cfg, out_dir):
    widths = [int(w) for w in cfg["widths"]]
    rows, means, stats, extra = _kn_group_rows(
        cfg, out_dir, "width", widths, lambda w: network_sizes(cfg, width=w)
    )
    metrics = {}
    for w in widths:
        metrics[f"cv_mean_w{w}"] = stats[w]["cv_mean"]
        metrics[f"cka_mean_w{w}"] = stats[w]["cka_mean"]
        metrics[f"trace_mean_w{w}"] = _maybe_mean([r["trace"] for r in rows if r["width"] == w])
    cvs = [stats[w]["cv_mean"] for w in widths]
    metrics["cv_strictly_decreasing"] = float(all(a > b for a, b in zip(cvs, cvs[1:])))
    metrics["cka_meanmat_min_max_width"] = cka(means[widths[0]], means[widths[-1]])
    cols = ["width", "seed", "status", *SPECTRUM_COLS]
    return ExperimentResult("kn-invariance-width", rows, cols, metrics, extra_files=extra)


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


def run_kn_invariance_depth(cfg, out_dir):
    depths = [int(d) for d in cfg["depths"]]
    rows, means, stats, extra = _kn_group_rows(
        cfg, out_dir, "depth", depths, lambda d: network_sizes(cfg, depth=d)
    )
    metrics = {}
    traces, effs = [], []
    for d in depths:
        tr = _maybe_mean([r["trace"] for r in rows if r["depth"] == d])
        ef = _maybe_mean([r["eff_rank"] for r in rows if r["depth"] == d])
        metrics[f"trace_mean_d{d}"] = tr
        metrics[f"eff_rank_mean_d{d}"] = ef
        traces.append(tr)
        effs.append(ef)
    metrics["trace_strictly_decreasing"] = float(all(a > b for a, b in zip(traces, traces[1:])))
    metrics["eff_rank_decreasing"] = float(eff_rank_decreasing(effs))
    metrics["trace_ratio_first_last"] = traces[0] / traces[-1] if traces[-1] else float("inf")
    metrics["cka_meanmat_min_max_depth"] = cka(means[depths[0]], means[depths[-1]])
    cols = ["depth", "seed", "status", *SPECTRUM_COLS]
    return ExperimentResult("kn-invariance-depth", rows, cols, metrics, extra_files=extra)


def run_kn_invariance_activation(cfg, out_dir):
    acts = list(cfg["activations"])
    rows, means, stats, extra = _kn_group_rows(
        cfg, out_dir, "activation", acts, lambda a: network_sizes(cfg)
    )
    metrics = {}
    for a in acts:
        metrics[f"trace_mean_{a}"] = _maybe_mean([r["trace"] for r in rows if r["activation"] == a])
        metrics[f"cv_mean_{a}"] = stats[a]["cv_mean"]
    smooth = [a for a in acts if a in net.SMOOTH_ACTIVATIONS]
    nonsmooth = [a for a in acts if a in net.NONSMOOTH_ACTIVATIONS]
    if smooth:
        metrics["cv_mean_smooth"] = float(np.mean([stats[a]["cv_mean"] for a in smooth]))
    if nonsmooth:
        metrics["cv_mean_nonsmooth"] = float(np.mean([stats[a]["cv_mean"] for a in nonsmooth]))
    within, cross = [], []
    for i, a in enumerate(acts):
        for b in acts[i + 1 :]:
            val = cka(means[a], means[b])
            same = (a in smooth and b in smooth) or (a in nonsmooth and b in nonsmooth)
            (within if same else cross).append(val)
    if within:
        metrics["within_group_cka_min"] = float(min(within))
    if cross:
        metrics["cross_group_cka_max"] = float(max(cross))
    cols = ["activation", "seed", "status", *SPECTRUM_COLS]
    return ExperimentResult("kn-invariance-activation", rows, cols, metrics, extra_files=extra)


# ---------------------------------------------------------------------------
# Kernel spectrum sweeps


def _spectrum_sweep(cfg, out_dir, which):
    seeds = _seeds(cfg)
    problem = pde.benchmark(cfg["benchmark"]) if which == "kr" else None
    pairs = [boundary.make_pair(fam["family"], fam.get("params", {})) for fam in cfg["families"]]
    dim = problem.dim if problem else pairs[0].dim
    points = _grid_of(cfg, dim)
    sizes = network_sizes(cfg, input_dim=dim)
    activation = cfg["network"].get("activation", "tanh")
    rows, extra, failures = [], [], []
    for fam, pair in zip(cfg["families"], pairs):
        feats = boundary.features(pair, points).as_dict()
        for seed in seeds:
            coords = _fam_coords(fam)
            coords["seed"] = seed
            row = {**coords, "status": "ok", **{c: float("nan") for c in SPECTRUM_COLS}, **feats}
            try:
                params = net.init_kaiming_uniform(sizes, activation, seed)
                if which == "kt":
                    mat = kernels.assemble_kt(params, pair, points, path="composed")
                else:
                    mat = kernels.assemble_kr(params, problem, pair, points, path="direct")
                row.update(eig_sym(mat).metrics())
                extra += _persist(cfg, out_dir, f"{which}_{_fam_tag(fam)}_s{seed}", mat)
                if which == "kr" and cfg.get("output", {}).get("persist_kernels", False):
                    coeff_path = os.path.join(out_dir, "coefficients", f"{_fam_tag(fam)}.csv")
                    if not os.path.exists(coeff_path):
                        pde.dump_coefficients(problem.op, pair, points, coeff_path)
                        extra.append(coeff_path)
            except (EigFailure, SingularCoefficient) as exc:
                _fail(row, exc, len(rows), failures)
            rows.append(row)
        _log(f"  {_fam_tag(fam)}: done")
    return rows, extra, failures


def _seed_mean_rows(rows, value_cols):
    """Average metric columns over seeds for each (family, alpha, beta, gamma)."""
    groups = {}
    order = []
    for r in rows:
        if r["status"] != "ok":
            continue
        key = (r["family"], r["alpha"], r["beta"], r["gamma"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(r)
    out = []
    for key in order:
        grp = groups[key]
        mean_row = dict(grp[0])
        for c in value_cols:
            mean_row[c] = _maybe_mean([g[c] for g in grp])
        out.append(mean_row)
    return out


def _sweep_metrics(mean_rows):
    """Per-family monotonicity flags and extremes along alpha of seed-mean rows."""
    metrics = {}
    for fam in sorted({r["family"] for r in mean_rows}):
        sub = [r for r in mean_rows if r["family"] == fam and r["alpha"] != ""]
        sub.sort(key=lambda r: float(r["alpha"]))
        if len(sub) >= 2:
            for col in ("eff_rank", "trace", "frob"):
                vals = [r[col] for r in sub]
                metrics[f"{col}_strictly_decreasing_{fam}"] = float(
                    all(a > b for a, b in zip(vals, vals[1:]))
                )
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
    rows, extra, failures = _spectrum_sweep(cfg, out_dir, which)
    mean_rows = _seed_mean_rows(rows, SPECTRUM_COLS + FEATURE_COLS)
    corr = correlate_rows(mean_rows, *_CORRELATE[which])
    corr_path = os.path.join(out_dir, "correlations.csv")
    io.write_csv(corr_path, _CORRELATION_COLS, [[c[k] for k in _CORRELATION_COLS] for c in corr])
    metrics = _sweep_metrics(mean_rows)
    for c in corr:
        name = f"spearman_{c['feature']}_{c['target']}"
        if c["scope"] != "all":
            name += "_" + c["scope"].removeprefix("family=")
        metrics[name] = c["rho"]
        if c["status"] != "ok":
            metrics[f"{name}_status"] = c["status"]
    return ExperimentResult(f"{which}-spectrum", rows, _SWEEP_COLS, metrics, failures,
                            extra + [corr_path])


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
    activation = cfg["network"].get("activation", "tanh")
    rows, extra, failures = [], [], []
    for seed in _seeds(cfg):
        row = {**_fam_coords(fam), "seed": seed, "status": "ok"}
        try:
            params = net.init_kaiming_uniform(sizes, activation, seed)
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
            traj_path = os.path.join(out_dir, f"trajectory_s{seed}.csv")
            io.write_csv(
                traj_path,
                ["t", "loss"] + [f"mode{k}" for k in range(n_modes)],
                np.column_stack([times, losses, modal]).tolist(),
            )
            extra.append(traj_path)
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
    return ExperimentResult("dynamics-sim", rows, cols, metrics, failures, extra)


# ---------------------------------------------------------------------------
# Training studies


def _train_config_from(cfg, fam, seed):
    tc = cfg.get("train", {})
    phases = tuple(
        train.Phase(p["kind"], int(p["steps"]), float(p.get("lr", 1e-3)))
        for p in tc.get("phases", [{"kind": "adam", "steps": 10000, "lr": 1e-3},
                                   {"kind": "lbfgs", "steps": 500}])
    )
    snaps = tuple(int(e) for e in tc.get("snapshot_epochs", [0]))
    if 0 not in snaps:
        snaps = (0, *snaps)
    hidden = tuple(int(h) for h in cfg["network"].get("hidden", [500, 500]))
    return train.TrainConfig(
        benchmark=cfg["benchmark"],
        family=fam["family"],
        params=fam.get("params", {}),
        hidden=hidden,
        activation=cfg["network"].get("activation", "tanh"),
        seed=seed,
        phases=phases,
        grid_n=int(cfg["grid"]["n_per_axis"]),
        grid_mode=cfg["grid"].get("mode", "trimmed"),
        snapshot_epochs=snaps,
        test_points=int(tc.get("test_points", 1000)),
        divergence_factor=float(tc.get("divergence_factor", 1e6)),
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
    rows = []
    metrics = {}
    failures = []
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
    "kn-invariance-seed": run_kn_invariance_seed,
    "kn-invariance-width": run_kn_invariance_width,
    "kn-invariance-depth": run_kn_invariance_depth,
    "kn-invariance-activation": run_kn_invariance_activation,
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
    os.makedirs(out_dir, exist_ok=True)
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
    against its metrics; mixed schema versions raise SchemaError.
    """
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
