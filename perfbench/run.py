#!/usr/bin/env python3
"""Spectral-sweep and training benchmark for hcntk.

Run from the repository root:

    python3 perfbench/run.py --workload kr-sweep-1d --seed 1 --seconds 20 --trace 0

Workloads: kr-sweep-1d, spectra-2d, train-1d (see perfbench/README.md).
One run is one process with at most ``nproc`` BLAS threads. It repeats
whole rounds of the workload's operations while another round still fits
in ``--seconds``, checks the outputs of the first round outside the timed
region, and prints a JSON object as its last line of output:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` one round runs each
operation untraced and traced back to back, and the metrics are the
per-layer ones plus the tracing overhead (traced minus untraced time).
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads():
    """Limit BLAS to the cores this process may use; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= cores:
            os.environ[var] = str(cores)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def probe_setup(wl):
    """Set-up times of fresh interpreters (start, import, problem build, network init)."""
    samples = []
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, wl.benchmark,
           *(str(s) for s in wl.sizes)]
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("kr-sweep-1d", "spectra-2d", "train-1d"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    threads = cap_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "hcntk", "__init__.py")):
        print(f"perfbench: no hcntk sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import numpy as np

    from hcntk import _eigh, net, pde, train

    import checks
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    print(f"# perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# eigensolver backend={_eigh.BACKEND} blas_threads={threads} numpy={np.__version__} "
          f"python={sys.version.split()[0]}")

    setup = [] if args.trace else probe_setup(wl)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    pde.benchmark(wl.benchmark)
    net.init_kaiming_uniform(wl.sizes, "tanh", workloads.NET_SEED)
    if tracer:
        tracer.uninstall()

    rng = np.random.default_rng(args.seed)
    ops = [wl.ops[i] for i in rng.permutation(len(wl.ops))]
    out_root = os.path.join(OUT, wl.name)
    problems = []
    records = []  # (op, status, items, seconds) over every timed operation
    fg_evals = [0]
    first = {}  # op tag -> outcome of the first round, for the determinism check
    captured = []  # (op, kernel, program eigenvalues) of the first round
    cap = checks.Capture()
    counter = spans.Patches()
    make_closure = train.make_closure

    def counting_make_closure(*a, **kw):
        fg = make_closure(*a, **kw)

        def counted(theta):
            fg_evals[0] += 1
            return fg(theta)

        counted.residuals = fg.residuals
        return counted

    def check_first(op, outcome):
        if wl.is_sweep:
            problems.extend(checks.check_spectrum(op, outcome, cap,
                                                  os.path.join(out_root, op.tag, "rows.csv")))
            if cap.matrix is not None:
                lam = cap.report.eigenvalues if outcome.status == "ok" else None
                captured.append((op, cap.matrix.a, lam))
        else:
            problems.extend(checks.check_training(wl, op, outcome, workloads.train_config(wl, op), rng))

    def check_repeat(op, outcome):
        ref = first[op.tag]
        if wl.is_sweep:
            same = all(checks.same_value(outcome.result.rows[0][c], ref.result.rows[0][c])
                       for c in ref.result.columns)
        else:
            same = outcome.status == ref.status and (
                outcome.result is None or outcome.result.final_loss == ref.result.final_loss)
        if not same:
            problems.append(f"{op.tag}: result differs from the first round")

    def run_one(k, op, traced):
        check = not traced and op.tag not in first
        if check and wl.is_sweep:
            cap.reset()
            cap.install()
        if traced:
            tracer.op = k
            tracer.install()
        elif not wl.is_sweep:
            counter.set(train, "make_closure", counting_make_closure)
        t0 = time.perf_counter()
        outcome = workloads.run_op(wl, op, out_root)
        dt = time.perf_counter() - t0
        counter.restore()
        cap.uninstall()
        if traced:
            tracer.uninstall()
            return dt
        records.append((op, outcome.status, outcome.items, dt))
        if check:
            check_first(op, outcome)
            first[op.tag] = outcome
        else:
            check_repeat(op, outcome)
        return dt

    # A traced run times each operation untraced and traced back to back,
    # alternating which goes first, so that drift in host speed and any
    # second-run advantage fall on both sides of the overhead.
    untraced_s = traced_s = 0.0
    for k, op in enumerate(ops):
        if tracer and k % 2:
            traced_s += run_one(k, op, traced=True)
        untraced_s += run_one(k, op, traced=False)
        if tracer and not k % 2:
            traced_s += run_one(k, op, traced=True)
    rounds = 1
    measured = untraced_s
    while not tracer and measured + untraced_s <= args.seconds:
        measured += sum(run_one(k, op, traced=False) for k, op in enumerate(ops))
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if wl.is_sweep:
        problems.extend(checks.check_composition(wl, captured))

    attempted = len(records)
    failed_ops = [(op.tag, status) for op, status, _, _ in records if status != "ok"]
    ok_s = [dt for _, status, _, dt in records if status == "ok"]
    timed_s = sum(dt for *_, dt in records)
    items = sum(n for _, _, n, _ in records)
    print(f"# rounds={rounds} attempted={attempted} failed={len(failed_ops)} "
          f"failures={sorted(set(failed_ops))}")

    if tracer:
        per_layer = tracer.per_layer(traced_s - untraced_s)
        trace_path = os.path.join(out_root, f"trace-seed{args.seed}.csv")
        tracer.write(trace_path)
        print(f"# traced round {traced_s:.4f} s, untraced round {untraced_s:.4f} s, "
              f"{len(tracer.spans)} spans -> {os.path.relpath(trace_path, ROOT)}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in per_layer.items()}
    else:
        rate_name, p50_name = (("spectra_per_s", "spectrum_s_p50") if wl.is_sweep
                               else ("train_epochs_per_s", "train_run_s_p50"))
        print(f"# {rate_name} {items / timed_s:.6g} 1/s over {timed_s:.3f} s timed")
        print(f"# {p50_name} {statistics.median(ok_s):.6g} s (n={len(ok_s)})")
        if not wl.is_sweep:
            print(f"# fg_evals_per_s {fg_evals[0] / timed_s:.6g} 1/s ({fg_evals[0]} closure calls)")
        print(f"# setup_s {statistics.median(setup):.6g} s (n={len(setup)}) peak_rss_mb {peak_rss_mb:.1f} MB")
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "items_per_s": {"value": items / timed_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for p in problems:
        print(f"# CHECK FAILED {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": len(failed_ops),
              "metrics": metrics}
    os.makedirs(out_root, exist_ok=True)
    with open(os.path.join(out_root, f"result-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "setup_samples_s": setup,
                   "ops": [(op.tag, st, n, dt) for op, st, n, dt in records]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
