#!/usr/bin/env python3
"""Time tangent-kernel assembly layer by layer and check it against explicit Jacobian Grams.

Times ``assemble_kn``, ``assemble_kt`` (direct path) and ``assemble_kr``
(direct and composed paths) at three sizes: the paper's 1D reference point
(2x500 tanh, 98 points), the 2D desk size (2x64 tanh, 484 points) and the
3D desk size (2x64 tanh, 1000 points). For each assembly it prints the
best time of ``--repeats``, the minor page faults per assembly
(``getrusage``) and, per layer of ``net.factored_grams``, which
contraction the layer took (``factored`` sum of Hadamard products, or
``phi``, the per-point gradients contracted in one product) with the
layer's best time. A factored layer's time is its whole contraction; a
Phi layer's is forming its block of Phi, whose product with the other
Phi blocks is in the ``rest`` line (with the reverse pass and the
symmetric completion). Each kernel is compared with the Gram of rows
built from the materialized ``net.param_jacobians`` (at most about 0.8 GB,
at the 1D reference size).

Usage: python benchmarks/bench_kernels.py [--repeats 3]
"""

import argparse
import resource
import time

import numpy as np

from hcntk import boundary, kernels, net, pde, train

# (label, benchmark, boundary family, hidden widths, grid points per axis)
CASES = (
    ("1d reference", "poisson1d_sin", ("power", {"alpha": 1.0}), (500, 500), 100),
    ("2d desk", "diffusion2d", ("tanh2d", {"alpha": 3.0}), (64, 64), 24),
    ("3d desk", "diffusion3d", ("tanh3d", {"alpha": 3.0}), (64, 64), 12),
)


class LayerClock:
    """Times the per-layer steps of ``net.factored_grams`` while installed.

    ``factored_grams`` makes exactly one per-layer call for each layer,
    from the last layer to the first, so the k-th call of an assembly
    belongs to layer L - k.
    """

    STEPS = (("_accumulate_layer_grams", "factored"), ("_write_layer_gradients", "phi"))

    def __init__(self):
        self.calls = []  # (contraction, seconds) of the current assembly
        self.saved = {}

    def _timed(self, fn, kind):
        def wrapper(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            self.calls.append((kind, time.perf_counter() - t0))
            return out
        return wrapper

    def install(self):
        for name, kind in self.STEPS:
            self.saved[name] = getattr(net, name)
            setattr(net, name, self._timed(self.saved[name], kind))
        orig_fg = self.saved["factored_grams"] = net.factored_grams

        def factored_grams(*args, **kwargs):
            t0 = time.perf_counter()
            out = orig_fg(*args, **kwargs)
            self.calls.append(("total", time.perf_counter() - t0))
            return out

        net.factored_grams = factored_grams

    def uninstall(self):
        for name, fn in self.saved.items():
            setattr(net, name, fn)


def measure(fn, repeats, clock):
    """Best time, minor faults per call and per-layer rows of ``fn`` over ``repeats`` calls."""
    out = fn()  # warm-up: BLAS thread start and first-touch allocations
    best, faults, runs = float("inf"), 0, []
    for _ in range(repeats):
        clock.calls = []
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        runs.append(clock.calls)
    return best, faults / repeats, runs, out


def layer_rows(runs, params):
    """(layer label, contraction, best seconds) per layer, plus the rest of ``factored_grams``.

    Each run holds the calls of one assembly, one group per
    ``factored_grams`` call (the composed ``K_r`` makes one); layers of
    later groups are labelled by their group.
    """
    rows = {}
    n_layers = params.n_layers
    for calls in runs:
        group, k, layer_s = 0, 0, 0.0
        for kind, dt in calls:
            if kind == "total":
                key = ("rest", "", group)
                rows[key] = min(rows.get(key, float("inf")), dt - layer_s)
                group, k, layer_s = group + 1, 0, 0.0
                continue
            l = n_layers - k
            n_l, n_prev = params.weights[l - 1].shape
            key = (f"layer {l} ({n_l}x{n_prev})", kind, group)
            rows[key] = min(rows.get(key, float("inf")), dt)
            k, layer_s = k + 1, layer_s + dt
    return [(label + (f" #{g + 1}" if g else ""), kind, s) for (label, kind, g), s in rows.items()]


def explicit_grams(params, problem, pair, points):
    """K_n, K_t and K_r from the materialized parameter Jacobians (the oracle)."""
    j0, j1, j2 = net.param_jacobians(params, points, order=2)
    cf = pde.coefficients(problem.op, pair, points)
    rows = cf.alpha[:, None] * j0
    for m in range(points.shape[1]):
        rows += cf.beta[:, m, None] * j1[:, m, :]
    rows += cf.gamma[:, None] * j2
    kr = rows @ rows.T
    kn = j0 @ j0.T
    rows = pair.value(points)[:, None] * j0
    return kn, rows @ rows.T, kr


def rel(a, ref):
    return np.linalg.norm(a - ref) / np.linalg.norm(ref)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    print("times are best of --repeats; faults are minor page faults per assembly; "
          "rel = relative Frobenius difference to the param_jacobians Gram")
    clock = LayerClock()
    clock.install()
    try:
        for label, bench, (family, fparams), hidden, n_axis in CASES:
            problem = pde.benchmark(bench)
            pair = boundary.make_pair(family, fparams)
            points = train.build_grid(problem.dim, n_axis, "trimmed")
            params = net.init_kaiming_uniform((problem.dim, *hidden, 1), "tanh", 0)
            print(f"\n{label}: N={points.shape[0]} P={params.param_count()}")
            assemblies = (
                ("Kn", lambda: kernels.assemble_kn(params, points).a),
                ("Kt direct", lambda: kernels.assemble_kt(params, pair, points, path="direct").a),
                ("Kr direct", lambda: kernels.assemble_kr(params, problem, pair, points, path="direct").a),
                ("Kr composed", lambda: kernels.assemble_kr(params, problem, pair, points, path="composed").a),
            )
            results = {}
            for name, fn in assemblies:
                best, faults, runs, results[name] = measure(fn, args.repeats, clock)
                print(f"  {name:<12} {best * 1e3:9.2f} ms {faults:9.0f} faults")
                for layer, kind, s in layer_rows(runs, params):
                    print(f"    {layer:<22} {kind:<9} {s * 1e3:9.2f} ms")
            kn_ref, kt_ref, kr_ref = explicit_grams(params, problem, pair, points)
            refs = {"Kn": kn_ref, "Kt direct": kt_ref, "Kr direct": kr_ref, "Kr composed": kr_ref}
            print("  rel " + "  ".join(f"{name} {rel(results[name], refs[name]):.1e}" for name in refs))
    finally:
        clock.uninstall()


if __name__ == "__main__":
    main()
