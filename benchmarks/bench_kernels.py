#!/usr/bin/env python3
"""Time tangent-kernel assembly layer by layer and check it against explicit Jacobian Grams.

Times ``assemble_kn``, ``assemble_kt`` and ``assemble_kr`` (each by its
direct and composed paths) at three sizes: the paper's 1D reference point
(2x500 tanh, 98 points), the 2D desk size (2x64 tanh, 484 points) and the
3D desk size (2x64 tanh, 1000 points). The composed ``K_r`` is timed as a
sweep takes it, from component kernels built beforehand, so its line is
the per-family compose; the ``components`` line is their one-time build
(``component_kernels``), with its ``tracemalloc`` peak in the ``build
peak`` line, and the ``sweep path`` line says which path
``kernels.sweep_path`` picks at that size. For each assembly it prints the
time and minor page faults (``getrusage``) of its first, cold call, which
starts from an empty assembly workspace, and the best time of
``--repeats`` warm calls with their faults per call. Per layer of
``net.factored_grams`` it prints, over the warm calls, which
contraction the layer took (``factored`` sum of Hadamard products, or
``phi``, the per-point gradients contracted in one product) with the
layer's best time. A factored layer's time is its whole contraction; a
Phi layer's is forming its block of Phi, whose product with the other
Phi blocks is in the ``rest`` line (with the reverse pass and the
symmetric completion). Each kernel is compared with the Gram of rows
built from the materialized ``net.param_jacobians`` (at most about 0.8 GB,
at the 1D reference size). The ``workspace`` lines give what the assembly
workspace retains after the component build alone and after every
assembly of a size, and the ``warm peak`` line the ``tracemalloc`` peaks
of one warm composed ``K_t`` (the path ``kt-spectrum`` sweeps take) and
one warm composed ``K_r`` (from the built components) next to the size of
the Gram each returns. One untimed component build at the first size
runs before any measurement, so that no cold column absorbs the start-up
of the BLAS threads.

Each case's direct ``K_r`` is then decomposed by ``linalg.eig_sym``, timed
values only (what sweeps and training snapshots pay) and with the report's
eigenvectors read (what the frozen-kernel dynamics pay). The ``pairing``
line gives the largest difference between ``eig_sym``'s eigenvalues and
those of ``numpy.linalg.eigh``, relative to ``lambda_max``, and the
relative Frobenius error of ``V diag(eigenvalues) V^T`` against ``K_r``.

Usage: python benchmarks/bench_kernels.py [--repeats 3]
"""

import argparse
import resource
import time
import tracemalloc

import numpy as np

from hcntk import boundary, kernels, linalg, net, pde, train

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


def timed_call(fn):
    """``fn()``'s result, seconds and minor page faults."""
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    return out, dt, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0


def measure(fn, repeats, clock):
    """``fn``'s cold call and its ``repeats`` warm calls.

    Returns ``(cold_s, cold_faults)`` of the first call, ``(best_s,
    faults_per_call)`` of the warm calls, their per-layer rows and the
    last result.
    """
    clock.calls = []
    out, cold_s, cold_faults = timed_call(fn)
    best, faults, runs = float("inf"), 0, []
    for _ in range(repeats):
        clock.calls = []
        out, dt, df = timed_call(fn)
        best, faults = min(best, dt), faults + df
        runs.append(clock.calls)
    return (cold_s, cold_faults), (best, faults / repeats), runs, out


def traced_peak(fn):
    """The ``tracemalloc`` peak of one call of ``fn`` in MiB, and its result."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, out


def warm_peak(fn):
    """The ``tracemalloc`` peak of one warm call of ``fn`` and the size of its result, in MiB."""
    fn()
    peak, out = traced_peak(fn)
    return peak, out.nbytes / 2**20


def workspace_mib():
    return sum(a.nbytes for a in kernels._ws.values()) / 2**20


def report(name, cold, warm):
    print(f"  {name:<17} cold {cold[0] * 1e3:9.2f} ms {cold[1]:7.0f} faults"
          f"   warm {warm[0] * 1e3:9.2f} ms {warm[1]:7.0f} faults")


def layer_rows(runs, params):
    """(layer label, contraction, best seconds) per layer, plus the rest of ``factored_grams``.

    Each run holds the calls of one assembly, which makes at most one
    ``factored_grams`` call.
    """
    rows = {}
    n_layers = params.n_layers
    for calls in runs:
        k, layer_s = 0, 0.0
        for kind, dt in calls:
            if kind == "total":
                rows["rest", ""] = min(rows.get(("rest", ""), float("inf")), dt - layer_s)
                continue
            l = n_layers - k
            n_l, n_prev = params.weights[l - 1].shape
            key = (f"layer {l} ({n_l}x{n_prev})", kind)
            rows[key] = min(rows.get(key, float("inf")), dt)
            k, layer_s = k + 1, layer_s + dt
    return [(label, kind, s) for (label, kind), s in rows.items()]


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

    print("cold = first call, warm = best of --repeats more; faults are minor page faults "
          "per call; rel = relative Frobenius difference to the param_jacobians Gram")
    clock = LayerClock()
    clock.install()
    try:
        _, bench, _, hidden, n_axis = CASES[0]
        dim = pde.benchmark(bench).dim
        kernels.component_kernels(net.init_kaiming_uniform((dim, *hidden, 1), "tanh", 0),
                                  train.build_grid(dim, n_axis, "trimmed"))  # BLAS start-up, untimed
        for label, bench, (family, fparams), hidden, n_axis in CASES:
            problem = pde.benchmark(bench)
            pair = boundary.make_pair(family, fparams)
            points = train.build_grid(problem.dim, n_axis, "trimmed")
            params = net.init_kaiming_uniform((problem.dim, *hidden, 1), "tanh", 0)
            n, d = points.shape
            print(f"\n{label}: N={n} P={params.param_count()}")
            print(f"  sweep path {kernels.sweep_path(params, n)}: component stack "
                  f"{len(kernels.output_pairs(d)) * n * n} floats against {params.param_count()} parameters")
            kernels._ws.clear()
            build = lambda: kernels.component_kernels(params, points)
            cold, warm, _, _ = measure(build, args.repeats, clock)
            report("components", cold, warm)
            peak, comp = traced_peak(build)
            stack = sum(a.nbytes for a in comp.values()) / 2**20
            print(f"  build peak {peak:.2f} MiB, the components {stack:.2f} MiB; "
                  f"workspace {workspace_mib():.2f} MiB after the build")
            assemblies = (
                ("Kn", lambda: kernels.assemble_kn(params, points).a),
                ("Kt direct", lambda: kernels.assemble_kt(params, pair, points, path="direct").a),
                ("Kt composed", lambda: kernels.assemble_kt(params, pair, points, path="composed").a),
                ("Kr direct", lambda: kernels.assemble_kr(params, problem, pair, points, path="direct").a),
                ("Kr composed", lambda: kernels.assemble_kr(params, problem, pair, points, path="composed",
                                                            comp=comp).a),
            )
            results = {}
            for name, fn in assemblies:
                kernels._ws.clear()  # each assembly's cold call starts from an empty workspace
                cold, warm, runs, results[name] = measure(fn, args.repeats, clock)
                report(name, cold, warm)
                for layer, kind, s in layer_rows(runs, params):
                    print(f"    {layer:<22} {kind:<9} {s * 1e3:9.2f} ms")
            for name, fn in assemblies:
                fn()
            print(f"  workspace {workspace_mib():.2f} MiB in {len(kernels._ws)} arrays after all five assemblies")
            peaks = {name: warm_peak(dict(assemblies)[name]) for name in ("Kt composed", "Kr composed")}
            print("  warm peak " + ", ".join(f"{name} {peak:.2f} MiB" for name, (peak, _) in peaks.items())
                  + f"; a Gram {peaks['Kr composed'][1]:.2f} MiB")
            kn_ref, kt_ref, kr_ref = explicit_grams(params, problem, pair, points)
            refs = {"Kn": kn_ref, "Kt direct": kt_ref, "Kt composed": kt_ref,
                    "Kr direct": kr_ref, "Kr composed": kr_ref}
            print("  rel " + "  ".join(f"{name} {rel(results[name], refs[name]):.1e}" for name in refs))
            kr = linalg.SymMatrix(results["Kr direct"])
            for name, fn in (("values", lambda: linalg.eig_sym(kr)),
                             ("vectors", lambda: linalg.eig_sym(kr).eigenvectors)):
                cold, warm, _, _ = measure(fn, args.repeats, clock)
                report(f"eig_sym Kr {name}", cold, warm)
            rep = linalg.eig_sym(kr)
            lam_eigh = np.linalg.eigh(kr.a)[0][::-1]
            recon = (rep.eigenvectors * rep.eigenvalues) @ rep.eigenvectors.T
            print(f"  pairing {np.abs(rep.eigenvalues - lam_eigh).max() / rep.lambda_max:.1e} lambda_max"
                  f"  reconstruction {rel(recon, kr.a):.1e}")
    finally:
        clock.uninstall()


if __name__ == "__main__":
    main()
