#!/usr/bin/env python3
"""Time tangent-kernel assembly and check it against explicit Jacobian Grams.

Times ``assemble_kr`` (direct and composed paths) and ``assemble_kt``
(direct path) at three sizes: the paper's 1D reference point (2x500 tanh,
98 points), the 2D desk size (2x64 tanh, 484 points) and the 3D desk size
(2x64 tanh, 1000 points). Each kernel is compared with the Gram of rows
built from the materialized ``net.param_jacobians`` (at most about 0.8 GB,
at the 1D reference size).

Usage: python benchmarks/bench_kernels.py [--repeats 3]
"""

import argparse
import time

import numpy as np

from hcntk import boundary, kernels, net, pde, train

# (label, benchmark, boundary family, hidden widths, grid points per axis)
CASES = (
    ("1d reference", "poisson1d_sin", ("power", {"alpha": 1.0}), (500, 500), 100),
    ("2d desk", "diffusion2d", ("tanh2d", {"alpha": 3.0}), (64, 64), 24),
    ("3d desk", "diffusion3d", ("tanh3d", {"alpha": 3.0}), (64, 64), 12),
)


def best_time(fn, repeats):
    out = fn()  # warm-up: BLAS thread start and first-touch allocations
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def explicit_grams(params, problem, pair, points):
    """K_r and K_t from the materialized parameter Jacobians (the oracle)."""
    j0, j1, j2 = net.param_jacobians(params, points, order=2)
    cf = pde.coefficients(problem.op, pair, points)
    rows = cf.alpha[:, None] * j0
    for m in range(points.shape[1]):
        rows += cf.beta[:, m, None] * j1[:, m, :]
    rows += cf.gamma[:, None] * j2
    kr = rows @ rows.T
    rows = pair.value(points)[:, None] * j0
    return kr, rows @ rows.T


def rel(a, ref):
    return np.linalg.norm(a - ref) / np.linalg.norm(ref)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    header = (f"{'case':>13} {'N':>5} {'P':>7} {'Kr direct':>10} {'Kr composed':>12} "
              f"{'Kt direct':>10} {'rel Kr':>9} {'rel Kr comp':>11} {'rel Kt':>9}")
    print("times are best of --repeats, in seconds; rel = relative Frobenius "
          "difference to the param_jacobians Gram")
    print(header)
    print("-" * len(header))
    for label, bench, (family, fparams), hidden, n_axis in CASES:
        problem = pde.benchmark(bench)
        pair = boundary.make_pair(family, fparams)
        points = train.build_grid(problem.dim, n_axis, "trimmed")
        params = net.init_kaiming_uniform((problem.dim, *hidden, 1), "tanh", 0)
        n = points.shape[0]
        p_count = params.param_count()
        t_kr, kr = best_time(
            lambda: kernels.assemble_kr(params, problem, pair, points, path="direct").a, args.repeats)
        t_krc, krc = best_time(
            lambda: kernels.assemble_kr(params, problem, pair, points, path="composed").a, args.repeats)
        t_kt, kt = best_time(
            lambda: kernels.assemble_kt(params, pair, points, path="direct").a, args.repeats)
        kr_ref, kt_ref = explicit_grams(params, problem, pair, points)
        checks = f"{rel(kr, kr_ref):>9.1e} {rel(krc, kr_ref):>11.1e} {rel(kt, kt_ref):>9.1e}"
        print(f"{label:>13} {n:>5} {p_count:>7} {t_kr:>10.3f} {t_krc:>12.3f} {t_kt:>10.3f} {checks}")


if __name__ == "__main__":
    main()
