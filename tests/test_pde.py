import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from hcntk import boundary, pde
from hcntk.errors import ConfigError, SingularCoefficient

SRC = Path(__file__).resolve().parents[1] / "src"

_X, _Y, _Z = sp.symbols("x y z")
# exact solution, coordinate symbols, c0, c2 of L[u] = c0 u + c2 lap(u)
SYMBOLIC_BENCHMARKS = {
    "poisson1d_sin": (-sp.sin(sp.pi * _X), (_X,), 0.0, 1.0),
    "diffusion1d_sincos": (sp.sin(sp.pi * _X) * sp.cos(2 * sp.pi * _X), (_X,), 0.0, -1.0),
    "diffusion2d": (sp.sin(sp.pi * _X) * sp.sin(sp.pi * _Y), (_X, _Y), 1.0, -1.0),
    "diffusion3d": (
        sp.sin(sp.pi * _X) * sp.sin(sp.pi * _Y) * sp.sin(sp.pi * _Z),
        (_X, _Y, _Z),
        1.0,
        -1.0,
    ),
}


def _symbolic_fields(name):
    """Value, gradient components, Laplacian and source derived and lambdified by sympy."""
    u, syms, c0, c2 = SYMBOLIC_BENCHMARKS[name]
    lap = sum(sp.diff(u, s, 2) for s in syms)
    f = sp.simplify(c0 * u + c2 * lap)
    return {
        "value": sp.lambdify(syms, u, "numpy"),
        "grad": [sp.lambdify(syms, sp.diff(u, s), "numpy") for s in syms],
        "lap": sp.lambdify(syms, sp.simplify(lap), "numpy"),
        "source": sp.lambdify(syms, f, "numpy"),
    }


def _oracle_points(dim, rng):
    """500 uniform points in [0,1]^d plus a 101-point grid: every coordinate runs
    over linspace(0, 1, 101), boundary values included, in a per-axis order."""
    t = np.linspace(0.0, 1.0, 101)
    k = np.arange(101)
    grid = np.stack([t[(k * (1, 37, 53)[m]) % 101] for m in range(dim)], axis=1)
    return np.vstack([rng.uniform(0.0, 1.0, size=(500, dim)), grid])


class TestClosedFormsMatchSymbolicDerivation:
    @pytest.mark.parametrize("name", pde.BENCHMARK_NAMES)
    def test_fields_bitwise_equal(self, name):
        _, syms, c0, c2 = SYMBOLIC_BENCHMARKS[name]
        prob = pde.benchmark(name)
        assert (prob.dim, prob.op.c0, prob.op.c2, prob.op.c1) == (len(syms), c0, c2, None)
        oracle = _symbolic_fields(name)
        x = _oracle_points(prob.dim, np.random.default_rng(7))
        cols = [x[:, m] for m in range(prob.dim)]
        for field in (prob.exact, prob.exact_lap, prob.source):
            out = field(x)
            assert out.dtype == np.float64 and out.shape == (len(x),)
        assert np.array_equal(prob.exact(x), oracle["value"](*cols))
        grad = prob.exact_grad(x)
        assert grad.dtype == np.float64 and grad.shape == x.shape
        for m, g in enumerate(oracle["grad"]):
            assert np.array_equal(grad[:, m], g(*cols)), f"gradient component {m}"
        assert np.array_equal(prob.exact_lap(x), oracle["lap"](*cols))
        assert np.array_equal(prob.source(x), oracle["source"](*cols))

    def test_cold_start_does_not_import_sympy(self):
        code = (
            "import sys\n"
            "import hcntk.cli, hcntk.experiments\n"
            "from hcntk import pde\n"
            "for name in pde.BENCHMARK_NAMES:\n"
            "    pde.benchmark(name)\n"
            "assert 'sympy' not in sys.modules, 'sympy imported'\n"
        )
        pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestBenchmarks:
    @pytest.mark.parametrize("name", pde.BENCHMARK_NAMES)
    def test_exact_satisfies_pde(self, name, rng):
        prob = pde.benchmark(name)
        x = rng.uniform(0.02, 0.98, size=(100, prob.dim))
        lhs = prob.op.apply(prob.exact(x), prob.exact_grad(x), prob.exact_lap(x), x)
        assert np.abs(lhs - prob.source(x)).max() <= 1e-8

    def test_poisson_exact_solution(self):
        prob = pde.benchmark("poisson1d_sin")
        x = np.array([[0.0], [0.25], [1.0]])
        u = prob.exact(x)
        assert u[0] == pytest.approx(0.0, abs=1e-14)
        assert u[2] == pytest.approx(0.0, abs=1e-14)
        assert u[1] == pytest.approx(-np.sin(np.pi * 0.25))
        # f = pi^2 sin(pi x), from u'' = f with u = -sin(pi x)
        assert prob.source(x)[1] == pytest.approx(np.pi**2 * np.sin(np.pi * 0.25))

    def test_diffusion1d_source_spot_check(self):
        # hand expansion of -d2/dx2 [sin(pi x) cos(2 pi x)] at x = 1/4 gives
        # 2 sqrt(2) pi^2
        prob = pde.benchmark("diffusion1d_sincos")
        got = prob.source(np.array([[0.25]]))[0]
        assert got == pytest.approx(2.0 * np.sqrt(2.0) * np.pi**2, rel=1e-12)

    def test_diffusion2d_source_closed_form(self):
        prob = pde.benchmark("diffusion2d")
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(50, 2))
        expected = (2.0 * np.pi**2 + 1.0) * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
        assert np.allclose(prob.source(x), expected, rtol=1e-12)

    def test_diffusion3d_source_closed_form(self):
        prob = pde.benchmark("diffusion3d")
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(50, 3))
        u = np.sin(np.pi * x).prod(axis=1)
        assert np.allclose(prob.source(x), (3.0 * np.pi**2 + 1.0) * u, rtol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            pde.benchmark("heat1d")


class TestCoefficients:
    def test_quadratic_boundary_at_center(self):
        # 1D Poisson (c0=0, c1=0, c2=1), B = x(1-x) at x=0.5:
        # alpha = B'' = -2, beta = 2 B' = 0, gamma = B = 0.25
        prob = pde.benchmark("poisson1d_sin")
        pair = boundary.make_pair("power", {"alpha": 1.0})
        cf = pde.coefficients(prob.op, pair, np.array([[0.5]]))
        assert cf.alpha[0] == pytest.approx(-2.0)
        assert cf.beta[0, 0] == pytest.approx(0.0)
        assert cf.gamma[0] == pytest.approx(0.25)

    def test_gamma_is_c2_times_b(self, rng):
        prob = pde.benchmark("diffusion2d")  # c2 = -1
        pair = boundary.make_pair("tanh2d", {"alpha": 3.0})
        x = rng.uniform(0.1, 0.9, size=(30, 2))
        cf = pde.coefficients(prob.op, pair, x)
        assert np.array_equal(cf.gamma, -pair.value(x))

    def test_vanish_when_b_is_zero(self, rng):
        class ZeroPair:
            dim = 1

            def value(self, x):
                return np.zeros(len(x))

            def grad(self, x):
                return np.zeros((len(x), 1))

            def lap(self, x):
                return np.zeros(len(x))

        op = pde.LinearOperator(dim=1, c0=2.0, c1=[3.0], c2=-1.0)
        cf = pde.coefficients(op, ZeroPair(), rng.uniform(0, 1, size=(10, 1)))
        assert np.all(cf.alpha == 0.0) and np.all(cf.beta == 0.0) and np.all(cf.gamma == 0.0)

    def test_against_independent_symbolic_evaluator(self, rng):
        # second, independent implementation of the three formulas via sympy
        xs, ys = sp.symbols("x y")
        c0e = 1 + xs * ys
        c1e = (sp.sin(xs), xs - ys)
        c2e = -(1 + xs**2)
        a_t = 3.0
        t1 = sp.tanh(a_t * xs) * sp.tanh(a_t * (1 - xs))
        t2 = sp.tanh(a_t * ys) * sp.tanh(a_t * (1 - ys))
        b_expr = t1 * t2
        gb = [sp.diff(b_expr, s) for s in (xs, ys)]
        lb = sum(sp.diff(b_expr, s, 2) for s in (xs, ys))
        alpha_e = c0e * b_expr + c1e[0] * gb[0] + c1e[1] * gb[1] + c2e * lb
        beta_e = [c1e[0] * b_expr + 2 * c2e * gb[0], c1e[1] * b_expr + 2 * c2e * gb[1]]
        gamma_e = c2e * b_expr
        f_alpha = sp.lambdify((xs, ys), alpha_e, "numpy")
        f_beta = [sp.lambdify((xs, ys), b, "numpy") for b in beta_e]
        f_gamma = sp.lambdify((xs, ys), gamma_e, "numpy")

        op = pde.LinearOperator(
            dim=2,
            c0=lambda p: 1 + p[:, 0] * p[:, 1],
            c1=lambda p: np.stack([np.sin(p[:, 0]), p[:, 0] - p[:, 1]], axis=1),
            c2=lambda p: -(1 + p[:, 0] ** 2),
        )
        pair = boundary.make_pair("tanh2d", {"alpha": a_t})
        pts = rng.uniform(0.05, 0.95, size=(60, 2))
        cf = pde.coefficients(op, pair, pts)
        ax, ay = pts[:, 0], pts[:, 1]
        assert np.abs(cf.alpha - f_alpha(ax, ay)).max() <= 1e-12 * max(1, np.abs(cf.alpha).max())
        for m in range(2):
            assert np.abs(cf.beta[:, m] - f_beta[m](ax, ay)).max() <= 1e-12 * max(
                1, np.abs(cf.beta).max()
            )
        assert np.abs(cf.gamma - f_gamma(ax, ay)).max() <= 1e-12 * max(1, np.abs(cf.gamma).max())

    def test_linear_in_operator_and_boundary(self, rng):
        pts = rng.uniform(0.1, 0.9, size=(20, 1))
        pair = boundary.make_pair("power", {"alpha": 1.5})
        op1 = pde.LinearOperator(dim=1, c0=1.0, c1=[2.0], c2=3.0)
        op2 = pde.LinearOperator(dim=1, c0=-0.5, c1=[1.0], c2=-1.0)
        op_sum = pde.LinearOperator(dim=1, c0=0.5, c1=[3.0], c2=2.0)
        cf1 = pde.coefficients(op1, pair, pts)
        cf2 = pde.coefficients(op2, pair, pts)
        cfs = pde.coefficients(op_sum, pair, pts)
        assert np.allclose(cf1.alpha + cf2.alpha, cfs.alpha)
        assert np.allclose(cf1.beta + cf2.beta, cfs.beta)
        assert np.allclose(cf1.gamma + cf2.gamma, cfs.gamma)

    def test_symmetry_inheritance(self):
        # constant coefficients, c1 = 0: alpha/gamma symmetric, beta antisymmetric
        op = pde.LinearOperator(dim=1, c0=2.0, c1=None, c2=1.5)
        pair = boundary.make_pair("power", {"alpha": 2.0})
        x = np.linspace(0.1, 0.45, 8).reshape(-1, 1)
        cf_a = pde.coefficients(op, pair, x)
        cf_b = pde.coefficients(op, pair, 1.0 - x)
        assert np.allclose(cf_a.alpha, cf_b.alpha)
        assert np.allclose(cf_a.gamma, cf_b.gamma)
        assert np.allclose(cf_a.beta, -cf_b.beta)

    def test_singular_coefficient_reports_index(self):
        prob = pde.benchmark("poisson1d_sin")
        pair = boundary.make_pair("power", {"alpha": 0.5})
        pts = boundary.grid(1, 10, include_boundary=True)
        with pytest.raises(SingularCoefficient) as exc:
            pde.coefficients(prob.op, pair, pts)
        assert exc.value.point_index == 0


class TestResidual:
    def test_exact_solution_gives_zero(self, rng):
        for name in pde.BENCHMARK_NAMES:
            prob = pde.benchmark(name)
            x = rng.uniform(0.05, 0.95, size=(50, prob.dim))
            r = prob.op.apply(prob.exact(x), prob.exact_grad(x), prob.exact_lap(x), x) - prob.source(x)
            assert np.abs(r).max() <= 1e-8

    def test_zero_trial_poisson(self):
        prob = pde.benchmark("poisson1d_sin")
        x = np.linspace(0.1, 0.9, 9).reshape(-1, 1)
        n = len(x)
        r = prob.op.apply(np.zeros(n), np.zeros((n, 1)), np.zeros(n), x) - prob.source(x)
        assert np.allclose(r, -np.pi**2 * np.sin(np.pi * x[:, 0]))
