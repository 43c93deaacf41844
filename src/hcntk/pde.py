"""Linear differential operators, benchmark problems, and residual coefficients.

The benchmark problems are closed-form numpy expressions transcribed from
a symbolic derivation of each source; tests/test_pde.py re-derives them
symbolically and checks them bitwise, and ``Problem.self_check`` still
runs when a benchmark is loaded. No computer algebra runs at runtime.
"""

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy import cos, pi, sin

from .errors import ConfigError, SingularCoefficient


@dataclass
class LinearOperator:
    """L[u] = c0 u + c1 . grad(u) + c2 lap(u), coefficients constant or callable."""

    dim: int
    c0: object = 0.0
    c1: object = None  # vector field; None means zero
    c2: object = 0.0

    def coeffs_at(self, points):
        x = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n = x.shape[0]
        c0 = self.c0(x) if callable(self.c0) else np.full(n, float(self.c0))
        if self.c1 is None:
            c1 = np.zeros((n, self.dim))
        elif callable(self.c1):
            c1 = np.asarray(self.c1(x), dtype=np.float64).reshape(n, self.dim)
        else:
            c1 = np.broadcast_to(np.asarray(self.c1, dtype=np.float64), (n, self.dim)).copy()
        c2 = self.c2(x) if callable(self.c2) else np.full(n, float(self.c2))
        return c0, c1, c2

    def apply(self, value, grad, lap, points):
        c0, c1, c2 = self.coeffs_at(points)
        return c0 * value + np.sum(c1 * grad, axis=1) + c2 * lap


@dataclass
class Problem:
    """A PDE with zero Dirichlet data, its source, and (optionally) the exact solution."""

    name: str
    dim: int
    op: LinearOperator
    source: object  # f(points) -> (N,)
    exact: object | None = None  # u(points) -> (N,)
    exact_grad: object | None = None
    exact_lap: object | None = None

    def self_check(self, n_points=100, seed=0, tol=1e-8):
        """Verify op[exact] == source at random interior points."""
        if self.exact is None:
            return
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.05, 0.95, size=(n_points, self.dim))
        lhs = self.op.apply(self.exact(x), self.exact_grad(x), self.exact_lap(x), x)
        err = np.abs(lhs - self.source(x)).max()
        if err > tol:
            raise ConfigError(f"benchmark '{self.name}' fails self-consistency: {err:.3e}")


@dataclass
class CoefficientField:
    """Per-point residual coefficients alpha, beta, gamma induced by (op, B)."""

    alpha: np.ndarray  # (N,)
    beta: np.ndarray  # (N, d)
    gamma: np.ndarray  # (N,)


def coefficients(op, pair, points):
    """alpha = c0 B + c1 . grad B + c2 lap B; beta = c1 B + 2 c2 grad B; gamma = c2 B."""
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    c0, c1, c2 = op.coeffs_at(x)
    b = pair.value(x)
    gb = pair.grad(x)
    lb = pair.lap(x)
    with np.errstate(invalid="ignore"):
        alpha = c0 * b + np.sum(c1 * gb, axis=1) + c2 * lb
        beta = c1 * b[:, None] + 2.0 * c2[:, None] * gb
        gamma = c2 * b
    for arr in (alpha, beta, gamma):
        bad = ~np.isfinite(arr)
        if bad.any():
            idx = int(np.argwhere(bad)[0][0])
            raise SingularCoefficient(idx)
    return CoefficientField(alpha=alpha, beta=beta, gamma=gamma)


def dump_coefficients(op, pair, points, path):
    """Audit dump of the per-point coefficient fields as CSV."""
    from . import io

    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    cf = coefficients(op, pair, x)
    d = x.shape[1]
    header = [f"x{m}" for m in range(d)] + ["alpha"] + [f"beta{m}" for m in range(d)] + ["gamma"]
    rows = np.hstack([x, cf.alpha[:, None], cf.beta, cf.gamma[:, None]])
    io.write_csv(path, header, rows.tolist())
    return path


@dataclass(frozen=True)
class _ClosedForm:
    """One benchmark: u(x) with its gradient, Laplacian and source f = c0 u + c2 lap(u).

    Each field is a numpy expression in the coordinate columns (x, y, z).
    """

    dim: int
    c0: float
    c2: float
    value: Callable
    grad: tuple  # one callable per coordinate
    lap: Callable
    source: Callable


# Transcribed, operand order included, from the numpy code that a symbolic
# derivation (diff, simplify, lambdify) of the exact solutions prints;
# tests/test_pde.py re-derives them and checks every field bitwise.
_CLOSED_FORMS = {
    # u = -sin(pi x), u'' = f
    "poisson1d_sin": _ClosedForm(
        dim=1,
        c0=0.0,
        c2=1.0,
        value=lambda x: -sin(pi * x),
        grad=(lambda x: -pi * cos(pi * x),),
        lap=lambda x: pi**2 * sin(pi * x),
        source=lambda x: 1.0 * pi**2 * sin(pi * x),
    ),
    # u = sin(pi x) cos(2 pi x), -u'' = f
    "diffusion1d_sincos": _ClosedForm(
        dim=1,
        c0=0.0,
        c2=-1.0,
        value=lambda x: sin(pi * x) * cos(2 * pi * x),
        grad=(
            lambda x: -2 * pi * sin(pi * x) * sin(2 * pi * x) + pi * cos(pi * x) * cos(2 * pi * x),
        ),
        lap=lambda x: pi**2 * (18 * sin(pi * x) ** 2 - 13) * sin(pi * x),
        source=lambda x: pi**2 * (-0.5 * sin(pi * x) + 4.5 * sin(3 * pi * x)),
    ),
    # u = sin(pi x) sin(pi y), -lap(u) + u = f
    "diffusion2d": _ClosedForm(
        dim=2,
        c0=1.0,
        c2=-1.0,
        value=lambda x, y: sin(pi * x) * sin(pi * y),
        grad=(
            lambda x, y: pi * sin(pi * y) * cos(pi * x),
            lambda x, y: pi * sin(pi * x) * cos(pi * y),
        ),
        lap=lambda x, y: -2 * pi**2 * sin(pi * x) * sin(pi * y),
        source=lambda x, y: (1.0 + 2.0 * pi**2) * sin(pi * x) * sin(pi * y),
    ),
    # u = sin(pi x) sin(pi y) sin(pi z), -D lap(u) + a u = f with D = a = 1
    "diffusion3d": _ClosedForm(
        dim=3,
        c0=1.0,
        c2=-1.0,
        value=lambda x, y, z: sin(pi * x) * sin(pi * y) * sin(pi * z),
        grad=(
            lambda x, y, z: pi * sin(pi * y) * sin(pi * z) * cos(pi * x),
            lambda x, y, z: pi * sin(pi * x) * sin(pi * z) * cos(pi * y),
            lambda x, y, z: pi * sin(pi * x) * sin(pi * y) * cos(pi * z),
        ),
        lap=lambda x, y, z: -3 * pi**2 * sin(pi * x) * sin(pi * y) * sin(pi * z),
        source=lambda x, y, z: (1.0 + 3.0 * pi**2) * sin(pi * x) * sin(pi * y) * sin(pi * z),
    ),
}
BENCHMARK_NAMES = tuple(_CLOSED_FORMS)


def _scalar_field(fn):
    """(N, d) points -> fresh float64 (N,) array of fn evaluated on the columns."""

    def field(x):
        return np.asarray(fn(*x.T), dtype=np.float64)

    return field


def _gradient_field(fns):
    """(N, d) points -> fresh float64 (N, d) array, column m from fns[m]."""

    def field(x):
        out = np.empty(x.shape)
        for m, fn in enumerate(fns):
            out[:, m] = fn(*x.T)
        return out

    return field


@lru_cache(maxsize=None)
def benchmark(name):
    """Diffusion benchmarks with closed-form exact solutions and sources.

    The closed forms in ``_CLOSED_FORMS`` were transcribed from a symbolic
    derivation of the source (f = c0 u + c2 lap(u)); tests/test_pde.py
    re-derives every field symbolically and checks it bitwise, and the
    self-consistency gate still runs at load.
    """
    if name not in _CLOSED_FORMS:
        raise ConfigError(f"unknown benchmark '{name}' (choose from {BENCHMARK_NAMES})")
    form = _CLOSED_FORMS[name]
    prob = Problem(
        name=name,
        dim=form.dim,
        op=LinearOperator(dim=form.dim, c0=form.c0, c1=None, c2=form.c2),
        source=_scalar_field(form.source),
        exact=_scalar_field(form.value),
        exact_grad=_gradient_field(form.grad),
        exact_lap=_scalar_field(form.lap),
    )
    prob.self_check()
    return prob
