"""Boundary-function pairs with analytic derivatives, features, and grids.

Every family is a product of one-dimensional factors, one per axis (the
``FAMILIES`` table names them all), so gradients and Laplacians assemble by
the product rule from exact 1D factor derivatives.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError

def _scaled_power(coef, base, expo):
    # coef * base**expo with the convention that a zero coefficient kills the
    # term outright (a(a-1) x^(a-2) must be identically 0 at a == 1, not 0*inf).
    if coef == 0.0:
        return np.zeros_like(base)
    return coef * base**expo


def _power_sym_factor(a):
    # q(x) = [x(1-x)]^a with the expanded second-derivative form.
    def ev(x, order=2):
        q = (x * (1.0 - x)) ** a
        d1 = d2 = None
        if order >= 1:
            d1 = _scaled_power(a, x, a - 1.0) * (1.0 - x) ** (a - 1.0) * (1.0 - 2.0 * x)
        if order >= 2:
            d2 = (
                _scaled_power(a * (a - 1.0), x, a - 2.0) * (1.0 - x) ** a
                - 2.0 * a * a * x ** (a - 1.0) * (1.0 - x) ** (a - 1.0)
                + _scaled_power(a * (a - 1.0), 1.0 - x, a - 2.0) * x**a
            )
        return q, d1, d2

    return ev


def _power_asym_factor(p):
    def ev(x, order=2):
        d1 = _scaled_power(p, x, p - 1.0) if order >= 1 else None
        d2 = _scaled_power(p * (p - 1.0), x, p - 2.0) if order >= 2 else None
        return x**p, d1, d2

    return ev


def _trig_factor(a):
    # q(x) = sin^a(pi x)
    def ev(x, order=2):
        s = np.sin(np.pi * x)
        c = np.cos(np.pi * x)
        q = s**a
        d1 = a * np.pi * _scaled_power(1.0, s, a - 1.0) * c if order >= 1 else None
        d2 = a * np.pi**2 * (_scaled_power(a - 1.0, s, a - 2.0) * c * c - s**a) if order >= 2 else None
        return q, d1, d2

    return ev


def _rational_factor(a):
    # q(x) = w / (1 + a w) with w = x(1-x)
    def ev(x, order=2):
        w = x * (1.0 - x)
        wp = 1.0 - 2.0 * x
        den = 1.0 + a * w
        q = w / den
        d1 = wp / den**2 if order >= 1 else None
        d2 = (-2.0 * den - 2.0 * a * wp * wp) / den**3 if order >= 2 else None
        return q, d1, d2

    return ev


def _exponential_factor(a):
    # q(x) = w exp(-a w) with w = x(1-x)
    def ev(x, order=2):
        w = x * (1.0 - x)
        wp = 1.0 - 2.0 * x
        ex = np.exp(-a * w)
        q = w * ex
        d1 = wp * (1.0 - a * w) * ex if order >= 1 else None
        d2 = (-2.0 * (1.0 - a * w) + wp * wp * (a * a * w - 2.0 * a)) * ex if order >= 2 else None
        return q, d1, d2

    return ev


def _tanh_factor(a):
    # q(x) = tanh(a x) tanh(a (1-x))
    def ev(x, order=2):
        t1 = np.tanh(a * x)
        t2 = np.tanh(a * (1.0 - x))
        q = t1 * t2
        d1 = d2 = None
        if order >= 1:
            t1p = a * (1.0 - t1 * t1)
            t2p = -a * (1.0 - t2 * t2)
            d1 = t1p * t2 + t1 * t2p
        if order >= 2:
            d2 = (
                -2.0 * a * a * t1 * (1.0 - t1 * t1) * t2
                + 2.0 * t1p * t2p
                - 2.0 * a * a * t1 * t2 * (1.0 - t2 * t2)
            )
        return q, d1, d2

    return ev


# The one table of boundary families. Each maps to its 1D factor
# constructor, the parameter each axis reads (so the family's dimension is
# the length of that tuple), and whether 0 is an allowed parameter value.
FAMILIES = {
    "power": (_power_sym_factor, ("alpha",), False),
    "power_asym": (_power_asym_factor, ("alpha",), False),
    "trig": (_trig_factor, ("alpha",), False),
    "rational": (_rational_factor, ("alpha",), True),
    "exponential": (_exponential_factor, ("alpha",), True),
    "tanh": (_tanh_factor, ("alpha",), False),
    "power2d": (_power_sym_factor, ("alpha", "alpha"), False),
    "mixed_power2d": (_power_sym_factor, ("alpha", "beta"), False),
    "tanh2d": (_tanh_factor, ("alpha", "alpha"), False),
    "mixed_power_sym3d": (_power_sym_factor, ("alpha", "alpha", "alpha"), False),
    "mixed_power_asym3d": (_power_sym_factor, ("alpha", "beta", "gamma"), False),
    "tanh3d": (_tanh_factor, ("alpha", "alpha", "alpha"), False),
}

# Families built from the x**p factor violate B(1) = 0; they are kept for
# spectral studies only.
ASYMMETRIC_AT_ONE = {name for name, (factor, _, _) in FAMILIES.items()
                     if factor is _power_asym_factor}


@dataclass
class BoundaryPair:
    """The boundary function B with its exact gradient and Laplacian.

    B vanishes on the domain boundary and is positive inside (power_asym
    excepted at x = 1; it is barred from training configs). It takes
    (N, dim) points; points of another dimension raise ConfigError.
    """

    family: str
    params: dict
    dim: int
    factors: list  # the 1D factor of each axis

    def _factor_table(self, points, order):
        x = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if x.shape[1] != self.dim:
            raise ConfigError(f"points have dimension {x.shape[1]}, "
                              f"family '{self.family}' is {self.dim}-dimensional")
        # singular derivatives at the boundary (alpha < 1 powers) are
        # legitimate inf results, detected by consumers; suppress the noise
        with np.errstate(divide="ignore", invalid="ignore"):
            return [f(x[:, m], order) for m, f in enumerate(self.factors)]

    def value(self, points):
        table = self._factor_table(points, 0)
        out = table[0][0].copy()
        for q, _, _ in table[1:]:
            out *= q
        return out

    def grad(self, points):
        table = self._factor_table(points, 1)
        out = np.empty((len(table[0][0]), self.dim))
        for m in range(self.dim):
            acc = table[m][1].copy()
            for k in range(self.dim):
                if k != m:
                    acc *= table[k][0]
            out[:, m] = acc
        return out

    def lap(self, points):
        table = self._factor_table(points, 2)
        out = np.zeros(len(table[0][0]))
        for m in range(self.dim):
            acc = table[m][2].copy()
            for k in range(self.dim):
                if k != m:
                    acc *= table[k][0]
            out += acc
        return out


@dataclass
class BoundaryFeatures:
    """Geometric features of B and of its second derivative on a fixed grid.

    TV and Gini in more than one dimension flatten the grid in lexicographic
    order.
    """

    grad_l2: float
    tv: float
    gini: float
    dyn_range: float  # inf flag when B touches 0 on the feature grid
    curv_l2: float
    b2_max: float
    b2_tv: float

    def as_dict(self):
        return asdict(self)


def make_pair(family, params):
    """Construct a boundary pair from a family name and parameter dict.

    The parameters must be exactly the ones the family's axes read, each a
    finite number above 0 (or at 0, where the family allows it).
    """
    if family not in FAMILIES:
        raise ConfigError(f"unknown boundary family '{family}'")
    factor, axes, zero_ok = FAMILIES[family]
    if set(params) != set(axes):
        raise ConfigError(
            f"family '{family}' takes parameters {sorted(set(axes))}, got {list(params)}"
        )
    try:
        params = {k: float(v) for k, v in params.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{family}: parameters must be numbers ({exc})") from exc
    for key, value in params.items():
        if not (np.isfinite(value) and (value >= 0.0 if zero_ok else value > 0.0)):
            bound = ">= 0" if zero_ok else "positive"
            raise ConfigError(f"{family}: parameter {key} must be finite and {bound}, got {value}")
    return BoundaryPair(family=family, params=params, dim=len(axes),
                        factors=[factor(params[key]) for key in axes])


def gini_coefficient(samples):
    """Gini coefficient of nonnegative samples via the sorted-rank identity."""
    b = np.sort(np.asarray(samples, dtype=np.float64))
    n = b.size
    total = b.sum()
    if total == 0.0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float(((2.0 * ranks - n - 1.0) @ b) / (n * total))


def total_variation(samples):
    return float(np.abs(np.diff(np.asarray(samples, dtype=np.float64))).sum())


def features(pair, grid_points) -> BoundaryFeatures:
    """The boundary-function features the kernel spectrum studies consume, on one grid."""
    x = np.atleast_2d(np.asarray(grid_points, dtype=np.float64))
    b = pair.value(x)
    gb = pair.grad(x)
    b2 = pair.lap(x)
    bmin = float(b.min())
    bmax = float(b.max())
    dyn = float("inf") if bmin <= 0.0 else bmax / bmin
    return BoundaryFeatures(
        grad_l2=float(np.sqrt(np.sum(gb * gb))),
        tv=total_variation(b),
        gini=gini_coefficient(b),
        dyn_range=dyn,
        curv_l2=float(np.sqrt(np.sum(b2 * b2))),
        b2_max=float(np.abs(b2).max()),
        b2_tv=total_variation(b2),
    )


def grid(dim, n_per_axis, include_boundary=True):
    """Uniform tensor grid on [0,1]^dim, lexicographic by axis.

    Interior grids place points at (i + 1)/(n + 1) (the inner points of an
    (n+2)-point inclusive grid), keeping them away from derivative
    singularities at the boundary.
    """
    if n_per_axis < 2:
        raise ConfigError(f"n_per_axis must be >= 2, got {n_per_axis}")
    if include_boundary:
        axis = np.linspace(0.0, 1.0, n_per_axis)
    else:
        axis = np.arange(1, n_per_axis + 1) / (n_per_axis + 1.0)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def trim_boundary(points):
    """Drop points lying exactly on the boundary of [0,1]^d."""
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    mask = np.all((x > 0.0) & (x < 1.0), axis=1)
    return x[mask]
