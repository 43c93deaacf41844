import numpy as np
import pytest

from hcntk import boundary
from hcntk.errors import ConfigError

ALL_FAMILIES = [
    ("power", {"alpha": 0.5}),
    ("power", {"alpha": 1.0}),
    ("power", {"alpha": 2.5}),
    ("power_asym", {"alpha": 2.0}),
    ("trig", {"alpha": 1.0}),
    ("trig", {"alpha": 3.0}),
    ("rational", {"alpha": 5.0}),
    ("exponential", {"alpha": 10.0}),
    ("tanh", {"alpha": 5.0}),
    ("power2d", {"alpha": 1.5}),
    ("mixed_power2d", {"alpha": 1.0, "beta": 2.0}),
    ("tanh2d", {"alpha": 3.0}),
    ("mixed_power_sym3d", {"alpha": 1.0}),
    ("mixed_power_asym3d", {"alpha": 1.0, "beta": 2.0, "gamma": 0.5}),
    ("tanh3d", {"alpha": 4.0}),
]

SYMMETRIC_1D = [
    ("power", {"alpha": 1.5}),
    ("trig", {"alpha": 2.0}),
    ("rational", {"alpha": 10.0}),
    ("exponential", {"alpha": 5.0}),
    ("tanh", {"alpha": 3.0}),
]


def boundary_samples(dim, n=7):
    """Points on the faces of the unit hypercube."""
    rng = np.random.default_rng(0)
    pts = []
    for axis in range(dim):
        for val in (0.0, 1.0):
            p = rng.uniform(0.1, 0.9, size=(n, dim))
            p[:, axis] = val
            pts.append(p)
    return np.vstack(pts)


@pytest.mark.parametrize("family,params", ALL_FAMILIES)
def test_vanishes_on_boundary(family, params):
    pair = boundary.make_pair(family, params)
    if family in boundary.ASYMMETRIC_AT_ONE:
        # power_asym only satisfies B = 0 at x = 0
        assert abs(pair.value(np.array([[0.0]]))[0]) <= 1e-12
        return
    vals = pair.value(boundary_samples(pair.dim))
    assert np.abs(vals).max() <= 1e-12


@pytest.mark.parametrize("family,params", ALL_FAMILIES)
def test_positive_in_interior(family, params):
    pair = boundary.make_pair(family, params)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.05, 0.95, size=(40, pair.dim))
    assert np.all(pair.value(x) > 0.0)


@pytest.mark.parametrize("family,params", ALL_FAMILIES)
def test_derivatives_match_finite_differences(family, params):
    pair = boundary.make_pair(family, params)
    rng = np.random.default_rng(2)
    x = rng.uniform(0.15, 0.85, size=(25, pair.dim))
    h = 1e-6
    lap_fd = np.zeros(len(x))
    for m in range(pair.dim):
        xp, xm = x.copy(), x.copy()
        xp[:, m] += h
        xm[:, m] -= h
        vp, vm = pair.value(xp), pair.value(xm)
        g_fd = (vp - vm) / (2 * h)
        scale = max(1.0, np.abs(g_fd).max())
        assert np.abs(pair.grad(x)[:, m] - g_fd).max() / scale <= 1e-6
        lap_fd += (vp - 2 * pair.value(x) + vm) / h**2
    scale = max(1.0, np.abs(lap_fd).max())
    assert np.abs(pair.lap(x) - lap_fd).max() / scale <= 1e-4  # fd scheme noise floor


@pytest.mark.parametrize("family,params", SYMMETRIC_1D)
def test_1d_symmetry(family, params):
    pair = boundary.make_pair(family, params)
    x = np.linspace(0.05, 0.45, 9).reshape(-1, 1)
    assert np.allclose(pair.value(x), pair.value(1.0 - x), atol=1e-12)
    assert abs(pair.grad(np.array([[0.5]]))[0, 0]) <= 1e-12


class TestPaperAnchoredValues:
    def test_quadratic_case(self):
        pair = boundary.make_pair("power", {"alpha": 1.0})
        assert pair.value(np.array([[0.5]]))[0] == pytest.approx(0.25)
        x = np.linspace(0.0, 1.0, 11).reshape(-1, 1)
        assert np.allclose(pair.lap(x), -2.0)

    def test_b2_magnitudes_on_100_point_grid(self):
        grid = boundary.trim_boundary(boundary.grid(1, 100, include_boundary=True))
        f_half = boundary.features(boundary.make_pair("power", {"alpha": 0.5}), grid)
        assert 200.0 <= f_half.b2_max <= 300.0
        f_one = boundary.features(boundary.make_pair("power", {"alpha": 1.0}), grid)
        assert f_one.b2_max == pytest.approx(2.0)
        assert f_one.b2_tv == 0.0  # exactly, for the quadratic
        f_five = boundary.features(boundary.make_pair("power", {"alpha": 5.0}), grid)
        assert 0.02 <= f_five.b2_max <= 0.06

    def test_gini_monotone_in_power_exponent(self):
        grid = boundary.trim_boundary(boundary.grid(1, 100, include_boundary=True))
        sweep = [0.5, 1.0, 1.5, 2.0, 3.0, 5.0]
        ginis = [boundary.features(boundary.make_pair("power", {"alpha": p}), grid).gini
                 for p in sweep]
        dyns = [boundary.features(boundary.make_pair("power", {"alpha": p}), grid).dyn_range
                for p in sweep]
        assert all(a < b for a, b in zip(ginis, ginis[1:]))
        assert all(a < b for a, b in zip(dyns, dyns[1:]))


class TestFeatures:
    def test_constant_samples(self):
        assert boundary.gini_coefficient([3.0, 3.0, 3.0]) == 0.0
        assert boundary.total_variation([3.0, 3.0, 3.0]) == 0.0

    def test_two_point_gini(self):
        # G = sum|Bi - Bj| / (2 N sum B) = 2 / (2 * 2 * 1)
        assert boundary.gini_coefficient([0.0, 1.0]) == pytest.approx(0.5)

    def test_gini_sorted_identity_vs_pairwise_sum(self, rng):
        for _ in range(10):
            b = rng.uniform(0.0, 2.0, size=rng.integers(3, 40))
            pairwise = np.abs(b[:, None] - b[None, :]).sum() / (2 * b.size * b.sum())
            assert boundary.gini_coefficient(b) == pytest.approx(pairwise, rel=1e-12)

    def test_gini_range(self, rng):
        for _ in range(20):
            b = rng.uniform(0.0, 1.0, size=30)
            assert 0.0 <= boundary.gini_coefficient(b) < 1.0

    def test_dyn_range_flagged_infinite_on_boundary_grid(self):
        pair = boundary.make_pair("power", {"alpha": 1.0})
        feats = boundary.features(pair, boundary.grid(1, 10, include_boundary=True))
        assert feats.dyn_range == np.inf
        interior = boundary.features(pair, boundary.grid(1, 10, include_boundary=False))
        assert np.isfinite(interior.dyn_range)

    def test_scaling_hook(self):
        pair = boundary.make_pair("tanh", {"alpha": 3.0})
        grid = boundary.grid(1, 50, include_boundary=False)
        base = boundary.features(pair, grid)

        class Scaled:
            dim = 1

            def value(self, x):
                return 4.0 * pair.value(x)

            def grad(self, x):
                return 4.0 * pair.grad(x)

            def lap(self, x):
                return 4.0 * pair.lap(x)

        scaled = boundary.features(Scaled(), grid)
        assert scaled.gini == pytest.approx(base.gini, rel=1e-12)
        assert scaled.dyn_range == pytest.approx(base.dyn_range, rel=1e-12)
        assert scaled.grad_l2 == pytest.approx(4.0 * base.grad_l2, rel=1e-12)
        assert scaled.tv == pytest.approx(4.0 * base.tv, rel=1e-12)


class TestGrid:
    def test_1d_inclusive(self):
        g = boundary.grid(1, 3, include_boundary=True)
        assert np.allclose(g.ravel(), [0.0, 0.5, 1.0])

    def test_1d_interior_offsets(self):
        g = boundary.grid(1, 3, include_boundary=False)
        assert np.allclose(g.ravel(), [0.25, 0.5, 0.75])

    def test_2d_lexicographic(self):
        g = boundary.grid(2, 4, include_boundary=True)
        assert g.shape == (16, 2)
        # first axis varies slowest
        assert np.allclose(g[:4, 0], 0.0)
        assert np.allclose(g[:4, 1], [0.0, 1 / 3, 2 / 3, 1.0])

    def test_trim_boundary(self):
        g = boundary.grid(2, 4, include_boundary=True)
        t = boundary.trim_boundary(g)
        assert t.shape == (4, 2)
        assert np.all((t > 0) & (t < 1))

    def test_n_too_small(self):
        with pytest.raises(ConfigError):
            boundary.grid(1, 1)


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            boundary.make_pair("spline", {"alpha": 1.0})

    def test_out_of_range_parameter(self):
        for family, params in [
            ("power", {"alpha": -1.0}),
            ("rational", {"alpha": -0.5}),
            ("power", {"alpha": 0.0}),
            ("power", {"alpha": float("nan")}),
            ("exponential", {"alpha": float("nan")}),
            ("tanh", {"alpha": float("inf")}),
            ("mixed_power2d", {"alpha": 1.0, "beta": 0.0}),
            ("trig", {"alpha": "steep"}),
        ]:
            with pytest.raises(ConfigError):
                boundary.make_pair(family, params)

    def test_unknown_parameter_key(self):
        with pytest.raises(ConfigError):
            boundary.make_pair("power", {"alpha": 1.0, "delta": 2.0})
        with pytest.raises(ConfigError):  # a parameter the family does not read
            boundary.make_pair("power", {"alpha": 1.0, "beta": 2.0})

    def test_missing_alpha(self):
        for family, params in [
            ("power", {}),
            ("mixed_power2d", {"alpha": 1.0}),
            ("mixed_power_asym3d", {"alpha": 1.0, "beta": 2.0}),
            ("mixed_power2d", {"beta": 2.0}),
        ]:
            with pytest.raises(ConfigError):
                boundary.make_pair(family, params)

    def test_dim_mismatch(self):
        # points whose dimension is not the family's are rejected, not
        # read column by column
        for family, params, dim in [("power", {"alpha": 1.0}, 2), ("tanh2d", {"alpha": 3.0}, 1),
                                    ("tanh3d", {"alpha": 3.0}, 2)]:
            pair = boundary.make_pair(family, params)
            x = np.full((4, dim), 0.5)
            for evaluate in (pair.value, pair.grad, pair.lap):
                with pytest.raises(ConfigError):
                    evaluate(x)

    def test_rational_alpha_zero_degenerates_to_quadratic(self):
        # cross-family consistency: rational alpha=0 equals power alpha=1
        rat = boundary.make_pair("rational", {"alpha": 0.0})
        pow1 = boundary.make_pair("power", {"alpha": 1.0})
        x = np.linspace(0.01, 0.99, 23).reshape(-1, 1)
        assert np.allclose(rat.value(x), pow1.value(x), atol=1e-14)
        assert np.allclose(rat.grad(x), pow1.grad(x), atol=1e-14)
        assert np.allclose(rat.lap(x), pow1.lap(x), atol=1e-12)

    def test_power_asym_nonzero_at_one(self):
        pair = boundary.make_pair("power_asym", {"alpha": 2.0})
        assert pair.value(np.array([[1.0]]))[0] == pytest.approx(1.0)
