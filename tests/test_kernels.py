import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hcntk import boundary, kernels, net, pde, train
from hcntk.linalg import SymMatrix, cka, eig_sym

WIDTH = 32


@pytest.fixture(scope="module")
def poisson():
    return pde.benchmark("poisson1d_sin")


@pytest.fixture(scope="module")
def quad_pair():
    return boundary.make_pair("power", {"alpha": 1.0})


@pytest.fixture(scope="module")
def pts():
    return boundary.trim_boundary(boundary.grid(1, 26, include_boundary=True))


def make_params(seed=0, sizes=(1, WIDTH, WIDTH, 1), activation="tanh"):
    return net.init_kaiming_uniform(sizes, activation, seed)


class TestAssembleKn:
    def test_single_point_is_row_norm(self):
        p = make_params()
        x = np.array([[0.37]])
        kn = kernels.assemble_kn(p, x)
        j_value, _, _ = net.param_jacobians(p, x, order=0)
        assert kn.a[0, 0] == pytest.approx(float(j_value[0] @ j_value[0]), rel=1e-12)

    def test_matches_explicit_jacobian_gram(self, pts):
        p = make_params(3)
        j0, _, _ = net.param_jacobians(p, pts, order=0)
        explicit = j0 @ j0.T
        kn = kernels.assemble_kn(p, pts).a
        assert np.abs(kn - explicit).max() <= 1e-10 * np.abs(explicit).max()

    def test_psd(self, pts):
        rep = eig_sym(kernels.assemble_kn(make_params(5), pts))
        assert rep.lambda_min >= -1e-8 * rep.lambda_max

    def test_relu_supported(self, pts):
        kn = kernels.assemble_kn(make_params(1, activation="relu"), pts)
        assert np.isfinite(kn.a).all()

    def test_empty_points_rejected(self):
        with pytest.raises(Exception):
            kernels.assemble_kn(make_params(), np.zeros((0, 1)))


class TestAssembleKt:
    def test_paths_agree(self, quad_pair, pts):
        p = make_params(7)
        direct = kernels.assemble_kt(p, quad_pair, pts, path="direct").a
        composed = kernels.assemble_kt(p, quad_pair, pts, path="composed").a
        rel = np.linalg.norm(direct - composed) / np.linalg.norm(composed)
        assert rel <= 1e-10

    def test_boundary_rows_exactly_zero_on_inclusive_grid(self, quad_pair):
        p = make_params(2)
        grid = boundary.grid(1, 12, include_boundary=True)
        kt = kernels.assemble_kt(p, quad_pair, grid, path="direct").a
        assert np.all(kt[0, :] == 0.0) and np.all(kt[:, 0] == 0.0)
        assert np.all(kt[-1, :] == 0.0) and np.all(kt[:, -1] == 0.0)
        assert np.abs(kt[1:-1, 1:-1]).max() > 0.0

    def test_scaling_property(self, quad_pair, pts):
        # B -> cB scales every eigenvalue by c^2, kappa and eff_rank unchanged
        p = make_params(11)
        base = eig_sym(kernels.assemble_kt(p, quad_pair, pts, path="composed"))
        c = 3.0

        class Scaled:
            dim = 1
            value = staticmethod(lambda x: c * quad_pair.value(x))

        scaled = eig_sym(kernels.assemble_kt(p, Scaled(), pts, path="composed"))
        assert np.allclose(scaled.eigenvalues, c**2 * base.eigenvalues, rtol=1e-9, atol=1e-9)
        assert scaled.eff_rank == pytest.approx(base.eff_rank, rel=1e-9)

    def test_bad_path_rejected(self, quad_pair, pts):
        with pytest.raises(ValueError):
            kernels.assemble_kt(make_params(), quad_pair, pts, path="magic")


class TestAssembleKr:
    @pytest.mark.parametrize(
        "family,params,bench",
        [
            ("power", {"alpha": 1.0}, "poisson1d_sin"),
            ("tanh", {"alpha": 3.0}, "diffusion1d_sincos"),
            ("rational", {"alpha": 5.0}, "poisson1d_sin"),
        ],
    )
    def test_paths_agree(self, family, params, bench, pts):
        prob = pde.benchmark(bench)
        pair = boundary.make_pair(family, params)
        p = make_params(4)
        direct = kernels.assemble_kr(p, prob, pair, pts, path="direct").a
        composed = kernels.assemble_kr(p, prob, pair, pts, path="composed").a
        rel = np.linalg.norm(direct - composed) / np.linalg.norm(composed)
        assert rel <= 1e-8

    def test_paths_agree_2d(self):
        prob = pde.benchmark("diffusion2d")
        pair = boundary.make_pair("tanh2d", {"alpha": 3.0})
        p = make_params(6, sizes=(2, 16, 16, 1))
        pts2 = boundary.trim_boundary(boundary.grid(2, 7, include_boundary=True))
        direct = kernels.assemble_kr(p, prob, pair, pts2, path="direct").a
        composed = kernels.assemble_kr(p, prob, pair, pts2, path="composed").a
        assert np.linalg.norm(direct - composed) / np.linalg.norm(composed) <= 1e-8

    def test_direct_matches_explicit_rows(self, poisson, quad_pair, pts):
        p = make_params(9)
        j0, j1, j2 = net.param_jacobians(p, pts, order=2)
        cf = pde.coefficients(poisson.op, quad_pair, pts)
        rows = cf.alpha[:, None] * j0 + cf.beta[:, 0, None] * j1[:, 0, :] + cf.gamma[:, None] * j2
        explicit = rows @ rows.T
        direct = kernels.assemble_kr(p, poisson, quad_pair, pts, path="direct").a
        assert np.abs(direct - explicit).max() <= 1e-9 * np.abs(explicit).max()

    def test_boundary_rows_not_zero_unlike_kt(self, poisson, quad_pair):
        # K_t boundary rows vanish; K_r boundary rows do not (beta, alpha
        # involve grad B and lap B which survive at the boundary)
        p = make_params(2)
        grid = boundary.grid(1, 12, include_boundary=True)
        kr = kernels.assemble_kr(p, poisson, quad_pair, grid, path="direct").a
        assert np.abs(kr[0, :]).max() > 0.0
        assert np.abs(kr[-1, :]).max() > 0.0

    def test_coefficient_collapse_constant_b(self, pts):
        # With B == const, grad B = lap B = 0, so only the gamma-gamma term
        # survives: K_r = c2^2 B^2 K_lap.
        class ConstPair:
            dim = 1
            value = staticmethod(lambda x: np.full(len(x), 0.7))
            grad = staticmethod(lambda x: np.zeros((len(x), 1)))
            lap = staticmethod(lambda x: np.zeros(len(x)))

        op = pde.LinearOperator(dim=1, c0=0.0, c1=None, c2=1.0)
        prob = pde.Problem(name="synthetic", dim=1, op=op, source=lambda x: np.zeros(len(x)),
                           exact=lambda x: np.zeros(len(x)))
        p = make_params(8)
        kr = kernels.assemble_kr(p, prob, ConstPair(), pts, path="composed").a
        comp = kernels.component_kernels(p, pts)
        assert np.abs(kr - 0.49 * comp[2, 2]).max() <= 1e-10 * np.abs(kr).max()

    def test_psd_all_three(self, poisson, quad_pair, pts):
        p = make_params(5)
        for mat in (kernels.assemble_kn(p, pts),
                    kernels.assemble_kt(p, quad_pair, pts, path="direct"),
                    kernels.assemble_kr(p, poisson, quad_pair, pts, path="direct")):
            rep = eig_sym(mat)
            assert rep.lambda_min >= -1e-8 * rep.lambda_max

    def test_relu_rejected(self, poisson, quad_pair, pts):
        from hcntk.errors import UnsupportedActivation

        with pytest.raises(UnsupportedActivation):
            kernels.assemble_kr(make_params(1, activation="relu"), poisson, quad_pair, pts)


# (benchmark, family, family parameters) per input dimension: each family
# weights the axes differently, so every gradient output has its own weight.
ASYM_SETUPS = {
    1: ("diffusion1d_sincos", "power_asym", {"alpha": 2.0}),
    2: ("diffusion2d", "mixed_power2d", {"alpha": 1.0, "beta": 2.0}),
    3: ("diffusion3d", "mixed_power_asym3d", {"alpha": 1.0, "beta": 2.0, "gamma": 3.0}),
}


class TestComponentKernels:
    def test_transpose_relations(self, pts):
        # only the pairs a <= b are stored: G_ba = G_ab^T
        p = make_params(12, sizes=(1, 10, 10, 1))
        comp = kernels.component_kernels(p, pts)
        j0, j1, j2 = net.param_jacobians(p, pts, order=2)
        js = [j0, j1[:, 0], j2]
        assert list(comp) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        for (a, b), g in comp.items():
            assert np.allclose(g, js[a] @ js[b].T, atol=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_composed_kr_equals_direct(self, d):
        # the composition law against the Gram of the combined residual rows
        bench, family, fparams = ASYM_SETUPS[d]
        prob, pair = pde.benchmark(bench), boundary.make_pair(family, fparams)
        x = boundary.trim_boundary(boundary.grid(d, (14, 7, 5)[d - 1], include_boundary=True))
        p = make_params(3, sizes=(d, 16, 16, 1))
        comp = kernels.component_kernels(p, x)
        direct = kernels.assemble_kr(p, prob, pair, x, path="direct").a
        for k in (kernels.compose_kr(comp, pde.coefficients(prob.op, pair, x)),
                  kernels.assemble_kr(p, prob, pair, x, path="composed", comp=comp).a):
            assert np.linalg.norm(k - direct) / np.linalg.norm(direct) <= 1e-14


class TestTrialEval:
    def test_zero_network_gives_offset(self, quad_pair, pts):
        p = make_params()
        p = p.unflatten(np.zeros(p.param_count()))
        trial = kernels.TrialFunction(pair=quad_pair, params=p)
        te = kernels.trial_eval(trial, pts)
        assert np.all(te.value == 0.0)
        assert np.all(te.grad == 0.0)

    def test_hard_constraint_at_boundary(self, quad_pair):
        trial = kernels.TrialFunction(pair=quad_pair, params=make_params(3))
        te = kernels.trial_eval(trial, np.array([[0.0], [1.0]]))
        assert np.abs(te.value).max() <= 1e-10

    def test_derivatives_match_finite_differences(self, quad_pair):
        trial = kernels.TrialFunction(pair=quad_pair, params=make_params(6))
        rng = np.random.default_rng(0)
        x = rng.uniform(0.2, 0.8, size=(10, 1))
        te = kernels.trial_eval(trial, x)
        h = 1e-6
        g_fd = (
            kernels.trial_eval(trial, x + h).value - kernels.trial_eval(trial, x - h).value
        ) / (2 * h)
        l_fd = (
            kernels.trial_eval(trial, x + h).grad[:, 0]
            - kernels.trial_eval(trial, x - h).grad[:, 0]
        ) / (2 * h)
        assert np.abs(te.grad[:, 0] - g_fd).max() <= 1e-6 * max(1, np.abs(g_fd).max())
        assert np.abs(te.lap - l_fd).max() <= 1e-6 * max(1, np.abs(l_fd).max())


class TestKtInvarianceInheritsFromKn:
    @staticmethod
    def _cka_sets(n_seeds, width):
        quad = boundary.make_pair("power", {"alpha": 1.0})
        grid = boundary.trim_boundary(boundary.grid(1, 100, include_boundary=True))
        b = quad.value(grid)
        kns, kts = [], []
        for s in range(n_seeds):
            kn = kernels.assemble_kn(make_params(s, sizes=(1, width, width, 1)), grid)
            kns.append(kn)
            kts.append(SymMatrix(b[:, None] * kn.a * b[None, :]))
        pairs = [(i, j) for i in range(n_seeds) for j in range(i + 1, n_seeds)]
        kn_ckas = np.array([cka(kns[i], kns[j]) for i, j in pairs])
        kt_ckas = np.array([cka(kts[i], kts[j]) for i, j in pairs])
        return kn_ckas, kt_ckas

    def test_invariance_transfers_structurally(self):
        # B is deterministic, so K_t keeps the seed-invariance of K_n at the
        # same order: mean pairwise CKA stays above the width-500 floor the
        # K_n acceptance study establishes.
        kn_ckas, kt_ckas = self._cka_sets(8, 500)
        assert kn_ckas.mean() >= 0.9995
        assert kt_ckas.mean() >= 0.999

    @pytest.mark.xfail(
        reason="strict per-pair inheritance is numerically false: the B "
        "modulation reweights the centered structure, and measured K_t CKA "
        "minima (~0.9988 at width 500) sit below the K_n minima (~0.99992)",
        strict=False,
    )
    def test_cka_floor_literal(self):
        kn_ckas, kt_ckas = self._cka_sets(8, 500)
        assert kt_ckas.min() >= kn_ckas.min()


ORACLE_ACTIVATIONS = ("tanh", "sigmoid", "elu", "selu")
ORACLE_CASES = [
    (act, d, hidden)
    for act in ORACLE_ACTIVATIONS
    for d in (1, 2, 3)
    for hidden in ((7,), (6, 5), (5, 6, 4))
] + [(act, d, (40, 40)) for act in ORACLE_ACTIVATIONS for d in (1, 2, 3)]
ORACLE_SETUPS = {
    1: ("diffusion1d_sincos", "tanh"),
    2: ("diffusion2d", "tanh2d"),
    3: ("diffusion3d", "tanh3d"),
}


def _oracle_setup(act, d, hidden, seed=0):
    bench, family = ORACLE_SETUPS[d]
    params = net.init_kaiming_uniform((d, *hidden, 1), act, seed)
    x = np.random.default_rng(seed + 17 * d).uniform(0.05, 0.95, size=(12, d))
    j0, j1, j2 = net.param_jacobians(params, x, order=2)
    return params, x, pde.benchmark(bench), boundary.make_pair(family, {"alpha": 3.0}), j0, j1, j2


def _assert_gram(got, ref):
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestFactoredGramsMatchJacobianGrams:
    """Every kernel against J J^T built from the materialized parameter Jacobians.

    The (d, w, 1) cases have a single hidden layer, whose input carriers are
    the broadcast identity (g) and zero (q). Every layer of the narrow cases
    goes through Phi, apart from the factored input layer of K_n and K_t;
    the 40 x 40 hidden layer takes the factored sum (pinned below).
    """

    @pytest.mark.parametrize("act,d,hidden", ORACLE_CASES)
    def test_kn_kt_kr(self, act, d, hidden):
        params, x, prob, pair, j0, j1, j2 = _oracle_setup(act, d, hidden)
        _assert_gram(kernels.assemble_kn(params, x).a, j0 @ j0.T)
        rows = pair.value(x)[:, None] * j0
        _assert_gram(kernels.assemble_kt(params, pair, x, path="direct").a, rows @ rows.T)
        cf = pde.coefficients(prob.op, pair, x)
        rows = cf.alpha[:, None] * j0 + np.einsum("nm,nmp->np", cf.beta, j1) + cf.gamma[:, None] * j2
        _assert_gram(kernels.assemble_kr(params, prob, pair, x, path="direct").a, rows @ rows.T)

    @pytest.mark.parametrize("act,d,hidden", ORACLE_CASES)
    def test_component_kernels(self, act, d, hidden):
        params, x, _, _, j0, j1, j2 = _oracle_setup(act, d, hidden)
        comp = kernels.component_kernels(params, x)
        js = [j0, *(j1[:, m] for m in range(d)), j2]
        assert list(comp) == [(a, b) for a in range(2 + d) for b in range(a, 2 + d)]
        for (a, b), g in comp.items():
            _assert_gram(g, js[a] @ js[b].T)

    def test_cross_grams_of_general_combinations(self):
        # Three combinations with different zero patterns: all outputs, value
        # plus one gradient slot, value only; every pair against the oracle.
        params, x, _, _, j0, j1, j2 = _oracle_setup("tanh", 2, (6, 5), seed=3)
        rng = np.random.default_rng(5)
        n = x.shape[0]
        zbar = rng.standard_normal((3, n))
        ubar = np.zeros((3, n, 2))
        ubar[0] = rng.standard_normal((n, 2))
        ubar[1, :, 1] = rng.standard_normal(n)
        tbar = np.zeros((3, n))
        tbar[0] = rng.standard_normal(n)
        rows = [zbar[c][:, None] * j0 + np.einsum("nm,nmp->np", ubar[c], j1)
                + tbar[c][:, None] * j2 for c in range(3)]
        st = net.forward(params, x, order=2)
        for c in range(3):
            for c2 in range(3):
                stacked = [c] if c == c2 else [c, c2]  # one combination's own Gram, or a cross Gram
                got = net.factored_grams(params, st, zbar[stacked], ubar[stacked], tbar[stacked])
                _assert_gram(got, rows[c] @ rows[c2].T)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_several_row_panels(self, monkeypatch, d):
        # 12 points in row panels of 5, 5 and 2 rows; the 40 x 40 layer is factored
        monkeypatch.setattr(net, "PANEL_ROWS", 5)
        params, x, prob, pair, j0, j1, j2 = _oracle_setup("tanh", d, (40, 40))
        rows_t = pair.value(x)[:, None] * j0
        cf = pde.coefficients(prob.op, pair, x)
        rows_r = cf.alpha[:, None] * j0 + np.einsum("nm,nmp->np", cf.beta, j1) + cf.gamma[:, None] * j2
        got = {"kn": (kernels.assemble_kn(params, x).a, j0 @ j0.T)}
        for path in ("direct", "composed"):
            got[f"kt {path}"] = (kernels.assemble_kt(params, pair, x, path=path).a, rows_t @ rows_t.T)
            got[f"kr {path}"] = (kernels.assemble_kr(params, prob, pair, x, path=path).a, rows_r @ rows_r.T)
        for name, (k, ref) in got.items():
            _assert_gram(k, ref)
            assert np.array_equal(k, k.T), name
        js = [j0, *(j1[:, m] for m in range(d)), j2]
        for (a, b), g in kernels.component_kernels(params, x).items():
            _assert_gram(g, js[a] @ js[b].T)

    def test_diagonal_grams_exactly_symmetric(self, poisson, quad_pair, pts):
        p = make_params(9)
        st = net.forward(p, pts, order=2)
        cf = pde.coefficients(poisson.op, quad_pair, pts)
        k = net.factored_grams(p, st, cf.alpha[None], cf.beta[None], cf.gamma[None])
        assert np.array_equal(k, k.T)

    def test_seeds_beyond_state_order_rejected(self, pts):
        p = make_params(1)
        st = net.forward(p, pts, order=0)
        n = pts.shape[0]
        with pytest.raises(ValueError):
            net.factored_grams(p, st, np.ones((1, n)), np.ones((1, n, 1)))

    def test_more_than_two_combinations_rejected(self, pts):
        p = make_params(1)
        st = net.forward(p, pts, order=0)
        with pytest.raises(ValueError):
            net.factored_grams(p, st, np.ones((3, pts.shape[0])))


def test_kernel_assembly_never_materializes_jacobians(monkeypatch, poisson, quad_pair, pts):
    def forbidden(*args, **kwargs):
        raise AssertionError("kernel assembly called net.param_jacobians")

    monkeypatch.setattr(net, "param_jacobians", forbidden)
    p = make_params(4)
    kernels.assemble_kn(p, pts)
    for path in ("direct", "composed"):
        kernels.assemble_kt(p, quad_pair, pts, path=path)
        kernels.assemble_kr(p, poisson, quad_pair, pts, path=path)
    kernels.component_kernels(p, pts)


def _factored_layers(monkeypatch, assemble):
    """(n_l, n_{l-1}) of every layer that ``assemble()`` contracts by the factored sum."""
    seen = []
    accumulate = net._accumulate_layer_grams

    def recording(out, plan, lefts, rights, scratch):
        seen.append((lefts[0].shape[-1], rights[0].shape[-1]))
        return accumulate(out, plan, lefts, rights, scratch)

    monkeypatch.setattr(net, "_accumulate_layer_grams", recording)
    assemble()
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("d,hidden,n_axis", [(1, (500, 500), 100), (2, (64, 64), 24), (3, (64, 64), 12),
                                             (1, (40, 40), 14), (2, (40, 40), 5), (3, (40, 40), 4)])
def test_contraction_per_layer(monkeypatch, d, hidden, n_axis):
    # The benchmark shapes (1D 2x500 on 98 points, 2D and 3D 2x64 on 484
    # and 1000) and the 40 x 40 oracle case: the hidden layer is always
    # factored, the thin layers of K_r go through Phi, and so does the
    # output layer of K_n and K_t, whose rank-one input layer is cheaper
    # factored. The component kernels take one factored_grams call per
    # pair of outputs; a pair with few factors on the input layer factors
    # it too: (value, value) at every d, each (value, grad_m) from d = 2 on
    # and each (grad_m, grad_m) from d = 3 on.
    bench, family = ORACLE_SETUPS[d]
    prob, pair = pde.benchmark(bench), boundary.make_pair(family, {"alpha": 3.0})
    x = boundary.trim_boundary(boundary.grid(d, n_axis, include_boundary=True))
    p = net.init_kaiming_uniform((d, *hidden, 1), "tanh", 0)
    hidden_layer, input_layer = (hidden[1], hidden[0]), (hidden[0], d)
    assert _factored_layers(monkeypatch, lambda: kernels.assemble_kr(p, prob, pair, x)) == [hidden_layer]
    n_pairs = 3 + 2 * d + d * (d + 1) // 2
    n_input = 1 + d * (d >= 2) + d * (d >= 3)
    assert Counter(_factored_layers(monkeypatch, lambda: kernels.component_kernels(p, x))) == Counter(
        {hidden_layer: n_pairs, input_layer: n_input})
    for assemble in (lambda: kernels.assemble_kn(p, x),
                     lambda: kernels.assemble_kt(p, pair, x, path="direct")):
        assert _factored_layers(monkeypatch, assemble) == [hidden_layer, input_layer]


@pytest.mark.parametrize("sizes,n,path", [
    ((1, 500, 500, 1), 98, "composed"),  # 57.6k floats of components, 252k parameters
    ((2, 64, 64, 1), 484, "direct"),  # 2.34M against 4.4k
    ((3, 64, 64, 1), 1000, "direct"),
    ((1, 32, 32, 1), 13, "composed"),  # 1014 against 1153
    ((1, 32, 32, 1), 14, "direct"),  # 1176 against 1153
    ((2, 40, 40, 1), 13, "composed"),  # 10 Grams: 1690 against 1801
    ((3, 40, 40, 1), 11, "composed"),  # 15 Grams: 1815 against 1841
    ((3, 40, 40, 1), 12, "direct"),  # 2160 against 1841
])
def test_sweep_path_composes_where_the_stack_is_no_larger_than_the_network(sizes, n, path):
    # the answer for a one-seed sweep; a sweep of several seeds is always direct
    params = net.init_kaiming_uniform(sizes, "tanh", 0)
    assert kernels.sweep_path(params, n, 1) == path
    assert kernels.sweep_path(params, n, 2) == kernels.sweep_path(params, n, 5) == "direct"


# One workspace across calls: 1D and 2D shapes small enough to run fast, and
# the benchmark shapes for the allocation bound.
def _ws_case(d, hidden, n_axis, seed=0):
    bench, family = ORACLE_SETUPS[d]
    prob, pair = pde.benchmark(bench), boundary.make_pair(family, {"alpha": 3.0})
    x = boundary.trim_boundary(boundary.grid(d, n_axis, include_boundary=True))
    return net.init_kaiming_uniform((d, *hidden, 1), "tanh", seed), prob, pair, x


def _assemblies(params, prob, pair, x):
    """Every assembly that goes through the workspace, as name -> fresh kernel arrays."""
    comp = kernels.component_kernels(params, x)
    return {
        "kn": [kernels.assemble_kn(params, x).a],
        "kt direct": [kernels.assemble_kt(params, pair, x, path="direct").a],
        "kt composed": [kernels.assemble_kt(params, pair, x, path="composed").a],
        "kr direct": [kernels.assemble_kr(params, prob, pair, x, path="direct").a],
        "kr composed": [kernels.assemble_kr(params, prob, pair, x, path="composed").a],
        "components": list(comp.values()),
    }


def _traced_peak(assemble):
    """The ``tracemalloc`` peak in bytes of one ``assemble()`` call, and the kernel array it returns."""
    tracemalloc.start()
    try:
        gram = assemble().a
        return tracemalloc.get_traced_memory()[1], gram
    finally:
        tracemalloc.stop()


class TestWorkspace:
    def test_warm_equals_cold_across_a_shape_change(self):
        case_1d, case_2d = _ws_case(1, (20, 20), 14), _ws_case(2, (12, 12), 6)
        kernels._ws.clear()
        cold = _assemblies(*case_1d)
        kept = {name: [a.copy() for a in arrs] for name, arrs in cold.items()}
        runs = [_assemblies(*case_1d)]  # warm
        _assemblies(*case_2d)
        runs.append(_assemblies(*case_1d))  # cold again: the 2D shape emptied the workspace
        runs.append(_assemblies(*case_1d))  # warm again
        later = [a for run in runs for arrs in run.values() for a in arrs] + list(kernels._ws.values())
        for name, arrs in cold.items():
            for run in runs:
                for got, ref in zip(run[name], arrs):
                    assert np.array_equal(got, ref), name  # bitwise
            for arr, copy in zip(arrs, kept[name]):
                assert np.array_equal(arr, copy), name  # untouched by later calls
                assert not any(np.shares_memory(arr, other) for other in later), name

    def test_training_snapshot_warm_equals_cold(self, poisson, quad_pair, pts):
        template = make_params(6)
        theta = template.flatten()
        kernels._ws.clear()
        cold = train._snapshot(0, theta, template, quad_pair, poisson, pts)
        warm = train._snapshot(0, theta, template, quad_pair, poisson, pts)
        _assemblies(*_ws_case(2, (12, 12), 6))
        cold_again = train._snapshot(0, theta, template, quad_pair, poisson, pts)
        assert repr(warm) == repr(cold) == repr(cold_again)  # every float bitwise, NaN included

    def test_warm_training_snapshot_holds_one_kernel_at_a_time(self):
        # K_n, K_t and K_r at the 2D desk size: each is decomposed before the next is assembled
        params, prob, pair, x = _ws_case(2, (64, 64), 24)
        theta = params.flatten()
        snapshot = lambda: train._snapshot(0, theta, params, pair, prob, x)
        snapshot()
        tracemalloc.start()
        try:
            snapshot()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gram = 8 * len(x) ** 2
        assert peak <= 2 * gram + 2**20, f"warm peak {peak / 2**20:.2f} MiB"

    def test_desk_size_workspace_holds_no_gram_sized_array(self):
        # 2D desk size (2x64, n=484): the assembly scratch is row panels, and every kernel is exactly symmetric
        params, prob, pair, x = _ws_case(2, (64, 64), 24)
        kernels._ws.clear()
        kernels_2d = [kernels.assemble_kn(params, x).a]
        for path in ("direct", "composed"):
            kernels_2d.append(kernels.assemble_kt(params, pair, x, path=path).a)
            kernels_2d.append(kernels.assemble_kr(params, prob, pair, x, path=path).a)
        n = len(x)
        assert max(a.size for a in kernels._ws.values()) < n * n
        assert all(np.array_equal(k, k.T) for k in kernels_2d)

    def test_holds_one_shape_only(self):
        case_1d, case_2d = _ws_case(1, (20, 20), 14), _ws_case(2, (12, 12), 6)
        kernels._ws.clear()
        _assemblies(*case_2d)
        keys_2d = set(kernels._ws)
        _assemblies(*case_1d)
        assert set(kernels._ws) != keys_2d
        _assemblies(*case_2d)
        assert set(kernels._ws) == keys_2d  # no 1D buffer survives the 2D assembly

    def test_component_build_keeps_nothing_in_the_workspace(self):
        params, prob, pair, x = _ws_case(1, (20, 20), 14)
        kernels._ws.clear()
        kernels.component_kernels(params, x)
        assert kernels._ws == {}
        kernels.assemble_kr(params, prob, pair, x, path="direct")
        kept = dict(kernels._ws)
        kernels.component_kernels(params, x)
        assert kernels._ws.keys() == kept.keys() and all(kernels._ws[k] is a for k, a in kept.items())

    def test_composed_kt_is_the_symmetrized_scaled_kn(self):
        # bitwise (k + k^T) / 2 of diag(B) K_n diag(B), warm as cold
        params, _, pair, x = _ws_case(2, (12, 12), 6)
        b = pair.value(x)
        k = kernels.assemble_kn(params, x).a * b[:, None] * b[None, :]
        kernels._ws.clear()
        for _ in range(2):
            assert np.array_equal(kernels.assemble_kt(params, pair, x, path="composed").a, (k + k.T) * 0.5)

    @pytest.mark.parametrize("d,hidden,n_axis,path", [
        (1, (500, 500), 100, "kr direct"),
        (2, (64, 64), 24, "kr direct"),
        (2, (64, 64), 24, "kt composed"),
    ])
    def test_warm_assembly_allocates_little(self, d, hidden, n_axis, path):
        # A warm call allocates its returned Gram and O(N) coefficient and
        # seed vectors, which 1 MiB covers: composed K_t symmetrizes through
        # the workspace's row panels. Warm peaks measured: 0.20 MiB (1D
        # K_r), 2.34 MiB (2D K_r), 2.08 MiB (2D K_t), against bounds of 1.07
        # and 2.79 MiB. Without a workspace the same calls peak at 12.2, 15.9
        # and 7.7 MiB.
        params, prob, pair, x = _ws_case(d, hidden, n_axis)
        if path == "kr direct":
            assemble = lambda: kernels.assemble_kr(params, prob, pair, x, path="direct")
            assemble()
        else:
            assemble = lambda: kernels.assemble_kt(params, pair, x, path="composed")
            kernels._ws.clear()
            kernels.assemble_kn(params, x)
            keys = set(kernels._ws)
            assemble()
            assert set(kernels._ws) == keys  # the workspace keeps nothing beyond what K_n keeps
        peak, gram = _traced_peak(assemble)
        assert peak <= gram.nbytes + 2**20, f"warm peak {peak / 2**20:.2f} MiB"

    def test_warm_composed_kr_allocates_two_grams(self):
        # the returned Gram and one term of the sum, at the 2D desk size
        params, prob, pair, x = _ws_case(2, (64, 64), 24)
        comp = kernels.component_kernels(params, x)
        assemble = lambda: kernels.assemble_kr(params, prob, pair, x, path="composed", comp=comp)
        assemble()
        peak, gram = _traced_peak(assemble)
        assert peak <= 2 * gram.nbytes + 2**20, f"warm peak {peak / 2**20:.2f} MiB"
