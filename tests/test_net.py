import numpy as np
import pytest

from hcntk import net
from hcntk.errors import ConfigError, UnsupportedActivation


class TestInit:
    def test_determinism(self):
        a = net.init_kaiming_uniform((1, 500, 500, 1), "tanh", 42)
        b = net.init_kaiming_uniform((1, 500, 500, 1), "tanh", 42)
        assert np.array_equal(a.flatten(), b.flatten())

    def test_seed_changes_draws(self):
        a = net.init_kaiming_uniform((1, 8, 1), "tanh", 0)
        b = net.init_kaiming_uniform((1, 8, 1), "tanh", 1)
        assert not np.array_equal(a.flatten(), b.flatten())

    def test_fan_in_bound(self):
        p = net.init_kaiming_uniform((100, 50, 1), "tanh", 7)
        assert np.abs(p.weights[0]).max() <= 0.1
        assert np.abs(p.biases[0]).max() <= 0.1

    def test_per_layer_streams_survive_widening(self):
        # widening a later layer must not perturb earlier layers' draws
        a = net.init_kaiming_uniform((1, 8, 8, 1), "tanh", 3)
        b = net.init_kaiming_uniform((1, 8, 16, 1), "tanh", 3)
        assert np.array_equal(a.weights[0], b.weights[0])
        assert np.array_equal(a.biases[0], b.biases[0])

    def test_errors(self):
        with pytest.raises(ConfigError):
            net.init_kaiming_uniform((1, 0, 1), "tanh", 0)
        with pytest.raises(ConfigError):
            net.init_kaiming_uniform((1, 8, 2), "tanh", 0)  # output dim must be 1
        with pytest.raises(ConfigError):
            net.init_kaiming_uniform((1, 8, 1), "swish", 0)
        with pytest.raises(ConfigError):
            net.init_kaiming_uniform((1,), "tanh", 0)


class TestFlatIndexing:
    def test_roundtrip_identity(self):
        p = net.init_kaiming_uniform((2, 5, 3, 1), "tanh", 11)
        flat = p.flatten()
        assert np.array_equal(p.unflatten(flat).flatten(), flat)

    def test_bijection_covers_all_params(self):
        p = net.init_kaiming_uniform((2, 5, 3, 1), "tanh", 11)
        total = p.param_count()
        assert total == (2 * 5 + 5) + (5 * 3 + 3) + (3 * 1 + 1)
        covered = np.zeros(total, dtype=bool)
        for ws, bs in p.flat_slices():
            assert not covered[ws].any() and not covered[bs].any()
            covered[ws] = True
            covered[bs] = True
        assert covered.all()

    def test_unflatten_size_check(self):
        p = net.init_kaiming_uniform((1, 4, 1), "tanh", 0)
        with pytest.raises(ConfigError):
            p.unflatten(np.zeros(p.param_count() + 1))

    def test_save_load_roundtrip(self, tmp_path):
        p = net.init_kaiming_uniform((2, 6, 1), "selu", 9)
        path = tmp_path / "params.bin"
        net.save_params(p, path)
        q = net.load_params(path)
        assert q.layer_sizes == p.layer_sizes
        assert q.activation == p.activation
        assert q.seed == p.seed
        assert np.array_equal(q.flatten(), p.flatten())


class TestForward:
    def test_zero_network(self):
        p = net.init_kaiming_uniform((1, 8, 8, 1), "tanh", 0)
        p = p.unflatten(np.zeros(p.param_count()))
        st = net.forward(p, [[0.3]])
        assert st.value[0] == 0.0
        assert np.all(st.grad[0] == 0.0)
        assert st.lap[0] == 0.0

    def test_single_linear_layer(self):
        # N = w x + b: grad = w, lap = 0, dN/dw = x
        p = net.init_kaiming_uniform((2, 1), "tanh", 0)
        w = p.weights[0][0]
        x = np.array([0.3, 0.7])
        st = net.forward(p, x[None])
        j_value, _, _ = net.param_jacobians(p, x[None])
        assert st.value[0] == pytest.approx(float(w @ x + p.biases[0][0]))
        assert np.allclose(st.grad[0], w)
        assert st.lap[0] == pytest.approx(0.0)
        assert np.allclose(j_value[0, :2], x)
        assert j_value[0, 2] == pytest.approx(1.0)  # output bias

    def test_relu_value_grad_only(self):
        p = net.init_kaiming_uniform((1, 8, 1), "relu", 1)
        st = net.forward(p, [[0.4]], order=1)
        assert np.isfinite(st.value[0])
        with pytest.raises(UnsupportedActivation):
            net.param_jacobians(p, [[0.4]], order=2)
        with pytest.raises(UnsupportedActivation):
            net.forward(p, [[0.4]], order=2)

    def test_input_symmetry_construction(self):
        # mirror pairs sigma(wx+b), sigma(-wx+w+b) with equal output weights
        # give N(x) == N(1-x)
        rng = np.random.default_rng(5)
        w = rng.standard_normal(4)
        b = rng.standard_normal(4)
        v = rng.standard_normal(4)
        p = net.init_kaiming_uniform((1, 8, 1), "tanh", 0)
        p.weights[0][:, 0] = np.concatenate([w, -w])
        p.biases[0][:] = np.concatenate([b, w + b])
        p.weights[1][0, :] = np.concatenate([v, v])
        p.biases[1][:] = 0.3
        for x in (0.1, 0.25, 0.4):
            lhs = net.forward(p, [[x]], order=0).value[0]
            rhs = net.forward(p, [[1.0 - x]], order=0).value[0]
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_batch_matches_pointwise(self):
        p = net.init_kaiming_uniform((2, 6, 1), "sigmoid", 2)
        pts = np.array([[0.1, 0.2], [0.5, 0.9]])
        st = net.forward(p, pts)
        jacs = net.param_jacobians(p, pts)
        for i in range(len(pts)):
            single = net.forward(p, pts[i : i + 1])
            single_jacs = net.param_jacobians(p, pts[i : i + 1])
            for got, ref in [(st.value, single.value), (st.grad, single.grad), (st.lap, single.lap),
                             *zip(jacs, single_jacs)]:
                assert np.abs(got[i] - ref[0]).max() <= 1e-14 * np.abs(ref[0]).max()

    def test_dimension_check(self):
        p = net.init_kaiming_uniform((2, 4, 1), "tanh", 0)
        with pytest.raises(ConfigError):
            net.forward(p, [[0.1, 0.2, 0.3]])


def _plain_derivs(name, z):
    # the activation derivatives as plain expressions, the reference for
    # the in-place forms of net.ACTIVATIONS
    if name == "tanh":
        a = np.tanh(z)
        s1 = 1.0 - a * a
        return a, s1, -2.0 * a * s1, -2.0 * s1 * (1.0 - 3.0 * a * a)
    if name == "sigmoid":
        a = 1.0 / (1.0 + np.exp(-z))
        s1 = a * (1.0 - a)
        return a, s1, s1 * (1.0 - 2.0 * a), s1 * (1.0 - 6.0 * a + 6.0 * a * a)
    if name == "relu":
        return np.maximum(z, 0.0), (z > 0.0).astype(np.float64), None, None
    if name == "leaky_relu":
        return np.where(z > 0.0, z, 0.01 * z), np.where(z > 0.0, 1.0, 0.01), None, None
    lam, alpha = (1.0, 1.0) if name == "elu" else (1.0507009873554805, 1.6732632423543772)
    pos = z > 0.0
    a = np.where(pos, lam * z, lam * alpha * np.expm1(z))
    neg_slope = a + lam * alpha
    s2 = np.where(pos, 0.0, neg_slope)
    return a, np.where(pos, lam, neg_slope), s2, s2


@pytest.mark.parametrize("name", sorted(net.ACTIVATIONS))
def test_in_place_derivatives_match_plain_expressions(rng, name):
    act = net.ACTIVATIONS[name]
    z = np.concatenate([rng.uniform(-30.0, 30.0, 500), rng.standard_normal(500), [0.0, -0.0]])
    want = _plain_derivs(name, z)
    order = act.max_order
    got = act.eval_derivs(z, order, [np.empty_like(z) for _ in range(act.n_arrays(order))])
    for g, w in zip(got, want):
        assert (g is None and w is None) or np.array_equal(g, w)


def central_diff_jacobians(params, x, h=1e-5):
    flat = params.flatten()
    d = params.input_dim
    p_total = flat.size
    j0 = np.zeros(p_total)
    j1 = np.zeros((d, p_total))
    j2 = np.zeros(p_total)
    for k in range(p_total):
        up, dn = flat.copy(), flat.copy()
        up[k] += h
        dn[k] -= h
        stp = net.forward(params.unflatten(up), x, order=2)
        stm = net.forward(params.unflatten(dn), x, order=2)
        j0[k] = (stp.value[0] - stm.value[0]) / (2 * h)
        j1[:, k] = (stp.grad[0] - stm.grad[0]) / (2 * h)
        j2[k] = (stp.lap[0] - stm.lap[0]) / (2 * h)
    return j0, j1, j2


@pytest.mark.parametrize(
    "activation,sizes",
    [
        ("tanh", (1, 6, 6, 1)),
        ("tanh", (3, 5, 1)),
        ("sigmoid", (2, 6, 1)),
        ("elu", (2, 5, 5, 1)),
        ("selu", (1, 7, 1)),
    ],
)
def test_jacobians_match_finite_differences(activation, sizes):
    params = net.init_kaiming_uniform(sizes, activation, 77)
    rng = np.random.default_rng(4)
    x = rng.uniform(0.2, 0.8, size=(1, sizes[0]))
    j0, j1, j2 = net.param_jacobians(params, x, order=2)
    f0, f1, f2 = central_diff_jacobians(params, x)
    scale0 = max(1e-8, np.abs(f0).max())
    scale1 = max(1e-8, np.abs(f1).max())
    scale2 = max(1e-8, np.abs(f2).max())
    assert np.abs(j0[0] - f0).max() / scale0 <= 1e-5
    assert np.abs(j1[0] - f1).max() / scale1 <= 1e-5
    assert np.abs(j2[0] - f2).max() / scale2 <= 1e-5


def test_spatial_derivatives_match_finite_differences():
    params = net.init_kaiming_uniform((2, 10, 10, 1), "tanh", 13)
    rng = np.random.default_rng(8)
    x = rng.uniform(0.1, 0.9, size=(5, 2))
    st = net.forward(params, x, order=2)
    h = 1e-6
    lap_fd = np.zeros(5)
    for m in range(2):
        xp, xm = x.copy(), x.copy()
        xp[:, m] += h
        xm[:, m] -= h
        vp = net.forward(params, xp, order=0).value
        vm = net.forward(params, xm, order=0).value
        grad_fd = (vp - vm) / (2 * h)
        assert np.abs(st.grad[:, m] - grad_fd).max() <= 1e-6 * max(1.0, np.abs(grad_fd).max())
        # differencing the analytic gradient resolves the Laplacian to 1e-6
        # (a second difference of values bottoms out near 1e-4)
        gp = net.forward(params, xp, order=1).grad[:, m]
        gm = net.forward(params, xm, order=1).grad[:, m]
        lap_fd += (gp - gm) / (2 * h)
    assert np.abs(st.lap - lap_fd).max() <= 1e-6 * max(1.0, np.abs(lap_fd).max())


def test_weighted_gradient_matches_stacked_jacobians(rng):
    params = net.init_kaiming_uniform((2, 7, 1), "tanh", 21)
    x = rng.uniform(0.1, 0.9, size=(6, 2))
    st = net.forward(params, x, order=2)
    wv = rng.standard_normal(6)
    wg = rng.standard_normal((6, 2))
    wl = rng.standard_normal(6)
    got = net.weighted_residual_gradient(params, st, wv, wg, wl)
    j0, j1, j2 = net.param_jacobians(params, x, order=2)
    want = wv @ j0 + np.einsum("nm,nmp->p", wg, j1) + wl @ j2
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def _hessian_pass(params, theta, x):
    # Reference forward pass carrying the full d x d input Hessian of every
    # neuron, written so that the parameters may be complex: complex-step
    # differentiation then gives its parameter Jacobians to rounding level.
    act = params.activation_def()
    n, d = x.shape
    a, g, h = x, np.broadcast_to(np.eye(d), (n, d, d)), np.zeros((n, d, d, d))
    off = 0
    for l, (w0, b0) in enumerate(zip(params.weights, params.biases), start=1):
        w = theta[off : off + w0.size].reshape(w0.shape)
        off += w0.size
        b = theta[off : off + b0.size]
        off += b0.size
        z, u, s = a @ w.T + b, g @ w.T, h @ w.T
        if l < params.n_layers:
            a, sp, spp, _ = act.eval_derivs(z, 2, [np.empty_like(z) for _ in range(act.n_arrays(2))])
            g = sp[:, None, :] * u
            h = spp[:, None, None, :] * u[:, :, None, :] * u[:, None, :, :] + sp[:, None, None, :] * s
    return z[:, 0], u[:, :, 0], np.trace(s[..., 0], axis1=1, axis2=2)


@pytest.mark.parametrize(
    "activation,sizes",
    [
        ("tanh", (1, 8, 8, 1)),
        ("tanh", (3, 6, 5, 1)),
        ("sigmoid", (2, 6, 6, 1)),
    ],
)
def test_laplacian_carriers_match_hessian_pass(rng, activation, sizes):
    # The per-neuron Laplacian carriers give the trace of the full input
    # Hessian, and their reverse passes give its exact parameter Jacobians
    # (order 1 as well as order 2) and weighted gradient.
    params = net.init_kaiming_uniform(sizes, activation, 3)
    n, d = 9, sizes[0]
    x = rng.uniform(0.1, 0.9, size=(n, d))
    theta = params.flatten()
    st = net.forward(params, x, order=2)
    value, grad, lap = _hessian_pass(params, theta, x)
    assert np.abs(st.value - value).max() <= 1e-14 * max(1.0, np.abs(value).max())
    assert np.abs(st.grad - grad).max() <= 1e-14 * max(1.0, np.abs(grad).max())
    assert np.abs(st.lap - lap).max() <= 1e-13 * max(1.0, np.abs(lap).max())

    p_total = theta.size
    jv, jg, jl = np.zeros((n, p_total)), np.zeros((n, d, p_total)), np.zeros((n, p_total))
    step = 1e-30
    for k in range(p_total):
        tk = theta.astype(np.complex128)
        tk[k] += 1j * step
        v, g, lp = _hessian_pass(params, tk, x)
        jv[:, k], jg[:, :, k], jl[:, k] = v.imag / step, g.imag / step, lp.imag / step

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    j0, j1, j2 = net.param_jacobians(params, x, order=2)
    assert close(j0, jv) and close(j1, jg) and close(j2, jl)
    j0, j1, _ = net.param_jacobians(params, x, order=1)
    assert close(j0, jv) and close(j1, jg)
    wv, wg, wl = rng.standard_normal(n), rng.standard_normal((n, d)), rng.standard_normal(n)
    want = wv @ jv + np.einsum("nm,nmp->p", wg, jg) + wl @ jl
    assert close(net.weighted_residual_gradient(params, st, wv, wg, wl), want)
    assert close(net.weighted_residual_gradient(params, st, None, None, wl), wl @ jl)


def _stacked_shapes():
    n, c = 40, 3
    for w in (1, 64, 500):
        yield pytest.param((c, n, w), w, id=f"C-N-w{w}")
        for d in (1, 2, 3):
            yield pytest.param((n, d, w), w, id=f"N-d{d}-w{w}")
            yield pytest.param((c, n, d, w), w, id=f"C-N-d{d}-w{w}")


@pytest.mark.parametrize("shape,w", list(_stacked_shapes()))
def test_matmul_flattens_stacked_products(rng, shape, w):
    # The carrier and adjoint products are one GEMM over all leading axes:
    # rounding apart, they equal the stacked matmul, written into out itself.
    a = rng.standard_normal(shape)
    b = rng.standard_normal((w, w))
    out = np.empty(shape[:-1] + (w,))
    got = net._matmul(a, b, out=out)
    assert got is out
    want = np.matmul(a, b)
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
    # the forward pass multiplies by a transposed weight view
    want = np.matmul(a, b.T)
    assert np.linalg.norm(net._matmul(a, b.T, out=out) - want) <= 1e-15 * np.linalg.norm(want)


@pytest.mark.parametrize("w", [1, 64])
def test_matmul_rejects_non_contiguous_out(rng, w):
    a = rng.standard_normal((5, 2, w))
    b = rng.standard_normal((w, 4))
    out = np.empty((5, 4, 2)).transpose(0, 2, 1)
    with pytest.raises(ValueError, match="C-contiguous"):
        net._matmul(a, b, out=out)
