"""Fully connected MLP with exact input derivatives and parameter Jacobians.

The forward pass propagates, per layer, the triple (value, input-Jacobian,
input-Laplacian) of every neuron. Parameter Jacobians of the network value,
its input gradient, and its input Laplacian are obtained by reverse
accumulation through that extended forward pass, so they are exact to
floating point rather than numerically differenced. Tangent-kernel Grams
come from the same reverse pass in factored form (``factored_grams``),
without materializing the N x P Jacobians.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnsupportedActivation

_SELU_LAMBDA = 1.0507009873554805
_SELU_ALPHA = 1.6732632423543772


class Activation:
    """Elementwise activation with derivatives up to third order.

    ``eval_derivs(z, order)`` returns (a, s1, s2, s3); entries above the
    requested order (and above ``max_order``) are None. Derivatives are
    expressed through the activation value where possible so each is a
    cheap elementwise expression.
    """

    def __init__(self, name, eval_derivs, max_order):
        self.name = name
        self.eval_derivs = eval_derivs
        self.max_order = max_order  # highest usable input-derivative order

    @property
    def smooth(self):
        return self.max_order >= 2


def _tanh_derivs(z, order):
    a = np.tanh(z)
    s1 = 1.0 - a * a
    s2 = s3 = None
    if order >= 2:
        s2 = -2.0 * a * s1
        s3 = -2.0 * s1 * (1.0 - 3.0 * a * a)
    return a, s1, s2, s3


def _sigmoid_derivs(z, order):
    a = 1.0 / (1.0 + np.exp(-z))
    s1 = a * (1.0 - a)
    s2 = s3 = None
    if order >= 2:
        s2 = s1 * (1.0 - 2.0 * a)
        s3 = s1 * (1.0 - 6.0 * a + 6.0 * a * a)
    return a, s1, s2, s3


def _relu_derivs(z, order):
    return np.maximum(z, 0.0), (z > 0.0).astype(np.float64), None, None


def _leaky_relu_derivs(z, order):
    return np.where(z > 0.0, z, 0.01 * z), np.where(z > 0.0, 1.0, 0.01), None, None


def _elu_derivs(z, order, lam=1.0, alpha=1.0):
    pos = z > 0.0
    a = np.where(pos, lam * z, lam * alpha * np.expm1(z))
    neg_slope = a + lam * alpha  # equals lam*alpha*exp(z) on the negative branch
    s1 = np.where(pos, lam, neg_slope)
    s2 = s3 = None
    if order >= 2:
        s2 = np.where(pos, 0.0, neg_slope)
        s3 = s2
    return a, s1, s2, s3


ACTIVATIONS = {
    "tanh": Activation("tanh", _tanh_derivs, max_order=2),
    "sigmoid": Activation("sigmoid", _sigmoid_derivs, max_order=2),
    "relu": Activation("relu", _relu_derivs, max_order=1),
    "leaky_relu": Activation("leaky_relu", _leaky_relu_derivs, max_order=1),
    "elu": Activation("elu", _elu_derivs, max_order=2),
    "selu": Activation(
        "selu",
        lambda z, order: _elu_derivs(z, order, lam=_SELU_LAMBDA, alpha=_SELU_ALPHA),
        max_order=2,
    ),
}

SMOOTH_ACTIVATIONS = ("tanh", "sigmoid", "elu", "selu")
NONSMOOTH_ACTIVATIONS = ("relu", "leaky_relu")


@dataclass
class NetworkParams:
    """Layered weights and biases plus the flat parameter indexing.

    Flat order is layer by layer: weights row-major, then biases.
    """

    layer_sizes: tuple
    activation: str
    weights: list
    biases: list
    seed: int | None = None

    @property
    def input_dim(self):
        return self.layer_sizes[0]

    @property
    def n_layers(self):
        return len(self.layer_sizes) - 1

    def param_count(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def flat_slices(self):
        """Per-layer (weight_slice, bias_slice) into the flat vector."""
        out = []
        off = 0
        for w, b in zip(self.weights, self.biases):
            ws = slice(off, off + w.size)
            off += w.size
            bs = slice(off, off + b.size)
            off += b.size
            out.append((ws, bs))
        return out

    def flatten(self):
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    def unflatten(self, flat):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.param_count():
            raise ConfigError(f"flat vector has {flat.size} entries, expected {self.param_count()}")
        weights, biases = [], []
        off = 0
        for w, b in zip(self.weights, self.biases):
            weights.append(flat[off : off + w.size].reshape(w.shape).copy())
            off += w.size
            biases.append(flat[off : off + b.size].copy())
            off += b.size
        return NetworkParams(self.layer_sizes, self.activation, weights, biases, self.seed)

    def activation_def(self):
        return ACTIVATIONS[self.activation]


def init_kaiming_uniform(layer_sizes, activation, seed):
    """Kaiming-uniform initialization with one counter-based stream per layer.

    Weights and biases of layer l are drawn from
    U(-sqrt(1/fan_in), sqrt(1/fan_in)) using a Philox stream keyed by
    (seed, l), so widening one layer never perturbs the draws of another.
    Draw order within a layer: weights row-major, then biases.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s <= 0 for s in sizes):
        raise ConfigError(f"invalid layer sizes {layer_sizes}")
    if sizes[-1] != 1:
        raise ConfigError("output dimension must be exactly 1")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation '{activation}'")
    seed = int(seed)
    if seed < 0:
        raise ConfigError("seed must be a non-negative 64-bit integer")
    weights, biases = [], []
    for l in range(1, len(sizes)):
        fan_in = sizes[l - 1]
        bound = 1.0 / np.sqrt(fan_in)
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, l], dtype=np.uint64)))
        weights.append(gen.uniform(-bound, bound, size=(sizes[l], fan_in)))
        biases.append(gen.uniform(-bound, bound, size=sizes[l]))
    return NetworkParams(sizes, activation, weights, biases, seed)


def save_params(params, path):
    """Write a structured-text header line followed by the flat float64 vector."""
    header = {
        "layer_sizes": list(params.layer_sizes),
        "activation": params.activation,
        "seed": params.seed,
        "dtype": "float64-le",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        fh.write(params.flatten().astype("<f8").tobytes())


def load_params(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        flat = np.frombuffer(fh.read(), dtype="<f8")
    sizes = tuple(header["layer_sizes"])
    template = NetworkParams(
        sizes,
        header["activation"],
        [np.zeros((sizes[l], sizes[l - 1])) for l in range(1, len(sizes))],
        [np.zeros(sizes[l]) for l in range(1, len(sizes))],
        header.get("seed"),
    )
    return template.unflatten(flat)


class ForwardState:
    """Per-layer values and input derivatives for a batch of points.

    ``order`` selects which carriers exist: 0 values only, 1 adds input
    Jacobians (``u`` for the pre-activations, ``g`` for the activations),
    2 adds input Laplacians (``t`` and ``q``).
    """

    __slots__ = ("x", "order", "z", "a", "u", "g", "t", "q", "sp", "spp", "sppp",
                 "value", "grad", "lap")


def _require_order(params, order):
    act = params.activation_def()
    if order > act.max_order:
        raise UnsupportedActivation(
            f"activation '{act.name}' does not support order-{order} evaluation"
        )


def forward(params, points, order=2):
    """Extended forward pass over a batch of points (shape (N, d)).

    At order 2 each neuron carries its input Laplacian, propagated through
    Lap(sigma(z)) = sigma''(z) |grad z|^2 + sigma'(z) Lap(z), so no d x d
    input Hessian is ever formed. Activation derivatives are kept one order
    above ``order``, as the reverse passes need them.
    """
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    d = params.input_dim
    if x.shape[1] != d:
        raise ConfigError(f"points have dimension {x.shape[1]}, network expects {d}")
    _require_order(params, order)
    act = params.activation_def()
    deriv_order = min(order + 1, act.max_order)
    n = x.shape[0]
    st = ForwardState()
    st.x = x
    st.order = order
    st.z, st.a = [None], [x]
    st.u = [None]
    st.g = [np.broadcast_to(np.eye(d), (n, d, d)) if order >= 1 else None]
    st.t = [None]
    st.q = [np.zeros((n, d)) if order >= 2 else None]
    st.sp, st.spp, st.sppp = [None], [None], [None]
    n_layers = params.n_layers
    for l in range(1, n_layers + 1):
        w = params.weights[l - 1]
        b = params.biases[l - 1]
        z = st.a[l - 1] @ w.T + b
        u = st.g[l - 1] @ w.T if order >= 1 else None
        t = st.q[l - 1] @ w.T if order >= 2 else None
        st.z.append(z)
        st.u.append(u)
        st.t.append(t)
        if l < n_layers:
            a, sp, spp, sppp = act.eval_derivs(z, deriv_order)
            st.a.append(a)
            st.sp.append(sp)
            st.spp.append(spp)
            st.sppp.append(sppp)
            st.g.append(sp[:, None, :] * u if order >= 1 else None)
            st.q.append(spp * np.einsum("nmp,nmp->np", u, u) + sp * t if order >= 2 else None)
        else:
            st.a.append(None)
            st.sp.append(None)
            st.spp.append(None)
            st.sppp.append(None)
            st.g.append(None)
            st.q.append(None)
    st.value = st.z[n_layers][:, 0]
    st.grad = st.u[n_layers][:, :, 0] if order >= 1 else None
    st.lap = st.t[n_layers][:, 0] if order >= 2 else None
    return st


def output_seeds(n, d, order):
    """Unit adjoint seeds of the outputs [value, grad_0..grad_{d-1}, lap].

    Returns ``(zbar, ubar, tbar)`` of shapes (n_out, N), (n_out, N, d) and
    (n_out, N), restricted to ``order`` (absent orders are None): row o
    seeds output o at every point.
    """
    n_out = 1 + (d if order >= 1 else 0) + (1 if order >= 2 else 0)
    zbar = np.zeros((n_out, n))
    zbar[0] = 1.0
    ubar = tbar = None
    if order >= 1:
        ubar = np.zeros((n_out, n, d))
        for m in range(d):
            ubar[1 + m, :, m] = 1.0
    if order >= 2:
        tbar = np.zeros((n_out, n))
        tbar[1 + d] = 1.0
    return zbar, ubar, tbar


def _pull_through_activation(st, j, abar, gbar, qbar):
    """Convert adjoints w.r.t. (a_j, g_j, q_j) into adjoints w.r.t. (z_j, u_j, t_j).

    Reverses a = sigma(z), g = sigma' u, q = sigma'' |u|^2 + sigma' t. The
    adjoints may carry a leading stacked-output axis; gbar/qbar are None
    when the corresponding carriers are absent.
    """
    sp = st.sp[j]
    zbar = abar * sp
    ubar = tbar = None
    if gbar is not None:
        spp = st.spp[j]
        u = st.u[j]
        if spp is not None:
            zbar = zbar + spp * np.einsum("...nmp,nmp->...np", gbar, u)
        ubar = gbar * sp[:, None, :]
    if qbar is not None:
        spp, sppp = st.spp[j], st.sppp[j]
        u, t = st.u[j], st.t[j]
        zbar = zbar + qbar * (sppp * np.einsum("nmp,nmp->np", u, u) + spp * t)
        ubar = ubar + (2.0 * qbar * spp)[..., None, :] * u
        tbar = qbar * sp
    return zbar, ubar, tbar


def _reverse_layers(params, st, zbar, ubar, tbar):
    """Yield ``(l, zbar, ubar, tbar)`` for l = L..1: the adjoints of (z_l, u_l, t_l).

    The seeds are the last layer's adjoints, of shapes (..., N, 1),
    (..., N, d, 1) and (..., N, 1) with an optional leading stacked-output
    axis; ubar/tbar are None when the state lacks that order. Each step
    reverses z_l = W_l a_{l-1} + b_l and then the activation of layer l-1.
    """
    for l in range(params.n_layers, 0, -1):
        yield l, zbar, ubar, tbar
        if l > 1:
            w = params.weights[l - 1]
            abar = zbar @ w
            gbar = ubar @ w if ubar is not None else None
            qbar = tbar @ w if tbar is not None else None
            zbar, ubar, tbar = _pull_through_activation(st, l - 1, abar, gbar, qbar)


def param_jacobians(params, points, order=2):
    """Stacked flat parameter Jacobians J_value (N,P), J_grad (N,d,P), J_lap (N,P).

    The materialized oracle of the tests; kernel assembly goes through
    ``factored_grams``, which never forms them. Layer l's weight block of
    one output at point i is L_i^T R_i, with L_i the (K, n_l) reverse-pass
    adjoints and R_i the (K, n_{l-1}) forward carriers (a, g_m, q), so one
    batched product per output writes it straight into a view of the
    result: no temporary is larger than one layer's slice of one output.
    """
    st = forward(params, points, order=order)
    n, d = st.x.shape
    p_total = params.param_count()
    j_value = np.zeros((n, p_total))
    j_grad = np.zeros((n, d, p_total)) if order >= 1 else None
    j_lap = np.zeros((n, p_total)) if order >= 2 else None
    outs = [j_value]  # in the order of the output seeds
    if order >= 1:
        outs += [j_grad[:, m] for m in range(d)]
    if order >= 2:
        outs.append(j_lap)
    seeds = [s[..., None] if s is not None else None for s in output_seeds(n, d, order)]
    slices = params.flat_slices()
    for l, zbar, ubar, tbar in _reverse_layers(params, st, *seeds):
        ws, bs = slices[l - 1]
        n_l, n_prev = params.weights[l - 1].shape
        lefts, rights = [zbar[:, :, None, :]], [st.a[l - 1][:, None, :]]
        if ubar is not None:
            lefts.append(ubar)
            rights.append(st.g[l - 1])
        if tbar is not None:
            lefts.append(tbar[:, :, None, :])
            rights.append(st.q[l - 1][:, None, :])
        left = np.concatenate(lefts, axis=2)  # (n_out, N, K, n_l)
        right = np.concatenate(rights, axis=1)  # (N, K, n_prev)
        for out, left_o, zbar_o in zip(outs, left, zbar):
            np.matmul(left_o.transpose(0, 2, 1), right, out=out[:, ws].reshape(n, n_l, n_prev))
            out[:, bs] = zbar_o
    return j_value, j_grad, j_lap


def _left_support(zbar, ubar, tbar):
    """Per combination, the set of left-factor indices k that can be nonzero.

    Reversing an activation feeds every adjoint into z, a t-adjoint into
    every u slot (through 2 qbar sigma'' u) and a u slot only into itself,
    so the seeds decide which factors stay zero in every layer.
    """
    d = ubar.shape[2] if ubar is not None else 0
    support = []
    for c in range(zbar.shape[0]):
        has_t = tbar is not None and bool(tbar[c].any())
        ks = {0}
        if ubar is not None:
            ks.update(1 + m for m in range(d) if has_t or ubar[c, :, m].any())
        if has_t:
            ks.add(1 + d)
        support.append(ks)
    return support


def factored_grams(params, st, zbar, ubar=None, tbar=None, pairs=((0, 0),)):
    """Grams of the parameter gradients of per-point output combinations.

    Combination c at point x_i is F_c(x_i) = zbar[c, i] N(x_i)
    + ubar[c, i] . grad N(x_i) + tbar[c, i] lap N(x_i); the seeds have
    shapes (C, N), (C, N, d) and (C, N), and ubar/tbar are None to leave
    those outputs out. Returns an array of shape (len(pairs), N, N) whose
    entry for the pair (c, c') is [<dF_c(x_i)/dtheta, dF_c'(x_j)/dtheta>]_ij.

    Layer l's weight gradient of F_c at x_i is a sum of K = d + 2 outer
    products sum_k L_k[i] (x) R_k[i]: the left factors are the reverse-pass
    adjoints (zbar_l, ubar_l[:, m], tbar_l) of the combination, the right
    factors the forward carriers (a_{l-1}, g_{l-1}[:, m], q_{l-1}), and the
    bias gradient is L_0[i]. The layer's Gram is therefore
    sum_{k,k'} (L_k L_k'^T) o (R_k R_k'^T) + L_0 L_0^T, accumulated one
    (k, k') pair at a time: O(K^2 N^2 width) work, O(N^2 + N width)
    scratch, and no N x P array. Diagonal pairs (c, c) are assembled from
    k <= k' and returned exactly symmetric.
    """
    n, d = st.x.shape
    if (ubar is not None and st.order < 1) or (tbar is not None and (st.order < 2 or ubar is None)):
        raise ValueError("the seeds need a forward state of matching order")
    support = _left_support(zbar, ubar, tbar)
    seeds = [s[..., None] if s is not None else None for s in (zbar, ubar, tbar)]
    out = np.zeros((len(pairs), n, n))
    for l, zb, ub, tb in _reverse_layers(params, st, *seeds):
        lefts, rights = [zb], [st.a[l - 1]]
        if ub is not None:
            lefts += [np.ascontiguousarray(ub[:, :, m]) for m in range(d)]
            rights += [np.ascontiguousarray(st.g[l - 1][:, m]) for m in range(d)]
        if tb is not None:
            lefts.append(tb)
            rights.append(st.q[l - 1] if l > 1 else None)  # the inputs have no Laplacian
        _accumulate_layer_grams(out, pairs, support, lefts, rights)
    for p, (c, c2) in enumerate(pairs):
        if c == c2:
            out[p] = out[p] + out[p].T
    return out


def _accumulate_layer_grams(out, pairs, support, lefts, rights):
    """Add one layer's sum_{k,k'} (L_k L_k'^T) o (R_k R_k'^T) to every pair's Gram.

    Each R_k R_k'^T with k <= k' is formed once and shared by all pairs; the
    (k', k) term of an off-diagonal pair uses its transpose. Diagonal pairs
    take k <= k' only, with the k = k' terms halved, and are completed by
    adding their transpose.
    """
    n_factors = len(lefts)
    for k in range(n_factors):
        for k2 in range(k, n_factors):
            if rights[k] is None or rights[k2] is None:
                continue
            terms = []  # (pair index, left of c, left of c', transposed, halved)
            for p, (c, c2) in enumerate(pairs):
                if k in support[c] and k2 in support[c2]:
                    terms.append((p, lefts[k][c], lefts[k2][c2], False, c == c2 and k == k2))
                if c != c2 and k != k2 and k2 in support[c] and k in support[c2]:
                    terms.append((p, lefts[k2][c], lefts[k][c2], True, False))
            if not terms:
                continue
            rr = rights[k] @ rights[k2].T
            if k == k2 == 0:
                rr += 1.0  # the bias gradient is L_0 (x) 1
            for p, left_x, left_y, transposed, halved in terms:
                ll = left_x @ left_y.T
                ll *= rr.T if transposed else rr
                if halved:
                    ll *= 0.5
                out[p] += ll


def weighted_residual_gradient(params, st, w_value, w_grad, w_lap):
    """Gradient over flat parameters of sum_n [wv_n N_n + wg_n . grad N_n + wl_n lap N_n].

    This is the reverse pass used in the training hot loop; the per-layer
    weight gradients are reduced over points immediately, so nothing of
    size N x P is ever materialized.
    """
    n, d = st.x.shape
    order = st.order
    zbar = w_value[:, None].copy() if w_value is not None else np.zeros((n, 1))
    ubar = tbar = None
    if order >= 1:
        ubar = np.zeros((n, d, 1))
        if w_grad is not None:
            ubar[:, :, 0] = w_grad
    if order >= 2:
        tbar = np.zeros((n, 1))
        if w_lap is not None:
            tbar[:, 0] = w_lap
    slices = params.flat_slices()
    grad_flat = np.zeros(params.param_count())
    for l, zbar, ubar, tbar in _reverse_layers(params, st, zbar, ubar, tbar):
        a_prev, g_prev, q_prev = st.a[l - 1], st.g[l - 1], st.q[l - 1]
        wbar = zbar.T @ a_prev
        if ubar is not None:
            wbar += ubar.reshape(n * d, -1).T @ np.ascontiguousarray(g_prev).reshape(n * d, -1)
        if tbar is not None:
            wbar += tbar.T @ q_prev
        ws, bs = slices[l - 1]
        grad_flat[ws] = wbar.ravel()
        grad_flat[bs] = zbar.sum(axis=0)
    return grad_flat
