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

    ``eval_derivs(z, order, out)`` returns (a, s1, s2, s3); entries above
    the requested order (and above ``max_order``) are None. The entries
    are written into the ``n_arrays(order)`` arrays of ``out``.
    Derivatives are expressed through the activation value where possible
    so each is a cheap elementwise expression; the in-place steps keep the
    operand order of the plain expressions, so both give the same bits.
    """

    def __init__(self, name, derivs, max_order, s3_is_s2=False):
        self.name = name
        self._derivs = derivs
        self.max_order = max_order  # highest usable input-derivative order
        self._s3_is_s2 = s3_is_s2  # piecewise-exponential: s3 equals s2 and is returned as it

    def n_arrays(self, order):
        """Number of arrays ``eval_derivs`` writes at ``order``: a, s1, then s2 and s3."""
        if order < 2:
            return 2
        return 3 if self._s3_is_s2 else 4

    def eval_derivs(self, z, order, out):
        return self._derivs(z, order, *out, *[None] * (4 - len(out)))


def _tanh_derivs(z, order, a, s1, s2, s3):
    np.tanh(z, out=a)
    np.multiply(a, a, out=s1)
    np.subtract(1.0, s1, out=s1)  # 1 - a*a
    if order >= 2:
        np.multiply(a, -2.0, out=s2)
        s2 *= s1  # -2a * s1
        np.multiply(a, 3.0, out=s3)
        s3 *= a
        np.subtract(1.0, s3, out=s3)
        s3 *= s1
        s3 *= -2.0  # -2 s1 (1 - 3a*a); scaling by -2 is exact
    return a, s1, s2, s3


def _sigmoid_derivs(z, order, a, s1, s2, s3):
    np.negative(z, out=a)
    np.exp(a, out=a)
    a += 1.0
    np.divide(1.0, a, out=a)  # 1 / (1 + exp(-z))
    if order >= 2:  # s1 and s2 serve as scratch for s3 = 1 - 6a + 6a*a first
        np.multiply(a, 6.0, out=s2)
        np.subtract(1.0, s2, out=s3)
        s2 *= a
        s3 += s2
    np.subtract(1.0, a, out=s1)
    s1 *= a  # a (1 - a)
    if order >= 2:
        np.multiply(a, 2.0, out=s2)
        np.subtract(1.0, s2, out=s2)
        s2 *= s1  # s1 (1 - 2a)
        s3 *= s1
    return a, s1, s2, s3


def _relu_derivs(z, order, a, s1, *_):
    np.maximum(z, 0.0, out=a)
    np.greater(z, 0.0, out=s1)
    return a, s1, None, None


def _leaky_relu_derivs(z, order, a, s1, *_):
    pos = z > 0.0
    np.multiply(z, 0.01, out=a)
    np.copyto(a, z, where=pos)
    s1.fill(0.01)
    np.copyto(s1, 1.0, where=pos)
    return a, s1, None, None


def _elu_derivs(z, order, a, s1, s2, _, lam=1.0, alpha=1.0):
    pos = z > 0.0
    np.expm1(z, out=a)
    a *= lam * alpha
    np.multiply(z, lam, out=a, where=pos)
    # a + lam*alpha equals lam*alpha*exp(z) on the negative branch
    np.add(a, lam * alpha, out=s1)
    np.copyto(s1, lam, where=pos)
    if order >= 2:
        np.add(a, lam * alpha, out=s2)
        np.copyto(s2, 0.0, where=pos)
        return a, s1, s2, s2
    return a, s1, None, None


ACTIVATIONS = {
    "tanh": Activation("tanh", _tanh_derivs, max_order=2),
    "sigmoid": Activation("sigmoid", _sigmoid_derivs, max_order=2),
    "relu": Activation("relu", _relu_derivs, max_order=1),
    "leaky_relu": Activation("leaky_relu", _leaky_relu_derivs, max_order=1),
    "elu": Activation("elu", _elu_derivs, max_order=2, s3_is_s2=True),
    "selu": Activation(
        "selu",
        lambda z, order, *out: _elu_derivs(z, order, *out, lam=_SELU_LAMBDA, alpha=_SELU_ALPHA),
        max_order=2,
        s3_is_s2=True,
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
        """Parameters of this shape holding a copy of ``flat``."""
        return self.view(np.array(flat, dtype=np.float64))

    def view(self, flat):
        """Parameters of this shape whose weights and biases are views of ``flat``."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.param_count():
            raise ConfigError(f"flat vector has {flat.size} entries, expected {self.param_count()}")
        weights, biases = [], []
        for w, (ws, bs) in zip(self.weights, self.flat_slices()):
            weights.append(flat[ws].reshape(w.shape))
            biases.append(flat[bs])
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


def _take(ws, key, shape):
    """An array of ``shape`` from the workspace dict, or a fresh one without one.

    A workspace maps (key, shape) to the array first allocated for it and
    hands that same array back on every later request; its contents are
    whatever the last user left.
    """
    if ws is None:
        return np.empty(shape)
    arr = ws.get((key, shape))
    if arr is None:
        arr = ws[(key, shape)] = np.empty(shape)
    return arr


def _matmul(a, b, out):
    """``a @ b`` into ``out`` as one 2-D product over the leading axes of ``a``.

    Stacked operands, the (N, d, w) input-Jacobian carriers and the
    (C, N, d, w) adjoints, make one (C N d, w) GEMM rather than a small
    matmul per point, rounded differently from the stacked product. ``out``
    must be C-contiguous: the result is written through its reshape, which
    would otherwise be a copy.

    An inner dimension of 1 (a 1D input layer, the scalar output layer)
    makes every entry a single product, which one einsum forms with the
    same values as the matmul and without its per-matrix call overhead.
    """
    if not out.flags.c_contiguous:
        raise ValueError("_matmul writes through a reshape of out, which must be C-contiguous")
    if a.shape[-1] == 1:
        return np.einsum("...i,ij->...j", a, b, out=out)
    np.matmul(a.reshape(-1, a.shape[-1]), b, out=out.reshape(-1, b.shape[-1]))
    return out


class ForwardState:
    """Per-layer values and input derivatives for a batch of points.

    ``order`` selects which carriers exist: 0 values only, 1 adds input
    Jacobians (``u`` for the pre-activations, ``g`` for the activations),
    2 adds input Laplacians (``t`` and ``q``) and ``uu`` = |u|^2 per
    neuron. ``ws`` is the workspace the carriers live in (None when they
    were freshly allocated); the reverse passes take their arrays from it.
    """

    __slots__ = ("x", "order", "ws", "z", "a", "u", "g", "t", "q", "uu", "sp", "spp", "sppp",
                 "value", "grad", "lap")


def _require_order(params, order):
    act = params.activation_def()
    if order > act.max_order:
        raise UnsupportedActivation(
            f"activation '{act.name}' does not support order-{order} evaluation"
        )


def forward(params, points, order=2, ws=None):
    """Extended forward pass over a batch of points (shape (N, d)).

    At order 2 each neuron carries its input Laplacian, propagated through
    Lap(sigma(z)) = sigma''(z) |grad z|^2 + sigma'(z) Lap(z), so no d x d
    input Hessian is ever formed. Activation derivatives are kept one order
    above ``order``, as the reverse passes need them. With a workspace
    (a dict, see ``_take``) every carrier is written into its arrays, so the state stays valid only
    until the next pass over the same workspace.
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
    st.ws = ws
    st.z, st.a, st.u, st.g, st.t, st.q, st.uu = [None], [x], [None], [None], [None], [None], [None]
    if order >= 1:
        st.g[0] = _take(ws, ("g", 0), (n, d, d))
        st.g[0][...] = np.eye(d)
    if order >= 2:
        st.q[0] = _take(ws, ("q", 0), (n, d))
        st.q[0].fill(0.0)
    st.sp, st.spp, st.sppp = [None], [None], [None]
    n_layers = params.n_layers
    for l in range(1, n_layers + 1):
        w = params.weights[l - 1]
        width = w.shape[0]
        z = _matmul(st.a[l - 1], w.T, out=_take(ws, ("z", l), (n, width)))
        z += params.biases[l - 1]
        u = _matmul(st.g[l - 1], w.T, out=_take(ws, ("u", l), (n, d, width))) if order >= 1 else None
        t = _matmul(st.q[l - 1], w.T, out=_take(ws, ("t", l), (n, width))) if order >= 2 else None
        st.z.append(z)
        st.u.append(u)
        st.t.append(t)
        if l < n_layers:
            keys = ("a", "sp", "spp", "sppp")[: act.n_arrays(deriv_order)]
            a, sp, spp, sppp = act.eval_derivs(
                z, deriv_order, [_take(ws, (key, l), (n, width)) for key in keys]
            )
            st.a.append(a)
            st.sp.append(sp)
            st.spp.append(spp)
            st.sppp.append(sppp)
            g = uu = q = None
            if order >= 1:
                g = np.multiply(sp[:, None, :], u, out=_take(ws, ("g", l), (n, d, width)))
            if order >= 2:
                uu = np.einsum("nmp,nmp->np", u, u, out=_take(ws, ("uu", l), (n, width)))
                q = np.multiply(spp, uu, out=_take(ws, ("q", l), (n, width)))
                q += np.multiply(sp, t, out=_take(ws, "tmp", (n, width)))
            st.g.append(g)
            st.uu.append(uu)
            st.q.append(q)
        else:
            for carriers in (st.a, st.sp, st.spp, st.sppp, st.g, st.uu, st.q):
                carriers.append(None)
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
    when the corresponding carriers are absent. The results are written
    over abar, gbar and qbar; scratch comes from the state's workspace.
    """
    ws = st.ws
    sp, spp = st.sp[j], st.spp[j]
    zbar = abar
    zbar *= sp
    ubar = tbar = None
    tmp = _take(ws, "tmp", abar.shape)
    if gbar is not None:
        u = st.u[j]
        if spp is not None:
            zbar += np.multiply(spp, np.einsum("...nmp,nmp->...np", gbar, u, out=tmp), out=tmp)
        ubar = gbar
        ubar *= sp[:, None, :]
    if qbar is not None:  # tmp is free again here, and may be the array "tmp" of t's shape
        u, t = st.u[j], st.t[j]
        s_t = np.multiply(st.sppp[j], st.uu[j], out=_take(ws, "tmp2", t.shape))
        s_t += np.multiply(spp, t, out=_take(ws, "tmp", t.shape))  # d/dz of q
        zbar += np.multiply(qbar, s_t, out=tmp)
        c = np.multiply(qbar, 2.0, out=tmp)
        c *= spp
        ubar += np.multiply(c[..., None, :], u, out=_take(ws, "big", ubar.shape))
        tbar = qbar
        tbar *= sp
    return zbar, ubar, tbar


def _reverse_layers(params, st, zbar, ubar, tbar):
    """Yield ``(l, zbar, ubar, tbar)`` for l = L..1: the adjoints of (z_l, u_l, t_l).

    The seeds are the last layer's adjoints, of shapes (..., N, 1),
    (..., N, d, 1) and (..., N, 1) with an optional leading stacked-output
    axis; ubar/tbar are None when the state lacks that order. Each step
    reverses z_l = W_l a_{l-1} + b_l and then the activation of layer l-1.
    Each layer's adjoints live in arrays of their own (from the state's
    workspace, when it has one).
    """
    ws = st.ws
    for l in range(params.n_layers, 0, -1):
        yield l, zbar, ubar, tbar
        if l > 1:
            w = params.weights[l - 1]
            k = l - 1
            abar = _matmul(zbar, w, out=_take(ws, ("zbar", k), zbar.shape[:-1] + w.shape[1:]))
            gbar = qbar = None
            if ubar is not None:
                gbar = _matmul(ubar, w, out=_take(ws, ("ubar", k), ubar.shape[:-1] + w.shape[1:]))
            if tbar is not None:
                qbar = _matmul(tbar, w, out=_take(ws, ("tbar", k), tbar.shape[:-1] + w.shape[1:]))
            zbar, ubar, tbar = _pull_through_activation(st, k, abar, gbar, qbar)


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


def factored_grams(params, st, zbar, ubar=None, tbar=None):
    """The Gram of the parameter gradients of one or two per-point output combinations.

    Combination c at point x_i is F_c(x_i) = zbar[c, i] N(x_i)
    + ubar[c, i] . grad N(x_i) + tbar[c, i] lap N(x_i); the seeds have
    shapes (C, N), (C, N, d) and (C, N) with C = 1 or 2, and ubar/tbar are
    None to leave those outputs out. Returns the (N, N) Gram
    [<dF_c(x_i)/dtheta, dF_c'(x_j)/dtheta>]_ij of the first combination c
    with the last c': the combination's own Gram for C = 1, the cross Gram
    of the two for C = 2.

    Layer l's weight gradient of F_c at x_i is a sum of K = d + 2 outer
    products Phi_c[i] = sum_k L_k[i] (x) R_k[i]: the left factors are the
    reverse-pass adjoints (zbar_l, ubar_l[:, m], tbar_l) of the
    combination, the right factors the forward carriers (a_{l-1},
    g_{l-1}[:, m], q_{l-1}), and the bias gradient is L_0[i]. Each layer's
    Gram is contracted whichever way takes fewer operations per Gram entry
    (``_phi_is_cheaper``):

    * factored: sum_{k,k'} (L_k L_k'^T) o (R_k R_k'^T) + L_0 L_0^T, one
      (k, k') pair at a time; about K^2 (n_{l-1} + n_l) per entry;
    * through Phi: the per-point gradients themselves, an
      N x n_l (n_{l-1} + 1) block of Phi_c, contracted as Phi_c Phi_c'^T;
      n_l (n_{l-1} + 1) per entry.

    With all K factors, Phi wins on the thin layers, the input layer (whose
    right factors are d wide) and the scalar output layer; with the single
    factor of the value alone, on the output layer only, which costs
    n_{l-1} + 2 per entry through Phi against at least n_{l-1} + 3
    factored, so Phi is never empty. The factored sum wins on the square
    hidden layers, where Phi would hold N n_l n_{l-1} entries. Because a
    layer goes through Phi only when n_l (n_{l-1} + 1) is below its
    factored count, Phi never holds more than O(K^2 N width) entries per
    combination. The Phi blocks of all such layers sit side by side, so
    the Gram takes them in one matrix product.

    The Gram is accumulated in row panels of ``PANEL_ROWS`` rows: every
    product of a factored layer, the Phi Gram and the completion of a
    one-combination Gram (``add_transpose``) are formed one p x N panel at
    a time, and BLAS reads the strided factor views as they are. Scratch is
    Phi and two p x N panels, taken from the state's workspace (fresh
    without one), and no N x P array is formed. The returned Gram is
    always a fresh array. A one-combination Gram takes k <= k' in the
    factored sum and is returned exactly symmetric.
    """
    n, d = st.x.shape
    if zbar.shape[0] not in (1, 2):
        raise ValueError("factored_grams takes one or two combinations")
    if (ubar is not None and st.order < 1) or (tbar is not None and (st.order < 2 or ubar is None)):
        raise ValueError("the seeds need a forward state of matching order")
    support = _left_support(zbar, ubar, tbar)
    seeds = [s[..., None] if s is not None else None for s in (zbar, ubar, tbar)]
    n_factors = 1 + (d if ubar is not None else 0) + (1 if tbar is not None else 0)
    plans, phi_layers = {}, []  # the factored plan of each layer, or its place in Phi
    for l in range(1, params.n_layers + 1):
        has_right = [True] * n_factors
        if tbar is not None and l == 1:
            has_right[-1] = False  # the inputs have no Laplacian
        plan = _factored_plan(support, has_right)
        n_l, n_prev = params.weights[l - 1].shape
        if _phi_is_cheaper(plan, n_l, n_prev):
            phi_layers.append(l)
        else:
            plans[l] = plan
    phi_cols = sum(params.weights[l - 1].size + params.biases[l - 1].size for l in phi_layers)
    ws = st.ws
    phi = _take(ws, "phi", (zbar.shape[0], n, phi_cols))
    panels = _gram_panels(ws, n)
    out = np.zeros((n, n))
    col = 0
    for l, zb, ub, tb in _reverse_layers(params, st, *seeds):
        lefts, rights = [zb], [st.a[l - 1]]
        if ub is not None:
            lefts += [ub[:, :, m] for m in range(d)]
            rights += [st.g[l - 1][:, m] for m in range(d)]
        if tb is not None:
            lefts.append(tb)
            rights.append(st.q[l - 1] if l > 1 else None)
        if l in plans:
            _accumulate_layer_grams(out, plans[l], lefts, rights, panels)
        else:
            n_l, n_prev = params.weights[l - 1].shape
            width = n_l * (n_prev + 1)
            _write_layer_gradients(phi[:, :, col : col + width].reshape(-1, n, n_prev + 1, n_l),
                                   lefts, rights, ws)
            col += width
    if len(support) == 1:  # complete the k <= k' half sum, adding the Phi Gram on the way
        add_transpose(out, ws, phi[0])
    else:
        for rows in _row_panels(n):
            out[rows] += np.matmul(phi[0][rows], phi[-1].T, out=panels[1, : rows.stop - rows.start])
    return out


# Rows per panel of Gram accumulation. A Gram of at most this many points
# is one panel, which takes every product whole, as an unpaneled sum would.
PANEL_ROWS = 128


def _row_panels(n):
    """Row slices of at most ``PANEL_ROWS`` rows that tile range(n)."""
    return [slice(i, min(i + PANEL_ROWS, n)) for i in range(0, n, PANEL_ROWS)]


def _gram_panels(ws, n):
    """The two p x N scratch panels of Gram accumulation, p = min(PANEL_ROWS, N)."""
    return _take(ws, "gram panels", (2, min(PANEL_ROWS, n), n))


def add_transpose(k, ws, phi=None):
    """k + k^T, plus the Gram phi phi^T when given, into ``k``, one row panel at a time.

    Row panel I (first row i) sums k[I, i:] + k[i:, I]^T, adds the Phi
    Gram block phi[I] phi[i:]^T, whose diagonal block is one symmetric
    product, and writes the sum into k[I, i:] and its transpose into
    k[i:, I]. The result is exactly symmetric, and the scratch is the two
    p x N panels of the workspace ``ws`` (fresh without one).
    """
    n = k.shape[0]
    sums, grams = _gram_panels(ws, n)
    for rows in _row_panels(n):
        i, p = rows.start, rows.stop - rows.start
        s = np.add(k[rows, i:], k[i:, rows].T, out=sums[:p, : n - i])
        if phi is not None:
            g = grams[:p, : n - i]
            np.matmul(phi[rows], phi[rows].T, out=g[:, :p])
            np.matmul(phi[rows], phi[rows.stop :].T, out=g[:, p:])
            s += g
        k[rows, i:] = s
        k[i:, rows] = s.T


def _factored_plan(support, has_right):
    """The steps of one layer's factored sum: ``(k, k', terms)`` for k <= k'.

    Each term ``(transposed, halved)`` adds (L_k[c] L_k'[c']^T) o (R_k
    R_k'^T) to the Gram of combination c with c', the first with the last;
    a transposed term is the (k', k) term of a cross Gram, (L_k'[c]
    L_k[c']^T) o (R_k R_k'^T)^T. A one-combination Gram takes k <= k' only,
    with the k = k' terms halved, and is completed by adding its transpose.
    Factors without a right factor, or zero in the combination that takes
    them, add no term.
    """
    first, last = support[0], support[-1]
    cross = len(support) > 1
    plan = []
    n_factors = len(has_right)
    for k in range(n_factors):
        for k2 in range(k, n_factors):
            if not (has_right[k] and has_right[k2]):
                continue
            terms = []
            if k in first and k2 in last:
                terms.append((False, not cross and k == k2))
            if cross and k != k2 and k2 in first and k in last:
                terms.append((True, False))
            if terms:
                plan.append((k, k2, terms))
    return plan


def _phi_is_cheaper(plan, n_l, n_prev):
    """Whether one layer's Gram costs fewer operations per entry through Phi.

    Counted per Gram entry, one operation per multiply-add of a matrix
    product and one per elementwise pass: the factored sum takes n_{l-1}
    for each R_k R_k'^T and n_l + 2 for each term (its L L^T, the Hadamard
    product and the sum), the Phi contraction n_l (n_{l-1} + 1) + 1.
    Forming Phi is O(N) per entry row and left out.
    """
    factored = sum(n_prev + len(terms) * (n_l + 2) for _, _, terms in plan)
    return n_l * (n_prev + 1) + 1 < factored


def _write_layer_gradients(block, lefts, rights, ws):
    """Write one layer's per-point gradients into its block of Phi.

    ``block`` has shape (C, N, n_{l-1} + 1, n_l): the transposed weight
    gradient sum_k R_k (x) L_k in its first n_{l-1} rows, the bias
    gradient L_0 in the last. The order of a Gram's columns does not
    change it, and this one keeps the layer's n_l, the long axis of the
    thin input layer, innermost. Each outer product is formed from the
    adjoint and carrier views in place, with one scratch array for the
    products after the first (from the workspace ``ws``, when there is one).
    """
    (left, right), *rest = [(lf, r) for lf, r in zip(lefts, rights) if r is not None]
    weights = np.multiply(right[:, :, None], left[:, :, None, :], out=block[:, :, :-1])
    tmp = _take(ws, "phi tmp", weights.shape) if rest else None
    for left, right in rest:
        weights += np.multiply(right[:, :, None], left[:, :, None, :], out=tmp)
    np.copyto(block[:, :, -1], lefts[0])


def _accumulate_layer_grams(out, plan, lefts, rights, panels):
    """Add one layer's factored sum of ``_factored_plan`` to the Gram ``out``, one row panel at a time.

    For rows I, each R_k[I] R_k'^T is formed once and shared by the terms
    of its step. A term adds its rows I, and a transposed term its columns
    I, (L_k'[c] L_k[c'][I]^T) o (R_k[I] R_k'^T)^T. The products are
    written into the two p x N ``panels``, so the call allocates nothing of
    size N x N, and a Gram of one panel forms every product as a sum over
    whole N x N products would.
    """
    n = out.shape[0]
    for rows in _row_panels(n):
        p = rows.stop - rows.start
        rr, ll = panels[:, :p]
        for k, k2, terms in plan:
            np.matmul(rights[k][rows], rights[k2].T, out=rr)
            if k == k2 == 0:
                rr += 1.0  # the bias gradient is L_0 (x) 1
            for transposed, halved in terms:
                if transposed:
                    term = np.matmul(lefts[k2][0], lefts[k][-1][rows].T, out=ll.reshape(n, p))
                    term *= rr.T
                    target = out[:, rows]
                else:
                    term = np.matmul(lefts[k][0][rows], lefts[k2][-1].T, out=ll)
                    term *= rr
                    target = out[rows]
                if halved:
                    term *= 0.5
                target += term


def weighted_residual_gradient(params, st, w_value, w_grad, w_lap):
    """Gradient over flat parameters of sum_n [wv_n N_n + wg_n . grad N_n + wl_n lap N_n].

    This is the reverse pass used in the training hot loop; the per-layer
    weight gradients are reduced over points immediately, so nothing of
    size N x P is ever materialized. Adjoints and scratch come from the
    state's workspace; the returned gradient is always a fresh array.
    """
    n, d = st.x.shape
    order = st.order
    ws = st.ws
    top = params.n_layers
    zbar = _take(ws, ("zbar", top), (n, 1))
    zbar[:, 0] = w_value if w_value is not None else 0.0
    ubar = tbar = None
    if order >= 1:
        ubar = _take(ws, ("ubar", top), (n, d, 1))
        ubar[:, :, 0] = w_grad if w_grad is not None else 0.0
    if order >= 2:
        tbar = _take(ws, ("tbar", top), (n, 1))
        tbar[:, 0] = w_lap if w_lap is not None else 0.0
    slices = params.flat_slices()
    grad_flat = np.empty(params.param_count())
    for l, zbar, ubar, tbar in _reverse_layers(params, st, zbar, ubar, tbar):
        w_slice, b_slice = slices[l - 1]
        shape = params.weights[l - 1].shape
        wbar = np.matmul(zbar.T, st.a[l - 1], out=grad_flat[w_slice].reshape(shape))
        tmp = _take(ws, "wbar", shape)
        if ubar is not None:
            wbar += np.matmul(ubar.reshape(n * d, -1).T, st.g[l - 1].reshape(n * d, -1), out=tmp)
        if tbar is not None:
            wbar += np.matmul(tbar.T, st.q[l - 1], out=tmp)
        zbar.sum(axis=0, out=grad_flat[b_slice])
    return grad_flat
