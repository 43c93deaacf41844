"""Assembly of the three tangent kernels K_n, K_t, K_r, and the trial ansatz.

K_t and K_r each have two permanently tested construction paths:

* direct — combine the network outputs pointwise into the trial function /
  residual first and take the Gram of that combination's parameter
  gradients (combine, then Gram);
* composed — build the component kernels of each derivative order first and
  combine them afterwards (Gram, then combine): diag(B) K_n diag(B) for
  K_t, and for K_r, whose residual is r = w . (N, grad N, lap N) with
  w = (alpha, beta, gamma), the law K_r = sum_{a,b} diag(w_a) G_ab diag(w_b),
  where G_ab = G_ba^T is the Gram of outputs a and b.

Every Gram comes from ``net.factored_grams``. Per layer, the weight gradient
of a pointwise output combination at one point is a sum of K = d + 2 outer
products of reverse-pass adjoints with forward carriers, and each layer's
Gram is contracted whichever way counts fewer operations per entry. A
square hidden layer takes a sum of Hadamard products of N x N factor Grams,
whose cost grows with the layer width, not with its square. The thin
layers (the input layer, with d-wide right factors, and the scalar output
layer) of K_r and the component kernels form their per-point gradients
Phi, of N x n_l (n_{l-1} + 1) entries, and contract them in one matrix
product per Gram: that is the cheaper count there, and it keeps Phi within
O(K^2 N width) entries. K_n and K_t have one factor (K = 1), so only their
output layer goes through Phi. No N x P Jacobian is ever formed.

Assembly runs in one workspace that lasts across calls (see ``net._take``):
the forward carriers, the reverse-pass adjoints, Phi and the Gram scratch
of the last problem shape (layer sizes and points) stay allocated, so a
sweep over boundary functions, which keeps the network and the points,
allocates little beyond the Grams it returns. A new shape empties the
workspace. Every returned kernel is a fresh array. The workspace belongs
to the process, so two threads must not assemble at once.

The component kernels are the exception: ``component_kernels`` builds
them outside the workspace, one pair of outputs at a time, in arrays
freed on return. They depend on the network and the points alone, so a
K_r sweep that composes builds them once and keeps only the stack, one
N x N Gram per ``output_pairs`` entry; ``sweep_path`` says where it
composes (where the stack is no larger than the network) and where it
assembles each K_r directly.
"""

from dataclasses import dataclass

import numpy as np

from . import net, pde
from .linalg import SymMatrix


@dataclass
class TrialFunction:
    """Hard-constraint ansatz u~ = B * N.

    The general ansatz is A + B * N, with A matching the Dirichlet data.
    Every benchmark has homogeneous data, so A = 0; and A does not depend
    on the parameters, so it would not enter K_t or K_r either.
    """

    pair: object
    params: object


@dataclass
class TrialEval:
    value: np.ndarray  # (N,)
    grad: np.ndarray  # (N, d)
    lap: np.ndarray  # (N,)


_ws, _ws_shape = {}, None


def _workspace(params, x):
    """The assembly workspace, emptied when the problem shape changes."""
    global _ws_shape
    shape = (params.layer_sizes, x.shape)
    if shape != _ws_shape:
        _ws.clear()
        _ws_shape = shape
    return _ws


def _symmetrize(k, ws):
    """(k + k^T) / 2 into ``k``, summed in the workspace's ``net.factored_grams`` scratch."""
    s = net._take(ws, "gram scratch", (2, *k.shape))[0]
    np.add(k, k.T, out=s)
    np.multiply(s, 0.5, out=k)
    return SymMatrix(k)


def trial_eval(trial, points):
    """Trial value, gradient, and Laplacian.

    u~    = B N
    grad  = N grad B + B grad N
    lap   = N lap B + 2 grad B . grad N + B lap N
    """
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    pair = trial.pair
    st = net.forward(trial.params, x, order=2)
    b = pair.value(x)
    gb = pair.grad(x)
    lb = pair.lap(x)
    value = b * st.value
    grad = st.value[:, None] * gb + b[:, None] * st.grad
    lap = st.value * lb + 2.0 * np.sum(gb * st.grad, axis=1) + b * st.lap
    return TrialEval(value=value, grad=grad, lap=lap)


def assemble_kn(params, points):
    """K_n = J0 J0^T, the Gram of the network-value parameter Jacobian rows.

    Per-point weight gradients of the value are rank one, so the factored
    Gram reduces to one term per layer, (Zbar_l Zbar_l^T) o
    (A_{l-1} A_{l-1}^T + 1): no N x P array is formed, which scales to
    widths in the thousands.
    """
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if x.shape[0] < 1:
        raise ValueError("points must be nonempty")
    st = net.forward(params, x, order=0, ws=_workspace(params, x))
    return SymMatrix(net.factored_grams(params, st, np.ones((1, x.shape[0])))[0])


def assemble_kt(params, pair, points, path="composed"):
    """Trial-function kernel via diag(B) K_n diag(B) or the scaled-row Gram."""
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    b = pair.value(x)
    if path == "composed":
        kn = assemble_kn(params, x).a  # a fresh array, scaled in place
        kn *= b[:, None]
        kn *= b[None, :]
        return _symmetrize(kn, _workspace(params, x))
    if path == "direct":
        st = net.forward(params, x, order=0, ws=_workspace(params, x))
        return SymMatrix(net.factored_grams(params, st, b[None, :])[0])
    raise ValueError(f"unknown path '{path}'")


def output_pairs(d):
    """The (2 + d)(3 + d) / 2 pairs a <= b of the outputs value, grad_0..grad_{d-1}, lap."""
    return [(a, b) for a in range(2 + d) for b in range(a, 2 + d)]


def component_kernels(params, points):
    """The component kernels of the composition law, {(a, b): G_ab} over ``output_pairs``.

    G_ab (N, N) is the Gram [<dF_a(x_i)/dtheta, dF_b(x_j)/dtheta>]_ij of
    outputs a and b; the pairs b < a are left out, since G_ba = G_ab^T.

    The components are built outside the assembly workspace, in arrays
    freed on return, and each pair of outputs takes its own
    ``net.factored_grams`` call, so the build never holds the (2 + d)
    stacked adjoints or their Phi. A sweep builds them once per network
    and points (see ``sweep_path``), and the workspace keeps nothing of a
    build.
    """
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    st = net.forward(params, x, order=2)
    n, d = x.shape
    zbar, ubar, tbar = net.output_seeds(n, d, 2)

    def gram(a, b):
        # Seed only the orders the two outputs use.
        rows = [a] if a == b else [a, b]
        seeds = (zbar[rows], ubar[rows] if b > 0 else None, tbar[rows] if b == 1 + d else None)
        return net.factored_grams(params, st, *seeds, pairs=((0, len(rows) - 1),))[0]

    return {(a, b): gram(a, b) for a, b in output_pairs(d)}


def compose_kr(comp, coeff):
    """K_r = sum_{a <= b} diag(w_a) G_ab diag(w_b), plus its transpose for a != b.

    w = (alpha, beta_0..beta_{d-1}, gamma) are the residual's pointwise
    weights of the outputs, and ``comp`` the ``component_kernels``, which
    are only read. Each term is formed in one N x N scratch array.
    """
    w = np.vstack((coeff.alpha, coeff.beta.T, coeff.gamma))
    n = w.shape[1]
    k, term = np.zeros((n, n)), np.empty((n, n))
    for (a, b), g in comp.items():
        np.multiply(w[a][:, None], g, out=term)
        term *= w[b]
        k += term
        if a != b:
            k += term.T
    return k


def sweep_path(params, n_points):
    """The ``assemble_kr`` path of a sweep over boundary functions on one network and grid.

    Composed where the component stack, one N^2 Gram per ``output_pairs``
    entry, is no larger than the network's parameter count, direct
    elsewhere. The stack a sweep keeps is then never larger than the
    network it belongs to, and composing one K_r from it takes about the
    stack's size in operations, against the direct assembly's reverse pass
    over the parameters at every point.
    """
    stack = len(output_pairs(params.input_dim)) * n_points**2
    return "composed" if stack <= params.param_count() else "direct"


def assemble_kr(params, problem, pair, points, path="direct", comp=None):
    """Residual kernel: Gram of J_r rows, or the composition law over ``component_kernels``.

    J_r(r_i) = alpha_i dN/dtheta + beta_i . d(grad N)/dtheta
             + gamma_i d(lap N)/dtheta.

    The composed path takes ``comp``, the ``component_kernels`` of
    ``params`` on ``points`` (which it only reads), or builds them.
    """
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    coeff = pde.coefficients(problem.op, pair, x)
    if path == "composed":
        comp = component_kernels(params, x) if comp is None else comp
        return _symmetrize(compose_kr(comp, coeff), _workspace(params, x))
    if path == "direct":
        st = net.forward(params, x, order=2, ws=_workspace(params, x))
        k = net.factored_grams(params, st, coeff.alpha[None], coeff.beta[None], coeff.gamma[None])
        return SymMatrix(k[0])
    raise ValueError(f"unknown path '{path}'")

