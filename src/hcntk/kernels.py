"""Assembly of the three tangent kernels K_n, K_t, K_r, and the trial ansatz.

K_t and K_r each have two permanently tested construction paths:

* direct — combine the network outputs pointwise into the trial function /
  residual first and take the Gram of that combination's parameter
  gradients (combine, then Gram);
* composed — build the component kernels of each derivative order first and
  combine them afterwards (Gram, then combine): diag(B) K_n diag(B) for
  K_t, the nine-term coefficient formula for K_r.

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


def _symmetrize(k):
    s = k + k.T
    s *= 0.5
    return SymMatrix(s)


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
    st = net.forward(params, x, order=0)
    return SymMatrix(net.factored_grams(params, st, np.ones((1, x.shape[0])))[0])


def assemble_kt(params, pair, points, path="composed"):
    """Trial-function kernel via diag(B) K_n diag(B) or the scaled-row Gram."""
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    b = pair.value(x)
    if path == "composed":
        kn = assemble_kn(params, x).a  # a fresh array, scaled in place
        kn *= b[:, None]
        kn *= b[None, :]
        return _symmetrize(kn)
    if path == "direct":
        st = net.forward(params, x, order=0)
        return SymMatrix(net.factored_grams(params, st, b[None, :])[0])
    raise ValueError(f"unknown path '{path}'")


def component_kernels(params, points):
    """The six derivative-order component kernels of the residual formula.

    Returns a dict with entries (shapes for d = input dim, N points):
      nn (N,N), ngrad (d,N,N), gradgrad (d,d,N,N), nlap (N,N),
      gradlap (d,N,N), laplap (N,N).
    Cross kernels are stored one-sided; their transposes follow from the
    inner-product symmetry (checked in tests).
    """
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    st = net.forward(params, x, order=2)
    n, d = x.shape
    # Output order: value 0, grad_m 1 + m, lap 1 + d. Only the gradgrad
    # pairs m <= k are built; gradgrad[k, m] is the transpose of [m, k].
    val, lap, grads = 0, 1 + d, range(1, 1 + d)
    upper = [(m, k) for m in range(d) for k in range(m, d)]
    pairs = (
        [(val, val)]
        + [(val, m) for m in grads]
        + [(1 + m, 1 + k) for m, k in upper]
        + [(val, lap)]
        + [(m, lap) for m in grads]
        + [(lap, lap)]
    )
    g = net.factored_grams(params, st, *net.output_seeds(n, d, 2), pairs=pairs)
    gg, rest = 1 + d, 1 + d + len(upper)  # first gradgrad pair, first pair after them
    gradgrad = np.empty((d, d, n, n))
    for p, (m, k) in enumerate(upper):
        gradgrad[m, k] = g[gg + p]
        gradgrad[k, m] = g[gg + p].T
    return {
        "nn": g[0],
        "ngrad": g[1:gg],
        "gradgrad": gradgrad,
        "nlap": g[rest],
        "gradlap": g[rest + 1 : rest + 1 + d],
        "laplap": g[-1],
    }


def compose_kr(comp, coeff):
    """Nine-term combination of component kernels with the (alpha, beta, gamma) fields."""
    alpha, beta, gamma = coeff.alpha, coeff.beta, coeff.gamma
    d = beta.shape[1]
    k = alpha[:, None] * alpha[None, :] * comp["nn"]
    for m in range(d):
        k += alpha[:, None] * beta[None, :, m] * comp["ngrad"][m]
        k += beta[:, m, None] * comp["ngrad"][m].T * alpha[None, :]
        for kx in range(d):
            k += beta[:, m, None] * comp["gradgrad"][m, kx] * beta[None, :, kx]
        k += beta[:, m, None] * comp["gradlap"][m] * gamma[None, :]
        k += gamma[:, None] * beta[None, :, m] * comp["gradlap"][m].T
    k += alpha[:, None] * gamma[None, :] * comp["nlap"]
    k += gamma[:, None] * alpha[None, :] * comp["nlap"].T
    k += gamma[:, None] * gamma[None, :] * comp["laplap"]
    return k


def assemble_kr(params, problem, pair, points, path="direct"):
    """Residual kernel: Gram of J_r rows, or the nine-term composed formula.

    J_r(r_i) = alpha_i dN/dtheta + beta_i . d(grad N)/dtheta
             + gamma_i d(lap N)/dtheta.
    """
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    coeff = pde.coefficients(problem.op, pair, x)
    if path == "composed":
        comp = component_kernels(params, x)
        return _symmetrize(compose_kr(comp, coeff))
    if path == "direct":
        st = net.forward(params, x, order=2)
        k = net.factored_grams(params, st, coeff.alpha[None], coeff.beta[None], coeff.gamma[None])
        return SymMatrix(k[0])
    raise ValueError(f"unknown path '{path}'")

