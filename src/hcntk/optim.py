"""Full-batch optimizers over flat parameter vectors.

Each optimizer takes a closure ``fg(theta) -> (loss, grad)`` and an optional
``callback(epoch, loss, theta)`` invoked with the loss at the current iterate
before each update. All three pass standalone quadratic-bowl and Rosenbrock
convergence tests before any PINN use.
"""

from dataclasses import dataclass

import numpy as np

GRAD_TOL = 2.0**-52  # "machine epsilon" stopping tolerance on the gradient max-norm


@dataclass
class OptResult:
    theta: np.ndarray
    loss: float
    epochs: int
    status: str  # finished | grad_converged | line_search_failed


def sgd(theta0, fg, lr, steps, callback=None):
    """Plain full-batch gradient descent (no momentum)."""
    theta = np.asarray(theta0, dtype=np.float64).copy()
    loss = float("nan")
    for k in range(steps):
        loss, grad = fg(theta)
        if callback is not None:
            callback(k, loss, theta)
        theta -= lr * grad
    return OptResult(theta=theta, loss=loss, epochs=steps, status="finished")


def adam(theta0, fg, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8, callback=None):
    """Adam, updating its moments and ``theta`` in place.

    Each step is theta -= lr * mhat / (sqrt(vhat) + eps) with
    m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g and the
    bias-corrected mhat, vhat; the in-place steps evaluate those
    expressions operand for operand, so no step allocates.
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = np.empty_like(theta)
    denom = np.empty_like(theta)
    loss = float("nan")
    for k in range(steps):
        loss, grad = fg(theta)
        if callback is not None:
            callback(k, loss, theta)
        m *= beta1
        m += np.multiply(grad, 1.0 - beta1, out=step)
        v *= beta2
        np.multiply(grad, 1.0 - beta2, out=step)
        step *= grad
        v += step
        np.divide(m, 1.0 - beta1 ** (k + 1), out=step)  # mhat
        np.divide(v, 1.0 - beta2 ** (k + 1), out=denom)  # vhat
        np.sqrt(denom, out=denom)
        denom += eps
        step *= lr
        step /= denom
        theta -= step
    return OptResult(theta=theta, loss=loss, epochs=steps, status="finished")


def _cubic_min(a, fa, dfa, b, fb):
    # Minimizer of the cubic through (a, fa) with slope dfa and (b, fb);
    # falls back to bisection when the fit is degenerate.
    d = b - a
    if d == 0.0:
        return a
    c2 = (fb - fa - dfa * d) / (d * d)
    if c2 <= 0.0 or not np.isfinite(c2):
        return 0.5 * (a + b)
    x = a - dfa / (2.0 * c2)
    lo, hi = (a, b) if a < b else (b, a)
    span = hi - lo
    if not np.isfinite(x) or x < lo + 0.1 * span or x > hi - 0.1 * span:
        return 0.5 * (a + b)
    return x


def strong_wolfe(fg, theta, direction, f0, g0, c1=1e-4, c2=0.9, alpha0=1.0,
                 alpha_max=1e10, max_evals=25):
    """Strong-Wolfe line search (bracket then zoom).

    Returns (alpha, f_alpha, g_alpha, n_evals) or None when no acceptable
    step is found (direction not a descent direction, or budget exhausted).
    """
    d0 = float(g0 @ direction)
    if d0 >= 0.0:
        return None
    evals = 0

    def phi(alpha):
        nonlocal evals
        evals += 1
        loss, grad = fg(theta + alpha * direction)
        return loss, grad, float(grad @ direction)

    def zoom(lo, f_lo, d_lo, hi, f_hi, g_best=None):
        nonlocal evals
        for _ in range(max_evals):
            if evals >= max_evals:
                return None
            alpha = _cubic_min(lo, f_lo, d_lo, hi, f_hi)
            f_a, g_a, d_a = phi(alpha)
            if f_a > f0 + c1 * alpha * d0 or f_a >= f_lo:
                hi, f_hi = alpha, f_a
            else:
                if abs(d_a) <= -c2 * d0:
                    return alpha, f_a, g_a
                if d_a * (hi - lo) >= 0.0:
                    hi, f_hi = lo, f_lo
                lo, f_lo, d_lo = alpha, f_a, d_a
            if abs(hi - lo) < 1e-16 * max(1.0, abs(lo)):
                return None
        return None

    alpha_prev, f_prev, d_prev = 0.0, f0, d0
    alpha = alpha0
    for i in range(max_evals):
        if evals >= max_evals:
            return None
        f_a, g_a, d_a = phi(alpha)
        if f_a > f0 + c1 * alpha * d0 or (i > 0 and f_a >= f_prev):
            out = zoom(alpha_prev, f_prev, d_prev, alpha, f_a)
            return (*out, evals) if out is not None else None
        if abs(d_a) <= -c2 * d0:
            return alpha, f_a, g_a, evals
        if d_a >= 0.0:
            out = zoom(alpha, f_a, d_a, alpha_prev, f_prev)
            return (*out, evals) if out is not None else None
        alpha_prev, f_prev, d_prev = alpha, f_a, d_a
        alpha = min(2.0 * alpha, alpha_max)
    return None


def lbfgs(theta0, fg, max_iter, memory=10, c1=1e-4, c2=0.9, grad_tol=GRAD_TOL,
          callback=None):
    """L-BFGS with two-loop recursion and strong-Wolfe line search.

    Stops when the gradient max-norm falls below machine epsilon, the
    iteration budget runs out, or the line search cannot make progress
    (reported in the status, never an exception).
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    s_hist, y_hist, rho_hist = [], [], []
    loss, grad = fg(theta)
    status = "finished"
    k = 0
    for k in range(max_iter):
        if callback is not None:
            callback(k, loss, theta)
        if np.abs(grad).max() < grad_tol:
            status = "grad_converged"
            break
        # two-loop recursion
        q = grad.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if y_hist:
            gamma = (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ y_hist[-1])
            q *= gamma
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        direction = -q
        alpha0 = min(1.0, 1.0 / max(np.abs(grad).sum(), 1e-12)) if not y_hist else 1.0
        hit = strong_wolfe(fg, theta, direction, loss, grad, c1=c1, c2=c2, alpha0=alpha0)
        if hit is None:
            status = "line_search_failed"
            break
        alpha, f_new, g_new, _ = hit
        step = alpha * direction
        y_vec = g_new - grad
        sy = float(step @ y_vec)
        if sy > 1e-10 * float(np.linalg.norm(step)) * float(np.linalg.norm(y_vec)):
            s_hist.append(step)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        theta = theta + step
        loss, grad = f_new, g_new
    else:
        k = max_iter
    return OptResult(theta=theta, loss=loss, epochs=k, status=status)
