"""Output checks, run outside the timed region.

Sweeps are checked against LAPACK (``numpy.linalg.eigvalsh``), against
quantities recomputed from the captured kernel matrix, and against the
paper's composition law built through the other construction path.
Training runs are checked against a plain-numpy tanh MLP written here,
which evaluates the trial function and its second derivative by forward
mode without ``hcntk.net``, and against the analytic solution.

Every check returns a list of problems; an empty list means it passed.
"""

import csv
import math

import numpy as np

from hcntk import boundary, experiments, kernels, net, pde, train
from hcntk.errors import EigFailure

from spans import Patches
from workloads import NET_SEED, QUADRATIC_B

EIG_TOL = 1e-10  # eigenvalues, reconstruction, PSD floor and composition law
RECOMPUTE_TOL = 1e-12  # trace / frob / eff_rank recomputed from the same matrix
TRAIN_TOL = 1e-9  # independent loss and L2 error vs the record
FD_TOL = 1e-6  # central difference vs closure gradient, relative to |grad|


class Capture:
    """Holds the kernel and spectrum of the operation in flight.

    Hooks ``kernels.assemble_kr`` / ``assemble_kt`` and the ``eig_sym`` that
    ``experiments`` imported, keeping their last result.
    """

    def __init__(self):
        self.matrix = None
        self.report = None
        self.error = None
        self._patches = Patches()

    def _keep_matrix(self, fn):
        def hooked(*args, **kwargs):
            self.matrix = fn(*args, **kwargs)
            return self.matrix

        return hooked

    def _keep_report(self, fn):
        def hooked(*args, **kwargs):
            try:
                self.report = fn(*args, **kwargs)
            except EigFailure as exc:
                self.error = exc
                raise
            return self.report

        return hooked

    def install(self):
        self._patches.set(kernels, "assemble_kr", self._keep_matrix(kernels.assemble_kr))
        self._patches.set(kernels, "assemble_kt", self._keep_matrix(kernels.assemble_kt))
        self._patches.set(experiments, "eig_sym", self._keep_report(experiments.eig_sym))

    def uninstall(self):
        self._patches.restore()

    def reset(self):
        self.matrix = self.report = self.error = None


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def same_value(a, b):
    """Equal, counting two NaNs as equal."""
    return a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b))


def check_spectrum(op, outcome, cap, rows_csv):
    """One sweep row against its captured kernel."""
    problems = []
    row = outcome.result.rows[0]
    if cap.matrix is None:
        return [f"{op.tag}: no kernel was assembled"]
    a = cap.matrix.a
    if not np.array_equal(a, a.T):
        problems.append(f"{op.tag}: kernel is not exactly symmetric")
    lam = np.linalg.eigvalsh(a)[::-1]
    lmax = float(lam[0])
    if lam[-1] < -EIG_TOL * lmax:
        problems.append(f"{op.tag}: lambda_min {lam[-1]:.3e} < -{EIG_TOL}*lambda_max (Gram must be PSD)")
    if outcome.status == "ok":
        rep = cap.report
        err = float(np.max(np.abs(rep.eigenvalues - lam)))
        if err > EIG_TOL * lmax:
            problems.append(f"{op.tag}: eigenvalues differ from LAPACK by {err:.3e}")
        recon = (rep.eigenvectors * rep.eigenvalues) @ rep.eigenvectors.T
        frob = math.sqrt(float(np.sum(a * a)))
        if np.linalg.norm(recon - a) > EIG_TOL * frob:
            problems.append(f"{op.tag}: |V L V^T - K|_F = {np.linalg.norm(recon - a):.3e}")
        trace = float(np.sum(np.diag(a)))
        for col, want in (("trace", trace), ("frob", frob), ("eff_rank", trace * trace / (frob * frob))):
            if _rel(row[col], want) > RECOMPUTE_TOL:
                problems.append(f"{op.tag}: {col} {row[col]!r} vs recomputed {want!r}")
        for col, want in (("lambda_max", lam[0]), ("lambda_min", lam[-1])):
            if abs(row[col] - want) > EIG_TOL * lmax:
                problems.append(f"{op.tag}: {col} {row[col]!r} vs LAPACK {want!r}")
    elif outcome.status == "eig-failure":
        if not isinstance(cap.error, EigFailure):
            problems.append(f"{op.tag}: row says eig-failure but eig_sym did not raise EigFailure")
        if not all(math.isnan(row[c]) for c in experiments.SPECTRUM_COLS):
            problems.append(f"{op.tag}: eig-failure row carries spectrum values")
    else:
        problems.append(f"{op.tag}: row status {outcome.status!r} (only eig-failure may fail)")
    return problems + _check_rows_csv(op, outcome.result, rows_csv)


def _check_rows_csv(op, result, path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        raw = list(reader)
    if header != list(result.columns) or len(raw) != len(result.rows):
        return [f"{op.tag}: rows.csv shape differs from the returned rows"]
    problems = []
    for row, line in zip(result.rows, raw):
        for col, text in zip(header, line):
            want = row.get(col, "")
            got = float(text) if isinstance(want, float) else text
            if not same_value(got, want if isinstance(want, float) else str(want)):
                problems.append(f"{op.tag}: rows.csv {col}={text} vs {want!r}")
    return problems


def check_composition(wl, captured):
    """Composition law on every captured kernel, plus agreement of the B = x(1-x) spellings.

    ``captured`` holds (op, kernel array, program eigenvalues or None).
    K_r direct is compared with the nine-term formula over component
    kernels; K_t = diag(B) K_n diag(B) with the Gram of B-scaled Jacobian rows.
    """
    problems = []
    params = net.init_kaiming_uniform(wl.sizes, "tanh", NET_SEED)
    points = train.build_grid(wl.dim, wl.grid_n, "trimmed")
    problem = pde.benchmark(wl.benchmark)
    comp = None
    for op, a, _ in captured:
        pair = boundary.make_pair(op.family, op.params)
        if op.kind == "kr":
            if comp is None:
                comp = kernels.component_kernels(params, points)
            ref = kernels.compose_kr(comp, pde.coefficients(problem.op, pair, points))
        else:
            ref = kernels.assemble_kt(params, pair, points, path="direct").a
        rel = np.linalg.norm(a - ref) / np.linalg.norm(a)
        if not rel <= EIG_TOL:
            problems.append(f"{op.tag}: composition law off by {rel:.3e} (relative Frobenius)")
    quad = [lam for op, _, lam in captured
            if op.kind == "kr" and (op.family, op.params["alpha"]) in QUADRATIC_B]
    if wl.name == "kr-sweep-1d":
        if len(quad) != len(QUADRATIC_B) or any(lam is None for lam in quad):
            problems.append("B = x(1-x): not every spelling produced a spectrum")
        else:
            spread = max(float(np.max(np.abs(lam - quad[0]))) for lam in quad)
            if spread > EIG_TOL * float(quad[0][0]):
                problems.append(f"B = x(1-x): K_r spectra differ by {spread:.3e}")
    return problems


# --- training ---------------------------------------------------------------


def _b_derivs(family, a, x):
    """B, B', B'' of the 1D families, from their definitions."""
    with np.errstate(divide="ignore", invalid="ignore"):  # B'' may be singular on the boundary
        return _b_derivs_raw(family, a, x)


def _b_derivs_raw(family, a, x):
    if family in ("power", "rational", "exponential"):
        w, w1, w2 = x * (1.0 - x), 1.0 - 2.0 * x, -2.0
        if family == "power":
            b = w**a
            b1 = a * w ** (a - 1.0) * w1
            b2 = a * (a - 1.0) * w ** (a - 2.0) * w1 * w1 + a * w ** (a - 1.0) * w2
        elif family == "rational":
            den = 1.0 + a * w
            b = w / den
            b1 = w1 / den**2
            b2 = (w2 * den - 2.0 * a * w1 * w1) / den**3
        else:
            e = np.exp(-a * w)
            b = w * e
            b1 = w1 * (1.0 - a * w) * e
            b2 = (w2 * (1.0 - a * w) - a * w1 * w1 * (2.0 - a * w)) * e
        return b, b1, b2
    if family == "trig":
        s, c = np.sin(np.pi * x), np.cos(np.pi * x)
        b = s**a
        b1 = a * np.pi * s ** (a - 1.0) * c
        b2 = a * np.pi**2 * ((a - 1.0) * s ** (a - 2.0) * c * c - s**a)
        return b, b1, b2
    if family == "tanh":
        t, u = np.tanh(a * x), np.tanh(a * (1.0 - x))
        t1, u1 = a * (1.0 - t * t), -a * (1.0 - u * u)
        t2, u2 = -2.0 * a * t * t1, -2.0 * a * u * -u1
        return t * u, t1 * u + t * u1, t2 * u + 2.0 * t1 * u1 + t * u2
    raise ValueError(f"no independent formula for family {family!r}")


def _mlp(theta, sizes, x):
    """tanh MLP value, d/dx and d2/dx2 on 1D points, forward mode over a flat vector.

    Flat order per layer: weights row-major (out, in), then biases.
    """
    h, h1, h2 = x[:, None], np.ones((x.size, 1)), np.zeros((x.size, 1))
    off = 0
    n_layers = len(sizes) - 1
    for l in range(n_layers):
        n_in, n_out = sizes[l], sizes[l + 1]
        w = theta[off:off + n_in * n_out].reshape(n_out, n_in)
        off += n_in * n_out
        b = theta[off:off + n_out]
        off += n_out
        z, z1, z2 = h @ w.T + b, h1 @ w.T, h2 @ w.T
        if l == n_layers - 1:
            return z[:, 0], z1[:, 0], z2[:, 0]
        t = np.tanh(z)
        s = 1.0 - t * t
        h, h1, h2 = t, s * z1, s * z2 - 2.0 * t * s * z1 * z1


def _exact(x):
    """u = sin(pi x) cos(2 pi x) and u'' = pi^2 (sin(pi x) - 9 sin(3 pi x)) / 2."""
    return (np.sin(np.pi * x) * np.cos(2.0 * np.pi * x),
            0.5 * np.pi**2 * (np.sin(np.pi * x) - 9.0 * np.sin(3.0 * np.pi * x)))


class IndependentTrial:
    """Loss and relative L2 error of u~ = B N for -u'' = f on [0, 1], outside hcntk."""

    def __init__(self, op, sizes, grid_n, test_points):
        self.family, self.alpha, self.sizes = op.family, op.params["alpha"], sizes
        self.x = np.linspace(0.0, 1.0, grid_n)[1:-1]
        self.x_test = np.linspace(0.0, 1.0, test_points)
        self._b = _b_derivs(self.family, self.alpha, self.x)
        self._u2 = _exact(self.x)[1]

    def loss(self, theta):
        b, b1, b2 = self._b
        n, n1, n2 = _mlp(theta, self.sizes, self.x)
        r = -(b2 * n + 2.0 * b1 * n1 + b * n2) + self._u2  # -u~'' - f with f = -u''
        return float(r @ r) / r.size

    def l2(self, theta):
        u_trial = _b_derivs(self.family, self.alpha, self.x_test)[0] * _mlp(theta, self.sizes, self.x_test)[0]
        u = _exact(self.x_test)[0]
        return math.sqrt(float((u_trial - u) @ (u_trial - u)) / float(u @ u))


def check_training(wl, op, outcome, cfg, rng):
    """A training record against the independent evaluation and the optimizer's guarantees."""
    if outcome.status != "ok":
        return [f"{op.tag}: training raised {outcome.status}"]
    rec = outcome.result
    problems = []
    ind = IndependentTrial(op, wl.sizes, wl.grid_n, cfg.test_points)
    template = net.init_kaiming_uniform(wl.sizes, "tanh", cfg.seed)
    theta0 = template.flatten()
    for label, want, got in (("final loss", ind.loss(rec.final_theta), rec.final_loss),
                             ("initial loss", ind.loss(theta0), rec.initial_loss),
                             ("final L2", ind.l2(rec.final_theta), rec.final_l2)):
        if _rel(got, want) > TRAIN_TOL:
            problems.append(f"{op.tag}: {label} {got!r} vs independent {want!r}")
    if not rec.final_loss < rec.initial_loss:
        problems.append(f"{op.tag}: final loss {rec.final_loss:.3e} >= initial {rec.initial_loss:.3e}")
    lbfgs = rec.losses[rec.epochs >= cfg.phases[0].steps]
    if np.any(np.diff(lbfgs) > 0.0):
        problems.append(f"{op.tag}: loss increased during the L-BFGS phase")
    # Hard constraint: u~ = 0 wherever B evaluates to 0 in floating point. For
    # trig, B(1) = sin(fl(pi))**alpha is ~1.2e-16**alpha, so u~(1) may be that small.
    pair = boundary.make_pair(op.family, op.params)
    edge = np.array([0.0, 1.0])
    got = kernels.trial_eval(kernels.TrialFunction(pair, template.unflatten(rec.final_theta)),
                             edge[:, None]).value
    bound = np.abs(_b_derivs(op.family, op.params["alpha"], edge)[0] * _mlp(rec.final_theta, wl.sizes, edge)[0])
    if np.any(np.abs(got) > bound * (1.0 + TRAIN_TOL)):
        problems.append(f"{op.tag}: trial function at x=0,1 is {got.tolist()} (bound {bound.tolist()})")
    fg = train.make_closure(template, pair, pde.benchmark(wl.benchmark), ind.x[:, None])
    _, grad = fg(theta0)
    gnorm = float(np.linalg.norm(grad))
    for _ in range(3):
        v = rng.standard_normal(theta0.size)
        v /= np.linalg.norm(v)
        h = 1e-6
        fd = (ind.loss(theta0 + h * v) - ind.loss(theta0 - h * v)) / (2.0 * h)
        if abs(fd - float(grad @ v)) > FD_TOL * gnorm:
            problems.append(f"{op.tag}: closure gradient {float(grad @ v):.9e} vs central difference {fd:.9e}")
    return problems
