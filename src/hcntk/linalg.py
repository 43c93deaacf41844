"""Dense symmetric matrices, eigendecomposition, and spectral metrics."""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateKernel,
    EigFailure,
    InvalidMatrix,
    ShapeError,
    UndefinedCorrelation,
)

KAPPA_FLOOR = 1e-300
NUMERICAL_RANK_CUT = 1e-12
FROZEN_MODE_CUT = 1e-12  # relative to lambda_max; below this a mode is frozen

# The scalar spectral metrics, in the order every result table lists them.
SPECTRUM_COLS = ("kappa", "eff_rank", "trace", "frob", "lambda_max", "lambda_min",
                 "lambda_min_retained", "numerical_rank")


class SymMatrix:
    """Dense real symmetric matrix.

    Symmetry is enforced by construction, so entry (i, j) always equals
    entry (j, i) exactly. An input that is already exactly symmetric is
    kept as it is: a float64 array is held, not copied. Any other input is
    replaced by its upper triangle mirrored onto the lower triangle.
    """

    __slots__ = ("a",)

    def __init__(self, entries):
        m = np.asarray(entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise InvalidMatrix(f"expected square matrix of dimension >= 1, got shape {m.shape}")
        if not np.array_equal(m, m.T):
            m = np.triu(m) + np.triu(m, 1).T
        self.a = m

    @property
    def n(self):
        return self.a.shape[0]

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and np.array_equal(self.a, other.a)

    def __repr__(self):
        return f"SymMatrix(n={self.n})"


@dataclass
class SpectrumReport:
    """Eigendecomposition plus the scalar spectral metrics derived from it."""

    eigenvalues: np.ndarray  # descending
    eigenvectors: np.ndarray  # orthonormal columns, aligned with eigenvalues
    kappa: float
    eff_rank: float
    trace: float
    frob: float
    lambda_max: float
    lambda_min: float
    lambda_min_retained: float  # smallest eigenvalue that is not frozen; nan if none
    numerical_rank: int
    sweeps: int  # always 0: LAPACK reports no iteration count (the traced benchmark sums it)

    def metrics(self):
        """The scalar spectral metrics, keyed and ordered as ``SPECTRUM_COLS``."""
        return {c: getattr(self, c) for c in SPECTRUM_COLS}


@dataclass
class EnsembleStats:
    """Element-wise statistics over an ensemble of equally sized matrices."""

    mean: np.ndarray
    std: np.ndarray
    cv: np.ndarray  # nan where mean == 0
    zero_mean_mask: np.ndarray
    cv_mean: float
    cv_max: float


def eig_sym(m: SymMatrix) -> SpectrumReport:
    """Full symmetric eigendecomposition (LAPACK) with descending eigenvalues.

    The condition number uses the raw smallest eigenvalue, floored at
    ``KAPPA_FLOOR`` only to guard exact zeros; no rank truncation is applied.
    A separate numerical rank (eigenvalues above ``1e-12 * lambda_max``) is
    reported alongside, and so is the smallest retained eigenvalue (the
    smallest one >= ``FROZEN_MODE_CUT * max(lambda_max, 0)``). Raises
    ``EigFailure`` when LAPACK does not converge.
    """
    a = m.a
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    # LAPACK returns ascending order. The contiguous copy is made after its
    # workspace is freed, so it does not raise the peak memory of the call.
    vals = vals[::-1].copy()
    vecs = np.ascontiguousarray(vecs[:, ::-1])
    trace = float(np.trace(a))
    frob = float(np.linalg.norm(a))
    lam_max = float(vals[0])
    lam_min = float(vals[-1])
    kappa = lam_max / max(lam_min, KAPPA_FLOOR)
    eff_rank = trace * trace / (frob * frob) if frob > 0.0 else float("nan")
    num_rank = int(np.sum(vals > NUMERICAL_RANK_CUT * max(lam_max, 0.0))) if lam_max > 0 else 0
    retained = vals[vals >= FROZEN_MODE_CUT * max(lam_max, 0.0)]
    return SpectrumReport(
        eigenvalues=vals,
        eigenvectors=vecs,
        kappa=kappa,
        eff_rank=eff_rank,
        trace=trace,
        frob=frob,
        lambda_max=lam_max,
        lambda_min=lam_min,
        lambda_min_retained=float(retained[-1]) if retained.size else float("nan"),
        numerical_rank=num_rank,
        sweeps=0,
    )


def _centered(a: np.ndarray) -> np.ndarray:
    # H a H with H = I - (1/n) 1 1^T, applied without forming H.
    row_mean = a.mean(axis=0, keepdims=True)
    col_mean = a.mean(axis=1, keepdims=True)
    return a - row_mean - col_mean + a.mean()


def pairwise_cka(matrices) -> np.ndarray:
    """Centered kernel alignment of every pair (i, j), i < j, in row-major order.

    Each matrix is centered once and flattened into one row of C; the Gram
    C C^T then holds every centered inner product, so M matrices of size
    n cost one M x n^2 buffer and one matrix product instead of M (M - 1)
    centerings.
    """
    mats = list(matrices)
    n = mats[0].n if mats else 0
    for m in mats:
        if m.n != n:
            raise ShapeError(f"dimension mismatch: {n} vs {m.n}")
    c = np.empty((len(mats), n * n))
    for row, m in zip(c, mats):
        row[:] = _centered(m.a).ravel()
    gram = c @ c.T
    norms = np.diagonal(gram)
    if np.any(norms <= 0.0):
        raise DegenerateKernel("zero centered norm (constant kernel matrix)")
    i, j = np.triu_indices(len(mats), 1)
    return gram[i, j] / np.sqrt(norms[i] * norms[j])


def cka(a: SymMatrix, b: SymMatrix) -> float:
    """Centered kernel alignment between two kernel matrices (in [0, 1])."""
    return float(pairwise_cka((a, b))[0])


def ensemble_stats(matrices) -> EnsembleStats:
    """Per-entry mean, population std, and coefficient of variation.

    Entries with exactly zero mean are flagged via ``zero_mean_mask`` and
    excluded from the cv summaries rather than divided.
    """
    mats = list(matrices)
    if len(mats) < 2:
        raise ShapeError("ensemble statistics need at least 2 matrices")
    n = mats[0].n
    for m in mats:
        if m.n != n:
            raise ShapeError(f"dimension mismatch in ensemble: {m.n} vs {n}")
    stack = np.stack([m.a for m in mats])
    mean = stack.mean(axis=0)
    std = stack.std(axis=0)  # population normalization (divide by M)
    zero_mask = mean == 0.0
    cv = np.full_like(mean, np.nan)
    np.divide(std, mean, out=cv, where=~zero_mask)
    valid = cv[~zero_mask]
    return EnsembleStats(
        mean=mean,
        std=std,
        cv=cv,
        zero_mean_mask=zero_mask,
        cv_mean=float(valid.mean()) if valid.size else float("nan"),
        cv_max=float(valid.max()) if valid.size else float("nan"),
    )


def average_ranks(x) -> np.ndarray:
    """Fractional ranks (1-based); ties receive the mean of their rank range."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError(f"spearman needs equal-length 1-d inputs, got {x.shape} and {y.shape}")
    if x.size < 3:
        raise ShapeError("spearman needs at least 3 observations")
    rx = average_ranks(x)
    ry = average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise UndefinedCorrelation("zero rank variance")
    return float(dx @ dy) / np.sqrt(vx * vy)
