"""Gaussian process model of a scalar field sampled on a transect grid.

The field is stationary with a squared-exponential covariance in physical
coordinates,

    cov(u, v) = signal_var * exp(-0.5 * d1^2/ell1^2 - 0.5 * d2^2/ell2^2)
                + noise_var * [u == v],

where (d1, d2) is the displacement between cell centers in meters and the
noise term models independent measurement noise. Posterior means and
covariances after conditioning on a set of noisy observations follow the
usual Gaussian identities; all of them are evaluated through Cholesky
factorizations and triangular solves, never through determinants.

Numerical policy, applied uniformly:

* factorization attempts escalate a diagonal jitter of 0, 1e-12, 1e-10 and
  1e-8 times the mean diagonal before giving up with FactorizationFailure;
* the one explicit inverse, in :func:`precision`, is formed from one such
  factor as L^-T L^-1; nothing else inverts a matrix;
* log-determinants come from the triangular factor, and a factor diagonal
  entry below 1e-150 raises SingularCovariance instead of overflowing the log;
* entropies are reported in nats.

Within a covariance matrix over a list of observations the noise term sits on
the index diagonal: two observations taken at the same cell share the signal
but not the noise, which keeps the matrix nonsingular when noise_var > 0.
Repeated rows with noise_var == 0 are rejected as singular.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotri

from .errors import FactorizationFailure, GridTooLarge, SingularCovariance
from .transect import Location, TransectGrid

LOG_2PI_E = float(np.log(2.0 * np.pi * np.e))

# Escalation ladder for the relative diagonal jitter.
JITTER_STEPS = (0.0, 1e-12, 1e-10, 1e-8)

# Triangular factor entries below this cannot contribute a finite log-det.
DIAG_FLOOR = 1e-150

# Dense operations over a whole grid are refused beyond this many cells.
MAX_DENSE_CELLS = 5000


@dataclass(frozen=True)
class Hyperparams:
    """Squared-exponential hyperparameters.

    ell1, ell2 : length-scales in meters along and across the transect
    signal_var : prior signal variance (field units squared)
    noise_var  : measurement noise variance, zero for noise-free sensing
    """

    ell1: float
    ell2: float
    signal_var: float
    noise_var: float

    def __post_init__(self):
        values = (self.ell1, self.ell2, self.signal_var, self.noise_var)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"hyperparameters must be finite, got {self}")
        if not (self.ell1 > 0 and self.ell2 > 0):
            raise ValueError("length-scales must be positive")
        if not self.signal_var > 0:
            raise ValueError("signal variance must be positive")
        if not self.noise_var >= 0:
            raise ValueError("noise variance cannot be negative")


def _as_int_array(locs: Sequence[Location]) -> np.ndarray:
    a = np.asarray([(l.col, l.row) for l in locs], dtype=np.int64)
    return a.reshape(-1, 2)


def _signal_gram(
    a: np.ndarray, b: np.ndarray, h: Hyperparams, widths: tuple[float, float]
) -> np.ndarray:
    """Squared-exponential block between integer location arrays."""
    d1 = (a[:, None, 0] - b[None, :, 0]) * (widths[0] / h.ell1)
    d2 = (a[:, None, 1] - b[None, :, 1]) * (widths[1] / h.ell2)
    return h.signal_var * np.exp(-0.5 * (d1 * d1 + d2 * d2))


def covariance(
    u: Location, v: Location, h: Hyperparams, widths: tuple[float, float]
) -> float:
    """Prior covariance between the measurements at two cells.

    Depends on the physical displacement only, so translating both cells by
    the same number of columns or rows leaves the value unchanged. The noise
    term contributes exactly when ``u == v``.
    """
    return float(cross_cov([u], [v], h, widths)[0, 0])


def cov_matrix(
    locs: Sequence[Location], h: Hyperparams, widths: tuple[float, float]
) -> np.ndarray:
    """Prior covariance matrix of the measurements at ``locs``.

    Noise lands on the index diagonal, so two entries for the same cell are
    modeled as independent repeated measurements (off-diagonal signal_var,
    diagonal signal_var + noise_var).
    """
    a = _as_int_array(locs)
    m = _signal_gram(a, a, h, widths)
    m[np.diag_indices_from(m)] += h.noise_var
    return m


def cross_cov(
    rows: Sequence[Location],
    cols: Sequence[Location],
    h: Hyperparams,
    widths: tuple[float, float],
) -> np.ndarray:
    """Covariance block between two location lists.

    Entry (i, j) is the squared-exponential signal covariance of the cells
    ``rows[i]`` and ``cols[j]``, plus the noise variance wherever the two
    cells coincide, which makes a conditioning set containing the target
    cell pin the target exactly.
    """
    ra, ca = _as_int_array(rows), _as_int_array(cols)
    m = _signal_gram(ra, ca, h, widths)
    same = (ra[:, None, 0] == ca[None, :, 0]) & (ra[:, None, 1] == ca[None, :, 1])
    m[same] += h.noise_var
    return m


def chol_factor(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with the escalating-jitter policy.

    Jitter steps are scaled by the mean diagonal of ``cov``; the first
    attempt adds nothing. Raises FactorizationFailure once the ladder is
    exhausted.
    """
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    scale = float(np.mean(np.diag(cov)))
    for step in JITTER_STEPS:
        try:
            if step == 0.0:
                return np.linalg.cholesky(cov)
            return np.linalg.cholesky(cov + (step * scale) * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise FactorizationFailure(
        f"covariance of order {cov.shape[0]} is not factorizable "
        f"(max jitter {JITTER_STEPS[-1]:g} * {scale:g})"
    )


def logdet_from_factor(factor: np.ndarray) -> float:
    """Log-determinant from a triangular factor, guarding the log."""
    d = np.diag(factor)
    if np.any(d < DIAG_FLOOR):
        raise SingularCovariance(
            f"factor diagonal reaches {d.min():g}, below {DIAG_FLOOR:g}"
        )
    return 2.0 * float(np.sum(np.log(d)))


def _duplicate_guard(locs: Sequence[Location], h: Hyperparams) -> None:
    # Noise-free repeated observations make the Gram matrix exactly singular.
    if h.noise_var == 0 and len(set(locs)) != len(locs):
        raise SingularCovariance(
            "duplicate observed locations with zero noise variance"
        )


def posterior_mean(
    targets: Sequence[Location],
    obs_locs: Sequence[Location],
    obs_vals: np.ndarray,
    h: Hyperparams,
    widths: tuple[float, float],
    mean: float = 0.0,
) -> np.ndarray:
    """Posterior mean of the field at ``targets`` given noisy observations.

    With no observations this is the constant prior mean. Linear in the
    observed values.
    """
    targets = list(targets)
    obs_locs = list(obs_locs)
    if len(obs_locs) == 0:
        return np.full(len(targets), float(mean))
    obs_vals = np.asarray(obs_vals, dtype=float).reshape(-1)
    if obs_vals.shape[0] != len(obs_locs):
        raise ValueError("one value per observed location expected")
    _duplicate_guard(obs_locs, h)
    L = chol_factor(cov_matrix(obs_locs, h, widths))
    resid = obs_vals - mean
    alpha = solve_triangular(L, resid, lower=True, check_finite=False)
    alpha = solve_triangular(L.T, alpha, lower=False, check_finite=False)
    k_tx = cross_cov(targets, obs_locs, h, widths)
    return mean + k_tx @ alpha


def posterior_cov(
    targets: Sequence[Location],
    obs_locs: Sequence[Location],
    h: Hyperparams,
    widths: tuple[float, float],
) -> np.ndarray:
    """Posterior covariance of the measurements at ``targets`` after
    observing ``obs_locs``.

    Does not depend on the observed values, only on where they were taken,
    which is what makes offline planning of observation paths possible.
    """
    targets = list(targets)
    obs_locs = list(obs_locs)
    prior = cov_matrix(targets, h, widths)
    if len(obs_locs) == 0:
        return prior
    _duplicate_guard(obs_locs, h)
    L = chol_factor(cov_matrix(obs_locs, h, widths))
    k_xt = cross_cov(obs_locs, targets, h, widths)
    w = solve_triangular(L, k_xt, lower=True, check_finite=False)
    return prior - w.T @ w


def gaussian_entropy(cov: np.ndarray) -> float:
    """Differential entropy 0.5 * log((2 pi e)^n |cov|) in nats.

    Negative values are legitimate for small variances; a singular matrix
    raises instead of returning -inf.
    """
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    n = cov.shape[0]
    L = chol_factor(cov)
    return 0.5 * (n * LOG_2PI_E + logdet_from_factor(L))


def minor_entropies(cov: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Entropies of the principal minors ``cov[..., idx[j]][..., idx[j]]``,
    one per row of the (m, k) index array and per matrix of the stack
    ``cov`` (shape (..., R, R)), from one stacked Cholesky factorization;
    the result has shape (..., m).

    A stack that is not positive definite, or whose factor reaches
    DIAG_FLOOR, is redone minor by minor through :func:`gaussian_entropy`,
    so the jitter ladder and the SingularCovariance check still apply.
    """
    idx = np.asarray(idx)
    minors = cov[..., idx[:, :, None], idx[:, None, :]]
    try:
        d = np.diagonal(np.linalg.cholesky(minors), axis1=-2, axis2=-1)
    except np.linalg.LinAlgError:
        d = None
    if d is None or np.any(d < DIAG_FLOOR):
        k = idx.shape[1]
        flat = [gaussian_entropy(s) for s in minors.reshape(-1, k, k)]
        return np.reshape(flat, minors.shape[:-2])
    return 0.5 * (idx.shape[1] * LOG_2PI_E + 2.0 * np.sum(np.log(d), axis=-1))


def precision(cov: np.ndarray) -> np.ndarray:
    """Inverse of a covariance matrix, L^-T L^-1 from its factor L by
    :func:`chol_factor`, so the jitter ladder and its FactorizationFailure
    apply; a factor that reaches DIAG_FLOOR raises SingularCovariance.

    LAPACK ``potri`` inverts in the factor's own storage, so besides ``cov``
    one more matrix of its size is held at a time.
    """
    L = chol_factor(cov)
    logdet_from_factor(L)  # refuses a factor that reaches DIAG_FLOOR
    del cov
    # L^T is the upper factor in Fortran order, which potri overwrites
    p, info = dpotri(L.T, lower=0, overwrite_c=1)
    if info != 0:
        raise SingularCovariance(f"potri failed with info {info}")
    p += np.triu(p, 1).T
    return p


class GrowingFactor:
    """Lower Cholesky factor L of M[V, V] for a growing index set V.

    ``entries(a, b)`` returns the block M[a][:, b] of a symmetric positive
    definite matrix M that need never be formed whole. :meth:`condition`
    gives the Schur complement of M[V, V] for the next candidate indices,
    which for a covariance M is their covariance given V, at O(n^2 R) for n
    indices in V and R candidates; :meth:`extend` appends chosen candidates
    to V from the same W and Schur block, so V is factored only once
    (Golub & Van Loan, Matrix Computations, 4th ed., sec. 4.2).
    """

    def __init__(self, entries, cells):
        self.entries = entries
        self.cells = np.asarray(cells)
        self.factor = chol_factor(entries(self.cells, self.cells))

    def condition(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(S, W)`` with W = L^-1 M[V, cells] and S = M[cells, cells] - W^T W."""
        w = solve_triangular(
            self.factor, self.entries(self.cells, cells), lower=True, check_finite=False
        )
        return self.entries(cells, cells) - w.T @ w, w

    def extend(self, cells: np.ndarray, w: np.ndarray, s: np.ndarray) -> None:
        """Append ``cells`` to V given their ``W`` and Schur block ``S`` from
        :meth:`condition`: L' = [[L, 0], [W^T, chol(S)]]. A Schur block that
        does not factor, or whose factor reaches DIAG_FLOOR, refactors all of
        M[V, V] through :func:`chol_factor` instead, with its jitter ladder
        and refusal.
        """
        n = self.cells.size
        self.cells = np.concatenate([self.cells, cells])
        try:
            d = np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            d = None
        if d is None or np.any(np.diag(d) < DIAG_FLOOR):
            self.factor = chol_factor(self.entries(self.cells, self.cells))
            return
        factor = np.zeros((self.cells.size, self.cells.size))
        factor[:n, :n] = self.factor
        factor[n:, :n] = w.T
        factor[n:, n:] = d
        self.factor = factor


def conditional_entropy(
    targets: Sequence[Location],
    obs_locs: Sequence[Location],
    h: Hyperparams,
    widths: tuple[float, float],
) -> float:
    """Entropy of the measurements at ``targets`` given ``obs_locs``."""
    return gaussian_entropy(posterior_cov(targets, obs_locs, h, widths))


def cond_mutual_info(
    next_locs: Sequence[Location],
    past_locs: Sequence[Location],
    current_locs: Sequence[Location],
    h: Hyperparams,
    widths: tuple[float, float],
) -> float:
    """Mutual information between the next observations and the past ones,
    conditioned on the current ones.

    Computed as H[next | current] - H[next | current u past], where the
    union is a union of locations: past cells already present in the current
    set are dropped, so a past that adds nothing yields exactly zero.
    Information never hurts, so the result is nonnegative up to rounding;
    negatives within 1e-9 are clamped to zero.
    """
    current_locs = list(current_locs)
    past = [p for p in dict.fromkeys(past_locs) if p not in current_locs]
    union = current_locs + past
    h_cur = conditional_entropy(next_locs, current_locs, h, widths)
    h_all = conditional_entropy(next_locs, union, h, widths)
    value = h_cur - h_all
    if -1e-9 <= value < 0.0:
        return 0.0
    return value


def _kron_eigen(
    grid: TransectGrid, h: Hyperparams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenfactors of the whole grid's prior covariance.

    On a regular grid the squared-exponential kernel separates, so over the
    column-major cell order the covariance is
    signal_var * kron(K_col, K_row) + noise_var * I with unit-variance
    along-track (C x C) and across-track (R x R) factors. Returns ``(q_c, q_r,
    var)`` with ``kron(q_c, q_r) @ diag(var.ravel()) @ kron(q_c, q_r).T``
    equal to that covariance; ``var`` has shape (C, R). Eigenvalues that
    rounding pushes below zero are clipped to zero.
    """
    unit = replace(h, signal_var=1.0)
    cols = _as_int_array([Location(c, 0) for c in range(grid.n_cols)])
    rows = _as_int_array([Location(0, r) for r in range(grid.n_rows)])
    lam_c, q_c = np.linalg.eigh(_signal_gram(cols, cols, unit, grid.widths))
    lam_r, q_r = np.linalg.eigh(_signal_gram(rows, rows, unit, grid.widths))
    lam_c, lam_r = np.clip(lam_c, 0.0, None), np.clip(lam_r, 0.0, None)
    var = h.signal_var * np.outer(lam_c, lam_r) + h.noise_var
    return q_c, q_r, var


def sample_prior_field(
    grid: TransectGrid,
    h: Hyperparams,
    seed: int,
    mean: float = 0.0,
) -> np.ndarray:
    """Draw one exact field realization over the whole grid.

    The covariance over all cells is signal_var * kron(K_col, K_row) +
    noise_var * I (see :func:`_kron_eigen`), so standard normals scaled by
    the square roots of its eigenvalues and rotated by the two 1-D
    eigenbases carry the exact joint law. That costs one C x C and one R x R
    eigendecomposition, O(C^3 + R^3), instead of a dense factor of the
    (R*C) x (R*C) covariance. Eigenvalues that rounding makes slightly
    negative are clipped to zero, so an ill-conditioned or noise-free
    covariance still draws. Deterministic for a given seed. Grids beyond
    MAX_DENSE_CELLS cells are refused.
    """
    n = grid.n_rows * grid.n_cols
    if n > MAX_DENSE_CELLS:
        raise GridTooLarge(f"{n} cells exceeds the dense limit {MAX_DENSE_CELLS}")
    q_c, q_r, var = _kron_eigen(grid, h)
    rng = np.random.default_rng(seed)
    # cells are column-major, so e has one row per grid column
    e = rng.standard_normal(n).reshape(grid.n_cols, grid.n_rows)
    return mean + q_r @ (np.sqrt(var) * e).T @ q_c.T
