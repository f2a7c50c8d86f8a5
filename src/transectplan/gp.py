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

* every factorization goes through :func:`chol_factor`, over one matrix or a
  stack: one stacked Cholesky with no jitter, then, for the matrices that
  fail it only, one by one, a diagonal jitter of 1e-12, 1e-10 and 1e-8
  times the matrix's mean diagonal before giving up with
  FactorizationFailure; a factor diagonal entry below 1e-150 raises
  SingularCovariance instead of overflowing a log-determinant, a NaN or inf
  one in a retried factor FactorizationFailure, and the first failing
  matrix's refusal is the one raised;
* the one explicit inverse, in :func:`precision`, is formed from one such
  factor as L^-T L^-1; nothing else inverts a matrix;
* triangular solves and that inverse use SciPy's LAPACK routines, called
  only in this module and imported on first use by :func:`_scipy_linalg`;
  the posterior covariance, the unobserved-entropy metric below
  STABLE_NOISE_RATIO and an exhaustive node whose level factor failed
  condition through one step, :func:`_condition`, and
  load SciPy, as the posterior mean and the greedy planners do; the Markov
  stage table solves its k x k factors by numpy's LU solve, so the Markov,
  exhaustive and bounds paths and the field draws run on numpy alone;
* log-determinants come from the triangular factor;
* entropies are reported in nats.

Within a covariance matrix over a list of observations the noise term sits on
the index diagonal: two observations taken at the same cell share the signal
but not the noise, which keeps the matrix nonsingular when noise_var > 0.
Repeated rows with noise_var == 0 are rejected as singular.

The planners and metrics gather Gram matrices between cells of one grid from
its lag blocks (:class:`LagGram`), which depend on the grid's shape and
spacing and on the hyperparameters only. They are built once per such key,
shared read-only, and kept for the last LAG_BLOCK_KEYS (4) keys, at
n_cols * n_rows^2 * 8 bytes each.

Whole-grid draws and the whole grid's entropy go through the Kronecker
eigenfactors of the grid's covariance instead of a dense factor. Each 1-D
factor is a symmetric Toeplitz matrix, hence centrosymmetric, so its
eigenproblem splits exactly into two half-size ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FactorizationFailure, GridTooLarge, SingularCovariance
from .transect import Location, TransectGrid

LOG_2PI_E = float(np.log(2.0 * np.pi * np.e))

# Escalation ladder for the relative diagonal jitter.
JITTER_STEPS = (0.0, 1e-12, 1e-10, 1e-8)

# Triangular factor entries below this cannot contribute a finite log-det.
DIAG_FLOOR = 1e-150

# Dense operations over a whole grid are refused beyond this many cells.
MAX_DENSE_CELLS = 5000

#: Two algebraically equal routes to an entropy are trusted to agree only
#: when noise_var is at least this fraction of signal_var: every covariance's
#: smallest eigenvalue is then at least noise_var. Both uses need it. The
#: bound audit prunes its search by the Markov values only above it, where
#: they and the searched values round apart by at most 9.2e-14 relative. The
#: unobserved-entropy metric takes the grid's entropy minus the visited
#: cells' only above it, where that difference stays within 8.4e-14 relative
#: of conditioning the unvisited cells. At noise ratio 1e-6 such routes
#: differ by up to 4.9e-11 relative, and at noise 0 by up to 4.1e-4.
STABLE_NOISE_RATIO = 1e-3


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
        # the diagonal of every covariance matrix
        if not np.isfinite(self.signal_var + self.noise_var):
            raise ValueError(f"signal_var + noise_var must be finite, got {self}")


@functools.cache
def _scipy_linalg():
    """``scipy.linalg``, imported on the first call: its triangular solve and
    LAPACK ``trtrs`` and ``potri`` serve the history factors and the
    precision, and importing SciPy costs more than the Markov path's whole
    run, so only the calls that need it pay."""
    import scipy.linalg

    return scipy.linalg


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


def _probe(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rung 0 of the ladder over a stack of shape (..., n, n): ``(L, ok)``,
    with ``L`` the lower factors and ``ok`` (shape (...)) true where a matrix
    factored with every pivot finite and at least DIAG_FLOOR.

    One stacked Cholesky factors every matrix; if it raises, the matrices
    are factored one by one, and a matrix that does not factor gets NaNs.
    """
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        L = np.full(cov.shape, np.nan)
        for i in np.ndindex(cov.shape[:-2]):
            try:
                L[i] = np.linalg.cholesky(cov[i])
            except np.linalg.LinAlgError:
                pass
    d = L.diagonal(axis1=-2, axis2=-1)
    return L, ((d >= DIAG_FLOOR) & (d < np.inf)).all(axis=-1)


def _climb(cov: np.ndarray) -> np.ndarray:
    """The jitter ladder past rung 0 for one matrix, scaled by its mean
    diagonal; FactorizationFailure once the ladder is exhausted."""
    scale = float(np.mean(np.diag(cov)))
    for step in JITTER_STEPS[1:]:
        try:
            return np.linalg.cholesky(cov + (step * scale) * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise FactorizationFailure(
        f"covariance of order {cov.shape[0]} is not factorizable "
        f"(max jitter {JITTER_STEPS[-1]:g} * {scale:g})"
    )


def chol_factor(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a matrix or a stack of shape (..., n, n),
    the one factorization routine behind every other.

    One stacked Cholesky runs with no jitter. Only the matrices that fail it
    are retried, one by one in C order, up the jitter ladder, so the others
    keep the bits of a plain Cholesky and the first failing matrix's error
    is the one raised: FactorizationFailure when the ladder is exhausted or
    a retried factor has a NaN or inf pivot, SingularCovariance when a
    pivot is below DIAG_FLOOR.
    """
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    L, ok = _probe(cov)
    if not ok.all():
        _past_rung_0(cov, L, ok)
    return L


def _past_rung_0(cov: np.ndarray, L: np.ndarray, ok: np.ndarray) -> None:
    """The rest of :func:`chol_factor` after :func:`_probe` gave ``(L, ok)``
    for the stack ``cov``: in place in ``L``, the matrices that failed rung 0
    are retried one by one in C order up the jitter ladder, and the first
    failing one's refusal is raised."""
    n = cov.shape[-1]
    flat, covs = L.reshape(-1, n, n), cov.reshape(-1, n, n)
    for i in np.flatnonzero(~ok):
        if np.isnan(flat[i]).any():
            flat[i] = _climb(covs[i])
        logdet_from_factor(flat[i])  # refuses a non-finite or sub-floor pivot


def logdet_from_factor(factor: np.ndarray) -> float:
    """Log-determinant from a triangular factor, guarding the log."""
    d = np.diag(factor)
    if not np.all(np.isfinite(d)):
        raise FactorizationFailure("factor diagonal holds a NaN or inf pivot")
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


def _condition(L: np.ndarray, k_xt: np.ndarray, k_tt: np.ndarray) -> np.ndarray:
    """The conditioning step, K_tt - W^T W with W = L^-1 K_xt: the targets'
    covariance given observations whose Gram matrix has the lower factor L."""
    w = _scipy_linalg().solve_triangular(L, k_xt, lower=True, check_finite=False)
    return k_tt - w.T @ w


def _factor_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K^-1 b from the lower factor L of K, by two triangular solves."""
    solve_triangular = _scipy_linalg().solve_triangular
    alpha = solve_triangular(L, b, lower=True, check_finite=False)
    return solve_triangular(L.T, alpha, lower=False, check_finite=False)


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
    alpha = _factor_solve(L, obs_vals - mean)
    return mean + cross_cov(targets, obs_locs, h, widths) @ alpha


def posterior_cov(
    targets: Sequence[Location],
    obs_locs: Sequence[Location],
    h: Hyperparams,
    widths: tuple[float, float],
) -> np.ndarray:
    """Posterior covariance of the measurements at ``targets`` after
    observing ``obs_locs``, by :func:`_condition` on their factor.

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
    return _condition(L, cross_cov(obs_locs, targets, h, widths), prior)


def gaussian_entropy(cov: np.ndarray) -> float | np.ndarray:
    """Differential entropy 0.5 * log((2 pi e)^n |cov|) in nats of a matrix,
    or of each matrix of a stack of shape (..., n, n), as an array of shape
    (...), from :func:`chol_factor`'s factors.

    Negative values are legitimate for small variances; a singular matrix
    raises instead of returning -inf.
    """
    L = chol_factor(cov)
    d = L.diagonal(axis1=-2, axis2=-1)
    e = 0.5 * (L.shape[-1] * LOG_2PI_E + 2.0 * np.log(d).sum(axis=-1))
    return e if e.ndim else float(e)


def minor_entropies(cov: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Entropies of the principal minors ``cov[..., idx[j]][..., idx[j]]``,
    one per row of the (m, k) index array and per matrix of the stack
    ``cov`` (shape (..., R, R)): :func:`gaussian_entropy` of the gathered
    minors, shape (..., m), by :func:`minor_factors`.
    """
    return minor_factors(cov, idx)[0]


def minor_factors(cov: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`minor_entropies` with the factors it takes them from, as
    ``(entropies, L, ok)``: ``L`` (shape (..., m, k, k)) holds the minors'
    lower factors and ``ok`` (shape (..., m)) is false where a minor failed
    rung 0 and was factored with jitter. The steps, bits and refusals are
    those of :func:`gaussian_entropy` on the gathered minors, by
    :func:`_probe` and the rest of :func:`chol_factor`'s ladder, so that
    ``ok`` is kept.
    """
    idx = np.asarray(idx)
    minors = cov[..., idx[:, :, None], idx[:, None, :]]
    L, ok = _probe(minors)
    if not ok.all():
        _past_rung_0(minors, L, ok)
    d = L.diagonal(axis1=-2, axis2=-1)
    return 0.5 * (idx.shape[1] * LOG_2PI_E + 2.0 * np.log(d).sum(axis=-1)), L, ok


def precision(cov: np.ndarray) -> np.ndarray:
    """Inverse of a covariance matrix, L^-T L^-1 from its factor L by
    :func:`chol_factor`, with its jitter ladder and refusals.

    LAPACK ``potri`` inverts in the factor's own storage, so besides ``cov``
    one more matrix of its size is held at a time.
    """
    L = chol_factor(cov)
    del cov
    # L^T is the upper factor in Fortran order, which potri overwrites
    p, info = _scipy_linalg().lapack.dpotri(L.T, lower=0, overwrite_c=1)
    if info != 0:
        raise SingularCovariance(f"potri failed with info {info}")
    p += np.triu(p, 1).T
    return p


# Lag-block arrays kept by _lag_blocks, one per grid shape, spacing and fit.
LAG_BLOCK_KEYS = 4


@functools.lru_cache(maxsize=LAG_BLOCK_KEYS)
def _lag_blocks(
    n_rows: int, n_cols: int, omega1: float, omega2: float, h: Hyperparams
) -> np.ndarray:
    # every cell's (col, row), column-major, against column 0's cells
    cells = np.column_stack(np.divmod(np.arange(n_cols * n_rows), n_rows))
    block = _signal_gram(cells, cells[:n_rows], h, (omega1, omega2))
    block[np.arange(n_rows), np.arange(n_rows)] += h.noise_var
    block.flags.writeable = False
    return block.reshape(n_cols, n_rows, n_rows)


class LagGram:
    """Prior covariance between the cells of one grid, numbered column-major
    (``col * n_rows + row``), gathered from covariance blocks by lag.

    ``blocks[lag, r, s]`` is the covariance of the cells (c, r) and
    (c + lag, s), with the noise on the lag-0 diagonal, as :func:`cross_cov`
    puts it. The kernel is stationary, so these n_cols blocks of
    n_rows x n_rows hold every entry of the grid's Gram matrix, with the same
    bits as :func:`cross_cov` between the same cells. No other code reads
    the blocks: a call, :meth:`along`, :meth:`before`, :meth:`all_against`
    and :meth:`dense` gather from them.

    The blocks depend on the grid's shape and spacing and on ``h`` only, not
    on its measurements, so they are built once per such key and shared,
    read-only, by every LagGram of it; the last LAG_BLOCK_KEYS (4) keys are
    kept. A key holds n_cols * n_rows^2 * 8 bytes. Nothing caps the grid
    here, as MAX_DENSE_CELLS caps the dense routes, so few keys are kept:
    a bound audit, a benchmark survey or a Markov table with its rollouts
    each reads one.
    """

    def __init__(self, grid: TransectGrid, h: Hyperparams):
        n_rows = self.n_rows = grid.n_rows
        self.blocks = _lag_blocks(n_rows, grid.n_cols, grid.omega1, grid.omega2, h)
        # where each row's entries start within a block
        self._row_starts = (np.arange(n_rows) * n_rows)[:, None]

    def __call__(self, a, b) -> np.ndarray:
        """The block M[a][:, b] for cell index arrays ``a`` and ``b``, whose
        leading axes broadcast: shape (..., len(a), len(b))."""
        a_col, a_row = np.divmod(np.asarray(a), self.n_rows)
        b_col, b_row = np.divmod(np.asarray(b), self.n_rows)
        # one flat index into the (lag, row, row) blocks
        lag = np.abs(a_col[..., :, None] - b_col[..., None, :])
        flat = lag * self.n_rows**2 + (a_row * self.n_rows)[..., :, None] + b_row[..., None, :]
        return self.blocks.reshape(-1)[flat]

    def along(self, cols, rows) -> np.ndarray:
        """The Gram matrices, shape (..., n, n), of the cell lists whose i-th
        cells are (cols[i], rows[..., i]); one lag array serves the stack."""
        lag = np.abs(cols[:, None] - cols[None, :])
        return self.blocks[lag, rows[..., :, None], rows[..., None, :]]

    def before(self, col: int, cols, rows) -> np.ndarray:
        """The block M[a][:, b], shape (..., n_rows, n), for ``a`` the cells
        of column ``col`` in row order and ``b`` the n cells
        (cols[i], rows[..., i]), each in a column before ``col``: every lag
        col - cols[i] is positive, so the call's divmod and abs are not
        needed. The same bits as the call."""
        flat = (col - cols) * self.n_rows**2 + rows
        return self.blocks.reshape(-1)[flat[..., None, :] + self._row_starts]

    def all_against(self, cols, rows) -> np.ndarray:
        """The block M[:, b], shape (n_rows * n_cols, n), of every cell,
        column-major, against the n cells b = (cols[i], rows[i]): one lag
        per column pair instead of the call's divmod of every cell. The same
        bits as the call."""
        n_cols, n_rows, _ = self.blocks.shape
        lag = np.abs(np.arange(n_cols)[:, None] - cols[None, :])
        return self.blocks[lag[:, None, :], np.arange(n_rows)[:, None], rows].reshape(-1, cols.size)

    def dense(self) -> np.ndarray:
        """The whole grid's Gram matrix over column-major cells, filled one
        column's band of rows at a time."""
        n_cols, n_rows, _ = self.blocks.shape
        lags = np.arange(n_cols)
        gram = np.empty((n_cols * n_rows, n_cols * n_rows))
        for c in range(n_cols):
            band = self.blocks[np.abs(lags - c)].transpose(1, 0, 2)
            gram[c * n_rows : (c + 1) * n_rows] = band.reshape(n_rows, -1)
        return gram


class GrowingFactor:
    """Lower Cholesky factors L_s of M[V_s, V_s] for a stack of index sets
    V_s that grow together, each by the same number of indices at a time.

    ``entries(a, b)`` returns the block M[a][:, b] of a symmetric positive
    definite matrix M that need never be formed whole; its index arrays
    broadcast over a leading stack axis, as :class:`LagGram`'s do. It
    gathers the start's block and a refactored member's history; the
    caller gathers the candidates' blocks, by whatever route is cheapest.
    :meth:`condition` gives each member's Schur complement of M[V_s, V_s]
    for candidate indices shared by the stack, which for a covariance M is
    their covariance given V_s, at O(n^2 R) per member for n indices in V_s
    and R candidates; :meth:`extend` appends chosen candidates to each V_s
    from the same W and the factor of their Schur block, so V_s is factored
    only once and each block only where it was scored (Golub & Van Loan,
    Matrix Computations, 4th ed., sec. 4.2).

    The factors live in one (stack, capacity, capacity) buffer, filled in
    place: ``factor[s, :size, :size]`` is L_s and ``cells[s, :size]`` is
    V_s. Each member's arithmetic is the same whatever the stack holds.
    """

    def __init__(self, entries, cells, capacity: int):
        cells = np.asarray(cells)
        stack, n = cells.shape
        self.entries = entries
        self.size = n
        self.cells = np.zeros((stack, capacity), dtype=np.int64)
        self.cells[:, :n] = cells
        self.factor = np.zeros((stack, capacity, capacity))
        self.factor[:, :n, :n] = chol_factor(entries(cells, cells))

    def condition(self, cross: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(S, Wt)`` for candidate indices c, given ``cross[s]`` =
        M[c, V_s] (shape (stack, R, n)) and ``block`` = M[c, c]: with
        W_s = L_s^-1 M[V_s, c], ``Wt[s]`` is W_s^T, solved in place in
        ``cross`` (in a C-ordered copy when it is not one), and ``S[s]`` is
        M[c, c] - W_s^T W_s."""
        n = self.size
        # M[c, V_s] is M[V_s, c]^T; each member's W_s^T is solved in it
        wt = np.ascontiguousarray(cross, dtype=float)
        dtrtrs = _scipy_linalg().lapack.dtrtrs
        for factor, w in zip(self.factor, wt):
            # L_s^T, read in place from the buffer with leading dimension capacity
            _, info = dtrtrs(factor.T[:, :n], w.T, lower=0, trans=1, overwrite_b=1)
            if info != 0:
                raise SingularCovariance(f"trtrs failed with info {info}")
        return block - wt @ wt.transpose(0, 2, 1), wt

    def extend(self, cells: np.ndarray, wt: np.ndarray, factor: np.ndarray, ok: np.ndarray) -> None:
        """Append ``cells[s]`` (shape (stack, k)) to each V_s, given the rows
        ``wt[s]`` of W_s^T from :meth:`condition`, the lower factor
        ``factor[s]`` of the Schur block S_s[cells[s], cells[s]] and
        ``ok[s]``, whether that block passed rung 0 of :func:`chol_factor`'s
        ladder: L_s' = [[L_s, 0], [W_s^T, factor[s]]]. No block is factored
        here. The members whose block failed rung 0 are refactored from all
        of M[V_s', V_s'] by one :func:`chol_factor` call over their stack,
        with its jitter ladder and refusals, the first failing member's
        first.
        """
        n, k = self.size, cells.shape[1]
        new = slice(n, n + k)
        self.size = n + k
        self.cells[:, new] = cells
        self.factor[:, new, :n] = wt
        self.factor[:, new, new] = factor
        failed = np.flatnonzero(~ok)
        if failed.size:
            v = self.cells[failed, : self.size]
            self.factor[failed, : self.size, : self.size] = chol_factor(self.entries(v, v))


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


def _unit_toeplitz(n: int, step: float) -> np.ndarray:
    """Unit-variance squared-exponential Gram of ``n`` equally spaced points
    ``step`` length-scales apart, K[i, j] = row[|i - j|] with
    row[l] = exp(-0.5 * (l * step)^2): the same bits as :func:`_signal_gram`
    on those points, from n exponentials instead of n^2. Row i is the
    window of length n ending n - 1 - i past the middle of the mirrored row
    (row[n-1], ..., row[1], row[0], ..., row[n-1]), so the matrix is copied
    from strided windows with no index array."""
    lag = np.arange(n) * step
    row = np.exp(-0.5 * (lag * lag))
    mirrored = np.concatenate([row[:0:-1], row])
    return np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1].copy()


@functools.lru_cache(maxsize=32)
def _grid_entropy(n_rows: int, n_cols: int, omega1: float, omega2: float, h: Hyperparams) -> float:
    lam_c = np.linalg.eigvalsh(_unit_toeplitz(n_cols, omega1 / h.ell1))
    lam_r = np.linalg.eigvalsh(_unit_toeplitz(n_rows, omega2 / h.ell2))
    lam_c, lam_r = np.clip(lam_c, 0.0, None), np.clip(lam_r, 0.0, None)
    var = h.signal_var * np.outer(lam_c, lam_r) + h.noise_var
    if not var.min() > 0.0:
        raise SingularCovariance("the grid's covariance has a zero eigenvalue")
    return 0.5 * (var.size * LOG_2PI_E + float(np.sum(np.log(var))))


def grid_entropy(grid: TransectGrid, h: Hyperparams) -> float:
    """Entropy in nats of the measurements at every cell of the grid,
    0.5 * sum(log(2 pi e * var)) over the eigenvalues var of the covariance
    signal_var * kron(K_col, K_row) + noise_var * I (see :func:`_kron_eigen`;
    Saatci, PhD thesis, Cambridge, 2011). The 1-D factors' eigenvalues come
    from ``eigvalsh`` and are clipped at zero as there; at noise 0 an
    eigenvalue can be 0, which raises SingularCovariance. It is accurate
    where noise_var is at least STABLE_NOISE_RATIO of signal_var. It depends
    on the grid's shape and spacing and on ``h`` only, not on its
    measurements, and is kept for the last 32 such keys.
    """
    return _grid_entropy(grid.n_rows, grid.n_cols, grid.omega1, grid.omega2, h)


def _centro_eigh(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a symmetric
    centrosymmetric matrix ``k`` (J k J = k, J the exchange matrix), as
    ``(lam, q)`` with ``q @ diag(lam) @ q.T == k``, from two half-size
    eigenproblems (Cantoni & Butler, Linear Algebra Appl. 13, 1976).

    With m = n // 2, A the leading m x m block and B the trailing m rows'
    leading m columns, the symmetric half A + JB gives the eigenvectors
    [u; Ju] / sqrt(2) and the skew half A - JB gives [v; -Jv] / sqrt(2).
    For odd n the symmetric half also holds the middle row, coupled to the
    others by sqrt(2), and its eigenvectors carry their middle entry as is.
    The eigenvalues are not sorted: the symmetric half's come first.
    """
    n = k.shape[0]
    m, odd = divmod(n, 2)
    a, jb = k[:m, :m], k[n - m :, :m][::-1]
    sym = np.empty((m + odd, m + odd))
    sym[:m, :m] = a + jb
    if odd:
        sym[:m, m] = sym[m, :m] = np.sqrt(2.0) * k[:m, m]
        sym[m, m] = k[m, m]
    lam_s, u = np.linalg.eigh(sym)
    lam_a, v = np.linalg.eigh(a - jb)
    r = np.sqrt(0.5)
    q = np.zeros((n, n))
    q[:m, : m + odd] = r * u[:m]
    q[m : n - m, : m + odd] = u[m:]
    q[n - m :, : m + odd] = r * u[:m][::-1]
    q[:m, m + odd :] = r * v
    q[n - m :, m + odd :] = -r * v[::-1]
    return np.concatenate([lam_s, lam_a]), q


def _kron_eigen(
    grid: TransectGrid, h: Hyperparams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenfactors of the whole grid's prior covariance.

    On a regular grid the squared-exponential kernel separates, so over the
    column-major cell order the covariance is
    signal_var * kron(K_col, K_row) + noise_var * I with unit-variance
    along-track (C x C) and across-track (R x R) factors. Both are symmetric
    Toeplitz, so each is gathered from its first row by
    :func:`_unit_toeplitz` and decomposed by :func:`_centro_eigh` as two
    half-size eigenproblems. Returns ``(q_c, q_r, var)`` with
    ``kron(q_c, q_r) @ diag(var.ravel()) @ kron(q_c, q_r).T`` equal to that
    covariance; ``var`` has shape (C, R). Eigenvalues that rounding pushes
    below zero are clipped to zero.
    """
    lam_c, q_c = _centro_eigh(_unit_toeplitz(grid.n_cols, grid.omega1 / h.ell1))
    lam_r, q_r = _centro_eigh(_unit_toeplitz(grid.n_rows, grid.omega2 / h.ell2))
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
    eigenbases carry the exact joint law. That costs the eigendecompositions
    of one C x C and one R x R factor, each split into two half-size
    eigenproblems (about a quarter of a full ``eigh``'s flops), O(C^3 + R^3)
    instead of a dense factor of the (R*C) x (R*C) covariance. The order of
    the eigenpairs decides which field a seed draws, not its law. Eigenvalues
    that rounding makes slightly negative are clipped to zero, so an
    ill-conditioned or noise-free covariance still draws. Deterministic for
    a given seed. Grids beyond MAX_DENSE_CELLS cells are refused.
    """
    n = grid.n_rows * grid.n_cols
    if n > MAX_DENSE_CELLS:
        raise GridTooLarge(f"{n} cells exceeds the dense limit {MAX_DENSE_CELLS}")
    q_c, q_r, var = _kron_eigen(grid, h)
    rng = np.random.default_rng(seed)
    # cells are column-major, so e has one row per grid column
    e = rng.standard_normal(n).reshape(grid.n_cols, grid.n_rows)
    return mean + q_r @ (np.sqrt(var) * e).T @ q_c.T
