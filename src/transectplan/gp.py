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
* every triangular solve goes through :func:`_trsolve`, and that inverse
  through LAPACK ``potri``: ``trtrs`` and ``potri`` are the only SciPy
  routines the package calls, imported on first use by :func:`_lapack`;
  the posterior covariance, the unobserved-entropy metric below
  STABLE_NOISE_RATIO and an exhaustive node whose level factor failed
  condition through one step, :func:`_condition`, and load SciPy, as the
  relative-error metric's posterior mean and the greedy planners do; the
  Markov stage table solves its k x k factors by numpy's LU solve, so the
  Markov, exhaustive and bounds paths and the field draws run on numpy alone;
* log-determinants and entropies come from the triangular factor, the
  entropies through :func:`_factor_entropy`;
* entropies are reported in nats.

Within a covariance matrix over a list of observations the noise term sits on
the index diagonal: two observations taken at the same cell share the signal
but not the noise, which keeps the matrix nonsingular when noise_var > 0.
Repeated rows with noise_var == 0 are rejected as singular.

The planners and metrics gather Gram matrices between cells of one grid from
its lag blocks (:class:`LagGram`), which depend on the grid's shape and
spacing and on the hyperparameters only. They are built once per such key,
shared read-only, and kept for the last LAG_BLOCK_KEYS (4) keys, at
n_cols * n_rows^2 * 8 bytes each. The Markov planner keeps its stage tables
the same way (``planners._stage_table``): per key (n_rows, omega1, omega2,
h, k), read-only, for the last LAG_BLOCK_KEYS keys, at C(n_rows, k)^2 * 8
bytes each (16 KB at 10 rows and k = 2). The whole grid's entropy
(:func:`grid_entropy`) is kept for the last 32 keys of shape, spacing and
hyperparameters, at one float each.

On a regular grid the squared-exponential covariance is a Kronecker
product of two 1-D symmetric Toeplitz factors, along and across the
transect, so whole-grid draws and the whole grid's entropy form no dense
factor. The entropy comes from the two factors' eigenvalues. A draw embeds
the along-track factor in a circulant, drawn by one real FFT per row, and
takes the R x R across-track factor's eigenfactors from ``eigh``.
"""

from __future__ import annotations

import functools
import math
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
def _lapack():
    """``scipy.linalg.lapack``, imported on the first call: its ``trtrs`` and
    ``potri`` serve the triangular solves and the precision, and importing
    SciPy costs more than the Markov path's whole run, so only the calls
    that need it pay."""
    import scipy.linalg.lapack

    return scipy.linalg.lapack


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


def _trsolve(L: np.ndarray, b: np.ndarray, trans: int = 1, overwrite_b: int = 0) -> np.ndarray:
    """L^-1 b (``trans=1``) or L^-T b (``trans=0``) for a lower factor L by
    LAPACK ``trtrs``, the one triangular solve. L^T, the upper factor in
    Fortran order, is read in place, also from the first n rows of a wider
    C-ordered buffer; ``overwrite_b=1`` solves in a Fortran-ordered ``b``.
    An exact zero pivot raises SingularCovariance."""
    x, info = _lapack().dtrtrs(L.T, b, lower=0, trans=trans, overwrite_b=overwrite_b)
    if info != 0:
        raise SingularCovariance(f"trtrs failed with info {info}")
    return x


def _condition(L: np.ndarray, k_xt: np.ndarray, k_tt: np.ndarray) -> np.ndarray:
    """The conditioning step, K_tt - W^T W with W = L^-1 K_xt by
    :func:`_trsolve`: the targets' covariance given observations whose Gram
    matrix has the lower factor L."""
    w = _trsolve(L, k_xt)
    return k_tt - w.T @ w


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
    e = _factor_entropy(chol_factor(cov))
    return e if e.ndim else float(e)


def _factor_entropy(L: np.ndarray) -> np.ndarray:
    """Entropy in nats, 0.5 * (n log(2 pi e) + 2 sum(log(diag L))), of each
    Gaussian of a stack of shape (..., n, n) from its lower factor L as
    :func:`chol_factor`'s ladder leaves it, pivots unchecked: shape (...)."""
    d = L.diagonal(axis1=-2, axis2=-1)
    return 0.5 * (L.shape[-1] * LOG_2PI_E + 2.0 * np.log(d).sum(axis=-1))


def minor_factors(cov: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entropies of the principal minors ``cov[..., idx[j]][..., idx[j]]``,
    one per row of the (m, k) index array and per matrix of the stack
    ``cov`` (shape (..., R, R)), and their lower factors: ``(entropies, L,
    ok)`` of shapes (..., m), (..., m, k, k) and (..., m), ``ok`` false
    where a minor failed rung 0 and was factored with jitter. The steps,
    bits and refusals are :func:`gaussian_entropy`'s on the gathered minors,
    by :func:`_probe` and the rest of :func:`chol_factor`'s ladder.
    """
    idx = np.asarray(idx)
    minors = cov[..., idx[:, :, None], idx[:, None, :]]
    L, ok = _probe(minors)
    if not ok.all():
        _past_rung_0(minors, L, ok)
    return _factor_entropy(L), L, ok


def precision(cov: np.ndarray) -> np.ndarray:
    """Inverse of a covariance matrix, L^-T L^-1 from its factor L by
    :func:`chol_factor`, with its jitter ladder and refusals.

    LAPACK ``potri`` inverts in the factor's own storage, so besides ``cov``
    one more matrix of its size is held at a time.
    """
    L = chol_factor(cov)
    del cov
    # L^T is the upper factor in Fortran order, which potri overwrites
    p, info = _lapack().dpotri(L.T, lower=0, overwrite_c=1)
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
        W_s = L_s^-1 M[V_s, c] by :func:`_trsolve`, ``Wt[s]`` is W_s^T,
        solved in place in ``cross`` (in a C-ordered copy when it is not
        one), and ``S[s]`` is M[c, c] - W_s^T W_s."""
        n = self.size
        # M[c, V_s] is M[V_s, c]^T; each member's W_s^T is solved in it, and
        # L_s is read in place from the first n rows of the member's buffer
        wt = np.ascontiguousarray(cross, dtype=float)
        for factor, w in zip(self.factor, wt):
            _trsolve(factor[:n], w.T, overwrite_b=1)
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
    signal_var * kron(K_col, K_row) + noise_var * I, which are
    signal_var * outer(lam_col, lam_row) + noise_var for the eigenvalues of
    the unit-variance 1-D Toeplitz factors (Saatci, PhD thesis, Cambridge,
    2011). Those come from ``eigvalsh`` and are clipped at zero,
    as :func:`sample_prior_field` clips its own; at noise 0 an
    eigenvalue can be 0, which raises SingularCovariance. It is accurate
    where noise_var is at least STABLE_NOISE_RATIO of signal_var. It depends
    on the grid's shape and spacing and on ``h`` only, not on its
    measurements, and is kept for the last 32 such keys.
    """
    return _grid_entropy(grid.n_rows, grid.n_cols, grid.omega1, grid.omega2, h)


def _smooth_at_least(n: int) -> int:
    """The smallest 2^a 3^b 5^c that is at least n >= 1."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _embedding_length(n: int, step: float) -> int:
    """Points M of the circulant that embeds the n-point along-track factor
    ``_unit_toeplitz(n, step)``: twice the smallest 5-smooth integer at least
    max(n - 1, ceil(8.9 / step)). The unit squared-exponential kernel is
    below 2^-56 beyond 8.9 length-scales (exp(-0.5 * 8.9^2) = 6.3e-18), so
    at M / 2 >= 8.9 length-scales it has decayed before the circulant wraps
    around, and the circulant's eigenvalues are those of the periodized
    kernel: positive up to rounding by Poisson summation, as the kernel's
    spectral density is. M / 2 >= n - 1 holds every lag of the factor. A
    5-smooth M keeps numpy's FFT on its mixed-radix path: at 2,499,978
    points (a prime factor 32,051) it falls back to Bluestein's algorithm,
    which took 8x the time and 2.5x the peak memory of 2,500,000 points.
    8.9 / step is capped at MAX_DENSE_CELLS^2, past any embedding that
    draws, so an absurd length-scale still gives a finite M to refuse."""
    reach = min(8.9 / step, float(MAX_DENSE_CELLS**2))
    return 2 * _smooth_at_least(max(n - 1, math.ceil(reach)))


def _circulant_eigvals(m: int, step: float) -> np.ndarray:
    """Eigenvalues of the m-point symmetric circulant whose first row is the
    unit squared-exponential kernel at lags min(j, m - j) * step, clipped at
    zero, from one real FFT of that row (m even). They are even,
    lam[j] == lam[m - j], so the circulant is (1 / m) H diag(lam) H with H
    the Hartley matrix, H[j, l] = cos(2 pi j l / m) + sin(2 pi j l / m)."""
    lag = np.arange(m // 2 + 1) * step
    row = np.exp(-0.5 * (lag * lag))
    half = np.clip(np.fft.rfft(np.concatenate([row, row[-2:0:-1]])).real, 0.0, None)
    return np.concatenate([half, half[-2:0:-1]])


def _hartley_head(x: np.ndarray, n: int) -> np.ndarray:
    """The first n rows of the Hartley transform H x down axis 0 of an
    (m, ...) array, n <= m // 2 + 1: the real part minus the imaginary part
    of x's DFT, whose first m // 2 + 1 rows one real FFT gives."""
    f = np.fft.rfft(x, axis=0)[:n]
    return f.real - f.imag


def sample_prior_field(
    grid: TransectGrid,
    h: Hyperparams,
    seed: int,
    mean: float = 0.0,
) -> np.ndarray:
    """Draw one exact field realization over the whole grid.

    Over column-major cells the covariance is signal_var * kron(K_col, K_row)
    + noise_var * I, with unit-variance along-track (C x C) and across-track
    (R x R) Toeplitz factors. The along-track factor is drawn by circulant
    embedding (Wood & Chan, J. Comput. Graph. Stat. 3, 1994; Dietrich &
    Newsam, SIAM J. Sci. Comput. 18, 1997): it is the leading block of the
    M-point circulant of :func:`_embedding_length`, M / 2 the smallest
    5-smooth integer at least max(C - 1, ceil(8.9 * ell1 / omega1)). With
    that circulant's eigenvalues lam (:func:`_circulant_eigvals`) and H the
    Hartley matrix, the C x M map A = H[:C] diag(sqrt(lam / M)) has
    A A^T = K_col. One ``standard_normal((M + C, R))`` call gives E, and
    the field is sqrt(signal_var) B (A E[:M])^T + sqrt(noise_var) E[M:]^T,
    with B = q_r diag(sqrt(lam_r)) from ``eigh`` of the R x R factor. That
    costs one real FFT of M points per grid row and one R x R eigenproblem,
    O(R M log M + R^3), and forms no C x C matrix. Eigenvalues
    that rounding makes slightly negative are clipped to zero, so an
    ill-conditioned or noise-free covariance still draws. Deterministic for
    a given seed; the law, not the field a seed draws, is the contract.

    Refused with GridTooLarge: grids beyond MAX_DENSE_CELLS cells, and,
    before anything is allocated, length-scales whose embedding's normals
    and their transform, (2M + C + 2) R doubles, would exceed
    MAX_DENSE_CELLS^2 doubles, the largest dense factor the cell cap admits.
    """
    n_rows, n_cols = grid.n_rows, grid.n_cols
    n = n_rows * n_cols
    if n > MAX_DENSE_CELLS:
        raise GridTooLarge(f"{n} cells exceeds the dense limit {MAX_DENSE_CELLS}")
    step = grid.omega1 / h.ell1
    m = _embedding_length(n_cols, step)
    if (2 * m + n_cols + 2) * n_rows > MAX_DENSE_CELLS**2:
        raise GridTooLarge(
            f"ell1 {h.ell1:g} is {h.ell1 / grid.omega1:g} cells: drawing its "
            f"circulant embedding exceeds {MAX_DENSE_CELLS**2} doubles"
        )
    lam_r, q_r = np.linalg.eigh(_unit_toeplitz(n_rows, grid.omega2 / h.ell2))
    across = q_r * np.sqrt(h.signal_var * np.clip(lam_r, 0.0, None))
    e = np.random.default_rng(seed).standard_normal((m + n_cols, n_rows))
    # one column of e per grid row: m normals for the row along the track,
    # then one per cell of the row for its noise
    head = e[:m]
    head *= np.sqrt(_circulant_eigvals(m, step) / m)[:, None]
    along = _hartley_head(head, n_cols)
    return mean + across @ along.T + np.sqrt(h.noise_var) * e[m:].T
