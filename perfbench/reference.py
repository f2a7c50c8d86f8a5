"""Reference computations the benchmark checks the package against.

Nothing here imports transectplan. Covariances are assembled from the
squared-exponential formula, conditioning uses explicit inverses, and
log-determinants come from ``numpy.linalg.slogdet``: a different route
from the package's Cholesky factors, so agreement means something.

Cells are integer arrays of (column, row) pairs. Hyperparameters are any
object with ``ell1``, ``ell2``, ``signal_var`` and ``noise_var``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

LOG_2PI_E = math.log(2.0 * math.pi * math.e)


def cells(pairs) -> np.ndarray:
    """(col, row) pairs as an (n, 2) integer array."""
    return np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)


def column_cells(col: int, rows) -> np.ndarray:
    return cells((col, r) for r in rows)


def grid_cells(n_rows: int, n_cols: int) -> np.ndarray:
    """Every cell, column-major, rows ascending within a column."""
    return cells((c, r) for c in range(n_cols) for r in range(n_rows))


def cov(a: np.ndarray, b: np.ndarray, h, widths) -> np.ndarray:
    """Prior covariance between two cell lists; noise where cells coincide."""
    d1 = (a[:, None, 0] - b[None, :, 0]) * (widths[0] / h.ell1)
    d2 = (a[:, None, 1] - b[None, :, 1]) * (widths[1] / h.ell2)
    k = h.signal_var * np.exp(-0.5 * (d1 * d1 + d2 * d2))
    same = (a[:, None, 0] == b[None, :, 0]) & (a[:, None, 1] == b[None, :, 1])
    return k + h.noise_var * same


def posterior(targets: np.ndarray, obs: np.ndarray, h, widths) -> np.ndarray:
    """Posterior covariance of ``targets`` given ``obs``, by explicit inverse."""
    prior = cov(targets, targets, h, widths)
    if len(obs) == 0:
        return prior
    k_to = cov(targets, obs, h, widths)
    return prior - k_to @ np.linalg.inv(cov(obs, obs, h, widths)) @ k_to.T


def entropy(k: np.ndarray) -> np.ndarray:
    """Gaussian entropy in nats of one matrix or a stack of them."""
    sign, logdet = np.linalg.slogdet(k)
    if np.any(sign <= 0):
        raise ValueError("reference entropy needs positive definite matrices")
    return 0.5 * (k.shape[-1] * LOG_2PI_E + logdet)


def cond_entropy(targets: np.ndarray, obs: np.ndarray, h, widths) -> float:
    return float(entropy(posterior(targets, obs, h, widths)))


def configs(n_rows: int, k: int) -> list[tuple[int, ...]]:
    """Row sets in lexicographic order, the package's tie-break order."""
    return list(itertools.combinations(range(n_rows), k))


def _minors(post: np.ndarray, rowsets: np.ndarray) -> np.ndarray:
    return post[rowsets[:, :, None], rowsets[:, None, :]]


def stage_table(n_rows: int, k: int, h, widths) -> np.ndarray:
    """Entry (i, j): entropy of column 1 in configs[j] given column 0 in
    configs[i]."""
    rowsets = np.array(configs(n_rows, k))
    nxt = column_cells(1, range(n_rows))
    table = np.empty((len(rowsets), len(rowsets)))
    for i, x in enumerate(rowsets):
        post = posterior(nxt, column_cells(0, x), h, widths)
        table[i] = entropy(_minors(post, rowsets))
    return table


def markov_values(table: np.ndarray, stages: int) -> np.ndarray:
    """Backward induction; row i is the value-to-go at column i, and row
    ``stages`` is the zero terminal value."""
    values = np.zeros((stages + 1, table.shape[0]))
    for i in range(stages - 1, -1, -1):
        values[i] = np.max(table + values[i + 1][None, :], axis=1)
    return values


def path_entropy(path_cells: np.ndarray, k: int, h, widths) -> float:
    """Joint entropy of everything after the start column, given the start."""
    whole = entropy(cov(path_cells, path_cells, h, widths))
    start = entropy(cov(path_cells[:k], path_cells[:k], h, widths))
    return float(whole - start)


def unvisited_entropy(n_rows: int, n_cols: int, visited: np.ndarray, h, widths) -> float:
    """Entropy of the cells a path never visited, given the visited ones."""
    seen = {tuple(c) for c in visited.tolist()}
    rest = cells(c for c in grid_cells(n_rows, n_cols).tolist() if tuple(c) not in seen)
    return cond_entropy(rest, visited, h, widths)


def greedy_scores(
    kind: str, n_rows: int, n_cols: int, k: int, visited: np.ndarray, col: int, h, widths
) -> np.ndarray:
    """Each configuration's greedy score for column ``col`` after ``visited``.

    greedy-ent scores H[candidate | visited]. greedy-mi subtracts
    H[candidate | every other unvisited cell], read off the inverse of the
    unvisited cells' covariance: the conditional covariance of a block given
    the rest of a set is the inverse of that block of the set's precision.
    """
    rowsets = np.array(configs(n_rows, k))
    nxt = column_cells(col, range(n_rows))
    ent = entropy(_minors(posterior(nxt, visited, h, widths), rowsets))
    if kind == "greedy-ent":
        return ent
    seen = {tuple(c) for c in visited.tolist()}
    open_cells = cells(
        c for c in grid_cells(n_rows, n_cols).tolist() if tuple(c) not in seen
    )
    precision = np.linalg.inv(cov(open_cells, open_cells, h, widths))
    # open_cells is column-major, so column ``col`` sits at a fixed offset
    first = int(np.flatnonzero(open_cells[:, 0] == col)[0])
    given_rest = entropy(np.linalg.inv(_minors(precision, rowsets + first)))
    return ent - given_rest


def exhaustive_values(n_rows: int, n_cols: int, k: int, h, widths) -> np.ndarray:
    """Best summed full-history entropy from each start, by enumerating every
    action sequence and taking one slogdet per sequence."""
    rowsets = configs(n_rows, k)
    m = len(rowsets)
    seqs = np.array(list(itertools.product(range(m), repeat=n_cols - 1)))
    rows_of = np.array(rowsets)
    best = np.empty(m)
    for s, start in enumerate(rowsets):
        rows = np.concatenate(
            [np.broadcast_to(np.array(start), (len(seqs), k)), rows_of[seqs].reshape(len(seqs), -1)],
            axis=1,
        )
        cols = np.repeat(np.arange(n_cols), k)
        d1 = (cols[:, None] - cols[None, :]) * (widths[0] / h.ell1)
        d2 = (rows[:, :, None] - rows[:, None, :]) * (widths[1] / h.ell2)
        kmat = h.signal_var * np.exp(-0.5 * (d1[None] * d1[None] + d2 * d2))
        kmat += h.noise_var * np.eye(len(cols))
        start_cov = kmat[0, :k, :k]
        best[s] = np.max(entropy(kmat)) - float(entropy(start_cov))
    return best


def whitener(n_rows: int, n_cols: int, h, widths) -> np.ndarray:
    """Inverse Cholesky factor of the whole grid's prior covariance."""
    every = grid_cells(n_rows, n_cols)
    return np.linalg.inv(np.linalg.cholesky(cov(every, every, h, widths)))
