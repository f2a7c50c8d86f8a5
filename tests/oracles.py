"""Independent reference implementations used to cross-check the library.

Everything here recomputes quantities from first principles with explicit
inverses, slogdet and itertools enumeration, deliberately avoiding the
library's Cholesky and dynamic-programming code paths. Slow and dense on
purpose; only ever applied to desk-sized instances. The exceptions are
:func:`gram`, the prior covariance between two location lists in the
library's float expression, so gathers from its lag blocks can be checked
bit for bit, :func:`posterior_cov`, which conditions on that Gram through
the library's Cholesky factor and conditioning step, and
:func:`cond_mutual_info`, the conditional mutual information the paper's
per-stage caps bound, composed from that posterior covariance.
"""

import itertools
import math
import warnings

import numpy as np

from transectplan import (
    Hyperparams,
    Location,
    TransectGrid,
    enumerate_configs,
    gaussian_entropy,
)
from transectplan import gp

LOG_2PI_E = math.log(2.0 * math.pi * math.e)


def config_locations(x, col):
    """The cells of configuration ``x`` at column ``col``, ordered by row."""
    return tuple(Location(col, r) for r in x.rows)


def oracle_cov(locs, h, widths):
    """Dense prior covariance by double loop; noise on the index diagonal."""
    n = len(locs)
    m = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            d1 = (locs[a].col - locs[b].col) * widths[0] / h.ell1
            d2 = (locs[a].row - locs[b].row) * widths[1] / h.ell2
            m[a, b] = h.signal_var * math.exp(-0.5 * (d1 * d1 + d2 * d2))
            if a == b:
                m[a, b] += h.noise_var
    return m


def oracle_cross(rows, cols, h, widths):
    n, k = len(rows), len(cols)
    m = np.empty((n, k))
    for a in range(n):
        for b in range(k):
            d1 = (rows[a].col - cols[b].col) * widths[0] / h.ell1
            d2 = (rows[a].row - cols[b].row) * widths[1] / h.ell2
            m[a, b] = h.signal_var * math.exp(-0.5 * (d1 * d1 + d2 * d2))
            if rows[a] == cols[b]:
                m[a, b] += h.noise_var
    return m


def oracle_posterior_cov(targets, obs, h, widths):
    """Posterior covariance through an explicit matrix inverse."""
    prior = oracle_cov(targets, h, widths)
    if not obs:
        return prior
    k_tx = oracle_cross(targets, obs, h, widths)
    inv = np.linalg.inv(oracle_cov(obs, h, widths))
    return prior - k_tx @ inv @ k_tx.T


def gram(rows, h, widths, cols=None):
    """Prior covariance between the location lists ``rows`` and ``cols``
    (``rows`` again when None), vectorised in the float expression the
    library builds its lag blocks with, so a gather of the same cells has
    the same bits: the squared-exponential term plus the noise wherever a
    row's cell is a column's cell."""
    a = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    b = a if cols is None else np.asarray(cols, dtype=np.int64).reshape(-1, 2)
    d1 = (a[:, None, 0] - b[None, :, 0]) * (widths[0] / h.ell1)
    d2 = (a[:, None, 1] - b[None, :, 1]) * (widths[1] / h.ell2)
    m = h.signal_var * np.exp(-0.5 * (d1 * d1 + d2 * d2))
    m[(a[:, None] == b[None, :]).all(axis=-1)] += h.noise_var
    return m


def posterior_cov(targets, obs, h, widths):
    """Covariance of ``targets`` given observations at ``obs``: the prior
    when ``obs`` is empty, else gp's conditioning step on the Cholesky
    factor of the observations' :func:`gram`, with its jitter ladder and
    refusals."""
    prior = gram(targets, h, widths)
    if not len(obs):
        return prior
    factor = gp.chol_factor(gram(obs, h, widths))
    return gp._condition(factor, gram(obs, h, widths, targets), prior)


def oracle_posterior_mean(targets, obs, vals, h, widths, mean=0.0):
    if not obs:
        return np.full(len(targets), mean)
    k_tx = oracle_cross(targets, obs, h, widths)
    inv = np.linalg.inv(oracle_cov(obs, h, widths))
    return mean + k_tx @ inv @ (np.asarray(vals, dtype=float) - mean)


def oracle_relative_error(path, h, mean=None):
    """Mean squared residual of the posterior-mean map over every cell,
    relative to the field mean, conditioning on the path's cells by
    :func:`oracle_posterior_mean`; the prior mean defaults to the field's."""
    g = path.grid
    z = g.measurements
    if mean is None:
        mean = float(np.mean(z))
    obs = path.locations()
    cells = g.locations()
    vals = [z[u.row, u.col] for u in obs]
    mu = oracle_posterior_mean(cells, obs, vals, h, g.widths, mean=mean)
    truth = np.array([z[u.row, u.col] for u in cells])
    resid = (truth - mu) / np.mean(z)
    return float(np.mean(resid * resid))


def oracle_entropy(cov):
    cov = np.atleast_2d(cov)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0, "oracle entropy needs a positive definite matrix"
    return 0.5 * (cov.shape[0] * LOG_2PI_E + logdet)


def oracle_cond_entropy(targets, obs, h, widths):
    return oracle_entropy(oracle_posterior_cov(targets, obs, h, widths))


def cond_mutual_info(next_locs, past_locs, current_locs, h, widths):
    """I[next; past | current] as H[next | current] - H[next | current u
    past], each entropy ``gaussian_entropy(posterior_cov(...))``.

    The union is one of locations: past cells already in the current set
    are dropped, so a past that adds nothing gives exactly zero. Information
    never hurts, so negatives within 1e-9 are rounding and read zero.
    """
    current_locs = list(current_locs)
    past = [p for p in dict.fromkeys(past_locs) if p not in current_locs]
    h_cur = gaussian_entropy(posterior_cov(next_locs, current_locs, h, widths))
    h_all = gaussian_entropy(posterior_cov(next_locs, current_locs + past, h, widths))
    value = h_cur - h_all
    if -1e-9 <= value < 0.0:
        return 0.0
    return value


def oracle_markov_best(grid, h, k, x0):
    """Best stagewise-sum value over ALL action sequences, conditioning each
    stage on the current column only. Brute force with its own entropy
    table; validates the backward induction."""
    configs = enumerate_configs(grid, k)
    stages = grid.n_cols - 1
    table = {}
    for x in configs:
        cur = list(config_locations(x, 0))
        for a in configs:
            table[(x, a)] = oracle_cond_entropy(
                list(config_locations(a, 1)), cur, h, grid.widths
            )
    best = -np.inf
    for seq in itertools.product(configs, repeat=stages):
        prev = x0
        total = 0.0
        for a in seq:
            total += table[(prev, a)]
            prev = a
        best = max(best, total)
    return best


def oracle_full_best(grid, h, k, x0):
    """Best full-history value over all action sequences, each evaluated as
    a joint path entropy given the start. Independent of the incremental
    factorization the searcher uses."""
    configs = enumerate_configs(grid, k)
    stages = grid.n_cols - 1
    start = list(config_locations(x0, 0))
    h0 = oracle_entropy(oracle_cov(start, h, grid.widths))
    best, best_seq = -np.inf, None
    for seq in itertools.product(configs, repeat=stages):
        locs = list(start)
        for col, a in enumerate(seq, start=1):
            locs.extend(config_locations(a, col))
        val = oracle_entropy(oracle_cov(locs, h, grid.widths)) - h0
        if val > best + 1e-15:
            best, best_seq = val, seq
    return best, best_seq


def oracle_greedy_ent_scores(grid, h, visited, col, configs):
    """Scores of every configuration for entropy-greedy selection at
    ``col``: its cells' entropy given the visited cells, coded flat."""
    return [
        oracle_cond_entropy(list(config_locations(a, col)), list(visited), h, grid.widths)
        for a in configs
    ]


def oracle_greedy_mi_scores(grid, h, visited, col, configs):
    """Scores of every configuration for MI-greedy selection at ``col``,
    coded flat for duplicate-implementation comparison."""
    universe = grid.locations()
    scores = []
    for a in configs:
        cand = list(config_locations(a, col))
        excluded = set(visited) | set(cand)
        rest = [u for u in universe if u not in excluded]
        score = oracle_cond_entropy(cand, list(visited), h, grid.widths)
        score -= oracle_cond_entropy(cand, rest, h, grid.widths)
        scores.append(score)
    return scores


def random_hyperparams(rng, easy=False):
    """Hyperparameters drawn wide enough to stress numerics but keep
    factorizations healthy. ``easy`` biases toward small normalized
    horizontal length-scales (small step correlation)."""
    hi = 0.8 if easy else 1.6
    ell1 = float(rng.uniform(0.2, hi))
    ell2 = float(rng.uniform(0.2, 2.0))
    signal = float(rng.uniform(0.05, 5.0))
    noise = signal * float(rng.uniform(0.005, 0.5))
    return Hyperparams(ell1=ell1, ell2=ell2, signal_var=signal, noise_var=noise)


def scaled_grid(rng, n_rows, n_cols, h):
    """Grid whose widths make the drawn length-scales physical: widths are
    sampled and the hyperparams above are in width units already."""
    omega1 = float(rng.uniform(1.0, 10.0))
    omega2 = float(rng.uniform(1.0, 10.0))
    scaled = Hyperparams(
        ell1=h.ell1 * omega1,
        ell2=h.ell2 * omega2,
        signal_var=h.signal_var,
        noise_var=h.noise_var,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = TransectGrid(n_rows, n_cols, omega1, omega2)
    return grid, scaled
