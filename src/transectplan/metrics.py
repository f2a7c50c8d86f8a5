"""Map-quality metrics for executed observation paths.

Two numbers summarize how good a path's final map is:

* the posterior entropy of everything the path did not sample (smaller
  means less residual uncertainty), which depends only on where the path
  went, not on what it measured;
* the mean squared error of the posterior-mean map against the ground
  truth, relative to the field mean, evaluated over every cell of the grid.

Both are reported per path and compared across planners by differencing
against the Markov planner's path on the same instance, and both read one
Cholesky factor of the visited cells' covariance. The unobserved entropy
takes one of two routes. Where noise_var is at least STABLE_NOISE_RATIO
(1e-3) of signal_var, it is H[all] - H[visited]: the whole grid's entropy,
from the eigenvalues of its Kronecker covariance and kept per grid shape and
hyperparameters, minus the visited cells' entropy, from the factor's
diagonal. Below that ratio the two terms nearly cancel and their rounding
no longer does, so the unvisited cells are conditioned on the visited ones
directly, through the factor. The posterior mean solves against the same
factor, twice, through gp's one triangular solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyUnobservedSet, MismatchedInstances, ZeroMeanField
from .gp import (
    STABLE_NOISE_RATIO,
    Hyperparams,
    LagGram,
    _condition,
    _factor_entropy,
    _trsolve,
    chol_factor,
    gaussian_entropy,
    grid_entropy,
)
from .transect import ObservationPath, RobotConfig


@dataclass(frozen=True)
class EvalRecord:
    """One planner's showing on one instance.

    ``err`` is None when the grid carries no ground-truth measurements.
    """

    policy_kind: str
    start: RobotConfig
    ent: float
    err: float | None
    plan_seconds: float


class _PathMap:
    """The cells a path visited, numbered column-major, their prior
    covariance by lag, and one factor of the visited cells' Gram matrix,
    formed when first read and shared by both metrics."""

    def __init__(self, path: ObservationPath, h: Hyperparams):
        grid = path.grid
        self.grid = grid
        self.h = h
        self.prior = LagGram(grid, h)
        rows = np.array([cfg.rows for cfg in path.configs])
        # stage by stage, rows ascending: the order of path.locations()
        self.cols = np.repeat(np.arange(grid.n_cols), rows.shape[1])
        self.rows = rows.ravel()
        self.visited = self.cols * grid.n_rows + self.rows

    @cached_property
    def factor(self) -> np.ndarray:
        return chol_factor(self.prior.block(self.cols, self.rows, self.cols, self.rows))

    def unobserved_entropy(self) -> float:
        grid, h = self.grid, self.h
        n_cells = grid.n_rows * grid.n_cols
        if self.visited.size == n_cells:
            raise EmptyUnobservedSet("path covers every cell")
        if h.noise_var >= STABLE_NOISE_RATIO * h.signal_var:
            return grid_entropy(grid, h) - float(_factor_entropy(self.factor))
        rest = np.setdiff1d(np.arange(n_cells), self.visited)
        k_xt = self.prior(self.visited, rest)
        return gaussian_entropy(_condition(self.factor, k_xt, self.prior(rest, rest)))

    def relative_error(self, mean: float | None) -> float:
        z = self.grid.measurements
        if z is None:
            raise ValueError("relative error needs ground-truth measurements")
        zbar = float(np.mean(z))
        if zbar == 0.0:
            raise ZeroMeanField("field mean is zero, relative error undefined")
        if mean is None:
            mean = zbar
        # column-major cell i holds z[i % n_rows, i // n_rows]
        z_all = z.T.ravel()
        # K^-1 (z - mean) over the visited cells, by L^-T L^-1
        alpha = _trsolve(self.factor, _trsolve(self.factor, z_all[self.visited] - mean), trans=0)
        # every column's cells against the visited ones, (n_cols, n_rows, n):
        # column-major cells once flattened, with one lag per column pair
        every = np.arange(self.grid.n_cols)[:, None], np.arange(self.grid.n_rows)
        k_all = self.prior.block(*every, self.cols, self.rows).reshape(z_all.size, -1)
        mu = mean + k_all @ alpha
        resid = (z_all - mu) / zbar
        return float(np.mean(resid * resid))


def unobserved_entropy(path: ObservationPath, h: Hyperparams) -> float:
    """Posterior entropy of the cells the path never visited.

    Smaller is better. Depends only on the visited locations, so it can be
    computed before any measurement is taken. Raises EmptyUnobservedSet
    when the path covered the whole grid, since the entropy of nothing is
    not a number.

    Where noise_var is at least STABLE_NOISE_RATIO (1e-3) of signal_var,
    this is H[all] - H[visited] by the chain rule: the whole grid's entropy
    from its Kronecker eigenvalues (:func:`grid_entropy`), minus the visited
    cells' from their Cholesky factor, with no matrix over the unvisited
    cells. Below that ratio the difference of two near-equal terms rounds
    worse than conditioning does (up to 4.9e-11 relative apart at ratio
    1e-6), so the unvisited cells' covariance given the visited ones is
    formed and its entropy taken.
    """
    return _PathMap(path, h).unobserved_entropy()


def relative_error(
    path: ObservationPath, h: Hyperparams, mean: float | None = None
) -> float:
    """Mean squared relative error of the posterior-mean map.

    Conditions on the ground-truth values at the sampled cells, predicts
    every cell of the grid (sampled ones included; they contribute near-zero
    residuals), and averages the squared residuals normalized by the field
    mean. The prior mean defaults to the field's arithmetic mean.
    """
    return _PathMap(path, h).relative_error(mean)


def evaluate(
    result_path: ObservationPath,
    h: Hyperparams,
    policy_kind: str,
    plan_seconds: float = 0.0,
    mean: float | None = None,
) -> EvalRecord:
    """Bundle both metrics for one planned path, from one factor of the
    visited cells' Gram matrix."""
    path_map = _PathMap(result_path, h)
    err = None
    if result_path.grid.measurements is not None:
        err = path_map.relative_error(mean)
    return EvalRecord(
        policy_kind=policy_kind,
        start=result_path.start,
        ent=path_map.unobserved_entropy(),
        err=err,
        plan_seconds=plan_seconds,
    )


def metric_diff(
    a: EvalRecord, b: EvalRecord
) -> tuple[float, float | None]:
    """Metric gaps (a minus b) between two records of the same instance.

    By convention ``a`` is the Markov planner's record, so positive numbers
    mean the other planner produced the better map. Antisymmetric. Raises
    MismatchedInstances when the records disagree on the start.
    """
    if a.start != b.start:
        raise MismatchedInstances(f"records start at {a.start} vs {b.start}")
    ent_gap = a.ent - b.ent
    err_gap = None
    if a.err is not None and b.err is not None:
        err_gap = a.err - b.err
    return ent_gap, err_gap
