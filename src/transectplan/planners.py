"""Observation-path planners for transect surveys.

All four planners maximize entropy-flavored objectives over the same action
space (the team's destination rows in the next column) and break ties toward
the lexicographically smallest action, counting scores within TIE_RTOL of the
best as tied. ``plan`` runs any of them by its name in ``POLICIES``. They
differ in what they condition on:

* ``plan_markov`` keeps only the current column in the conditioning set,
  which buys a backward-induction solution over per-stage tables;
* ``plan_exact`` conditions every stage on the full history and searches
  every action sequence from the start, so it is the ground truth and
  exponentially priced; it scores the nodes of one tree level together with
  one stacked factorization, over chunks of at most a fixed number of
  sibling nodes taken in lexicographic order, and keeps the first leaf
  within TIE_RTOL of the best;
* ``plan_greedy_entropy`` conditions on the full history but commits one
  stage at a time, growing one Cholesky factor of the history by the chosen
  rows instead of refactoring it;
* ``plan_greedy_mi`` greedily maximizes the mutual information between the
  candidate observations and the rest of the grid, whose term it reads from
  the whole grid's precision matrix through a second growing factor.

Values are reported in nats. The exact and greedy planners report a path's
joint entropy given the start; ``plan("markov", ...)`` reports the policy's
stagewise value, which bounds that of every path from the start from above.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, GridTooLarge, InvalidArity, ParseError
from .gp import (
    DIAG_FLOOR,
    LOG_2PI_E,
    MAX_DENSE_CELLS,
    GrowingFactor,
    Hyperparams,
    conditional_entropy,
    cov_matrix,
    cross_cov,
    gaussian_entropy,
    minor_entropies,
    posterior_cov,
    precision,
)
from .transect import (
    Location,
    ObservationPath,
    RobotConfig,
    TransectGrid,
    config_locations,
    enumerate_configs,
)

DEFAULT_BUDGET = 10_000_000

POLICIES = ("markov", "exact", "greedy-ent", "greedy-mi")

# Scores within this relative distance of the best are tied. The scores are
# entropies, or differences of entropies of a few nats whose rounding does not
# shrink with the difference, so the distance is relative to at least one nat.
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class MarkovPolicy:
    """Stagewise lookup tables produced by backward induction.

    ``values[i, j]`` is the value-to-go of standing at column ``i`` in
    configuration ``configs[j]``; ``actions[i, j]`` indexes the destination
    configuration for column ``i + 1``. The value past the last decision is
    zero by definition.
    """

    grid: TransectGrid
    h: Hyperparams
    k: int
    configs: tuple[RobotConfig, ...]
    values: np.ndarray = field(compare=False)
    actions: np.ndarray = field(compare=False)
    plan_seconds: float = field(compare=False, default=0.0)

    @cached_property
    def _positions(self) -> dict[RobotConfig, int]:
        return {x: j for j, x in enumerate(self.configs)}

    def _index(self, x: RobotConfig) -> int:
        try:
            return self._positions[x]
        except KeyError:
            raise InvalidArity(f"{x} is not a {self.k}-robot configuration here")

    def value(self, stage: int, x: RobotConfig) -> float:
        return float(self.values[stage, self._index(x)])

    def action(self, stage: int, x: RobotConfig) -> RobotConfig:
        return self.configs[int(self.actions[stage, self._index(x)])]


@dataclass(frozen=True)
class PlanResult:
    """A planned path, its joint-entropy value, and the planning wall time.

    The exact planner also fills ``stage_gains``, the conditional entropy
    gained at each column after the start."""

    policy_kind: str
    path: ObservationPath
    value: float
    plan_seconds: float
    stage_gains: tuple[float, ...] = ()


def path_entropy(path: ObservationPath, h: Hyperparams) -> float:
    """Joint entropy of everything observed after the start, given the start.

    By the chain rule this equals the sum of the per-stage conditional
    entropies with full-history conditioning, so it is the objective the
    exact planner maximizes.
    """
    widths = path.grid.widths
    all_locs = path.locations()
    start_locs = list(config_locations(path.configs[0], 0))
    return gaussian_entropy(cov_matrix(all_locs, h, widths)) - gaussian_entropy(
        cov_matrix(start_locs, h, widths)
    )


def stage_entropy_table(
    grid: TransectGrid, h: Hyperparams, configs: list[RobotConfig]
) -> np.ndarray:
    """Entropy of each destination configuration given each current one.

    Entry (i, j) is H[next column in configs[j] | current column in
    configs[i]]. The covariance is stationary and every stage advances by
    exactly one column, so the table is computed once for columns (0, 1) and
    reused at every stage.
    """
    m = len(configs)
    table = np.empty((m, m))
    for i, x in enumerate(configs):
        cur = list(config_locations(x, 0))
        for j, a in enumerate(configs):
            table[i, j] = conditional_entropy(
                config_locations(a, 1), cur, h, grid.widths
            )
    return table


def plan_markov(grid: TransectGrid, h: Hyperparams, k: int) -> MarkovPolicy:
    """Backward induction over single-column conditioning.

    Solves value(i, x) = max_a H[a at column i+1 | x at column i] +
    value(i+1, a) for every stage and configuration. One stage-entropy table
    serves all stages, so the sweep costs |A|^2 per stage on top of the
    |A|^2 entropy evaluations. Deterministic; ties within TIE_RTOL go to the
    smallest action.
    """
    t0 = time.perf_counter()
    configs = enumerate_configs(grid, k)
    m = len(configs)
    stages = grid.n_cols - 1
    table = stage_entropy_table(grid, h, configs)

    values = np.zeros((stages, m))
    actions = np.zeros((stages, m), dtype=np.int64)
    vnext = np.zeros(m)
    for i in range(stages - 1, -1, -1):
        scores = table + vnext[None, :]
        actions[i] = _first_best(scores)
        values[i] = scores.max(axis=1)
        vnext = values[i]
    return MarkovPolicy(
        grid=grid,
        h=h,
        k=k,
        configs=tuple(configs),
        values=values,
        actions=actions,
        plan_seconds=time.perf_counter() - t0,
    )


def rollout(policy: MarkovPolicy, x0: RobotConfig) -> ObservationPath:
    """Execute a Markov policy from a start configuration."""
    configs = [x0]
    x = x0
    for stage in range(policy.grid.n_cols - 1):
        x = policy.action(stage, x)
        configs.append(x)
    return ObservationPath(policy.grid, tuple(configs))


def _tie_tol(best):
    return TIE_RTOL * np.maximum(np.abs(best), 1.0)


def _first_best(scores: np.ndarray) -> np.ndarray:
    """Index of the first score tied with the maximum along the last axis."""
    best = scores.max(axis=-1, keepdims=True)
    return np.argmax(scores >= best - _tie_tol(best), axis=-1)


def _column_entropies(grid, h, idx, col, observed) -> np.ndarray:
    """The column step of one exhaustive node, which a level falls back to:
    entropy of each row set ``idx[j]`` of column ``col`` given the cells
    ``observed``."""
    column = [Location(col, r) for r in range(grid.n_rows)]
    return minor_entropies(posterior_cov(column, observed, h, grid.widths), idx)


def _lag_blocks(grid: TransectGrid, h: Hyperparams) -> np.ndarray:
    """Covariance between the rows of two columns by their lag: entry
    (lag, r, s) is the covariance of the cells (c, r) and (c + lag, s), with
    the noise on the lag-0 diagonal. The kernel is stationary, so these
    blocks fill the Gram matrix of any cells taken from distinct columns."""
    cells = [Location(c, r) for c in range(grid.n_cols) for r in range(grid.n_rows)]
    block = cross_cov(cells, cells[: grid.n_rows], h, grid.widths)
    return block.reshape(grid.n_cols, grid.n_rows, grid.n_rows)


def _grid_gram(blocks: np.ndarray) -> np.ndarray:
    """The whole grid's Gram matrix over column-major cells, filled one
    column's band of rows at a time from the ``_lag_blocks`` ``blocks``."""
    n_cols, n_rows, _ = blocks.shape
    lags = np.arange(n_cols)
    gram = np.empty((n_cols * n_rows, n_cols * n_rows))
    for c in range(n_cols):
        band = blocks[np.abs(lags - c)].transpose(1, 0, 2)
        gram[c * n_rows : (c + 1) * n_rows] = band.reshape(n_rows, -1)
    return gram


def _level_entropies(grid, h, idx, blocks, x0, moves) -> np.ndarray:
    """The column step for nodes of one depth: entry (i, j) is the entropy of
    the row set ``idx[j]`` of the next column given the cells of the path
    from ``x0`` through the configurations ``idx[moves[i]]``.

    One stacked Cholesky factors every node's history-plus-next-column Gram
    matrix, gathered from ``blocks``; the trailing R x R block of a factor is
    the factor of the next column's posterior. If the stacked factor fails
    or reaches DIAG_FLOOR, the nodes are redone one by one through
    :func:`_column_entropies`, with its jitter ladder and refusals.
    """
    n, depth = moves.shape
    n_rows = grid.n_rows
    hist_rows = np.column_stack(
        [np.tile(x0.rows, (n, 1)), idx[moves].reshape(n, depth * idx.shape[1])]
    )
    hist_cols = np.repeat(np.arange(depth + 1), idx.shape[1])
    rows = np.column_stack([hist_rows, np.tile(np.arange(n_rows), (n, 1))])
    cols = np.concatenate([hist_cols, np.full(n_rows, depth + 1)])
    lag = np.abs(cols[:, None] - cols[None, :])
    try:
        factor = np.linalg.cholesky(blocks[lag, rows[:, :, None], rows[:, None, :]])
        ok = not np.any(np.diagonal(factor, axis1=1, axis2=2) < DIAG_FLOOR)
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        hist_cols = hist_cols.tolist()
        observed = [list(map(Location, hist_cols, r)) for r in hist_rows.tolist()]
        return np.array(
            [_column_entropies(grid, h, idx, depth + 1, o) for o in observed]
        )
    tail = factor[:, -n_rows:, -n_rows:]
    return minor_entropies(tail @ tail.transpose(0, 2, 1), idx)


def _fold_leaves(best, values: np.ndarray):
    """Fold leaf values, in lexicographic order, into the incumbent value
    ``best`` (None before the first leaf): a leaf replaces the incumbent only
    when it is better by more than TIE_RTOL. Returns the new incumbent and
    the index of the last leaf here that replaced it, or None."""
    # a leaf not above every earlier one is within the incumbent's tolerance
    floor = -np.inf if best is None else best
    earlier = np.maximum.accumulate(np.concatenate(([floor], values[:-1])))
    won = None
    for j in np.flatnonzero(values > earlier).tolist():
        if best is None or values[j] > best + _tie_tol(best):
            best, won = values[j], j
    return best, won


# Nodes scored by one stacked factorization at most. The frontier is held in
# chunks of sibling subtrees of this size, so memory does not grow with the
# leaf count.
_CHUNK_NODES = 1024


def plan_exact(
    grid: TransectGrid,
    h: Hyperparams,
    k: int,
    x0: RobotConfig,
    budget: int = DEFAULT_BUDGET,
) -> PlanResult:
    """Start-rooted exhaustive search, scored one tree level at a time.

    Maximizes the summed full-history conditional entropies, which equals
    the joint path entropy given the start. Refuses to start when the leaf
    count |A|^(n_cols - 1) exceeds ``budget``, then when ``x0`` is not a
    k-robot configuration of the grid.

    The nodes of one depth are scored together: their Gram matrices are
    gathered from covariance blocks computed once per call and factored in
    one stacked Cholesky (see :func:`_level_entropies`), and every node
    carries the running sum of its gains. The frontier is held in chunks of
    at most _CHUNK_NODES sibling nodes, expanded depth first, so leaves are
    visited in lexicographic order. A later leaf replaces the incumbent only
    when it is better by more than TIE_RTOL, so ties resolve to the
    lexicographically smallest action sequence wherever the chunks split.
    The result's ``stage_gains`` are the path's per-column gains.
    """
    t0 = time.perf_counter()
    configs = enumerate_configs(grid, k)
    m = len(configs)
    stages = grid.n_cols - 1
    leaves = m**stages
    if leaves > budget:
        raise BudgetExceeded(
            f"{m}^{stages} = {leaves} leaf evaluations exceed the budget {budget}"
        )
    if x0 not in configs:
        raise InvalidArity(f"start {x0} is not a {k}-robot configuration on this grid")

    idx = np.array([c.rows for c in configs])
    blocks = _lag_blocks(grid, h)
    value = None
    # chunks of nodes of one depth, lexicographically first on top; a node is
    # its configuration indices after the start, its summed gains and gains
    stack = [(np.zeros((1, 0), dtype=np.int64), np.zeros(1), np.zeros((1, 0)))]
    while stack:
        moves, acc, gains = stack.pop()
        scores = _level_entropies(grid, h, idx, blocks, x0, moves)
        totals = (acc[:, None] + scores).ravel()
        if moves.shape[1] + 1 < stages:
            children = (
                np.column_stack(
                    [np.repeat(moves, m, axis=0), np.tile(range(m), len(acc))]
                ),
                totals,
                np.column_stack([np.repeat(gains, m, axis=0), scores.ravel()]),
            )
            for lo in reversed(range(0, totals.size, _CHUNK_NODES)):
                stack.append(tuple(a[lo : lo + _CHUNK_NODES] for a in children))
            continue
        value, won = _fold_leaves(value, totals)
        if won is not None:
            node, a = divmod(won, m)
            seq = (*moves[node].tolist(), a)
            stage_gains = (*gains[node].tolist(), float(scores[node, a]))

    path = ObservationPath(grid, (x0, *(configs[j] for j in seq)))
    return PlanResult("exact", path, float(value), time.perf_counter() - t0, stage_gains)


def _greedy(grid, h, k, x0, kind: str, mi: bool) -> PlanResult:
    """Commit, column by column, to the first best configuration: the one
    whose rows of the next column have the most entropy given the visited
    cells, less, when ``mi`` is set, their entropy given every unvisited
    cell. ``kind`` labels the result.

    Cells are numbered column-major (``col * n_rows + row``). The first term
    conditions the column's prior covariance on a factor of the visited
    cells' Gram matrix, gathered from ``_lag_blocks``; the second conditions
    the whole grid's precision P = K^-1 on a factor of P over the visited
    cells, since P_cc - P_cV P_VV^-1 P_Vc is the inverse of the column's
    covariance given every unvisited cell. Both factors grow by the chosen
    rows at each column instead of being refactored.
    """
    t0 = time.perf_counter()
    configs = enumerate_configs(grid, k)
    if x0 not in configs:
        raise InvalidArity(f"start {x0} is not a {k}-robot configuration on this grid")

    idx = np.array([c.rows for c in configs])
    n_rows = grid.n_rows
    blocks = _lag_blocks(grid, h)

    def prior(a, b):
        lag = np.abs(a[:, None] // n_rows - b[None, :] // n_rows)
        return blocks[lag, a[:, None] % n_rows, b[None, :] % n_rows]

    start = np.array(x0.rows)
    factors = [GrowingFactor(prior, start)]
    if mi:
        p = precision(_grid_gram(blocks))
        factors.append(GrowingFactor(lambda a, b: p[np.ix_(a, b)], start))
    chosen = [x0]
    for col in range(1, grid.n_cols):
        column = col * n_rows + np.arange(n_rows)
        steps = [f.condition(column) for f in factors]
        scores = minor_entropies(steps[0][0], idx)
        if mi:
            # less the entropy given every unvisited cell, from its precision
            scores = scores - (k * LOG_2PI_E - minor_entropies(steps[1][0], idx))
        j = _first_best(scores)
        chosen.append(configs[j])
        if col + 1 < grid.n_cols:
            rows = idx[j]
            for f, (post, w) in zip(factors, steps):
                f.extend(column[rows], w[:, rows], post[np.ix_(rows, rows)])

    path = ObservationPath(grid, tuple(chosen))
    return PlanResult(kind, path, path_entropy(path, h), time.perf_counter() - t0)


def plan_greedy_entropy(
    grid: TransectGrid, h: Hyperparams, k: int, x0: RobotConfig
) -> PlanResult:
    """Stagewise entropy maximization with full-history conditioning.

    Each stage commits to the destination whose observations are most
    uncertain given everything sampled so far. The reported value is the
    resulting path's joint entropy, not the sum of greedy scores.
    """
    return _greedy(grid, h, k, x0, "greedy-ent", mi=False)


def plan_greedy_mi(
    grid: TransectGrid, h: Hyperparams, k: int, x0: RobotConfig
) -> PlanResult:
    """Stagewise mutual-information maximization against the unvisited grid.

    Scores a candidate by H[candidate | visited] minus H[candidate | rest of
    the grid], the information the new observations share with everything
    not yet sampled (Krause, Singh & Guestrin, JMLR 2008). The second term
    reads the precision of the whole grid, formed once per call from one
    factor of its dense Gram matrix by ``chol_factor``, hence the cell
    guard; a Gram matrix that the jitter ladder does not factor, or whose
    factor reaches DIAG_FLOOR, is refused. The reported value is the path's
    joint entropy.
    """
    if grid.n_rows * grid.n_cols > MAX_DENSE_CELLS:
        raise GridTooLarge(
            "mutual-information scores condition on the whole grid; "
            f"{grid.n_rows * grid.n_cols} cells exceeds {MAX_DENSE_CELLS}"
        )
    return _greedy(grid, h, k, x0, "greedy-mi", mi=True)


def plan(
    policy: str,
    grid: TransectGrid,
    h: Hyperparams,
    k: int,
    x0: RobotConfig,
    budget: int = DEFAULT_BUDGET,
) -> PlanResult:
    """Plan from ``x0`` with the planner named ``policy``, one of POLICIES.

    ``budget`` caps the exhaustive search only. The markov result is the
    rollout from ``x0`` with the whole table's planning time, valued by the
    policy's stagewise value: an upper bound on the joint entropy of any
    path from ``x0``, not the rollout's own joint entropy.
    """
    if policy == "markov":
        pol = plan_markov(grid, h, k)
        return PlanResult(policy, rollout(pol, x0), pol.value(0, x0), pol.plan_seconds)
    if policy == "exact":
        return plan_exact(grid, h, k, x0, budget=budget)
    if policy == "greedy-ent":
        return plan_greedy_entropy(grid, h, k, x0)
    if policy == "greedy-mi":
        return plan_greedy_mi(grid, h, k, x0)
    raise ParseError(f"unknown policy {policy!r}; choose from {POLICIES}")
