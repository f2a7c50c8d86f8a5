"""Observation-path planners for transect surveys.

All four planners maximize entropy-flavored objectives over the same action
space (the team's destination rows in the next column) and break ties toward
the lexicographically smallest action, counting scores within TIE_RTOL of the
best as tied. ``plan`` runs any of them by its name in ``POLICIES``. They
differ in what they condition on:

* ``plan_markov`` keeps only the current column in the conditioning set,
  which buys a backward-induction solution over per-stage tables;
* ``plan_exact`` conditions every stage on the full history and searches
  every action sequence from the start, depth first with an explicit stack,
  so it is the ground truth and exponentially priced;
* ``plan_greedy_entropy`` conditions on the full history but commits one
  stage at a time;
* ``plan_greedy_mi`` greedily maximizes the mutual information between the
  candidate observations and the rest of the grid.

Values are reported in nats. The exact and greedy planners report a path's
joint entropy given the start; ``plan("markov", ...)`` reports the policy's
stagewise value, which bounds that of every path from the start from above.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import BudgetExceeded, GridTooLarge, InvalidArity, ParseError
from .gp import (
    MAX_DENSE_CELLS,
    Hyperparams,
    conditional_entropy,
    cov_matrix,
    gaussian_entropy,
    minor_entropies,
    posterior_cov,
    rest_conditioned_entropies,
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
    """The column step of every history planner: entropy of each row set
    ``idx[j]`` of column ``col`` given the cells ``observed``."""
    column = [Location(col, r) for r in range(grid.n_rows)]
    return minor_entropies(posterior_cov(column, observed, h, grid.widths), idx)


def plan_exact(
    grid: TransectGrid,
    h: Hyperparams,
    k: int,
    x0: RobotConfig,
    budget: int = DEFAULT_BUDGET,
) -> PlanResult:
    """Start-rooted, explicit-stack depth-first search; leaves in
    lexicographic order.

    Maximizes the summed full-history conditional entropies, which equals
    the joint path entropy given the start. Refuses to start when the leaf
    count |A|^(n_cols - 1) exceeds ``budget``, then when ``x0`` is not a
    k-robot configuration of the grid. A later leaf replaces the incumbent
    only when it is better by more than TIE_RTOL, so ties resolve to the
    lexicographically smallest action sequence. The result's
    ``stage_gains`` are the path's per-column gains.
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
    best = None
    # (column, cells observed through it, summed gains, moves, their gains)
    stack = [(0, list(config_locations(x0, 0)), 0.0, (), ())]
    while stack:
        col, locs, acc, seq, gains = stack.pop()
        scores = _column_entropies(grid, h, idx, col + 1, locs)
        children = list(zip(configs, scores.tolist()))
        if col + 1 == stages:
            for a, gain in children:
                if best is None or acc + gain > best[0] + _tie_tol(best[0]):
                    best = (acc + gain, seq + (a,), gains + (gain,))
            continue
        for a, gain in reversed(children):
            locs_a = locs + list(config_locations(a, col + 1))
            stack.append((col + 1, locs_a, acc + gain, seq + (a,), gains + (gain,)))

    value, seq, gains = best
    path = ObservationPath(grid, (x0, *seq))
    return PlanResult("exact", path, value, time.perf_counter() - t0, gains)


def _greedy(grid, h, k, x0, kind: str, score) -> PlanResult:
    """Commit, column by column, to the first best ``score(idx, col,
    visited)`` over the configurations; ``kind`` only labels the result."""
    t0 = time.perf_counter()
    configs = enumerate_configs(grid, k)
    if x0 not in configs:
        raise InvalidArity(f"start {x0} is not a {k}-robot configuration on this grid")

    idx = np.array([c.rows for c in configs])
    chosen = [x0]
    visited = list(config_locations(x0, 0))
    for col in range(1, grid.n_cols):
        best = configs[_first_best(score(idx, col, visited))]
        chosen.append(best)
        visited.extend(config_locations(best, col))

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
    return _greedy(grid, h, k, x0, "greedy-ent", partial(_column_entropies, grid, h))


def plan_greedy_mi(
    grid: TransectGrid, h: Hyperparams, k: int, x0: RobotConfig
) -> PlanResult:
    """Stagewise mutual-information maximization against the unvisited grid.

    Scores a candidate by H[candidate | visited] minus H[candidate | rest of
    the grid], the information the new observations share with everything
    not yet sampled. Conditioning on the whole grid is dense, hence the cell
    guard. The reported value is the path's joint entropy.
    """
    if grid.n_rows * grid.n_cols > MAX_DENSE_CELLS:
        raise GridTooLarge(
            "mutual-information scores condition on the whole grid; "
            f"{grid.n_rows * grid.n_cols} cells exceeds {MAX_DENSE_CELLS}"
        )
    universe = grid.locations()

    def score(idx, col, visited):
        # the rest is the column's other rows plus every unvisited cell
        seen = set(visited)
        others = [u for u in universe if u.col != col and u not in seen]
        column = [Location(col, r) for r in range(grid.n_rows)]
        rest = posterior_cov(column, others, h, grid.widths)
        given_visited = _column_entropies(grid, h, idx, col, visited)
        return given_visited - rest_conditioned_entropies(rest, idx)

    return _greedy(grid, h, k, x0, "greedy-mi", score)


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
