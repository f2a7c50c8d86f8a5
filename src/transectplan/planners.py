"""Observation-path planners for transect surveys.

All four planners maximize entropy-flavored objectives over the same action
space (the team's destination rows in the next column) and break ties toward
the lexicographically smallest action; the greedy planners and the exhaustive
search count scores within TIE_RTOL of the best as tied. They differ in what
they condition on:

* ``plan_markov`` keeps only the current column in the conditioning set,
  which buys a backward-induction solution over per-stage tables;
* ``plan_exact`` conditions every stage on the full history and enumerates
  all action sequences, so it is the ground truth and exponentially priced;
* ``plan_greedy_entropy`` conditions on the full history but commits one
  stage at a time;
* ``plan_greedy_mi`` greedily maximizes the mutual information between the
  candidate observations and the rest of the grid.

Values are reported in nats. For every planner the headline value of a
concrete path is its joint conditional entropy given the start, so numbers
are comparable across planners.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import BudgetExceeded, GridTooLarge, InvalidArity
from .gp import (
    LOG_2PI_E,
    MAX_DENSE_CELLS,
    Hyperparams,
    chol_factor,
    conditional_entropy,
    cov_matrix,
    gaussian_entropy,
    minor_entropies,
    posterior_cov,
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

    def _index(self, x: RobotConfig) -> int:
        try:
            return self.configs.index(x)
        except ValueError:
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
    |A|^2 entropy evaluations. Deterministic; ties go to the smallest action.
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
        # candidate scores for all (x, a) at once; argmax returns the first
        # maximizer, which is the lexicographically smallest action
        scores = table + vnext[None, :]
        actions[i] = np.argmax(scores, axis=1)
        values[i] = scores[np.arange(m), actions[i]]
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


def _tie_tol(best: float) -> float:
    return TIE_RTOL * max(abs(best), 1.0)


def _first_best(scores: np.ndarray) -> int:
    """Index of the first score tied with the maximum."""
    best = scores.max()
    return int(np.argmax(scores >= best - _tie_tol(best)))


def _exhaustive(
    grid: TransectGrid,
    h: Hyperparams,
    k: int,
    history: list[RobotConfig],
    budget: int,
) -> tuple[float, tuple[RobotConfig, ...], tuple[float, ...]]:
    """Max over all completions of ``history`` of the summed conditional
    entropies with full-history conditioning, the lexicographically first
    completion attaining it under TIE_RTOL, and that completion's per-column
    gains."""
    configs = enumerate_configs(grid, k)
    m = len(configs)
    remaining = grid.n_cols - len(history)
    leaves = m**remaining if remaining > 0 else 1
    if leaves > budget:
        raise BudgetExceeded(
            f"{m}^{remaining} = {leaves} leaf evaluations exceed the budget {budget}"
        )
    history_locs: list[Location] = []
    for col, cfg in enumerate(history):
        if cfg.k != k:
            raise InvalidArity(f"history configuration {cfg} is not {k}-robot")
        history_locs.extend(config_locations(cfg, col))
    if remaining == 0:
        return 0.0, (), ()

    idx = np.array([c.rows for c in configs])
    last_col = grid.n_cols - 1
    best = None

    def descend(col: int, acc: float, locs: list[Location], seq: tuple, gains: tuple):
        nonlocal best
        column = [Location(col + 1, r) for r in range(grid.n_rows)]
        scores = minor_entropies(posterior_cov(column, locs, h, grid.widths), idx)
        for a, gain in zip(configs, scores.tolist()):
            if col + 1 < last_col:
                locs_a = locs + list(config_locations(a, col + 1))
                descend(col + 1, acc + gain, locs_a, seq + (a,), gains + (gain,))
            elif best is None or acc + gain > best[0] + _tie_tol(best[0]):
                best = (acc + gain, seq + (a,), gains + (gain,))

    descend(len(history) - 1, 0.0, history_locs, (), ())
    return best


def plan_exact(
    grid: TransectGrid,
    h: Hyperparams,
    k: int,
    x0: RobotConfig,
    budget: int = DEFAULT_BUDGET,
) -> PlanResult:
    """Exhaustive depth-first search over all action sequences.

    Maximizes the summed full-history conditional entropies, which equals
    the joint path entropy given the start. Refuses to start when the leaf
    count |A|^(n_cols - 1) exceeds ``budget``. Enumeration is lexicographic
    and a later sequence replaces the incumbent only when it is better by
    more than TIE_RTOL, so ties resolve to the lexicographically smallest
    action sequence. The result's ``stage_gains`` are the path's per-column
    gains.
    """
    t0 = time.perf_counter()
    value, seq, gains = _exhaustive(grid, h, k, [x0], budget)
    path = ObservationPath(grid, (x0, *seq))
    return PlanResult("exact", path, value, time.perf_counter() - t0, gains)


def exact_value_given_history(
    grid: TransectGrid,
    h: Hyperparams,
    k: int,
    history: list[RobotConfig],
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Optimal remaining value after already walking ``history`` from
    column 0."""
    return _exhaustive(grid, h, k, list(history), budget)[0]


def _greedy(
    grid: TransectGrid,
    h: Hyperparams,
    k: int,
    x0: RobotConfig,
    kind: str,
) -> PlanResult:
    t0 = time.perf_counter()
    configs = enumerate_configs(grid, k)
    if x0 not in configs:
        raise InvalidArity(f"start {x0} is not a {k}-robot configuration on this grid")
    widths = grid.widths
    if kind == "greedy-mi":
        if grid.n_rows * grid.n_cols > MAX_DENSE_CELLS:
            raise GridTooLarge(
                "mutual-information scores condition on the whole grid; "
                f"{grid.n_rows * grid.n_cols} cells exceeds {MAX_DENSE_CELLS}"
            )
        universe = grid.locations()

    idx = np.array([c.rows for c in configs])
    chosen = [x0]
    visited = list(config_locations(x0, 0))
    for col in range(1, grid.n_cols):
        column = [Location(col, r) for r in range(grid.n_rows)]
        scores = minor_entropies(posterior_cov(column, visited, h, widths), idx)
        if kind == "greedy-mi":
            # Given every other unvisited cell the column has covariance S,
            # and H[A | rest of the column] = k log(2 pi e) - entropy of the
            # A-minor of S^-1. An empty remainder leaves S the prior.
            seen = set(visited) | set(column)
            others = [u for u in universe if u not in seen]
            factor = chol_factor(posterior_cov(column, others, h, widths))
            w = solve_triangular(
                factor, np.eye(grid.n_rows), lower=True, check_finite=False
            )
            scores -= k * LOG_2PI_E - minor_entropies(w.T @ w, idx)
        best = configs[_first_best(scores)]
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
    return _greedy(grid, h, k, x0, "greedy-ent")


def plan_greedy_mi(
    grid: TransectGrid, h: Hyperparams, k: int, x0: RobotConfig
) -> PlanResult:
    """Stagewise mutual-information maximization against the unvisited grid.

    Scores a candidate by H[candidate | visited] minus H[candidate | rest of
    the grid], the information the new observations share with everything
    not yet sampled. Conditioning on the whole grid is dense, hence the cell
    guard. The reported value is the path's joint entropy.
    """
    return _greedy(grid, h, k, x0, "greedy-mi")
