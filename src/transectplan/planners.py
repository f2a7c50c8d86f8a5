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
  nodes taken in lexicographic order, and keeps the first leaf within
  TIE_RTOL of the best;
* ``plan_greedy_entropy`` conditions on the full history but commits one
  stage at a time, growing one Cholesky factor of the history by the chosen
  rows instead of refactoring it;
* ``plan_greedy_mi`` greedily maximizes the mutual information between the
  candidate observations and the rest of the grid, whose term it reads from
  the whole grid's precision matrix through a second growing factor.

``plan_greedy`` runs either greedy planner from many starts in one sweep, in
which the starts advance column by column together, and ``plan_exact_all``
searches from many starts in one tree whose root level holds them all;
``plan_greedy_entropy``, ``plan_greedy_mi`` and ``plan_exact`` are their
one-start calls, and each start's result is bit for bit the one-start
call's.

Values are reported in nats. The exact and greedy planners report a path's
joint entropy given the start (``path_entropy``; ``path_entropies`` values
many paths of one grid from one stacked factor, with the same bits);
``plan("markov", ...)`` reports the policy's stagewise value, which bounds
that of every path from the start from above.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceeded,
    GridTooLarge,
    InvalidArity,
    ParseError,
    TransectPlanError,
)
from .gp import (
    DIAG_FLOOR,
    LOG_2PI_E,
    MAX_DENSE_CELLS,
    GrowingFactor,
    Hyperparams,
    LagGram,
    conditional_entropy,
    cov_matrix,
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


def path_entropies(paths: list[ObservationPath], h: Hyperparams) -> np.ndarray:
    """:func:`path_entropy` of each of ``paths``, which share one grid and
    one team size, bit for bit.

    The Gram matrices of every path and of every start are gathered by one
    ``LagGram`` and factored by one stacked Cholesky each. If a stack does
    not factor, or a factor reaches DIAG_FLOOR, every path is valued by
    :func:`path_entropy` instead, with its jitter ladder and refusals, so the
    first failing path's refusal is raised.
    """
    if not paths:
        return np.empty(0)
    grid, k = paths[0].grid, paths[0].k
    cells = np.array(
        [[c * grid.n_rows + r for c, x in enumerate(p.configs) for r in x.rows] for p in paths]
    )
    gram = LagGram(grid, h)(cells, cells)
    try:
        diags = [
            np.diagonal(np.linalg.cholesky(g), axis1=1, axis2=2)
            for g in (gram, gram[:, :k, :k])
        ]
        ok = not any(np.any(d < DIAG_FLOOR) for d in diags)
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        return np.array([path_entropy(p, h) for p in paths])
    full, start = (
        0.5 * (d.shape[1] * LOG_2PI_E + 2.0 * np.sum(np.log(d), axis=-1)) for d in diags
    )
    return full - start


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


def _grid_gram(blocks: np.ndarray) -> np.ndarray:
    """The whole grid's Gram matrix over column-major cells, filled one
    column's band of rows at a time from the ``LagGram`` ``blocks``."""
    n_cols, n_rows, _ = blocks.shape
    lags = np.arange(n_cols)
    gram = np.empty((n_cols * n_rows, n_cols * n_rows))
    for c in range(n_cols):
        band = blocks[np.abs(lags - c)].transpose(1, 0, 2)
        gram[c * n_rows : (c + 1) * n_rows] = band.reshape(n_rows, -1)
    return gram


def _level_entropies(grid, h, idx, blocks, first, moves, redo=True):
    """The column step for nodes of one depth: entry (i, j) is the entropy of
    the row set ``idx[j]`` of the next column given the cells of the path
    from the start rows ``first[i]`` through the configurations
    ``idx[moves[i]]``.

    One stacked Cholesky factors every node's history-plus-next-column Gram
    matrix, gathered from ``blocks``; the trailing R x R block of a factor is
    the factor of the next column's posterior. If the stacked factor fails
    or reaches DIAG_FLOOR, the nodes are redone one by one through
    :func:`_column_entropies`, with its jitter ladder and refusals, or,
    without ``redo``, None is returned.
    """
    n, depth = moves.shape
    n_rows = grid.n_rows
    hist_rows = np.column_stack([first, idx[moves].reshape(n, depth * idx.shape[1])])
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
        if not redo:
            return None
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
# chunks of nodes of this size, so memory does not grow with the leaf count.
_CHUNK_NODES = 1024


def _search(grid, h, idx, first, redo):
    """The exhaustive search from the start rows ``first`` (shape (S, k)),
    one tree whose root level holds every start: per start, the best
    leaf's value, its configuration indices after the start and its gains.
    None when a level's stacked factor fails and ``redo`` is off."""
    m, n = len(idx), len(first)
    stages = grid.n_cols - 1
    blocks = LagGram(grid, h).blocks
    found = [None] * n
    # chunks of nodes of one depth in lexicographic (start, moves) order,
    # the first on top; a node is its start, its configuration indices after
    # the start, its summed gains and its gains
    stack = []

    def push(nodes):
        for lo in reversed(range(0, len(nodes[0]), _CHUNK_NODES)):
            stack.append(tuple(a[lo : lo + _CHUNK_NODES] for a in nodes))

    push((np.arange(n), np.zeros((n, 0), dtype=np.int64), np.zeros(n), np.zeros((n, 0))))
    while stack:
        start, moves, acc, gains = stack.pop()
        scores = _level_entropies(grid, h, idx, blocks, first[start], moves, redo)
        if scores is None:
            return None
        totals = (acc[:, None] + scores).ravel()
        if moves.shape[1] + 1 < stages:
            children = (
                np.repeat(start, m),
                np.column_stack([np.repeat(moves, m, axis=0), np.tile(range(m), len(acc))]),
                totals,
                np.column_stack([np.repeat(gains, m, axis=0), scores.ravel()]),
            )
            push(children)
            continue
        # the chunk's nodes of each start are consecutive
        cuts = [0, *(np.flatnonzero(np.diff(start)) + 1).tolist(), len(start)]
        for lo, hi in zip(cuts, cuts[1:]):
            s = int(start[lo])
            best = None if found[s] is None else found[s][0]
            best, won = _fold_leaves(best, totals[lo * m : hi * m])
            if won is not None:
                node, a = divmod(won, m)
                node += lo
                seq = (*moves[node].tolist(), a)
                found[s] = (best, seq, (*gains[node].tolist(), float(scores[node, a])))
    return found


def plan_exact_all(
    grid: TransectGrid,
    h: Hyperparams,
    k: int,
    starts,
    budget: int = DEFAULT_BUDGET,
) -> list[PlanResult]:
    """Exhaustive search from every start in ``starts``, scored one tree
    level at a time; one result per start, in order.

    Maximizes the summed full-history conditional entropies, which equals
    the joint path entropy given the start. Refuses to start when the leaf
    count |A|^(n_cols - 1) of one start exceeds ``budget``, then when a
    start is not a k-robot configuration of the grid.

    One tree holds every search: its root level is the starts, and each
    node carries its start's rows. The nodes of one depth are scored
    together: their Gram matrices are gathered from covariance blocks
    computed once per call and factored in one stacked Cholesky (see
    :func:`_level_entropies`), and every node carries the running sum of its
    gains. The frontier is held in chunks of at most _CHUNK_NODES nodes in
    lexicographic (start, moves) order, expanded depth first, so each
    start's leaves are visited in lexicographic order. A later leaf replaces
    its start's incumbent only when it is better by more than TIE_RTOL, so
    ties resolve to the lexicographically smallest action sequence wherever
    the chunks split. A node's arithmetic does not depend on the other nodes
    of its chunk, so each result is bit for bit that of searching its start
    alone. When a level's stacked factor fails, or a level refuses, the
    starts are searched one by one instead, where a failed level is redone
    node by node; so the first failing start's refusal is raised. Each
    result's ``stage_gains`` are its path's per-column gains, and its
    ``plan_seconds`` the call's wall time divided by the number of starts.
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
    for x0 in starts:
        if x0 not in configs:
            raise InvalidArity(f"start {x0} is not a {k}-robot configuration on this grid")
    if not starts:
        return []

    idx = np.array([c.rows for c in configs])
    first = np.array([x0.rows for x0 in starts])
    found = None
    if len(starts) > 1:
        try:
            found = _search(grid, h, idx, first, redo=False)
        except TransectPlanError:
            pass
    if found is None:
        # one start at a time, a failed level is redone node by node as when
        # the start is searched alone, and the first refusal is its start's
        found = [_search(grid, h, idx, first[[s]], redo=True)[0] for s in range(len(starts))]
    seconds = (time.perf_counter() - t0) / len(starts)
    return [
        PlanResult(
            "exact",
            ObservationPath(grid, (x0, *(configs[j] for j in seq))),
            float(value),
            seconds,
            gains,
        )
        for x0, (value, seq, gains) in zip(starts, found)
    ]


def plan_exact(
    grid: TransectGrid,
    h: Hyperparams,
    k: int,
    x0: RobotConfig,
    budget: int = DEFAULT_BUDGET,
) -> PlanResult:
    """Start-rooted exhaustive search, scored one tree level at a time: the
    one-start call of :func:`plan_exact_all`.

    Maximizes the summed full-history conditional entropies, which equals
    the joint path entropy given the start. Refuses to start when the leaf
    count |A|^(n_cols - 1) exceeds ``budget``, then when ``x0`` is not a
    k-robot configuration of the grid. The frontier is held in chunks of at
    most _CHUNK_NODES nodes, and ties resolve to the lexicographically
    smallest action sequence wherever the chunks split; a level whose
    stacked factor fails is redone node by node with the jitter ladder. The
    result's ``stage_gains`` are the path's per-column gains.
    """
    return plan_exact_all(grid, h, k, [x0], budget=budget)[0]


def plan_greedy(
    policy: str, grid: TransectGrid, h: Hyperparams, k: int, starts
) -> list[PlanResult]:
    """Plan the greedy ``policy`` ("greedy-ent" or "greedy-mi") from every
    start in ``starts`` in one sweep; one result per start, in order.

    Each start commits, column by column, to the first best configuration:
    the one whose rows of the next column have the most entropy given the
    start's visited cells, less, for greedy-mi, their entropy given every
    unvisited cell (see :func:`plan_greedy_entropy` and
    :func:`plan_greedy_mi`). The starts advance together, and each one's
    arithmetic is the same as when it is planned alone, so a result does not
    depend on the other starts. Refuses before planning when a start is not
    a k-robot configuration of the grid, and greedy-mi on grids beyond
    MAX_DENSE_CELLS cells.

    Cells are numbered column-major (``col * n_rows + row``). The first term
    conditions the column's prior covariance, gathered by one ``LagGram``,
    on a stacked factor of each start's visited cells; the second conditions
    the whole grid's precision P = K^-1, formed once per sweep, on a stacked
    factor of P over the visited cells, since P_cc - P_cV P_VV^-1 P_Vc is
    the inverse of the column's covariance given every unvisited cell. Both
    factors grow by the chosen rows at each column instead of being
    refactored. Every result's ``plan_seconds`` is the sweep's wall time
    divided by the number of starts.
    """
    t0 = time.perf_counter()
    if policy not in ("greedy-ent", "greedy-mi"):
        raise ParseError(f"{policy!r} is not a greedy policy")
    mi = policy == "greedy-mi"
    if mi and grid.n_rows * grid.n_cols > MAX_DENSE_CELLS:
        raise GridTooLarge(
            "mutual-information scores condition on the whole grid; "
            f"{grid.n_rows * grid.n_cols} cells exceeds {MAX_DENSE_CELLS}"
        )
    configs = enumerate_configs(grid, k)
    for x0 in starts:
        if x0 not in configs:
            raise InvalidArity(f"start {x0} is not a {k}-robot configuration on this grid")
    if not starts:
        return []

    idx = np.array([c.rows for c in configs])
    n_rows, n_cols = grid.n_rows, grid.n_cols
    prior = LagGram(grid, h)
    visited = np.array([x0.rows for x0 in starts])
    members = np.arange(len(starts))[:, None]
    factors = [GrowingFactor(prior, visited, k * n_cols)]
    if mi:
        p = precision(_grid_gram(prior.blocks))
        entries = lambda a, b: p[np.asarray(a)[..., :, None], np.asarray(b)[..., None, :]]
        factors.append(GrowingFactor(entries, visited, k * n_cols))
    chosen = []
    for col in range(1, n_cols):
        column = col * n_rows + np.arange(n_rows)
        steps = [f.condition(column) for f in factors]
        entropies = minor_entropies(np.stack([post for post, _ in steps]), idx)
        scores = entropies[0]
        if mi:
            # less the entropy given every unvisited cell, from its precision
            scores = scores - (k * LOG_2PI_E - entropies[1])
        j = _first_best(scores)
        chosen.append(j)
        if col + 1 < n_cols:
            rows = idx[j]
            for f, (post, wt) in zip(factors, steps):
                f.extend(
                    column[rows],
                    wt[members, rows],
                    post[members[:, :, None], rows[:, :, None], rows[:, None, :]],
                )

    paths = [
        ObservationPath(grid, (x0, *(configs[j] for j in seq)))
        for x0, seq in zip(starts, np.transpose(chosen).tolist())
    ]
    values = path_entropies(paths, h).tolist()
    seconds = (time.perf_counter() - t0) / len(paths)
    return [PlanResult(policy, path, v, seconds) for path, v in zip(paths, values)]


def plan_greedy_entropy(
    grid: TransectGrid, h: Hyperparams, k: int, x0: RobotConfig
) -> PlanResult:
    """Stagewise entropy maximization with full-history conditioning.

    Each stage commits to the destination whose observations are most
    uncertain given everything sampled so far. The reported value is the
    resulting path's joint entropy, not the sum of greedy scores.
    """
    return plan_greedy("greedy-ent", grid, h, k, [x0])[0]


def plan_greedy_mi(
    grid: TransectGrid, h: Hyperparams, k: int, x0: RobotConfig
) -> PlanResult:
    """Stagewise mutual-information maximization against the unvisited grid.

    Scores a candidate by H[candidate | visited] minus H[candidate | rest of
    the grid], the information the new observations share with everything
    not yet sampled (Krause, Singh & Guestrin, JMLR 2008). The second term
    reads the precision of the whole grid, formed once per sweep from one
    factor of its dense Gram matrix by ``chol_factor``, hence the cell
    guard; a Gram matrix that the jitter ladder does not factor, or whose
    factor reaches DIAG_FLOOR, is refused. The reported value is the path's
    joint entropy.
    """
    return plan_greedy("greedy-mi", grid, h, k, [x0])[0]


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
