"""Observation-path planners for transect surveys.

All four planners maximize entropy-flavored objectives over the same action
space (the team's destination rows in the next column) and break ties toward
the lexicographically smallest action: each takes the first score within
TIE_RTOL of the best (``_first_best``). They differ in what they condition
on:

* ``markov`` keeps only the current column in the conditioning set, which
  buys a backward-induction solution over per-stage tables
  (:func:`plan_markov`);
* ``exact`` conditions every stage on the full history and searches every
  action sequence from the start, so it is the ground truth and
  exponentially priced; it scores the nodes of one tree level together with
  one stacked factorization, over chunks of at most a fixed number of
  nodes taken in lexicographic order, and keeps the first leaf within
  TIE_RTOL of the best; it is never pruned, so it is the oracle for the
  bound audit's search, which ``_search`` prunes by branch and bound with
  the Markov values as the upper bound (see
  :func:`~transectplan.bounds.verify_performance_bounds`);
* ``greedy-ent`` conditions on the full history but commits one stage at a
  time, growing one Cholesky factor of the history by the chosen rows
  instead of refactoring it;
* ``greedy-mi`` greedily maximizes the mutual information between the
  candidate observations and the rest of the grid, whose term it reads from
  the whole grid's precision matrix through a second growing factor.

:func:`plan_all` is the one front door: it runs the planner named by one of
``POLICIES`` from many starts, and :func:`plan` is its one-start call. It
refuses an unknown policy, then an instance the planner refuses outright
(the exhaustive search's leaf budget, greedy-mi's cell cap), then a start
that is not a configuration of the grid, and only then plans. Markov rolls
one table out from every start, the greedy planners advance every start
column by column in one sweep, and the exhaustive search holds every start
in the root level of one tree; each start's result is bit for bit the
one-start call's. A many-start call refuses as its one-start calls would:
when it refuses, ``_one_at_a_time`` runs the starts again one by one, so the
first failing start's refusal is raised. ``_planner`` raises the up-front
refusals and returns a planner that does not replay, so a caller that
replays its own work around it, as the benchmark does, never nests a replay
in another one.

Values are reported in nats. The exact and greedy planners report a path's
joint entropy given the start (``path_entropy``; ``path_entropies`` values
many paths of one grid from one stacked factor, with the same bits); markov
reports the policy's stagewise value, which bounds that of every path from
the start from above.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceeded,
    GridTooLarge,
    InvalidArity,
    MismatchedInstances,
    ParseError,
    TransectPlanError,
)
from .gp import (
    LAG_BLOCK_KEYS,
    LOG_2PI_E,
    MAX_DENSE_CELLS,
    GrowingFactor,
    Hyperparams,
    LagGram,
    _condition,
    _probe,
    chol_factor,
    gaussian_entropy,
    minor_factors,
    precision,
)
from .transect import (
    ObservationPath,
    RobotConfig,
    TransectGrid,
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
    zero by definition. Stages outside [0, n_cols - 2] raise ValueError.
    ``plan_seconds`` is :func:`plan_markov`'s wall time: the stage table's
    and the sweep's, or the sweep's alone when the table was kept from an
    earlier call; tables are kept per grid shape, spacing, fit and team size,
    for the last four keys.
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

    def _stage(self, stage: int) -> int:
        if not 0 <= stage <= self.grid.n_cols - 2:
            raise ValueError(f"stage {stage} outside [0, {self.grid.n_cols - 2}]")
        return stage

    def value(self, stage: int, x: RobotConfig) -> float:
        return float(self.values[self._stage(stage), self._index(x)])

    def action(self, stage: int, x: RobotConfig) -> RobotConfig:
        return self.configs[int(self.actions[self._stage(stage), self._index(x)])]


@dataclass(frozen=True)
class PlanResult:
    """A planned path, its value, and the planning wall time.

    The value is the path's joint entropy given the start, except for a
    markov result, which holds the dynamic program's stagewise value from
    the start (see :func:`plan_all`). The exact planner also fills
    ``stage_gains``, the conditional entropy gained at each column after the
    start."""

    policy_kind: str
    path: ObservationPath
    value: float
    plan_seconds: float
    stage_gains: tuple[float, ...] = ()


def path_entropy(path: ObservationPath, h: Hyperparams) -> float:
    """Joint entropy of everything observed after the start, given the start.

    By the chain rule this equals the sum of the per-stage conditional
    entropies with full-history conditioning, so it is the objective the
    exact planner maximizes. The one-path call of :func:`path_entropies`.
    """
    return float(path_entropies([path], h)[0])


def path_entropies(paths: list[ObservationPath], h: Hyperparams) -> np.ndarray:
    """:func:`path_entropy` of each of ``paths``, which share one grid and
    one team size, or MismatchedInstances is raised; each value is the same
    whatever the other paths are.

    The Gram matrices of every path and of every start are gathered by one
    ``LagGram.block``, and each stack is valued by :func:`gaussian_entropy`,
    so only a path whose matrix fails the stacked Cholesky climbs the jitter
    ladder. The joint matrices are factored before the starts', and within
    a stack the first failing path's refusal is raised.
    """
    if not paths:
        return np.empty(0)
    grid, k = paths[0].grid, paths[0].k
    if any(p.grid != grid or p.k != k for p in paths[1:]):
        raise MismatchedInstances("paths valued together need one grid and one team size")
    rows = np.array([[r for x in p.configs for r in x.rows] for p in paths])
    cols = np.repeat(np.arange(grid.n_cols), k)
    gram = LagGram(grid, h).block(cols, rows, cols, rows)
    return gaussian_entropy(gram) - gaussian_entropy(gram[:, :k, :k])


def stage_entropy_table(
    grid: TransectGrid, h: Hyperparams, configs: list[RobotConfig]
) -> np.ndarray:
    """Entropy of each destination configuration given each current one.

    Entry (i, j) is H[next column in configs[j] | current column in
    configs[i]]. The covariance is stationary and every stage advances by
    exactly one column, so the table is computed once for columns (0, 1) and
    reused at every stage.

    The conditioning is done once per current configuration: one Gram
    matrix of the two columns, gathered from the grid's shared lag blocks
    (:class:`~transectplan.gp.LagGram`), holds every block, each
    K_xx is factored by :func:`chol_factor`, W = L^-1 K_x,next is solved by
    numpy's LU solve on the k x k factor, and the whole next column's
    posterior is K_next - W^T W. Entry (i, j) is :func:`gaussian_entropy`
    of its minor at configs[j], with that function's jitter ladder and
    refusals; entries are taken in row-major order, so the first refusal
    raised is the first entry's, as from :func:`gaussian_entropy` of each
    entry's posterior covariance, conditioned one entry at a time.
    """
    n_rows = grid.n_rows
    cols, rows = np.divmod(np.arange(2 * n_rows), n_rows)  # columns 0 and 1
    gram = LagGram(grid, h).block(cols, rows, cols, rows)
    nxt = gram[n_rows:, n_rows:]
    idx = [np.ix_(x.rows, x.rows) for x in configs]
    table = np.empty((len(configs), len(configs)))
    for i, x in enumerate(configs):
        factor = chol_factor(gram[idx[i]])
        w = np.linalg.solve(factor, gram[x.rows, n_rows:])
        post = nxt - w.T @ w
        for j, minor in enumerate(idx):
            table[i, j] = gaussian_entropy(post[minor])
    return table


@functools.lru_cache(maxsize=LAG_BLOCK_KEYS)
def _stage_table(grid: TransectGrid, h: Hyperparams, k: int) -> np.ndarray:
    """:func:`stage_entropy_table` of every k-robot configuration,
    read-only, kept per grid shape, spacing, fit and team size, for the last
    LAG_BLOCK_KEYS keys, as the lag blocks are kept. The grid's measurements
    are not part of its key, and the table does not read them; a kept key
    holds on to the first grid that made it, measurements included. A
    refusal is not kept, so a refusing key refuses again on every call.
    """
    table = stage_entropy_table(grid, h, enumerate_configs(grid, k))
    table.flags.writeable = False
    return table


# The DP's actions are taken over stacks of (stages, m, m) scores of at most
# this many elements, so the sweep's memory does not grow with the horizon.
_SWEEP_ELEMENTS = 1 << 15


def plan_markov(grid: TransectGrid, h: Hyperparams, k: int) -> MarkovPolicy:
    """Backward induction over single-column conditioning.

    Solves value(i, x) = max_a H[a at column i+1 | x at column i] +
    value(i+1, a) for every stage and configuration. One stage-entropy table
    serves all stages, so the sweep costs |A|^2 per stage on top of the
    |A|^2 entropy evaluations. The values are swept stage by stage; the
    actions then come from stacks of stages at once. Deterministic; ties
    within TIE_RTOL go to the smallest action.

    The table is kept per grid shape, spacing, fit and team size, for the
    last four keys (:func:`_stage_table`): on a hit the policy's
    ``plan_seconds`` is the sweep's time alone.
    """
    t0 = time.perf_counter()
    configs = enumerate_configs(grid, k)
    m = len(configs)
    stages = grid.n_cols - 1
    table = _stage_table(grid, h, k)

    # values[stages] is the zero value past the last decision
    values = np.zeros((stages + 1, m))
    for i in range(stages - 1, -1, -1):
        values[i] = (table + values[i + 1]).max(axis=1)
    actions = np.empty((stages, m), dtype=np.int64)
    chunk = max(1, _SWEEP_ELEMENTS // (m * m))
    for lo in range(0, stages, chunk):
        hi = min(lo + chunk, stages)
        scores = table + values[lo + 1 : hi + 1, None, :]
        actions[lo:hi] = _first_best(scores, values[lo:hi, :, None])
    return MarkovPolicy(
        grid=grid,
        h=h,
        k=k,
        configs=tuple(configs),
        values=values[:stages],
        actions=actions,
        plan_seconds=time.perf_counter() - t0,
    )


def rollout(policy: MarkovPolicy, x0: RobotConfig) -> ObservationPath:
    """Execute a Markov policy from a start configuration."""
    j = policy._index(x0)
    configs = [x0]
    for stage in range(policy.grid.n_cols - 1):
        j = int(policy.actions[stage, j])
        configs.append(policy.configs[j])
    return ObservationPath(policy.grid, tuple(configs))


def _tie_tol(best):
    return TIE_RTOL * np.maximum(np.abs(best), 1.0)


def _first_best(scores: np.ndarray, best: np.ndarray | None = None) -> np.ndarray:
    """Index of the first score tied with the maximum along the last axis;
    ``best`` is that maximum with its axis kept, when the caller has it."""
    if best is None:
        best = scores.max(axis=-1, keepdims=True)
    return np.argmax(scores >= best - _tie_tol(best), axis=-1)


def _level_entropies(gram, idx, first, moves):
    """The column step for nodes of one depth: entry (i, j) is the entropy of
    the row set ``idx[j]`` of the next column given the cells of the path
    from the start rows ``first[i]`` through the configurations
    ``idx[moves[i]]``.

    The nodes' cell rows are filled into one array; their columns, k cells
    in each column through ``depth`` and then the n_rows cells of the next
    one, are the same for every node of a depth. One stacked Cholesky
    factors every node's history-plus-next-column Gram matrix, gathered by
    one ``gram.block``; the trailing R x R block of a factor
    is the factor of the next column's posterior. Only the nodes whose factor
    fails or reaches DIAG_FLOOR are redone, one by one from the same matrix,
    by :func:`chol_factor` of the history block, with its jitter ladder and
    refusals, and :func:`_condition`.
    """
    n, depth = moves.shape
    n_rows, k = gram.n_rows, idx.shape[1]
    t = (depth + 1) * k  # a joint matrix holds the t history cells, then the column
    rows = np.empty((n, t + n_rows), dtype=np.int64)
    rows[:, :k] = first
    rows[:, k:t] = idx[moves].reshape(n, -1)
    rows[:, t:] = np.arange(n_rows)
    cols = np.repeat(np.arange(depth + 2), [k] * (depth + 1) + [n_rows])
    joint = gram.block(cols, rows, cols, rows)
    factor, ok = _probe(joint)
    tail = factor[:, t:, t:]
    post = tail @ tail.transpose(0, 2, 1)
    if ok.all():
        return minor_factors(post, idx)[0]
    scores = np.empty((n, len(idx)))
    scores[ok] = minor_factors(post[ok], idx)[0]
    for i in np.flatnonzero(~ok).tolist():
        x = joint[i]
        post_i = _condition(chol_factor(x[:t, :t]), x[:t, t:], x[t:, t:])
        scores[i] = minor_factors(post_i, idx)[0]
    return scores


def _one_at_a_time(run, starts):
    """``run(starts)``, refusing as its one-start calls would: when it
    refuses, each start is run again alone, in order, so the first failing
    start's refusal is the one raised. ``run`` itself does not replay."""
    try:
        return run(starts)
    except TransectPlanError:
        if len(starts) > 1:
            for x0 in starts:
                run([x0])
        raise


# Nodes scored by one stacked factorization at most. The frontier is held in
# chunks of nodes of this size, so memory does not grow with the leaf count.
_CHUNK_NODES = 1024

# A pruned search keeps a node whose summed gains plus its bound come within
# the tie window and this relative margin of the incumbent. The margin covers
# the rounding between the routes that give the bound, the floor and the
# searched values, which differ by at most 9.2e-14 relative at noise ratios
# of 1e-3 and above.
_BOUND_RTOL = 1e-9


def _prune_bar(incumbent):
    """The value below which a pruned search drops a node, per incumbent."""
    return incumbent - _tie_tol(incumbent) - _BOUND_RTOL * np.maximum(np.abs(incumbent), 1.0)


def _search(grid, h, idx, first, bound=None, floor=None):
    """The exhaustive search from the start rows ``first`` (shape (S, k)),
    one tree whose root level holds every start: per start, the value of its
    first leaf tied with its best, that leaf's configuration indices after
    the start and its gains.

    Given ``bound`` (shape (n_cols, m)), an upper bound on the value to go
    from each column in each configuration, zero at the last column, and
    ``floor`` (shape (S,)), a value each start's best leaf reaches, the search
    is branch and bound. After a chunk is scored, each child whose summed
    gains plus ``bound`` at its column and configuration fall below its
    start's incumbent, the larger of the start's floor and its best leaf so
    far, by more than the tie window and _BOUND_RTOL relative, is dropped
    with its subtree. Every leaf dropped so lies below the best by more than
    the tie window, so the result is the unpruned search's, bit for bit; a
    dropped subtree is never factored, so it cannot refuse either.
    """
    m, n = len(idx), len(first)
    stages = grid.n_cols - 1
    gram = LagGram(grid, h)
    # per start, the leaves so far that are above every earlier leaf and
    # within the tie window of the best of them, in order: the first one left
    # at the end is the first leaf tied with the best, as _first_best picks;
    # the last one is the best, also kept in top
    tied = [[] for _ in range(n)]
    top = np.full(n, -np.inf)
    # per start, the value below which a pruned search drops a node: the
    # incumbent is the larger of the start's floor and its top
    bar = None
    if bound is not None:
        floor = np.array(floor, dtype=float)
        bar = _prune_bar(floor)
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
        scores = _level_entropies(gram, idx, first[start], moves)
        # the children, node i's child a at (i, a); flat, at i * m + a
        totals = acc[:, None] + scores
        depth = moves.shape[1] + 1
        keep = slice(None)
        if bar is not None:
            keep = np.flatnonzero(totals + bound[depth] >= bar[start, None])
        if depth < stages:
            nodes = len(start)
            seqs = np.empty((nodes, m, depth), dtype=np.int64)
            seqs[:, :, :-1] = moves[:, None]
            seqs[:, :, -1] = np.arange(m)
            steps = np.empty((nodes, m, depth))
            steps[:, :, :-1] = gains[:, None]
            steps[:, :, -1] = scores
            children = (
                start.repeat(m),
                seqs.reshape(-1, depth),
                totals.reshape(-1),
                steps.reshape(-1, depth),
            )
            push(tuple(c[keep] for c in children))
            continue
        # the chunk's leaves, in start order: their starts lie in lo..hi - 1
        leaf = np.arange(totals.size)[keep]
        if not leaf.size:
            continue
        values, owner = totals.reshape(-1)[leaf], start[leaf // m]
        lo, hi = int(owner[0]), int(owner[-1]) + 1
        np.maximum.at(top, owner, values)
        best = top[lo:hi]
        if bar is not None:
            bar[lo:hi] = _prune_bar(np.maximum(floor[lo:hi], best))
        cut = best - _tie_tol(best)
        for leaves, c in zip(tied[lo:hi], cut.tolist()):
            leaves[:] = [t for t in leaves if t[0] >= c]
        # a leaf below its start's cut is below the leaves that are not, so
        # only those need the running maximum
        for j in np.flatnonzero(values >= cut[owner - lo]).tolist():
            leaves, value = tied[owner[j]], float(values[j])
            if not leaves or value > leaves[-1][0]:
                i, a = divmod(int(leaf[j]), m)
                gained = (*gains[i].tolist(), float(scores[i, a]))
                leaves.append((value, (*moves[i].tolist(), a), gained))
    return [leaves[0] for leaves in tied]


def _exact_configs(grid: TransectGrid, k: int, budget: int) -> list[RobotConfig]:
    """The configurations the exhaustive search moves through; refuses when
    the leaf count |A|^(n_cols - 1) of one start exceeds ``budget``."""
    configs = enumerate_configs(grid, k)
    m, stages = len(configs), grid.n_cols - 1
    if m**stages > budget:
        raise BudgetExceeded(
            f"{m}^{stages} = {m**stages} leaf evaluations exceed the budget {budget}"
        )
    return configs


def _exact_results(grid, h, configs, starts, bound=None, floor=None) -> list[PlanResult]:
    """The exhaustive search from every start in ``starts``, with no replay
    on a refusal: one :func:`_search` tree whose root level is the starts;
    one result per start, in order.

    Maximizes the summed full-history conditional entropies, which equals
    the joint path entropy given the start. The nodes of one depth are
    scored together (see :func:`_level_entropies`), and the frontier is held
    in chunks of at most _CHUNK_NODES nodes in lexicographic (start, moves)
    order, expanded depth first. A start's result is its first leaf within
    TIE_RTOL of its best, as :func:`_first_best` picks, wherever the chunks
    split, and a node's arithmetic does not depend on the other nodes of its
    chunk, so each result is bit for bit that of searching its start alone.
    Unless given ``bound`` and ``floor`` (see :func:`_search`), every node
    is scored, so the search is the oracle that pruned searches are checked
    against. Each result's ``stage_gains`` are its path's per-column gains,
    and its ``plan_seconds`` the call's wall time divided by the number of
    starts.
    """
    if not starts:
        return []
    t0 = time.perf_counter()
    idx = np.array([c.rows for c in configs])
    found = _search(grid, h, idx, np.array([x0.rows for x0 in starts]), bound, floor)
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


def _greedy_sweep(policy, grid, h, configs, starts) -> list[PlanResult]:
    """Plan the greedy ``policy`` ("greedy-ent" or "greedy-mi") from every
    start in ``starts``, each one of ``configs``, in one sweep with no
    replay on a refusal; one result per start, in order.

    Each start commits, column by column, to the first best configuration:
    the one whose rows of the next column have the most entropy given the
    start's visited cells, less, for greedy-mi, their entropy given every
    unvisited cell. That difference is the information the new observations
    share with everything not yet sampled (Krause, Singh & Guestrin, JMLR
    2008). The starts advance together, and each one's arithmetic is the
    same as when it is planned alone, so a result does not depend on the
    other starts. The reported value is the path's joint entropy, not the
    sum of greedy scores.

    Cells are numbered column-major (``col * n_rows + row``). The first term
    conditions the column's prior covariance on a stacked factor of each
    start's visited cells; the column's block against those cells is
    gathered by lag (``LagGram.block``), and its own block is the same at
    every column. The second term conditions the whole grid's precision
    P = K^-1, formed once per sweep, on a stacked factor of P over the
    visited cells, since P_cc - P_cV P_VV^-1 P_Vc is the inverse of the
    column's covariance given every unvisited cell. P comes from one factor
    of the dense Gram matrix by ``chol_factor``, hence greedy-mi's cell cap;
    a Gram matrix that the jitter ladder does not factor, or whose factor
    reaches DIAG_FLOOR, is refused.

    At each column, one ``minor_factors`` call factors every candidate
    minor of every factor and start, with ``chol_factor``'s ladder and
    refusals, so the first failing minor in (factor, start, configuration)
    order is refused. The chosen minor's factor is both its score and the
    new diagonal block by which each factor grows, so no factor is
    refactored and no minor factored twice; a member whose chosen minor
    needed jitter is refactored from its whole history instead. Every
    result's ``plan_seconds`` is the sweep's wall time divided by the number
    of starts.
    """
    if not starts:
        return []
    t0 = time.perf_counter()
    mi = policy == "greedy-mi"
    idx = np.array([c.rows for c in configs])
    n_rows, n_cols = grid.n_rows, grid.n_cols
    k = idx.shape[1]
    prior = LagGram(grid, h)
    # the visited cells, k per column: their columns, and each start's rows
    cols = np.repeat(np.arange(n_cols), k)
    rows = np.empty((len(starts), k * n_cols), dtype=np.int64)
    rows[:, :k] = [x0.rows for x0 in starts]
    stack = np.arange(len(starts))
    here = np.arange(n_rows)  # column 0's cells, and every column's rows
    # a column's own block, the same at every column
    own = prior(here, here)
    factors = [GrowingFactor(prior, rows[:, :k], k * n_cols)]
    if mi:
        p = precision(prior.dense())
        entries = lambda a, b: p[np.asarray(a)[..., :, None], np.asarray(b)[..., None, :]]
        factors.append(GrowingFactor(entries, rows[:, :k], k * n_cols))
    post = np.empty((len(factors), len(starts), n_rows, n_rows))
    chosen = []
    for col in range(1, n_cols):
        n = col * k
        column = col * n_rows + here
        cross = prior.block(np.full(n_rows, col), here, cols[:n], rows[:, :n])
        post[0], wt = factors[0].condition(cross, own)
        wts = [wt]
        if mi:
            cross = entries(column, factors[1].cells[:, :n])
            post[1], wt = factors[1].condition(cross, entries(column, column))
            wts.append(wt)
        entropies, factor, ok = minor_factors(post, idx)
        scores = entropies[0]
        if mi:
            # less the entropy given every unvisited cell, from its precision
            scores = scores - (k * LOG_2PI_E - entropies[1])
        j = _first_best(scores)
        chosen.append(j)
        if col + 1 < n_cols:
            rows[:, n : n + k] = idx[j]
            for f, wt, fj, okj in zip(factors, wts, factor[:, stack, j], ok[:, stack, j]):
                f.extend(column[idx[j]], wt[stack[:, None], idx[j]], fj, okj)

    paths = [
        ObservationPath(grid, (x0, *(configs[j] for j in seq)))
        for x0, seq in zip(starts, np.transpose(chosen).tolist())
    ]
    values = path_entropies(paths, h).tolist()
    seconds = (time.perf_counter() - t0) / len(paths)
    return [PlanResult(policy, path, v, seconds) for path, v in zip(paths, values)]


def _planner(policy: str, grid: TransectGrid, h: Hyperparams, k: int, starts, budget: int):
    """:func:`plan_all`'s refusals of ``policy`` on this instance and of
    ``starts``, raised here in its order; then the planner: a function that
    plans some of the starts at once, one result each, with no replay on a
    refusal. Callers that replay around it, :func:`plan_all` and the
    benchmark's records, therefore never replay inside a replay."""
    if policy not in POLICIES:
        raise ParseError(f"unknown policy {policy!r}; choose from {POLICIES}")
    if policy == "exact":
        configs = _exact_configs(grid, k, budget)
    else:
        if policy == "greedy-mi" and grid.n_rows * grid.n_cols > MAX_DENSE_CELLS:
            raise GridTooLarge(
                "mutual-information scores condition on the whole grid; "
                f"{grid.n_rows * grid.n_cols} cells exceeds {MAX_DENSE_CELLS}"
            )
        configs = enumerate_configs(grid, k)
    for x0 in starts:
        if x0 not in configs:
            raise InvalidArity(f"start {x0} is not a {k}-robot configuration on this grid")
    if policy == "markov":
        # the table does not depend on the starts, so its refusal is every
        # start's and needs no replay; a rollout does not refuse
        pol = plan_markov(grid, h, k)
        return lambda some: [
            PlanResult(policy, rollout(pol, x0), pol.value(0, x0), pol.plan_seconds / len(some))
            for x0 in some
        ]
    if policy == "exact":
        return lambda some: _exact_results(grid, h, configs, some)
    return lambda some: _greedy_sweep(policy, grid, h, configs, some)


def plan_all(
    policy: str,
    grid: TransectGrid,
    h: Hyperparams,
    k: int,
    starts,
    budget: int = DEFAULT_BUDGET,
) -> list[PlanResult]:
    """Plan from every start in ``starts``, an iterable read once, with the
    planner named ``policy``, one of POLICIES; one result per start, in
    order, whose value, path and stage gains are bit for bit those of its
    one-start call.

    Refuses, in this order: an unknown policy; an exhaustive search whose
    leaf count |A|^(n_cols - 1) from one start exceeds ``budget``, which
    caps nothing else, and greedy-mi on grids beyond MAX_DENSE_CELLS cells;
    a start that is not a k-robot configuration of the grid. Then it plans
    every start at once, markov by rolling out one table
    (:func:`plan_markov`), exact by one tree (:func:`_exact_results`) and
    the greedy planners by one sweep (:func:`_greedy_sweep`); on a refusal
    the starts are planned again one by one (:func:`_one_at_a_time`), so the
    first failing start's refusal is raised.

    A markov result is valued by the policy's stagewise value: an upper
    bound on the joint entropy of any path from its start, not the
    rollout's own joint entropy; the exact and greedy results by the path's
    joint entropy. Every result's ``plan_seconds`` is the planning time
    divided by the number of starts; for markov, that of
    :func:`plan_markov` alone, not of the rollouts. The stage table is kept
    per grid shape, spacing, fit and team size, for the last four keys, so
    on a kept table that time is the DP sweep's alone.
    """
    starts = list(starts)
    return _one_at_a_time(_planner(policy, grid, h, k, starts, budget), starts)


def plan(
    policy: str,
    grid: TransectGrid,
    h: Hyperparams,
    k: int,
    x0: RobotConfig,
    budget: int = DEFAULT_BUDGET,
) -> PlanResult:
    """Plan from ``x0`` with the planner named ``policy``, one of POLICIES:
    the one-start call of :func:`plan_all`. The markov result carries the
    whole of :func:`plan_markov`'s time."""
    return plan_all(policy, grid, h, k, [x0], budget=budget)[0]
