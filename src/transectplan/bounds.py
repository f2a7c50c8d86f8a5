"""Closed-form performance bounds for the Markov planner, and their audits.

The quality of single-column conditioning hinges on two scalars derived from
the hyperparameters and the grid spacing:

* ``step_corr``: the prior signal correlation between horizontally adjacent
  cells, exp(-1 / (2 * (ell1/omega1)^2)), in [0, 1];
* ``variance_ratio``: total measurement variance over signal variance,
  1 + noise_var/signal_var, at least 1.

Small step correlation or plenty of noise makes the history beyond the
current column nearly redundant, and the per-stage information loss of the
Markov planner admits a closed-form ceiling. Summing the ceilings over the
remaining stages bounds the value gap between the Markov tables and the
exhaustive optimum, and the gap of the executed Markov path. The team
variant additionally requires equal normalized length-scales on both axes.

Everything here is desk math except the audits, which replan small instances
with the exhaustive oracle, and the covariance-contraction check, which
samples the assumption the team bound leans on.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import AnisotropyViolated, ConditionViolated
from .gp import Hyperparams, _steps, posterior_cov

# The audit prunes its exhaustive search with the Markov values only when
# noise_var is at least this fraction of signal_var, gp's one threshold for
# trusting two routes to an entropy. There the Markov values, the rollouts'
# values and the searched values round apart by at most 9.2e-14 relative,
# far inside the pruning margin.
from .gp import STABLE_NOISE_RATIO as PRUNE_NOISE_RATIO
from .planners import (
    DEFAULT_BUDGET,
    _exact_configs,
    _exact_results,
    _one_at_a_time,
    path_entropies,
    plan_markov,
    rollout,
)
from .transect import Location, RobotConfig, TransectGrid

#: Equality tolerance for the normalized length-scales in the team bound.
ANISOTROPY_TOL = 1e-9

#: Rounding slack of every inequality the audits and the contraction check test.
AUDIT_TOL = 1e-9

#: The contraction check's histories hold 1 to this many cells.
MAX_HISTORY = 6


@dataclass(frozen=True)
class BoundParams:
    """Grid-normalized quantities the bounds are written in.

    ``signal_var`` rides along because the variance-reduction bound is
    stated in field units squared.
    """

    step_corr: float
    variance_ratio: float
    norm_ell1: float
    norm_ell2: float
    signal_var: float


def bound_params(h: Hyperparams, widths: tuple[float, float]) -> BoundParams:
    """Normalize hyperparameters by the cell widths, refusing what
    :func:`~transectplan.gp._steps` refuses. A length-scale so short that
    2 * norm_ell1^2 underflows to 0 has step_corr 0, its limit."""
    _steps(widths, h)
    norm1 = h.ell1 / widths[0]
    norm2 = h.ell2 / widths[1]
    spread = 2.0 * norm1 * norm1
    return BoundParams(
        step_corr=math.exp(-1.0 / spread) if spread > 0 else 0.0,
        variance_ratio=1.0 + h.noise_var / h.signal_var,
        norm_ell1=norm1,
        norm_ell2=norm2,
        signal_var=h.signal_var,
    )


def _log_bound(numerator: float, denominator: float, history_len: int) -> float:
    # The ceiling is -0.5*log(1 - numerator/denominator); it is finite and
    # nonnegative only while the ratio stays inside (0, 1).
    arg = 1.0 - numerator / denominator
    if not 0.0 < arg <= 1.0:
        raise ConditionViolated(
            f"information-loss bound vacuous after {history_len} steps "
            f"(log argument {arg:g})"
        )
    return 0.5 * math.log(1.0 / arg)


def stage_mi_bound(i: int, p: BoundParams) -> float:
    """Ceiling on the information one observation shares with the history
    beyond its preceding column, after ``i`` earlier columns.

    Zero history means nothing to forget, so the bound is 0 at i = 0.
    Requires step_corr < variance_ratio / i; nondecreasing in i while
    defined.
    """
    if i < 0:
        raise ValueError("history length cannot be negative")
    if i == 0:
        return 0.0
    xi, rho = p.step_corr, p.variance_ratio
    if not xi < rho / i:
        raise ConditionViolated(
            f"need step_corr < variance_ratio/{i} ({xi:g} >= {rho / i:g})"
        )
    return _log_bound(xi**4, (rho / i - xi) * (rho - xi * xi), i)


def team_mi_bound(i: int, k: int, p: BoundParams) -> float:
    """Team-of-k version of :func:`stage_mi_bound`.

    Only stated for equal normalized length-scales on both axes; requires
    step_corr < variance_ratio / (i*k) and < variance_ratio / (4*k).
    """
    if k < 1:
        raise ValueError("team size must be at least 1")
    if abs(p.norm_ell1 - p.norm_ell2) > ANISOTROPY_TOL:
        raise AnisotropyViolated(
            f"normalized length-scales differ ({p.norm_ell1:g} vs {p.norm_ell2:g})"
        )
    if i < 0:
        raise ValueError("history length cannot be negative")
    if i == 0:
        return 0.0
    xi, rho = p.step_corr, p.variance_ratio
    limit = min(rho / (i * k), rho / (4 * k))
    if not xi < limit:
        raise ConditionViolated(
            f"need step_corr < {limit:g} for history {i}, team {k} (got {xi:g})"
        )
    # k/2 * log(1/arg) is k times the half-log the shared helper returns
    return float(k) * _log_bound(
        xi**4, (rho / (i * k) - xi) * (rho - (4.0 * k / rho) * xi * xi), i
    )


def _stage_bound(i: int, team_size: int, p: BoundParams) -> float:
    """The single-robot stage bound, or the team bound for larger teams."""
    if team_size == 1:
        return stage_mi_bound(i, p)
    return team_mi_bound(i, team_size, p)


def variance_reduction_bound(i: int, p: BoundParams) -> float:
    """Ceiling on how much the history beyond the preceding column can still
    shrink the predictive variance of the next observation, in field units
    squared. Requires step_corr < variance_ratio / i."""
    if i < 1:
        raise ValueError("needs at least one history column")
    xi, rho = p.step_corr, p.variance_ratio
    if not xi < rho / i:
        raise ConditionViolated(
            f"need step_corr < variance_ratio/{i} ({xi:g} >= {rho / i:g})"
        )
    return p.signal_var * xi**4 / (rho / i - xi)


def suboptimality_bound(
    i: int, horizon: int, p: BoundParams, team_size: int = 1
) -> tuple[float, float]:
    """Value-gap ceiling from stage ``i`` to the end, and its loose cousin.

    The first element sums the per-stage ceilings over the remaining stages;
    the second is (horizon - i + 1) times the last-stage ceiling, cheaper
    and never smaller.
    """
    if not 0 <= i <= horizon:
        raise ValueError(f"stage {i} outside [0, {horizon}]")
    per_stage = [_stage_bound(s, team_size, p) for s in range(i, horizon + 1)]
    return float(sum(per_stage)), float((horizon - i + 1) * per_stage[-1])


@dataclass(frozen=True)
class ContractionViolation:
    """One sampled tuple where extra conditioning grew a covariance."""

    u: Location
    v: Location
    history: tuple[Location, ...]
    conditioned_on: Location
    full_abs: float
    single_abs: float


@dataclass(frozen=True)
class ContractionCheck:
    passed: bool
    trials: int
    counterexamples: tuple[ContractionViolation, ...]


def check_covariance_contraction(
    grid: TransectGrid,
    h: Hyperparams,
    trials: int = 200,
    seed: int = 0,
) -> ContractionCheck:
    """Sample the assumption that conditioning on a whole history never
    leaves a pairwise covariance larger in magnitude than conditioning on
    any single member of it.

    The team bound relies on this property of the covariance structure; it
    is not a theorem for squared-exponential kernels, so counterexamples are
    reported rather than suppressed. ``passed`` is True when no sampled
    tuple violates the inequality beyond AUDIT_TOL.
    """
    rng = np.random.default_rng(seed)
    cells = grid.locations()
    found: list[ContractionViolation] = []
    for _ in range(trials):
        hist_len = int(rng.integers(1, MAX_HISTORY + 1))
        take = min(hist_len + 2, len(cells))
        picks = rng.choice(len(cells), size=take, replace=False)
        u, v = cells[picks[0]], cells[picks[1]]
        history = tuple(cells[i] for i in picks[2:])
        if not history:
            continue
        full = posterior_cov([u, v], list(history), h, grid.widths)[0, 1]
        for x_m in history:
            single = posterior_cov([u, v], [x_m], h, grid.widths)[0, 1]
            if abs(full) > abs(single) + AUDIT_TOL:
                found.append(
                    ContractionViolation(
                        u, v, history, x_m, abs(float(full)), abs(float(single))
                    )
                )
    return ContractionCheck(not found, trials, tuple(found))


@dataclass(frozen=True)
class StartAudit:
    """Exhaustive-oracle audit of one start configuration."""

    start: RobotConfig
    markov_value: float
    exact_value: float
    rollout_value: float
    value_bracket_ok: bool
    rollout_gap_ok: bool
    stage_bracket_ok: bool


@dataclass(frozen=True)
class BoundReport:
    """Bound tables for one instance, plus oracle audits when requested.

    ``stage_bounds[s]`` ceilings the per-stage information loss after ``s``
    history columns; ``tail_bounds[i]`` sums them over stages i..horizon and
    ``loose_tail_bounds[i]`` replaces the sum by its cheap over-estimate.
    Entries are NaN where the validity condition fails. Audit fields stay
    None until :func:`verify_performance_bounds` fills them.
    """

    params: BoundParams
    horizon: int
    team_size: int
    stage_bounds: np.ndarray
    tail_bounds: np.ndarray
    loose_tail_bounds: np.ndarray
    condition_ok: bool
    audits: tuple[StartAudit, ...] = ()
    value_bracket_ok: bool | None = None
    rollout_gap_ok: bool | None = None


def bound_report(
    h: Hyperparams,
    widths: tuple[float, float],
    horizon: int,
    team_size: int = 1,
) -> BoundReport:
    """Tabulate the bounds for a horizon, NaN-filling invalid stages."""
    if horizon < 0:
        raise ValueError("horizon cannot be negative")
    p = bound_params(h, widths)
    stage = np.full(horizon + 1, np.nan)
    for s in range(horizon + 1):
        try:
            stage[s] = _stage_bound(s, team_size, p)
        except ConditionViolated:
            # all later stages only tighten the condition, but keep looping
            # so the table shows exactly where validity ends
            continue
    tail = np.array([stage[i:].sum() for i in range(horizon + 1)])
    loose = np.array([(horizon - i + 1) * stage[horizon] for i in range(horizon + 1)])
    return BoundReport(
        params=p,
        horizon=horizon,
        team_size=team_size,
        stage_bounds=stage,
        tail_bounds=tail,
        loose_tail_bounds=loose,
        condition_ok=bool(np.all(np.isfinite(stage))),
    )


def verify_performance_bounds(
    grid: TransectGrid,
    h: Hyperparams,
    k: int = 1,
    budget: int = DEFAULT_BUDGET,
    per_stage: bool = True,
) -> BoundReport:
    """Audit the bound tables against the exhaustive oracle, every start.

    For each start configuration checks that the exhaustive optimum is
    bracketed by the Markov value from above and by the Markov value minus
    the stage-0 gap bound from below, and that executing the Markov policy
    loses at most the stage-0 gap bound, each within AUDIT_TOL for
    rounding. With ``per_stage`` the bracket is
    additionally checked at every stage along the oracle's optimal path.
    Raises ConditionViolated when the bounds are not valid on this instance,
    then BudgetExceeded, before any table is built, on oversized instances.

    The exhaustive search is ``plan_all("exact", ...)``'s, over every start
    in one tree, and every rollout is valued by one :func:`path_entropies`
    call, before the search. When noise_var is at least PRUNE_NOISE_RATIO
    times signal_var, the search is pruned by branch and bound (Land & Doig,
    1960) with the bracket's own upper side: a node is dropped when its
    summed gains plus the Markov value at its column and configuration fall
    below the larger of its start's rollout value and its best leaf so far
    by more than the tie window and a rounding margin. Such a subtree holds
    no leaf tied with the best, so each start's exact value, path and stage
    gains are bit for bit ``plan("exact", ...)``'s. On a refusal every start
    is valued and searched again one at a time, so the first failing start's
    refusal is raised; within one start, its rollout's refusal comes before
    its search's.
    """
    report = bound_report(h, grid.widths, grid.horizon, team_size=k)
    if not report.condition_ok:
        raise ConditionViolated(
            "bound tables are not finite for this instance; nothing to verify"
        )
    starts = _exact_configs(grid, k, budget)
    policy = plan_markov(grid, h, k)
    bound = None
    if h.noise_var >= PRUNE_NOISE_RATIO * h.signal_var:
        bound = np.vstack([policy.values, np.zeros(len(starts))])

    def search(some):
        floor = path_entropies([rollout(policy, x0) for x0 in some], h)
        found = _exact_results(grid, h, starts, some, bound, floor)
        return found, floor.tolist()

    results, rollout_values = _one_at_a_time(search, starts)
    audits = []
    eps0 = float(report.tail_bounds[0])
    for x0, res, v_roll in zip(starts, results, rollout_values):
        v_markov = policy.value(0, x0)
        v_exact = res.value
        bracket = v_markov - eps0 - AUDIT_TOL <= v_exact <= v_markov + AUDIT_TOL
        gap = v_exact - v_roll
        roll_ok = -AUDIT_TOL <= gap <= eps0 + AUDIT_TOL
        stage_ok = True
        if per_stage:
            cfgs = list(res.path.configs)
            for i in range(1, grid.horizon + 1):
                # Bellman: the optimal value to go after an optimal prefix
                # is the tail of the optimal path's gains
                v_star = sum(res.stage_gains[i:])
                v_m = policy.value(i, cfgs[i])
                eps_i = float(report.tail_bounds[i])
                if not v_m - eps_i - AUDIT_TOL <= v_star <= v_m + AUDIT_TOL:
                    stage_ok = False
        audits.append(
            StartAudit(
                start=x0,
                markov_value=v_markov,
                exact_value=v_exact,
                rollout_value=v_roll,
                value_bracket_ok=bracket,
                rollout_gap_ok=roll_ok,
                stage_bracket_ok=stage_ok,
            )
        )
    return dataclasses.replace(
        report,
        audits=tuple(audits),
        value_bracket_ok=all(a.value_bracket_ok and a.stage_bracket_ok for a in audits),
        rollout_gap_ok=all(a.rollout_gap_ok for a in audits),
    )
