"""Benchmark harness: planners x team sizes x seeds on synthetic fields.

Each seed draws one exact field realization, every requested planner runs
from every requested start, and both map metrics land in one flat table
together with their gaps against the Markov planner. Each planner plans all
of a (field, team size)'s starts in one :func:`~transectplan.planners.plan_all`
call: one Markov table, one greedy sweep or one exhaustive tree. A row's
``plan_seconds`` is that planning time amortized over the starts it serves,
and its ``plan_total_seconds`` the whole of it. The Markov stage table is
kept per row count, spacing, fit and team size, so after the first seed a
markov row's time is the DP sweep's alone. A refusal is the one that
planning and evaluating the starts one at a time meets first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ParseError
from .gp import Hyperparams, sample_prior_field
from .fieldio import fmt
from .metrics import EvalRecord, evaluate, metric_diff
from .planners import DEFAULT_BUDGET, POLICIES, _one_at_a_time, plan_all
from .transect import RobotConfig, TransectGrid, enumerate_configs

# the exhaustive search is exponentially priced, so it runs only on request
DEFAULT_POLICIES = tuple(p for p in POLICIES if p != "exact")
START_MODES = ("all", "adversarial-worst", "explicit")

CSV_COLUMNS = (
    "policy",
    "k",
    "rows",
    "cols",
    "seed",
    "start",
    "ent",
    "err",
    "entd",
    "errd",
    "plan_seconds",
    "plan_total_seconds",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a benchmark run needs, in one hashable record."""

    n_rows: int
    n_cols: int
    omega1: float
    omega2: float
    h: Hyperparams
    team_sizes: tuple[int, ...] = (1,)
    policies: tuple[str, ...] = DEFAULT_POLICIES
    seeds: tuple[int, ...] = (0,)
    start_mode: str = "all"
    starts: tuple[RobotConfig, ...] = ()
    mean: float = 10.0
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if not self.policies:
            raise ParseError("at least one policy required")
        unknown = [p for p in self.policies if p not in POLICIES]
        if unknown:
            raise ParseError(f"unknown policies {unknown}; choose from {POLICIES}")
        if self.start_mode not in START_MODES:
            raise ParseError(
                f"unknown start mode {self.start_mode!r}; choose from {START_MODES}"
            )
        if self.start_mode == "explicit" and not self.starts:
            raise ParseError("explicit start mode needs at least one start")
        if not self.team_sizes:
            raise ParseError("at least one team size required")
        if not self.seeds:
            raise ParseError("at least one seed required")
        if min(self.seeds) < 0:
            raise ParseError(f"seeds must be non-negative, got {self.seeds}")
        if not math.isfinite(self.mean):
            raise ParseError(f"mean must be finite, got {self.mean}")


def _records_for(
    policy: str,
    grid: TransectGrid,
    h: Hyperparams,
    k: int,
    starts: list[RobotConfig],
    mean: float,
    budget: int,
) -> dict[RobotConfig, tuple[EvalRecord, float]]:
    """Evaluation record and total planning time per start."""

    def records(some):
        return [
            (
                evaluate(res.path, h, policy, plan_seconds=res.plan_seconds, mean=mean),
                res.plan_seconds * len(some),
            )
            for res in plan_all(policy, grid, h, k, some, budget=budget)
        ]

    return dict(zip(starts, _one_at_a_time(records, starts)))


def _row(
    rec: EvalRecord,
    base: EvalRecord,
    spec: ExperimentSpec,
    k: int,
    seed: int,
    start_label: str,
    total_seconds: float,
) -> dict:
    entd, errd = metric_diff(base, rec)
    return {
        "policy": rec.policy_kind,
        "k": k,
        "rows": spec.n_rows,
        "cols": spec.n_cols,
        "seed": seed,
        "start": start_label,
        "ent": rec.ent,
        "err": rec.err,
        "entd": entd,
        "errd": errd,
        "plan_seconds": rec.plan_seconds,
        "plan_total_seconds": total_seconds,
    }


def _mean_row(rows: list[dict]) -> dict:
    out = dict(rows[0])
    out["start"] = "mean"
    for key in ("ent", "err", "entd", "errd", "plan_seconds", "plan_total_seconds"):
        vals = [r[key] for r in rows]
        out[key] = None if any(v is None for v in vals) else sum(vals) / len(vals)
    return out


def run_benchmark(spec: ExperimentSpec) -> list[dict]:
    """Run the whole grid of (seed, team size, policy, start) and return
    flat rows ready for CSV serialization. Deterministic row order. A grid
    shape or cell width that TransectGrid rejects raises ParseError."""
    try:
        base_grid = TransectGrid(spec.n_rows, spec.n_cols, spec.omega1, spec.omega2)
    except ValueError as e:
        raise ParseError(f"bad benchmark grid: {e}") from e
    rows: list[dict] = []
    for seed in spec.seeds:
        z = sample_prior_field(base_grid, spec.h, seed, mean=spec.mean)
        grid = replace(base_grid, measurements=z)
        for k in spec.team_sizes:
            if spec.start_mode == "explicit":
                starts = list(spec.starts)
                for s in starts:
                    if s.k != k:
                        raise ParseError(f"start {s} does not match team size {k}")
            else:
                starts = enumerate_configs(grid, k)
            # Markov records anchor the gap columns even when not requested
            markov = _records_for(
                "markov", grid, spec.h, k, starts, spec.mean, spec.budget
            )
            for policy in spec.policies:
                recs = (
                    markov
                    if policy == "markov"
                    else _records_for(
                        policy, grid, spec.h, k, starts, spec.mean, spec.budget
                    )
                )
                per_start = [
                    _row(recs[x0][0], markov[x0][0], spec, k, seed, str(x0), recs[x0][1])
                    for x0 in starts
                ]
                if spec.start_mode == "adversarial-worst":
                    worst = max(per_start, key=lambda r: r["ent"])
                    worst = dict(worst, start=f"worst:{worst['start']}")
                    rows.extend([worst, _mean_row(per_start)])
                else:
                    rows.extend(per_start)
                    rows.append(_mean_row(per_start))
    return rows


def write_csv(rows: list[dict], path) -> None:
    """Fixed-header CSV with the package-wide float formatting."""

    def render(v) -> str:
        if v is None:
            return ""
        if isinstance(v, float):
            return fmt(v)
        return str(v)

    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(render(r[c]) for c in CSV_COLUMNS))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
