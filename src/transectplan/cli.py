"""Command line front end.

Four subcommands: ``synth`` writes a synthetic field file, ``plan`` runs one
planner on a field, ``bounds`` prints the bound tables (with oracle verdicts
when the instance is small enough), and ``bench`` runs the benchmark
harness. Reports are flat key=value lines, numbers at 17 significant
digits. Exit codes: 0 success, 3 parse errors, unreadable inputs, a team
size or start that is not a configuration of the grid's rows and ``--out``
paths that cannot be written, 4 violated bound conditions,
5 search budget refusals, 6 factorization failures (no factor within the
jitter ladder, or a factor diagonal too small to take a log of), 1 any other
error the package raises deliberately; an unexpected exception also exits 1,
with its traceback.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import bench as bench_mod
from .bounds import bound_report, verify_performance_bounds
from .errors import (
    AnisotropyViolated,
    BudgetExceeded,
    ConditionViolated,
    FactorizationFailure,
    InvalidArity,
    ParseError,
    SingularCovariance,
    TransectPlanError,
)
from .fieldio import FieldBundle, fmt, read_field, sha256_of, write_field
from .gp import MAX_DENSE_CELLS, Hyperparams, sample_prior_field
from .planners import DEFAULT_BUDGET, POLICIES, plan, plan_markov
from .transect import RobotConfig, TransectGrid, enumerate_configs

EXIT_CODES = {
    ParseError: 3,
    InvalidArity: 3,
    ConditionViolated: 4,
    AnisotropyViolated: 4,
    BudgetExceeded: 5,
    FactorizationFailure: 6,
    SingularCovariance: 6,
}


def mapped_exits(fn):
    """Translate package errors into the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except TransectPlanError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(EXIT_CODES.get(type(e), 1))

    return wrapper


def _parse_start(text: str) -> RobotConfig:
    try:
        rows = tuple(int(tok) for tok in text.split(","))
        return RobotConfig(rows)
    except (ValueError, InvalidArity) as e:
        raise ParseError(f"bad start {text!r}: {e}") from e


def _checked(make, *args, **kwargs):
    """Build a grid or hyperparameters from outside values, refusing the
    ones they reject as malformed input."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ParseError(str(e)) from e


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as e:
        raise ParseError(f"bad {what} {text!r}: {e}") from e


def _resolve_instance(
    field: str | None,
    rows: int | None,
    cols: int | None,
    omega1: float | None,
    omega2: float | None,
    ell1: float | None,
    ell2: float | None,
    signal_var: float | None,
    noise_var: float | None,
) -> tuple[TransectGrid | None, Hyperparams | None]:
    """Apply the flag > sidecar > default precedence."""
    bundle = read_field(field) if field else FieldBundle(None, None, None, None)

    def pick(flag, sidecar, default=None):
        if flag is not None:
            return flag
        if sidecar is not None:
            return sidecar
        return default

    grid = bundle.grid
    if grid is not None:
        grid = _checked(
            replace,
            grid,
            omega1=pick(omega1, grid.omega1),
            omega2=pick(omega2, grid.omega2),
        )
    elif rows is not None and cols is not None:
        grid = _checked(
            TransectGrid, rows, cols, pick(omega1, None, 1.0), pick(omega2, None, 1.0)
        )

    base = bundle.h
    parts = {
        "ell1": pick(ell1, base.ell1 if base else None),
        "ell2": pick(ell2, base.ell2 if base else None),
        "signal_var": pick(signal_var, base.signal_var if base else None),
        "noise_var": pick(noise_var, base.noise_var if base else None),
    }
    h = None
    if all(v is not None for v in parts.values()):
        h = _checked(Hyperparams, **parts)
    return grid, h


def _require(value, message: str):
    if value is None:
        raise ParseError(message)
    return value


@contextlib.contextmanager
def _writing(out):
    """Refuse an output path that cannot be written as one error line."""
    try:
        yield
    except OSError as e:
        raise ParseError(f"cannot write {out}: {e}") from e


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with _writing(out):
            Path(out).write_text(text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


@click.group()
def main():
    """Plan maximum-entropy observation paths over transect grids."""


@main.command()
@click.option("--rows", type=int, required=True, help="Grid rows.")
@click.option("--cols", type=int, required=True, help="Grid columns.")
@click.option("--omega1", type=float, default=1.0, show_default=True)
@click.option("--omega2", type=float, default=1.0, show_default=True)
@click.option("--ell1", type=float, default=1.0, show_default=True)
@click.option("--ell2", type=float, default=1.0, show_default=True)
@click.option("--signal-var", type=float, default=1.0, show_default=True)
@click.option("--noise-var", type=float, default=0.01, show_default=True)
@click.option("--mean", type=float, default=10.0, show_default=True,
              help="Prior mean; keeps relative error away from a zero normalizer.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Field CSV path.")
@mapped_exits
def synth(rows, cols, omega1, omega2, ell1, ell2, signal_var, noise_var, mean, seed, out):
    """Draw a synthetic field and write it with its sidecar."""
    grid = _checked(TransectGrid, rows, cols, omega1, omega2)
    h = _checked(Hyperparams, ell1, ell2, signal_var, noise_var)
    if seed < 0:
        raise ParseError(f"seed must be non-negative, got {seed}")
    if not math.isfinite(mean):
        raise ParseError(f"mean must be finite, got {mean}")
    z = sample_prior_field(grid, h, seed, mean=mean)
    with _writing(out):
        write_field(out, replace(grid, measurements=z), h, mean, seed)
    click.echo(f"field={out}")
    click.echo(f"sidecar={Path(out).with_suffix('.meta')}")
    click.echo(f"sha256={sha256_of(out)}")


_shared_instance_options = [
    click.option("--field", type=click.Path(), default=None, help="Field CSV to load."),
    click.option("--omega1", type=float, default=None),
    click.option("--omega2", type=float, default=None),
    click.option("--ell1", type=float, default=None),
    click.option("--ell2", type=float, default=None),
    click.option("--signal-var", type=float, default=None),
    click.option("--noise-var", type=float, default=None),
]


def instance_options(fn):
    for opt in reversed(_shared_instance_options):
        fn = opt(fn)
    return fn


@main.command(name="plan")
@instance_options
@click.option("--policy", type=click.Choice(POLICIES), required=True)
@click.option("--robots", "-k", type=int, default=1, show_default=True)
@click.option("--start", type=str, default=None,
              help="Start rows, comma separated, e.g. 0,3. Optional for markov.")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Report file (default stdout).")
@mapped_exits
def plan_cmd(field, omega1, omega2, ell1, ell2, signal_var, noise_var,
             policy, robots, start, budget, out):
    """Plan an observation path on a field."""
    grid, h = _resolve_instance(
        field, None, None, omega1, omega2, ell1, ell2, signal_var, noise_var
    )
    grid = _require(grid, "plan needs --field")
    h = _require(h, "no sidecar hyperparameters; pass --ell1/--ell2/--signal-var/--noise-var")

    lines = [
        f"policy={policy}",
        f"k={robots}",
        f"rows={grid.n_rows}",
        f"cols={grid.n_cols}",
    ]
    x0 = _parse_start(start) if start else None

    if policy == "markov" and x0 is None:
        pol = plan_markov(grid, h, robots)
        lines.append(f"plan_seconds={fmt(pol.plan_seconds)}")
        lines.append(f"table_stages={grid.n_cols - 1}")
        for stage in range(grid.n_cols - 1):
            for j, cfg in enumerate(pol.configs):
                lines.append(
                    f"stage={stage} config={cfg} "
                    f"action={pol.configs[int(pol.actions[stage, j])]} "
                    f"value={fmt(float(pol.values[stage, j]))}"
                )
        _emit(lines, out)
        return

    x0 = _require(x0, f"policy {policy} needs --start")
    res = plan(policy, grid, h, robots, x0, budget=budget)
    lines.append(f"start={x0}")
    lines.append(f"value={fmt(res.value)}")
    lines.append(f"plan_seconds={fmt(res.plan_seconds)}")
    lines.append("path=" + "|".join(str(c) for c in res.path.configs))
    _emit(lines, out)


@main.command(name="bounds")
@instance_options
@click.option("--rows", type=int, default=None, help="Grid rows when no --field.")
@click.option("--cols", type=int, default=None, help="Grid columns when no --field.")
@click.option("--robots", "-k", type=int, default=1, show_default=True)
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
@click.option("--verify/--no-verify", default=None,
              help="Force or suppress the exhaustive audit (default: auto).")
@click.option("--out", type=click.Path(), default=None)
@mapped_exits
def bounds_cmd(field, omega1, omega2, ell1, ell2, signal_var, noise_var,
               rows, cols, robots, budget, verify, out):
    """Print bound tables, auditing them on oracle-sized instances."""
    grid, h = _resolve_instance(
        field, rows, cols, omega1, omega2, ell1, ell2, signal_var, noise_var
    )
    h = _require(h, "bounds need hyperparameters (sidecar or flags)")
    if grid is None:
        raise ParseError("bounds need --field or --rows/--cols")
    # refuses a team size outside [1, rows] the way plan and bench do
    n_configs = len(enumerate_configs(grid, robots))
    report = bound_report(h, grid.widths, grid.horizon, team_size=robots)

    leaves = n_configs ** (grid.n_cols - 1)
    can_audit = (
        report.condition_ok
        and leaves <= budget
        and grid.n_rows * grid.n_cols <= MAX_DENSE_CELLS
    )
    if verify is None:
        verify = can_audit
    if verify:
        report = verify_performance_bounds(grid, h, k=robots, budget=budget)

    p = report.params
    lines = [
        f"step_corr={fmt(p.step_corr)}",
        f"variance_ratio={fmt(p.variance_ratio)}",
        f"norm_ell1={fmt(p.norm_ell1)}",
        f"norm_ell2={fmt(p.norm_ell2)}",
        f"horizon={report.horizon}",
        f"team={report.team_size}",
        f"condition_ok={str(report.condition_ok).lower()}",
    ]
    if not report.condition_ok:
        lines.append("note=sufficient condition unmet")
    for s, v in enumerate(report.stage_bounds):
        lines.append(f"stage_bound[{s}]={fmt(float(v))}")
    for i, v in enumerate(report.tail_bounds):
        lines.append(f"tail_bound[{i}]={fmt(float(v))}")
    for i, v in enumerate(report.loose_tail_bounds):
        lines.append(f"loose_tail_bound[{i}]={fmt(float(v))}")

    def verdict(flag):
        if flag is None:
            return "skipped"
        return "pass" if flag else "fail"

    lines.append(f"value_bracket={verdict(report.value_bracket_ok)}")
    lines.append(f"rollout_gap={verdict(report.rollout_gap_ok)}")
    for a in report.audits:
        lines.append(
            f"start={a.start} markov={fmt(a.markov_value)} exact={fmt(a.exact_value)} "
            f"rollout={fmt(a.rollout_value)}"
        )
    _emit(lines, out)


@main.command(name="bench")
@click.option("--rows", type=int, required=True)
@click.option("--cols", type=int, required=True)
@click.option("--omega1", type=float, default=1.0, show_default=True)
@click.option("--omega2", type=float, default=1.0, show_default=True)
@click.option("--ell1", type=float, required=True)
@click.option("--ell2", type=float, required=True)
@click.option("--signal-var", type=float, required=True)
@click.option("--noise-var", type=float, required=True)
@click.option("--mean", type=float, default=10.0, show_default=True)
@click.option("--robots", "-k", type=str, default="1", show_default=True,
              help="Team sizes, comma separated.")
@click.option("--policies", type=str, default=",".join(bench_mod.DEFAULT_POLICIES),
              show_default=True)
@click.option("--seeds", type=str, default="0", show_default=True)
@click.option("--mode", type=click.Choice(list(bench_mod.START_MODES)), default="all",
              show_default=True)
@click.option("--start", "starts", type=str, multiple=True,
              help="Explicit starts (repeatable), e.g. --start 0,3.")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Results CSV path.")
@mapped_exits
def bench_cmd(rows, cols, omega1, omega2, ell1, ell2, signal_var, noise_var, mean,
              robots, policies, seeds, mode, starts, budget, out):
    """Benchmark planners across seeds and starts, writing one CSV."""
    spec = bench_mod.ExperimentSpec(
        n_rows=rows,
        n_cols=cols,
        omega1=omega1,
        omega2=omega2,
        h=_checked(Hyperparams, ell1, ell2, signal_var, noise_var),
        team_sizes=_parse_int_list(robots, "team sizes"),
        policies=tuple(policies.split(",")),
        seeds=_parse_int_list(seeds, "seeds"),
        start_mode=mode,
        starts=tuple(_parse_start(s) for s in starts),
        mean=mean,
        budget=budget,
    )
    table = bench_mod.run_benchmark(spec)
    with _writing(out):
        bench_mod.write_csv(table, out)
    click.echo(f"rows={len(table)}")
    click.echo(f"out={out}")
    click.echo(f"sha256={sha256_of(out)}")


if __name__ == "__main__":
    main()
