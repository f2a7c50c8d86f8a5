import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from transectplan import (
    POLICIES,
    BudgetExceeded,
    Hyperparams,
    ParseError,
    RobotConfig,
    TransectGrid,
    enumerate_configs,
    plan,
    read_field,
    sample_prior_field,
    sha256_of,
    sidecar_path,
    unobserved_entropy,
    write_field,
)
from transectplan.bench import (
    CSV_COLUMNS,
    ExperimentSpec,
    run_benchmark,
    write_csv,
)
from transectplan import bench, planners
from transectplan.cli import main, mapped_exits
from transectplan.errors import FactorizationFailure, SingularCovariance
from transectplan.fieldio import fmt

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"

H = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.1)


def mask_times(text: str) -> str:
    return re.sub(r"plan_seconds=\S+", "plan_seconds=<time>", text)


def make_field(tmp_path, r=3, c=6, seed=0, omega=5.0, mean=10.0):
    g0 = TransectGrid(r, c, omega, omega)
    z = sample_prior_field(g0, H, seed=seed, mean=mean)
    grid = TransectGrid(r, c, omega, omega, measurements=z)
    path = tmp_path / "field.csv"
    write_field(path, grid, H, mean, seed)
    return path, grid


# ----------------------------------------------------------------- field io


def test_fmt_round_trips_float64():
    for x in (0.1, 1.0 / 3.0, 1e-300, 12345.678901234567, -2.5e17):
        assert float(fmt(x)) == x


def test_field_round_trip_bit_exact(tmp_path):
    path, grid = make_field(tmp_path)
    bundle = read_field(path)
    np.testing.assert_array_equal(bundle.grid.measurements, grid.measurements)
    assert bundle.grid.n_rows == 3 and bundle.grid.n_cols == 6
    assert bundle.grid.omega1 == 5.0 and bundle.grid.omega2 == 5.0
    assert bundle.h == H
    assert bundle.mean == 10.0
    assert bundle.seed == 0


def test_write_field_prints_each_value_as_fmt(tmp_path):
    # negative, subnormal, huge, integral and signed-zero values
    z = np.array(
        [[-1.5, 5e-324, 1e300, 3.0], [-0.0, 1e-310, -1e300, 1.0 / 3.0], [7.0, -2.0, 0.0, -4e-320]]
    )
    path = tmp_path / "field.csv"
    write_field(path, TransectGrid(3, 4, 5.0, 5.0, measurements=z), H, 10.0, 0)
    assert path.read_text() == "".join(",".join(fmt(v) for v in row) + "\n" for row in z)
    assert read_field(path).grid.measurements.tobytes() == z.tobytes()


def test_sidecar_path_swaps_suffix():
    assert sidecar_path("a/b/field.csv") == Path("a/b/field.meta")


def test_read_field_without_sidecar_defaults(tmp_path):
    path, grid = make_field(tmp_path)
    sidecar_path(path).unlink()
    bundle = read_field(path)
    np.testing.assert_array_equal(bundle.grid.measurements, grid.measurements)
    assert bundle.grid.omega1 == 1.0 and bundle.grid.omega2 == 1.0
    assert bundle.h is None and bundle.mean is None and bundle.seed is None


def test_read_field_missing_file_raises(tmp_path):
    with pytest.raises(ParseError):
        read_field(tmp_path / "nope.csv")


def test_read_field_empty_raises(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("\n\n")
    with pytest.raises(ParseError):
        read_field(p)


def test_read_field_bad_number_raises(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ParseError) as e:
        read_field(p)
    assert "bad.csv:2" in str(e.value)


def test_read_field_ragged_rows_raise(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError):
        read_field(p)


def test_read_field_sidecar_shape_mismatch(tmp_path):
    path, _ = make_field(tmp_path)
    meta = sidecar_path(path)
    meta.write_text(meta.read_text().replace("cols=6", "cols=7"))
    with pytest.raises(ParseError, match="does not match"):
        read_field(path)


def test_read_field_sidecar_bad_line(tmp_path):
    path, _ = make_field(tmp_path)
    meta = sidecar_path(path)
    meta.write_text(meta.read_text() + "not a key value line\n")
    with pytest.raises(ParseError):
        read_field(path)


def test_read_field_sidecar_missing_key(tmp_path):
    path, _ = make_field(tmp_path)
    meta = sidecar_path(path)
    kept = [l for l in meta.read_text().splitlines() if not l.startswith("seed=")]
    meta.write_text("\n".join(kept) + "\n")
    with pytest.raises(ParseError):
        read_field(path)


def test_read_field_non_finite_measurement_raises(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("1.0,2.0,3.0\n4.0,nan,6.0\n")
    with pytest.raises(ParseError, match="finite"):
        read_field(p)


@pytest.mark.parametrize(
    "key, bad", [("mean", "inf"), ("omega1", "inf"), ("noise_var", "nan"),
                 ("ell2", "inf")]
)
def test_read_field_non_finite_sidecar_number_raises(tmp_path, key, bad):
    path, _ = make_field(tmp_path)
    meta = sidecar_path(path)
    lines = [
        f"{key}={bad}" if l.startswith(f"{key}=") else l
        for l in meta.read_text().splitlines()
    ]
    meta.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="finite"):
        read_field(path)


def test_read_field_overflowing_sidecar_variance_raises(tmp_path):
    path, _ = make_field(tmp_path)
    meta = sidecar_path(path)
    lines = [
        l.split("=")[0] + "=1e308" if l.startswith(("signal_var=", "noise_var=")) else l
        for l in meta.read_text().splitlines()
    ]
    meta.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="finite"):
        read_field(path)


def test_sidecar_comments_and_blanks_tolerated(tmp_path):
    path, _ = make_field(tmp_path)
    meta = sidecar_path(path)
    meta.write_text("# provenance comment\n\n" + meta.read_text())
    bundle = read_field(path)
    assert bundle.seed == 0


def test_write_field_requires_measurements(tmp_path):
    g = TransectGrid(3, 6, 5.0, 5.0)
    with pytest.raises(ValueError):
        write_field(tmp_path / "f.csv", g, H, 10.0, 0)


def test_sha256_tracks_content(tmp_path):
    pa, _ = make_field(tmp_path, seed=0)
    h1 = sha256_of(pa)
    assert h1 == sha256_of(pa)
    pb = tmp_path / "other.csv"
    pb.write_text(pa.read_text() + "\n")
    assert sha256_of(pb) != h1


# ------------------------------------------------------------------- bench


def spec_of(**kw):
    base = dict(
        n_rows=3,
        n_cols=4,
        omega1=5.0,
        omega2=5.0,
        h=H,
        policies=("markov", "greedy-ent"),
        seeds=(0,),
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ParseError):
        spec_of(policies=("markov", "mystery"))
    with pytest.raises(ParseError):
        spec_of(start_mode="sometimes")
    with pytest.raises(ParseError):
        spec_of(start_mode="explicit", starts=())
    with pytest.raises(ParseError):
        spec_of(seeds=())
    with pytest.raises(ParseError, match="non-negative"):
        spec_of(seeds=(0, -1))
    with pytest.raises(ParseError, match="n_cols >= 2"):
        run_benchmark(spec_of(n_cols=1))
    with pytest.raises(ParseError, match="cell widths"):
        run_benchmark(spec_of(omega1=0.0))
    for mean in (float("nan"), float("inf")):
        with pytest.raises(ParseError, match="finite"):
            spec_of(mean=mean)


def test_spec_refuses_a_budget_below_one():
    for budget in (0, -1):
        with pytest.raises(ParseError, match="budget must be at least 1"):
            spec_of(budget=budget)
    # the library planners refuse such a budget as a search they cannot run
    with pytest.raises(BudgetExceeded):
        plan("exact", TransectGrid(3, 6, 5.0, 5.0), H, 1, RobotConfig((1,)), budget=0)


def test_spec_refuses_a_length_scale_past_float64_in_cells():
    # 1e100 m is 1e400 cells of 1e-300 m, refused before any draw
    with pytest.raises(ParseError, match="overflow float64 as counts of cells"):
        spec_of(omega1=1e-300, h=Hyperparams(1e100, 4.0, 1.0, 0.1))


def test_spec_refuses_starts_without_explicit_mode():
    for mode in ("all", "adversarial-worst"):
        with pytest.raises(ParseError, match="explicit start mode only"):
            spec_of(start_mode=mode, starts=(RobotConfig((1,)),))


def test_spec_refuses_empty_team_sizes():
    # an empty grid of runs would return an empty table without a word
    with pytest.raises(ParseError, match="at least one team size"):
        spec_of(team_sizes=())


def test_spec_refuses_empty_policies():
    # it would also plan and evaluate the Markov rows before dropping them
    with pytest.raises(ParseError, match="at least one policy"):
        spec_of(policies=())


def test_benchmark_row_counts_all_mode():
    rows = run_benchmark(spec_of(seeds=(0, 1)))
    # 2 seeds x 2 policies x (3 starts + 1 mean row)
    assert len(rows) == 16
    labels = {r["start"] for r in rows}
    assert labels == {"0", "1", "2", "mean"}


def test_benchmark_markov_rows_have_zero_gaps():
    rows = run_benchmark(spec_of())
    for r in rows:
        assert set(r.keys()) == set(CSV_COLUMNS)
        if r["policy"] == "markov":
            assert r["entd"] == 0.0
            assert r["errd"] == 0.0


def test_benchmark_adversarial_mode_labels_worst():
    rows = run_benchmark(spec_of(start_mode="adversarial-worst"))
    assert len(rows) == 4  # (worst + mean) x 2 policies
    worst = [r for r in rows if r["start"].startswith("worst:")]
    assert len(worst) == 2
    for r in worst:
        assert r["start"] in {"worst:0", "worst:1", "worst:2"}


def test_benchmark_explicit_mode_checks_arity():
    with pytest.raises(ParseError):
        run_benchmark(
            spec_of(start_mode="explicit", starts=(RobotConfig((0, 1)),))
        )
    rows = run_benchmark(
        spec_of(start_mode="explicit", starts=(RobotConfig((1,)),))
    )
    assert len(rows) == 4  # (1 start + mean) x 2 policies


def test_benchmark_exact_policy_under_budget():
    rows = run_benchmark(spec_of(policies=("exact",)))
    ent_by_start = {
        r["start"]: r["ent"] for r in rows if r["policy"] == "exact"
    }
    assert set(ent_by_start) == {"0", "1", "2", "mean"}


def test_benchmark_deterministic():
    a = run_benchmark(spec_of())
    b = run_benchmark(spec_of())
    for ra, rb in zip(a, b):
        assert ra["ent"] == rb["ent"]
        assert ra["err"] == rb["err"]


def test_benchmark_greedy_rows_share_one_sweep():
    rows = run_benchmark(spec_of(policies=("markov", "greedy-ent", "greedy-mi")))
    for policy in ("greedy-ent", "greedy-mi"):
        per_start = [r for r in rows if r["policy"] == policy and r["start"] != "mean"]
        assert len(per_start) == 3
        total = per_start[0]["plan_total_seconds"]
        for r in per_start:
            # one sweep's wall time, amortized over its starts
            assert r["plan_total_seconds"] == total
            assert r["plan_seconds"] * 3 == pytest.approx(total, rel=1e-12)


def test_benchmark_markov_rows_share_one_table():
    rows = run_benchmark(spec_of(policies=("markov",)))
    per_start = [r for r in rows if r["policy"] == "markov" and r["start"] != "mean"]
    assert len(per_start) == 3
    total = per_start[0]["plan_total_seconds"]
    for r in per_start:
        # one table's wall time, amortized over its starts
        assert r["plan_total_seconds"] == total
        assert r["plan_seconds"] * 3 == pytest.approx(total, rel=1e-12)


def test_benchmark_refusal_is_the_first_failing_starts():
    # noise-free plankton fit: greedy-ent refuses from every start, and a
    # sweep of (0,1) and (2,4) meets (2,4)'s refusal first, while plan_all
    # raises (0,1)'s
    h = Hyperparams(ell1=27.53, ell2=134.64, signal_var=2.152, noise_var=0.0)
    g = TransectGrid(5, 40, 5.0, 5.0)
    starts = (RobotConfig((0, 1)), RobotConfig((2, 4)))
    alone = []
    for x0 in starts:
        with pytest.raises(FactorizationFailure) as refused:
            planners.plan("greedy-ent", g, h, 2, x0)
        alone.append(str(refused.value))
    with pytest.raises(FactorizationFailure) as refused:
        planners._greedy_sweep("greedy-ent", g, h, enumerate_configs(g, 2), starts)
    assert str(refused.value) == alone[1] != alone[0]
    with pytest.raises(FactorizationFailure) as refused:
        planners.plan_all("greedy-ent", g, h, 2, starts)
    assert str(refused.value) == alone[0]
    for order in (starts, starts[::-1]):
        spec = spec_of(n_rows=5, n_cols=40, h=h, team_sizes=(2,), start_mode="explicit", starts=order)
        with pytest.raises(FactorizationFailure) as refused:
            run_benchmark(spec)
        assert str(refused.value) == alone[starts.index(order[0])]


def test_benchmark_raises_the_first_failing_starts_error_type(monkeypatch):
    # start a is planned and then refused by its metrics, start b is refused
    # while planning; one start at a time, whichever comes first decides
    a, b = RobotConfig((0,)), RobotConfig((2,))
    real_path_entropies, real_evaluate = planners.path_entropies, bench.evaluate

    def path_entropies(paths, h):
        if any(path.start == b for path in paths):
            raise SingularCovariance("planning from b")
        return real_path_entropies(paths, h)

    def evaluate(path, h, policy, **kw):
        if policy == "greedy-ent" and path.start == a:
            raise FactorizationFailure("evaluating a")
        return real_evaluate(path, h, policy, **kw)

    monkeypatch.setattr(planners, "path_entropies", path_entropies)
    monkeypatch.setattr(bench, "evaluate", evaluate)
    with pytest.raises(FactorizationFailure, match="evaluating a"):
        run_benchmark(spec_of(start_mode="explicit", starts=(a, b)))
    with pytest.raises(SingularCovariance, match="planning from b"):
        run_benchmark(spec_of(start_mode="explicit", starts=(b, a)))


@pytest.mark.parametrize("order", ["deeper first", "searched first"])
def test_benchmark_exact_raises_the_first_failing_starts_error(monkeypatch, order):
    # start a is searched and then refused by its metrics, start b is refused
    # while searching; one start at a time, whichever comes first decides
    a, b = RobotConfig((0,)), RobotConfig((2,))
    real_level, real_evaluate = planners._level_entropies, bench.evaluate

    def level_entropies(gram, idx, first, moves):
        if np.any(np.all(first == b.rows, axis=1)):
            raise SingularCovariance("searching from b")
        return real_level(gram, idx, first, moves)

    def evaluate(path, h, policy, **kw):
        if policy == "exact" and path.start == a:
            raise FactorizationFailure("evaluating a")
        return real_evaluate(path, h, policy, **kw)

    monkeypatch.setattr(planners, "_level_entropies", level_entropies)
    monkeypatch.setattr(bench, "evaluate", evaluate)
    starts, first_error = (a, b), FactorizationFailure
    if order == "searched first":
        starts, first_error = (b, a), SingularCovariance
    with pytest.raises(first_error):
        run_benchmark(spec_of(policies=("exact",), start_mode="explicit", starts=starts))


def test_benchmark_exact_rows_share_one_search():
    rows = run_benchmark(spec_of(policies=("exact",)))
    per_start = [r for r in rows if r["policy"] == "exact" and r["start"] != "mean"]
    assert len(per_start) == 3
    total = per_start[0]["plan_total_seconds"]
    grid = TransectGrid(3, 4, 5.0, 5.0)
    for r, x0 in zip(per_start, enumerate_configs(grid, 1)):
        # one search's wall time, amortized over its starts
        assert r["plan_total_seconds"] == total
        assert r["plan_seconds"] * 3 == pytest.approx(total, rel=1e-12)
        # the entropy metric of the one-start search's path, bit for bit
        assert r["start"] == str(x0)
        assert r["ent"] == unobserved_entropy(planners.plan("exact", grid, H, 1, x0).path, H)


def test_write_csv_renders_none_as_empty(tmp_path):
    row = {c: None for c in CSV_COLUMNS}
    row.update(policy="markov", k=1, rows=3, cols=4, seed=0, start="0", ent=1.5)
    out = tmp_path / "t.csv"
    write_csv([row], out)
    header, line = out.read_text().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    assert line == "markov,1,3,4,0,0,1.5,,,,,"


# --------------------------------------------------------------------- CLI


SYNTH_ARGS = [
    "synth", "--rows", "3", "--cols", "6", "--omega1", "5", "--omega2", "5",
    "--ell1", "5", "--ell2", "4", "--signal-var", "1.0", "--noise-var", "0.1",
    "--seed", "0", "--out",
]


def run_cli(args):
    return CliRunner().invoke(main, [str(a) for a in args])


def synth_field(tmp_path):
    out = tmp_path / "f.csv"
    res = run_cli(SYNTH_ARGS + [out])
    assert res.exit_code == 0, res.output
    return out


def test_cli_synth_writes_field_and_sidecar(tmp_path):
    out = tmp_path / "f.csv"
    res = run_cli(SYNTH_ARGS + [out])
    assert res.exit_code == 0
    assert f"field={out}" in res.output
    assert f"sidecar={tmp_path / 'f.meta'}" in res.output
    assert "sha256=" in res.output
    bundle = read_field(out)
    assert bundle.grid.measurements.shape == (3, 6)
    assert bundle.h == H


def test_cli_synth_deterministic_per_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = synth_field(tmp_path / "a")
    b = synth_field(tmp_path / "b")
    assert sha256_of(a) == sha256_of(b)
    c = tmp_path / "c.csv"
    res = run_cli(SYNTH_ARGS[:-1] + ["--seed", "1", "--out", c])
    assert res.exit_code == 0
    assert sha256_of(c) != sha256_of(a)


def test_cli_synth_survey_scale_grids(tmp_path):
    for r, c, omega in ((5, 30, 5.0), (8, 45, 39.2)):
        out = tmp_path / f"g{r}.csv"
        res = run_cli([
            "synth", "--rows", r, "--cols", c, "--omega1", omega,
            "--omega2", omega, "--out", out,
        ])
        assert res.exit_code == 0
        assert read_field(out).grid.measurements.shape == (r, c)


@pytest.mark.parametrize(
    "grid_args",
    [
        ["--rows", "60", "--cols", "100"],
        # 1e9 m along-track at 5 m cells: the circulant embedding is refused
        ["--rows", "5", "--cols", "40", "--omega1", "5", "--ell1", "1e9"],
    ],
    ids=["cell-cap", "embedding-cap"],
)
def test_cli_synth_refuses_a_grid_too_large_with_exit_1(tmp_path, grid_args):
    out = tmp_path / "f.csv"
    res = run_cli(["synth", *grid_args, "--out", out])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert not out.exists()


def test_cli_plan_path_report_schema(tmp_path):
    field = synth_field(tmp_path)
    res = run_cli(["plan", "--field", field, "--policy", "exact", "--start", "1"])
    assert res.exit_code == 0
    keys = [line.split("=")[0] for line in res.output.splitlines()]
    assert keys == [
        "policy", "k", "rows", "cols", "start", "value", "plan_seconds", "path",
    ]
    path_line = res.output.splitlines()[-1]
    assert re.fullmatch(r"path=\d(\|\d)*", path_line.replace("path=", "path=", 1))
    assert len(path_line.split("=")[1].split("|")) == 6


def test_cli_plan_markov_table_dump(tmp_path):
    field = synth_field(tmp_path)
    res = run_cli(["plan", "--field", field, "--policy", "markov"])
    assert res.exit_code == 0
    stage_lines = [l for l in res.output.splitlines() if l.startswith("stage=")]
    # 5 decision stages x 3 single-robot configurations
    assert len(stage_lines) == 15
    assert "table_stages=5" in res.output
    assert re.search(r"stage=0 config=0 action=\d value=\S+", res.output)


def test_cli_plan_policies_agree_on_schema(tmp_path):
    field = synth_field(tmp_path)
    values = {}
    for policy in ("markov", "exact", "greedy-ent", "greedy-mi"):
        res = run_cli(
            ["plan", "--field", field, "--policy", policy, "--start", "0"]
        )
        assert res.exit_code == 0, res.output
        values[policy] = float(
            next(l for l in res.output.splitlines() if l.startswith("value="))
            .split("=")[1]
        )
    # markov reports the stagewise table value, an upper bound on the rest
    assert values["exact"] <= values["markov"] + 1e-9
    assert values["greedy-ent"] <= values["exact"] + 1e-9
    assert values["greedy-mi"] <= values["exact"] + 1e-9


def test_cli_plan_markov_start_on_full_coverage_team(tmp_path):
    # three robots on three rows leave no cell unobserved; planning needs no
    # map metric, so the markov rollout must still be reported
    out = tmp_path / "full.csv"
    assert run_cli(["synth", "--rows", 3, "--cols", 8, "--out", out]).exit_code == 0
    res = run_cli(["plan", "--field", out, "--policy", "markov", "-k", 3,
                   "--start", "0,1,2"])
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[-1] == "path=" + "|".join(["0,1,2"] * 8)


def test_cli_plan_flag_overrides_sidecar(tmp_path):
    field = synth_field(tmp_path)
    base = run_cli(["plan", "--field", field, "--policy", "exact", "--start", "0"])
    tweaked = run_cli([
        "plan", "--field", field, "--policy", "exact", "--start", "0",
        "--noise-var", "5.0",
    ])
    val = lambda r: next(
        l for l in r.output.splitlines() if l.startswith("value=")
    )
    assert val(base) != val(tweaked)


def test_cli_plan_without_sidecar_needs_flags(tmp_path):
    field = synth_field(tmp_path)
    sidecar_path(field).unlink()
    res = run_cli(["plan", "--field", field, "--policy", "exact", "--start", "0"])
    assert res.exit_code == 3
    res = run_cli([
        "plan", "--field", field, "--policy", "exact", "--start", "0",
        "--ell1", "5", "--ell2", "4", "--signal-var", "1", "--noise-var", "0.1",
    ])
    assert res.exit_code == 0


def test_cli_plan_writes_report_file(tmp_path):
    field = synth_field(tmp_path)
    out = tmp_path / "report.txt"
    res = run_cli([
        "plan", "--field", field, "--policy", "greedy-ent", "--start", "2",
        "--out", out,
    ])
    assert res.exit_code == 0
    assert f"wrote {out}" in res.output
    assert out.read_text().startswith("policy=greedy-ent\n")


def test_cli_exit_code_parse_errors(tmp_path):
    res = run_cli(["plan", "--policy", "exact", "--start", "0"])
    assert res.exit_code == 3
    field = synth_field(tmp_path)
    res = run_cli(["plan", "--field", field, "--policy", "exact"])
    assert res.exit_code == 3
    res = run_cli(["plan", "--field", field, "--policy", "exact", "--start", "x"])
    assert res.exit_code == 3
    # undecodable or unreadable field and sidecar files are parse errors too
    bad_field = tmp_path / "bad.csv"
    bad_field.write_bytes(b"\xff\xfe1,2\n")
    dir_meta = tmp_path / "d.csv"
    dir_meta.write_bytes(field.read_bytes())
    dir_meta.with_suffix(".meta").mkdir()
    field.with_suffix(".meta").write_bytes(b"rows=3\n\xff\n")
    for path in (bad_field, field, dir_meta):
        res = run_cli(["plan", "--field", path, "--policy", "exact", "--start", "0"])
        assert res.exit_code == 3, res.output
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


BAD_VALUES = {
    "one-column-field": ["plan", "--field", "{one_col}", "--policy", "exact",
                         "--start", "0", "--ell1", "1", "--ell2", "1",
                         "--signal-var", "1", "--noise-var", "0.1"],
    "synth-one-column": ["synth", "--rows", "2", "--cols", "1", "--out", "{out}"],
    "bench-zero-signal": ["bench", "--rows", "2", "--cols", "4", "--ell1", "1",
                          "--ell2", "1", "--signal-var", "0", "--noise-var", "0.1",
                          "--out", "{out}"],
    "bounds-negative-noise": ["bounds", "--rows", "2", "--cols", "4", "--ell1", "1",
                              "--ell2", "1", "--signal-var", "1",
                              "--noise-var", "-0.1"],
    "plan-zero-omega1": ["plan", "--field", "{field}", "--policy", "exact",
                         "--start", "0", "--omega1", "0"],
    "bench-one-column": ["bench", "--rows", "2", "--cols", "1", "--ell1", "1",
                         "--ell2", "1", "--signal-var", "1", "--noise-var", "0.1",
                         "--out", "{out}"],
    "bench-zero-omega1": ["bench", "--rows", "2", "--cols", "4", "--omega1", "0",
                          "--ell1", "1", "--ell2", "1", "--signal-var", "1",
                          "--noise-var", "0.1", "--out", "{out}"],
    "synth-negative-seed": ["synth", "--rows", "2", "--cols", "4", "--seed", "-1",
                            "--out", "{out}"],
    "bench-negative-seed": ["bench", "--rows", "2", "--cols", "4", "--ell1", "1",
                            "--ell2", "1", "--signal-var", "1", "--noise-var", "0.1",
                            "--seeds", "-1", "--out", "{out}"],
    "synth-nan-noise": ["synth", "--rows", "2", "--cols", "4", "--noise-var", "nan",
                        "--out", "{out}"],
    "synth-inf-signal": ["synth", "--rows", "2", "--cols", "4", "--signal-var", "inf",
                         "--out", "{out}"],
    "synth-inf-mean": ["synth", "--rows", "2", "--cols", "4", "--mean", "inf",
                       "--out", "{out}"],
    "synth-inf-omega1": ["synth", "--rows", "2", "--cols", "4", "--omega1", "inf",
                         "--out", "{out}"],
    "bench-nan-mean": ["bench", "--rows", "2", "--cols", "4", "--ell1", "1",
                       "--ell2", "1", "--signal-var", "1", "--noise-var", "0.1",
                       "--mean", "nan", "--out", "{out}"],
    "plan-nan-noise": ["plan", "--field", "{field}", "--policy", "greedy-ent",
                       "--start", "0", "--noise-var", "nan"],
    "plan-inf-signal": ["plan", "--field", "{field}", "--policy", "exact",
                        "--start", "0", "--signal-var", "inf"],
    "plan-overflowing-variance": ["plan", "--field", "{field}", "--policy", "markov",
                                  "--start", "0", "--signal-var", "1e308",
                                  "--noise-var", "1e308"],
    "plan-inf-omega1": ["plan", "--field", "{field}", "--policy", "markov",
                        "--start", "0", "--omega1", "inf"],
    "plan-nan-field": ["plan", "--field", "{nan_field}", "--policy", "markov",
                       "--start", "0", "--ell1", "1", "--ell2", "1",
                       "--signal-var", "1", "--noise-var", "0.1"],
    # every --out that cannot be written: here, one in a missing directory
    "synth-unwritable-out": ["synth", "--rows", "3", "--cols", "6",
                             "--out", "{nodir}/x.csv"],
    "plan-unwritable-out": ["plan", "--field", "{field}", "--policy", "markov",
                            "--start", "0", "--out", "{nodir}/r.txt"],
    "bounds-unwritable-out": ["bounds", "--field", "{field}", "--no-verify",
                              "--out", "{nodir}/b.txt"],
    "bench-unwritable-out": ["bench", "--rows", "2", "--cols", "4", "--ell1", "1",
                             "--ell2", "1", "--signal-var", "1", "--noise-var", "0.1",
                             "--policies", "markov", "--out", "{nodir}/b.csv"],
    # a team size or start that is not a configuration of the field's 3 rows
    "plan-zero-team": ["plan", "--field", "{field}", "--policy", "markov", "-k", "0"],
    "plan-team-past-rows": ["plan", "--field", "{field}", "--policy", "markov",
                            "-k", "9"],
    "plan-start-past-rows": ["plan", "--field", "{field}", "--policy", "exact",
                             "-k", "2", "--start", "0,7"],
    "bench-zero-team": ["bench", "--rows", "2", "--cols", "4", "--ell1", "1",
                        "--ell2", "1", "--signal-var", "1", "--noise-var", "0.1",
                        "-k", "0", "--out", "{out}"],
    "bounds-zero-team": ["bounds", "--field", "{field}", "-k", "0"],
    # a budget below 1, which no search could meet, is malformed input
    "plan-negative-budget": ["plan", "--field", "{field}", "--policy", "exact",
                             "--start", "1", "--budget", "-5"],
    "plan-zero-budget": ["plan", "--field", "{field}", "--policy", "exact",
                         "--start", "1", "--budget", "0"],
    "plan-markov-negative-budget": ["plan", "--field", "{field}", "--policy", "markov",
                                    "--budget", "-3"],
    "bounds-negative-budget": ["bounds", "--field", "{field}", "--budget", "-1"],
    "bench-negative-budget": ["bench", "--rows", "3", "--cols", "6", "--ell1", "1",
                              "--ell2", "1", "--signal-var", "1", "--noise-var", "0.1",
                              "--policies", "exact", "--budget", "-1", "--out", "{out}"],
    # 1e100 m is 1e400 cells of 1e-300 m: the spacing underflows to 0
    "synth-length-scale-past-float64": ["synth", "--rows", "3", "--cols", "6",
                                        "--omega1", "1e-300", "--ell1", "1e100",
                                        "--out", "{out}"],
    "plan-length-scale-past-float64": ["plan", "--field", "{field}", "--policy", "markov",
                                       "--start", "0", "--omega1", "1e-300",
                                       "--ell1", "1e100"],
    "bounds-length-scale-past-float64": ["bounds", "--rows", "3", "--cols", "5",
                                         "--omega1", "1e-300", "--ell1", "1e100",
                                         "--ell2", "1", "--signal-var", "1",
                                         "--noise-var", "0.1"],
    "bench-length-scale-past-float64": ["bench", "--rows", "3", "--cols", "6",
                                        "--omega1", "1e-300", "--ell1", "1e100",
                                        "--ell2", "1", "--signal-var", "1",
                                        "--noise-var", "0.1", "--out", "{out}"],
    # a start is taken in explicit mode only; here row 9 does not exist
    "bench-start-without-explicit-mode": ["bench", "--rows", "3", "--cols", "6",
                                          "--ell1", "1", "--ell2", "1",
                                          "--signal-var", "1", "--noise-var", "0.1",
                                          "--start", "9", "--out", "{out}"],
}


@pytest.mark.parametrize("args", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_cli_rejected_values_exit_3_with_one_error_line(tmp_path, args):
    one_col = tmp_path / "one.csv"
    one_col.write_text("1.0\n2.0\n")
    nan_field = tmp_path / "nan.csv"
    nan_field.write_text("1.0,nan,2.0\n3.0,4.0,5.0\n")
    field = synth_field(tmp_path)
    paths = {"one_col": one_col, "nan_field": nan_field, "field": field,
             "out": tmp_path / "o.csv", "nodir": tmp_path / "nodir"}
    res = run_cli([a.format(**paths) for a in args])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("error: ")


def far_and_near(args, short):
    """``args`` with ``{ell}`` at ``short`` and at 0.01 m, whose spacing is
    past the kernel's reach too, with no overflow on the way."""
    return [[str(a).replace("{ell}", ell) for a in args] for ell in (short, "0.01")]


SHORT_LENGTH_SCALES = {
    "synth-ell1": ["synth", "--rows", "3", "--cols", "6", "--ell1", "{ell}", "--out", "{out}"],
    "synth-ell2": ["synth", "--rows", "3", "--cols", "6", "--ell2", "{ell}", "--out", "{out}"],
    "bounds": ["bounds", "--rows", "3", "--cols", "5", "--ell1", "{ell}", "--ell2", "1",
               "--signal-var", "1", "--noise-var", "0.1"],
    "plan": ["plan", "--field", "{field}", "--policy", "markov", "--start", "0",
             "--ell1", "{ell}"],
    "bench": ["bench", "--rows", "3", "--cols", "6", "--ell1", "{ell}", "--ell2", "1",
              "--signal-var", "1", "--noise-var", "0.1", "--policies", "markov,greedy-ent",
              "--out", "{out}"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("short", ["1e-200", "1e-320"])
@pytest.mark.parametrize("args", SHORT_LENGTH_SCALES.values(), ids=SHORT_LENGTH_SCALES.keys())
def test_cli_length_scale_far_below_the_spacing_answers_its_limit(tmp_path, args, short):
    # at 1e-200 m the squared distances overflowed, at 1e-320 m the spacing
    # itself did, to a NaN diagonal; the kernel is 0 between cells at all
    # three length-scales, so each report is the 0.01 m one
    field = synth_field(tmp_path)
    reports = []
    for i, run in enumerate(far_and_near(args, short)):
        out = tmp_path / f"o{i}.csv"
        res = run_cli([a.format(field=field, out=out) for a in run])
        assert res.exit_code == 0, res.output
        assert res.stderr == ""
        text = out.read_text() if out.exists() else res.stdout
        if run[0] == "bench":
            # the plan_seconds columns
            text = [line.split(",")[:-2] for line in text.splitlines()]
        elif run[0] == "bounds":
            text = [line for line in text.splitlines() if not line.startswith("norm_ell1=")]
        else:
            text = mask_times(text)
        reports.append(text)
    assert reports[0] == reports[1]
    if args[0] == "synth":
        assert np.isfinite(read_field(tmp_path / "o0.csv").grid.measurements).all()


def test_cli_zero_team_refused_alike_by_bounds_and_plan(tmp_path):
    field = synth_field(tmp_path)
    results = [
        run_cli(["bounds", "--field", field, "-k", "0"]),
        run_cli(["plan", "--field", field, "--policy", "exact", "--start", "0",
                 "-k", "0"]),
    ]
    for res in results:
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("error: ")
    assert results[0].exit_code == results[1].exit_code != 0


def test_cli_exit_code_budget(tmp_path):
    field = synth_field(tmp_path)
    res = run_cli([
        "plan", "--field", field, "--policy", "exact", "--start", "0",
        "--budget", "2",
    ])
    assert res.exit_code == 5
    assert "error:" in res.output
    # bounds skips the audit that refuses the budget, unless told to run it;
    # the golden audit's instance, whose bound condition holds
    audited = [
        "bounds", "--rows", "3", "--cols", "5", "--omega1", "5", "--omega2", "5",
        "--ell1", "2.5", "--ell2", "2.5", "--signal-var", "1.0",
        "--noise-var", "1.0", "--budget", "2",
    ]
    res = run_cli(audited)
    assert res.exit_code == 0, res.output
    assert "condition_ok=true" in res.output
    assert "value_bracket=skipped" in res.output
    res = run_cli(audited + ["--verify"])
    assert res.exit_code == 5
    assert res.stderr.startswith("error: 3^4 = 81 leaf evaluations exceed the budget 2")


def test_cli_exit_code_condition(tmp_path):
    res = run_cli([
        "bounds", "--rows", "3", "--cols", "5", "--omega1", "5", "--omega2", "5",
        "--ell1", "20", "--ell2", "20", "--signal-var", "1", "--noise-var", "0.01",
        "--verify",
    ])
    assert res.exit_code == 4


def test_cli_exit_code_anisotropy():
    # the team bound is stated for equal normalized length-scales only
    res = run_cli([
        "bounds", "--rows", "3", "--cols", "5", "--omega1", "5", "--omega2", "5",
        "--ell1", "2.5", "--ell2", "3", "--signal-var", "1", "--noise-var", "1",
        "-k", "2",
    ])
    assert res.exit_code == 4, res.output
    assert res.stderr.startswith("error: normalized length-scales differ")


@pytest.mark.parametrize("command", [
    ["plan", "--policy", "markov", "--start", "0"],
    ["bounds"],
])
def test_cli_plan_and_bounds_have_no_mean_option(tmp_path, command):
    field = synth_field(tmp_path)
    res = run_cli(command + ["--field", field, "--mean", "1"])
    assert res.exit_code == 2
    assert "No such option '--mean'" in res.output


@pytest.mark.parametrize("error", [FactorizationFailure, SingularCovariance])
def test_cli_exit_code_factorization(error):
    @main.command(name="_boom", hidden=True)
    @mapped_exits
    def _boom():
        raise error("made up for the exit-code map")

    try:
        res = run_cli(["_boom"])
        assert res.exit_code == 6
    finally:
        del main.commands["_boom"]


@pytest.mark.parametrize("policy", POLICIES)
def test_cli_exit_code_for_a_factor_below_the_floor(tmp_path, policy):
    # a signal variance of 1e-305 factors to pivots near 3e-153, below
    # DIAG_FLOOR, so every planner refuses with SingularCovariance
    out = tmp_path / "f.csv"
    res = run_cli([
        "synth", "--rows", 3, "--cols", 6, "--omega1", 5, "--omega2", 5,
        "--ell1", 10, "--ell2", 10, "--signal-var", 1e-305, "--noise-var", 0,
        "--seed", 1, "--out", out,
    ])
    assert res.exit_code == 0, res.output
    res = run_cli(["plan", "--field", out, "--policy", policy, "--start", 0])
    assert res.exit_code == 6, res.output
    assert res.stderr.startswith("error: factor diagonal reaches"), res.stderr


def test_cli_bounds_condition_unmet_is_reported_not_fatal():
    res = run_cli([
        "bounds", "--rows", "3", "--cols", "5", "--omega1", "5", "--omega2", "5",
        "--ell1", "20", "--ell2", "20", "--signal-var", "1", "--noise-var", "0.01",
    ])
    assert res.exit_code == 0
    assert "condition_ok=false" in res.output
    assert "note=sufficient condition unmet" in res.output
    assert "value_bracket=skipped" in res.output
    assert "rollout_gap=skipped" in res.output


def test_cli_bounds_survey_variance_ratio():
    res = run_cli([
        "bounds", "--rows", "5", "--cols", "30", "--omega1", "5", "--omega2", "5",
        "--ell1", "40.45", "--ell2", "16.0", "--signal-var", "0.1542",
        "--noise-var", "0.0036", "--no-verify",
    ])
    assert res.exit_code == 0
    assert "variance_ratio=1.0233463035019454" in res.output
    assert "norm_ell1=8.0899999999999999" in res.output


def test_cli_bounds_audited_output_matches_golden():
    res = run_cli([
        "bounds", "--rows", "3", "--cols", "5", "--omega1", "5", "--omega2", "5",
        "--ell1", "2.5", "--ell2", "2.5", "--signal-var", "1.0",
        "--noise-var", "1.0",
    ])
    assert res.exit_code == 0
    want = (DATA / "bounds_audit_report.txt").read_text()
    assert res.output == want


def test_cli_plan_golden_report(tmp_path):
    field = synth_field(tmp_path)
    res = run_cli(["plan", "--field", field, "--policy", "markov", "--start", "1"])
    assert res.exit_code == 0
    want = (DATA / "plan_markov_report.txt").read_text()
    assert mask_times(res.output) == want


def test_cli_bench_end_to_end(tmp_path):
    out = tmp_path / "bench.csv"
    res = run_cli([
        "bench", "--rows", "3", "--cols", "4", "--omega1", "5", "--omega2", "5",
        "--ell1", "5", "--ell2", "4", "--signal-var", "1.0", "--noise-var", "0.1",
        "--seeds", "0,1", "--policies", "markov,greedy-ent", "--out", out,
    ])
    assert res.exit_code == 0, res.output
    assert "rows=16" in res.output
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 17


def test_cli_bench_explicit_start(tmp_path):
    out = tmp_path / "bench.csv"
    res = run_cli([
        "bench", "--rows", "3", "--cols", "4", "--ell1", "5", "--ell2", "4",
        "--signal-var", "1.0", "--noise-var", "0.1", "--mode", "explicit",
        "--start", "1", "--out", out,
    ])
    assert res.exit_code == 0, res.output
    assert "rows=6" in res.output


def test_cli_bench_rejects_unknown_policy(tmp_path):
    out = tmp_path / "bench.csv"
    res = run_cli([
        "bench", "--rows", "3", "--cols", "4", "--ell1", "5", "--ell2", "4",
        "--signal-var", "1.0", "--noise-var", "0.1", "--policies", "mystery",
        "--out", out,
    ])
    assert res.exit_code == 3


def test_cli_help_runs():
    for args in (["--help"], ["plan", "--help"], ["synth", "--help"],
                 ["bounds", "--help"], ["bench", "--help"]):
        assert run_cli(args).exit_code == 0


# Runs in a fresh interpreter: the Markov, exact and bounds paths and the
# field IO must not import SciPy, whose import costs more than their runs.
NUMPY_ONLY_PATHS = """
import math
import sys

from click.testing import CliRunner

import transectplan as tp
import transectplan.cli


def run(*args):
    res = CliRunner().invoke(transectplan.cli.main, [str(a) for a in args])
    assert res.exit_code == 0, res.output


run("synth", "--rows", 3, "--cols", 5, "--omega1", 5, "--omega2", 5,
    "--ell1", 2.5, "--ell2", 2.5, "--noise-var", 1.0, "--out", "f.csv")
run("plan", "--field", "f.csv", "--policy", "markov")
run("plan", "--field", "f.csv", "--policy", "markov", "-k", 2, "--start", "0,2")
grid = tp.read_field("f.csv").grid
h = tp.Hyperparams(ell1=2.5, ell2=2.5, signal_var=1.0, noise_var=1.0)
tp.plan("exact", grid, h, 1, tp.RobotConfig((1,)))
assert tp.verify_performance_bounds(grid, h, k=1).value_bracket_ok
assert "scipy" not in sys.modules, "scipy imported"
path = tp.plan("greedy-mi", grid, h, 1, tp.RobotConfig((1,))).path
record = tp.evaluate(path, h, "greedy-mi")
assert math.isfinite(record.ent) and math.isfinite(record.err)
"""


def test_markov_exact_and_bounds_paths_run_without_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_PATHS], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
