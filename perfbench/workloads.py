"""The benchmark's four workloads.

Each workload makes one op's inputs from the benchmark's generator, runs the
op through the package, and checks the op's outputs against ``reference``.
Every op of a workload has the same shape; ``ROUND`` ops with alternating
settings make one round, and a run always ends on a whole round.
``CALIBRATION`` names the host-speed kernel (see ``calibration``) whose mix
of work is closest to the op's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np

import reference as ref
import spans
import transectplan as tp
import transectplan.cli  # noqa: F401  (the click entry point field_cli drives)

# The paper's fitted hyperparameters for the two survey fields.
TEMPERATURE = tp.Hyperparams(ell1=40.45, ell2=16.0, signal_var=0.1542, noise_var=0.0036)
PLANKTON = tp.Hyperparams(ell1=27.53, ell2=134.64, signal_var=2.152, noise_var=0.041)
OMEGA = 5.0
WIDTHS = (OMEGA, OMEGA)

# Relative tolerance for comparing a package value with a reference value.
# Actions whose reference scores lie within it of the best count as ties.
TOL = 1e-9


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def path_cells(path) -> np.ndarray:
    return ref.cells((col, r) for col, cfg in enumerate(path.configs) for r in cfg.rows)


def dp_errors(table, values, actions) -> list[str]:
    """Bellman and maximizer checks of package DP tables against a
    reference stage table. ``values`` lacks the zero terminal row."""
    errors = []
    full = np.vstack([values, np.zeros((1, table.shape[0]))])
    for i in range(len(values)):
        scores = table + full[i + 1][None, :]
        best = scores.max(axis=1)
        tol = TOL * np.maximum(1.0, np.abs(best))
        if np.any(np.abs(full[i] - best) > tol):
            errors.append(f"stage {i}: values break the Bellman equation")
        chosen = scores[np.arange(len(best)), actions[i]]
        if np.any(chosen < best - tol):
            errors.append(f"stage {i}: an action is not a maximizer")
    return errors


class MarkovTable:
    """plan_markov on 10 x 30 with k=2, then rollout and path_entropy from
    all 45 starts. Hyperparameters are drawn around the two fits in turn."""

    name = "markov_table"
    ROUND = 2
    CALIBRATION = "small"
    ROWS, COLS, K = 10, 30, 2

    def __init__(self, workdir: Path):
        self.tables = spans.tap("planners", "stage_entropy_table")

    def inputs(self, rng, i: int) -> dict:
        fit = (TEMPERATURE, PLANKTON)[i % 2]
        scale = np.exp(rng.uniform(-0.25, 0.25, size=4))
        h = tp.Hyperparams(
            fit.ell1 * scale[0],
            fit.ell2 * scale[1],
            fit.signal_var * scale[2],
            fit.noise_var * scale[3],
        )
        return {"grid": tp.TransectGrid(self.ROWS, self.COLS, OMEGA, OMEGA), "h": h}

    def run(self, inp: dict) -> dict:
        if self.tables is not None:
            self.tables.clear()
        policy = tp.plan_markov(inp["grid"], inp["h"], self.K)
        paths = [tp.rollout(policy, x0) for x0 in policy.configs]
        ents = [tp.path_entropy(p, inp["h"]) for p in paths]
        table = self.tables[-1][2] if self.tables else None
        return {"policy": policy, "paths": paths, "ents": ents, "table": table}

    def check(self, inp: dict, out: dict) -> list[str]:
        h, policy = inp["h"], out["policy"]
        table = ref.stage_table(self.ROWS, self.K, h, WIDTHS)
        errors = []
        if out["table"] is not None and np.max(np.abs(out["table"] - table)) > TOL:
            errors.append("stage table differs from the reference")
        if [c.rows for c in policy.configs] != ref.configs(self.ROWS, self.K):
            return errors + ["configurations are not the lexicographic row sets"]
        stages = self.COLS - 1
        errors += dp_errors(table, policy.values, policy.actions)
        index = {c: j for j, c in enumerate(policy.configs)}
        for j, (x0, path, ent) in enumerate(zip(policy.configs, out["paths"], out["ents"])):
            steps = path.configs
            follows = len(steps) == self.COLS and steps[0] == x0 and all(
                steps[i + 1] == policy.configs[policy.actions[i, index[steps[i]]]]
                for i in range(stages)
            )
            if not follows:
                errors.append(f"start {x0}: rollout does not follow the policy")
                continue
            if not close(ent, ref.path_entropy(path_cells(path), self.K, h, WIDTHS)):
                errors.append(f"start {x0}: path entropy differs from the reference")
            if policy.values[0, j] < ent - TOL * max(1.0, abs(ent)):
                errors.append(f"start {x0}: table value below the path's entropy")
        return errors


class SurveyBench:
    """run_benchmark plus write_csv on a 5 x 40 survey field: k=2, policies
    markov, greedy-ent and greedy-mi, two explicit starts, a new field seed
    per op, temperature and plankton fits in turn."""

    name = "survey_bench"
    ROUND = 2
    CALIBRATION = "small"
    ROWS, COLS, K = 5, 40, 2
    STARTS = ((0, 1), (2, 4))
    POLICIES = ("markov", "greedy-ent", "greedy-mi")

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.evaluations = spans.tap("metrics", "evaluate")

    def inputs(self, rng, i: int) -> dict:
        spec = tp.ExperimentSpec(
            n_rows=self.ROWS,
            n_cols=self.COLS,
            omega1=OMEGA,
            omega2=OMEGA,
            h=(TEMPERATURE, PLANKTON)[i % 2],
            team_sizes=(self.K,),
            policies=self.POLICIES,
            seeds=(int(rng.integers(2**31)),),
            start_mode="explicit",
            starts=tuple(tp.RobotConfig(s) for s in self.STARTS),
        )
        return {"spec": spec, "csv": self.workdir / f"survey-{i}.csv", "op": i}

    def run(self, inp: dict) -> dict:
        self.evaluations.clear()
        rows = tp.run_benchmark(inp["spec"])
        tp.write_csv(rows, inp["csv"])
        evaluated = [(args[0], args[2], rec) for args, _, rec in self.evaluations]
        return {"rows": rows, "evaluated": evaluated}

    def check(self, inp: dict, out: dict) -> list[str]:
        spec = inp["spec"]
        h, n, c, k = spec.h, self.ROWS, self.COLS, self.K
        errors = []
        if len(out["evaluated"]) != len(self.POLICIES) * len(self.STARTS):
            errors.append(f"{len(out['evaluated'])} paths evaluated")
        by_key = {}
        for s, (path, kind, rec) in enumerate(out["evaluated"]):
            key = (kind, str(path.start))
            by_key[key] = rec
            visited = path_cells(path)
            if not close(rec.ent, ref.unvisited_entropy(n, c, visited, h, WIDTHS)):
                errors.append(f"{key}: ent differs from the reference")
            if rec.err is None or not rec.err >= 0.0:
                errors.append(f"{key}: err {rec.err} is not a nonnegative number")
            if kind == "markov":
                continue
            # two stages per greedy path, moving with the op index
            for col in sorted({1, 1 + (7 * inp["op"] + 3 * s) % (c - 1)}):
                done = visited[: k * col]
                scores = ref.greedy_scores(kind, n, c, k, done, col, h, WIDTHS)
                chosen = ref.configs(n, k).index(path.configs[col].rows)
                best = scores.max()
                if scores[chosen] < best - TOL * max(1.0, abs(best)):
                    errors.append(f"{key}: column {col} choice is not a maximizer")
        for row in out["rows"]:
            rec = by_key.get((row["policy"], row["start"]))
            if row["start"] != "mean" and (rec is None or row["ent"] != rec.ent):
                errors.append(f"row {row['policy']} {row['start']} does not match its path")
        lines = Path(inp["csv"]).read_text().splitlines()
        header = lines[0].split(",")
        if len(lines) != len(out["rows"]) + 1:
            return errors + [f"csv has {len(lines) - 1} rows for {len(out['rows'])}"]
        # write_csv leaves the start label unquoted, so a k=2 start such as
        # 0,1 spans two fields; rejoin it before comparing
        at = header.index("start")
        after = len(header) - at - 1
        for line, row in zip(lines[1:], out["rows"]):
            fields = line.split(",")
            end = len(fields) - after
            fields[at:end] = [",".join(fields[at:end])]
            want = [self._render(row[col]) for col in header]
            if fields != want:
                errors.append(f"csv line {line!r} does not read back to its row")
        return errors

    @staticmethod
    def _render(value) -> str:
        if value is None:
            return ""
        return "%.17g" % value if isinstance(value, float) else str(value)


class BoundAudit:
    """verify_performance_bounds(per_stage=True) on 4 x 6 with k=1: 1,024
    leaves per start. Hyperparameters are redrawn until the bound tables
    are finite."""

    name = "bound_audit"
    ROUND = 1
    CALIBRATION = "small"
    ROWS, COLS, K = 4, 6, 1

    def __init__(self, workdir: Path):
        pass

    def inputs(self, rng, i: int) -> dict:
        grid = tp.TransectGrid(self.ROWS, self.COLS, OMEGA, OMEGA)
        while True:
            signal = rng.uniform(0.05, 5.0)
            h = tp.Hyperparams(
                ell1=OMEGA * rng.uniform(0.2, 0.8),
                ell2=OMEGA * rng.uniform(0.2, 2.0),
                signal_var=signal,
                noise_var=signal * rng.uniform(0.005, 0.5),
            )
            if tp.bound_report(h, grid.widths, grid.horizon).condition_ok:
                return {"grid": grid, "h": h}

    def run(self, inp: dict):
        return tp.verify_performance_bounds(inp["grid"], inp["h"], k=self.K, per_stage=True)

    def check(self, inp: dict, report) -> list[str]:
        h = inp["h"]
        best = ref.exhaustive_values(self.ROWS, self.COLS, self.K, h, WIDTHS)
        table = ref.stage_table(self.ROWS, self.K, h, WIDTHS)
        markov = ref.markov_values(table, self.COLS - 1)[0]
        starts = [a.start.rows for a in report.audits]
        if starts != ref.configs(self.ROWS, self.K):
            return [f"audited starts {starts}"]
        errors = []
        eps0 = float(report.tail_bounds[0])
        for s, a in enumerate(report.audits):
            tol = TOL * max(1.0, abs(a.exact_value))
            if not close(a.exact_value, best[s]):
                errors.append(f"start {a.start}: exact value differs from brute force")
            if not close(a.markov_value, markov[s]):
                errors.append(f"start {a.start}: markov value differs from the reference")
            if not a.markov_value >= a.exact_value - tol:
                errors.append(f"start {a.start}: exact value above the markov value")
            if not a.exact_value >= a.markov_value - eps0 - tol:
                errors.append(f"start {a.start}: exact value below markov - tail_bound[0]")
        return errors


class FieldCli:
    """The click entry point in-process: synth on 5 x 400 with a new seed,
    then plan --policy markov -k 2 --start 0,1 on the written file."""

    name = "field_cli"
    ROUND = 1
    CALIBRATION = "dense"
    ROWS, COLS, K = 5, 400, 2
    START = (0, 1)
    MEAN = 10.0

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._reference = None

    def inputs(self, rng, i: int) -> dict:
        return {"seed": int(rng.integers(2**31)), "field": self.workdir / f"field-{i}.csv"}

    def synth_args(self, inp: dict) -> list[str]:
        h = TEMPERATURE
        return [
            "synth", "--rows", str(self.ROWS), "--cols", str(self.COLS),
            "--omega1", repr(OMEGA), "--omega2", repr(OMEGA),
            "--ell1", repr(h.ell1), "--ell2", repr(h.ell2),
            "--signal-var", repr(h.signal_var), "--noise-var", repr(h.noise_var),
            "--mean", repr(self.MEAN), "--seed", str(inp["seed"]),
            "--out", str(inp["field"]),
        ]  # fmt: skip

    def plan_args(self, inp: dict) -> list[str]:
        start = ",".join(map(str, self.START))
        return ["plan", "--field", str(inp["field"]), "--policy", "markov",
                "-k", str(self.K), "--start", start]  # fmt: skip

    @staticmethod
    def invoke(args: list[str]) -> dict[str, str]:
        """Run one subcommand; return its key=value report."""
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                tp.cli.main.main(args, prog_name="transectplan", standalone_mode=False)
        except SystemExit as e:
            if e.code not in (0, None):
                raise RuntimeError(f"{args[0]} exited with {e.code}") from e
        return dict(line.split("=", 1) for line in buf.getvalue().splitlines())

    def run(self, inp: dict) -> dict:
        return {"synth": self.invoke(self.synth_args(inp)), "plan": self.invoke(self.plan_args(inp))}

    def reference(self):
        """Whitener, stage table and DP values for the fixed hyperparameters,
        built on first use."""
        if self._reference is None:
            h = TEMPERATURE
            table = ref.stage_table(self.ROWS, self.K, h, WIDTHS)
            self._reference = (
                ref.whitener(self.ROWS, self.COLS, h, WIDTHS),
                table,
                ref.markov_values(table, self.COLS - 1),
            )
        return self._reference

    def check(self, inp: dict, out: dict) -> list[str]:
        errors = []
        field = Path(inp["field"])
        synth, plan = out["synth"], out["plan"]
        if synth.get("sha256") != hashlib.sha256(field.read_bytes()).hexdigest():
            errors.append("synth reported a sha256 that is not the file's")
        tokens = [line.split(",") for line in field.read_text().splitlines()]
        z = np.array([[float(t) for t in row] for row in tokens])
        if z.shape != (self.ROWS, self.COLS):
            return errors + [f"field shape {z.shape}"]
        if any("%.17g" % float(t) != t for row in tokens for t in row):
            errors.append("csv numbers do not carry their doubles exactly")
        if not np.array_equal(tp.read_field(field).grid.measurements, z):
            errors.append("field does not read back bit-exact")
        meta = dict(
            line.split("=", 1) for line in field.with_suffix(".meta").read_text().splitlines()
        )
        flags = dict(zip(self.synth_args(inp)[1::2], self.synth_args(inp)[2::2]))
        for key in ("rows", "cols", "omega1", "omega2", "ell1", "ell2",
                    "signal_var", "noise_var", "mean", "seed"):  # fmt: skip
            flag = flags["--" + key.replace("_", "-")]
            if meta.get(key) is None or float(meta[key]) != float(flag):
                errors.append(f"sidecar {key}={meta.get(key)} does not echo {flag}")
        whitener, table, values = self.reference()
        w = whitener @ (z.T.reshape(-1) - self.MEAN)
        if not (abs(w.mean()) <= 0.1 and 0.85 <= w.var() <= 1.15):
            errors.append(f"whitened field has mean {w.mean():.3f}, variance {w.var():.3f}")
        configs = [tuple(int(r) for r in c.split(",")) for c in plan.get("path", "").split("|")]
        if len(configs) != self.COLS or configs[0] != self.START:
            return errors + ["plan path does not span the grid from the start"]
        rowsets = ref.configs(self.ROWS, self.K)
        if any(c not in rowsets for c in configs):
            return errors + ["plan path leaves the configurations"]
        index = [rowsets.index(c) for c in configs]
        if not close(float(plan["value"]), values[0, index[0]]):
            errors.append("plan value differs from the reference dp value")
        for i in range(self.COLS - 1):
            scores = table[index[i]] + values[i + 1]
            if scores[index[i + 1]] < scores.max() - TOL * max(1.0, abs(scores.max())):
                errors.append(f"plan path column {i + 1} is not a maximizer")
                break
        return errors


WORKLOADS = {w.name: w for w in (MarkovTable, SurveyBench, BoundAudit, FieldCli)}
