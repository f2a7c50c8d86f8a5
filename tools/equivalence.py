"""Equivalence sweep: run one seeded corpus through two source trees and
classify every difference.

    python tools/equivalence.py record --src DIR --out .equivalence/a.json
    python tools/equivalence.py compare .equivalence/a.json .equivalence/b.json

``record`` imports ``transectplan`` from ``DIR/src`` (a checkout of any
revision, for example one unpacked with ``git archive``), runs every case of
``corpus()`` through every planner in ``PLANNERS``, each a one-start
``plan`` call, and writes, per run, the value's exact bits, the path's rows,
the exhaustive planner's stage gains and the refusal's type name. It also
runs ``plan_all`` from every start of each instance within the exhaustive
planner's leaf cap, for every policy (see :func:`many`), so the many-start
route of the one planning entry point is compared too, ``run_benchmark`` on
the survey-fit cases (see :func:`survey`), so the benchmark's batched route
and its map metrics are compared, ``verify_performance_bounds`` on the cases
within the leaf cap (see :func:`audit`), ``plan_markov``
with its stage table, its rollouts and their ``path_entropy`` on every
instance (see :func:`markov`), and ``check_covariance_contraction`` on a few
of the corpus's grids and fits (see :func:`contraction`). ``compare`` puts
each run in one class of
``CLASSES`` and prints the counts per planner and noise group; noise ratios
0 and 1e-6 are grouped apart from the rest, because at zero or tiny noise
two algebraically equal routes are known to round differently. The BLAS
thread count changes rounding, and at noise ratio 1e-6 rounding can decide a
near-tied choice, so the tool pins every variable of ``THREAD_VARS`` to one
thread before numpy loads, unless the environment sets it; a record keeps
the settings it ran under, and ``compare`` prints a line when the two
records' settings differ. ``.equivalence/`` is ignored by git.

To cover another planner, add a runner to ``PLANNERS`` that maps a built
``(tp, grid, h, k, x0)`` to a ``PlanResult``, and its policy name to
``MANY_POLICIES``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path

# The BLAS thread settings, pinned before numpy loads; an explicit setting in
# the environment still wins.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np

NOISE_RATIOS = (0.0, 1e-6, 1e-3, 0.3)

# The paper's fitted hyperparameters (ell1, ell2, signal_var, noise_var).
FITS = {
    "temperature": (40.45, 16.0, 0.1542, 0.0036),
    "plankton": (27.53, 134.64, 2.152, 0.041),
}

# The exhaustive planner's leaf cap: larger cases are refused before any
# work, so their runs record BudgetExceeded.
EXACT_LEAVES = 50_000

PLANNERS = {
    name: lambda tp, g, h, k, x0, name=name: tp.plan(name, g, h, k, x0, budget=EXACT_LEAVES)
    for name in ("greedy-ent", "greedy-mi", "exact")
}

# The policies the many-start runner sends through ``plan_all``.
MANY_POLICIES = ("markov", "exact", "greedy-ent", "greedy-mi")

SURVEY_POLICIES = ("markov", "greedy-ent", "greedy-mi")

CLASSES = ("identical", "close", "tied", "refusal", "other")

# The seeds each contraction check runs with.
CONTRACTION_SEEDS = (0, 1)

# The fields holding float bits (one, or a list) that a run may carry.
BITS = ("value", "err", "gains", "markov", "rollout", "table", "values", "abs")

# The fields that must match exactly: audit verdict flags and a contraction
# check's passed flag and trial count, markov actions, counterexample cells.
EXACT = ("flags", "actions", "cells")


@dataclass(frozen=True)
class Case:
    name: str
    rows: int
    cols: int
    omega: float
    ell1: float
    ell2: float
    signal_var: float
    noise_var: float
    k: int
    start: tuple[int, ...]

    @property
    def group(self) -> str:
        ratio = self.noise_var / self.signal_var
        return "0" if ratio == 0 else "1e-6" if ratio < 1e-4 else ">=1e-3"


def corpus() -> list[Case]:
    """The fixed corpus: random instances at every noise ratio, both survey
    fits at their own noise and at noise 0 and 1e-6, starts placed
    symmetrically about the middle row, whose first move ties with its
    mirror image, and small instances with a short along-track correlation
    whose bound tables are finite, at every noise ratio."""
    rng = np.random.default_rng(0)
    cases = []
    for i in range(40):
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(3, 13))
        k = int(rng.integers(1, rows + 1))
        start = tuple(sorted(rng.choice(rows, k, replace=False).tolist()))
        omega = float(rng.uniform(1.0, 10.0))
        ell1, ell2 = omega * rng.uniform(0.2, 2.0, size=2)
        signal = float(rng.uniform(0.05, 5.0))
        for ratio in NOISE_RATIOS:
            cases.append(
                Case(f"random-{i}-{ratio:g}", rows, cols, omega, float(ell1),
                     float(ell2), signal, ratio * signal, k, start)
            )
    for fit, (ell1, ell2, signal, noise) in FITS.items():
        for rows, cols in ((5, 40), (6, 60), (5, 80)):
            for k in (1, 2):
                starts = ((0,), (rows // 2,)) if k == 1 else ((0, 1), (1, rows - 2))
                for noise_var in (noise, 0.0, 1e-6 * signal):
                    for start in starts:
                        cases.append(
                            Case(f"{fit}-{rows}x{cols}-k{k}-{start}-{noise_var:g}",
                                 rows, cols, 5.0, ell1, ell2, signal, noise_var, k, start)
                        )
    for rows in (3, 5, 7):
        mid = rows // 2
        for start in ((mid,), (mid - 1, mid + 1), (0, rows - 1)):
            for fit, (ell1, ell2, signal, noise) in FITS.items():
                for ratio in NOISE_RATIOS:
                    cases.append(
                        Case(f"mirror-{rows}x6-{start}-{fit}-{ratio:g}", rows, 6, 5.0,
                             ell1, ell2, signal, ratio * signal, len(start), start)
                    )
    for i in range(12):
        rows = int(rng.integers(2, 6))
        cols = int(rng.integers(3, 8))
        # the team bound needs equal normalized length-scales
        k = 2 if i % 3 == 2 else 1
        ell1 = 5.0 * rng.uniform(0.2, 0.45)
        ell2 = ell1 if k == 2 else 5.0 * rng.uniform(0.2, 2.0)
        signal = float(rng.uniform(0.05, 5.0))
        for ratio in NOISE_RATIOS:
            cases.append(
                Case(f"bounds-{i}-{ratio:g}", rows, cols, 5.0, float(ell1), float(ell2),
                     signal, ratio * signal, k, tuple(range(k)))
            )
    return cases


def refusal_name(tp, exc: Exception) -> str:
    """The refusal's type name, prefixed "untyped" when it is not a
    TransectPlanError."""
    name = type(exc).__name__
    return name if isinstance(exc, tp.TransectPlanError) else f"untyped {name}"


def instance(tp, case: Case):
    """The case's grid and hyperparameters."""
    grid = tp.TransectGrid(case.rows, case.cols, case.omega, case.omega)
    return grid, tp.Hyperparams(case.ell1, case.ell2, case.signal_var, case.noise_var)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def run(tp, case: Case, planner: str) -> dict:
    """One planner on one case: value bits, path rows and, for the
    exhaustive planner, stage-gain bits, or the refusal's type name."""
    grid, h = instance(tp, case)
    try:
        res = PLANNERS[planner](tp, grid, h, case.k, tp.RobotConfig(case.start))
    except Exception as exc:  # an untyped failure is recorded, not raised
        return {"refusal": refusal_name(tp, exc), "value": None, "path": None}
    out = {
        "refusal": None,
        "value": float(res.value).hex(),
        "path": [list(c.rows) for c in res.path.configs],
    }
    if planner == "exact":
        out["gains"] = hexes(res.stage_gains)
    return out


def instances(cases: list[Case], keep) -> dict:
    """The cases that ``keep`` takes, grouped by instance (the case without
    its name and start)."""
    out = {}
    for case in cases:
        if keep(case):
            out.setdefault(replace(case, name="", start=()), []).append(case)
    return out


def survey(tp, cases: list[Case]) -> dict:
    """``run_benchmark`` on every survey-fit case, with all the starts of one
    instance as the explicit starts of one call and field seed 0. Each
    (policy, start) row is one run, keyed by its case, holding the row's
    ``ent`` bits as its value and its ``err`` bits; a refused call records
    its refusal for every row. Rows carry no path."""
    runs = {}
    for inst, members in instances(cases, lambda c: c.name.split("-")[0] in FITS).items():
        spec = tp.ExperimentSpec(
            inst.rows, inst.cols, inst.omega, inst.omega,
            tp.Hyperparams(inst.ell1, inst.ell2, inst.signal_var, inst.noise_var),
            team_sizes=(inst.k,), policies=SURVEY_POLICIES, seeds=(0,),
            start_mode="explicit", starts=tuple(tp.RobotConfig(c.start) for c in members),
        )  # fmt: skip
        try:
            rows = {(r["policy"], r["start"]): r for r in tp.run_benchmark(spec)}
            refusal = None
        except Exception as exc:  # an untyped failure is recorded, not raised
            refusal = refusal_name(tp, exc)
        for case, policy in ((c, p) for c in members for p in SURVEY_POLICIES):
            out = {"refusal": refusal, "value": None, "err": None, "path": None}
            if refusal is None:
                row = rows[(policy, str(tp.RobotConfig(case.start)))]
                out.update(value=float(row["ent"]).hex(), err=float(row["err"]).hex())
            runs[f"survey/{policy}/{case.name}"] = {"planner": "survey", "group": case.group, **out}
    return runs


def within_leaf_cap(case: Case) -> bool:
    return math.comb(case.rows, case.k) ** (case.cols - 1) <= EXACT_LEAVES


def many(tp, cases: list[Case]) -> dict:
    """``plan_all`` from every start of each instance of the cases within
    the exhaustive planner's leaf cap, once per policy of ``MANY_POLICIES``.
    Each start is one run, keyed by the policy, the instance's first case
    and the start, holding the value bits, the path and the stage-gain bits;
    a refused call records its refusal for every start."""
    runs = {}
    for inst, members in instances(cases, within_leaf_cap).items():
        grid, h = instance(tp, inst)
        starts = tp.enumerate_configs(grid, inst.k)
        for policy in MANY_POLICIES:
            try:
                results = tp.plan_all(policy, grid, h, inst.k, starts, budget=EXACT_LEAVES)
                refusal = None
            except Exception as exc:  # an untyped failure is recorded, not raised
                refusal = refusal_name(tp, exc)
                results = [None] * len(starts)
            for x0, res in zip(starts, results):
                out = {"refusal": refusal, "value": None, "path": None}
                if res is not None:
                    out.update(
                        value=float(res.value).hex(),
                        path=[list(c.rows) for c in res.path.configs],
                        gains=hexes(res.stage_gains),
                    )
                key = f"many/{policy}/{members[0].name}/{list(x0.rows)}"
                runs[key] = {"planner": "many", "group": inst.group, **out}
    return runs


def audit(tp, cases: list[Case]) -> dict:
    """``verify_performance_bounds`` once per instance of the cases within
    the exhaustive planner's leaf cap. Each audited start is one run, keyed
    by the instance's first case, holding its exact value's bits as its
    value, its markov and rollout value bits and its three verdict flags; a
    refused call records its refusal for every start. Runs carry no path."""
    runs = {}
    for inst, members in instances(cases, within_leaf_cap).items():
        grid, h = instance(tp, inst)
        starts = tp.enumerate_configs(grid, inst.k)
        try:
            audits = tp.verify_performance_bounds(grid, h, inst.k, budget=EXACT_LEAVES).audits
            refusal = None
        except Exception as exc:  # an untyped failure is recorded, not raised
            refusal = refusal_name(tp, exc)
            audits = [None] * len(starts)
        for x0, a in zip(starts, audits):
            out = {"refusal": refusal, "value": None, "path": None}
            if a is not None:
                out.update(
                    value=float(a.exact_value).hex(),
                    markov=float(a.markov_value).hex(),
                    rollout=float(a.rollout_value).hex(),
                    flags=[a.value_bracket_ok, a.rollout_gap_ok, a.stage_bracket_ok],
                )
            key = f"audit/{members[0].name}/{list(x0.rows)}"
            runs[key] = {"planner": "audit", "group": inst.group, **out}
    return runs


def markov(tp, cases: list[Case]) -> dict:
    """``plan_markov`` once per instance, then ``rollout`` and
    ``path_entropy`` from each of its cases' starts. The instance's run,
    keyed by its first case with a ``/dp`` suffix, holds the bits of the
    stage table and of the DP values, and the actions, row by row; a refused
    table or DP records its refusal for every run of the instance. Each
    start's run holds the rollout path and its ``path_entropy`` bits as its
    value, or that start's refusal."""

    def refused(exc: Exception) -> dict:
        return {"refusal": refusal_name(tp, exc), "value": None, "path": None}

    runs = {}
    for inst, members in instances(cases, lambda c: True).items():
        grid, h = instance(tp, inst)
        tag = {"planner": "markov", "group": inst.group}
        try:
            table = tp.planners.stage_entropy_table(grid, h, tp.enumerate_configs(grid, inst.k))
            policy = tp.plan_markov(grid, h, inst.k)
            dp = {
                "refusal": None, "value": None, "path": None,
                "table": hexes(table.ravel()),
                "values": hexes(policy.values.ravel()),
                "actions": policy.actions.tolist(),
            }  # fmt: skip
        except Exception as exc:  # an untyped failure is recorded, not raised
            policy, dp = None, refused(exc)
        runs[f"markov/{members[0].name}/dp"] = {**tag, **dp}
        for case in members:
            out = dp
            if policy is not None:
                try:
                    path = tp.rollout(policy, tp.RobotConfig(case.start))
                    out = {
                        "refusal": None,
                        "value": float(tp.path_entropy(path, h)).hex(),
                        "path": [list(c.rows) for c in path.configs],
                    }
                except Exception as exc:  # an untyped failure is recorded, not raised
                    out = refused(exc)
            runs[f"markov/{case.name}"] = {**tag, **out}
    return runs


def contraction(tp, cases: list[Case]) -> dict:
    """``check_covariance_contraction`` once per grid and fit of the first
    five random draws, the survey fits' 5x40 cases and the first six bounds
    draws, at every noise the corpus gives them, with each seed of
    ``CONTRACTION_SEEDS``. Each check is one run, keyed by the first case of
    its grid and fit and the seed, holding ``passed`` and ``trials`` as its
    flags, each counterexample's cells (u, v, the history and the member
    conditioned on) and the bits of its two covariance magnitudes; a refused
    check records its refusal. Runs carry no path."""
    keep = {f"{kind}-{i}" for kind, n in (("random", 5), ("bounds", 6)) for i in range(n)}
    keep |= {f"{fit}-5x40" for fit in FITS}
    grids = {}
    for case in cases:
        if "-".join(case.name.split("-")[:2]) in keep:
            grids.setdefault(replace(case, name="", k=1, start=()), case)
    runs = {}
    for inst, first in grids.items():
        grid, h = instance(tp, inst)
        for seed in CONTRACTION_SEEDS:
            out = {"refusal": None, "value": None, "path": None}
            try:
                chk = tp.check_covariance_contraction(grid, h, seed=seed)
                found = chk.counterexamples
                out.update(
                    flags=[chk.passed, chk.trials],
                    cells=[[c.u, c.v, c.history, c.conditioned_on] for c in found],
                    abs=hexes(x for c in found for x in (c.full_abs, c.single_abs)),
                )
            except Exception as exc:  # an untyped failure is recorded, not raised
                out["refusal"] = refusal_name(tp, exc)
            runs[f"contraction/{first.name}/{seed}"] = {
                "planner": "contraction", "group": inst.group, **out
            }
    return runs


def record(cases: list[Case]) -> dict:
    """Run every case through every planner with the ``transectplan`` that
    ``sys.path`` finds first; the record keeps that tree's tie window and
    the BLAS thread settings."""
    import transectplan as tp

    runs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for case in cases:
            for planner in PLANNERS:
                runs[f"{planner}/{case.name}"] = {
                    "planner": planner,
                    "group": case.group,
                    **run(tp, case, planner),
                }
        runs.update(survey(tp, cases))
        runs.update(many(tp, cases))
        runs.update(audit(tp, cases))
        runs.update(markov(tp, cases))
        runs.update(contraction(tp, cases))
    return {
        "tie_rtol": tp.planners.TIE_RTOL,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cases": [asdict(c) for c in cases],
        "runs": runs,
    }


def floats(run: dict, key: str) -> list[float]:
    """The floats of one ``BITS`` field of a run: one, or a list."""
    v = run[key]
    return [float.fromhex(x) for x in ([v] if isinstance(v, str) else v)]


def classify(a: dict, b: dict, tie_rtol: float) -> str:
    """The class of one run recorded as ``a`` and again as ``b``: identical
    (the same refusal, or the same path and the same bits in every ``BITS``
    field the run has), close (the same path, every field within 1e-12
    relative), tied (another path, values within ``tie_rtol`` relative),
    refusal (one side refused, or the type changed) or other. The ``EXACT``
    fields, and which fields a run has, must match, or the run is other."""
    if a["refusal"] or b["refusal"]:
        return "identical" if a["refusal"] == b["refusal"] else "refusal"
    keys = [key for key in BITS if a.get(key) is not None]
    same_fields = keys == [key for key in BITS if b.get(key) is not None]
    if not same_fields or any(a.get(key) != b.get(key) for key in EXACT):
        return "other"
    if all(a[key] == b[key] for key in keys):
        return "identical" if a["path"] == b["path"] else "tied"

    def within(rtol: float, keys) -> bool:
        pairs = [(floats(a, key), floats(b, key)) for key in keys]
        return all(len(x) == len(y) for x, y in pairs) and all(
            abs(p - q) <= rtol * max(abs(p), abs(q), 1.0)
            for x, y in pairs
            for p, q in zip(x, y)
        )

    if a["path"] == b["path"]:
        return "close" if within(1e-12, keys) else "other"
    # another path has other stage gains, so only the values can tie
    return "tied" if within(tie_rtol, ["value"]) else "other"


def compare(a: dict, b: dict) -> dict:
    """Class counts per (planner, noise group), and every run not identical;
    ties are judged by the tie window recorded with ``a``."""
    counts, changed = {}, []
    for key, ra in a["runs"].items():
        rb = b["runs"].get(key)
        cls = "other" if rb is None else classify(ra, rb, a["tie_rtol"])
        counts.setdefault((ra["planner"], ra["group"]), Counter())[cls] += 1
        if cls != "identical":
            changed.append((key, cls, ra, rb))
    return {"counts": counts, "changed": changed}


def describe(run: dict | None) -> str:
    if run is None:
        return "missing"
    if run["refusal"]:
        return f"refused {run['refusal']}"
    if run["planner"] == "audit":
        flags = "".join("+" if f else "-" for f in run["flags"])
        return f"exact {float.fromhex(run['value']):.15g}, flags {flags}"
    if run["planner"] == "contraction":
        return f"passed {run['flags'][0]}, {len(run['cells'])} counterexamples"
    if run.get("table") is not None:
        return f"dp value {max(floats(run, 'values')):.15g}, {len(run['actions'])} stages"
    if run["path"] is None:
        return f"ent {float.fromhex(run['value']):.15g}, err {float.fromhex(run['err']):.15g}"
    return f"{float.fromhex(run['value']):.15g} via {run['path'][1:4]}..."


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the corpus with one source tree")
    rec.add_argument("--src", required=True, type=Path, help="tree holding src/transectplan")
    rec.add_argument("--out", required=True, type=Path)
    cmp_ = sub.add_parser("compare", help="classify the differences of two records")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    if args.command == "record":
        sys.path.insert(0, str((args.src / "src").resolve()))
        result = record(corpus())
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1))
        print(f"{len(result['runs'])} runs -> {args.out}")
        return 0

    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    if a.get("threads") != b.get("threads"):
        print(f"thread settings differ: {a.get('threads')} vs {b.get('threads')}")
    result = compare(a, b)
    print(f"{'planner':<12}{'noise':<8}" + "".join(f"{c:>10}" for c in CLASSES))
    for (planner, group), counts in sorted(result["counts"].items()):
        print(f"{planner:<12}{group:<8}" + "".join(f"{counts[c]:>10}" for c in CLASSES))
    for key, cls, ra, rb in result["changed"]:
        if cls != "close":
            print(f"{cls}: {key}: {describe(ra)} -> {describe(rb)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
