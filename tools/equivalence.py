"""Equivalence sweep: run one seeded corpus through two source trees and
classify every difference.

    python tools/equivalence.py record --src DIR --out .equivalence/a.json
    python tools/equivalence.py compare .equivalence/a.json .equivalence/b.json

``record`` imports ``transectplan`` from ``DIR/src`` (a checkout of any
revision, for example one unpacked with ``git archive``), runs every case of
``corpus()`` through every planner in ``PLANNERS`` and writes, per run, the
value's exact bits, the path's rows, the exhaustive planner's stage gains and
the refusal's type name. It also runs ``run_benchmark`` on the survey-fit
cases (see :func:`survey`), so the benchmark's batched route and its map
metrics are compared too, and ``verify_performance_bounds`` on the cases
within the exhaustive planner's leaf cap (see :func:`audit`). ``compare``
puts each run in one class of ``CLASSES`` and prints the counts per planner
and noise group; noise ratios 0 and 1e-6 are grouped apart from the rest,
because at zero or tiny noise two algebraically equal routes are known to
round differently. Set ``OPENBLAS_NUM_THREADS=1`` in both runs: the BLAS
thread count changes rounding, and at noise ratio 1e-6 rounding can decide a
near-tied choice, so one tree recorded under two thread counts is the floor
that a comparison of two trees can be read against. ``.equivalence/`` is
ignored by git.

To cover another planner, add a runner to ``PLANNERS`` that maps a built
``(tp, grid, h, k, x0)`` to a ``PlanResult``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path

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
    "greedy-ent": lambda tp, g, h, k, x0: tp.plan_greedy_entropy(g, h, k, x0),
    "greedy-mi": lambda tp, g, h, k, x0: tp.plan_greedy_mi(g, h, k, x0),
    "exact": lambda tp, g, h, k, x0: tp.plan_exact(g, h, k, x0, budget=EXACT_LEAVES),
}

SURVEY_POLICIES = ("markov", "greedy-ent", "greedy-mi")

CLASSES = ("identical", "close", "tied", "refusal", "other")

# The fields holding float bits (one, or a list) that a run may carry.
BITS = ("value", "err", "gains", "markov", "rollout")


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


def audit(tp, cases: list[Case]) -> dict:
    """``verify_performance_bounds`` once per instance of the cases within
    the exhaustive planner's leaf cap. Each audited start is one run, keyed
    by the instance's first case, holding its exact value's bits as its
    value, its markov and rollout value bits and its three verdict flags; a
    refused call records its refusal for every start. Runs carry no path."""
    leaves = lambda c: math.comb(c.rows, c.k) ** (c.cols - 1)
    runs = {}
    for inst, members in instances(cases, lambda c: leaves(c) <= EXACT_LEAVES).items():
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


def record(cases: list[Case]) -> dict:
    """Run every case through every planner with the ``transectplan`` that
    ``sys.path`` finds first; the record keeps that tree's tie window."""
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
        runs.update(audit(tp, cases))
    return {
        "tie_rtol": tp.planners.TIE_RTOL,
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
    refusal (one side refused, or the type changed) or other. Verdict flags,
    and which fields a run has, must match, or the run is other."""
    if a["refusal"] or b["refusal"]:
        return "identical" if a["refusal"] == b["refusal"] else "refusal"
    keys = [key for key in BITS if a.get(key) is not None]
    if a.get("flags") != b.get("flags") or keys != [key for key in BITS if b.get(key) is not None]:
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
