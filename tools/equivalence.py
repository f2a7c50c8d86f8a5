"""Equivalence sweep: run one seeded corpus through two source trees and
classify every difference.

    python tools/equivalence.py record --src DIR --out .equivalence/a.json
    python tools/equivalence.py compare .equivalence/a.json .equivalence/b.json

``record`` imports ``transectplan`` from ``DIR/src`` (a checkout of any
revision, for example one unpacked with ``git archive``), runs every case of
``corpus()`` through every planner in ``PLANNERS`` and writes, per run, the
value's exact bits, the path's rows and the refusal's type name. ``compare``
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
import sys
import warnings
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

NOISE_RATIOS = (0.0, 1e-6, 1e-3, 0.3)

# The paper's fitted hyperparameters (ell1, ell2, signal_var, noise_var).
FITS = {
    "temperature": (40.45, 16.0, 0.1542, 0.0036),
    "plankton": (27.53, 134.64, 2.152, 0.041),
}

PLANNERS = {
    "greedy-ent": lambda tp, g, h, k, x0: tp.plan_greedy_entropy(g, h, k, x0),
    "greedy-mi": lambda tp, g, h, k, x0: tp.plan_greedy_mi(g, h, k, x0),
}

CLASSES = ("identical", "close", "tied", "refusal", "other")


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
    fits at their own noise and at noise 0 and 1e-6, and starts placed
    symmetrically about the middle row, whose first move ties with its
    mirror image."""
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
    return cases


def run(tp, case: Case, planner: str) -> dict:
    """One planner on one case: value bits and path rows, or the refusal's
    type name, prefixed "untyped" when it is not a TransectPlanError."""
    grid = tp.TransectGrid(case.rows, case.cols, case.omega, case.omega)
    h = tp.Hyperparams(case.ell1, case.ell2, case.signal_var, case.noise_var)
    try:
        res = PLANNERS[planner](tp, grid, h, case.k, tp.RobotConfig(case.start))
    except Exception as exc:  # an untyped failure is recorded, not raised
        name = type(exc).__name__
        if not isinstance(exc, tp.TransectPlanError):
            name = f"untyped {name}"
        return {"refusal": name, "value": None, "path": None}
    return {
        "refusal": None,
        "value": float(res.value).hex(),
        "path": [list(c.rows) for c in res.path.configs],
    }


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
    return {
        "tie_rtol": tp.planners.TIE_RTOL,
        "cases": [asdict(c) for c in cases],
        "runs": runs,
    }


def classify(a: dict, b: dict, tie_rtol: float) -> str:
    """The class of one run recorded as ``a`` and again as ``b``: identical
    (the same refusal, or the same path and value bits), close (the same
    path, values within 1e-12 relative), tied (another path, values within
    ``tie_rtol`` relative), refusal (one side refused, or the type changed)
    or other."""
    if a["refusal"] or b["refusal"]:
        return "identical" if a["refusal"] == b["refusal"] else "refusal"
    va, vb = float.fromhex(a["value"]), float.fromhex(b["value"])
    scale = max(abs(va), abs(vb), 1.0)
    if a["path"] == b["path"]:
        if va == vb:
            return "identical"
        return "close" if abs(va - vb) <= 1e-12 * scale else "other"
    return "tied" if abs(va - vb) <= tie_rtol * scale else "other"


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
