import copy
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from transectplan.planners import TIE_RTOL

TOOL = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"
spec = importlib.util.spec_from_file_location("equivalence", TOOL)
eq = sys.modules["equivalence"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(eq)


@pytest.fixture(scope="module")
def small_record():
    # one desk-sized case per corpus family and noise group, and every start
    # of the first survey-fit instance, which run_benchmark plans together;
    # the exact and audit runners take the desk-sized ones
    picked, seen = [], set()
    for case in eq.corpus():
        kind = (case.name.split("-")[0], case.group)
        if case.rows * case.cols <= 30 and kind not in seen:
            seen.add(kind)
            picked.append(case)
    survey = next(c for c in eq.corpus() if c.name.split("-")[0] in eq.FITS)
    same = lambda c: eq.replace(c, name="", start=()) == eq.replace(survey, name="", start=())
    picked += [c for c in eq.corpus() if same(c)]
    return eq.record(picked)


def test_corpus_covers_the_hard_regimes():
    cases = eq.corpus()
    assert {c.group for c in cases} == {"0", "1e-6", ">=1e-3"}
    assert {c.noise_var / c.signal_var for c in cases if c.name.startswith("random")} == set(
        eq.NOISE_RATIOS
    )
    assert {c.name.split("-")[0] for c in cases} >= {
        "random", "temperature", "plankton", "mirror", "bounds"
    }
    # starts placed symmetrically about the middle row
    for c in cases:
        if c.name.startswith("mirror"):
            assert tuple(c.rows - 1 - r for r in reversed(c.start)) == c.start
    assert eq.corpus() == cases


def test_one_tree_is_identical_to_itself(small_record):
    again = eq.record([eq.Case(**c) for c in small_record["cases"]])
    result = eq.compare(small_record, again)
    assert result["changed"] == []
    assert sum(sum(c.values()) for c in result["counts"].values()) == len(again["runs"])
    assert {g for _, g in result["counts"]} == {"0", "1e-6", ">=1e-3"}


def perturbed(record, key, **changes):
    out = copy.deepcopy(record)
    out["runs"][key].update(changes)
    return out


def test_each_class_fires_on_a_perturbed_record(small_record):
    runs = small_record["runs"]
    key = next(k for k, r in runs.items() if r["refusal"] is None)
    run = runs[key]
    value = float.fromhex(run["value"])
    path = copy.deepcopy(run["path"])
    path[-1] = [r + 1 for r in path[-1]]

    def cls(**changes):
        result = eq.compare(small_record, perturbed(small_record, key, **changes))
        assert [c[0] for c in result["changed"]] == [key]
        return result["changed"][0][1]

    assert cls(value=float(np.nextafter(value, np.inf)).hex()) == "close"
    assert cls(value=(value * (1 + 1e-6)).hex()) == "other"
    assert cls(path=path) == "tied"
    assert cls(path=path, value=(value + 1e-6 * max(abs(value), 1)).hex()) == "other"
    assert cls(refusal="FactorizationFailure", value=None, path=None) == "refusal"
    # ties are judged by the window recorded with the first record
    assert small_record["tie_rtol"] == TIE_RTOL
    moved = perturbed(small_record, key, path=path, value=float(np.nextafter(value, np.inf)).hex())
    assert eq.compare(small_record, moved)["changed"][0][1] == "tied"
    assert eq.compare({**small_record, "tie_rtol": 0.0}, moved)["changed"][0][1] == "other"
    missing = copy.deepcopy(small_record)
    del missing["runs"][key]
    assert eq.compare(small_record, missing)["changed"][0][:2] == (key, "other")


def test_survey_records_every_policy_and_start(small_record):
    survey = {k: r for k, r in small_record["runs"].items() if r["planner"] == "survey"}
    starts = [c for c in small_record["cases"] if c["name"].split("-")[0] in eq.FITS]
    assert len(starts) == 2
    assert len(survey) == len(eq.SURVEY_POLICIES) * len(starts)
    for c in starts:
        for policy in eq.SURVEY_POLICIES:
            run = survey[f"survey/{policy}/{c['name']}"]
            assert run["refusal"] is None and run["path"] is None
            assert float.fromhex(run["err"]) >= 0.0


def test_each_class_fires_on_a_perturbed_survey_record(small_record):
    key = next(k for k, r in small_record["runs"].items() if r["planner"] == "survey")
    run = small_record["runs"][key]

    def cls(**changes):
        result = eq.compare(small_record, perturbed(small_record, key, **changes))
        assert [c[0] for c in result["changed"]] == [key]
        return result["changed"][0][1]

    for field in ("value", "err"):
        x = float.fromhex(run[field])
        assert cls(**{field: float(np.nextafter(x, np.inf)).hex()}) == "close"
        assert cls(**{field: (x * (1 + 1e-6) + 1e-9).hex()}) == "other"
    assert cls(err=None) == "other"
    assert cls(refusal="FactorizationFailure", value=None, err=None) == "refusal"
    missing = copy.deepcopy(small_record)
    del missing["runs"][key]
    assert eq.compare(small_record, missing)["changed"][0][:2] == (key, "other")
    # survey rows carry no path, so a moved path shows as a moved value
    assert run["path"] is None


def test_compare_command_prints_the_class_table(small_record, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(small_record))
    key = next(iter(small_record["runs"]))
    b.write_text(json.dumps(perturbed(small_record, key, refusal="SingularCovariance")))
    assert eq.main(["compare", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["planner", "noise", *eq.CLASSES]
    assert lines[-1].startswith(f"refusal: {key}:")


def test_exact_and_audit_record_their_fields(small_record):
    runs = small_record["runs"]
    for case in small_record["cases"]:
        run = runs[f"exact/{case['name']}"]
        if math.comb(case["rows"], case["k"]) ** (case["cols"] - 1) > eq.EXACT_LEAVES:
            assert run["refusal"] == "BudgetExceeded"
            assert not any(k.startswith(f"audit/{case['name']}/") for k in runs)
            continue
        assert run["refusal"] is None
        gains = [float.fromhex(g) for g in run["gains"]]
        assert len(gains) == case["cols"] - 1
        assert sum(gains) == pytest.approx(float.fromhex(run["value"]), abs=1e-9)
    audits = [r for r in runs.values() if r["planner"] == "audit"]
    answered = [r for r in audits if r["refusal"] is None]
    # the bounds family's tables are finite, the other families' are not
    assert answered and len(answered) < len(audits)
    assert {r["group"] for r in answered} == {"0", "1e-6", ">=1e-3"}
    for r in answered:
        assert r["path"] is None and len(r["flags"]) == 3
        exact, markov = float.fromhex(r["value"]), float.fromhex(r["markov"])
        assert exact <= markov + 1e-9 and float.fromhex(r["rollout"]) <= exact + 1e-9


def test_each_class_fires_on_a_perturbed_exact_record(small_record):
    runs = small_record["runs"]
    key = next(k for k, r in runs.items() if r["planner"] == "exact" and r["refusal"] is None)
    run = runs[key]
    gains = [float.fromhex(g) for g in run["gains"]]
    value = float.fromhex(run["value"])
    path = copy.deepcopy(run["path"])
    path[-1] = [r + 1 for r in path[-1]]

    def cls(**changes):
        result = eq.compare(small_record, perturbed(small_record, key, **changes))
        assert [c[0] for c in result["changed"]] == [key]
        return result["changed"][0][1]

    # stage gains are compared as the value is
    assert cls(gains=eq.hexes([np.nextafter(gains[0], np.inf), *gains[1:]])) == "close"
    assert cls(gains=eq.hexes([gains[0] * (1 + 1e-6) + 1e-9, *gains[1:]])) == "other"
    assert cls(gains=run["gains"][:-1]) == "other"
    assert cls(gains=None) == "other"
    # a tied path has other gains; only its value is judged
    assert cls(path=path, gains=eq.hexes(g + 1.0 for g in gains)) == "tied"
    assert cls(path=path, value=(value + 1e-6 * max(abs(value), 1)).hex()) == "other"
    assert cls(refusal="SingularCovariance", value=None, path=None, gains=None) == "refusal"


def test_each_class_fires_on_a_perturbed_audit_record(small_record):
    runs = small_record["runs"]
    key = next(k for k, r in runs.items() if r["planner"] == "audit" and r["refusal"] is None)
    run = runs[key]

    def cls(**changes):
        result = eq.compare(small_record, perturbed(small_record, key, **changes))
        assert [c[0] for c in result["changed"]] == [key]
        return result["changed"][0][1]

    for field in ("value", "markov", "rollout"):
        x = float.fromhex(run[field])
        assert cls(**{field: float(np.nextafter(x, np.inf)).hex()}) == "close"
        assert cls(**{field: (x * (1 + 1e-6) + 1e-9).hex()}) == "other"
    for flag in range(3):
        flags = list(run["flags"])
        flags[flag] = not flags[flag]
        assert cls(flags=flags) == "other"
    assert cls(rollout=None) == "other"
    assert cls(refusal="ConditionViolated", value=None, markov=None, rollout=None) == "refusal"
    missing = copy.deepcopy(small_record)
    del missing["runs"][key]
    assert eq.compare(small_record, missing)["changed"][0][:2] == (key, "other")
