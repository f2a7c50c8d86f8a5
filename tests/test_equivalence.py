import copy
import importlib.util
import json
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
    # one desk-sized case per corpus family and noise group
    picked, seen = [], set()
    for case in eq.corpus():
        kind = (case.name.split("-")[0], case.group)
        if case.rows * case.cols <= 30 and kind not in seen:
            seen.add(kind)
            picked.append(case)
    return eq.record(picked)


def test_corpus_covers_the_hard_regimes():
    cases = eq.corpus()
    assert {c.group for c in cases} == {"0", "1e-6", ">=1e-3"}
    assert {c.noise_var / c.signal_var for c in cases if c.name.startswith("random")} == set(
        eq.NOISE_RATIOS
    )
    assert {c.name.split("-")[0] for c in cases} >= {"random", "temperature", "plankton", "mirror"}
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


def test_compare_command_prints_the_class_table(small_record, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(small_record))
    key = next(iter(small_record["runs"]))
    b.write_text(json.dumps(perturbed(small_record, key, refusal="SingularCovariance")))
    assert eq.main(["compare", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["planner", "noise", *eq.CLASSES]
    assert lines[-1].startswith(f"refusal: {key}:")
