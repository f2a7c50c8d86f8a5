"""Each reference check passes on a real op and fails on a perturbed output.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses

import numpy as np
import pytest

import reference as ref
import transectplan as tp
import workloads as W


def op(cls, tmp_path_factory):
    wl = cls(tmp_path_factory.mktemp(cls.name))
    inp = wl.inputs(np.random.default_rng(0), 0)
    return wl, inp, wl.run(inp)


def fails(wl, inp, out, words: str) -> bool:
    errors = wl.check(inp, out)
    return any(words in e for e in errors)


# ------------------------------------------------------------ markov_table


@pytest.fixture(scope="module")
def markov(tmp_path_factory):
    return op(W.MarkovTable, tmp_path_factory)


def test_markov_op_passes(markov):
    wl, inp, out = markov
    assert out["table"] is not None
    assert wl.check(inp, out) == []


def test_markov_table_entry(markov):
    wl, inp, out = markov
    out = dict(out, table=out["table"].copy())
    out["table"][3, 5] += 1e-6
    assert fails(wl, inp, out, "stage table")


def with_policy(out, **arrays):
    return dict(out, policy=dataclasses.replace(out["policy"], **arrays))


def test_markov_value(markov):
    wl, inp, out = markov
    values = out["policy"].values.copy()
    values[5, 7] += 1e-6
    assert fails(wl, inp, with_policy(out, values=values), "Bellman")


def test_markov_action(markov):
    wl, inp, out = markov
    pol = out["policy"]
    table = ref.stage_table(wl.ROWS, wl.K, inp["h"], W.WIDTHS)
    actions = pol.actions.copy()
    actions[0, 0] = int(np.argmin(table[0] + pol.values[1]))
    assert fails(wl, inp, with_policy(out, actions=actions), "not a maximizer")


def test_markov_path_entropy(markov):
    wl, inp, out = markov
    ents = list(out["ents"])
    ents[4] += 1e-6
    assert fails(wl, inp, dict(out, ents=ents), "path entropy")


def test_markov_value_below_path_entropy(markov):
    wl, inp, out = markov
    ents = list(out["ents"])
    ents[2] = float(out["policy"].values[0, 2]) + 1.0
    assert fails(wl, inp, dict(out, ents=ents), "below the path's entropy")


def test_markov_rollout(markov):
    wl, inp, out = markov
    paths = list(out["paths"])
    paths[0] = paths[1]
    assert fails(wl, inp, dict(out, paths=paths), "does not follow")


# ------------------------------------------------------------ survey_bench


@pytest.fixture(scope="module")
def survey(tmp_path_factory):
    return op(W.SurveyBench, tmp_path_factory)


def test_survey_op_passes(survey):
    wl, inp, out = survey
    assert wl.check(inp, out) == []


def with_record(out, j, **fields):
    evaluated = list(out["evaluated"])
    path, kind, rec = evaluated[j]
    evaluated[j] = (path, kind, dataclasses.replace(rec, **fields))
    return dict(out, evaluated=evaluated)


def test_survey_ent(survey):
    wl, inp, out = survey
    rec = out["evaluated"][3][2]
    assert fails(wl, inp, with_record(out, 3, ent=rec.ent + 1e-6), "ent differs")


def test_survey_err(survey):
    wl, inp, out = survey
    assert fails(wl, inp, with_record(out, 2, err=-1e-3), "nonnegative")


@pytest.mark.parametrize("kind", ["greedy-ent", "greedy-mi"])
def test_survey_greedy_choice(survey, kind):
    wl, inp, out = survey
    j = next(j for j, (_, k, _) in enumerate(out["evaluated"]) if k == kind)
    path, _, rec = out["evaluated"][j]
    spec = inp["spec"]
    visited = W.path_cells(path)[: wl.K]
    scores = ref.greedy_scores(kind, wl.ROWS, wl.COLS, wl.K, visited, 1, spec.h, W.WIDTHS)
    worst = tp.RobotConfig(ref.configs(wl.ROWS, wl.K)[int(np.argmin(scores))])
    configs = list(path.configs)
    configs[1] = worst
    evaluated = list(out["evaluated"])
    evaluated[j] = (tp.ObservationPath(path.grid, tuple(configs)), kind, rec)
    assert fails(wl, inp, dict(out, evaluated=evaluated), "column 1 choice")


def test_survey_csv(survey, tmp_path):
    wl, inp, out = survey
    text = inp["csv"].read_text()
    ent = "%.17g" % out["rows"][0]["ent"]
    bad = tmp_path / "bad.csv"
    bad.write_text(text.replace(ent, "%.17g" % (out["rows"][0]["ent"] + 1e-9), 1))
    assert fails(wl, dict(inp, csv=bad), out, "does not read back")


# ------------------------------------------------------------- bound_audit


@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    return op(W.BoundAudit, tmp_path_factory)


def test_audit_op_passes(audit):
    wl, inp, report = audit
    assert wl.check(inp, report) == []


def with_audit(report, s, **fields):
    audits = list(report.audits)
    audits[s] = dataclasses.replace(audits[s], **fields)
    return dataclasses.replace(report, audits=tuple(audits))


def test_audit_exact_value(audit):
    wl, inp, report = audit
    a = report.audits[1]
    bad = with_audit(report, 1, exact_value=a.exact_value + 1e-6)
    assert fails(wl, inp, bad, "brute force")


def test_audit_markov_value(audit):
    wl, inp, report = audit
    a = report.audits[2]
    bad = with_audit(report, 2, markov_value=a.markov_value - 1e-6)
    assert fails(wl, inp, bad, "markov value differs")


def test_audit_upper_bracket(audit):
    wl, inp, report = audit
    a = report.audits[0]
    bad = with_audit(report, 0, exact_value=a.markov_value + 1e-3)
    assert fails(wl, inp, bad, "above the markov value")


def test_audit_lower_bracket(audit):
    wl, inp, report = audit
    a = report.audits[0]
    eps0 = float(report.tail_bounds[0])
    bad = with_audit(report, 0, exact_value=a.markov_value - eps0 - 1e-3)
    assert fails(wl, inp, bad, "below markov - tail_bound[0]")


# --------------------------------------------------------------- field_cli


@pytest.fixture(scope="module")
def field(tmp_path_factory):
    return op(W.FieldCli, tmp_path_factory)


def test_field_op_passes(field):
    wl, inp, out = field
    assert wl.check(inp, out) == []


def rewritten(inp, tmp_path, transform):
    """Copy the op's field and sidecar, passing the field text through
    ``transform``."""
    src = inp["field"]
    dst = tmp_path / src.name
    dst.write_text(transform(src.read_text()))
    dst.with_suffix(".meta").write_text(src.with_suffix(".meta").read_text())
    return dict(inp, field=dst)


def test_field_sha(field, tmp_path):
    wl, inp, out = field
    bad = rewritten(inp, tmp_path, lambda t: t.replace("\n", "\r\n"))
    assert fails(wl, bad, out, "sha256")


def test_field_digits(field, tmp_path):
    wl, inp, out = field
    bad = rewritten(inp, tmp_path, lambda t: t.replace(",", "0,", 1))
    assert fails(wl, bad, out, "exactly")


def test_field_sidecar(field, tmp_path):
    wl, inp, out = field
    bad = rewritten(inp, tmp_path, lambda t: t)
    meta = bad["field"].with_suffix(".meta")
    meta.write_text(meta.read_text().replace(f"seed={inp['seed']}", f"seed={inp['seed'] + 1}"))
    assert fails(wl, bad, out, "sidecar seed")


def test_field_whitening(field, tmp_path):
    wl, inp, out = field

    def inflate(text):
        z = np.array([[float(t) for t in line.split(",")] for line in text.splitlines()])
        z = wl.MEAN + 1.5 * (z - wl.MEAN)
        return "\n".join(",".join("%.17g" % v for v in row) for row in z) + "\n"

    assert fails(wl, rewritten(inp, tmp_path, inflate), out, "whitened")


def test_field_plan_value(field):
    wl, inp, out = field
    plan = dict(out["plan"], value=repr(float(out["plan"]["value"]) + 1e-6))
    assert fails(wl, inp, dict(out, plan=plan), "dp value")


def test_field_plan_length(field):
    wl, inp, out = field
    plan = dict(out["plan"], path=out["plan"]["path"].rsplit("|", 1)[0])
    assert fails(wl, inp, dict(out, plan=plan), "does not span")


def test_field_plan_choice(field):
    wl, inp, out = field
    steps = out["plan"]["path"].split("|")
    steps[5] = "2,3" if steps[5] != "2,3" else "1,2"
    plan = dict(out["plan"], path="|".join(steps))
    assert fails(wl, inp, dict(out, plan=plan), "not a maximizer")

