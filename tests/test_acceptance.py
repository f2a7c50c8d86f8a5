"""Whole-package acceptance checks.

Each test covers one shipping criterion and prints a single verdict line,
so ``pytest tests/test_acceptance.py -v -s`` reads as a checklist. Sample
sizes and tolerances are fixed on purpose: a red run means the package
broke, not that the numbers need adjusting.
"""

import itertools
import time
import warnings

import numpy as np
import pytest

from transectplan import (
    AnisotropyViolated,
    BoundParams,
    ConditionViolated,
    Hyperparams,
    Location,
    TransectGrid,
    bound_params,
    bound_report,
    enumerate_configs,
    evaluate,
    gaussian_entropy,
    metric_diff,
    plan,
    plan_markov,
    rollout,
    sample_prior_field,
    stage_mi_bound,
    suboptimality_bound,
    team_mi_bound,
    variance_reduction_bound,
    verify_performance_bounds,
)
from transectplan import planners

from oracles import (
    cond_mutual_info,
    gram,
    oracle_markov_best,
    posterior_cov,
    random_hyperparams,
    scaled_grid,
)


def verdict(name, ok, detail=""):
    """Print one pass/fail line for a criterion, then enforce it."""
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line = f"{line} ({detail})"
    print(line)
    assert ok, line


# ------------------------------------------------ 1. planner correctness


def test_dp_value_matches_exhaustive_search():
    """Backward sweep equals brute force over every action sequence, from
    every start, on a sweep of random small instances."""
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    starts = 0
    for j in range(20):
        n_rows = 2 + j % 2
        n_cols = 3 + j % 3
        k = 2 if j % 4 == 3 else 1
        g, h = scaled_grid(rng, n_rows, n_cols, random_hyperparams(rng))
        pol = plan_markov(g, h, k)
        for x0 in enumerate_configs(g, k):
            gap = abs(pol.value(0, x0) - oracle_markov_best(g, h, k, x0))
            worst = max(worst, gap)
            starts += 1
    took = time.perf_counter() - t0
    verdict(
        "dp equals exhaustive search",
        worst <= 1e-9 and took < 120.0,
        f"20 draws, {starts} starts, worst gap {worst:.1e}, {took:.1f}s",
    )


# --------------------------------------- 2 and 3. guarantee audit campaign


@pytest.fixture(scope="module")
def audit_campaign():
    """1000 random small instances with finite bound tables, each audited
    against the exhaustive planner from every start. Shared by the two
    campaign criteria below; instances whose validity condition fails are
    redrawn rather than counted."""
    rng = np.random.default_rng(20260822)
    reports = []
    t0 = time.perf_counter()
    while len(reports) < 1000:
        n_rows = int(rng.integers(2, 5))
        n_cols = int(rng.integers(3, 6))
        g, h = scaled_grid(rng, n_rows, n_cols, random_hyperparams(rng, easy=True))
        if not bound_report(h, g.widths, g.horizon).condition_ok:
            continue
        reports.append(verify_performance_bounds(g, h, k=1))
    return reports, time.perf_counter() - t0


def test_optimum_bracketed_by_dp_value_and_gap_bound(audit_campaign):
    reports, took = audit_campaign
    audits = [a for rep in reports for a in rep.audits]
    bad = sum(not a.value_bracket_ok for a in audits)
    bad_stage = sum(not a.stage_bracket_ok for a in audits)
    verdict(
        "optimum bracketed by dp value minus gap bound",
        bad == 0 and bad_stage == 0 and took < 600.0,
        f"{len(reports)} instances, {len(audits)} starts, "
        f"{bad} bracket and {bad_stage} stagewise violations, {took:.0f}s",
    )


def test_executed_policy_within_gap_bound(audit_campaign):
    reports, _ = audit_campaign
    audits = [a for rep in reports for a in rep.audits]
    bad = sum(not a.rollout_gap_ok for a in audits)
    verdict(
        "executed dp policy within gap bound of optimum",
        bad == 0,
        f"{len(audits)} rollouts, {bad} violations",
    )


# ------------------------------- 4. single-robot per-stage information caps


def test_single_robot_conditioning_caps():
    """History two or more columns back contributes at most the closed-form
    ceilings, both in mutual information and in variance reduction."""
    rng = np.random.default_rng(41)
    kept = mi_bad = vr_bad = 0
    while kept < 1000:
        i = int(rng.integers(1, 5))
        n_rows = int(rng.integers(2, 6))
        g, h = scaled_grid(rng, n_rows, i + 2, random_hyperparams(rng, easy=True))
        p = bound_params(h, g.widths)
        try:
            mi_cap = stage_mi_bound(i, p)
            vr_cap = variance_reduction_bound(i, p)
        except ConditionViolated:
            continue
        past = [Location(c, int(rng.integers(n_rows))) for c in range(i)]
        cur = Location(i, int(rng.integers(n_rows)))
        nxt = Location(i + 1, int(rng.integers(n_rows)))
        mi = cond_mutual_info([nxt], past, [cur], h, g.widths)
        var_cur = posterior_cov([nxt], [cur], h, g.widths)[0, 0]
        var_all = posterior_cov([nxt], [cur] + past, h, g.widths)[0, 0]
        reduction = var_cur - var_all
        if not -1e-9 <= mi <= mi_cap + 1e-9:
            mi_bad += 1
        if not -1e-9 <= reduction <= vr_cap + 1e-9:
            vr_bad += 1
        kept += 1
    verdict(
        "single-robot information and variance caps",
        mi_bad == 0 and vr_bad == 0,
        f"{kept} instances, {mi_bad} information and {vr_bad} variance violations",
    )


# ------------------------------------------ 5. team per-stage information cap


def rows_pair(rng, n_rows):
    a, b = sorted(rng.choice(n_rows, size=2, replace=False).tolist())
    return int(a), int(b)


def contraction_holds(cells, history, h, widths, tol=1e-9):
    """Spot-check that conditioning on the whole history never leaves a
    tracked pairwise covariance larger in magnitude than conditioning on
    any single history member."""
    for u, v in itertools.combinations(cells, 2):
        full = posterior_cov([u, v], history, h, widths)[0, 1]
        for m in history:
            single = posterior_cov([u, v], [m], h, widths)[0, 1]
            if abs(full) > abs(single) + tol:
                return False
    return True


def test_team_conditioning_cap():
    """Two-robot column teams obey the team information ceiling. The
    ceiling rests on covariance contraction, which square-exponential
    models can break, so a violation is tolerated only on instances where
    the spot-check finds a concrete contraction counterexample."""
    rng = np.random.default_rng(52)
    kept = over = unexplained = 0
    while kept < 300:
        i = int(rng.integers(1, 4))
        n_rows = int(rng.integers(2, 6))
        # equal normalized length-scales, as the team ceiling requires
        nell = float(rng.uniform(0.2, 0.8))
        omega1 = float(rng.uniform(1.0, 10.0))
        omega2 = float(rng.uniform(1.0, 10.0))
        signal = float(rng.uniform(0.05, 5.0))
        noise = signal * float(rng.uniform(0.005, 0.5))
        h = Hyperparams(nell * omega1, nell * omega2, signal, noise)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = TransectGrid(n_rows, i + 2, omega1, omega2)
        try:
            cap = team_mi_bound(i, 2, bound_params(h, g.widths))
        except (ConditionViolated, AnisotropyViolated):
            continue
        past = [Location(c, row) for c in range(i) for row in rows_pair(rng, n_rows)]
        cur = [Location(i, row) for row in rows_pair(rng, n_rows)]
        nxt = [Location(i + 1, row) for row in rows_pair(rng, n_rows)]
        mi = cond_mutual_info(nxt, past, cur, h, g.widths)
        if mi > cap + 1e-9:
            over += 1
            if contraction_holds(nxt + cur, past, h, g.widths):
                unexplained += 1
        kept += 1
    verdict(
        "team information cap",
        unexplained == 0,
        f"{kept} instances, {over} over the cap, "
        f"{over - unexplained} explained by contraction counterexamples",
    )


# --------------------------------------------------- 6. runtime behaviour


def min_times(fns, n=7):
    # the minimum, not the median: a host stall only ever adds time, so the
    # fastest of several calls is the one least disturbed by other load; and
    # round-robin, each of n rounds timing every call once, so a stretch of
    # load lands on all the calls compared rather than on one of them
    times = {key: [] for key in fns}
    for _ in range(n):
        for key, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            times[key].append(time.perf_counter() - t0)
    return {key: min(t) for key, t in times.items()}


def whole_markov(grid, h, k):
    # plan_markov with no kept stage table, so every timed call builds the
    # table as well as sweeping, as the first call does
    planners._stage_table.cache_clear()
    return plan_markov(grid, h, k)


def test_runtime_scaling():
    """The dp planner stays near-flat as columns double, the exhaustive
    planner grows geometrically per added column, and one dp sweep beats
    running the greedy planner from every start."""
    h = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.1)

    dp_legs = {}
    for n_cols in (15, 30, 60):
        g = TransectGrid(5, n_cols, 5.0, 5.0)
        dp_legs[n_cols] = lambda g=g: whole_markov(g, h, 1)
    dp_times = min_times(dp_legs)
    dp_ok = (
        dp_times[30] / dp_times[15] <= 2.5 and dp_times[60] / dp_times[30] <= 2.5
    )

    # 729, 2,187 and 6,561 leaves: enough that the leaf count, not a fixed
    # cost per search level, sets the time
    ex_legs = {}
    for n_cols in (7, 8, 9):
        g = TransectGrid(3, n_cols, 5.0, 5.0)
        x0 = enumerate_configs(g, 1)[0]
        ex_legs[n_cols] = lambda g=g, x0=x0: plan("exact", g, h, 1, x0)
    ex_times = min_times(ex_legs)
    ex_ok = (
        ex_times[8] / ex_times[7] >= 1.5 and ex_times[9] / ex_times[8] >= 1.5
    )

    g = TransectGrid(5, 30, 5.0, 5.0)
    amortized = min_times(
        {
            "dp": lambda: whole_markov(g, h, 1),
            "greedy": lambda: [plan("greedy-ent", g, h, 1, x0) for x0 in enumerate_configs(g, 1)],
        }
    )
    dp_once, greedy_all = amortized["dp"], amortized["greedy"]
    amortized_ok = dp_once < greedy_all

    # one verdict per leg, so a failure names the leg that failed
    verdict(
        "dp planner stays near-flat as columns double",
        dp_ok,
        f"dp doubling ratios {dp_times[30] / dp_times[15]:.2f}/"
        f"{dp_times[60] / dp_times[30]:.2f}",
    )
    verdict(
        "exhaustive planner grows geometrically per added column",
        ex_ok,
        "exhaustive per-column ratios "
        f"{ex_times[8] / ex_times[7]:.2f}/{ex_times[9] / ex_times[8]:.2f}",
    )
    verdict(
        "one dp sweep beats greedy from every start",
        amortized_ok,
        f"dp once {dp_once * 1e3:.1f}ms vs greedy all starts {greedy_all * 1e3:.0f}ms",
    )


# ------------------------------------------------- 7. survey noise regimes


def test_survey_noise_ratios():
    """Both reference survey parameterizations sit in the low-noise regime
    the bounds assume, at two significant figures."""
    temperature = Hyperparams(ell1=40.45, ell2=16.0, signal_var=0.1542, noise_var=0.0036)
    plankton = Hyperparams(ell1=27.53, ell2=134.64, signal_var=2.152, noise_var=0.041)
    ratio_t = f"{temperature.noise_var / temperature.signal_var:.2g}"
    ratio_p = f"{plankton.noise_var / plankton.signal_var:.2g}"
    verdict(
        "survey noise-to-signal ratios",
        ratio_t == "0.023" and ratio_p == "0.019",
        f"temperature {ratio_t}, plankton {ratio_p}",
    )


# ------------------------------------- 8. where the dp planner earns its keep


def test_long_correlation_widens_planner_gap():
    """Entropy-metric gap between the dp planner and the full-history
    greedy planner grows with the horizontal length-scale. The entropy
    metric never reads sampled field values, so averaging over synthetic
    fields would repeat one number per start; the average here runs over
    starts, which is the whole spread."""
    mean_gap = {}
    for ell1 in (5.0, 40.0):
        h = Hyperparams(ell1=ell1, ell2=16.0, signal_var=0.1542, noise_var=0.0036)
        g = TransectGrid(5, 30, 5.0, 5.0)
        pol = plan_markov(g, h, 1)
        gaps = []
        for x0 in enumerate_configs(g, 1):
            dp_rec = evaluate(rollout(pol, x0), h, "markov")
            greedy_rec = evaluate(plan("greedy-ent", g, h, 1, x0).path, h, "greedy-ent")
            gaps.append(metric_diff(dp_rec, greedy_rec)[0])
        mean_gap[ell1] = float(np.mean(gaps))
    verdict(
        "longer correlation widens the planner gap",
        mean_gap[5.0] <= mean_gap[40.0],
        f"mean entropy gap {mean_gap[5.0]:.4f} at ell1=5 "
        f"vs {mean_gap[40.0]:.4f} at ell1=40",
    )


# -------------------------------------------------- 9. structural invariants


def test_information_identities_and_bound_shape():
    """Six invariant families: the entropy chain rule, measurement
    independence of the entropy metric, entropy normalization, monotone
    information, growth of the per-stage ceiling, and the summed tail
    never beating its cheap over-estimate."""
    rng = np.random.default_rng(99)
    failures = []

    for _ in range(30):
        g, h = scaled_grid(rng, 4, 5, random_hyperparams(rng))
        locs = g.locations()
        idx = rng.permutation(len(locs))
        na = int(rng.integers(1, 6))
        nb = int(rng.integers(1, 6))
        part_a = [locs[i] for i in idx[:na]]
        part_b = [locs[i] for i in idx[na : na + nb]]
        joint = gaussian_entropy(gram(part_a + part_b, h, g.widths))
        split = gaussian_entropy(posterior_cov(part_a, part_b, h, g.widths))
        split += gaussian_entropy(gram(part_b, h, g.widths))
        if abs(joint - split) > 1e-9:
            failures.append("chain rule")
            break

    h = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.1)
    ents = []
    for seed in (0, 1):
        g = TransectGrid(3, 6, 5.0, 5.0)
        z = sample_prior_field(g, h, seed=seed, mean=10.0)
        gm = TransectGrid(3, 6, 5.0, 5.0, measurements=z)
        pol = plan_markov(gm, h, 1)
        rec = evaluate(rollout(pol, enumerate_configs(gm, 1)[0]), h, "markov")
        ents.append(rec.ent)
    if ents[0] != ents[1]:
        failures.append("measurement independence")

    if abs(gaussian_entropy(np.array([[1.0 / (2.0 * np.pi * np.e)]]))) > 1e-12:
        failures.append("entropy normalization")

    for _ in range(30):
        g, h2 = scaled_grid(rng, 4, 5, random_hyperparams(rng))
        locs = g.locations()
        idx = rng.permutation(len(locs))
        targets = [locs[i] for i in idx[:3]]
        obs = [locs[i] for i in idx[3:7]]
        extra = [locs[i] for i in idx[7:10]]
        wider = gaussian_entropy(posterior_cov(targets, obs + extra, h2, g.widths))
        if wider > gaussian_entropy(posterior_cov(targets, obs, h2, g.widths)) + 1e-9:
            failures.append("monotone information")
            break

    p = BoundParams(
        step_corr=0.3, variance_ratio=2.0, norm_ell1=1.0, norm_ell2=1.0, signal_var=1.0
    )
    deltas = [stage_mi_bound(s, p) for s in range(5)]
    if any(deltas[s + 1] < deltas[s] for s in range(4)):
        failures.append("stage ceiling growth")

    for i in range(5):
        tight, loose = suboptimality_bound(i, 4, p)
        if not (tight <= loose and loose == (4 - i + 1) * deltas[4]):
            failures.append("tail versus loose tail")
            break

    verdict(
        "information identities and bound shape",
        not failures,
        "all six families hold" if not failures else ", ".join(failures),
    )
