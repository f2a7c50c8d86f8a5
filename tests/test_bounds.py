import math

import numpy as np
import pytest

from transectplan import (
    AnisotropyViolated,
    BoundParams,
    ConditionViolated,
    Hyperparams,
    RobotConfig,
    TransectGrid,
    bound_params,
    bound_report,
    check_covariance_contraction,
    stage_mi_bound,
    suboptimality_bound,
    team_mi_bound,
    variance_reduction_bound,
    verify_performance_bounds,
)
from transectplan import bounds, planners
from transectplan.errors import BudgetExceeded, FactorizationFailure, SingularCovariance

# frozen by a high-precision script before the implementation existed
EXP_HALF = 0.6065306597126334
EXP_TWO = 0.1353352832366127
STAGE_RHO2_XI03 = [
    0.0,
    0.0012488635672893704,
    0.0030383828822405624,
    0.0058166632480335404,
    0.010716113311753574,
]
TAIL0_RHO2_XI03 = 0.020820023009317047
LOOSE0_RHO2_XI03 = 0.05358056655876787
STAGE1_RHO2_XI05 = 0.012048775789530251
TEAM2_I2_RHO2_XI01 = 0.0001275591557313534
VR1_RHO2_XI05 = 0.041666666666666664


def params(xi, rho, nell=1.0, sig=1.0):
    return BoundParams(
        step_corr=xi,
        variance_ratio=rho,
        norm_ell1=nell,
        norm_ell2=nell,
        signal_var=sig,
    )


def h_for_step_corr(xi, omega=5.0, signal=1.0, noise=1.0):
    """Hyperparams whose normalized horizontal length-scale produces the
    requested adjacent-column correlation on an omega-spaced grid."""
    nell = math.sqrt(1.0 / (2.0 * math.log(1.0 / xi)))
    return Hyperparams(
        ell1=nell * omega, ell2=nell * omega, signal_var=signal, noise_var=noise
    )


# ------------------------------------------------------------------ params


def test_bound_params_from_survey_hyperparams():
    h = Hyperparams(ell1=40.45, ell2=16.00, signal_var=0.1542, noise_var=0.0036)
    p = bound_params(h, (5.0, 5.0))
    assert p.norm_ell1 == pytest.approx(8.09)
    assert p.norm_ell2 == pytest.approx(3.2)
    assert p.variance_ratio == pytest.approx(1.0 + 0.0036 / 0.1542, rel=1e-14)
    assert p.signal_var == 0.1542


def test_bound_params_unit_length_scale_gives_exp_half():
    h = Hyperparams(ell1=5.0, ell2=5.0, signal_var=1.0, noise_var=0.5)
    p = bound_params(h, (5.0, 5.0))
    assert p.step_corr == pytest.approx(EXP_HALF, rel=1e-15)
    p2 = bound_params(
        Hyperparams(ell1=2.5, ell2=5.0, signal_var=1.0, noise_var=0.5), (5.0, 5.0)
    )
    assert p2.step_corr == pytest.approx(EXP_TWO, rel=1e-15)


def test_bound_params_rejects_bad_widths():
    h = Hyperparams(ell1=1.0, ell2=1.0, signal_var=1.0, noise_var=0.1)
    with pytest.raises(ValueError):
        bound_params(h, (0.0, 1.0))


@pytest.mark.parametrize("ell1", [1e-200, 1e-320])
def test_bound_params_step_corr_reaches_its_limit(ell1):
    # 2 * norm_ell1^2 underflows to 0; step_corr -> 0 as ell1 / omega1 -> 0
    h = Hyperparams(ell1=ell1, ell2=1.0, signal_var=1.0, noise_var=0.1)
    p = bound_params(h, (1.0, 1.0))
    assert (p.step_corr, p.norm_ell1) == (0.0, ell1)
    report = bound_report(h, (1.0, 1.0), 3)
    assert report.condition_ok
    assert report.stage_bounds.tolist() == [0.0] * 4


# ------------------------------------------------------------- stage bound


def test_stage_bound_frozen_values():
    p = params(0.3, 2.0)
    for s, want in enumerate(STAGE_RHO2_XI03):
        assert stage_mi_bound(s, p) == pytest.approx(want, rel=1e-13, abs=0)
    assert stage_mi_bound(1, params(0.5, 2.0)) == pytest.approx(
        STAGE1_RHO2_XI05, rel=1e-13
    )


def test_stage_bound_zero_history_is_zero():
    assert stage_mi_bound(0, params(0.9, 1.01)) == 0.0


def test_stage_bound_rejects_negative_history():
    with pytest.raises(ValueError):
        stage_mi_bound(-1, params(0.3, 2.0))


def test_stage_bound_monotone_in_history():
    p = params(0.3, 2.0)
    vals = [stage_mi_bound(s, p) for s in range(6)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_stage_bound_condition_step_corr_vs_ratio():
    # rho/i = 0.5 exactly: the strict inequality must fail
    with pytest.raises(ConditionViolated):
        stage_mi_bound(4, params(0.5, 2.0))


def test_stage_bound_condition_log_argument():
    # step_corr < rho/i holds, yet the loss ratio exceeds 1
    with pytest.raises(ConditionViolated):
        stage_mi_bound(1, params(0.9, 1.0))


def test_stage_bound_vanishes_with_noise():
    # huge measurement noise makes history worthless: bound near zero
    assert stage_mi_bound(1, params(0.5, 100.0)) < 1e-4
    assert stage_mi_bound(1, params(0.5, 100.0)) < stage_mi_bound(
        1, params(0.5, 2.0)
    )


# -------------------------------------------------------------- team bound


def test_team_bound_frozen_value():
    assert team_mi_bound(2, 2, params(0.1, 2.0)) == pytest.approx(
        TEAM2_I2_RHO2_XI01, rel=1e-13
    )


def test_team_bound_zero_history_is_zero():
    assert team_mi_bound(0, 3, params(0.2, 2.0)) == 0.0


def test_team_bound_requires_isotropy():
    p = BoundParams(
        step_corr=0.1,
        variance_ratio=2.0,
        norm_ell1=1.0,
        norm_ell2=1.5,
        signal_var=1.0,
    )
    with pytest.raises(AnisotropyViolated):
        team_mi_bound(1, 2, p)


def test_team_bound_rejects_bad_team():
    with pytest.raises(ValueError):
        team_mi_bound(1, 0, params(0.1, 2.0))


def test_team_bound_condition_tightens_with_team():
    p = params(0.3, 2.0)
    stage_mi_bound(1, p)
    # rho/(4k) = 0.25 < step_corr once k = 2
    with pytest.raises(ConditionViolated):
        team_mi_bound(1, 2, p)


def test_team_bound_exceeds_single_robot_bound():
    # the k=1 team expression has a strictly smaller denominator than the
    # single-robot expression, so it can only be larger
    p = params(0.1, 2.0)
    for i in (1, 2, 3):
        assert team_mi_bound(i, 1, p) >= stage_mi_bound(i, p)


def test_team_bound_grows_with_team_size():
    p = params(0.05, 2.0)
    for i in (1, 2):
        assert team_mi_bound(i, 2, p) > team_mi_bound(i, 1, p)


# -------------------------------------------------- variance reduction bound


def test_variance_reduction_frozen_value():
    assert variance_reduction_bound(1, params(0.5, 2.0)) == pytest.approx(
        VR1_RHO2_XI05, rel=1e-14
    )


def test_variance_reduction_scales_with_signal():
    a = variance_reduction_bound(1, params(0.5, 2.0, sig=1.0))
    b = variance_reduction_bound(1, params(0.5, 2.0, sig=3.0))
    assert b == pytest.approx(3.0 * a, rel=1e-14)


def test_variance_reduction_monotone_in_history():
    p = params(0.3, 2.0)
    vals = [variance_reduction_bound(i, p) for i in (1, 2, 3, 4)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_variance_reduction_guards():
    with pytest.raises(ValueError):
        variance_reduction_bound(0, params(0.3, 2.0))
    with pytest.raises(ConditionViolated):
        variance_reduction_bound(4, params(0.5, 2.0))


# -------------------------------------------------------- suboptimality sum


def test_suboptimality_frozen_tail():
    p = params(0.3, 2.0)
    tight, loose = suboptimality_bound(0, 4, p)
    assert tight == pytest.approx(TAIL0_RHO2_XI03, rel=1e-13)
    assert loose == pytest.approx(LOOSE0_RHO2_XI03, rel=1e-13)


def test_suboptimality_last_stage_tail_is_single_term():
    p = params(0.3, 2.0)
    tight, loose = suboptimality_bound(4, 4, p)
    assert tight == pytest.approx(STAGE_RHO2_XI03[4], rel=1e-13)
    assert loose == pytest.approx(STAGE_RHO2_XI03[4], rel=1e-13)


def test_suboptimality_tight_never_exceeds_loose():
    p = params(0.3, 2.0)
    for i in range(5):
        tight, loose = suboptimality_bound(i, 4, p)
        assert tight <= loose + 1e-15


def test_suboptimality_stage_range_checked():
    p = params(0.3, 2.0)
    with pytest.raises(ValueError):
        suboptimality_bound(5, 4, p)
    with pytest.raises(ValueError):
        suboptimality_bound(-1, 4, p)


def test_suboptimality_team_variant_uses_team_bound():
    p = params(0.05, 2.0)
    tight, _ = suboptimality_bound(2, 2, p, team_size=2)
    assert tight == pytest.approx(team_mi_bound(2, 2, p), rel=1e-13)


def test_wider_column_spacing_tightens_the_bound():
    h = Hyperparams(ell1=5.0, ell2=5.0, signal_var=1.0, noise_var=1.5)
    tails = []
    for omega in (6.0, 8.0, 10.0, 14.0):
        p = bound_params(h, (omega, omega))
        tails.append(suboptimality_bound(0, 4, p)[0])
    assert all(b < a for a, b in zip(tails, tails[1:]))


# ------------------------------------------------------------- bound report


def test_bound_report_tables_consistent():
    h = h_for_step_corr(0.3, omega=5.0)
    rep = bound_report(h, (5.0, 5.0), horizon=4)
    assert rep.condition_ok
    assert rep.stage_bounds.shape == (5,)
    np.testing.assert_allclose(rep.stage_bounds, STAGE_RHO2_XI03, rtol=1e-12)
    for i in range(5):
        assert rep.tail_bounds[i] == pytest.approx(
            rep.stage_bounds[i:].sum(), rel=1e-13
        )
        assert rep.loose_tail_bounds[i] == pytest.approx(
            (4 - i + 1) * rep.stage_bounds[4], rel=1e-13
        )


def test_bound_report_nan_fills_invalid_stages():
    h = h_for_step_corr(0.6, omega=5.0)
    rep = bound_report(h, (5.0, 5.0), horizon=4)
    assert not rep.condition_ok
    assert np.isfinite(rep.stage_bounds[:3]).all()
    assert np.isnan(rep.stage_bounds[3:]).all()
    assert np.isnan(rep.tail_bounds[0])
    assert np.isnan(rep.loose_tail_bounds[0])
    # tails starting past the breakdown stay finite
    assert rep.stage_bounds[2] > rep.stage_bounds[1] > 0.0


def test_bound_report_rejects_negative_horizon():
    h = h_for_step_corr(0.3)
    with pytest.raises(ValueError):
        bound_report(h, (5.0, 5.0), horizon=-1)


# ------------------------------------------------------- contraction check


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_contraction_passes_when_correlation_underflows():
    h = Hyperparams(ell1=1e-3, ell2=1e-3, signal_var=1.0, noise_var=0.1)
    chk = check_covariance_contraction(
        TransectGrid(4, 6, 1.0, 1.0), h, trials=50, seed=0
    )
    assert chk.passed
    assert chk.counterexamples == ()
    assert chk.trials == 50


def test_contraction_counterexamples_reported_not_suppressed():
    # moderate length-scales violate the assumption often; the check must
    # say so with the offending tuples attached
    g = TransectGrid(5, 8, 1.0, 1.0)
    h = Hyperparams(ell1=0.8, ell2=0.8, signal_var=1.0, noise_var=0.02)
    chk = check_covariance_contraction(g, h, trials=100, seed=7)
    assert not chk.passed
    assert len(chk.counterexamples) > 0
    for v in chk.counterexamples:
        assert v.full_abs > v.single_abs + 1e-9
        assert v.conditioned_on in v.history


def test_contraction_deterministic_per_seed():
    g = TransectGrid(5, 8, 1.0, 1.0)
    h = Hyperparams(ell1=0.8, ell2=0.8, signal_var=1.0, noise_var=0.02)
    a = check_covariance_contraction(g, h, trials=40, seed=3)
    b = check_covariance_contraction(g, h, trials=40, seed=3)
    assert a == b


# --------------------------------------------------------- oracle audits


def test_verify_bounds_single_robot_instance():
    g = TransectGrid(3, 5, 5.0, 5.0)
    h = Hyperparams(ell1=2.5, ell2=2.5, signal_var=1.0, noise_var=1.0)
    rep = verify_performance_bounds(g, h, k=1)
    assert rep.condition_ok
    assert rep.value_bracket_ok
    assert rep.rollout_gap_ok
    assert len(rep.audits) == 3
    eps0 = rep.tail_bounds[0]
    for a in rep.audits:
        assert a.exact_value <= a.markov_value + 1e-9
        assert a.exact_value >= a.markov_value - eps0 - 1e-9
        assert a.rollout_value <= a.exact_value + 1e-9
        assert a.exact_value - a.rollout_value <= eps0 + 1e-9
        assert a.value_bracket_ok and a.rollout_gap_ok and a.stage_bracket_ok


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_verify_bounds_two_robot_instance():
    g = TransectGrid(4, 4, 5.0, 5.0)
    h = Hyperparams(ell1=2.5, ell2=2.5, signal_var=1.0, noise_var=1.0)
    rep = verify_performance_bounds(g, h, k=2)
    assert rep.condition_ok
    assert rep.value_bracket_ok
    assert rep.rollout_gap_ok
    assert len(rep.audits) == 6


@pytest.mark.parametrize("deeper, searched", [((0,), (2,)), ((2,), (0,))])
def test_verify_bounds_raises_the_first_failing_starts_error(monkeypatch, deeper, searched):
    # one start's search is refused, another start is searched and then its
    # rollout's value is refused; one start at a time, the earlier decides
    g = TransectGrid(3, 5, 5.0, 5.0)
    h = Hyperparams(ell1=2.5, ell2=2.5, signal_var=1.0, noise_var=1.0)
    real_level, real_value, real_values = (
        planners._level_entropies, planners.path_entropy, bounds.path_entropies
    )

    def level_entropies(gram, idx, first, moves):
        if np.any(np.all(first == searched, axis=1)):
            raise SingularCovariance("searching")
        return real_level(gram, idx, first, moves)

    def path_entropy(path, h):
        if path.start.rows == deeper:
            raise FactorizationFailure("valuing the rollout")
        return real_value(path, h)

    def path_entropies(paths, h):
        for path in paths:
            path_entropy(path, h)
        return real_values(paths, h)

    monkeypatch.setattr(planners, "_level_entropies", level_entropies)
    monkeypatch.setattr(bounds, "path_entropies", path_entropies)
    first_error = FactorizationFailure if deeper < searched else SingularCovariance
    with pytest.raises(first_error):
        verify_performance_bounds(g, h, k=1)


def audit_draws(count, seed, ratios=(0.005, 0.5)):
    """(grid, h) drawn as the bound_audit benchmark draws them: 4 x 6 cells
    of 5 m, noise ratio uniform in ``ratios``, redrawn until the bound
    tables are finite."""
    rng = np.random.default_rng(seed)
    g = TransectGrid(4, 6, 5.0, 5.0)
    while count:
        signal = rng.uniform(0.05, 5.0)
        h = Hyperparams(
            ell1=5.0 * rng.uniform(0.2, 0.8),
            ell2=5.0 * rng.uniform(0.2, 2.0),
            signal_var=signal,
            noise_var=signal * rng.uniform(*ratios),
        )
        if bound_report(h, g.widths, g.horizon).condition_ok:
            count -= 1
            yield g, h


def test_verify_bounds_audits_match_one_start_at_a_time():
    # every instance is pruned (noise ratio at least PRUNE_NOISE_RATIO), and
    # its exact values keep the bits of the unpruned one-start search
    g = TransectGrid(3, 5, 5.0, 5.0)
    h = Hyperparams(ell1=2.5, ell2=2.5, signal_var=1.0, noise_var=1.0)
    for g, h in [(g, h), *audit_draws(6, seed=11)]:
        assert h.noise_var >= bounds.PRUNE_NOISE_RATIO * h.signal_var
        rep = verify_performance_bounds(g, h, k=1)
        policy = planners.plan_markov(g, h, 1)
        for a in rep.audits:
            assert a.exact_value == planners.plan("exact", g, h, 1, a.start).value
            assert a.rollout_value == planners.path_entropy(planners.rollout(policy, a.start), h)
        assert [a.start for a in rep.audits] == [RobotConfig((r,)) for r in range(g.n_rows)]


def scored_nodes(monkeypatch):
    """Patch the exhaustive level scores to count the nodes scored."""
    real = planners._level_entropies
    scored = [0]

    def level_entropies(gram, idx, first, moves):
        scored[0] += len(first)
        return real(gram, idx, first, moves)

    monkeypatch.setattr(planners, "_level_entropies", level_entropies)
    return scored


# an unpruned 4 x 6, k=1 search scores 1 + 4 + 16 + 64 + 256 nodes per start
UNPRUNED_4X6 = 4 * 341


def test_verify_bounds_prunes_bound_audit_draws(monkeypatch):
    scored = scored_nodes(monkeypatch)
    for g, h in audit_draws(32, seed=5):
        verify_performance_bounds(g, h, k=1)
    assert scored[0] <= 32 * UNPRUNED_4X6 / 4


def test_verify_bounds_scores_every_node_below_the_noise_floor(monkeypatch):
    scored = scored_nodes(monkeypatch)
    draws = list(audit_draws(4, seed=7, ratios=(1e-6, bounds.PRUNE_NOISE_RATIO)))
    for g, h in draws:
        assert h.noise_var < bounds.PRUNE_NOISE_RATIO * h.signal_var
        verify_performance_bounds(g, h, k=1)
    assert scored[0] == len(draws) * UNPRUNED_4X6


def test_verify_bounds_raises_when_condition_unmet():
    g = TransectGrid(3, 5, 5.0, 5.0)
    h = Hyperparams(ell1=4.0, ell2=4.0, signal_var=1.0, noise_var=0.01)
    with pytest.raises(ConditionViolated):
        verify_performance_bounds(g, h, k=1)


def test_verify_bounds_refuses_an_oversized_instance_before_any_table(monkeypatch):
    # 220^39 leaves: the budget refuses before a Markov table is built, so
    # even a table that would refuse is never reached
    built = []

    def plan_markov(*args):
        built.append(args)
        raise SingularCovariance("the table refuses")

    monkeypatch.setattr(bounds, "plan_markov", plan_markov)
    g = TransectGrid(12, 40, 5.0, 5.0)
    h = Hyperparams(ell1=2.5, ell2=2.5, signal_var=1.0, noise_var=30.0)
    assert bound_report(h, g.widths, g.horizon, team_size=3).condition_ok
    with pytest.raises(BudgetExceeded):
        verify_performance_bounds(g, h, k=3)
    assert built == []


def test_verify_bounds_near_tight_when_noise_dominates():
    # variance_ratio far above 1 makes single-column conditioning almost
    # lossless, so all three values collapse to within the tiny bound
    g = TransectGrid(3, 5, 5.0, 5.0)
    h = Hyperparams(ell1=2.5, ell2=2.5, signal_var=0.05, noise_var=5.0)
    rep = verify_performance_bounds(g, h, k=1)
    eps0 = rep.tail_bounds[0]
    assert eps0 < 1e-5
    for a in rep.audits:
        assert abs(a.markov_value - a.exact_value) <= eps0 + 1e-9
        assert abs(a.exact_value - a.rollout_value) <= eps0 + 1e-9
