import dataclasses
import time

import numpy as np
import pytest

from transectplan import gp, metrics
from transectplan import (
    EmptyUnobservedSet,
    EvalRecord,
    Hyperparams,
    Location,
    MismatchedInstances,
    ObservationPath,
    RobotConfig,
    TransectGrid,
    ZeroMeanField,
    evaluate,
    gaussian_entropy,
    metric_diff,
    plan,
    plan_markov,
    rollout,
    sample_prior_field,
    unobserved_entropy,
    relative_error,
)

from oracles import gram, oracle_cond_entropy, posterior_cov

H = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.1)

SURVEY_FITS = {
    "temperature": Hyperparams(ell1=40.45, ell2=16.0, signal_var=0.1542, noise_var=0.0036),
    "plankton": Hyperparams(ell1=27.53, ell2=134.64, signal_var=2.152, noise_var=0.041),
}


def path_of(g, rows_per_col):
    return ObservationPath(g, tuple(RobotConfig(r) for r in rows_per_col))


def measured_grid(r, c, h, seed, mean=10.0, omega=5.0):
    g0 = TransectGrid(r, c, omega, omega)
    z = sample_prior_field(g0, h, seed=seed, mean=mean)
    return TransectGrid(r, c, omega, omega, measurements=z)


# -------------------------------------------------------------------- ENT


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_unobserved_entropy_smallest_grid():
    g = TransectGrid(2, 2, 5.0, 5.0)
    p = path_of(g, [(0,), (0,)])
    # visited row 0 in both columns, row 1 never
    want = gaussian_entropy(posterior_cov(
        [Location(0, 1), Location(1, 1)],
        [Location(0, 0), Location(1, 0)],
        H,
        g.widths,
    ))
    assert unobserved_entropy(p, H) == pytest.approx(want, rel=1e-13)


def test_unobserved_entropy_chain_rule_split():
    g = TransectGrid(3, 5, 5.0, 5.0)
    p = path_of(g, [(0,), (1,), (2,), (1,), (0,)])
    visited = p.locations()
    rest = [u for u in g.locations() if u not in set(visited)]
    joint = gaussian_entropy(gram(rest + visited, H, g.widths))
    split = gaussian_entropy(gram(visited, H, g.widths)) + unobserved_entropy(
        p, H
    )
    assert joint == pytest.approx(split, abs=1e-9)


def test_unobserved_entropy_ignores_measurements():
    h = H
    ga = measured_grid(3, 5, h, seed=1)
    gb = measured_grid(3, 5, h, seed=2)
    rows = [(0,), (1,), (2,), (1,), (0,)]
    assert unobserved_entropy(path_of(ga, rows), h) == unobserved_entropy(
        path_of(gb, rows), h
    )


def random_path(g, k, seed):
    rng = np.random.default_rng(seed)
    return path_of(g, [sorted(rng.choice(g.n_rows, k, replace=False)) for _ in range(g.n_cols)])


# Relative tolerances against the explicit-inverse oracle, per noise ratio,
# about 10x the worst gap seen. The oracle's inverse loses digits as the
# ratio falls (7.9e-13 at the fits' own noise, 2.6e-14 at 0.3, 7.2e-12 at
# 1e-3, 2.9e-6 at 1e-6), while the two library routes stay within 7.6e-14
# of each other at every ratio.
ORACLE_RTOL = {None: 1e-11, 0.3: 1e-12, 1e-3: 1e-10, 1e-6: 3e-5}


@pytest.mark.parametrize("ratio", [None, 0.3, 1e-3, 1e-6], ids=["own", "0.3", "1e-3", "1e-6"])
@pytest.mark.parametrize("fit", sorted(SURVEY_FITS))
@pytest.mark.parametrize("shape", [(5, 40), (4, 10)], ids=["5x40", "4x10"])
def test_unobserved_entropy_matches_the_oracle(shape, fit, ratio):
    # both routes: the grid's entropy minus the visited cells' at the fits'
    # noise, 0.3 and 1e-3, and the conditioned unvisited cells at 1e-6
    h = SURVEY_FITS[fit]
    if ratio is not None:
        h = dataclasses.replace(h, noise_var=ratio * h.signal_var)
    g = TransectGrid(*shape, 5.0, 5.0)
    for seed in range(2):
        p = random_path(g, 2, seed)
        visited = p.locations()
        rest = [u for u in g.locations() if u not in set(visited)]
        got = unobserved_entropy(p, h)
        want = oracle_cond_entropy(rest, visited, h, g.widths)
        assert got == pytest.approx(want, rel=ORACLE_RTOL[ratio])
        # the library's conditioned route, through one Cholesky factor
        conditioned = gaussian_entropy(posterior_cov(rest, visited, h, g.widths))
        assert got == pytest.approx(conditioned, rel=1e-12)


@pytest.mark.parametrize("fit", sorted(SURVEY_FITS))
def test_evaluate_conditions_the_unvisited_cells_only_at_tiny_noise(fit, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return gp._condition(*args)

    monkeypatch.setattr(metrics, "_condition", counted)
    h = SURVEY_FITS[fit]
    g = measured_grid(5, 40, h, seed=0)
    p = random_path(g, 2, 0)
    evaluate(p, h, "markov")
    assert len(calls) == 0
    evaluate(p, dataclasses.replace(h, noise_var=1e-6 * h.signal_var), "markov")
    assert len(calls) == 1


@pytest.mark.parametrize("fit", sorted(SURVEY_FITS))
def test_metric_solves_reproduce_scipy_solve_triangular_bits(fit):
    # the posterior mean's forward and back solves, and the conditioned
    # route at tiny noise, against SciPy's solve_triangular on the same
    # C-ordered factor
    from scipy.linalg import solve_triangular

    h = SURVEY_FITS[fit]
    g = measured_grid(5, 12, h, seed=1)
    p = random_path(g, 2, 1)
    m = metrics._PathMap(p, h)
    L = m.factor
    assert L.flags.c_contiguous
    z_all = g.measurements.T.ravel()
    zbar = float(np.mean(g.measurements))
    w = solve_triangular(L, z_all[m.visited] - zbar, lower=True, check_finite=False)
    alpha = solve_triangular(L.T, w, lower=False, check_finite=False)
    every = np.divmod(np.arange(z_all.size), g.n_rows)
    resid = (z_all - (zbar + m.prior.block(*every, m.cols, m.rows) @ alpha)) / zbar
    assert relative_error(p, h) == float(np.mean(resid * resid))

    tiny = dataclasses.replace(h, noise_var=1e-6 * h.signal_var)
    m = metrics._PathMap(p, tiny)
    rest = np.setdiff1d(np.arange(g.n_rows * g.n_cols), m.visited)
    k_xt = m.prior(m.visited, rest)
    w = solve_triangular(m.factor, k_xt, lower=True, check_finite=False)
    want = gaussian_entropy(m.prior(rest, rest) - w.T @ w)
    assert unobserved_entropy(p, tiny) == want


def test_unobserved_entropy_monotone_under_extra_coverage():
    # a second robot can only shrink what remains unexplained
    g = TransectGrid(3, 5, 5.0, 5.0)
    single = path_of(g, [(1,), (1,), (1,), (1,), (1,)])
    double = path_of(g, [(0, 1), (0, 1), (0, 1), (0, 1), (0, 1)])
    assert unobserved_entropy(double, H) < unobserved_entropy(single, H)


def test_unobserved_entropy_full_coverage_raises():
    g = TransectGrid(2, 3, 5.0, 5.0)
    p = path_of(g, [(0, 1), (0, 1), (0, 1)])
    with pytest.raises(EmptyUnobservedSet):
        unobserved_entropy(p, H)


def test_unobserved_entropy_permutation_invariant():
    g = TransectGrid(3, 4, 5.0, 5.0)
    p = path_of(g, [(0,), (2,), (1,), (0,)])
    sampled = set(p.locations())
    rest = [u for u in g.locations() if u not in sampled]
    base = unobserved_entropy(p, H)
    for perm_seed in range(3):
        rng = np.random.default_rng(perm_seed)
        order = rng.permutation(len(rest))
        shuffled = [rest[i] for i in order]
        val = gaussian_entropy(posterior_cov(shuffled, p.locations(), H, g.widths))
        assert val == pytest.approx(base, abs=1e-9)


# --------------------------------------------------------------------- ERR


def test_relative_error_needs_measurements():
    g = TransectGrid(3, 4, 5.0, 5.0)
    with pytest.raises(ValueError):
        relative_error(path_of(g, [(0,), (1,), (2,), (1,)]), H)


def test_relative_error_constant_field_noiseless_is_zero():
    h0 = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.0)
    z = np.full((3, 4), 7.0)
    g = TransectGrid(3, 4, 5.0, 5.0, measurements=z)
    err = relative_error(path_of(g, [(0,), (1,), (2,), (1,)]), h0, mean=7.0)
    assert err == pytest.approx(0.0, abs=1e-18)


def test_relative_error_zero_mean_field_rejected():
    z = np.zeros((2, 3))
    z[0, 0], z[1, 2] = 1.0, -1.0
    g = TransectGrid(2, 3, 5.0, 5.0, measurements=z)
    with pytest.raises(ZeroMeanField):
        relative_error(path_of(g, [(0,), (1,), (0,)]), H)


def test_relative_error_all_sampled_noiseless_is_tiny():
    h0 = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.0)
    g0 = TransectGrid(2, 4, 5.0, 5.0)
    z = sample_prior_field(g0, h0, seed=5, mean=10.0)
    g = TransectGrid(2, 4, 5.0, 5.0, measurements=z)
    p = path_of(g, [(0, 1)] * 4)
    # the posterior interpolates every sampled cell exactly
    assert relative_error(p, h0) < 1e-12


def test_relative_error_more_coverage_helps_on_average():
    h = Hyperparams(ell1=10.0, ell2=8.0, signal_var=1.0, noise_var=0.01)
    worse = 0
    for seed in range(20):
        g = measured_grid(3, 6, h, seed=seed)
        narrow = relative_error(path_of(g, [(1,)] * 6), h)
        wide = relative_error(path_of(g, [(0, 2)] * 6), h)
        if wide > narrow:
            worse += 1
    assert worse <= 4


def test_relative_error_prior_mean_argument_matters():
    h = H
    g = measured_grid(3, 5, h, seed=9, mean=10.0)
    p = path_of(g, [(0,), (1,), (2,), (1,), (0,)])
    default = relative_error(p, h)
    shifted = relative_error(p, h, mean=50.0)
    assert default != shifted
    assert default < shifted


# ---------------------------------------------------------------- evaluate


def test_evaluate_without_measurements_has_no_err():
    g = TransectGrid(3, 4, 5.0, 5.0)
    rec = evaluate(path_of(g, [(0,), (1,), (2,), (1,)]), H, "exact", 0.25)
    assert rec.policy_kind == "exact"
    assert rec.start == RobotConfig((0,))
    assert rec.err is None
    assert rec.plan_seconds == 0.25
    assert rec.ent == pytest.approx(
        unobserved_entropy(path_of(g, [(0,), (1,), (2,), (1,)]), H)
    )


def test_evaluate_with_measurements_fills_both_metrics():
    g = measured_grid(3, 5, H, seed=3)
    p = path_of(g, [(0,), (1,), (2,), (1,), (0,)])
    rec = evaluate(p, H, "greedy-ent")
    assert rec.err == pytest.approx(relative_error(p, H))
    assert rec.ent == pytest.approx(unobserved_entropy(p, H))


# -------------------------------------------------------------- metric_diff


def test_metric_diff_antisymmetric_and_zero_on_self():
    g = measured_grid(3, 5, H, seed=4)
    pa = path_of(g, [(0,), (1,), (2,), (1,), (0,)])
    pb = path_of(g, [(0,), (2,), (0,), (2,), (0,)])
    ra = evaluate(pa, H, "markov")
    rb = evaluate(pb, H, "greedy-ent")
    d_ab = metric_diff(ra, rb)
    d_ba = metric_diff(rb, ra)
    assert d_ab[0] == pytest.approx(-d_ba[0], abs=1e-15)
    assert d_ab[1] == pytest.approx(-d_ba[1], abs=1e-15)
    assert metric_diff(ra, ra) == (0.0, 0.0)


def test_metric_diff_none_err_propagates():
    g = TransectGrid(3, 4, 5.0, 5.0)
    p = path_of(g, [(0,), (1,), (2,), (1,)])
    ra = evaluate(p, H, "markov")
    rb = evaluate(p, H, "exact")
    ent_gap, err_gap = metric_diff(ra, rb)
    assert ent_gap == 0.0
    assert err_gap is None


def test_metric_diff_start_mismatch_rejected():
    g = measured_grid(3, 5, H, seed=4)
    ra = evaluate(path_of(g, [(0,), (1,), (2,), (1,), (0,)]), H, "markov")
    rb = evaluate(path_of(g, [(1,), (1,), (2,), (1,), (0,)]), H, "greedy-ent")
    with pytest.raises(MismatchedInstances):
        metric_diff(ra, rb)


def test_metric_diff_row_relabeling_symmetry():
    # flipping the grid upside down flips every path; the metrics and all
    # gaps must survive the relabeling untouched
    h = H
    g0 = TransectGrid(4, 5, 5.0, 5.0)
    z = sample_prior_field(g0, h, seed=6, mean=10.0)
    g = TransectGrid(4, 5, 5.0, 5.0, measurements=z)
    gf = TransectGrid(4, 5, 5.0, 5.0, measurements=z[::-1].copy())
    rows = [(0,), (1,), (3,), (2,), (0,)]
    flipped = [(3 - r[0],) for r in rows]
    pa, pb = path_of(g, rows), path_of(gf, flipped)
    assert unobserved_entropy(pa, h) == pytest.approx(
        unobserved_entropy(pb, h), abs=1e-9
    )
    assert relative_error(pa, h) == pytest.approx(relative_error(pb, h), abs=1e-12)


# ------------------------------------------------------ planner comparisons


def test_markov_ent_tracks_greedy_on_survey_like_fields():
    # plankton-flavored hyperparameters, three robots; across seeds the
    # Markov paths should explain at least as much as the entropy-greedy
    # ones more often than not
    h = Hyperparams(ell1=27.53, ell2=134.64, signal_var=2.152, noise_var=0.041)
    g = TransectGrid(8, 10, 39.2, 39.2)
    pol = plan_markov(g, h, k=3)
    x0 = RobotConfig((0, 3, 6))
    markov_rec = evaluate(rollout(pol, x0), h, "markov")
    greedy = plan("greedy-ent", g, h, 3, x0)
    greedy_rec = evaluate(greedy.path, h, "greedy-ent")
    ent_gap, _ = metric_diff(markov_rec, greedy_rec)
    # positive gap would mean greedy left less unexplained than markov
    assert ent_gap <= 1e-6


def test_markov_planning_time_grows_with_columns():
    h = H
    times = []
    for c in (8, 16, 32):
        reps = []
        for _ in range(5):
            g = TransectGrid(4, c, 5.0, 5.0)
            t0 = time.perf_counter()
            plan_markov(g, h, k=1)
            reps.append(time.perf_counter() - t0)
        times.append(min(reps))
    assert times[2] > times[0] * 0.5  # sanity: longer grids are not free
