import ast
import bisect
import dataclasses
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transectplan import (
    FactorizationFailure,
    GridTooLarge,
    Hyperparams,
    Location,
    ObservationPath,
    RobotConfig,
    SingularCovariance,
    TransectGrid,
    bound_params,
    cov_matrix,
    evaluate,
    gaussian_entropy,
    posterior_cov,
    relative_error,
    sample_prior_field,
)
from transectplan import gp
from transectplan.gp import (
    MAX_DENSE_CELLS,
    GrowingFactor,
    chol_factor,
    cross_cov,
    logdet_from_factor,
    minor_factors,
    precision,
)

from oracles import (
    cond_mutual_info,
    oracle_cond_entropy,
    oracle_cov,
    oracle_entropy,
    oracle_posterior_cov,
    oracle_posterior_mean,
    oracle_relative_error,
)

# frozen by a high-precision script before the implementation existed
EXP_HALF = 0.6065306597126334
EXP_TWO = 0.1353352832366127
ENTROPY_DIAG_2_3 = 3.733756801023373

H = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.1)
W = (5.0, 5.0)


def grid_5x8():
    return TransectGrid(5, 8, 5.0, 5.0)


# ---------------------------------------------------------------- covariance


def test_covariance_zero_distance_adds_noise():
    u = Location(2, 1)
    assert cross_cov([u], [u], H, W)[0, 0] == pytest.approx(1.1, abs=0)


def test_survey_constants_accepted_as_hyperparams():
    h = Hyperparams(ell1=40.45, ell2=16.00, signal_var=0.1542, noise_var=0.0036)
    assert h.ell1 == 40.45 and h.noise_var == 0.0036


@pytest.mark.parametrize(
    "field, bad",
    [(f, v) for f in ("ell1", "ell2", "signal_var", "noise_var")
     for v in (math.nan, math.inf)],
)
def test_hyperparams_refuse_non_finite(field, bad):
    parts = dict(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.1)
    parts[field] = bad
    with pytest.raises(ValueError):
        Hyperparams(**parts)


def test_hyperparams_refuse_an_overflowing_variance():
    # each value is finite, but the covariance diagonal they sum to is not
    with pytest.raises(ValueError, match="finite"):
        Hyperparams(ell1=5.0, ell2=4.0, signal_var=1e308, noise_var=1e308)
    Hyperparams(ell1=5.0, ell2=4.0, signal_var=1e308, noise_var=0.0)


def test_covariance_one_column_step():
    # ell1 equals omega1, so one horizontal step decays by exp(-1/2)
    got = cross_cov([Location(0, 0)], [Location(1, 0)], H, W)[0, 0]
    assert got == pytest.approx(EXP_HALF, rel=1e-15)


def test_covariance_symmetry_and_stationarity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = Location(int(rng.integers(0, 9)), int(rng.integers(0, 7)))
        v = Location(int(rng.integers(0, 9)), int(rng.integers(0, 7)))
        a = cross_cov([u], [v], H, W)[0, 0]
        assert a == cross_cov([v], [u], H, W)[0, 0]
        shifted = cross_cov(
            [Location(u.col + 1, u.row)], [Location(v.col + 1, v.row)], H, W
        )[0, 0]
        assert shifted == pytest.approx(a, rel=1e-12)


@given(
    dc=st.integers(min_value=-6, max_value=6),
    dr=st.integers(min_value=-6, max_value=6),
    ell=st.floats(min_value=0.3, max_value=50.0),
    sig=st.floats(min_value=0.01, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_covariance_bounded_by_prior_variance(dc, dr, ell, sig):
    h = Hyperparams(ell1=ell, ell2=ell, signal_var=sig, noise_var=0.0)
    val = cross_cov([Location(0, 0)], [Location(dc, dr)], h, W)[0, 0]
    assert 0.0 <= val <= sig + 1e-12


def test_cov_matrix_single_location():
    m = cov_matrix([Location(0, 0)], H, W)
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(1.1)


def test_cov_matrix_duplicate_locations_noise_on_diagonal_only():
    m = cov_matrix([Location(1, 1), Location(1, 1)], H, W)
    assert m[0, 0] == pytest.approx(1.1)
    assert m[1, 1] == pytest.approx(1.1)
    assert m[0, 1] == pytest.approx(1.0)
    # still factorizable: the repeated-measurement model is PSD
    chol_factor(m)


def test_cov_matrix_collinear_row():
    locs = [Location(c, 0) for c in range(3)]
    m = cov_matrix(locs, H, W)
    assert m[0, 1] == pytest.approx(EXP_HALF, rel=1e-15)
    assert m[0, 2] == pytest.approx(EXP_TWO, rel=1e-15)


def test_cov_matrix_matches_oracle_and_is_symmetric():
    rng = np.random.default_rng(1)
    locs = [
        Location(int(rng.integers(0, 8)), int(rng.integers(0, 5))) for _ in range(7)
    ]
    m = cov_matrix(locs, H, W)
    np.testing.assert_allclose(m, oracle_cov(locs, H, W), rtol=1e-14)
    np.testing.assert_allclose(m, m.T, rtol=1e-12)


# ------------------------------------------------------------ posterior mean
#
# The posterior mean is formed only by the relative-error metric, so these
# read it there: the metric is the mean over every cell of the squared
# residual of the posterior-mean map, relative to the field mean.


def measured_path(z, rows_per_col):
    g = TransectGrid(*z.shape, 5.0, 5.0, measurements=z)
    return ObservationPath(g, tuple(RobotConfig(r) for r in rows_per_col))


def unvisited_error(path, mu):
    """The metric when the map reads ``mu`` at every unvisited cell and the
    measurement at every visited one."""
    z = path.grid.measurements
    seen = np.zeros(z.shape, bool)
    for u in path.locations():
        seen[u.row, u.col] = True
    resid = np.where(seen, 0.0, (z - mu) / z.mean())
    return float(np.mean(resid * resid))


def test_posterior_mean_prior_when_unobserved():
    # correlations underflow to zero between distinct cells, so every
    # unvisited cell is predicted by the prior mean
    h = Hyperparams(ell1=1e-3, ell2=1e-3, signal_var=1.0, noise_var=0.1)
    z = np.random.default_rng(8).normal(10.0, 1.0, size=(3, 4))
    p = measured_path(z, [(0,), (2,), (1,), (0,)])
    err = relative_error(p, h, mean=3.5)
    assert err == pytest.approx(unvisited_error(p, 3.5), rel=1e-12)
    assert evaluate(p, h, "markov", mean=3.5).err == err


def test_posterior_mean_at_prior_values_returns_prior():
    # every observation sits at the prior mean, so the map reads the prior
    # mean everywhere, exactly
    z = np.random.default_rng(9).normal(2.0, 1.0, size=(3, 4))
    rows = [(0,), (1,), (2,), (1,)]
    for col, (row,) in enumerate(rows):
        z[row, col] = 2.0
    p = measured_path(z, rows)
    assert relative_error(p, H, mean=2.0) == pytest.approx(
        unvisited_error(p, 2.0), rel=1e-14
    )


def test_posterior_mean_noiseless_interpolates():
    # at noise 0 too the map passes through every measurement, so the error
    # is the unvisited cells' alone
    h0 = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.0)
    z = sample_prior_field(TransectGrid(3, 4, 5.0, 5.0), h0, seed=3, mean=10.0)
    p = measured_path(z, [(0,), (2,), (1,), (0,)])
    g, obs = p.grid, p.locations()
    rest = [u for u in g.locations() if u not in set(obs)]
    vals = [z[u.row, u.col] for u in obs]
    mu = np.full(z.shape, np.nan)
    for u, m in zip(rest, oracle_posterior_mean(rest, obs, vals, h0, g.widths, mean=10.0)):
        mu[u.row, u.col] = m
    err = relative_error(p, h0, mean=10.0)
    assert err == pytest.approx(unvisited_error(p, mu), rel=1e-9)
    assert evaluate(p, h0, "exact", mean=10.0).err == err


def test_posterior_mean_scalar_conditioning_formula():
    # columns too far apart to correlate: each unvisited cell u is predicted
    # from the one visited cell v of its column, shifted from the prior mean
    # by (cov_uv / cov_vv) * residual
    h = Hyperparams(ell1=1e-3, ell2=4.0, signal_var=1.0, noise_var=0.1)
    z = np.random.default_rng(10).normal(10.0, 1.0, size=(2, 3))
    rows = [(0,), (1,), (0,)]
    p = measured_path(z, rows)
    mean = 10.0
    mu = np.empty(z.shape)
    for col, (row,) in enumerate(rows):
        u, v = Location(col, 1 - row), Location(col, row)
        shift = cross_cov([u], [v], h, p.grid.widths)[0, 0] / cross_cov(
            [v], [v], h, p.grid.widths
        )[0, 0]
        mu[1 - row, col] = mean + shift * (z[row, col] - mean)
    assert relative_error(p, h, mean=mean) == pytest.approx(
        unvisited_error(p, mu), rel=1e-12
    )


def test_posterior_mean_matches_dense_oracle():
    z = sample_prior_field(grid_5x8(), H, seed=2, mean=10.0)
    rng = np.random.default_rng(2)
    for k, mean in itertools.product((1, 2), (None, 10.0, 12.5)):
        rows = [tuple(sorted(rng.choice(5, k, replace=False).tolist())) for _ in range(8)]
        p = measured_path(z, rows)
        got = relative_error(p, H, mean=mean)
        assert got == pytest.approx(oracle_relative_error(p, H, mean), rel=1e-10)
        assert evaluate(p, H, "greedy-mi", mean=mean).err == got


def test_duplicate_noiseless_observations_rejected():
    h0 = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.0)
    dup = [Location(0, 0), Location(0, 0)]
    with pytest.raises(SingularCovariance):
        posterior_cov([Location(1, 0)], dup, h0, W)


# ------------------------------------------------------- posterior covariance


def test_posterior_cov_empty_obs_is_prior():
    targets = [Location(0, 0), Location(3, 2)]
    np.testing.assert_array_equal(
        posterior_cov(targets, [], H, W), cov_matrix(targets, H, W)
    )


def test_posterior_cov_fully_observed_target_vanishes():
    h0 = Hyperparams(ell1=5.0, ell2=4.0, signal_var=2.0, noise_var=0.0)
    u = Location(1, 1)
    post = posterior_cov([u], [u], h0, W)
    assert post.shape == (1, 1)
    assert abs(post[0, 0]) < 1e-12


def test_posterior_cov_matches_dense_inverse_oracle():
    rng = np.random.default_rng(3)
    for trial in range(20):
        n_t = int(rng.integers(1, 4))
        n_o = int(rng.integers(1, 7))
        cells = [(int(c), int(r)) for c in range(8) for r in range(5)]
        rng.shuffle(cells)
        targets = [Location(*cells[i]) for i in range(n_t)]
        obs = [Location(*cells[n_t + i]) for i in range(n_o)]
        got = posterior_cov(targets, obs, H, W)
        want = oracle_posterior_cov(targets, obs, H, W)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_posterior_refuses_a_history_below_the_floor():
    # two distinct cells whose factor pivots sit near 3e-153, below DIAG_FLOOR
    tiny = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1e-305, noise_var=0.0)
    obs = [Location(0, 0), Location(3, 2)]
    with pytest.raises(SingularCovariance):
        posterior_cov([Location(1, 1)], obs, tiny, W)
    # and so does the posterior-mean map of a path through such cells
    p = measured_path(np.full((3, 4), 1.0), [(0,), (1,), (2,), (1,)])
    with pytest.raises(SingularCovariance):
        relative_error(p, tiny)
    with pytest.raises(SingularCovariance):
        evaluate(p, tiny, "markov")


def test_posterior_cov_is_measurement_free_api():
    # the mean changes with the data, the covariance cannot: two fields on
    # one path differ in their map error, not in their entropy
    obs = [Location(0, 0), Location(1, 3)]
    targets = [Location(2, 2)]
    cov_once = posterior_cov(targets, obs, H, W)
    rows = [(0,), (1,), (2,), (1,), (0,), (3,), (4,), (2,)]
    recs = [
        evaluate(measured_path(sample_prior_field(grid_5x8(), H, seed=s, mean=10.0), rows),
                 H, "markov")
        for s in (0, 1)
    ]
    assert recs[0].err != recs[1].err
    assert recs[0].ent == recs[1].ent
    np.testing.assert_array_equal(cov_once, posterior_cov(targets, obs, H, W))


# ------------------------------------------------------------------- entropy


def test_entropy_unit_normalization():
    val = gaussian_entropy(np.array([[1.0 / (2.0 * math.pi * math.e)]]))
    assert abs(val) < 1e-12


def test_entropy_scalar_gaussian():
    s2 = 0.37
    want = 0.5 * math.log(2.0 * math.pi * math.e * s2)
    assert gaussian_entropy(np.array([[s2]])) == pytest.approx(want, rel=1e-13)


def test_entropy_diagonal_additive():
    got = gaussian_entropy(np.diag([2.0, 3.0]))
    assert got == pytest.approx(ENTROPY_DIAG_2_3, rel=1e-13)
    parts = gaussian_entropy(np.array([[2.0]])) + gaussian_entropy(np.array([[3.0]]))
    assert got == pytest.approx(parts, rel=1e-13)


def test_entropy_matches_slogdet_oracle():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 5))
    cov = a @ a.T + 0.5 * np.eye(5)
    assert gaussian_entropy(cov) == pytest.approx(oracle_entropy(cov), rel=1e-11)


def test_entropy_rejects_indefinite_matrix():
    with pytest.raises(FactorizationFailure):
        gaussian_entropy(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_singular_floor_detected():
    with pytest.raises(SingularCovariance):
        logdet_from_factor(np.diag([1.0, 1e-200]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_logdet_refuses_a_non_finite_pivot(bad):
    with pytest.raises(FactorizationFailure, match="NaN or inf"):
        logdet_from_factor(np.diag([1.0, bad]))


def test_chol_factor_refuses_a_nan_matrix():
    # its Cholesky returns NaNs without raising, on every rung of the ladder
    good = np.eye(2)
    with pytest.raises(FactorizationFailure, match="NaN or inf"):
        chol_factor(np.stack([good, np.diag([1.0, math.nan])]))


def test_chol_factor_refuses_an_inf_pivot():
    # its Cholesky returns the inf pivot without raising, so the rung-0 probe
    # must reject it, alone or in a stack, and so must an entropy of it
    inf_pivot = np.diag([1.0, math.inf])
    for call in (chol_factor, gaussian_entropy):
        with pytest.raises(FactorizationFailure, match="NaN or inf"):
            call(inf_pivot)
        with pytest.raises(FactorizationFailure, match="NaN or inf"):
            call(np.stack([np.eye(2), inf_pivot]))


def test_chol_factor_retries_only_the_failing_members():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 3, 3, 3))
    stack = a @ a.transpose(0, 1, 3, 2) + 0.5 * np.eye(3)
    # exactly singular: only this member needs the jitter ladder
    stack[1, 0] = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(stack[1, 0])
    L = chol_factor(stack)
    assert L.shape == stack.shape
    np.testing.assert_array_equal(L[1, 0], chol_factor(stack[1, 0]))
    for i in np.ndindex(2, 3):
        if i != (1, 0):
            np.testing.assert_array_equal(L[i], np.linalg.cholesky(stack[i]))
    want = [gaussian_entropy(m) for m in stack[1]]
    np.testing.assert_array_equal(gaussian_entropy(stack)[1], want)


@pytest.mark.parametrize(
    "order", [(0, 1), (1, 0)], ids=["not-factorizable-first", "below-floor-first"]
)
def test_chol_factor_raises_the_first_failing_members_refusal(order):
    refusing = [-np.eye(3), np.diag([1.0, 1e-310, 1.0])]
    stack = np.stack([np.eye(3), refusing[order[0]], 2.0 * np.eye(3), refusing[order[1]]])
    with pytest.raises((FactorizationFailure, SingularCovariance)) as alone:
        chol_factor(refusing[order[0]])
    assert type(alone.value) is (FactorizationFailure, SingularCovariance)[order[0]]
    with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
        chol_factor(stack)


def test_jitter_rescues_rank_deficient():
    v = np.array([[1.0], [1.0]])
    cov = v @ v.T  # exactly singular PSD
    L = chol_factor(cov + 1e-13 * np.eye(2))
    assert np.isfinite(L).all()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_minor_entropies_match_slogdet_oracle(k):
    rng = np.random.default_rng(40 + k)
    a = rng.normal(size=(5, 5))
    cov = a @ a.T + 0.5 * np.eye(5)
    idx = np.array(list(itertools.combinations(range(5), k)))
    want = [oracle_entropy(cov[np.ix_(r, r)]) for r in idx]
    np.testing.assert_allclose(minor_factors(cov, idx)[0], want, rtol=1e-11)


def test_minor_entropies_jitter_one_minor():
    # cells 0 and 1 coincide without noise: that minor needs the jitter
    # ladder, the others factor as they are
    cov = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
    idx = np.array([[0, 1], [0, 2], [1, 2]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov[:2, :2])
    want = [gaussian_entropy(cov[np.ix_(r, r)]) for r in idx]
    np.testing.assert_array_equal(minor_factors(cov, idx)[0], want)


def test_minor_entropies_collapsed_minor_raises():
    with pytest.raises(SingularCovariance):
        minor_factors(np.diag([1.0, 1e-310]), np.array([[0], [1]]))


def test_minor_factors_are_chol_factors_flagged_past_rung_0():
    # the second matrix's minor at rows (0, 1) is singular and takes jitter;
    # ok flags it, and every factor and entropy is chol_factor's
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    cov = np.stack([a @ a.T + 0.5 * np.eye(4), np.eye(4)])
    cov[1, 0, 1] = cov[1, 1, 0] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov[1, :2, :2])
    idx = np.array(list(itertools.combinations(range(4), 2)))
    entropies, L, ok = minor_factors(cov, idx)
    minors = cov[:, idx[:, :, None], idx[:, None, :]]
    np.testing.assert_array_equal(L, chol_factor(minors))
    np.testing.assert_array_equal(entropies, gaussian_entropy(minors))
    np.testing.assert_array_equal(ok, [[True] * 6, [False] + [True] * 5])


# ----------------------------------------------------------- growing factor


def grid_entries(grid, h):
    """``entries(a, b)`` of the prior covariance over column-major cells,
    one cross_cov per stack member; leading axes of ``a`` and ``b``
    broadcast."""
    cells = grid.locations()

    def entries(a, b):
        a, b = np.asarray(a), np.asarray(b)
        lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        a = np.broadcast_to(a, lead + a.shape[-1:]).reshape(-1, a.shape[-1])
        b = np.broadcast_to(b, lead + b.shape[-1:]).reshape(-1, b.shape[-1])
        blocks = [
            cross_cov([cells[i] for i in x], [cells[j] for j in y], h, grid.widths)
            for x, y in zip(a, b)
        ]
        return np.reshape(blocks, lead + (a.shape[-1], b.shape[-1]))

    return entries


def test_lag_gram_matches_cross_cov_bits():
    g = TransectGrid(4, 9, 5.0, 5.0)
    h = Hyperparams(ell1=8.0, ell2=6.0, signal_var=2.5, noise_var=0.01)
    rng = np.random.default_rng(0)
    a = rng.choice(g.n_rows * g.n_cols, (3, 7))
    b = rng.choice(g.n_rows * g.n_cols, 5)
    # shared cells pick up the noise, as cross_cov adds it
    b[0] = a[1, 2]
    np.testing.assert_array_equal(gp.LagGram(g, h)(a, b), grid_entries(g, h)(a, b))
    # every block, on random grids and noise ratios from none to large
    for ratio in (0.0, 1e-6, 1e-3, 0.3):
        for _ in range(5):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(rows + 1, 30))
            g = TransectGrid(rows, cols, *rng.uniform(1.0, 10.0, size=2))
            signal = float(rng.uniform(0.05, 5.0))
            h = Hyperparams(*rng.uniform(0.5, 60.0, size=2), signal, ratio * signal)
            cells = g.locations()
            want = cross_cov(cells, cells[:rows], h, g.widths).reshape(cols, rows, rows)
            gram = gp.LagGram(g, h)
            np.testing.assert_array_equal(gram.blocks, want)
            # the whole grid's Gram matrix, column-major as g.locations()
            np.testing.assert_array_equal(gram.dense(), cov_matrix(cells, h, g.widths))
            # cell lists that share their columns: the first repeats a cell,
            # which picks up the noise as cross_cov adds it, and lists of
            # distinct cells are cov_matrix's
            along = np.sort(rng.integers(0, cols, 6))
            lists = rng.integers(0, rows, (3, 6))
            along[1], lists[0, 1] = along[0], lists[0, 0]
            got = gram.along(along, lists)
            for mine, rs in zip(got, lists):
                locs = [Location(int(c), int(r)) for c, r in zip(along, rs)]
                np.testing.assert_array_equal(mine, cross_cov(locs, locs, h, g.widths))
                if len(set(locs)) == len(locs):
                    np.testing.assert_array_equal(mine, cov_matrix(locs, h, g.widths))
            # one column's cells against cells of earlier columns, by lag
            col = int(rng.integers(1, cols))
            earlier = rng.integers(0, col, 5)
            earlier_rows = rng.integers(0, rows, (3, 5))
            column = col * rows + np.arange(rows)
            want = grid_entries(g, h)(column, earlier * rows + earlier_rows)
            np.testing.assert_array_equal(gram.before(col, earlier, earlier_rows), want)
            path = rng.integers(0, rows, (2, cols))
            locs = [[Location(c, int(r)) for c, r in enumerate(rs)] for rs in path]
            want = [cov_matrix(x, h, g.widths) for x in locs]
            np.testing.assert_array_equal(gram.along(np.arange(cols), path), want)
            # every cell against a cell list, one repeated: the call's bits
            along_rows = path[0, along]
            against = gram.all_against(along, along_rows)
            assert against.shape == (rows * cols, along.size)
            want = gram(np.arange(rows * cols), along * rows + along_rows)
            np.testing.assert_array_equal(against, want)


def test_lag_grams_of_one_grid_and_fit_share_read_only_blocks():
    g = TransectGrid(4, 9, 5.0, 5.0)
    h = Hyperparams(ell1=8.0, ell2=6.0, signal_var=2.5, noise_var=0.01)
    blocks = gp.LagGram(g, h).blocks
    # kept per shape, spacing and fit, whatever the measurements
    measured = TransectGrid(4, 9, 5.0, 5.0, measurements=np.ones((4, 9)))
    hits = gp._lag_blocks.cache_info().hits
    assert gp.LagGram(measured, h).blocks is blocks
    assert gp._lag_blocks.cache_info().hits == hits + 1
    # another fit, or another spacing, gets its own array
    other = Hyperparams(ell1=8.0, ell2=6.0, signal_var=2.5, noise_var=0.02)
    assert gp.LagGram(g, other).blocks is not blocks
    assert gp.LagGram(TransectGrid(4, 9, 5.0, 4.0), h).blocks is not blocks
    # no caller can change what the others read
    with pytest.raises(ValueError):
        blocks[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        blocks.reshape(-1)[0] = 0.0
    np.testing.assert_array_equal(gp.LagGram(g, h).dense(), cov_matrix(g.locations(), h, g.widths))


def pivot_blocks(s, members, chosen):
    """The Schur blocks S[s][chosen[s], chosen[s]] of every member."""
    return s[members[:, :, None], chosen[:, :, None], chosen[:, None, :]]


def condition_on(f, entries, column):
    """``f.condition`` for the candidate cells ``column``, their blocks
    gathered by ``entries``."""
    return f.condition(entries(column, f.cells[:, : f.size]), entries(column, column))


def grown_history(grid, h, seed, k, stack=3):
    """Grow a stack of factors, each from random rows of column 0 by random
    rows of every later column; yields (factor, column cells, S, W^T)
    before each append. Each pivot block is factored by rung 0 alone."""
    rng = np.random.default_rng(seed)
    rows = lambda: np.sort([rng.choice(grid.n_rows, k, replace=False) for _ in range(stack)])
    entries = grid_entries(grid, h)
    f = GrowingFactor(entries, rows(), k * grid.n_cols)
    members = np.arange(stack)[:, None]
    for col in range(1, grid.n_cols):
        column = col * grid.n_rows + np.arange(grid.n_rows)
        s, wt = condition_on(f, entries, column)
        yield f, column, s, wt
        chosen = rows()
        factor, ok = gp._probe(pivot_blocks(s, members, chosen))
        f.extend(column[chosen], wt[members, chosen], factor, ok)
    yield f, None, None, None


def members_of(f):
    """(L_s, V_s) of every stack member."""
    return [(L[: f.size, : f.size], v[: f.size]) for L, v in zip(f.factor, f.cells)]


@pytest.mark.parametrize("seed, k", [(0, 1), (1, 2), (2, 3)])
def test_growing_factor_tracks_history_gram(seed, k):
    g = TransectGrid(4, 9, 5.0, 5.0)
    h = Hyperparams(ell1=8.0, ell2=6.0, signal_var=2.5, noise_var=0.01)
    cells = g.locations()
    for f, column, s, _ in grown_history(g, h, seed, k):
        for member, (L, v) in enumerate(members_of(f)):
            history = [cells[i] for i in v]
            want = cov_matrix(history, h, g.widths)
            np.testing.assert_allclose(L @ L.T, want, rtol=0, atol=1e-12 * h.signal_var)
            if column is not None:
                post = posterior_cov([cells[i] for i in column], history, h, g.widths)
                np.testing.assert_allclose(
                    s[member], post, rtol=0, atol=1e-12 * h.signal_var
                )


def test_growing_factor_precision_route_inverts_rest_posterior():
    # conditioning the grid precision on the visited cells gives the inverse
    # of the column's covariance given every unvisited cell
    g = TransectGrid(4, 7, 5.0, 5.0)
    h = Hyperparams(ell1=8.0, ell2=6.0, signal_var=1.5, noise_var=0.05)
    cells = g.locations()
    n = len(cells)
    p = precision(cov_matrix(cells, h, g.widths))
    entries = lambda a, b: p[np.asarray(a)[..., :, None], np.asarray(b)[..., None, :]]
    for f, column, _, _ in grown_history(g, h, 3, 2):
        if column is None:
            break
        prec = GrowingFactor(entries, f.cells[:, : f.size], n)
        lam, _ = condition_on(prec, entries, column)
        for member, (_, v) in enumerate(members_of(f)):
            others = [cells[i] for i in np.setdiff1d(np.arange(n), np.r_[v, column])]
            rest = posterior_cov([cells[i] for i in column], others, h, g.widths)
            np.testing.assert_allclose(lam[member], np.linalg.inv(rest), rtol=1e-9)


def test_growing_factor_refactors_when_the_pivot_block_fails(monkeypatch):
    g = TransectGrid(4, 6, 5.0, 5.0)
    cells = g.locations()
    steps = list(grown_history(g, H, 4, 2))
    f, _, _, _ = steps[-1]

    refactored = []
    real_cholesky, real_chol_factor = np.linalg.cholesky, gp.chol_factor

    def cholesky(a):
        if a.shape[-2:] == (2, 2):
            raise np.linalg.LinAlgError("forced")
        return real_cholesky(a)

    def counted(cov):
        refactored.append(cov.shape)
        return real_chol_factor(cov)

    grown = grown_history(g, H, 4, 2)
    next(grown)  # the start is factored before any pivot block fails
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    monkeypatch.setattr(gp, "chol_factor", counted)
    forced = list(grown)[-1][0]
    # one whole-history refactor of the three members' stack per append
    assert refactored == [(3, n, n) for n in (4, 6, 8, 10, 12)]
    np.testing.assert_array_equal(forced.cells, f.cells)
    np.testing.assert_allclose(forced.factor, f.factor, rtol=0, atol=1e-13)
    for L, v in members_of(forced):
        want = cov_matrix([cells[i] for i in v], H, g.widths)
        np.testing.assert_array_equal(L, real_cholesky(want))


@pytest.mark.parametrize(
    "bad_block",
    [-np.eye(2), np.diag([1.0, 1e-310])],
    ids=["not-positive-definite", "below-diag-floor"],
)
def test_growing_factor_refactors_only_the_member_whose_pivot_fails(monkeypatch, bad_block):
    g = TransectGrid(4, 6, 5.0, 5.0)
    cells = g.locations()
    entries = grid_entries(g, H)
    starts = np.array([[0, 1], [1, 3], [2, 3]])
    grown = GrowingFactor(entries, starts, 12)
    column = g.n_rows + np.arange(g.n_rows)
    chosen = np.array([[0, 2], [1, 2], [0, 3]])
    members = np.arange(3)[:, None]
    s, wt = condition_on(grown, entries, column)
    blocks = pivot_blocks(s, members, chosen)

    refactored, probed = [], []
    real_chol_factor, real_probe = gp.chol_factor, gp._probe

    def counted(cov):
        refactored.append(cov.shape)
        return real_chol_factor(cov)

    def counted_probe(cov):
        probed.append(cov.shape)
        return real_probe(cov)

    monkeypatch.setattr(gp, "chol_factor", counted)
    factor, ok = real_probe(blocks)
    monkeypatch.setattr(gp, "_probe", counted_probe)
    grown.extend(column[chosen], wt[members, chosen], factor, ok)
    # the blocks come factored: a happy append factors nothing
    assert refactored == [] and probed == []
    for bad in ([1], [0, 2]):
        forced = GrowingFactor(entries, starts, 12)
        failing = blocks.copy()
        failing[bad] = bad_block
        refactored.clear()
        forced.extend(column[chosen], wt[members, chosen], *real_probe(failing))
        # the failing members are refactored in one call over their stack
        assert refactored == [(len(bad), 4, 4)]
        for member in range(3):
            if member not in bad:
                np.testing.assert_array_equal(forced.factor[member], grown.factor[member])
                continue
            want = cov_matrix([cells[i] for i in forced.cells[member, :4]], H, g.widths)
            np.testing.assert_array_equal(forced.factor[member, :4, :4], np.linalg.cholesky(want))
            np.testing.assert_allclose(
                forced.factor[member], grown.factor[member], rtol=0, atol=1e-13
            )


def test_precision_inverts_through_chol_factor():
    g = TransectGrid(4, 6, 5.0, 5.0)
    cov = cov_matrix(g.locations(), H, g.widths)
    p = precision(cov.copy())
    np.testing.assert_array_equal(p, p.T)
    np.testing.assert_allclose(p @ cov, np.eye(cov.shape[0]), rtol=0, atol=1e-9)
    # a matrix that needs jitter is inverted as chol_factor jitters it
    L = chol_factor(np.ones((3, 3)))
    np.testing.assert_allclose(precision(np.ones((3, 3))), np.linalg.inv(L @ L.T), rtol=1e-6)


def test_cholesky_is_called_only_inside_chol_factor():
    # one factorization routine: every other module and function factors
    # through chol_factor, whose rung-0 probe and jitter ladder call LAPACK
    sites = []
    for path in sorted(Path(gp.__file__).parent.glob("*.py")):
        source = path.read_text()
        functions = [f for f in ast.parse(source).body if isinstance(f, ast.FunctionDef)]
        for line, text in enumerate(source.splitlines(), start=1):
            if re.search(r"cholesky|potrf|cho_factor", text):
                owner = [f.name for f in functions if f.lineno <= line <= f.end_lineno]
                sites.append((path.name, *owner))
    assert sites
    assert set(sites) <= {("gp.py", "_probe"), ("gp.py", "_climb")}


def test_blocks_and_triangular_solves_are_read_only_inside_gp():
    # one home for the lag blocks' layout and for the triangular solves:
    # every other module gathers through LagGram and conditions through gp,
    # and no other module calls LAPACK directly
    sites = set()
    for path in sorted(Path(gp.__file__).parent.glob("*.py")):
        if re.search(r"\.blocks\b|trtrs|potri|solve_triangular", path.read_text()):
            sites.add(path.name)
    assert sites == {"gp.py"}


def test_trtrs_is_called_only_inside_trsolve():
    # one triangular-solve route: every solve against a factor is _trsolve's
    sites = []
    for path in sorted(Path(gp.__file__).parent.glob("*.py")):
        source = path.read_text()
        assert "solve_triangular" not in source
        functions = [f for f in ast.parse(source).body if isinstance(f, ast.FunctionDef)]
        for line, text in enumerate(source.splitlines(), start=1):
            if re.search(r"trtrs\(", text):
                owner = [f.name for f in functions if f.lineno <= line <= f.end_lineno]
                sites.append((path.name, *owner))
    assert sites == [("gp.py", "_trsolve")]


def c_ordered_factor(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return np.linalg.cholesky(a @ a.T + n * np.eye(n))


@pytest.mark.parametrize("n", [1, 2, 80])
def test_trsolve_reproduces_scipy_solve_triangular_bits(n):
    from scipy.linalg import solve_triangular

    L = c_ordered_factor(n, n)
    assert L.flags.c_contiguous
    rng = np.random.default_rng(1)
    for b in (rng.standard_normal(n), rng.standard_normal((n, 5))):
        forward = gp._trsolve(L, b)
        np.testing.assert_array_equal(
            forward, solve_triangular(L, b, lower=True, check_finite=False)
        )
        # the back-solve, as the posterior mean takes K^-1 b
        np.testing.assert_array_equal(
            gp._trsolve(L, forward, trans=0),
            solve_triangular(L.T, forward, lower=False, check_finite=False),
        )
        assert forward.shape == b.shape
    # the conditioning step, on a cross block that is a view of a larger
    # matrix, as an exhaustive node's redo passes it; the view is not written
    k = rng.standard_normal((n, 7))
    before = k.copy()
    k_tt = rng.standard_normal((4, 4))
    w = solve_triangular(L, k[:, 3:], lower=True, check_finite=False)
    np.testing.assert_array_equal(gp._condition(L, k[:, 3:], k_tt), k_tt - w.T @ w)
    np.testing.assert_array_equal(k, before)


def test_one_member_growing_factor_conditions_as_condition_does():
    g = TransectGrid(4, 9, 5.0, 5.0)
    h = Hyperparams(ell1=8.0, ell2=6.0, signal_var=2.5, noise_var=0.01)
    gram = gp.LagGram(g, h)
    history = np.array([[0, 3, 5, 6, 9]])
    f = GrowingFactor(gram, history, capacity=12)
    cand = np.arange(12, 16)
    s, wt = f.condition(gram(cand, history[0])[None], gram(cand, cand))
    L = f.factor[0, : f.size, : f.size]
    w = gp._trsolve(L, gram(history[0], cand))
    np.testing.assert_array_equal(s[0], gp._condition(L, gram(history[0], cand), gram(cand, cand)))
    np.testing.assert_array_equal(wt[0], w.T)


@pytest.mark.parametrize("b", [np.ones((2, 1)), np.ones((2, 3))])
def test_a_zero_pivot_refuses_as_singular_covariance(b):
    # an exact zero on the factor's diagonal: the solve refuses with the
    # package's typed error, not numpy's or SciPy's
    L = np.array([[1.0, 0.0], [0.5, 0.0]])
    with pytest.raises(SingularCovariance):
        gp._condition(L, b, np.eye(b.shape[1]))


def test_precision_refuses_a_matrix_it_cannot_invert():
    with pytest.raises(FactorizationFailure):
        precision(-np.eye(3))
    with pytest.raises(SingularCovariance):
        precision(np.diag([1.0, 1e-310]))


# ------------------------------------------------------ conditional entropy


def test_conditional_entropy_matches_oracle():
    targets = [Location(4, 1), Location(5, 2)]
    obs = [Location(c, 0) for c in range(4)]
    got = gaussian_entropy(posterior_cov(targets, obs, H, W))
    assert got == pytest.approx(oracle_cond_entropy(targets, obs, H, W), rel=1e-10)


def test_chain_rule_random_disjoint_sets():
    rng = np.random.default_rng(5)
    cells = [(c, r) for c in range(8) for r in range(5)]
    for _ in range(25):
        rng.shuffle(cells)
        na, nb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = [Location(*cells[i]) for i in range(na)]
        b = [Location(*cells[na + i]) for i in range(nb)]
        joint = gaussian_entropy(cov_matrix(a + b, H, W))
        split = gaussian_entropy(cov_matrix(a, H, W)) + gaussian_entropy(
            posterior_cov(b, a, H, W)
        )
        assert joint == pytest.approx(split, abs=1e-9)


def test_information_never_hurts():
    rng = np.random.default_rng(6)
    cells = [(c, r) for c in range(8) for r in range(5)]
    for _ in range(25):
        rng.shuffle(cells)
        t = [Location(*cells[0])]
        a = [Location(*cells[i]) for i in range(1, 4)]
        b = [Location(*cells[i]) for i in range(4, 7)]
        h_a = gaussian_entropy(posterior_cov(t, a, H, W))
        h_ab = gaussian_entropy(posterior_cov(t, a + b, H, W))
        assert h_ab <= h_a + 1e-9


# --------------------------------------------------- conditional mutual info


def test_cmi_empty_past_is_zero():
    nxt = [Location(3, 1)]
    cur = [Location(2, 0)]
    assert cond_mutual_info(nxt, [], cur, H, W) == 0.0


def test_cmi_past_subset_of_current_is_zero():
    nxt = [Location(3, 1)]
    cur = [Location(2, 0), Location(2, 4)]
    assert cond_mutual_info(nxt, [cur[1], cur[0]], cur, H, W) == 0.0


def test_cmi_nonnegative_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(100):
        i = int(rng.integers(1, 5))
        rows = rng.integers(0, 5, size=i + 2)
        hist = [Location(c, int(rows[c])) for c in range(i)]
        cur = [Location(i, int(rows[i]))]
        nxt = [Location(i + 1, int(rows[i + 1]))]
        val = cond_mutual_info(nxt, hist, cur, H, W)
        assert val >= 0.0  # clamp admits nothing below -1e-9


# ------------------------------------------------------------ field sampling


def test_sample_prior_field_shapes_and_determinism():
    grid = grid_5x8()
    a = sample_prior_field(grid, H, seed=11, mean=10.0)
    b = sample_prior_field(grid, H, seed=11, mean=10.0)
    assert a.shape == (5, 8)
    np.testing.assert_array_equal(a, b)
    c = sample_prior_field(grid, H, seed=12, mean=10.0)
    assert not np.array_equal(a, c)


def test_sample_prior_field_iid_limit():
    # vanishing signal leaves unit-variance noise around the mean
    h = Hyperparams(ell1=5.0, ell2=5.0, signal_var=1e-14, noise_var=1.0)
    grid = TransectGrid(4, 40, 5.0, 5.0)
    z = sample_prior_field(grid, h, seed=0, mean=5.0)
    flat = z.ravel() - 5.0
    n = flat.size
    assert abs(flat.mean()) < 4.0 / math.sqrt(n)
    assert abs(flat.std() - 1.0) < 0.2
    # adjacent cells essentially uncorrelated
    corr = np.corrcoef(z[:, :-1].ravel(), z[:, 1:].ravel())[0, 1]
    assert abs(corr) < 0.2


def test_sample_prior_field_covariance_monte_carlo():
    grid = TransectGrid(3, 6, 5.0, 5.0)
    picks = [Location(0, 0), Location(1, 0), Location(3, 2)]
    idx = [loc.col * grid.n_rows + loc.row for loc in picks]
    draws = np.array(
        [
            sample_prior_field(grid, H, seed=s, mean=0.0).T.ravel()[idx]
            for s in range(200)
        ]
    )
    emp = np.cov(draws.T, bias=False)
    want = cov_matrix(picks, H, W)
    n = draws.shape[0]
    for i in range(3):
        for j in range(3):
            se = math.sqrt((want[i, i] * want[j, j] + want[i, j] ** 2) / n)
            assert abs(emp[i, j] - want[i, j]) <= 3.0 * se


def hartley_rows(n, m):
    """The first n rows of the m-point Hartley matrix, cos + sin of
    2 pi j l / m with j l reduced mod m for exact angles."""
    angle = (2.0 * np.pi / m) * (np.outer(np.arange(n), np.arange(m)) % m)
    return np.cos(angle) + np.sin(angle)


def along_track_map(n, step):
    """The draw's C x M along-track map A = H[:C] diag(sqrt(lam / M)) and
    the embedding's clipped eigenvalues lam."""
    m = gp._embedding_length(n, step)
    lam = gp._circulant_eigvals(m, step)
    return hartley_rows(n, m) * np.sqrt(lam / m), lam


def test_smooth_at_least_is_the_next_5_smooth_integer():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    lengths = [k for k in range(1, 5000) if smooth(k)]
    for n in range(1, 4000):
        assert gp._smooth_at_least(n) == lengths[bisect.bisect_left(lengths, n)]
    # past an embedding that draws, and a length with a large prime factor
    assert gp._smooth_at_least(25_000_000) == 25_000_000
    assert gp._smooth_at_least(1_249_989) == 1_250_000


# The cases a draw's factors are checked on, by their map and by its draws.
DRAW_CASES = {
    # non-square cells and ell1 != ell2: a swapped axis shows up
    "anisotropic": (TransectGrid(3, 7, 4.0, 2.5), Hyperparams(9.0, 3.0, 2.5, 0.0)),
    "noisy": (grid_5x8(), H),
    # survey length-scales without noise: condition number about 4e17
    "survey-noise-free": (TransectGrid(5, 30, 5.0, 5.0), Hyperparams(40.45, 16.0, 0.1542, 0.0)),
}


@pytest.mark.parametrize(
    "grid, h",
    [
        *DRAW_CASES.values(),
        # 500 m along-track at 5 m cells, 100 cells: an 1800-point embedding
        (TransectGrid(5, 40, 5.0, 5.0), Hyperparams(500.0, 16.0, 0.1542, 0.0036)),
        # the shortest grid; one column is checked on the map alone, below
        (TransectGrid(1, 2, 5.0, 5.0), H),
    ],
    ids=[*DRAW_CASES, "ell-100-cells", "two-columns"],
)
def test_kron_eigen_rebuilds_grid_covariance(grid, h):
    # the draw's factors: A along the track, B = q_r diag(sqrt(lam_r)) across
    step = grid.omega1 / h.ell1
    a, lam = along_track_map(grid.n_cols, step)
    m = lam.size
    assert a.shape == (grid.n_cols, m)
    assert lam.min() >= 0.0
    assert np.array_equal(lam[1:], lam[:0:-1])
    np.testing.assert_allclose(
        a @ a.T, gp._unit_toeplitz(grid.n_cols, step), rtol=0.0, atol=1e-12
    )
    lam_r, q_r = np.linalg.eigh(gp._unit_toeplitz(grid.n_rows, grid.omega2 / h.ell2))
    lam_r = np.clip(lam_r, 0.0, None)
    # the variance the draw puts along each of its directions
    var = h.signal_var * np.outer(lam / m, lam_r) + h.noise_var
    assert var.min() >= h.noise_var
    f = np.sqrt(h.signal_var) * np.kron(a, q_r * np.sqrt(lam_r))
    want = cov_matrix(grid.locations(), h, grid.widths)
    np.testing.assert_allclose(
        f @ f.T + h.noise_var * np.eye(len(want)), want, rtol=0.0, atol=1e-12 * h.signal_var
    )


@settings(max_examples=30, deadline=None)
@example(n=1, reach=0.1, seed=0)
@example(n=1, reach=1000.0, seed=0)
@example(n=2, reach=100.0, seed=0)
@example(n=400, reach=0.1, seed=0)
@example(n=400, reach=1000.0, seed=0)
@given(
    n=st.integers(1, 400),
    reach=st.floats(-1.0, 3.0).map(lambda x: 10.0**x),
    seed=st.integers(0, 2**32 - 1),
)
def test_circulant_embedding_rebuilds_the_along_track_factor(n, reach, seed):
    # reach: ell1 / omega1, the length-scale in cells, from 0.1 to 1000
    a, lam = along_track_map(n, 1.0 / reach)
    assert lam.size % 2 == 0 and lam.size // 2 >= max(n - 1, math.ceil(8.9 * reach))
    assert lam.min() >= 0.0
    np.testing.assert_allclose(
        a @ a.T, gp._unit_toeplitz(n, 1.0 / reach), rtol=0.0, atol=1e-12
    )
    # the draw's transform is this map: one real FFT gives H x's head
    m = lam.size
    x = np.random.default_rng(seed).standard_normal((m, 2))
    np.testing.assert_allclose(
        gp._hartley_head(x, n), hartley_rows(n, m) @ x, rtol=0.0, atol=1e-14 * m
    )


@pytest.mark.parametrize("ratio", [0.3, gp.STABLE_NOISE_RATIO])
@pytest.mark.parametrize(
    "grid, h",
    [
        (TransectGrid(3, 7, 4.0, 2.5), Hyperparams(9.0, 3.0, 2.5, 0.0)),
        (TransectGrid(5, 40, 5.0, 5.0), Hyperparams(40.45, 16.0, 0.1542, 0.0)),
        (TransectGrid(5, 40, 5.0, 5.0), Hyperparams(27.53, 134.64, 2.152, 0.0)),
    ],
    ids=["anisotropic", "temperature", "plankton"],
)
def test_grid_entropy_is_the_whole_grids_entropy(grid, h, ratio):
    h = Hyperparams(h.ell1, h.ell2, h.signal_var, ratio * h.signal_var)
    want = gaussian_entropy(cov_matrix(grid.locations(), h, grid.widths))
    # eigenvalues against one dense Cholesky factor; worst seen 4.8e-14
    assert gp.grid_entropy(grid, h) == pytest.approx(want, rel=1e-12)
    # kept per shape, spacing and hyperparameters, whatever the measurements
    measured = TransectGrid(
        grid.n_rows, grid.n_cols, grid.omega1, grid.omega2,
        measurements=np.ones((grid.n_rows, grid.n_cols)),
    )  # fmt: skip
    hits = gp._grid_entropy.cache_info().hits
    assert gp.grid_entropy(measured, h) == gp.grid_entropy(grid, h)
    assert gp._grid_entropy.cache_info().hits == hits + 2


def test_grid_entropy_refuses_a_zero_eigenvalue():
    # noise-free survey length-scales: rounding clips eigenvalues to 0
    grid = TransectGrid(5, 30, 5.0, 5.0)
    with pytest.raises(SingularCovariance):
        gp.grid_entropy(grid, Hyperparams(40.45, 16.0, 0.1542, 0.0))


@pytest.mark.parametrize("n", [1, 2, 7, 40, 400])
@pytest.mark.parametrize(
    "width, ell", [(5.0, 40.45), (5.0, 16.0), (4.0, 134.64), (2.5, 0.3), (1.0, 1.0)]
)
def test_unit_toeplitz_is_the_signal_gram(n, width, ell):
    along = gp._as_int_array([Location(c, 0) for c in range(n)])
    across = gp._as_int_array([Location(0, r) for r in range(n)])
    want_along = gp._signal_gram(along, along, Hyperparams(ell, 7.0, 1.0, 0.0), (width, 3.0))
    want_across = gp._signal_gram(across, across, Hyperparams(7.0, ell, 1.0, 0.0), (3.0, width))
    got = gp._unit_toeplitz(n, width / ell)
    assert np.array_equal(got, want_along) and np.array_equal(got, want_across)


@pytest.mark.parametrize("grid, h", DRAW_CASES.values(), ids=DRAW_CASES)
def test_sample_prior_field_draws_the_grid_covariance(grid, h):
    # A draw is mean + A e with e = default_rng(seed).standard_normal(count),
    # count = (M + C) R for the embedding's M points, so count seeds recover
    # the linear map A, and A A^T is the law of every draw.
    m = gp._embedding_length(grid.n_cols, grid.omega1 / h.ell1)
    count = (m + grid.n_cols) * grid.n_rows
    e = np.array([np.random.default_rng(s).standard_normal(count) for s in range(count)])
    z = np.array(
        [sample_prior_field(grid, h, seed=s, mean=1.5).T.ravel() - 1.5 for s in range(count)]
    )
    a = np.linalg.solve(e, z).T
    want = cov_matrix(grid.locations(), h, grid.widths)
    np.testing.assert_allclose(a @ a.T, want, rtol=0.0, atol=1e-10 * h.signal_var)


def test_sample_prior_field_at_cell_cap():
    grid = TransectGrid(5, MAX_DENSE_CELLS // 5, 5.0, 5.0)
    z = sample_prior_field(grid, Hyperparams(40.45, 16.0, 0.1542, 0.0036), seed=0)
    assert z.shape == (5, MAX_DENSE_CELLS // 5)
    assert np.isfinite(z).all()


def test_sample_prior_field_grid_guard():
    grid = TransectGrid(60, 100, 1.0, 1.0)
    with pytest.raises(GridTooLarge):
        sample_prior_field(grid, H, seed=0)


def test_sample_prior_field_refuses_an_embedding_past_the_cap():
    # 1e9 m at 5 m cells, 2e8 cells: the embedding would need 3.6e9 points
    grid = TransectGrid(5, 40, 5.0, 5.0)
    h = Hyperparams(1e9, 16.0, 0.1542, 0.0036)
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge, match="circulant embedding"):
            sample_prior_field(grid, h, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before any array of the draw is made


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("axis", ["ell1", "ell2"])
@pytest.mark.parametrize("short", [1e-200, 1e-320])
def test_a_spacing_past_the_kernels_reach_keeps_its_values(axis, short):
    # 5 m cells are 500 length-scales of 0.01 m apart, past the kernel's
    # reach; at 1e-200 m the squared distances overflowed, and at 1e-320 m
    # the spacing itself, to a NaN diagonal: all three are one model
    grid = TransectGrid(3, 6, 5.0, 5.0)
    base = Hyperparams(5.0, 4.0, 1.0, 0.1)
    far, near = (dataclasses.replace(base, **{axis: ell}) for ell in (short, 0.01))
    cells = grid.locations()
    assert cov_matrix(cells, far, grid.widths).tobytes() == cov_matrix(cells, near, grid.widths).tobytes()
    assert gp.grid_entropy(grid, far) == gp.grid_entropy(grid, near)
    assert sample_prior_field(grid, far, 3).tobytes() == sample_prior_field(grid, near, 3).tobytes()


def test_a_length_scale_past_float64_in_cells_is_refused():
    # 1e100 m is 1e400 cells of 1e-300 m: the spacing underflows to 0
    grid = TransectGrid(3, 6, 1e-300, 1.0)
    h = Hyperparams(1e100, 1.0, 1.0, 0.1)
    calls = [
        lambda: sample_prior_field(grid, h, 0),
        lambda: gp.grid_entropy(grid, h),
        lambda: cov_matrix(grid.locations(), h, grid.widths),
        lambda: bound_params(h, grid.widths),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="overflow float64 as counts of cells"):
            call()


def test_sample_prior_field_draws_ell_of_ten_thousand_cells():
    grid = TransectGrid(5, 40, 5.0, 5.0)
    z = sample_prior_field(grid, Hyperparams(5e4, 16.0, 0.1542, 0.0036), seed=0)
    assert z.shape == (5, 40)
    assert np.isfinite(z).all()
