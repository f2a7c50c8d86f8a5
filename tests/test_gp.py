import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transectplan import (
    FactorizationFailure,
    GridTooLarge,
    Hyperparams,
    Location,
    SingularCovariance,
    TransectGrid,
    cond_mutual_info,
    conditional_entropy,
    cov_matrix,
    covariance,
    gaussian_entropy,
    posterior_cov,
    posterior_mean,
    sample_prior_field,
)
from transectplan import gp
from transectplan.gp import (
    MAX_DENSE_CELLS,
    GrowingFactor,
    _kron_eigen,
    chol_factor,
    cross_cov,
    logdet_from_factor,
    minor_entropies,
    precision,
)

from oracles import (
    oracle_cond_entropy,
    oracle_cov,
    oracle_entropy,
    oracle_posterior_cov,
    oracle_posterior_mean,
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
    assert covariance(u, u, H, W) == pytest.approx(1.1, abs=0)


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


def test_covariance_one_column_step():
    # ell1 equals omega1, so one horizontal step decays by exp(-1/2)
    got = covariance(Location(0, 0), Location(1, 0), H, W)
    assert got == pytest.approx(EXP_HALF, rel=1e-15)


def test_covariance_symmetry_and_stationarity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = Location(int(rng.integers(0, 9)), int(rng.integers(0, 7)))
        v = Location(int(rng.integers(0, 9)), int(rng.integers(0, 7)))
        a = covariance(u, v, H, W)
        assert a == covariance(v, u, H, W)
        shifted = covariance(
            Location(u.col + 1, u.row), Location(v.col + 1, v.row), H, W
        )
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
    val = covariance(Location(0, 0), Location(dc, dr), h, W)
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


def test_posterior_mean_prior_when_unobserved():
    mu = posterior_mean([Location(0, 0)], [], [], H, W, mean=3.5)
    assert mu[0] == 3.5


def test_posterior_mean_at_prior_values_returns_prior():
    obs = [Location(0, 0), Location(1, 2)]
    mu = posterior_mean([Location(2, 1)], obs, [2.0, 2.0], H, W, mean=2.0)
    assert mu[0] == pytest.approx(2.0, abs=1e-12)


def test_posterior_mean_noiseless_interpolates():
    h0 = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.0)
    obs = [Location(0, 0), Location(2, 3)]
    mu = posterior_mean([Location(2, 3)], obs, [1.2, -0.7], h0, W, mean=0.0)
    assert mu[0] == pytest.approx(-0.7, abs=1e-9)


def test_posterior_mean_scalar_conditioning_formula():
    # 2x2 grid, one observation: mean shifts by (cov_uv / cov_vv) * residual
    u, v = Location(1, 1), Location(0, 0)
    z, mean = 4.2, 10.0
    expect = mean + covariance(u, v, H, W) / covariance(v, v, H, W) * (z - mean)
    got = posterior_mean([u], [v], [z], H, W, mean=mean)
    assert got[0] == pytest.approx(expect, rel=1e-12)


def test_posterior_mean_matches_dense_oracle():
    rng = np.random.default_rng(2)
    obs = [Location(c, int(rng.integers(0, 5))) for c in range(5)]
    vals = rng.normal(10.0, 1.0, size=5)
    targets = [Location(6, 2), Location(7, 0), Location(0, 4)]
    got = posterior_mean(targets, obs, vals, H, W, mean=10.0)
    want = oracle_posterior_mean(targets, obs, vals, H, W, mean=10.0)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_duplicate_noiseless_observations_rejected():
    h0 = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.0)
    dup = [Location(0, 0), Location(0, 0)]
    with pytest.raises(SingularCovariance):
        posterior_mean([Location(1, 0)], dup, [1.0, 1.0], h0, W)


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


def test_posterior_cov_is_measurement_free_api():
    # the mean changes with the data, the covariance cannot
    obs = [Location(0, 0), Location(1, 3)]
    targets = [Location(2, 2)]
    cov_once = posterior_cov(targets, obs, H, W)
    posterior_mean(targets, obs, [0.0, 0.0], H, W)
    posterior_mean(targets, obs, [123.0, -5.0], H, W)
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
    np.testing.assert_allclose(minor_entropies(cov, idx), want, rtol=1e-11)


def test_minor_entropies_jitter_one_minor():
    # cells 0 and 1 coincide without noise: that minor needs the jitter
    # ladder, the others factor as they are
    cov = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
    idx = np.array([[0, 1], [0, 2], [1, 2]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov[:2, :2])
    want = [gaussian_entropy(cov[np.ix_(r, r)]) for r in idx]
    np.testing.assert_array_equal(minor_entropies(cov, idx), want)


def test_minor_entropies_collapsed_minor_raises():
    with pytest.raises(SingularCovariance):
        minor_entropies(np.diag([1.0, 1e-310]), np.array([[0], [1]]))


# ----------------------------------------------------------- growing factor


def grid_entries(grid, h):
    """``entries(a, b)`` of the prior covariance over column-major cells."""
    cells = grid.locations()

    def entries(a, b):
        return cross_cov([cells[i] for i in a], [cells[j] for j in b], h, grid.widths)

    return entries


def grown_history(grid, h, seed, k):
    """Grow a factor from random rows of column 0 by random rows of every
    later column; yields (factor, column cells, S, W) before each append."""
    rng = np.random.default_rng(seed)
    rows = lambda: np.sort(rng.choice(grid.n_rows, k, replace=False))
    f = GrowingFactor(grid_entries(grid, h), rows())
    for col in range(1, grid.n_cols):
        column = col * grid.n_rows + np.arange(grid.n_rows)
        s, w = f.condition(column)
        yield f, column, s, w
        chosen = rows()
        f.extend(column[chosen], w[:, chosen], s[np.ix_(chosen, chosen)])
    yield f, None, None, None


@pytest.mark.parametrize("seed, k", [(0, 1), (1, 2), (2, 3)])
def test_growing_factor_tracks_history_gram(seed, k):
    g = TransectGrid(4, 9, 5.0, 5.0)
    h = Hyperparams(ell1=8.0, ell2=6.0, signal_var=2.5, noise_var=0.01)
    cells = g.locations()
    for f, column, s, _ in grown_history(g, h, seed, k):
        history = [cells[i] for i in f.cells]
        want = cov_matrix(history, h, g.widths)
        np.testing.assert_allclose(
            f.factor @ f.factor.T, want, rtol=0, atol=1e-12 * h.signal_var
        )
        if column is not None:
            post = posterior_cov([cells[i] for i in column], history, h, g.widths)
            np.testing.assert_allclose(s, post, rtol=0, atol=1e-12 * h.signal_var)


def test_growing_factor_precision_route_inverts_rest_posterior():
    # conditioning the grid precision on the visited cells gives the inverse
    # of the column's covariance given every unvisited cell
    g = TransectGrid(4, 7, 5.0, 5.0)
    h = Hyperparams(ell1=8.0, ell2=6.0, signal_var=1.5, noise_var=0.05)
    cells = g.locations()
    n = len(cells)
    p = precision(cov_matrix(cells, h, g.widths))
    for f, column, _, _ in grown_history(g, h, 3, 2):
        if column is None:
            break
        prec = GrowingFactor(lambda a, b: p[np.ix_(a, b)], f.cells)
        lam, _ = prec.condition(column)
        others = [cells[i] for i in np.setdiff1d(np.arange(n), np.r_[f.cells, column])]
        rest = posterior_cov([cells[i] for i in column], others, h, g.widths)
        np.testing.assert_allclose(lam, np.linalg.inv(rest), rtol=1e-9)


def test_growing_factor_refactors_when_the_pivot_block_fails(monkeypatch):
    g = TransectGrid(4, 6, 5.0, 5.0)
    cells = g.locations()
    steps = list(grown_history(g, H, 4, 2))
    f, _, _, _ = steps[-1]

    refactored = []
    real_cholesky, real_chol_factor = np.linalg.cholesky, gp.chol_factor

    def cholesky(a):
        if a.shape == (2, 2):
            raise np.linalg.LinAlgError("forced")
        return real_cholesky(a)

    def counted(cov):
        refactored.append(cov.shape[0])
        return real_chol_factor(cov)

    grown = grown_history(g, H, 4, 2)
    next(grown)  # the start is factored before any pivot block fails
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    monkeypatch.setattr(gp, "chol_factor", counted)
    forced = list(grown)[-1][0]
    # one whole-history refactor per append
    assert refactored == [4, 6, 8, 10, 12]
    np.testing.assert_array_equal(forced.cells, f.cells)
    np.testing.assert_allclose(forced.factor, f.factor, rtol=0, atol=1e-13)
    want = cov_matrix([cells[i] for i in f.cells], H, g.widths)
    np.testing.assert_array_equal(forced.factor, real_cholesky(want))


def test_precision_inverts_through_chol_factor():
    g = TransectGrid(4, 6, 5.0, 5.0)
    cov = cov_matrix(g.locations(), H, g.widths)
    p = precision(cov.copy())
    np.testing.assert_array_equal(p, p.T)
    np.testing.assert_allclose(p @ cov, np.eye(cov.shape[0]), rtol=0, atol=1e-9)
    # a matrix that needs jitter is inverted as chol_factor jitters it
    L = chol_factor(np.ones((3, 3)))
    np.testing.assert_allclose(precision(np.ones((3, 3))), np.linalg.inv(L @ L.T), rtol=1e-6)


def test_precision_refuses_a_matrix_it_cannot_invert():
    with pytest.raises(FactorizationFailure):
        precision(-np.eye(3))
    with pytest.raises(SingularCovariance):
        precision(np.diag([1.0, 1e-310]))


# ------------------------------------------------------ conditional entropy


def test_conditional_entropy_matches_oracle():
    targets = [Location(4, 1), Location(5, 2)]
    obs = [Location(c, 0) for c in range(4)]
    got = conditional_entropy(targets, obs, H, W)
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
        split = gaussian_entropy(cov_matrix(a, H, W)) + conditional_entropy(b, a, H, W)
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


@pytest.mark.parametrize(
    "grid, h",
    [
        # non-square cells and ell1 != ell2: a swapped axis shows up
        (TransectGrid(3, 7, 4.0, 2.5), Hyperparams(9.0, 3.0, 2.5, 0.0)),
        (grid_5x8(), H),
        # survey length-scales without noise: condition number about 4e17
        (TransectGrid(5, 30, 5.0, 5.0), Hyperparams(40.45, 16.0, 0.1542, 0.0)),
    ],
    ids=["anisotropic", "noisy", "survey-noise-free"],
)
def test_kron_eigen_rebuilds_grid_covariance(grid, h):
    q_c, q_r, var = _kron_eigen(grid, h)
    assert var.shape == (grid.n_cols, grid.n_rows)
    assert var.min() >= h.noise_var
    q = np.kron(q_c, q_r)
    want = cov_matrix(grid.locations(), h, grid.widths)
    np.testing.assert_allclose(
        q @ np.diag(var.ravel()) @ q.T, want, rtol=0.0, atol=1e-12 * h.signal_var
    )


def test_sample_prior_field_draws_the_grid_covariance():
    # A draw is mean + A e with e = default_rng(seed).standard_normal(n), so
    # n seeds recover the linear map A, and A A^T is the law of every draw.
    grid = TransectGrid(3, 7, 4.0, 2.5)
    h = Hyperparams(9.0, 3.0, 2.5, 0.3)
    n = grid.n_rows * grid.n_cols
    e = np.array([np.random.default_rng(s).standard_normal(n) for s in range(n)])
    z = np.array(
        [sample_prior_field(grid, h, seed=s, mean=1.5).T.ravel() - 1.5 for s in range(n)]
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
