import functools
import inspect
import itertools
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from transectplan import (
    POLICIES,
    BudgetExceeded,
    GridTooLarge,
    Hyperparams,
    InvalidArity,
    ObservationPath,
    ParseError,
    RobotConfig,
    TransectGrid,
    conditional_entropy,
    enumerate_configs,
    path_entropies,
    path_entropy,
    plan,
    plan_exact,
    plan_exact_all,
    plan_greedy,
    plan_greedy_entropy,
    plan_greedy_mi,
    plan_markov,
    rollout,
)
from transectplan import gp, planners
from transectplan.errors import FactorizationFailure, SingularCovariance
from transectplan.gp import MAX_DENSE_CELLS
from transectplan.planners import TIE_RTOL, stage_entropy_table
from transectplan.transect import config_locations

from oracles import (
    oracle_cond_entropy,
    oracle_cov,
    oracle_entropy,
    oracle_full_best,
    oracle_greedy_ent_scores,
    oracle_greedy_mi_scores,
    oracle_markov_best,
    random_hyperparams,
    scaled_grid,
)

H = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.1)


def small_grid(r=3, c=4):
    return TransectGrid(r, c, 5.0, 5.0)


def stagewise_value(path, h):
    """Sum of one-column-lookback conditional entropies along a path,
    recomputed with the dense oracle."""
    total = 0.0
    for col in range(1, path.grid.n_cols):
        total += oracle_cond_entropy(
            list(config_locations(path.configs[col], col)),
            list(config_locations(path.configs[col - 1], col - 1)),
            h,
            path.grid.widths,
        )
    return total


# ----------------------------------------------------------- markov planner


def test_markov_policy_tables_shape():
    g = small_grid(3, 5)
    pol = plan_markov(g, H, k=1)
    m = len(enumerate_configs(g, 1))
    assert pol.values.shape == (g.n_cols - 1, m)
    assert pol.actions.shape == (g.n_cols - 1, m)
    assert np.isfinite(pol.values).all()


def test_markov_matches_sequence_oracle_small():
    rng = np.random.default_rng(10)
    for trial in range(6):
        g, h = scaled_grid(rng, 3, 4, random_hyperparams(rng))
        pol = plan_markov(g, h, k=1)
        for x0 in enumerate_configs(g, 1):
            want = oracle_markov_best(g, h, 1, x0)
            assert pol.value(0, x0) == pytest.approx(want, abs=1e-9)
            # the greedy rollout of the tables attains that optimum
            path = rollout(pol, x0)
            assert stagewise_value(path, h) == pytest.approx(want, abs=1e-9)


def test_markov_matches_sequence_oracle_two_robots():
    rng = np.random.default_rng(11)
    g, h = scaled_grid(rng, 3, 4, random_hyperparams(rng))
    pol = plan_markov(g, h, k=2)
    for x0 in enumerate_configs(g, 2):
        want = oracle_markov_best(g, h, 2, x0)
        assert pol.value(0, x0) == pytest.approx(want, abs=1e-9)
        path = rollout(pol, x0)
        assert stagewise_value(path, h) == pytest.approx(want, abs=1e-9)


def test_markov_single_row_grid_unique_path():
    g = TransectGrid(1, 6, 5.0, 5.0)
    pol = plan_markov(g, H, k=1)
    path = rollout(pol, RobotConfig((0,)))
    assert all(c == RobotConfig((0,)) for c in path.configs)
    assert len(path.configs) == g.n_cols


def test_markov_full_team_single_config():
    g = small_grid(3, 4)
    pol = plan_markov(g, H, k=3)
    x = RobotConfig((0, 1, 2))
    path = rollout(pol, x)
    assert all(c == x for c in path.configs)


def test_stage_entropy_table_entries():
    g = small_grid(3, 4)
    configs = enumerate_configs(g, 1)
    table = stage_entropy_table(g, H, configs)
    for i, xi in enumerate(configs):
        for j, xj in enumerate(configs):
            want = conditional_entropy(
                list(config_locations(xj, 1)),
                list(config_locations(xi, 0)),
                H,
                g.widths,
            )
            assert table[i, j] == pytest.approx(want, abs=1e-12)


def test_markov_bellman_consistency():
    g = small_grid(3, 5)
    pol = plan_markov(g, H, k=1)
    configs = enumerate_configs(g, 1)
    table = stage_entropy_table(g, H, configs)
    n_stages = g.n_cols - 1
    for stage in range(n_stages):
        if stage + 1 < n_stages:
            vnext = pol.values[stage + 1]
        else:
            vnext = np.zeros(len(configs))
        for i in range(len(configs)):
            scores = table[i] + vnext
            assert pol.values[stage, i] == pytest.approx(scores.max(), abs=1e-12)
            assert pol.actions[stage, i] == int(np.argmax(scores))


def test_markov_value_upper_bounds_exact():
    # one-column lookback drops conditioning information, so the stagewise
    # sum can only overstate the joint path entropy
    rng = np.random.default_rng(12)
    for _ in range(5):
        g, h = scaled_grid(rng, 3, 4, random_hyperparams(rng))
        pol = plan_markov(g, h, k=1)
        for x0 in enumerate_configs(g, 1):
            exact = plan_exact(g, h, 1, x0)
            assert pol.value(0, x0) >= exact.value - 1e-9


def test_markov_rollout_below_stagewise_value():
    rng = np.random.default_rng(15)
    g, h = scaled_grid(rng, 4, 5, random_hyperparams(rng))
    pol = plan_markov(g, h, k=1)
    for x0 in enumerate_configs(g, 1):
        path = rollout(pol, x0)
        assert path_entropy(path, h) <= pol.value(0, x0) + 1e-9


def test_markov_deterministic():
    g = small_grid(4, 6)
    a = plan_markov(g, H, k=2)
    b = plan_markov(g, H, k=2)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.actions, b.actions)


@pytest.mark.parametrize(
    "x",
    [RobotConfig((1,)), RobotConfig((0, 1, 2)), RobotConfig((0, 4)), RobotConfig((4, 7))],
    ids=["k1", "k3", "row-off-grid", "rows-off-grid"],
)
def test_markov_policy_rejects_foreign_configuration(x):
    pol = plan_markov(small_grid(4, 6), H, k=2)
    with pytest.raises(InvalidArity):
        pol.value(0, x)
    with pytest.raises(InvalidArity):
        pol.action(0, x)
    with pytest.raises(InvalidArity):
        rollout(pol, x)


# ------------------------------------------------------------ exact planner


def test_exact_matches_joint_entropy_oracle():
    rng = np.random.default_rng(13)
    for _ in range(6):
        g, h = scaled_grid(rng, 3, 4, random_hyperparams(rng))
        for x0 in enumerate_configs(g, 1):
            want_val, want_seq = oracle_full_best(g, h, 1, x0)
            res = plan_exact(g, h, 1, x0)
            assert res.value == pytest.approx(want_val, abs=1e-9)
            assert res.path.configs[1:] == want_seq


def test_exact_two_robots_matches_oracle():
    rng = np.random.default_rng(14)
    g, h = scaled_grid(rng, 3, 4, random_hyperparams(rng))
    for x0 in enumerate_configs(g, 2):
        want_val, want_seq = oracle_full_best(g, h, 2, x0)
        res = plan_exact(g, h, 2, x0)
        assert res.value == pytest.approx(want_val, abs=1e-9)
        assert res.path.configs[1:] == want_seq


def test_exact_value_is_path_entropy():
    g = small_grid(3, 5)
    res = plan_exact(g, H, 1, RobotConfig((1,)))
    assert res.value == pytest.approx(path_entropy(res.path, H), abs=1e-10)


def test_exact_budget_guard():
    g = TransectGrid(4, 8, 5.0, 5.0)
    with pytest.raises(BudgetExceeded):
        plan_exact(g, H, 2, RobotConfig((0, 1)), budget=1000)


def test_exact_budget_counts_leaves():
    # 3 configs, 3 free columns: exactly 27 leaves, so 27 must pass
    g = small_grid(3, 4)
    res = plan_exact(g, H, 1, RobotConfig((0,)), budget=27)
    assert res.path.configs[0] == RobotConfig((0,))
    with pytest.raises(BudgetExceeded):
        plan_exact(g, H, 1, RobotConfig((0,)), budget=26)


def test_exact_tie_breaks_lexicographically():
    # length scales so small every off-diagonal covariance underflows to 0:
    # all paths collect identical information, so the lex-first must win
    h = Hyperparams(ell1=1e-3, ell2=1e-3, signal_var=1.0, noise_var=0.1)
    g = TransectGrid(3, 4, 5.0, 5.0)
    res = plan_exact(g, h, 1, RobotConfig((2,)))
    assert tuple(c.rows for c in res.path.configs[1:]) == ((0,), (0,), (0,))


def test_markov_tie_breaks_lexicographically():
    h = Hyperparams(ell1=1e-3, ell2=1e-3, signal_var=1.0, noise_var=0.1)
    g = TransectGrid(3, 4, 5.0, 5.0)
    pol = plan_markov(g, h, k=1)
    path = rollout(pol, RobotConfig((2,)))
    assert tuple(c.rows for c in path.configs[1:]) == ((0,), (0,), (0,))


def oracle_best_completion(grid, h, k, prefix):
    """Best H[rest of the path | prefix] over every completion of
    ``prefix``, by brute force with the dense oracle entropies."""
    locs = [loc for col, cfg in enumerate(prefix) for loc in config_locations(cfg, col)]
    h_prefix = oracle_entropy(oracle_cov(locs, h, grid.widths))
    best = -np.inf
    configs = enumerate_configs(grid, k)
    for seq in itertools.product(configs, repeat=grid.n_cols - len(prefix)):
        tail = [
            loc
            for col, cfg in enumerate(seq, start=len(prefix))
            for loc in config_locations(cfg, col)
        ]
        joint = oracle_entropy(oracle_cov(locs + tail, h, grid.widths))
        best = max(best, joint - h_prefix)
    return best


@pytest.mark.parametrize(
    "r, c, k, start", [(3, 4, 1, (1,)), (4, 5, 2, (0, 2))], ids=["3x4-k1", "4x5-k2"]
)
def test_exact_stage_gains_satisfy_bellman(r, c, k, start):
    # after every prefix of the optimal path, the gains still to come are
    # the best completion of that prefix
    g = small_grid(r, c)
    res = plan_exact(g, H, k, RobotConfig(start))
    for cut in range(1, g.n_cols):
        tail_best = oracle_best_completion(g, H, k, res.path.configs[:cut])
        assert sum(res.stage_gains[cut - 1 :]) == pytest.approx(tail_best, abs=1e-9)
        head = sum(res.stage_gains[: cut - 1])
        assert head + tail_best == pytest.approx(res.value, abs=1e-9)


def oracle_path_value(path, h):
    """Joint entropy of a path given its start, by the dense oracle."""
    locs = path.locations()
    start = locs[: len(path.configs[0].rows)]
    return oracle_entropy(oracle_cov(locs, h, path.grid.widths)) - oracle_entropy(
        oracle_cov(start, h, path.grid.widths)
    )


@pytest.mark.filterwarnings("ignore:transect grids are expected")
@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(2, 4),
    cols=st.integers(3, 5),
    ell1=st.floats(0.2, 1.6),
    ell2=st.floats(0.2, 2.0),
    signal=st.floats(0.05, 5.0),
    ratio=st.floats(1e-3, 0.5),
    data=st.data(),
)
def test_exact_matches_oracle_property(rows, cols, ell1, ell2, signal, ratio, data):
    # the optimum's value, and its path up to ties within TIE_RTOL
    k = data.draw(st.integers(1, rows - 1))
    g = TransectGrid(rows, cols, 5.0, 5.0)
    h = Hyperparams(5.0 * ell1, 5.0 * ell2, signal, ratio * signal)
    x0 = data.draw(st.sampled_from(enumerate_configs(g, k)))
    want_val, want_seq = oracle_full_best(g, h, k, x0)
    res = plan_exact(g, h, k, x0)
    assert res.value == pytest.approx(want_val, abs=1e-9)
    if res.path.configs[1:] != want_seq:
        got = oracle_path_value(res.path, h)
        assert got >= want_val - TIE_RTOL * max(abs(want_val), 1.0)


def chunking_cases():
    rng = np.random.default_rng(19)
    for r, c, k in [(3, 4, 1), (3, 6, 2), (4, 5, 1), (4, 6, 2), (4, 4, 2)]:
        g, h = scaled_grid(rng, r, c, random_hyperparams(rng))
        yield pytest.param(g, h, k, enumerate_configs(g, k)[-1], id=f"random-{r}x{c}-k{k}")
    yield pytest.param(
        TransectGrid(3, 4, 5.0, 5.0),
        Hyperparams(ell1=1e-3, ell2=1e-3, signal_var=1.0, noise_var=0.1),
        1, RobotConfig((2,)), id="all-tied",
    )
    yield pytest.param(
        TransectGrid(3, 5, 5.0, 5.0),
        Hyperparams(40.45, 16.0, 0.1542, 0.0036),
        2, RobotConfig((0, 2)), id="mirror-tie",
    )
    # 4^7 = 16,384 nodes at the last scored depth, more than one chunk holds
    yield pytest.param(TransectGrid(4, 9, 5.0, 5.0), H, 1, RobotConfig((1,)), id="4x9")


@pytest.mark.parametrize("g, h, k, x0", chunking_cases())
def test_exact_answer_does_not_depend_on_chunking(monkeypatch, g, h, k, x0):
    results = []
    for cap in (1, 7, planners._CHUNK_NODES):
        monkeypatch.setattr(planners, "_CHUNK_NODES", cap)
        res = plan_exact(g, h, k, x0)
        results.append((res.value, res.path.configs, res.stage_gains))
    assert results[0] == results[1] == results[2]


def exact_bits(res):
    return (res.value.hex(), res.path.configs, [g.hex() for g in res.stage_gains])


@pytest.mark.parametrize(
    "g, h, k, starts",
    [
        pytest.param(
            TransectGrid(3, 4, 5.0, 5.0),
            Hyperparams(ell1=1e-3, ell2=1e-3, signal_var=1.0, noise_var=0.1),
            1, None, id="all-tied",
        ),
        pytest.param(
            TransectGrid(3, 5, 5.0, 5.0), Hyperparams(40.45, 16.0, 0.1542, 0.0036), 2, None,
            id="mirror-tie",
        ),
        pytest.param(
            TransectGrid(4, 9, 5.0, 5.0), H, 1, [RobotConfig((1,)), RobotConfig((2,))], id="4x9"
        ),
        # noise-free and long-correlated: some levels need the per-node
        # route, which must not spread to other starts' nodes
        pytest.param(
            TransectGrid(3, 4, 5.0, 5.0), Hyperparams(1000.0, 100.0, 1.0, 0.0), 2, None,
            id="noise-free-fallback",
        ),
    ],
)  # fmt: skip
def test_exact_all_matches_one_start_calls(monkeypatch, g, h, k, starts):
    # every start's value, path and stage gains, bit for bit, however the
    # chunks of the shared tree split the starts
    starts = starts or enumerate_configs(g, k)
    for cap in (1, 7, planners._CHUNK_NODES):
        monkeypatch.setattr(planners, "_CHUNK_NODES", cap)
        alone = [exact_bits(plan_exact(g, h, k, x0)) for x0 in starts]
        assert [exact_bits(r) for r in plan_exact_all(g, h, k, starts)] == alone


def test_exact_all_searches_start_by_start_when_a_level_fails(monkeypatch):
    g = small_grid(4, 6)
    starts = enumerate_configs(g, 1)
    real = np.linalg.cholesky

    def cholesky(a):
        # every stacked factor of depth 2: 3 history cells plus the next column
        if a.ndim == 3 and a.shape[-1] == 3 + g.n_rows:
            raise np.linalg.LinAlgError("forced")
        return real(a)

    calls = []
    column_entropies = planners._column_entropies

    def counted(*args):
        calls.append(args[3])
        return column_entropies(*args)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    monkeypatch.setattr(planners, "_column_entropies", counted)
    alone = [exact_bits(plan_exact(g, H, 1, x0)) for x0 in starts]
    calls.clear()
    assert [exact_bits(r) for r in plan_exact_all(g, H, 1, starts)] == alone
    # each start's 16 nodes of depth 2 were redone, as when searched alone
    assert calls == [3] * 16 * len(starts)


def test_exact_all_raises_the_first_failing_starts_refusal():
    h = Hyperparams(ell1=1e6, ell2=1e6, signal_var=1.0, noise_var=0.0)
    g = small_grid(3, 5)
    starts = enumerate_configs(g, 1)
    with pytest.raises((SingularCovariance, FactorizationFailure)) as alone:
        plan_exact(g, h, 1, starts[0])
    with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
        plan_exact_all(g, h, 1, starts)
    assert plan_exact_all(g, h, 1, []) == []
    with pytest.raises(InvalidArity):
        plan_exact_all(g, H, 1, [starts[0], RobotConfig((3,))])


@pytest.mark.filterwarnings("ignore:transect grids are expected")
@pytest.mark.parametrize("ratio", [0.0, 1e-6, 1e-3, 0.3])
def test_path_entropies_match_path_entropy_bits(ratio):
    rng = np.random.default_rng(23)
    answered = 0
    for _ in range(25):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(2, 40))
        k = int(rng.integers(1, rows + 1))
        omega = float(rng.uniform(1.0, 10.0))
        ell1, ell2 = omega * rng.uniform(0.2, 6.0, size=2)
        signal = float(rng.uniform(0.05, 5.0))
        g = TransectGrid(rows, cols, omega, omega)
        h = Hyperparams(float(ell1), float(ell2), signal, ratio * signal)
        configs = enumerate_configs(g, k)
        paths = [
            ObservationPath(g, tuple(configs[j] for j in rng.integers(0, len(configs), cols)))
            for _ in range(4)
        ]
        want = []
        for path in paths:
            try:
                want.append(path_entropy(path, h).hex())
            except (SingularCovariance, FactorizationFailure) as exc:
                want.append(type(exc))
        refused = [w for w in want if isinstance(w, type)]
        if refused:
            with pytest.raises(refused[0]):
                path_entropies(paths, h)
            continue
        assert [v.hex() for v in path_entropies(paths, h).tolist()] == want
        answered += 1
    assert answered >= 20


@pytest.mark.parametrize(
    "h, refusal",
    [
        # noise-free and fully correlated: the stack does not factor, and
        # the jitter ladder answers
        (Hyperparams(ell1=1e6, ell2=1e6, signal_var=1.0, noise_var=0.0), None),
        # every factor entry below DIAG_FLOOR
        (Hyperparams(ell1=5.0, ell2=4.0, signal_var=1e-305, noise_var=0.0), SingularCovariance),
    ],
    ids=["collapsed", "below-floor"],
)
def test_path_entropies_fall_back_to_path_entropy(monkeypatch, h, refusal):
    g = small_grid(3, 5)
    paths = [ObservationPath(g, (RobotConfig((r,)),) * 5) for r in range(3)]
    calls = []
    real = planners.path_entropy
    monkeypatch.setattr(planners, "path_entropy", lambda p, h: calls.append(p) or real(p, h))
    if refusal is None:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gp.cov_matrix(paths[0].locations(), h, g.widths))
        assert [v.hex() for v in path_entropies(paths, h).tolist()] == [
            real(p, h).hex() for p in paths
        ]
        assert calls == paths
    else:
        with pytest.raises(refusal):
            real(paths[0], h)
        with pytest.raises(refusal):
            path_entropies(paths, h)
        assert calls == paths[:1]
    assert path_entropies([], h).shape == (0,)


def test_exact_frontier_memory_stays_chunked():
    # the unchunked frontier of this 4x9 search peaks near 42 MB, the
    # chunked one near 3.5 MB
    tracemalloc.start()
    try:
        plan_exact(TransectGrid(4, 9, 5.0, 5.0), H, 1, RobotConfig((1,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_exact_redoes_a_failed_level_node_by_node(monkeypatch):
    g = small_grid(4, 6)
    x0 = RobotConfig((1,))
    want = plan_exact(g, H, 1, x0)

    # the stacked factor of depth 2: 3 history cells plus the next column
    real = np.linalg.cholesky

    def cholesky(a):
        if a.ndim == 3 and a.shape[-1] == 3 + g.n_rows:
            raise np.linalg.LinAlgError("forced")
        return real(a)

    calls = []
    column_entropies = planners._column_entropies

    def counted(*args):
        calls.append(args[3])
        return column_entropies(*args)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    monkeypatch.setattr(planners, "_column_entropies", counted)
    res = plan_exact(g, H, 1, x0)
    # only the 16 nodes of depth 2 were redone, each scoring column 3
    assert calls == [3] * 16
    assert res.path.configs == want.path.configs
    assert res.value == pytest.approx(want.value, rel=1e-12)
    assert res.stage_gains == pytest.approx(want.stage_gains, rel=1e-12)


def test_exact_refuses_collapsed_noise_free_instance():
    # every cell perfectly correlated and no noise: the level factor fails,
    # and the per-node route refuses with a typed error
    h = Hyperparams(ell1=1e6, ell2=1e6, signal_var=1.0, noise_var=0.0)
    with pytest.raises((SingularCovariance, FactorizationFailure)):
        plan_exact(small_grid(3, 5), h, 1, RobotConfig((0,)))


# ---------------------------------------------------------- greedy planners


def test_greedy_entropy_never_beats_exact():
    rng = np.random.default_rng(16)
    for _ in range(8):
        g, h = scaled_grid(rng, 3, 4, random_hyperparams(rng))
        for x0 in enumerate_configs(g, 1):
            exact = plan_exact(g, h, 1, x0)
            greedy = plan_greedy_entropy(g, h, 1, x0)
            assert greedy.value <= exact.value + 1e-9


def test_greedy_mi_never_beats_exact():
    rng = np.random.default_rng(17)
    for _ in range(8):
        g, h = scaled_grid(rng, 3, 4, random_hyperparams(rng))
        for x0 in enumerate_configs(g, 1):
            exact = plan_exact(g, h, 1, x0)
            greedy = plan_greedy_mi(g, h, 1, x0)
            assert greedy.value <= exact.value + 1e-9


def test_greedy_single_decision_equals_exact():
    # two columns, one decision: the greedy step IS the exhaustive optimum
    rng = np.random.default_rng(18)
    for _ in range(10):
        g, h = scaled_grid(rng, 4, 2, random_hyperparams(rng))
        for x0 in enumerate_configs(g, 2):
            exact = plan_exact(g, h, 2, x0)
            greedy = plan_greedy_entropy(g, h, 2, x0)
            assert greedy.value == pytest.approx(exact.value, abs=1e-9)
            assert greedy.path.configs == exact.path.configs


def test_greedy_values_are_path_entropies():
    g = small_grid(3, 5)
    x0 = RobotConfig((0,))
    for planner in (plan_greedy_entropy, plan_greedy_mi):
        res = planner(g, H, 1, x0)
        assert res.value == pytest.approx(path_entropy(res.path, H), abs=1e-10)
        assert res.path.configs[0] == x0


def test_greedy_mi_steps_match_oracle():
    # symmetric starts make exact ties whose winner depends on rounding
    # order, so the check is argmax-up-to-ties against the flat oracle
    g = TransectGrid(5, 8, 5.0, 5.0)
    x0 = RobotConfig((2,))
    res = plan_greedy_mi(g, H, 1, x0)
    configs = enumerate_configs(g, 1)
    visited = list(config_locations(x0, 0))
    for col in range(1, g.n_cols):
        scores = oracle_greedy_mi_scores(g, H, visited, col, configs)
        chosen = res.path.configs[col]
        assert scores[configs.index(chosen)] >= max(scores) - 1e-9
        visited.extend(config_locations(chosen, col))


@pytest.mark.filterwarnings("ignore:transect grids are expected")
@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(2, 6),
    cols=st.integers(3, 10),
    ell1=st.floats(0.2, 1.6),
    ell2=st.floats(0.2, 2.0),
    signal=st.floats(0.05, 5.0),
    ratio=st.floats(1e-3, 1.0),
    data=st.data(),
)
def test_greedy_steps_match_oracle_property(rows, cols, ell1, ell2, signal, ratio, data):
    # every column's choice is a best flat-oracle score up to 1e-9
    k = data.draw(st.integers(1, rows - 1))
    g = TransectGrid(rows, cols, 5.0, 5.0)
    h = Hyperparams(5.0 * ell1, 5.0 * ell2, signal, ratio * signal)
    configs = enumerate_configs(g, k)
    x0 = data.draw(st.sampled_from(configs))
    for planner, oracle in (
        (plan_greedy_entropy, oracle_greedy_ent_scores),
        (plan_greedy_mi, oracle_greedy_mi_scores),
    ):
        res = planner(g, h, k, x0)
        visited = list(config_locations(x0, 0))
        for col in range(1, cols):
            scores = oracle(g, h, visited, col, configs)
            chosen = res.path.configs[col]
            assert scores[configs.index(chosen)] >= max(scores) - 1e-9
            visited.extend(config_locations(chosen, col))


def test_greedy_mi_refuses_collapsed_noise_free_instance():
    # every cell perfectly correlated and no noise: the grid's Gram matrix
    # has no inverse, and the refusal is typed
    h = Hyperparams(ell1=1e6, ell2=1e6, signal_var=1.0, noise_var=0.0)
    with pytest.raises((SingularCovariance, FactorizationFailure)):
        plan_greedy_mi(small_grid(3, 5), h, 1, RobotConfig((0,)))


def test_greedy_mi_full_coverage_scores_by_prior_entropy():
    # two robots on two rows leave no unvisited complement; the planner
    # must still run and fill every column with the only config there is
    g = TransectGrid(2, 4, 5.0, 5.0)
    res = plan_greedy_mi(g, H, 2, RobotConfig((0, 1)))
    assert all(c == RobotConfig((0, 1)) for c in res.path.configs)
    assert res.value == pytest.approx(path_entropy(res.path, H), abs=1e-10)


def test_greedy_mi_tie_takes_lex_smallest():
    h = Hyperparams(ell1=1e-3, ell2=1e-3, signal_var=1.0, noise_var=0.1)
    g = TransectGrid(3, 4, 5.0, 5.0)
    res = plan_greedy_mi(g, h, 1, RobotConfig((2,)))
    assert tuple(c.rows for c in res.path.configs[1:]) == ((0,), (0,), (0,))


def test_exact_refuses_off_grid_history():
    g = TransectGrid(4, 8, 5.0, 5.0)
    with pytest.raises(InvalidArity):
        plan_exact(g, H, 1, RobotConfig((6,)))
    with pytest.raises(InvalidArity):
        plan_exact(g, H, 1, RobotConfig((0, 2)))


@pytest.mark.parametrize("planner", [plan_greedy_entropy, plan_greedy_mi])
def test_greedy_refuses_foreign_start(planner):
    g = TransectGrid(4, 8, 5.0, 5.0)
    with pytest.raises(InvalidArity):
        planner(g, H, 1, RobotConfig((6,)))
    with pytest.raises(InvalidArity):
        planner(g, H, 1, RobotConfig((0, 2)))


# The paper's fitted hyperparameters for the two survey fields.
SURVEY_FITS = {
    "temperature": Hyperparams(ell1=40.45, ell2=16.0, signal_var=0.1542, noise_var=0.0036),
    "plankton": Hyperparams(ell1=27.53, ell2=134.64, signal_var=2.152, noise_var=0.041),
}
ONE_START = {"greedy-ent": plan_greedy_entropy, "greedy-mi": plan_greedy_mi}


def assert_sweep_matches_one_start_calls(policy, g, h, k):
    starts = enumerate_configs(g, k)
    swept = plan_greedy(policy, g, h, k, starts)
    assert [r.path.start for r in swept] == starts
    for x0, res in zip(starts, swept):
        alone = ONE_START[policy](g, h, k, x0)
        assert res.policy_kind == alone.policy_kind == policy
        assert res.path == alone.path
        assert float(res.value).hex() == float(alone.value).hex()


@pytest.mark.parametrize("policy", ["greedy-ent", "greedy-mi"])
@pytest.mark.parametrize("fit", sorted(SURVEY_FITS))
@pytest.mark.parametrize("k", [1, 2])
def test_greedy_sweep_matches_one_start_calls(policy, fit, k):
    assert_sweep_matches_one_start_calls(policy, TransectGrid(5, 40, 5.0, 5.0), SURVEY_FITS[fit], k)


@pytest.mark.parametrize("policy", ["greedy-ent", "greedy-mi"])
def test_greedy_sweep_matches_one_start_calls_through_refactors(monkeypatch, policy):
    # noise-free and nearly constant across the track: chosen posterior
    # minors need jitter, so some members' pivot blocks fail and are
    # refactored alone while the others grow
    g = TransectGrid(5, 8, 5.0, 5.0)
    h = Hyperparams(ell1=15.0, ell2=1000.0, signal_var=1.0, noise_var=0.0)
    k = 4
    orders = []
    real_chol_factor = gp.chol_factor

    def counted(cov):
        orders.append(cov.shape[0])
        return real_chol_factor(cov)

    monkeypatch.setattr(gp, "chol_factor", counted)
    assert_sweep_matches_one_start_calls(policy, g, h, k)
    # a history refactor has more than one column's cells and fewer than a path's
    assert any(k < n < k * g.n_cols for n in orders)


def test_greedy_mi_refuses_grid_past_dense_limit():
    g = TransectGrid(1, MAX_DENSE_CELLS + 1, 5.0, 5.0)
    with pytest.raises(GridTooLarge):
        plan_greedy_mi(g, H, 1, RobotConfig((0,)))


def test_exact_search_depth_outlasts_recursion_limit():
    # one row forces the path; 149 stages must not need 149 stack frames
    g = TransectGrid(1, 150, 5.0, 5.0)
    x0 = RobotConfig((0,))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        res = plan_exact(g, H, 1, x0)
    finally:
        sys.setrecursionlimit(limit)
    assert res.path.configs == (x0,) * g.n_cols
    assert res.value == pytest.approx(path_entropy(res.path, H), rel=1e-9)


# ------------------------------------------------------------ plan front end


def direct_call(policy, g, h, k, x0):
    if policy == "markov":
        pol = plan_markov(g, h, k)
        return "markov", rollout(pol, x0), pol.value(0, x0)
    planner = {
        "exact": plan_exact,
        "greedy-ent": plan_greedy_entropy,
        "greedy-mi": plan_greedy_mi,
    }[policy]
    res = planner(g, h, k, x0)
    return res.policy_kind, res.path, res.value


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("k, x0", [(1, RobotConfig((2,))), (2, RobotConfig((0, 3)))])
def test_plan_matches_direct_call(policy, k, x0):
    g = small_grid(4, 5)
    res = plan(policy, g, H, k, x0)
    kind, path, value = direct_call(policy, g, H, k, x0)
    assert res.policy_kind == kind == policy
    assert res.path.configs == path.configs
    assert res.value == value


def test_plan_passes_budget_to_exact_only():
    g = small_grid(3, 4)
    with pytest.raises(BudgetExceeded):
        plan("exact", g, H, 1, RobotConfig((0,)), budget=26)
    for policy in ("markov", "greedy-ent", "greedy-mi"):
        assert plan(policy, g, H, 1, RobotConfig((0,)), budget=1).policy_kind == policy


@pytest.mark.parametrize("policy", ["", "greedy", "Markov", "greedy_mi", "exact "])
def test_plan_refuses_unknown_policy(policy):
    with pytest.raises(ParseError, match="unknown policy"):
        plan(policy, small_grid(3, 4), H, 1, RobotConfig((0,)))


def test_planner_kinds_labelled():
    g = small_grid(3, 4)
    x0 = RobotConfig((0,))
    assert plan("markov", g, H, 1, x0).policy_kind == "markov"
    assert plan_exact(g, H, 1, x0).policy_kind == "exact"
    assert plan_greedy_entropy(g, H, 1, x0).policy_kind == "greedy-ent"
    assert plan_greedy_mi(g, H, 1, x0).policy_kind == "greedy-mi"


def test_planners_deterministic_across_calls():
    g = small_grid(4, 5)
    x0 = RobotConfig((1,))
    for planner in (plan_greedy_entropy, plan_greedy_mi):
        a = planner(g, H, 1, x0)
        b = planner(g, H, 1, x0)
        assert a.path.configs == b.path.configs
        assert a.value == b.value


# ------------------------------------------------------------- mirror ties


def mirror(cfg, n_rows):
    return RobotConfig(tuple(sorted(n_rows - 1 - r for r in cfg.rows)))


def assert_first_move_not_after_mirror(planner, g, h, k, x0):
    # reflecting the rows maps the instance onto itself, so a move and its
    # mirror score the same up to rounding and the smaller one must win
    assert mirror(x0, g.n_rows) == x0
    first = planner(g, h, k, x0).path.configs[1]
    assert first.rows <= mirror(first, g.n_rows).rows


@pytest.mark.parametrize(
    "planner, g, h, k, x0",
    [
        (plan_greedy_mi, TransectGrid(3, 6, 5.0, 5.0),
         Hyperparams(10.0, 5.0, 1.0, 0.1), 1, RobotConfig((1,))),
        (plan_greedy_entropy, TransectGrid(5, 10, 5.0, 5.0),
         Hyperparams(40.45, 16.0, 0.1542, 0.0036), 2, RobotConfig((0, 4))),
        (functools.partial(plan, "markov"), TransectGrid(3, 5, 5.0, 5.0),
         Hyperparams(40.45, 16.0, 0.1542, 0.0036), 2, RobotConfig((0, 2))),
    ],
)
def test_mirror_tie_rounding_cases(planner, g, h, k, x0):
    assert_first_move_not_after_mirror(planner, g, h, k, x0)


@pytest.mark.filterwarnings("ignore:transect grids are expected")
@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(2, 6),
    cols=st.integers(2, 4),
    k=st.integers(1, 2),
    ell1=st.floats(1.0, 20.0),
    ell2=st.floats(1.0, 20.0),
    noise=st.floats(0.001, 1.0),
    data=st.data(),
)
def test_mirror_tie_takes_lex_smaller_first_move(rows, cols, k, ell1, ell2, noise, data):
    g = TransectGrid(rows, cols, 5.0, 5.0)
    h = Hyperparams(ell1, ell2, 1.0, noise)
    starts = [c for c in enumerate_configs(g, k) if mirror(c, rows) == c]
    assume(starts)
    x0 = data.draw(st.sampled_from(starts))
    for planner in (
        functools.partial(plan, "markov"),
        plan_greedy_entropy,
        plan_greedy_mi,
        plan_exact,
    ):
        assert_first_move_not_after_mirror(planner, g, h, k, x0)
