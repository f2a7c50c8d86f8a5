import dataclasses
import functools
import inspect
import itertools
import re
import sys
import threading
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
    Location,
    MismatchedInstances,
    ObservationPath,
    ParseError,
    RobotConfig,
    TransectGrid,
    enumerate_configs,
    gaussian_entropy,
    path_entropies,
    path_entropy,
    plan,
    plan_all,
    plan_markov,
    posterior_cov,
    rollout,
    verify_performance_bounds,
)
from transectplan import gp, planners
from transectplan.bench import ExperimentSpec, run_benchmark
from transectplan.errors import FactorizationFailure, SingularCovariance, TransectPlanError
from transectplan.gp import MAX_DENSE_CELLS
from transectplan.planners import TIE_RTOL, stage_entropy_table

from oracles import (
    config_locations,
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
    plankton = Hyperparams(ell1=27.53, ell2=134.64, signal_var=2.152, noise_var=0.041)
    noise_free = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.0)
    cases = [
        (small_grid(3, 4), H, 1),
        (small_grid(5, 6), H, 2),
        (small_grid(5, 6), H, 3),
        (small_grid(5, 6), noise_free, 2),
        (small_grid(5, 6), noise_free, 3),
        (small_grid(5, 6), plankton, 2),
    ]
    for g, h, k in cases:
        configs = enumerate_configs(g, k)
        table = stage_entropy_table(g, h, configs)
        for i, xi in enumerate(configs):
            for j, xj in enumerate(configs):
                want = gaussian_entropy(posterior_cov(
                    list(config_locations(xj, 1)),
                    list(config_locations(xi, 0)),
                    h,
                    g.widths,
                ))
                assert table[i, j] == pytest.approx(want, abs=1e-12)

    # noise free, with the columns correlated to 1.0 in float64: a cell's
    # posterior given the same row of the previous column is exactly zero
    g, h = small_grid(3, 4), Hyperparams(ell1=1e9, ell2=4.0, signal_var=1.0, noise_var=0.0)
    configs = enumerate_configs(g, 1)
    refusals = []
    for xi, xj in itertools.product(configs, configs):
        try:
            gaussian_entropy(posterior_cov(
                list(config_locations(xj, 1)), list(config_locations(xi, 0)), h, g.widths
            ))
        except TransectPlanError as e:
            refusals.append(type(e))
    assert refusals
    with pytest.raises(TransectPlanError) as info:
        stage_entropy_table(g, h, configs)
    assert type(info.value) is refusals[0]


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
            exact = plan("exact", g, h, 1, x0)
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


def counted_tables(monkeypatch):
    """A list that gets the arguments of every stage table computed from
    here on."""
    real, calls = planners.stage_entropy_table, []

    def table(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(planners, "stage_entropy_table", table)
    return calls


def test_markov_table_is_kept_per_key(monkeypatch):
    calls = counted_tables(monkeypatch)
    g = small_grid(4, 6)
    first = plan_markov(g, H, k=2)
    again = plan_markov(g, H, k=2)
    assert len(calls) == 1
    np.testing.assert_array_equal(first.values, again.values)
    np.testing.assert_array_equal(first.actions, again.actions)
    info = planners._stage_table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    # a hit gives the bits of an uncached call
    planners._stage_table.cache_clear()
    uncached = plan_markov(g, H, k=2)
    np.testing.assert_array_equal(again.values, uncached.values)
    np.testing.assert_array_equal(again.actions, uncached.actions)
    kept = planners._stage_table(g, H, 2)
    assert planners._stage_table.cache_info().hits == 1
    np.testing.assert_array_equal(kept, stage_entropy_table(g, H, enumerate_configs(g, 2)))


def test_markov_table_key_holds_the_columns_not_the_field(monkeypatch):
    calls = counted_tables(monkeypatch)
    short, long = TransectGrid(5, 6, 5.0, 5.0), TransectGrid(5, 400, 5.0, 5.0)
    plan_markov(short, H, k=2)
    field = np.random.default_rng(0).standard_normal((5, 6))
    plan_markov(dataclasses.replace(short, measurements=field), H, k=2)
    assert len(calls) == 1
    assert planners._stage_table.cache_info().hits == 1
    plan_markov(long, H, k=2)
    assert len(calls) == 2
    # the table reads only the lag-0 and lag-1 blocks, so the keys differ
    # in the column count alone, not in the table's bits
    configs = enumerate_configs(short, 2)
    np.testing.assert_array_equal(
        stage_entropy_table(short, H, configs), stage_entropy_table(long, H, configs)
    )


@pytest.mark.parametrize(
    "grid, h, k",
    [
        (small_grid(4, 6), dataclasses.replace(H, ell1=6.0), 2),
        (small_grid(4, 6), H, 1),
        (small_grid(5, 6), H, 2),
        (TransectGrid(4, 6, 5.0, 6.0), H, 2),
        (TransectGrid(4, 6, 6.0, 5.0), H, 2),
        (small_grid(4, 7), H, 2),
    ],
    ids=["fit", "team", "rows", "omega2", "omega1", "cols"],
)
def test_markov_table_misses_on_another_key(monkeypatch, grid, h, k):
    calls = counted_tables(monkeypatch)
    plan_markov(small_grid(4, 6), H, k=2)
    plan_markov(grid, h, k)
    assert len(calls) == 2


def test_kept_markov_table_is_read_only():
    g = small_grid(4, 6)
    plan_markov(g, H, k=2)
    table = planners._stage_table(g, H, 2)
    assert planners._stage_table.cache_info().hits == 1
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0.0


def test_markov_table_refusal_is_not_kept(monkeypatch):
    # no noise and pivots near 3e-153, below DIAG_FLOOR: the table refuses
    calls = counted_tables(monkeypatch)
    tiny = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1e-305, noise_var=0.0)
    for _ in range(2):
        with pytest.raises(SingularCovariance):
            plan_markov(small_grid(3, 5), tiny, k=1)
    assert len(calls) == 2
    assert planners._stage_table.cache_info().currsize == 0


def test_kept_markov_tables_hold_under_threads():
    # more keys than are kept and four threads switching often: every
    # thread's policy keeps the bits of planning alone, and the cache never
    # holds more than its keys
    g = small_grid(3, 5)
    fits = [dataclasses.replace(H, ell1=4.0 + i) for i in range(gp.LAG_BLOCK_KEYS + 2)]
    want = [plan_markov(g, h, k=1).values for h in fits]
    failures = []

    def work(offset):
        try:
            for i in range(30):
                j = (i + offset) % len(fits)
                got = plan_markov(g, fits[j], k=1).values
                if not np.array_equal(got, want[j]):
                    failures.append(f"fit {j} moved")
                if planners._stage_table.cache_info().currsize > gp.LAG_BLOCK_KEYS:
                    failures.append("too many tables kept")
        except Exception as e:  # noqa: BLE001 - reported below
            failures.append(repr(e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


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


def test_markov_policy_refuses_a_stage_outside_its_range():
    # stages run 0..n_cols-2; a negative one must not wrap to the last
    pol = plan_markov(small_grid(3, 6), H, k=1)
    x = RobotConfig((1,))
    assert pol.value(4, x) == pol.values[4, 1]
    assert pol.action(4, x) == pol.configs[pol.actions[4, 1]]
    for stage in (-1, 5):
        with pytest.raises(ValueError, match=re.escape(f"stage {stage} outside [0, 4]")):
            pol.value(stage, x)
        with pytest.raises(ValueError, match=re.escape(f"stage {stage} outside [0, 4]")):
            pol.action(stage, x)


# ------------------------------------------------------------ exact planner


def test_exact_matches_joint_entropy_oracle():
    rng = np.random.default_rng(13)
    for _ in range(6):
        g, h = scaled_grid(rng, 3, 4, random_hyperparams(rng))
        for x0 in enumerate_configs(g, 1):
            want_val, want_seq = oracle_full_best(g, h, 1, x0)
            res = plan("exact", g, h, 1, x0)
            assert res.value == pytest.approx(want_val, abs=1e-9)
            assert res.path.configs[1:] == want_seq


def test_exact_two_robots_matches_oracle():
    rng = np.random.default_rng(14)
    g, h = scaled_grid(rng, 3, 4, random_hyperparams(rng))
    for x0 in enumerate_configs(g, 2):
        want_val, want_seq = oracle_full_best(g, h, 2, x0)
        res = plan("exact", g, h, 2, x0)
        assert res.value == pytest.approx(want_val, abs=1e-9)
        assert res.path.configs[1:] == want_seq


def test_exact_value_is_path_entropy():
    g = small_grid(3, 5)
    res = plan("exact", g, H, 1, RobotConfig((1,)))
    assert res.value == pytest.approx(path_entropy(res.path, H), abs=1e-10)


def test_exact_budget_guard():
    g = TransectGrid(4, 8, 5.0, 5.0)
    with pytest.raises(BudgetExceeded):
        plan("exact", g, H, 2, RobotConfig((0, 1)), budget=1000)


def test_exact_budget_counts_leaves():
    # 3 configs, 3 free columns: exactly 27 leaves, so 27 must pass
    g = small_grid(3, 4)
    res = plan("exact", g, H, 1, RobotConfig((0,)), budget=27)
    assert res.path.configs[0] == RobotConfig((0,))
    with pytest.raises(BudgetExceeded):
        plan("exact", g, H, 1, RobotConfig((0,)), budget=26)


def test_exact_tie_breaks_lexicographically():
    # length scales so small every off-diagonal covariance underflows to 0:
    # all paths collect identical information, so the lex-first must win
    h = Hyperparams(ell1=1e-3, ell2=1e-3, signal_var=1.0, noise_var=0.1)
    g = TransectGrid(3, 4, 5.0, 5.0)
    res = plan("exact", g, h, 1, RobotConfig((2,)))
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
    res = plan("exact", g, H, k, RobotConfig(start))
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
    res = plan("exact", g, h, k, x0)
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
        res = plan("exact", g, h, k, x0)
        results.append((res.value, res.path.configs, res.stage_gains))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("cap", [1, 1024])
def test_exact_tie_chain_takes_the_first_best_leaf(monkeypatch, cap):
    # leaves 10, 10 + 0.9t and 10 + 1.8t in lexicographic order, t the tie
    # window: the second is within t of the best and the first is not, so
    # the shared tie rule picks the second, however the chunks split them
    g = small_grid(3, 4)
    t = float(planners._tie_tol(10.0))
    chain = {0: 10.0, 1: 10.0 + 0.9 * t, 2: 10.0 + 1.8 * t}

    def level_entropies(gram, idx, first, moves):
        # the leaf (a, 0, 0) scores chain[a] at the last column, all else 0
        scores = np.zeros((len(first), len(idx)))
        if moves.shape[1] == 2:
            scores[:, 0] = [chain[a] if b == 0 else 0.0 for a, b in moves.tolist()]
        return scores

    monkeypatch.setattr(planners, "_level_entropies", level_entropies)
    monkeypatch.setattr(planners, "_CHUNK_NODES", cap)
    leaves = [chain[a] if (b, c) == (0, 0) else 0.0 for a, b, c in np.ndindex(3, 3, 3)]
    pick = np.unravel_index(int(planners._first_best(np.array(leaves))), (3, 3, 3))
    assert pick == (1, 0, 0)
    x0 = RobotConfig((0,))
    res = plan("exact", g, H, 1, x0)
    assert res.path.configs == (x0, *(RobotConfig((int(j),)) for j in pick))
    assert res.value == chain[1]


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
        alone = [exact_bits(plan("exact", g, h, k, x0)) for x0 in starts]
        assert [exact_bits(r) for r in plan_all("exact", g, h, k, starts)] == alone


def redone_columns(monkeypatch, k):
    """Patch the conditioning step that only a redone exhaustive node takes
    to record the column each redone node scores: its history holds k cells
    of every earlier column."""
    columns = []
    condition = planners._condition

    def counted(L, k_xt, k_tt):
        columns.append(len(L) // k)
        return condition(L, k_xt, k_tt)

    monkeypatch.setattr(planners, "_condition", counted)
    return columns


def test_exact_all_redoes_failed_nodes_in_the_shared_tree(monkeypatch):
    g = small_grid(4, 6)
    starts = enumerate_configs(g, 1)
    real = np.linalg.cholesky

    def cholesky(a):
        # every factor of depth 2, stacked or alone: 3 history cells plus the
        # next column
        if a.shape[-1] == 3 + g.n_rows:
            raise np.linalg.LinAlgError("forced")
        return real(a)

    calls = redone_columns(monkeypatch, 1)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    alone = [exact_bits(plan("exact", g, H, 1, x0)) for x0 in starts]
    calls.clear()
    assert [exact_bits(r) for r in plan_all("exact", g, H, 1, starts)] == alone
    # each start's 16 nodes of depth 2 were redone, as when searched alone
    assert calls == [3] * 16 * len(starts)


def test_exact_all_raises_the_first_failing_starts_refusal():
    h = Hyperparams(ell1=1e6, ell2=1e6, signal_var=1.0, noise_var=0.0)
    g = small_grid(3, 5)
    starts = enumerate_configs(g, 1)
    with pytest.raises((SingularCovariance, FactorizationFailure)) as alone:
        plan("exact", g, h, 1, starts[0])
    with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
        plan_all("exact", g, h, 1, starts)
    assert plan_all("exact", g, h, 1, []) == []
    with pytest.raises(InvalidArity):
        plan_all("exact", g, H, 1, [starts[0], RobotConfig((3,))])


def test_a_refusing_start_is_searched_once_more(monkeypatch):
    # 3 starts, (2,) refused: one shared search, then one search per start,
    # through the bench's exact rows and through the bound audit alike; a
    # replay nested in another replay would search each start again
    real = planners._search
    calls = []

    def search(grid, h, idx, first, *args):
        calls.append(len(first))
        if np.any(np.all(first == (2,), axis=1)):
            raise SingularCovariance("searching from (2,)")
        return real(grid, h, idx, first, *args)

    monkeypatch.setattr(planners, "_search", search)
    h = Hyperparams(ell1=2.5, ell2=2.5, signal_var=1.0, noise_var=1.0)
    spec = ExperimentSpec(n_rows=3, n_cols=5, omega1=5.0, omega2=5.0, h=h, policies=("exact",))
    with pytest.raises(SingularCovariance, match=re.escape("searching from (2,)")):
        run_benchmark(spec)
    assert calls == [3, 1, 1, 1]
    calls.clear()
    with pytest.raises(SingularCovariance, match=re.escape("searching from (2,)")):
        verify_performance_bounds(TransectGrid(3, 5, 5.0, 5.0), h, k=1)
    assert calls == [3, 1, 1, 1]


def pruning_instances():
    """(grid, h, k) draws for the pruned search: both team sizes, short and
    long along-track correlation, both survey fits, and noise ratios from
    the pruning floor 1e-3 to 0.5."""
    rng = np.random.default_rng(29)
    fits = [Hyperparams(40.45, 16.0, 0.1542, 0.0036), Hyperparams(27.53, 134.64, 2.152, 0.041)]
    ratios = (1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 0.5)
    for i in range(210):
        k = 1 + i % 2
        rows = int(rng.integers(3, 5))
        cols = int(rng.integers(rows + 1, 7 if k == 1 else 6))
        ratio = ratios[i % len(ratios)]
        if i % 3 < 2:
            # normalized along-track length-scale: short, then long
            lo, hi = ((0.2, 0.8), (0.8, 3.0))[i % 3]
            g = TransectGrid(rows, cols, 5.0, 5.0)
            ell1, ell2, signal = 5.0 * rng.uniform(lo, hi), 5.0 * rng.uniform(0.2, 2.0), 1.0
        else:
            fit = fits[(i // 3) % 2]
            g = TransectGrid(rows, cols, rng.uniform(10.0, 60.0), rng.uniform(5.0, 30.0))
            ell1, ell2, signal = fit.ell1, fit.ell2, fit.signal_var
        yield g, Hyperparams(ell1, ell2, signal, ratio * signal), k


def test_pruned_search_matches_the_unpruned_search(monkeypatch):
    # bounded by the Markov values and floored by the rollouts' values, as
    # the bound audit calls it: every start's value, moves and gains, bit
    # for bit, while fewer nodes are scored
    real = planners._level_entropies
    scored = [0]

    def level_entropies(gram, idx, first, moves):
        scored[0] += len(first)
        return real(gram, idx, first, moves)

    monkeypatch.setattr(planners, "_level_entropies", level_entropies)
    nodes = {"pruned": 0, "unpruned": 0}
    for g, h, k in pruning_instances():
        configs = enumerate_configs(g, k)
        idx = np.array([c.rows for c in configs])
        policy = plan_markov(g, h, k)
        bound = np.vstack([policy.values, np.zeros(len(configs))])
        floor = path_entropies([rollout(policy, x0) for x0 in configs], h)
        found = {}
        for kind, args in (("unpruned", ()), ("pruned", (bound, floor))):
            scored[0] = 0
            found[kind] = [
                (float(v).hex(), seq, [x.hex() for x in gains])
                for v, seq, gains in planners._search(g, h, idx, idx, *args)
            ]
            nodes[kind] += scored[0]
        assert found["pruned"] == found["unpruned"]
    assert nodes["pruned"] < nodes["unpruned"] / 2


def test_pruning_keeps_the_tie_window_of_the_incumbent(monkeypatch):
    # only the last column gains; the first move's bound puts subtree 1 half
    # a tie window below the incumbent's cut (the tie window plus the
    # rounding margin), and subtree 2 and the leaf (0, 0, 0) half a tie
    # window above it
    g = small_grid(3, 4)
    idx = np.array([[0], [1], [2]])
    best = 10.0
    tie, margin = float(planners._tie_tol(best)), planners._BOUND_RTOL * best
    inside, outside = best - margin - 0.5 * tie, best - margin - 1.5 * tie
    scored = []

    def level_entropies(gram, idx, first, moves):
        scored.extend(tuple(m) for m in moves.tolist())
        scores = np.zeros((len(first), len(idx)))
        if moves.shape[1] == 2:
            scores[:, 0] = [inside if m == [0, 0] else 0.0 for m in moves.tolist()]
        return scores

    monkeypatch.setattr(planners, "_level_entropies", level_entropies)
    bound = np.full((4, 3), best)
    bound[1] = [best, outside, inside]
    bound[3] = 0.0
    [(value, seq, gains)] = planners._search(g, H, idx, idx[:1], bound, np.array([best]))
    assert (value, seq, gains) == (inside, (0, 0, 0), (0.0, 0.0, inside))
    assert not [m for m in scored if m[:1] == (1,)]
    assert [m for m in scored if m[:1] == (2,)] == [(2,), (2, 0), (2, 1), (2, 2)]


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
def test_path_entropies_fall_back_to_path_entropy(h, refusal):
    g = small_grid(3, 5)
    paths = [ObservationPath(g, (RobotConfig((r,)),) * 5) for r in range(3)]

    def reference(path):
        # the Location-list route: the joint entropy less the start's
        start = list(config_locations(path.configs[0], 0))
        full = gp.cov_matrix(path.locations(), h, g.widths)
        return gp.gaussian_entropy(full) - gp.gaussian_entropy(gp.cov_matrix(start, h, g.widths))

    if refusal is None:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gp.cov_matrix(paths[0].locations(), h, g.widths))
        want = [reference(p).hex() for p in paths]
        assert [v.hex() for v in path_entropies(paths, h).tolist()] == want
        assert [path_entropy(p, h).hex() for p in paths] == want
    else:
        with pytest.raises(refusal):
            reference(paths[0])
        with pytest.raises(refusal):
            path_entropy(paths[0], h)
        with pytest.raises(refusal):
            path_entropies(paths, h)
    assert path_entropies([], h).shape == (0,)


def test_path_entropies_refuse_paths_of_two_instances():
    # each path would be valued on the first path's grid and team size
    h = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.1)
    g5, g1 = TransectGrid(3, 6, 5.0, 5.0), TransectGrid(3, 6, 1.0, 1.0)
    p5, p1 = (ObservationPath(g, (RobotConfig((0,)),) * 6) for g in (g5, g1))
    pair = ObservationPath(g5, (RobotConfig((0, 1)),) * 6)
    for paths in ([p5, p1], [p5, pair]):
        with pytest.raises(MismatchedInstances, match="one grid and one team size"):
            path_entropies(paths, h)
    # one geometry with other measurements is the same instance
    measured = ObservationPath(dataclasses.replace(g1, measurements=np.ones((3, 6))), p1.configs)
    assert path_entropies([p1, measured], h).tolist() == [path_entropy(p1, h)] * 2


def test_exact_frontier_memory_stays_chunked():
    # the unchunked frontier of this 4x9 search peaks near 42 MB, the
    # chunked one near 3.5 MB
    tracemalloc.start()
    try:
        plan("exact", TransectGrid(4, 9, 5.0, 5.0), H, 1, RobotConfig((1,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_exact_redoes_a_failed_level_node_by_node(monkeypatch):
    g = small_grid(4, 6)
    x0 = RobotConfig((1,))
    want = plan("exact", g, H, 1, x0)

    # every factor of depth 2, stacked or alone: 3 history cells plus the
    # next column
    real = np.linalg.cholesky

    def cholesky(a):
        if a.shape[-1] == 3 + g.n_rows:
            raise np.linalg.LinAlgError("forced")
        return real(a)

    calls = redone_columns(monkeypatch, 1)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    res = plan("exact", g, H, 1, x0)
    # only the 16 nodes of depth 2 were redone, each scoring column 3
    assert calls == [3] * 16
    assert res.path.configs == want.path.configs
    assert res.value == pytest.approx(want.value, rel=1e-12)
    assert res.stage_gains == pytest.approx(want.stage_gains, rel=1e-12)


def test_exact_redoes_only_the_failed_node_of_a_level(monkeypatch):
    g = small_grid(4, 6)
    x0 = RobotConfig((1,))
    want = plan("exact", g, H, 1, x0)
    configs = enumerate_configs(g, 1)
    on_path = [configs.index(x) for x in want.path.configs[1:3]]
    # a node of depth 2 off the optimal path: same first move, next second move
    failing = on_path[0] * len(configs) + (on_path[1] + 1) % len(configs)

    real = np.linalg.cholesky
    alone = []

    def cholesky(a):
        # the stacked factor of depth 2 fails, then that one node's alone
        if a.shape[-1] == 3 + g.n_rows:
            if a.ndim == 3:
                raise np.linalg.LinAlgError("forced")
            alone.append(a)
            if len(alone) == failing + 1:
                raise np.linalg.LinAlgError("forced")
        return real(a)

    calls = redone_columns(monkeypatch, 1)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    res = plan("exact", g, H, 1, x0)
    assert len(alone) == 16
    assert calls == [3]
    assert exact_bits(res) == exact_bits(want)


def posterior_cov_route(g, h, idx, first, moves):
    """Each node's column step the Location-list way: the entropies of the
    row sets ``idx`` of the next column, from ``posterior_cov`` of the whole
    column given the node's history."""
    depth = moves.shape[1]
    column = [Location(depth + 1, r) for r in range(g.n_rows)]
    for start, seq in zip(first, moves):
        history = [start, *idx[seq]]
        observed = [Location(c, int(r)) for c, rows in enumerate(history) for r in rows]
        yield gp.minor_factors(gp.posterior_cov(column, observed, h, g.widths), idx)[0]


@pytest.mark.parametrize("ratio", [1e-6, 1e-3, 0.3])
def test_redone_nodes_score_as_posterior_cov_does(monkeypatch, ratio):
    # every node of every level fails the stacked factor and is redone from
    # its joint matrix: its scores keep the posterior_cov route's bits
    real = planners._probe
    monkeypatch.setattr(
        planners, "_probe", lambda cov: (real(cov)[0], np.zeros(cov.shape[:-2], bool))
    )
    g = small_grid(4, 6)
    idx = np.array([c.rows for c in enumerate_configs(g, 2)])
    rng = np.random.default_rng(19)
    for ell1, ell2 in ((5.0, 4.0), (27.53, 134.64)):
        h = Hyperparams(ell1, ell2, 2.152, ratio * 2.152)
        for depth in (0, 1, 2, 4):
            first = idx[rng.integers(len(idx), size=6)]
            moves = rng.integers(len(idx), size=(6, depth))
            got = planners._level_entropies(gp.LagGram(g, h), idx, first, moves)
            for mine, want in zip(got, posterior_cov_route(g, h, idx, first, moves)):
                np.testing.assert_array_equal(mine, want)


def test_redone_node_refuses_as_posterior_cov_does():
    # collapsed and noise-free: the first node of depth 1 fails its level
    # factor, and its redo raises the Location-list route's type and message
    g = small_grid(3, 5)
    h = Hyperparams(ell1=1e6, ell2=1e6, signal_var=1.0, noise_var=0.0)
    idx = np.array([c.rows for c in enumerate_configs(g, 1)])
    first, moves = idx[:1], np.zeros((1, 1), dtype=np.int64)
    with pytest.raises(TransectPlanError) as old:
        next(posterior_cov_route(g, h, idx, first, moves))
    message = f"^{re.escape(str(old.value))}$"
    with pytest.raises(type(old.value), match=message):
        planners._level_entropies(gp.LagGram(g, h), idx, first, moves)
    with pytest.raises(type(old.value), match=message):
        plan("exact", g, h, 1, RobotConfig((0,)))


def test_exact_refuses_collapsed_noise_free_instance():
    # every cell perfectly correlated and no noise: the level factor fails,
    # and the per-node route refuses with a typed error
    h = Hyperparams(ell1=1e6, ell2=1e6, signal_var=1.0, noise_var=0.0)
    with pytest.raises((SingularCovariance, FactorizationFailure)):
        plan("exact", small_grid(3, 5), h, 1, RobotConfig((0,)))


# ---------------------------------------------------------- greedy planners


def test_greedy_entropy_never_beats_exact():
    rng = np.random.default_rng(16)
    for _ in range(8):
        g, h = scaled_grid(rng, 3, 4, random_hyperparams(rng))
        for x0 in enumerate_configs(g, 1):
            exact = plan("exact", g, h, 1, x0)
            greedy = plan("greedy-ent", g, h, 1, x0)
            assert greedy.value <= exact.value + 1e-9


def test_greedy_mi_never_beats_exact():
    rng = np.random.default_rng(17)
    for _ in range(8):
        g, h = scaled_grid(rng, 3, 4, random_hyperparams(rng))
        for x0 in enumerate_configs(g, 1):
            exact = plan("exact", g, h, 1, x0)
            greedy = plan("greedy-mi", g, h, 1, x0)
            assert greedy.value <= exact.value + 1e-9


def test_greedy_single_decision_equals_exact():
    # two columns, one decision: the greedy step IS the exhaustive optimum
    rng = np.random.default_rng(18)
    for _ in range(10):
        g, h = scaled_grid(rng, 4, 2, random_hyperparams(rng))
        for x0 in enumerate_configs(g, 2):
            exact = plan("exact", g, h, 2, x0)
            greedy = plan("greedy-ent", g, h, 2, x0)
            assert greedy.value == pytest.approx(exact.value, abs=1e-9)
            assert greedy.path.configs == exact.path.configs


def test_greedy_values_are_path_entropies():
    g = small_grid(3, 5)
    x0 = RobotConfig((0,))
    for policy in ("greedy-ent", "greedy-mi"):
        res = plan(policy, g, H, 1, x0)
        assert res.value == pytest.approx(path_entropy(res.path, H), abs=1e-10)
        assert res.path.configs[0] == x0


def test_greedy_mi_steps_match_oracle():
    # symmetric starts make exact ties whose winner depends on rounding
    # order, so the check is argmax-up-to-ties against the flat oracle
    g = TransectGrid(5, 8, 5.0, 5.0)
    x0 = RobotConfig((2,))
    res = plan("greedy-mi", g, H, 1, x0)
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
    for policy, oracle in (
        ("greedy-ent", oracle_greedy_ent_scores),
        ("greedy-mi", oracle_greedy_mi_scores),
    ):
        res = plan(policy, g, h, k, x0)
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
        plan("greedy-mi", small_grid(3, 5), h, 1, RobotConfig((0,)))


def test_greedy_mi_full_coverage_scores_by_prior_entropy():
    # two robots on two rows leave no unvisited complement; the planner
    # must still run and fill every column with the only config there is
    g = TransectGrid(2, 4, 5.0, 5.0)
    res = plan("greedy-mi", g, H, 2, RobotConfig((0, 1)))
    assert all(c == RobotConfig((0, 1)) for c in res.path.configs)
    assert res.value == pytest.approx(path_entropy(res.path, H), abs=1e-10)


def test_greedy_mi_tie_takes_lex_smallest():
    h = Hyperparams(ell1=1e-3, ell2=1e-3, signal_var=1.0, noise_var=0.1)
    g = TransectGrid(3, 4, 5.0, 5.0)
    res = plan("greedy-mi", g, h, 1, RobotConfig((2,)))
    assert tuple(c.rows for c in res.path.configs[1:]) == ((0,), (0,), (0,))


def test_exact_refuses_off_grid_history():
    g = TransectGrid(4, 8, 5.0, 5.0)
    with pytest.raises(InvalidArity):
        plan("exact", g, H, 1, RobotConfig((6,)))
    with pytest.raises(InvalidArity):
        plan("exact", g, H, 1, RobotConfig((0, 2)))


@pytest.mark.parametrize("policy", ["greedy-ent", "greedy-mi"])
def test_greedy_refuses_foreign_start(policy):
    g = TransectGrid(4, 8, 5.0, 5.0)
    with pytest.raises(InvalidArity):
        plan(policy, g, H, 1, RobotConfig((6,)))
    with pytest.raises(InvalidArity):
        plan(policy, g, H, 1, RobotConfig((0, 2)))


# The paper's fitted hyperparameters for the two survey fields.
SURVEY_FITS = {
    "temperature": Hyperparams(ell1=40.45, ell2=16.0, signal_var=0.1542, noise_var=0.0036),
    "plankton": Hyperparams(ell1=27.53, ell2=134.64, signal_var=2.152, noise_var=0.041),
}


def assert_sweep_matches_one_start_calls(policy, g, h, k):
    starts = enumerate_configs(g, k)
    swept = plan_all(policy, g, h, k, starts)
    assert [r.path.start for r in swept] == starts
    for x0, res in zip(starts, swept):
        alone = plan(policy, g, h, k, x0)
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
    # refactored while the others grow
    g = TransectGrid(5, 8, 5.0, 5.0)
    h = Hyperparams(ell1=15.0, ell2=1000.0, signal_var=1.0, noise_var=0.0)
    k = 4
    orders = []
    real_chol_factor = gp.chol_factor

    def counted(cov):
        orders.append(cov.shape[-1])
        return real_chol_factor(cov)

    monkeypatch.setattr(gp, "chol_factor", counted)
    assert_sweep_matches_one_start_calls(policy, g, h, k)
    # a history refactor has more than one column's cells and fewer than a path's
    assert any(k < n < k * g.n_cols for n in orders)


@pytest.mark.parametrize("policy", ["greedy-ent", "greedy-mi"])
@pytest.mark.parametrize("fit", sorted(SURVEY_FITS))
def test_greedy_sweep_factors_each_candidate_minor_once(monkeypatch, policy, fit):
    # the chosen minor's factor is the one it was scored with, so a column
    # costs one stacked rung-0 call and the appends factor nothing
    g = TransectGrid(5, 40, 5.0, 5.0)
    k, starts = 2, [RobotConfig((0, 1)), RobotConfig((2, 4))]
    configs = enumerate_configs(g, k)
    shapes = []
    real_probe = gp._probe

    def counted(cov):
        shapes.append(cov.shape)
        return real_probe(cov)

    monkeypatch.setattr(gp, "_probe", counted)
    planners._greedy_sweep(policy, g, SURVEY_FITS[fit], configs, starts)
    mi = policy == "greedy-mi"
    start = [(len(starts), k, k)]  # one factor's start blocks
    cells = g.n_rows * g.n_cols
    setup = start + ([(cells, cells)] + start if mi else [])  # greedy-mi's precision
    column = (1 + mi, len(starts), len(configs), k, k)  # every factor's candidate minors
    # path_entropies values the paths from their joint and start matrices
    values = [(len(starts), k * g.n_cols, k * g.n_cols), (len(starts), k, k)]
    assert shapes == setup + [column] * (g.n_cols - 1) + values


def test_greedy_mi_refuses_grid_past_dense_limit():
    g = TransectGrid(1, MAX_DENSE_CELLS + 1, 5.0, 5.0)
    with pytest.raises(GridTooLarge):
        plan("greedy-mi", g, H, 1, RobotConfig((0,)))


def test_exact_search_depth_outlasts_recursion_limit():
    # one row forces the path; 149 stages must not need 149 stack frames
    g = TransectGrid(1, 150, 5.0, 5.0)
    x0 = RobotConfig((0,))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        res = plan("exact", g, H, 1, x0)
    finally:
        sys.setrecursionlimit(limit)
    assert res.path.configs == (x0,) * g.n_cols
    assert res.value == pytest.approx(path_entropy(res.path, H), rel=1e-9)


# ------------------------------------------------------------ plan front end


def direct_call(policy, g, h, k, x0):
    if policy == "markov":
        pol = plan_markov(g, h, k)
        return "markov", rollout(pol, x0), pol.value(0, x0)
    configs = enumerate_configs(g, k)
    if policy == "exact":
        res = planners._exact_results(g, h, configs, [x0])[0]
    else:
        res = planners._greedy_sweep(policy, g, h, configs, [x0])[0]
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
    g = small_grid(3, 4)
    with pytest.raises(ParseError, match="unknown policy"):
        plan(policy, g, H, 1, RobotConfig((0,)))
    with pytest.raises(ParseError, match="unknown policy"):
        plan_all(policy, g, H, 1, enumerate_configs(g, 1))


@pytest.mark.parametrize("policy", POLICIES)
def test_plan_all_matches_one_start_calls(monkeypatch, policy):
    # every start's value, path and stage gains, bit for bit
    g = small_grid(4, 5)
    starts = enumerate_configs(g, 2)
    results = plan_all(policy, g, H, 2, starts)
    assert [r.policy_kind for r in results] == [policy] * len(starts)
    assert [exact_bits(r) for r in results] == [
        exact_bits(plan(policy, g, H, 2, x0)) for x0 in starts
    ]
    # a start off the grid is refused before any planning, markov's table
    # included, with the message every planner shares
    tables = []
    monkeypatch.setattr(planners, "plan_markov", lambda *a: tables.append(a))
    for bad in (RobotConfig((0, 4)), RobotConfig((1,))):
        message = f"start {bad} is not a 2-robot configuration on this grid"
        with pytest.raises(InvalidArity, match=re.escape(message)):
            plan_all(policy, g, H, 2, [starts[0], bad])
        with pytest.raises(InvalidArity, match=re.escape(message)):
            plan(policy, g, H, 2, bad)
    assert tables == []


@pytest.mark.parametrize("policy", POLICIES)
def test_plan_all_reads_its_starts_once(policy):
    # the up-front start check must not use up a one-shot iterable
    g = small_grid(3, 6)
    starts = enumerate_configs(g, 1)
    want = [exact_bits(r) for r in plan_all(policy, g, H, 1, starts)]
    assert [exact_bits(r) for r in plan_all(policy, g, H, 1, (x0 for x0 in starts))] == want


# Noise-free survey fits whose greedy sweeps over every start, k=2, meet a
# later start's refusal before that of the first failing start, (0,1).
FIRST_FAILING_START_CASES = [
    ("greedy-ent", "plankton", 40),
    ("greedy-ent", "temperature", 80),
    ("greedy-mi", "temperature", 80),
    ("greedy-ent", "plankton", 80),
    ("greedy-mi", "plankton", 80),
]


@pytest.mark.parametrize(
    "policy, fit, cols",
    FIRST_FAILING_START_CASES,
    ids=[f"{p}-{f}-5x{c}" for p, f, c in FIRST_FAILING_START_CASES],
)
def test_plan_all_refuses_as_the_first_failing_start(policy, fit, cols):
    g = TransectGrid(5, cols, 5.0, 5.0)
    h = dataclasses.replace(SURVEY_FITS[fit], noise_var=0.0)
    starts = enumerate_configs(g, 2)
    for x0 in starts:
        try:
            plan(policy, g, h, 2, x0)
        except TransectPlanError as e:
            first = e
            break
    else:
        pytest.fail("no start refuses")
    with pytest.raises(type(first)) as refused:
        plan_all(policy, g, h, 2, starts)
    assert type(refused.value) is type(first)
    assert str(refused.value) == str(first)


@pytest.mark.parametrize("policy", POLICIES)
def test_planners_answer_finite_or_refuse_at_the_largest_variance(policy):
    # signal_var + noise_var is still finite, so Hyperparams takes it
    g = small_grid(3, 5)
    h = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1e308, noise_var=0.0)
    try:
        results = plan_all(policy, g, h, 1, enumerate_configs(g, 1))
    except SingularCovariance:
        return
    assert all(np.isfinite(r.value) for r in results)


def test_planner_kinds_labelled():
    g = small_grid(3, 4)
    x0 = RobotConfig((0,))
    assert plan("markov", g, H, 1, x0).policy_kind == "markov"
    assert plan("exact", g, H, 1, x0).policy_kind == "exact"
    assert plan("greedy-ent", g, H, 1, x0).policy_kind == "greedy-ent"
    assert plan("greedy-mi", g, H, 1, x0).policy_kind == "greedy-mi"


def test_planners_deterministic_across_calls():
    g = small_grid(4, 5)
    x0 = RobotConfig((1,))
    for policy in ("greedy-ent", "greedy-mi"):
        a = plan(policy, g, H, 1, x0)
        b = plan(policy, g, H, 1, x0)
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
        (functools.partial(plan, "greedy-mi"), TransectGrid(3, 6, 5.0, 5.0),
         Hyperparams(10.0, 5.0, 1.0, 0.1), 1, RobotConfig((1,))),
        (functools.partial(plan, "greedy-ent"), TransectGrid(5, 10, 5.0, 5.0),
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
    for policy in POLICIES:
        assert_first_move_not_after_mirror(functools.partial(plan, policy), g, h, k, x0)
