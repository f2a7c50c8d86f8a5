import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transectplan import (
    ColumnOverflow,
    Hyperparams,
    InvalidArity,
    Location,
    ObservationPath,
    RobotConfig,
    TransectGrid,
    config_locations,
    enumerate_configs,
    robot_tracks,
    sample_prior_field,
    transition,
)


def grid(r=4, c=6):
    return TransectGrid(r, c, 5.0, 5.0)


# ----------------------------------------------------------------- the grid


def test_grid_validation():
    with pytest.raises(ValueError):
        TransectGrid(0, 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        TransectGrid(3, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        TransectGrid(3, 4, 0.0, 1.0)
    with pytest.raises(ValueError):
        TransectGrid(3, 4, 1.0, -2.0)


@pytest.mark.parametrize(
    "widths", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)]
)
def test_grid_refuses_non_finite_widths(widths):
    with pytest.raises(ValueError, match="finite"):
        TransectGrid(3, 4, *widths)


def test_grid_warns_when_not_wide():
    with pytest.warns(UserWarning):
        TransectGrid(5, 5, 1.0, 1.0)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_grid_horizon_counts_interior_columns():
    assert grid(4, 6).horizon == 4
    assert TransectGrid(3, 2, 1.0, 1.0).horizon == 0


def test_grid_locations_column_major():
    g = TransectGrid(2, 3, 1.0, 1.0)
    locs = g.locations()
    assert locs == [
        Location(0, 0),
        Location(0, 1),
        Location(1, 0),
        Location(1, 1),
        Location(2, 0),
        Location(2, 1),
    ]


def test_grid_measurements_shape_checked():
    z = np.zeros((3, 4))
    TransectGrid(3, 4, 1.0, 1.0, measurements=z)
    with pytest.raises(ValueError):
        TransectGrid(3, 4, 1.0, 1.0, measurements=np.zeros((4, 3)))


def test_value_at_reads_row_col():
    z = np.arange(12, dtype=float).reshape(3, 4)
    g = TransectGrid(3, 4, 1.0, 1.0, measurements=z)
    assert g.value_at(Location(2, 1)) == z[1, 2]


# -------------------------------------------------------------------- config


def test_config_rows_strictly_increasing():
    RobotConfig((0, 2, 3))
    with pytest.raises(InvalidArity):
        RobotConfig((2, 0))
    with pytest.raises(InvalidArity):
        RobotConfig((1, 1))
    with pytest.raises(InvalidArity):
        RobotConfig(())


def test_config_str_and_k():
    x = RobotConfig((0, 3))
    assert str(x) == "0,3"
    assert x.k == 2


def test_enumerate_configs_count_and_order():
    g = grid(4, 6)
    for k in (1, 2, 3, 4):
        configs = enumerate_configs(g, k)
        assert len(configs) == math.comb(4, k)
        as_tuples = [x.rows for x in configs]
        assert as_tuples == sorted(as_tuples)
        assert as_tuples == list(itertools.combinations(range(4), k))


def test_enumerate_configs_arity_bounds():
    g = grid(3, 5)
    with pytest.raises(InvalidArity):
        enumerate_configs(g, 0)
    with pytest.raises(InvalidArity):
        enumerate_configs(g, 4)


@given(r=st.integers(min_value=1, max_value=6), k=st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_enumerate_configs_roundtrip(r, k):
    if k > r:
        return
    g = TransectGrid(r, max(r + 1, 3), 1.0, 1.0)
    configs = enumerate_configs(g, k)
    assert len(set(configs)) == len(configs)
    for x in configs:
        assert 0 <= x.rows[0] and x.rows[-1] < r


def test_config_locations_orders_by_row():
    locs = config_locations(RobotConfig((1, 3)), 2)
    assert locs == (Location(2, 1), Location(2, 3))


# ---------------------------------------------------------------- transition


def test_transition_returns_destination():
    g = grid(4, 6)
    x = RobotConfig((0, 2))
    a = RobotConfig((1, 3))
    assert transition(x, a, 0, g) == a


def test_transition_checks_arity():
    g = grid(4, 6)
    with pytest.raises(InvalidArity):
        transition(RobotConfig((0, 2)), RobotConfig((1,)), 0, g)


def test_transition_checks_rows_in_range():
    g = grid(3, 6)
    with pytest.raises(InvalidArity):
        transition(RobotConfig((0,)), RobotConfig((3,)), 0, g)


def test_transition_rejects_final_column():
    g = grid(4, 6)
    x = RobotConfig((0,))
    with pytest.raises(ColumnOverflow):
        transition(x, x, g.n_cols - 1, g)
    assert transition(x, x, g.n_cols - 2, g) == x


# ----------------------------------------------------------- observation path


def path_of(g, rows_per_col, values=None):
    return ObservationPath(
        g, tuple(RobotConfig(r) for r in rows_per_col), values=values
    )


def test_path_requires_full_column_coverage():
    g = grid(3, 4)
    with pytest.raises(ValueError):
        path_of(g, [(0,), (1,), (2,)])


def test_path_requires_constant_team_size():
    g = grid(3, 4)
    with pytest.raises(InvalidArity):
        path_of(g, [(0,), (0, 1), (2,), (1,)])


def test_path_accessors():
    g = grid(3, 4)
    p = path_of(g, [(0,), (1,), (2,), (1,)])
    assert p.k == 1
    assert p.start == RobotConfig((0,))
    assert p.locations() == [
        Location(0, 0),
        Location(1, 1),
        Location(2, 2),
        Location(3, 1),
    ]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_path_locations_order_matches_config_order():
    g = grid(4, 3)
    p = path_of(g, [(0, 2), (1, 3), (0, 1)])
    locs = p.locations()
    assert locs[:2] == [Location(0, 0), Location(0, 2)]
    assert locs[2:4] == [Location(1, 1), Location(1, 3)]


def test_collect_reads_measurements():
    h = Hyperparams(ell1=5.0, ell2=5.0, signal_var=1.0, noise_var=0.01)
    g0 = TransectGrid(3, 4, 5.0, 5.0)
    z = sample_prior_field(g0, h, seed=3, mean=10.0)
    g = TransectGrid(3, 4, 5.0, 5.0, measurements=z)
    p = path_of(g, [(0,), (1,), (2,), (1,)])
    measured = p.collect()
    assert measured.values is not None
    flat = [v for col_vals in measured.values for v in col_vals]
    assert flat == [z[0, 0], z[1, 1], z[2, 2], z[1, 3]]


def test_collect_without_measurements_raises():
    g = grid(3, 4)
    p = path_of(g, [(0,), (1,), (2,), (1,)])
    with pytest.raises(ValueError):
        p.collect()


# -------------------------------------------------------------- robot tracks


def test_tracks_single_robot_is_row_sequence():
    g = grid(4, 5)
    p = path_of(g, [(2,), (3,), (1,), (0,), (2,)])
    tracks = robot_tracks(p)
    assert tracks == [[2, 3, 1, 0, 2]]


def test_tracks_cover_each_config_exactly():
    g = grid(4, 5)
    p = path_of(g, [(0, 2), (1, 3), (0, 1), (2, 3), (0, 3)])
    tracks = robot_tracks(p)
    assert len(tracks) == 2
    for col in range(g.n_cols):
        rows_here = sorted(t[col] for t in tracks)
        assert tuple(rows_here) == p.configs[col].rows


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_tracks_minimize_total_vertical_travel():
    g = grid(4, 3)
    p = path_of(g, [(0, 3), (1, 2), (0, 3)])
    tracks = robot_tracks(p)
    # crossing assignments cost more; each robot stays on its side
    cost = sum(
        abs(t[c + 1] - t[c]) for t in tracks for c in range(g.n_cols - 1)
    )
    assert cost == 4
    starts = sorted(t[0] for t in tracks)
    assert starts == [0, 3]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_tracks_keep_row_order_on_equal_cost_swaps():
    # pairing the middle column either way travels 2 rows; the tracks that
    # keep the robots in row order are reported
    g = grid(3, 3)
    p = path_of(g, [(0, 1), (1, 2), (0, 1)])
    assert robot_tracks(p) == [[0, 1, 0], [1, 2, 1]]


@st.composite
def team_paths(draw):
    k = draw(st.integers(2, 4))
    n_rows = draw(st.integers(k, 7))
    n_cols = draw(st.integers(n_rows + 1, 10))
    row_sets = st.lists(
        st.integers(0, n_rows - 1), min_size=k, max_size=k, unique=True
    ).map(sorted)
    cols = draw(st.lists(row_sets, min_size=n_cols, max_size=n_cols))
    return path_of(grid(n_rows, n_cols), cols)


@given(team_paths())
@settings(max_examples=150, deadline=None)
def test_tracks_never_cross_and_travel_minimally(p):
    tracks = robot_tracks(p)
    for col in range(p.grid.n_cols):
        # configurations list rows ascending, so robot order never flips
        assert tuple(t[col] for t in tracks) == p.configs[col].rows
    for col in range(p.grid.n_cols - 1):
        prev, nxt = p.configs[col].rows, p.configs[col + 1].rows
        best = min(
            sum(abs(a - b) for a, b in zip(prev, perm))
            for perm in itertools.permutations(nxt)
        )
        assert sum(abs(t[col + 1] - t[col]) for t in tracks) == best
