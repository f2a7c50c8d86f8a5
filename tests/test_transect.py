import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transectplan import (
    InvalidArity,
    Location,
    ObservationPath,
    RobotConfig,
    TransectGrid,
    enumerate_configs,
    robot_tracks,
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


@pytest.mark.parametrize(
    "shape", [(2.5, 4), (3, 4.0), (np.float64(3), 4), (3, np.float32(4)), ("3", 4), (None, 4)]
)
def test_grid_refuses_a_shape_that_is_not_integral(shape):
    # refused where the grid is made, not later inside enumerate_configs
    with pytest.raises(ValueError, match="integers"):
        TransectGrid(*shape, 1.0, 1.0)


def test_grid_keeps_a_numpy_integer_shape_as_int():
    g = TransectGrid(np.int64(3), np.int32(4), 1.0, 1.0)
    assert (type(g.n_rows), type(g.n_cols)) == (int, int)
    assert g == TransectGrid(3, 4, 1.0, 1.0)
    assert len(enumerate_configs(g, 2)) == 3


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


# ----------------------------------------------------------- observation path


def path_of(g, rows_per_col):
    return ObservationPath(g, tuple(RobotConfig(r) for r in rows_per_col))


def test_path_requires_full_column_coverage():
    g = grid(3, 4)
    with pytest.raises(ValueError):
        path_of(g, [(0,), (1,), (2,)])


def test_path_requires_constant_team_size():
    g = grid(3, 4)
    with pytest.raises(InvalidArity):
        path_of(g, [(0,), (0, 1), (2,), (1,)])


def test_path_requires_rows_inside_the_grid():
    g = grid(3, 4)
    # row 2 is the last one; a row past it in any column is refused
    path_of(g, [(0, 2), (1, 2), (0, 1), (1, 2)])
    for col in range(g.n_cols):
        rows = [(0, 1)] * g.n_cols
        rows[col] = (1, 3)
        with pytest.raises(InvalidArity, match="path leaves the grid rows"):
            path_of(g, rows)


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
