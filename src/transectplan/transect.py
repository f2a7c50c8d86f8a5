"""Transect-grid geometry and robot configurations.

A transect survey discretizes a rectangular strip into ``n_rows`` rows and
``n_cols`` columns of cell centers, spaced ``omega1`` meters apart along the
strip and ``omega2`` meters across it. A team of k robots occupies k distinct
rows of one column and advances one column per planning stage, so a complete
sweep visits every column exactly once. Columns are indexed 0..n_cols-1 and
the number of planning decisions is n_cols-1 (the start column is given).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidArity


class Location(NamedTuple):
    """Grid cell identified by (column, row); physical position is
    (col * omega1, row * omega2) in meters."""

    col: int
    row: int


@dataclass(frozen=True)
class TransectGrid:
    """Discretized survey strip, optionally carrying measured field values.

    Parameters
    ----------
    n_rows, n_cols : int
        Grid dimensions. At least one row and two columns (a single-column
        grid leaves nothing to plan).
    omega1, omega2 : float
        Cell-center spacing in meters, along and across the transect.
    measurements : ndarray of shape (n_rows, n_cols), optional
        Ground-truth field values, one per cell.
    """

    n_rows: int
    n_cols: int
    omega1: float
    omega2: float
    measurements: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 2:
            raise ValueError("grid needs n_rows >= 1 and n_cols >= 2")
        if not (0 < self.omega1 < np.inf and 0 < self.omega2 < np.inf):
            raise ValueError("cell widths must be positive and finite")
        if self.n_cols <= self.n_rows:
            warnings.warn(
                "transect grids are expected to be long and thin (n_cols > n_rows)",
                stacklevel=2,
            )
        if self.measurements is not None:
            m = np.asarray(self.measurements, dtype=float)
            if m.shape != (self.n_rows, self.n_cols):
                raise ValueError(
                    f"measurements shape {m.shape} does not match "
                    f"({self.n_rows}, {self.n_cols})"
                )
            object.__setattr__(self, "measurements", m)

    @property
    def horizon(self) -> int:
        """Number of planning stages after the first decision, n_cols - 2."""
        return self.n_cols - 2

    @property
    def widths(self) -> tuple[float, float]:
        return (self.omega1, self.omega2)

    def locations(self) -> list[Location]:
        """Every cell, column-major (column 0 first, rows ascending)."""
        return [
            Location(c, r)
            for c in range(self.n_cols)
            for r in range(self.n_rows)
        ]


@dataclass(frozen=True, order=True)
class RobotConfig:
    """Rows occupied by the team within one column, strictly increasing."""

    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        if len(rows) == 0:
            raise InvalidArity("a configuration needs at least one robot")
        if any(r < 0 for r in rows):
            raise InvalidArity(f"negative row in {rows}")
        if any(b <= a for a, b in zip(rows, rows[1:])):
            raise InvalidArity(f"rows must be strictly increasing, got {rows}")
        object.__setattr__(self, "rows", rows)

    @property
    def k(self) -> int:
        return len(self.rows)

    def __str__(self):
        return ",".join(str(r) for r in self.rows)


def enumerate_configs(grid: TransectGrid, k: int) -> list[RobotConfig]:
    """All C(n_rows, k) configurations in lexicographic row order.

    This fixed order is the tie-break order used by every planner.
    """
    if not 1 <= k <= grid.n_rows:
        raise InvalidArity(f"team size {k} outside [1, {grid.n_rows}]")
    return [RobotConfig(c) for c in itertools.combinations(range(grid.n_rows), k)]


@dataclass(frozen=True)
class ObservationPath:
    """One configuration per column, column 0 through n_cols - 1."""

    grid: TransectGrid
    configs: tuple[RobotConfig, ...]

    def __post_init__(self):
        if len(self.configs) != self.grid.n_cols:
            raise ValueError(
                f"path covers {len(self.configs)} columns, grid has {self.grid.n_cols}"
            )
        k = self.configs[0].k
        if any(c.k != k for c in self.configs):
            raise InvalidArity("all configurations on a path must share one arity")
        if any(max(c.rows) >= self.grid.n_rows for c in self.configs):
            raise InvalidArity("path leaves the grid rows")

    @property
    def k(self) -> int:
        return self.configs[0].k

    @property
    def start(self) -> RobotConfig:
        return self.configs[0]

    def locations(self) -> list[Location]:
        """All visited cells, stage by stage, rows ascending within a stage."""
        return [Location(col, r) for col, cfg in enumerate(self.configs) for r in cfg.rows]


def robot_tracks(path: ObservationPath) -> list[list[int]]:
    """Split a path of unordered team configurations into per-robot row
    sequences, matching consecutive columns by minimum total row displacement.

    On a line, pairing sorted positions in order minimizes the total
    displacement, and every configuration lists its rows in increasing
    order, so robot i holds the i-th lowest row of every column and tracks
    never cross. Purely a reporting aid; planning never needs the
    assignment.
    """
    return [list(track) for track in zip(*(cfg.rows for cfg in path.configs))]
