"""Field files and their metadata sidecars.

A field lives in a headerless CSV, one row of the grid per line, decimal
points only, every value printed with 17 significant digits so a write/read
round trip is bit-exact for float64. The hyperparameters, cell widths,
prior mean and seed travel in a flat key=value sidecar named after the
field file with a ``.meta`` suffix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .gp import Hyperparams
from .transect import TransectGrid

#: Formatting used for every number written by this package.
FLOAT_FMT = "%.17g"


def fmt(value: float) -> str:
    """17-significant-digit rendering, enough to reproduce the double."""
    return FLOAT_FMT % (value,)


@dataclass(frozen=True)
class FieldBundle:
    """A measured grid plus the metadata needed to recompute it."""

    grid: TransectGrid
    h: Hyperparams | None
    mean: float | None
    seed: int | None


def sidecar_path(field_path: str | Path) -> Path:
    return Path(field_path).with_suffix(".meta")


def write_field(
    field_path: str | Path,
    grid: TransectGrid,
    h: Hyperparams,
    mean: float,
    seed: int,
) -> None:
    """Write the measurements CSV and its sidecar."""
    if grid.measurements is None:
        raise ValueError("grid carries no measurements to write")
    field_path = Path(field_path)
    values = np.asarray(grid.measurements)
    # one %-format per row, the same text as fmt on each value
    row_fmt = ",".join([FLOAT_FMT] * values.shape[1])
    lines = [row_fmt % tuple(row) for row in values.tolist()]
    field_path.write_text("\n".join(lines) + "\n")
    meta = {
        "rows": str(grid.n_rows),
        "cols": str(grid.n_cols),
        "omega1": fmt(grid.omega1),
        "omega2": fmt(grid.omega2),
        "ell1": fmt(h.ell1),
        "ell2": fmt(h.ell2),
        "signal_var": fmt(h.signal_var),
        "noise_var": fmt(h.noise_var),
        "mean": fmt(mean),
        "seed": str(seed),
    }
    sidecar_path(field_path).write_text("".join(f"{k}={v}\n" for k, v in meta.items()))


def _parse_meta(text: str, source: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def read_field(field_path: str | Path) -> FieldBundle:
    """Read a field CSV and, when present, its sidecar.

    Without a sidecar the bundle still carries the measured grid but no
    hyperparameters; cell widths then default to 1 and callers must supply
    their own. Unreadable or non-UTF-8 files, malformed or non-finite
    numbers, ragged rows and bad sidecar lines raise ParseError.
    """
    field_path = Path(field_path)
    try:
        text = field_path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read field file {field_path}: {e}") from e

    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as e:
            raise ParseError(f"{field_path}:{lineno}: {e}") from e
    if not rows:
        raise ParseError(f"{field_path}: empty field file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{field_path}: ragged rows")
    measurements = np.array(rows)
    if not np.all(np.isfinite(measurements)):
        raise ParseError(f"{field_path}: measurements must be finite")

    meta_file = sidecar_path(field_path)
    if not meta_file.exists():
        try:
            grid = TransectGrid(
                n_rows=measurements.shape[0],
                n_cols=measurements.shape[1],
                omega1=1.0,
                omega2=1.0,
                measurements=measurements,
            )
        except ValueError as e:
            raise ParseError(f"{field_path}: {e}") from e
        return FieldBundle(grid, None, None, None)

    try:
        meta_text = meta_file.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read sidecar {meta_file}: {e}") from e
    meta = _parse_meta(meta_text, meta_file)
    try:
        grid = TransectGrid(
            n_rows=int(meta["rows"]),
            n_cols=int(meta["cols"]),
            omega1=float(meta["omega1"]),
            omega2=float(meta["omega2"]),
            measurements=measurements,
        )
        h = Hyperparams(
            ell1=float(meta["ell1"]),
            ell2=float(meta["ell2"]),
            signal_var=float(meta["signal_var"]),
            noise_var=float(meta["noise_var"]),
        )
        mean = float(meta["mean"])
        seed = int(meta["seed"])
    except (KeyError, ValueError) as e:
        raise ParseError(f"{meta_file}: {e}") from e
    if not np.isfinite(mean):
        raise ParseError(f"{meta_file}: mean must be finite, got {mean}")
    return FieldBundle(grid, h, mean, seed)


def sha256_of(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
