"""CSV trace schemas, writers, readers, and the trace comparator.

Three trace files per run, all floats printed with 9 significant digits
so identical runs produce byte-identical files:

* phases:    t,agent_id,theta,hidden
* positions: t,agent_id,x,y,vx,vy
* metrics:   t,order_param,max_pair_diff,am,gm,min,max,collisions_cum

Fields a model does not define (hidden for the pulse and reference
models, spacing for the single-population pulse model) are left empty.

A run keeps each table as a `TraceTable`: its columns, not its rows.
`write_csv` formats one column at a time (`format_column`, which writes
every cell exactly as `fmt` would) and streams the lines out
`CHUNK_ROWS` rows at a time, so no file is ever held in memory whole.
Cells are numbers or empty and every table has several columns, so no
line needs CSV quoting.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PHASE_HEADER = ("t", "agent_id", "theta", "hidden")
POSITION_HEADER = ("t", "agent_id", "x", "y", "vx", "vy")
METRICS_HEADER = (
    "t",
    "order_param",
    "max_pair_diff",
    "am",
    "gm",
    "min",
    "max",
    "collisions_cum",
)

# Rows per block of `write_csv`: large enough to amortise the per-block
# numpy calls, small enough that a block's strings stay well under 1 MB.
CHUNK_ROWS = 1024


def fmt(value) -> str:
    """Canonical cell formatting: 9 significant digits, '' for missing."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.9g}"
    return str(value)


def format_column(col: np.ndarray | None, rows: int) -> list[str]:
    """The cells of one column, each exactly as `fmt` writes its value.

    `col` is a float64 array (NaN is an empty cell), an integer array, or
    None for a column the model does not define (`rows` empty cells).
    """
    if col is None:
        return [""] * rows
    values = col.tolist()
    if col.dtype.kind != "f":
        return list(map(str, values))
    cells = list(map("%.9g".__mod__, values))
    if np.isnan(col).any():
        return ["" if v != v else c for v, c in zip(values, cells)]
    return cells


def _column_values(col: np.ndarray | None, rows: int) -> list:
    """The values of one column as Python floats and ints, None for an empty cell."""
    if col is None:
        return [None] * rows
    values = col.tolist()
    if col.dtype.kind == "f" and np.isnan(col).any():
        return [None if v != v else v for v in values]
    return values


class TraceTable:
    """One trace table held as columns and read as rows.

    Sample k covers `counts[k]` consecutive rows, all at time `times[k]`
    (the `t` column). Each of `columns` has one entry per row: a float64
    array (NaN for an empty cell), an integer array, or None for a column
    the model does not define. `len()` counts the rows without building
    any; iterating yields each row as a tuple of Python floats and ints,
    with None for an empty cell, which is what `fmt` writes.
    """

    def __init__(self, times, counts, columns) -> None:
        self.times = np.asarray(times, dtype=np.float64)
        self.columns = list(columns)
        self._ends = np.cumsum(np.asarray(counts, dtype=np.int64))

    def __len__(self) -> int:
        return int(self._ends[-1]) if self._ends.size else 0

    def _blocks(self, t_cells: list, cells):
        """Per block of up to CHUNK_ROWS rows, one list per column: the
        block's `t_cells` (indexed by sample), then `cells(slice, rows)`
        of each of `columns`."""
        n = len(self)
        for a in range(0, n, CHUNK_ROWS):
            b = min(a + CHUNK_ROWS, n)
            sample = np.searchsorted(self._ends, np.arange(a, b), side="right").tolist()
            yield [
                list(map(t_cells.__getitem__, sample)),
                *(cells(None if c is None else c[a:b], b - a) for c in self.columns),
            ]

    def __iter__(self):
        for block in self._blocks(self.times.tolist(), _column_values):
            yield from zip(*block)


def write_csv(path: Path, header, table: TraceTable) -> None:
    """Write `header` and the rows of `table`, one block of rows at a time."""
    t_cells = format_column(table.times, table.times.size)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in table._blocks(t_cells, format_column):
            fh.write("\n".join(map(",".join, zip(*block))))
            fh.write("\n")


def write_summary(path: Path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


class TraceSchemaError(ValueError):
    pass


def _cell_value(cell: str) -> float | None:
    """A metrics cell's value, None if empty; ValueError unless a finite number."""
    if cell == "":
        return None
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def read_metrics_csv(path: Path) -> dict[str, list[float | None]]:
    """Read a metrics trace into columns; empty cells become None.

    Raises TraceSchemaError for a file that is not a metrics trace: not
    CSV text, a wrong header, a ragged row, or a cell that is neither
    empty nor a finite number.
    """
    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise TraceSchemaError(f"{path}: not a CSV text file ({exc})") from None
    if not rows:
        raise TraceSchemaError(f"{path}: empty file")
    header = rows[0]
    if tuple(header) != METRICS_HEADER:
        raise TraceSchemaError(
            f"{path}: unexpected header {header!r}, expected {list(METRICS_HEADER)}"
        )
    cols: dict[str, list[float | None]] = {name: [] for name in header}
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise TraceSchemaError(f"{path}: ragged row {row!r}")
        try:
            values = [_cell_value(cell) for cell in row]
        except ValueError as exc:
            raise TraceSchemaError(f"{path}: line {line}: {exc}") from None
        for name, value in zip(header, values):
            cols[name].append(value)
    return cols


@dataclass
class CompareReport:
    metric: str
    tolerance: float
    rows: int
    max_delta: float
    mean_delta: float
    final_delta: float
    final_third_mean: tuple[float, float]
    final_third_std: tuple[float, float]
    passed: bool

    def render(self) -> str:
        lines = [
            f"metric: {self.metric}",
            f"rows compared: {self.rows}",
            f"max |delta|: {fmt(self.max_delta)} (tolerance {fmt(self.tolerance)})",
            f"mean |delta|: {fmt(self.mean_delta)}",
            f"final |delta|: {fmt(self.final_delta)}",
            f"final-third mean: a={fmt(self.final_third_mean[0])} b={fmt(self.final_third_mean[1])}",
            f"final-third std:  a={fmt(self.final_third_std[0])} b={fmt(self.final_third_std[1])}",
            "result: PASS" if self.passed else "result: FAIL",
        ]
        return "\n".join(lines)


def _stats(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def compare_metrics(
    path_a: Path, path_b: Path, metric: str, tolerance: float
) -> CompareReport:
    """Row-aligned comparison of one metric column of two traces.

    Traces must share the schema, length, and time column exactly; the
    metric column must be populated in both. The verdict is on the
    largest absolute row delta; final-third statistics of both traces
    are reported alongside for stability comparisons.
    """
    a = read_metrics_csv(path_a)
    b = read_metrics_csv(path_b)
    if metric not in METRICS_HEADER or metric == "t":
        raise TraceSchemaError(f"unknown metric {metric!r}")
    if len(a["t"]) != len(b["t"]) or a["t"] != b["t"]:
        raise TraceSchemaError("traces are not time-aligned")
    if not a["t"]:
        raise TraceSchemaError("traces contain no rows")
    va, vb = a[metric], b[metric]
    if any(v is None for v in va) or any(v is None for v in vb):
        raise TraceSchemaError(f"metric {metric!r} not populated in both traces")

    deltas = [abs(x - y) for x, y in zip(va, vb)]
    third = max(1, len(va) // 3)
    mean_a, std_a = _stats(va[-third:])
    mean_b, std_b = _stats(vb[-third:])
    max_delta = max(deltas)
    return CompareReport(
        metric=metric,
        tolerance=tolerance,
        rows=len(deltas),
        max_delta=max_delta,
        mean_delta=sum(deltas) / len(deltas),
        final_delta=deltas[-1],
        final_third_mean=(mean_a, mean_b),
        final_third_std=(std_a, std_b),
        passed=max_delta <= tolerance,
    )
