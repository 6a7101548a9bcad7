"""CSV trace schemas, writers, readers, and the trace comparator.

Three trace files per run, all floats printed with 9 significant digits
so identical runs produce byte-identical files:

* phases:    t,agent_id,theta,hidden
* positions: t,agent_id,x,y,vx,vy
* metrics:   t,order_param,max_pair_diff,am,gm,min,max,collisions_cum

Fields a model does not define (hidden for the pulse and reference
models, spacing for the single-population pulse model) are left empty.

A run keeps each table as a `TraceTable`: its columns, not its rows.
`write_csv` streams it out `CHUNK_ROWS` rows at a time, so no file is
held in memory whole, and `format_block` lays each block out in numpy,
28 bytes a cell: a prefix (sign, "0.000"), three words of three digits,
a suffix ("e+XX") and the separator, padded with NUL bytes that one
`bytes.translate` deletes. No Python string is built per cell. A float's mantissa is m = rint(s),
s = |x| * 10**(8-E) with E = floor(log10|x|): one multiply by a power
of ten exact up to 10**22 and within an ulp beyond, so s is within
3.3e-7 of the exact product. Where s lies in [1e8, 1e9 + 0.5) and at
least 1e-6 from a rounding tie, m and E are thus what '%.9g' prints,
whatever `np.log10` returned on this CPU, once an m of 1e9 (a value
that rounds up to a power of ten) is carried to m = 1e8 at E + 1.
`fmt` writes every other cell: near a tie, any other wrong E, |x|
outside 1e-280..1e280, an infinity, or an integer of 1e9 or more. Zero
is "0" or "-0", NaN an empty cell.

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
# numpy calls, small enough that a block of six columns and its
# temporaries peak near 0.3 MiB. Larger blocks are a little faster but
# raise a small run's peak resident memory by 1.4 MiB at 2048 rows.
CHUNK_ROWS = 512


def fmt(value: int | float | None) -> str:
    """Canonical cell formatting: an int in full, a float to 9 significant
    digits, '' for None or NaN."""
    if isinstance(value, int):
        return str(value)
    return "" if value is None or math.isnan(value) else f"{value:.9g}"


# Cell layout tables; rows indexed by the exponent E are at E + _E0.
_E0 = 281
_E = np.arange(-_E0, _E0)
# 10**(8 - E) as 10**(22q) * 10**r: exact for 0 <= 8 - E <= 22, else within an ulp.
_SCALE = np.array([float(f"1e{22 * q}") for q in range(-13, 14)])[(8 - _E) // 22 + 13]
_SCALE *= np.cumprod([1.0] + [10.0] * 21)[(8 - _E) % 22]
_g = np.arange(1000)
_digits = (_g[:, None] // [100, 10, 1] % 10 + ord("0")).astype(np.uint8)
_text = np.zeros((3, _E.size, 8), np.uint8)  # prefix, "-" and prefix, suffix
_text[1, :, 0] = ord("-")
for _e in range(-4, 0):
    _lead = np.frombuffer(b"0." + b"0" * (-_e - 1), np.uint8)
    _text[0, _E0 + _e, :_lead.size] = _text[1, _E0 + _e, 1:_lead.size + 1] = _lead
_sci = (_E < -4) | (_E > 8)
_text[2, :, 0] = ord("e")
_text[2, :, 1] = np.where(_E < 0, ord("-"), ord("+"))
_text[2, :, 2:5] = _digits[np.abs(_E)]
_text[2, np.abs(_E) < 100, 2:5] = _text[2, np.abs(_E) < 100, 3:6]
_text[2, ~_sci] = 0
_PREFIX = _text[:2].view(np.uint64).ravel()  # [sign * _E.size + row]
_SUFFIX = _text[2].view(np.uint64).ravel()
# 10 * (the digit the point follows + 1), 0 for "0.000ddd".
_POINT = np.where(_sci, 10, 10 * (np.maximum(_E, -1) + 1))
_COMMA, _NEWLINE = np.frombuffer(b"\0\0\0,\0\0\0\n", np.uint32)
# Digit group g's word is _GROUP[16 * g + 4 * c + d]: its first c digits,
# with the point after digit d (d = 3: no point).
_group = np.zeros((1000, 4, 4, 4), np.uint8)
for _c in range(4):
    _group[:, _c, 3, :_c] = _digits[:, :_c]
    for _d in range(_c):
        _group[:, _c, _d, :_c + 1] = np.insert(_digits[:, :_c], _d + 1, ord("."), axis=1)
_GROUP = _group.view(np.uint32).ravel()
# _SIG[j][g]: significant digits up to the end of group j, 0 if g is 0.
_j = np.array([[0], [3], [6]])
_SIG = np.where(_g > 0, _j + 3 - (_g % 10 == 0) - (_g % 100 == 0), 0)
# _CODE[j][_POINT + significant digits] is group j's 4 * c + d.
_point, _nsig = np.divmod(np.arange(100), 10)
_dot = np.where(_nsig > _point, _point - 1 - _j, -1)
_kept = np.clip(np.maximum(_point, _nsig) - _j, 0, 3)
_CODE = _kept * 4 + np.where((_dot >= 0) & (_dot < 3), _dot, 3)


def _scale(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per cell of float64 `x`: the exponent's table row, the 9-digit
    mantissa (0 for zero, NaN and cells `fmt` writes) and the `fmt` mask."""
    a = np.abs(x)
    fast = (a >= 1e-280) & (a < 1e280)
    slow = ~fast & (a > 0)
    s = np.where(fast, a, 1.0)
    k = np.floor(np.log10(s)).astype(np.intp) + _E0
    s *= _SCALE[k]
    m = np.rint(s)
    slow |= (s < 1e8) | (m > 1e9) | (np.abs(s - m) > 0.5 - 1e-6)
    # A mantissa that rounds up to 1e9 is 1e8 in the next exponent's row.
    carry = m == 1e9
    m[carry] = 1e8
    k += carry
    m[slow | (a == 0)] = 0
    return k, m.astype(np.intp), slow


def _layout(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of float64 `x` as (*x.shape, 7) uint32 words with no
    separator, and the mask of cells that `fmt` must write instead."""
    k, m, slow = _scale(x)
    hi, lo = np.divmod(m, 1000)
    g = (*np.divmod(hi, 1000), lo)
    key = _POINT[k] + np.maximum(np.maximum(_SIG[0][g[0]], _SIG[1][g[1]]), _SIG[2][g[2]])
    words = np.empty((*x.shape, 7), np.uint32)
    words[..., :2].view(np.uint64)[..., 0] = _PREFIX[np.signbit(x) * _E.size + k]
    for j in range(3):
        words[..., 2 + j] = _GROUP[16 * g[j] + _CODE[j][key]]
    words[..., 5:].view(np.uint64)[..., 0] = _SUFFIX[k]
    words[np.isnan(x)] = 0
    return words, slow


def format_block(columns, rows: int) -> bytes:
    """`rows` CSV lines whose cell j is `columns[j]`'s, exactly as `fmt`
    writes it: a float64 array (NaN is an empty cell), an integer array,
    or None for a column the model does not define (empty cells, which
    are not laid out)."""
    defined = [col for col in columns if col is not None]
    x = np.empty((rows, len(defined)))
    for j, col in enumerate(defined):
        x[:, j] = col
    ints = np.array([col.dtype.kind != "f" for col in defined], dtype=bool)
    words, slow = _layout(x)
    slow |= ints & (np.abs(x) >= 1e9)  # `str`, not '%.9g', writes these
    cells = words.view(np.uint8).reshape(rows, len(defined), 28)
    for i, j in zip(*np.nonzero(slow)):
        text = fmt(defined[j][i].item()).encode()
        cells[i, j, :27] = np.frombuffer(text.ljust(27, b"\0"), np.uint8)
    if len(defined) < len(columns):
        words, laid = np.zeros((rows, len(columns), 7), np.uint32), words
        words[:, np.array([col is not None for col in columns])] = laid
    words[:, :-1, 6] |= _COMMA
    words[:, -1, 6] |= _NEWLINE
    return words.tobytes().translate(None, b"\0")


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

    def _blocks(self):
        """Per block of up to CHUNK_ROWS rows, its columns: the time of
        each row, then each of `columns` cut to the block."""
        n = len(self)
        for a in range(0, n, CHUNK_ROWS):
            b = min(a + CHUNK_ROWS, n)
            sample = np.searchsorted(self._ends, np.arange(a, b), side="right")
            yield [self.times[sample], *(None if c is None else c[a:b] for c in self.columns)]

    def __iter__(self):
        for block in self._blocks():
            yield from zip(*(_column_values(c, len(block[0])) for c in block))


def write_csv(path: Path, header, table: TraceTable) -> None:
    """Write `header` and the rows of `table`, one block of rows at a time."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        for block in table._blocks():
            fh.write(format_block(block, len(block[0])))


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
