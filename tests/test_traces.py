"""The column-wise trace writer and the row views of a run.

`write_csv` formats a whole column at once (`format_column`) instead of
calling `fmt` per cell, so these tests pin the two to each other cell
for cell, check that the row views `RunResult` exposes read back exactly
the rows written, and bound the memory the writer holds at once.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from swarmpulse.config import parse_config
from swarmpulse.runner import run_config
from swarmpulse.scenarios import scenario_text
from swarmpulse.traces import (
    POSITION_HEADER,
    TraceTable,
    fmt,
    format_column,
    write_csv,
)

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e16, -1e16, 1.2345678949e16, 1e22, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan, -math.nan, 1 / 3, 2 / 3, 0.1, 123456789.5,
    1234567894.9, 9.9999999949e-5, 1e-5,
]


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
@example(EDGE_FLOATS)
@example([])
def test_float_column_cells_equal_fmt(values):
    col = np.array(values, dtype=np.float64)
    assert format_column(col, len(values)) == [fmt(v) for v in values]


@given(st.lists(st.floats(min_value=1e16, allow_infinity=False), min_size=1))
def test_large_float_cells_equal_fmt(values):
    assert format_column(np.array(values), len(values)) == [fmt(v) for v in values]


@given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1)))
@example([0, -1, 2**63 - 1, -(2**63)])
def test_int_column_cells_equal_fmt(values):
    col = np.array(values, dtype=np.int64)
    assert format_column(col, len(values)) == [fmt(v) for v in values]


@given(st.integers(min_value=0, max_value=2000))
def test_missing_column_cells_equal_fmt(rows):
    assert format_column(None, rows) == [fmt(None)] * rows


def test_edge_cells():
    col = np.array([-0.0, 5e-324, 1e16, math.nan, 1 / 3])
    assert format_column(col, 5) == ["-0", "4.94065646e-324", "1e+16", "", "0.333333333"]


# -- row views -----------------------------------------------------------

PULSE = """
model = pulse
duration = 2.0
dt = 0.1
seed = 1
trace_rate = 10.0
pulse.n = 3
pulse.k = 0.05
pulse.rate = 1.0
"""

# Three drones on a ring; a fourth spawns at 0.5 s, then three leave, so
# the agent count per sample changes and the last samples have one drone
# and empty spacing cells.
DRONE = """
model = drone
duration = 2.0
dt = 0.01
seed = 1
trace_rate = 10.0
scenario.n = 3
scenario.formation = ring
drone.k_visible = 0.1
drone.k_hidden = -0.1
scenario.events = 0.5 spawn 0.2 0.1
scenario.events = 1.0 despawn 0
scenario.events = 1.2 despawn 3
scenario.events = 1.5 despawn 1
"""

REFERENCE = scenario_text("table1_static_sync") + "duration = 2.0\n"

RUNS = {"pulse": PULSE, "drone": DRONE, "reference": REFERENCE}

FILES = {"phases.csv": "phase_rows", "positions.csv": "position_rows",
         "metrics.csv": "metric_rows"}


@pytest.mark.parametrize("name", RUNS)
def test_row_views_match_written_files(tmp_path, name):
    result = run_config(parse_config(RUNS[name]), name=name, out_dir=str(tmp_path))
    for fname, attr in FILES.items():
        view = getattr(result, attr)
        lines = (tmp_path / name / fname).read_text().splitlines()
        assert len(view) == len(lines) - 1, fname
        rows = list(view)
        assert len(rows) == len(view), fname
        assert [",".join(map(fmt, row)) for row in rows] == lines[1:], fname
    if name == "drone":
        counts = {len([r for r in result.phase_rows if r[0] == t])
                  for t, *_ in result.metric_rows}
        assert counts == {1, 2, 3, 4}
        assert any(row[3] is None for row in result.metric_rows)
    if name == "pulse":
        assert len(result.position_rows) == 0
        assert all(row[3] is None for row in result.phase_rows)


def test_row_view_types():
    table = TraceTable([0.5, 1.0], [2, 1], [
        np.array([7, 8, 7]), np.array([0.25, math.nan, 1.5]), None,
    ])
    assert list(table) == [(0.5, 7, 0.25, None), (0.5, 8, None, None), (1.0, 7, 1.5, None)]
    assert [type(v) for v in next(iter(table))[:3]] == [float, int, float]


# -- memory --------------------------------------------------------------

# Written down before measuring: a 300k-row, 6-column table makes a
# file of about 17 MB, and a block of 1024 rows is well under 1 MB of
# strings, so a streaming writer stays far below this bar and a writer
# that builds the whole file as one string goes far above it.
WRITE_PEAK_BAR = 4 * 2**20


def test_write_csv_memory_is_bounded(tmp_path):
    rng = np.random.default_rng(0)
    samples, agents = 15_000, 20
    rows = samples * agents
    table = TraceTable(
        np.arange(samples) * 0.02,
        np.full(samples, agents),
        [np.tile(np.arange(agents), samples), *rng.normal(size=(4, rows))],
    )
    path = tmp_path / "positions.csv"
    tracemalloc.start()
    try:
        write_csv(path, POSITION_HEADER, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 4 * WRITE_PEAK_BAR
    assert peak < WRITE_PEAK_BAR, f"peak {peak / 2**20:.1f} MiB"
