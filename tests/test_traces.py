"""The byte-level trace writer and the row views of a run.

`write_csv` lays each block of rows out in numpy (`format_block`)
instead of calling `fmt` per cell, so these tests pin the two to each
other cell for cell, on every numpy SIMD level the host has, check that
the row views `RunResult` exposes read back exactly the rows written,
and bound the memory the writer holds at once and the memory a
reference run holds at its peak.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from swarmpulse.config import parse_config
from swarmpulse.runner import run_config
from swarmpulse.scenarios import SCENARIO_NAMES, scenario_text
from swarmpulse.traces import (
    POSITION_HEADER,
    TraceTable,
    _layout,
    fmt,
    format_block,
    write_csv,
)

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e16, -1e16, 1.2345678949e16, 1e22, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan, -math.nan, 1 / 3, 2 / 3, 0.1, 123456789.5,
    1234567894.9, 9.9999999949e-5, 1e-5,
]


def cells(col, rows):
    """The cells `format_block` writes for a one-column block."""
    return format_block([col], rows).decode().split("\n")[:-1]


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
@example(EDGE_FLOATS)
@example([])
def test_float_column_cells_equal_fmt(values):
    assert cells(np.array(values, dtype=np.float64), len(values)) == [fmt(v) for v in values]


@given(st.lists(st.floats(min_value=1e16, allow_infinity=False), min_size=1))
def test_large_float_cells_equal_fmt(values):
    assert cells(np.array(values), len(values)) == [fmt(v) for v in values]


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=200))
@example([0x8000000000000000, 0x7FF0000000000000, 0x7FF8000000000001, 1])
def test_float_bit_patterns_equal_fmt(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert cells(values, len(bits)) == [fmt(v) for v in values.tolist()]


def near_ties():
    """Doubles nearest to decimals with a 5 in the 10th significant digit,
    over the decades the fast path covers, and their neighbours."""
    rng = np.random.default_rng(11)
    mantissas = rng.integers(10**8, 10**9, size=3000)
    exponents = rng.integers(-290, 280, size=3000)
    ties = np.array([float(f"{m}5e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())])
    ties[:100] = [float(f"{m}5e-9") for m in mantissas[:100].tolist()]  # |x| near 1
    ties[1::2] *= -1
    return np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])


def test_near_tie_cells_equal_fmt():
    values = near_ties()
    inside = (np.abs(values) >= 1e-280) & (np.abs(values) < 1e280)
    assert inside.sum() > 8000
    assert _layout(values[inside])[1].all(), "a near-tie took the fast path"
    assert cells(values, values.size) == [fmt(v) for v in values.tolist()]


def test_cells_below_a_power_of_ten_equal_fmt():
    powers = 10.0 ** np.arange(-6, 11)
    # Less than 5e-10 below a power, a value rounds up to it at 9 digits.
    up = np.concatenate([
        (powers[:, None] * (1.0 - np.array([1e-12, 3e-11, 3e-10, 4.9e-10]))).ravel(),
        [0.99999999997, 9.99999999996e-05, 999999999.7],
    ])
    # Within an ulp or two of a power np.log10 may return the power's
    # exponent, a wrong E that `fmt` writes; ties go to `fmt` too.
    rest = np.concatenate([
        (powers[:, None] * (1.0 - np.array([0.0, 1e-16, 5e-10, 5.1e-10, 1e-9, 1e-8]))).ravel(),
        np.nextafter(powers, 0.0),
    ])
    values = np.concatenate([up, -up, rest, -rest])
    assert cells(values, values.size) == [fmt(v) for v in values.tolist()]
    assert cells(up[-3:], 3) == ["1", "0.0001", "1e+09"]
    assert not _layout(np.concatenate([up, -up]))[1].any(), "a cell that rounds up went to fmt"


@given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1)))
@example([0, -1, 2**63 - 1, -(2**63), 10**9, 10**9 - 1, -(10**9)])
def test_int_column_cells_equal_fmt(values):
    col = np.array(values, dtype=np.int64)
    assert cells(col, len(values)) == [fmt(v) for v in values]


@given(st.integers(min_value=0, max_value=2000))
def test_missing_column_cells_equal_fmt(rows):
    assert cells(None, rows) == [fmt(None)] * rows


def test_edge_cells():
    col = np.array([-0.0, 5e-324, 1e16, math.nan, 1 / 3])
    assert cells(col, 5) == ["-0", "4.94065646e-324", "1e+16", "", "0.333333333"]


def test_block_lines_join_cells():
    columns = [np.array([0.5, 2.0]), np.array([3, 10**12]), None, np.array([math.nan, -1e-7])]
    assert format_block(columns, 2) == b"0.5,3,,\n2,1000000000000,,-1e-07\n"


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


# A reference run holds its trajectory (x, y, vx, vy and theta, 8 bytes
# each per row) while it steps, plus the pair temporaries of its
# observables. A runner that copies the trajectory into its own columns
# holds it two or three times over; one that makes the trace tables
# views of it stays well under this multiple.
RUN_PEAK_PER_TRAJECTORY = 2.5


def test_reference_run_memory_is_bounded():
    text = scenario_text("table1_static_sync")
    run_config(parse_config(text + "duration = 0.1\n"), write=False)  # lazy caches
    cfg = parse_config(text + "duration = 30.0\n")
    tracemalloc.start()
    try:
        result = run_config(cfg, write=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trajectory = 5 * 8 * len(result.position_rows)
    assert len(result.position_rows) == 20 * 1501
    assert peak < RUN_PEAK_PER_TRAJECTORY * trajectory, (
        f"peak {peak / trajectory:.2f} times the trajectory's {trajectory} bytes"
    )


# -- numpy SIMD levels ---------------------------------------------------

# np.log10 differs in the last bit between numpy's SIMD kernels, so the
# writer's exponent guess does too; its exactness check must make the
# bytes the same anyway. Each level names the feature group it needs and
# the groups NPY_DISABLE_CPU_FEATURES turns off to reach it from a newer
# host.
SIMD_LEVELS = {
    "AVX2 (X86_V3)": ("X86_V3", ("X86_V4", "AVX512_ICL")),
    "X86_V2 baseline": ("X86_V2", ("X86_V4", "X86_V3", "AVX512_ICL")),
}


def simd_check_values():
    """The float columns of every bundled scenario shorter than 300 s,
    the edge floats, and a seeded spread over 26 decades."""
    parts = [np.array(EDGE_FLOATS)]
    for name in SCENARIO_NAMES:
        cfg = parse_config(scenario_text(name))
        if cfg.duration >= 300:
            continue
        result = run_config(cfg, name=name, write=False)
        for table in (result.phase_rows, result.position_rows, result.metric_rows):
            parts.append(table.times)
            parts += [c for c in table.columns if c is not None and c.dtype.kind == "f"]
    rng = np.random.default_rng(26)
    size = 200_000
    parts.append(rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-13, 13, size))
    return np.concatenate(parts)


def check_cells_equal_fmt(disabled):
    """The subprocess side of `test_cells_equal_fmt_on_simd_level`."""
    from numpy._core._multiarray_umath import __cpu_features__ as features

    assert not any(features[group] for group in disabled), f"{disabled} still on"
    values = simd_check_values()
    got = cells(values, values.size)
    bad = [(v, c) for v, c in zip(values.tolist(), got) if c != fmt(v)]
    assert not bad, f"{len(bad)} of {values.size} cells differ, e.g. {bad[:5]}"
    print(f"{values.size} cells equal fmt with {disabled or 'nothing'} disabled")


@pytest.mark.parametrize("level", SIMD_LEVELS)
def test_cells_equal_fmt_on_simd_level(level):
    from numpy._core._multiarray_umath import __cpu_features__ as features

    needs, groups = SIMD_LEVELS[level]
    if not features.get(needs):
        pytest.skip(f"host lacks the {level} level")
    disabled = [group for group in groups if features.get(group)]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, *disabled],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


if __name__ == "__main__":
    check_cells_equal_fmt(sys.argv[1:])
