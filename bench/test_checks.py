"""Tests of the benchmark's output checks.

Each check must pass on real output and catch a corrupted copy of it.
Run with `python -m pytest bench/test_checks.py`.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np
import pytest

import checks
import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))
from swarmpulse import config, runner  # noqa: E402

CROWD = workloads.with_values(
    workloads.bundled_text("quincunx_ma10"),
    duration=4.0, trace_rate=10.0, scenario__n=30, scenario__formation="random", seed=3,
)
JOIN_LEAVE = workloads.with_values(
    workloads.bundled_text("join_mid"), duration=4.0,
    scenario__events="1.0 spawn 1.2 0.0",
) + "scenario.events = 2.5 despawn nearest_centroid\n"
REFERENCE = workloads.with_values(workloads.bundled_text("table1_static_sync"), duration=2.0)
PULSE = workloads.with_values(workloads.bundled_text("pulse_n9"), duration=10.0)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Real output of one short run per model, written once."""
    base = tmp_path_factory.mktemp("runs")
    out = {}
    for name, text in [("crowd", CROWD), ("join_leave", JOIN_LEAVE),
                       ("reference", REFERENCE), ("pulse", PULSE)]:
        result = runner.run_config(config.parse_config(text), name=name, out_dir=str(base))
        out[name] = (text, result.fire_log, result.summary, base / name)
    return out


@pytest.fixture
def copy(runs, tmp_path):
    """A fresh copy of one run's output that a test may corrupt."""
    def make(name):
        text, fire_log, summary, src = runs[name]
        dst = tmp_path / name
        shutil.copytree(src, dst)
        return text, list(fire_log), json.loads(json.dumps(summary)), dst
    return make


def set_cell(path, row, column, value):
    """Overwrite one cell of a trace CSV (row 0 is the first data row)."""
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = value(cells[col]) if callable(value) else value
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def nudge(rel):
    return lambda cell: repr(float(cell) * (1.0 + rel) + rel)


def check(text, fire_log, summary, run_dir, full_length=False):
    return checks.check_run(run_dir, text, fire_log, summary, full_length)


@pytest.mark.parametrize("name", ["crowd", "join_leave", "reference", "pulse"])
def test_real_output_passes(runs, name):
    text, fire_log, summary, run_dir = runs[name]
    assert check(text, fire_log, summary, run_dir) == []


def test_crowd_has_collisions_to_recount(runs):
    assert runs["crowd"][2]["medium"]["collisions"] > 10


@pytest.mark.parametrize("column", ["order_param", "max_pair_diff", "am", "gm", "min", "max"])
def test_corrupted_metric_column_is_caught(copy, column):
    text, fire_log, summary, run_dir = copy("crowd")
    set_cell(run_dir / "metrics.csv", 7, column, nudge(1e-6))
    assert any(p.startswith(column) for p in check(text, fire_log, summary, run_dir))


def test_corrupted_collision_count_is_caught(copy):
    text, fire_log, summary, run_dir = copy("crowd")
    set_cell(run_dir / "metrics.csv", 20, "collisions_cum", lambda c: str(int(c) + 1))
    assert any(p.startswith("collisions_cum") for p in check(text, fire_log, summary, run_dir))


def test_corrupted_phase_is_caught(copy):
    text, fire_log, summary, run_dir = copy("pulse")
    set_cell(run_dir / "phases.csv", 50, "theta", nudge(1e-3))
    assert check(text, fire_log, summary, run_dir) != []


def test_corrupted_position_is_caught(copy):
    text, fire_log, summary, run_dir = copy("crowd")
    set_cell(run_dir / "positions.csv", 100, "x", nudge(1e-4))
    assert check(text, fire_log, summary, run_dir) != []


def test_corrupted_reference_velocity_is_caught(copy):
    text, fire_log, summary, run_dir = copy("reference")
    set_cell(run_dir / "positions.csv", 333, "vy", nudge(1e-5))
    assert any(p.startswith("velocity field") for p in check(text, fire_log, summary, run_dir))


def test_moved_pulse_in_fire_log_is_caught(copy):
    text, fire_log, summary, run_dir = copy("crowd")
    lone = next(i for i in range(1, len(fire_log) - 1)
                if fire_log[i + 1][0] - fire_log[i][0] > 0.01
                and fire_log[i][0] - fire_log[i - 1][0] > 0.01)
    t, sender = fire_log[lone]
    fire_log[lone] = (fire_log[lone - 1][0] + 0.001, sender)   # now overlaps its neighbour
    problems = check(text, fire_log, summary, run_dir)
    assert any(p.startswith("collisions:") for p in problems)


def test_lost_pulse_in_fire_log_is_caught(copy):
    text, fire_log, summary, run_dir = copy("crowd")
    del fire_log[len(fire_log) // 2]
    assert any(p.startswith("medium: sent") for p in check(text, fire_log, summary, run_dir))


def test_unbalanced_medium_accounting_is_caught(copy):
    text, fire_log, summary, run_dir = copy("crowd")
    summary["medium"]["delivered"] += 1
    assert any("delivered" in p for p in check(text, fire_log, summary, run_dir))


def test_velocity_over_speed_cap_is_caught(copy):
    text, fire_log, summary, run_dir = copy("crowd")
    set_cell(run_dir / "positions.csv", 200, "vx", "0.31")
    assert any(p.startswith("speed cap") for p in check(text, fire_log, summary, run_dir))


def test_missing_agent_row_is_caught(copy):
    text, fire_log, summary, run_dir = copy("join_leave")
    for name in ("phases.csv", "positions.csv"):
        lines = (run_dir / name).read_text().splitlines(keepends=True)
        del lines[-1]
        (run_dir / name).write_text("".join(lines))
    assert any(p.startswith("agents per sample") for p in check(text, fire_log, summary, run_dir))


def test_agent_counts_follow_events(runs):
    text, _, _, run_dir = runs["join_leave"]
    phases = checks.read_csv(run_dir / "phases.csv")
    starts, counts = checks._samples(phases["t"])
    t = phases["t"][starts]
    assert set(counts[t < 1.0]) == {5}
    assert set(counts[(t >= 1.0) & (t < 2.5)]) == {6}
    assert set(counts[t >= 2.5]) == {5}
    moved = workloads.with_values(text, scenario__events="2.0 spawn 1.2 0.0")
    cfg = checks.read_config(moved)
    assert checks.check_agent_counts(cfg, phases, checks.read_csv(run_dir / "positions.csv"))


def test_static_sync_endpoint(copy):
    text, fire_log, summary, run_dir = copy("reference")
    cfg = checks.read_config(text)
    positions = checks.read_csv(run_dir / "positions.csv")
    metrics = checks.read_csv(run_dir / "metrics.csv")
    # 2 s in, the swarm has neither synchronised nor stopped.
    problems = checks.check_static_sync(cfg, positions, metrics)
    assert any("final R" in p for p in problems)
    assert any("final max speed" in p for p in problems)
    metrics["order_param"][-1] = 1.0
    positions["vx"][:] = positions["vy"][:] = 0.0
    assert checks.check_static_sync(cfg, positions, metrics) == []
    metrics["min"][-1] = 0.0
    assert checks.check_static_sync(cfg, positions, metrics) != []


def test_collision_sweep_matches_pairwise_count():
    rng = np.random.default_rng(0)
    airtime = 0.005
    for _ in range(20):
        sent = np.sort(rng.uniform(0.0, 0.2, 40))
        sent[5] = sent[4]                       # same start, no airtime needed
        sent[10] = sent[9] + airtime            # touching ends do not overlap
        log = [(float(s), i) for i, s in enumerate(rng.permutation(sent))]
        s = np.array([x for x, _ in log])
        lo, hi = np.minimum.outer(s, s), np.maximum.outer(s, s)
        overlap = (hi < lo + airtime) | (s[:, None] == s[None, :])
        np.fill_diagonal(overlap, False)
        assert checks.count_collisions(log, airtime) == int(overlap.any(axis=1).sum())
        for t in (0.05, 0.1, 0.15):
            early = s <= t
            want = int((overlap[np.ix_(early, early)]).any(axis=1).sum())
            assert checks._collided(log, airtime)(np.array([t]))[0] == want


def test_changed_byte_changes_digest(copy):
    _, _, _, run_dir = copy("pulse")
    before = checks.digests(run_dir)
    set_cell(run_dir / "phases.csv", 0, "agent_id", "0")
    assert checks.digests(run_dir) == before
    set_cell(run_dir / "phases.csv", 0, "theta", nudge(1e-9))
    assert checks.digests(run_dir)["phases.csv"] != before["phases.csv"]
