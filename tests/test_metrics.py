"""Observables: synchrony, spacing, rainbow correlation, formation, gaps."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmpulse import metrics, runner
from swarmpulse.config import parse_config
from swarmpulse.geometry import TAU, seeded_rng
from swarmpulse.metrics import (
    CHUNK_PAIRS,
    broadcast_spacing_stats,
    max_pair_diff,
    order_parameter,
    pairwise_spacing,
    rainbow_correlation,
    sample_metrics,
)
from swarmpulse.scenarios import scenario_text

from helpers import circ_diff, formation_error, mean_phase


def regular_polygon(n, radius=1.0, phase=0.0, centre=(0.0, 0.0)):
    return np.array(
        [
            [
                centre[0] + radius * math.cos(phase + TAU * k / n),
                centre[1] + radius * math.sin(phase + TAU * k / n),
            ]
            for k in range(n)
        ]
    )


class TestOrderParameter:
    def test_all_equal_is_one(self):
        assert order_parameter([1.3] * 7) == pytest.approx(1.0)

    def test_antipodal_pair_is_zero(self):
        assert order_parameter([0.0, math.pi]) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_gap(self):
        assert order_parameter([0.0, math.pi / 2]) == pytest.approx(math.sqrt(2) / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            order_parameter([])

    def test_invariant_under_global_shift(self):
        rng = seeded_rng(0)
        thetas = rng.uniform(0, TAU, 9)
        assert order_parameter(thetas + 2.2) == pytest.approx(
            order_parameter(thetas), abs=1e-12
        )

    def test_mean_phase_of_cluster(self):
        assert mean_phase([0.5, 0.5, 0.5]) == pytest.approx(0.5)


class TestPairwiseSpacing:
    def test_two_points(self):
        s = pairwise_spacing(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert s.am == s.gm == s.min == s.max == 1.0

    def test_unit_square(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        s = pairwise_spacing(square)
        assert s.am == pytest.approx((4.0 + 2.0 * math.sqrt(2)) / 6.0)
        assert s.min == pytest.approx(1.0)
        assert s.max == pytest.approx(math.sqrt(2))

    def test_am_gm_ordering(self):
        rng = seeded_rng(1)
        for _ in range(50):
            pts = rng.uniform(-3, 3, (6, 2))
            s = pairwise_spacing(pts)
            assert s.min <= s.gm <= s.am <= s.max

    def test_rigid_motion_invariance(self):
        rng = seeded_rng(2)
        pts = rng.uniform(-1, 1, (5, 2))
        c, si = math.cos(0.7), math.sin(0.7)
        moved = pts @ np.array([[c, -si], [si, c]]).T + np.array([4.0, -2.0])
        a, b = pairwise_spacing(pts), pairwise_spacing(moved)
        assert a.am == pytest.approx(b.am)
        assert a.gm == pytest.approx(b.gm)

    def test_single_agent_rejected(self):
        with pytest.raises(ValueError):
            pairwise_spacing(np.array([[0.0, 0.0]]))


@st.composite
def swarms(draw):
    """N in [2, 80] agents: positions at one scale in [1e-3, 1e3] about a
    random centre, phases anywhere on the circle."""
    n = draw(st.integers(2, 80))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)))
    centre = rng.uniform(-1e3, 1e3, 2)
    return centre + scale * rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(0.0, TAU, n)


class TestPairObservablesMatchLoop:
    """The array forms equal, bit for bit, the pair-by-pair loop over i < j."""

    @settings(max_examples=60, deadline=None)
    @given(swarms())
    def test_pairwise_spacing(self, swarm):
        pos, _ = swarm
        n = len(pos)
        d = np.array([
            float(np.linalg.norm(pos[j] - pos[i])) for i in range(n) for j in range(i + 1, n)
        ])
        s = pairwise_spacing(pos)
        gm = 0.0 if np.any(d == 0.0) else float(np.exp(np.mean(np.log(d))))
        assert (s.am, s.gm, s.min, s.max) == (
            float(np.mean(d)), gm, float(np.min(d)), float(np.max(d))
        )

    @settings(max_examples=60, deadline=None)
    @given(swarms())
    def test_max_pair_diff(self, swarm):
        _, thetas = swarm
        thetas = thetas.tolist()
        n = len(thetas)
        worst = max(abs(circ_diff(thetas[i], thetas[j])) for i in range(n) for j in range(i + 1, n))
        got = max_pair_diff(thetas)
        assert type(got) is float and got == worst

    def test_max_pair_diff_of_fewer_than_two_is_zero(self):
        assert max_pair_diff([]) == 0.0
        assert max_pair_diff([2.0]) == 0.0


def per_sample(theta, pos):
    """One sample's observables by the per-sample formulas the runner
    used before the batched kernel: order_param, max_pair_diff, am, gm,
    min, max (NaN spacing below two agents)."""
    thetas = np.asarray(theta, dtype=np.float64)
    order = float(abs(np.mean(np.exp(1j * thetas))))
    diff = 0.0
    if thetas.size >= 2:
        i, j = np.triu_indices(thetas.size, k=1)
        d = np.mod(thetas[i] - thetas[j], TAU)
        diff = float(np.minimum(d, TAU - d).max())
    spacing = [math.nan] * 4
    if len(pos) >= 2:
        i, j = np.triu_indices(len(pos), k=1)
        offsets = pos[j] - pos[i]
        dist = np.sqrt(np.vecdot(offsets, offsets))
        gm = 0.0 if np.any(dist == 0.0) else float(np.exp(np.mean(np.log(dist))))
        spacing = [float(np.mean(dist)), gm, float(np.min(dist)), float(np.max(dist))]
    return [order, diff, *spacing]


@st.composite
def runs(draw):
    """A run's columns: ragged agent counts in [1, 80] as runs of equal
    counts (a spawn or despawn starts a new run, and a count may come
    back), flat phases in radians or as the pulse model's unit phases,
    and flat positions at one scale, with the first two agents of some
    samples coincident."""
    counts = []
    for n, repeat in draw(st.lists(st.tuples(st.integers(1, 80), st.integers(1, 40)),
                                   min_size=1, max_size=6)):
        counts += [n] * repeat
    rows = sum(counts)
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)))
    unit_phases = draw(st.booleans())
    theta = rng.uniform(0.0, 1.0, rows) if unit_phases else rng.uniform(-TAU, 2 * TAU, rows)
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    pos = rng.uniform(-1e3, 1e3, 2) + scale * rng.uniform(-1.0, 1.0, (rows, 2))
    starts = np.cumsum(counts) - counts
    for k in draw(st.lists(st.integers(0, len(counts) - 1), max_size=3)):
        if counts[k] >= 2:
            pos[starts[k] + 1] = pos[starts[k]]
    return counts, theta, unit_phases, pos


class TestSampleMetrics:
    """The batched kernel over a run equals a loop of the per-sample formulas."""

    @settings(max_examples=40, deadline=None)
    @given(runs())
    def test_batched_equals_per_sample_bit_for_bit(self, run):
        counts, theta, unit_phases, pos = run
        scale = TAU if unit_phases else 1.0
        got = sample_metrics(counts, theta * scale, pos)
        keys = ["order_param", "max_pair_diff", "am", "gm", "min", "max"]
        start = 0
        for k, n in enumerate(counts):
            sample = theta[start:start + n].tolist()
            if unit_phases:  # the pulse model's unit phases, as the runner scaled them
                sample = [p * TAU for p in sample]
            want = np.array(per_sample(sample, pos[start:start + n]))
            have = np.array([got[key][k] for key in keys])
            assert have.tobytes() == want.tobytes(), (k, n, have, want)
            start += n

    def test_columns_follow_their_inputs(self):
        counts = [1, 3, 2]
        assert set(sample_metrics(counts, theta=np.zeros(6))) == {"order_param", "max_pair_diff"}
        assert set(sample_metrics(counts, pos=np.zeros((6, 2)))) == {"am", "gm", "min", "max"}
        spacing = sample_metrics(counts, pos=np.zeros((6, 2)))
        assert np.isnan(spacing["am"][0]) and spacing["gm"][1:].tolist() == [0.0, 0.0]

    def test_one_sample_calls_keep_their_types(self):
        assert type(order_parameter([0.5, 1.0])) is float
        assert type(max_pair_diff([0.5, 1.0])) is float
        s = pairwise_spacing(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert [type(v) for v in (s.am, s.gm, s.min, s.max)] == [float] * 4
        assert s.am == 5.0


# Written down before measuring: the kernel's outputs are six float64
# columns (48 bytes a sample) and its index arrays a few int64s a
# sample, so 100 bytes a sample covers everything that grows with the
# run. A block of CHUNK_PAIRS = 4096 pairs needs well under 1 MiB of
# temporaries (its pair offsets are 64 kB). A pass over a whole
# agent-count group at once would hold 15000 * 190 pair offsets, 43 MiB.
SAMPLE_BYTES_BAR = 100
BLOCK_BYTES_BAR = 2**20


def test_sample_metrics_memory_is_bounded_by_the_block():
    samples, n = 15_000, 20  # table1_static_sync: 300 s at 50 Hz
    rng = seeded_rng(0)
    theta = rng.uniform(0.0, TAU, samples * n)
    pos = rng.uniform(-1.0, 1.0, (samples * n, 2))
    tracemalloc.start()
    try:
        sample_metrics(np.full(samples, n), theta, pos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bar = SAMPLE_BYTES_BAR * samples + BLOCK_BYTES_BAR
    assert peak < bar, f"peak {peak / 2**20:.2f} MiB, bar {bar / 2**20:.2f} MiB"


SHORT_RUNS = {
    # five drones, one of them despawned at 1 s: two agent-count groups
    "dropout": scenario_text("dropout_mid").replace("30.0 despawn", "1.0 despawn")
    + "duration = 2.0\n",
    # twenty reference agents, 501 samples: many blocks in one group
    "reference": scenario_text("table1_static_sync") + "duration = 10.0\n",
    "pulse": scenario_text("pulse_n9") + "duration = 5.0\n",
}


@pytest.mark.parametrize("name", sorted(SHORT_RUNS))
def test_a_run_computes_its_observables_once_per_group_and_block(name, monkeypatch):
    blocks = []

    def spy(out, block, *args):
        blocks.append(block.size)
        return block_metrics(out, block, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("a per-sample observable was computed during the run")

    block_metrics = metrics._block_metrics
    monkeypatch.setattr(metrics, "_block_metrics", spy)
    for fn in ("order_parameter", "max_pair_diff", "pairwise_spacing"):
        monkeypatch.setattr(metrics, fn, refuse)
    result = runner.run_config(parse_config(SHORT_RUNS[name]), write=False)

    samples = len(result.metric_rows)
    groups = Counter(Counter(row[0] for row in result.phase_rows).values())
    expected = 0
    for n, count in groups.items():
        per_block = max(1, CHUNK_PAIRS // max(n * (n - 1) // 2, n))
        expected += -(-count // per_block)
    assert sum(blocks) == samples
    assert len(blocks) == expected < samples
    if name == "dropout":
        assert len(groups) == 2


class TestRainbowCorrelation:
    def test_perfect_dependence(self):
        pos = regular_polygon(12)
        angles = np.arctan2(pos[:, 1], pos[:, 0])
        rc = rainbow_correlation(pos, angles + 0.4)
        assert rc == pytest.approx(1.0, abs=1e-9)

    def test_perfect_reverse_dependence(self):
        pos = regular_polygon(12)
        angles = np.arctan2(pos[:, 1], pos[:, 0])
        rc = rainbow_correlation(pos, -angles)
        assert rc == pytest.approx(-1.0, abs=1e-9)

    def test_random_near_zero(self):
        rng = seeded_rng(3)
        pos = rng.uniform(-1, 1, (200, 2))
        thetas = rng.uniform(0, TAU, 200)
        rc = rainbow_correlation(pos, thetas)
        assert abs(rc) < 0.15

    def test_degenerate_phases_undefined(self):
        pos = regular_polygon(6)
        assert rainbow_correlation(pos, np.full(6, 1.0)) is None

    def test_degenerate_geometry_undefined(self):
        pos = np.array([[-1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        rng = seeded_rng(4)
        assert rainbow_correlation(pos, rng.uniform(0, TAU, 3)) is None

    def test_too_few_agents_rejected(self):
        with pytest.raises(ValueError):
            rainbow_correlation(np.zeros((2, 2)), [0.0, 1.0])


class TestBroadcastSpacing:
    def test_perfect_interleaving(self):
        period, n = 1.0, 5
        fires = [[k * period / n + r * period for r in range(10)] for k in range(n)]
        mean_gap, min_gap, jain = broadcast_spacing_stats(fires)
        assert mean_gap == pytest.approx(period / n)
        assert min_gap == pytest.approx(period / n)
        assert jain == pytest.approx(1.0)

    def test_simultaneous_fires_zero_min_gap(self):
        fires = [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]
        _, min_gap, _ = broadcast_spacing_stats(fires)
        assert min_gap == 0.0

    def test_uneven_gaps_lower_fairness(self):
        fires = [[0.0, 0.1, 1.0, 1.1, 2.0, 2.1]]
        _, _, jain = broadcast_spacing_stats(fires)
        assert jain < 0.7

    def test_needs_two_fires(self):
        for fires in ([], [[]], [[1.0]]):
            assert broadcast_spacing_stats(fires) == (None, None, None)


class TestFormationError:
    def test_exact_pentagon_any_pose(self):
        pos = regular_polygon(5, radius=0.7, phase=1.234, centre=(3.0, -2.0))
        assert formation_error(pos, "pentagon_ring") < 1e-9

    def test_exact_square(self):
        pos = regular_polygon(4, radius=1.1, phase=0.4)
        assert formation_error(pos, "square_ring") < 1e-9

    def test_perturbed_vertex_bounded(self):
        pos = regular_polygon(5)
        pos[2] += np.array([0.1, 0.0])
        err = formation_error(pos, "pentagon_ring")
        assert 0.0 < err < 0.1

    def test_quincunx_is_not_a_pentagon(self):
        quincunx = np.array(
            [[0.5, 0.5], [0.5, -0.5], [-0.5, 0.5], [-0.5, -0.5], [0.0, 0.0]]
        )
        assert formation_error(quincunx, "pentagon_ring") > 0.2

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            formation_error(regular_polygon(5), "square_ring")

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            formation_error(regular_polygon(5), "hexagon_ring")


class TestMaxPairDiff:
    def test_equal_phases(self):
        assert max_pair_diff([0.2, 0.2, 0.2]) == 0.0

    def test_wraparound_pair(self):
        assert max_pair_diff([0.1, TAU - 0.1]) == pytest.approx(0.2)

    def test_bounded_by_pi(self):
        rng = seeded_rng(5)
        for _ in range(20):
            thetas = rng.uniform(0, TAU, 8)
            assert 0.0 <= max_pair_diff(thetas) <= math.pi
