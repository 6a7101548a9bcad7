"""Observables: synchrony, spacing, rainbow correlation, formation, gaps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmpulse.geometry import TAU, circ_diff, seeded_rng
from swarmpulse.metrics import (
    broadcast_spacing_stats,
    formation_error,
    max_pair_diff,
    mean_phase,
    order_parameter,
    pairwise_spacing,
    rainbow_correlation,
)


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
        s = pairwise_spacing(pos, t=1.5)
        gm = 0.0 if np.any(d == 0.0) else float(np.exp(np.mean(np.log(d))))
        assert (s.t, s.am, s.gm, s.min, s.max) == (
            1.5, float(np.mean(d)), gm, float(np.min(d)), float(np.max(d))
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
        with pytest.raises(ValueError):
            broadcast_spacing_stats([[1.0]])


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
