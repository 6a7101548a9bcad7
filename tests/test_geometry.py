"""Circular arithmetic and the seeded RNG."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swarmpulse.geometry import (
    TAU,
    circ_diff,
    random_unit,
    seeded_rng,
    unit_phase_dist,
    wrap_angle,
    wrap_angle_array,
    wrap_unit_phase,
)

finite_angles = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestWrapAngle:
    def test_identity_at_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_wrap_point(self):
        assert wrap_angle(TAU) == 0.0

    def test_negative_quarter(self):
        assert wrap_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2, abs=1e-15)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                wrap_angle(bad)

    @given(finite_angles)
    def test_range_and_idempotence(self, x):
        w = wrap_angle(x)
        assert 0.0 <= w < TAU
        assert wrap_angle(w) == w

    @given(finite_angles)
    def test_congruent_mod_tau(self, x):
        w = wrap_angle(x)
        k = round((x - w) / TAU)
        assert x - w == pytest.approx(k * TAU, abs=1e-6)

    def test_array_variant_matches_scalar(self):
        xs = np.array([-7.0, -1e-17, 0.0, 1.0, TAU, 10.0])
        out = wrap_angle_array(xs)
        assert np.all(out >= 0.0) and np.all(out < TAU)
        for x, w in zip(xs, out):
            assert w == wrap_angle(float(x))


class TestCircDiff:
    def test_self_distance_zero(self):
        for theta in (0.0, 1.0, math.pi, 5.5):
            assert circ_diff(theta, theta) == 0.0

    def test_small_arc(self):
        assert circ_diff(math.pi / 2, 0.0) == pytest.approx(math.pi / 2)

    def test_wraparound(self):
        assert circ_diff(0.1, TAU - 0.1) == pytest.approx(0.2, abs=1e-12)

    def test_tie_at_pi_resolves_positive(self):
        assert circ_diff(math.pi, 0.0) == pytest.approx(math.pi)
        assert circ_diff(0.0, math.pi) == pytest.approx(math.pi)

    @given(finite_angles, finite_angles)
    def test_antisymmetry_off_the_tie(self, a, b):
        d = circ_diff(a, b)
        assert -math.pi < d <= math.pi
        if abs(abs(d) - math.pi) > 1e-9:
            assert circ_diff(b, a) == pytest.approx(-d, abs=1e-9)


class TestUnitPhase:
    def test_wrap(self):
        assert wrap_unit_phase(1.0) == 0.0
        assert wrap_unit_phase(-0.25) == pytest.approx(0.75)

    def test_distance_symmetric_and_bounded(self):
        assert unit_phase_dist(0.1, 0.9) == pytest.approx(0.2)
        assert unit_phase_dist(0.25, 0.75) == pytest.approx(0.5)
        assert unit_phase_dist(0.4, 0.4) == 0.0


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = seeded_rng(0).uniform(0.0, 1.0, 100)
        b = seeded_rng(0).uniform(0.0, 1.0, 100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = seeded_rng(0).uniform(0.0, 1.0, 100)
        b = seeded_rng(1).uniform(0.0, 1.0, 100)
        assert not np.array_equal(a, b)

    def test_uniform_angle_range(self):
        draws = seeded_rng(3).uniform(0.0, TAU, 10_000)
        assert np.all(draws >= 0.0) and np.all(draws < TAU)

    def test_random_unit_is_unit(self):
        rng = seeded_rng(4)
        for _ in range(50):
            assert math.hypot(*random_unit(rng)) == pytest.approx(1.0, abs=1e-12)
