"""Continuous swarmalator oracle: forces, phases, symmetries."""

import math

import numpy as np
import pytest

from swarmpulse import metrics
from swarmpulse.geometry import TAU, seeded_rng
from swarmpulse.reference import (
    SwarmParams,
    assign_frequencies,
    init_state,
    run_reference,
    step_phases,
    step_positions,
    velocities,
)

PARAMS = SwarmParams(n=2, k=0.7, j=0.8, a=1.0, b=3.0)


class TestSpatialStep:
    def test_equilibrium_distance_zero_velocity(self):
        # Attraction (A + J) balances repulsion B/d at d = B/(A+J) = 5/3.
        d_star = PARAMS.b / (PARAMS.a + PARAMS.j)
        assert d_star == pytest.approx(5.0 / 3.0)
        pos = np.array([[0.0, 0.0], [d_star, 0.0]])
        theta = np.zeros(2)
        v = velocities(pos, theta, PARAMS)
        assert np.max(np.abs(v)) < 1e-12

    def test_closer_than_equilibrium_repels(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        theta = np.zeros(2)
        v = velocities(pos, theta, PARAMS)
        assert v[0, 0] < 0.0 and v[1, 0] > 0.0

    def test_farther_than_equilibrium_attracts(self):
        pos = np.array([[0.0, 0.0], [3.0, 0.0]])
        theta = np.zeros(2)
        v = velocities(pos, theta, PARAMS)
        assert v[0, 0] > 0.0 and v[1, 0] < 0.0

    def test_no_phase_influence_when_j_zero(self):
        p = SwarmParams(n=3, k=0.5, j=0.0, a=1.0, b=2.0)
        rng = seeded_rng(0)
        pos = rng.uniform(-1, 1, (3, 2))
        v1 = velocities(pos, np.array([0.0, 1.0, 4.0]), p)
        v2 = velocities(pos, np.array([2.0, 3.0, 0.5]), p)
        assert np.allclose(v1, v2)

    def test_two_agent_symmetric_motion_stays_on_line(self):
        pos = np.array([[-1.3, 0.0], [1.3, 0.0]])
        theta = np.array([0.7, 0.7])
        for _ in range(500):
            pos, _ = step_positions(pos, theta, PARAMS, 0.01)
        assert np.allclose(pos[:, 1], 0.0, atol=1e-12)
        assert pos[0, 0] == pytest.approx(-pos[1, 0], abs=1e-9)


class TestPhaseStep:
    def test_synced_phases_stay_synced(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        theta = np.array([1.2, 1.2])
        omega = np.zeros(2)
        out = step_phases(pos, theta, omega, PARAMS, 0.01)
        assert out[0] == out[1]

    def test_antipodal_drift_is_natural_frequency_only(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        theta = np.array([0.0, math.pi])
        omega = np.array([0.5, 0.5])
        out = step_phases(pos, theta, omega, PARAMS, 0.01)
        assert out[0] == pytest.approx(0.5 * 0.01, abs=1e-15)
        assert out[1] == pytest.approx(math.pi + 0.5 * 0.01, abs=1e-12)

    def test_quarter_gap_coupling_gain(self):
        # At distance 1 and gap pi/2 the lagging agent gains K/N*dt.
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        theta = np.array([0.0, math.pi / 2])
        omega = np.zeros(2)
        dt = 0.01
        out = step_phases(pos, theta, omega, PARAMS, dt)
        assert out[0] == pytest.approx((PARAMS.k / 2) * dt, rel=1e-12)


class TestFrequencies:
    def test_zero_variation_uniform(self):
        omega = assign_frequencies(10, 1.5, 0.0, seeded_rng(0))
        assert np.all(omega == 1.5)

    def test_bounded_spread(self):
        omega = assign_frequencies(1000, 2.0, 0.1, seeded_rng(1))
        assert np.all(omega >= 1.9) and np.all(omega <= 2.1)

    def test_sample_mean_matches_uniform_statistics(self):
        n = 10_000
        fv = 0.1
        omega = assign_frequencies(n, 2.0, fv, seeded_rng(2))
        tol = 3.0 * fv / math.sqrt(3.0 * n)
        assert abs(float(np.mean(omega)) - 2.0) < tol


class TestSymmetries:
    def _short_run(self, state, seed=0, steps=200):
        p = SwarmParams(n=5, k=0.7, j=0.8, a=1.0, b=3.0)
        pos, theta, omega = state
        for _ in range(steps):
            new_pos, _ = step_positions(pos, theta, p, 0.01)
            theta = step_phases(pos, theta, omega, p, 0.01)
            pos = new_pos
        return pos, theta

    def _initial(self, seed=0):
        p = SwarmParams(n=5, k=0.7, j=0.8, a=1.0, b=3.0)
        return init_state(p, seeded_rng(seed))

    def test_translation_invariance(self):
        pos, theta, omega = self._initial()
        shift = np.array([3.7, -1.2])
        base_pos, base_theta = self._short_run((pos.copy(), theta.copy(), omega))
        moved_pos, moved_theta = self._short_run((pos + shift, theta.copy(), omega))
        assert np.allclose(moved_pos, base_pos + shift, atol=1e-9)
        assert np.allclose(moved_theta, base_theta, atol=1e-9)

    def test_rotation_equivariance(self):
        pos, theta, omega = self._initial()
        phi = 0.9
        R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        base_pos, base_theta = self._short_run((pos.copy(), theta.copy(), omega))
        rot_pos, rot_theta = self._short_run((pos @ R.T, theta.copy(), omega))
        assert np.allclose(rot_pos, base_pos @ R.T, atol=1e-9)
        assert np.allclose(rot_theta, base_theta, atol=1e-9)

    def test_global_phase_shift_invariance(self):
        pos, theta, omega = self._initial()
        c = 1.1
        base_pos, base_theta = self._short_run((pos.copy(), theta.copy(), omega))
        shifted_pos, shifted_theta = self._short_run((pos.copy(), theta + c, omega))
        assert np.allclose(shifted_pos, base_pos, atol=1e-9)
        diff = np.mod(shifted_theta - base_theta - c, TAU)
        diff = np.minimum(diff, TAU - diff)
        assert np.allclose(diff, 0.0, atol=1e-9)

    def test_centre_of_mass_static(self):
        p = SwarmParams(n=20, k=0.7, j=0.8, a=1.0, b=3.0)
        pos, theta, omega = init_state(p, seeded_rng(3))
        com0 = pos.mean(axis=0)
        for _ in range(1000):
            new_pos, _ = step_positions(pos, theta, p, 0.01)
            theta = step_phases(pos, theta, omega, p, 0.01)
            pos = new_pos
        assert np.linalg.norm(pos.mean(axis=0) - com0) < 1e-9

    def test_positive_coupling_raises_order_parameter(self):
        p = SwarmParams(n=10, k=0.7, j=0.8, a=1.0, b=3.0)
        for seed in range(20):
            trace = run_reference(p, 30.0, 0.01, seeded_rng(seed), trace_every=3000)
            r0 = metrics.order_parameter(trace.thetas[0])
            r1 = metrics.order_parameter(trace.thetas[-1])
            assert r1 > r0


class TestRunReference:
    def test_deterministic_given_seed(self):
        p = SwarmParams(n=6, k=0.7, j=0.8, a=1.0, b=3.0)
        a = run_reference(p, 2.0, 0.01, seeded_rng(9))
        b = run_reference(p, 2.0, 0.01, seeded_rng(9))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.thetas, b.thetas)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SwarmParams(n=1, k=0.1, j=0.1)
        with pytest.raises(ValueError):
            SwarmParams(n=3, k=0.1, j=0.1, a=-1.0)
        with pytest.warns(UserWarning):
            SwarmParams(n=3, k=0.1, j=2.0, a=1.0)

    @pytest.mark.parametrize("coincident", [False, True])
    def test_recorded_velocity_is_the_one_integrated(self, coincident):
        p = SwarmParams(n=5, k=0.7, j=0.8, a=1.0, b=3.0)
        pos, theta, omega = init_state(p, seeded_rng(4))
        if coincident:
            pos[3] = pos[1]
        dt = 0.01
        trace = run_reference(p, 0.5, dt, seeded_rng(5), trace_every=1, state=(pos, theta, omega))
        assert len(trace.times) == 51
        assert np.all(np.isfinite(trace.velocities))
        for k in range(len(trace.times) - 1):
            assert np.array_equal(
                trace.positions[k + 1], trace.positions[k] + trace.velocities[k] * dt
            )

    def test_coincident_agents_use_rng_fallback(self):
        p = SwarmParams(n=2, k=0.0, j=0.0, a=1.0, b=1.0)
        pos = np.zeros((2, 2))
        theta = np.zeros(2)
        v = velocities(pos, theta, p, rng=seeded_rng(0))
        assert np.all(np.isfinite(v))
        assert np.linalg.norm(v[0]) > 0.0
        with pytest.raises(ValueError):
            velocities(pos, theta, p, rng=None)
