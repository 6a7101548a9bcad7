"""Pulse-coupled oscillator population: response curve, cascades, sync."""

import pytest

from swarmpulse.geometry import seeded_rng
from swarmpulse.pulse import PulsePopulation, receive_pulse

from helpers import min_spread_over, run_to_sync


class TestReceivePulse:
    def test_zero_phase_zero_coupling(self):
        assert receive_pulse(0.0, 0.0) == 0.0

    def test_hand_evaluated(self):
        assert receive_pulse(0.25, 0.1) == pytest.approx(0.36)

    def test_absorption_threshold(self):
        assert receive_pulse(0.81, 0.2) == pytest.approx(1.21)
        assert receive_pulse(0.81, 0.2) >= 1.0

    def test_monotone_response(self):
        for k in (0.0, 0.01, 0.1, 0.5):
            for i in range(200):
                theta = i / 200.0
                assert receive_pulse(theta, k) >= theta

    def test_order_preserved_under_simultaneous_receipt(self):
        for k in (0.01, 0.05, 0.2):
            grid = [i / 500.0 for i in range(500)]
            responses = [receive_pulse(t, k) for t in grid]
            for lo, hi in zip(responses, responses[1:]):
                assert lo < hi

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            receive_pulse(1.0, 0.1)
        with pytest.raises(ValueError):
            receive_pulse(0.5, -0.1)


class TestAdvance:
    def test_plain_advance_no_fire(self):
        pop = PulsePopulation([0.9], 0.0, rate=1.0)
        events = pop.advance(0.05)
        assert events == []
        assert pop.phases[0] == pytest.approx(0.95)

    def test_crossing_fires_and_wraps(self):
        pop = PulsePopulation([0.99], 0.0, rate=1.0)
        events = pop.advance(0.02)
        assert len(events) == 1
        time, osc_id = events[0]
        assert osc_id == 0
        assert time == pytest.approx(0.01)
        assert pop.phases[0] == pytest.approx(0.01)

    def test_uncoupled_offsets_constant(self):
        phases = [0.1, 0.35, 0.8]
        pop = PulsePopulation(list(phases), 0.0)
        initial = pop.spread()
        for _ in range(40):
            pop.advance(0.25)
            assert pop.spread() == pytest.approx(initial, abs=1e-12)

    def test_receiver_jump_applied_at_fire(self):
        # The firing oscillator resets; the other jumps by the response curve.
        pop = PulsePopulation([0.995, 0.25], 0.1, rate=1.0)
        events = pop.advance(0.01)
        assert [osc_id for _, osc_id in events] == [0]
        assert pop.phases[1] == pytest.approx(receive_pulse(0.25 + 0.005, 0.1) + 0.005, abs=1e-12)

    def test_absorption_cascade_fires_receiver_once(self):
        # Receiver at 0.81 with k=0.2 is carried past threshold and fires
        # in the same cascade; neither fires twice.
        pop = PulsePopulation([0.999, 0.81], 0.2, rate=1.0)
        events = pop.advance(0.001)
        assert [osc_id for _, osc_id in events] == [0, 1]
        assert all(0.0 <= p < 1.0 for p in pop.phases)

    def test_synchrony_is_absorbing(self):
        pop = PulsePopulation([0.4] * 5, 0.05)
        for _ in range(30):
            pop.advance(0.3)
            assert pop.spread() == 0.0

    def test_simultaneous_crossers_tie_by_id(self):
        pop = PulsePopulation([0.5, 0.5, 0.1], 0.0, rate=1.0)
        events = pop.advance(0.5)
        firing = [osc_id for _, osc_id in events]
        assert firing == [0, 1]


class TestRunToSync:
    def test_singleton_already_synced(self):
        pop = PulsePopulation([0.3], 0.05)
        assert run_to_sync(pop, 10.0, 0.01) == 0.0

    def test_nine_oscillators_converge(self):
        rng = seeded_rng(0)
        pop = PulsePopulation(list(rng.uniform(0.0, 1.0, 9)), 0.05)
        t = run_to_sync(pop, 100.0, 0.01)
        assert t is not None
        assert 0.0 < t < 100.0

    def test_uncoupled_times_out(self):
        pop = PulsePopulation([0.1, 0.6], 0.0)
        assert run_to_sync(pop, 20.0, 0.01) is None

    def test_regression_sync_rate(self):
        # Statistical regression: across couplings and seeds, nine
        # oscillators should almost always lock within 100 periods.
        couplings = (0.01, 0.03, 0.05, 0.08, 0.1)
        successes = 0
        total = 0
        for k in couplings:
            for seed in range(20):
                rng = seeded_rng(seed)
                pop = PulsePopulation(list(rng.uniform(0.0, 1.0, 9)), k)
                total += 1
                if run_to_sync(pop, 100.0, 0.01) is not None:
                    successes += 1
        assert successes >= 0.95 * total


class TestMinSpread:
    def test_uncoupled_floor_holds(self):
        rng = seeded_rng(0)
        pop = PulsePopulation(list(rng.uniform(0.0, 1.0, 9)), 0.0)
        initial = pop.spread()
        assert min_spread_over(pop, 100.0) >= initial - 1e-9
