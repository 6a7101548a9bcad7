"""Broadcast medium: delivery order, interference, conservation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmpulse import drone
from swarmpulse.engine import DroneSwarmEngine
from swarmpulse.geometry import seeded_rng, vec
from swarmpulse.medium import COLLISION_POLICIES, BroadcastMedium, PulseMessage

from helpers import hearers


def msg(sender, sent_at, theta=0.0):
    return PulseMessage(sender=sender, pos=vec(0.0, 0.0), theta=theta, sent_at=sent_at)


def medium(airtime=0.005, policy="drop_all"):
    return BroadcastMedium(airtime=airtime, collision_policy=policy)


class TestDelivery:
    def test_single_message_reaches_everyone_else(self):
        m = medium()
        sent = msg(0, 0.1)
        m.broadcast(sent)
        assert m.poll_deliveries(0.2) == [sent]
        assert m.stats.delivered == 1

    def test_empty_queue_polls_empty(self):
        m = medium()
        assert m.poll_deliveries(1.0) == []

    def test_not_due_yet(self):
        m = medium()
        m.broadcast(msg(0, 0.1))
        assert m.poll_deliveries(0.1) == []
        assert m.in_flight() == 1

    def test_delivery_order_by_time_then_sender(self):
        m = medium(airtime=0.0)
        m.broadcast(msg(2, 0.2))
        m.broadcast(msg(1, 0.1))
        m.broadcast(msg(3, 0.2))
        # equal send times collide at airtime 0; use distinct ones
        m2 = medium(airtime=0.0)
        m2.broadcast(msg(2, 0.3))
        m2.broadcast(msg(1, 0.1))
        m2.broadcast(msg(3, 0.2))
        out = m2.poll_deliveries(1.0)
        assert [d.sender for d in out] == [1, 3, 2]

    def test_sender_never_receives_own_pulse(self, monkeypatch):
        # The engine hands each surviving pulse to every living drone
        # except its sender.
        heard = hearers(monkeypatch)
        eng = DroneSwarmEngine(params=drone.DroneParams(), medium=medium(),
                               rng=seeded_rng(5))
        for i in range(5):
            eng.add_drone(vec(float(i), 0.0))
        eng.run(3.0)
        assert eng.medium.stats.delivered > 0
        assert len(heard) == 4 * eng.medium.stats.delivered
        assert all(rid != sender for rid, sender in heard)


class TestCollisions:
    def test_disjoint_intervals_both_deliver(self):
        m = medium()
        m.broadcast(msg(0, 0.0))
        m.broadcast(msg(1, 0.0051))
        out = m.poll_deliveries(1.0)
        assert len(out) == 2
        assert m.stats.collisions == 0

    def test_touching_intervals_do_not_collide(self):
        m = medium()
        m.broadcast(msg(0, 0.0))
        m.broadcast(msg(1, 0.005))
        assert m.stats.collisions == 0

    def test_overlap_drops_both(self):
        m = medium()
        m.broadcast(msg(0, 0.0))
        m.broadcast(msg(1, 0.0049))
        out = m.poll_deliveries(1.0)
        assert out == []
        assert m.stats.collisions == 2
        assert m.stats.dropped == 2

    def test_third_overlapper_counted_once(self):
        m = medium()
        m.broadcast(msg(0, 0.0))
        m.broadcast(msg(1, 0.001))
        m.broadcast(msg(2, 0.002))
        assert m.stats.collisions == 3

    def test_airtime_zero_only_equal_times_collide(self):
        m = medium(airtime=0.0)
        m.broadcast(msg(0, 0.1))
        m.broadcast(msg(1, 0.1))
        m.broadcast(msg(2, 0.2))
        out = m.poll_deliveries(1.0)
        assert [d.sender for d in out] == [2]
        assert m.stats.collisions == 2

    def test_deliver_all_ignores_interference_for_delivery(self):
        m = medium(policy="deliver_all")
        m.broadcast(msg(0, 0.0))
        m.broadcast(msg(1, 0.001))
        out = m.poll_deliveries(1.0)
        assert len(out) == 2
        assert m.stats.collisions == 2  # still counted
        assert m.stats.dropped == 0

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            BroadcastMedium(collision_policy="capture")


class TestConservation:
    def test_sent_equals_delivered_plus_dropped_plus_in_flight(self):
        rng = np.random.default_rng(7)
        m = medium()
        t = 0.0
        for _ in range(300):
            t += float(rng.uniform(0.0005, 0.01))
            sender = int(rng.integers(0, 6))
            m.broadcast(msg(sender, t))
            if rng.random() < 0.3:
                m.poll_deliveries(t)
        s = m.stats
        assert s.sent == 300
        assert s.sent == s.delivered + s.dropped + m.in_flight()

    def test_poll_before_last_poll_rejected(self):
        m = medium()
        m.poll_deliveries(1.0)
        with pytest.raises(ValueError):
            m.poll_deliveries(0.5)

    def test_stale_broadcast_rejected(self):
        m = medium()
        m.poll_deliveries(1.0)
        with pytest.raises(ValueError):
            m.broadcast(msg(0, 0.5))


class FullScanMedium(BroadcastMedium):
    """The medium with a poll that scans the whole queue every time."""

    def poll_deliveries(self, now):
        if now < self._last_poll:
            raise ValueError(f"poll at t={now} is before t={self._last_poll}")
        self._last_poll = now
        due = [e for e in self._queue if e.delivery_time <= now]
        self._queue = [e for e in self._queue if e.delivery_time > now]
        due.sort(key=lambda e: (e.delivery_time, e.msg.sender))
        drop = self.collision_policy == "drop_all"
        out = [e.msg for e in due if not (drop and e.collided)]
        self.stats.dropped += len(due) - len(out)
        self.stats.delivered += len(out)
        return out


steps = st.sampled_from([0.0, 0.001, 0.0025, 0.005, 0.0125, 0.05])
operations = st.lists(
    st.one_of(
        st.tuples(st.just("broadcast"), steps, st.integers(0, 5)),
        st.tuples(st.just("poll"), steps, st.just(0)),
        st.tuples(st.just("poll_back"), st.sampled_from([0.001, 0.01]), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.0, 0.005, 0.01]), st.sampled_from(COLLISION_POLICIES), operations)
# Left in flight after a poll: a pulse sent later, ahead of one due sooner.
@example(0.0, "drop_all", [("broadcast", 0.001, 0), ("broadcast", 0.05, 1),
                           ("broadcast", 0.0125, 2), ("poll", 0.005, 0), ("poll", 0.0125, 0)])
def test_poll_matches_full_scan(airtime, policy, ops):
    lean = BroadcastMedium(airtime=airtime, collision_policy=policy)
    full = FullScanMedium(airtime=airtime, collision_policy=policy)
    t = 0.0
    for kind, step, sender in ops:
        if kind == "poll_back":
            for m in (lean, full):
                with pytest.raises(ValueError):
                    m.poll_deliveries(m._last_poll - step)
            continue
        if kind == "broadcast":
            # Sends after the last poll, not always after the last send,
            # as the engine's pulses within one tick are.
            pulse = msg(sender, t + step)
            lean.broadcast(pulse)
            full.broadcast(pulse)
        else:
            t += step
            assert same_pulses(lean.poll_deliveries(t), full.poll_deliveries(t))
        assert lean.stats == full.stats
        assert lean.in_flight() == full.in_flight()
    t += 1.0
    assert same_pulses(lean.poll_deliveries(t), full.poll_deliveries(t))
    assert lean.stats == full.stats and lean.in_flight() == full.in_flight() == 0


def same_pulses(a, b):
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))
