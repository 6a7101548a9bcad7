"""Broadcast medium: delivery order, interference, conservation."""

import numpy as np
import pytest

from swarmpulse import drone
from swarmpulse.engine import DroneSwarmEngine
from swarmpulse.geometry import seeded_rng, vec
from swarmpulse.medium import BroadcastMedium, PulseMessage


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
        heard = []
        receive = drone.on_pulse_received
        monkeypatch.setattr(drone, "on_pulse_received",
                            lambda d, p, *a: heard.append((d.id, p)) or receive(d, p, *a))
        eng = DroneSwarmEngine(params=drone.DroneParams(), medium=medium(),
                               rng=seeded_rng(5))
        for i in range(5):
            eng.add_drone(vec(float(i), 0.0))
        eng.run(3.0)
        assert eng.medium.stats.delivered > 0
        assert len(heard) == 4 * eng.medium.stats.delivered
        assert all(rid != p.sender for rid, p in heard)


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
