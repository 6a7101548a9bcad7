"""Simulated pulsed broadcast medium.

Agents communicate only by broadcasting short pulses. Every pulse
occupies the channel for `airtime` seconds; two pulses whose airtime
intervals overlap interfere and are both marked collided. Under the
default drop_all policy collided pulses are lost for everyone; the
deliver_all policy ignores interference and exists only to run
no-interference ablations.

The medium is a channel only: it does not know who is listening.
There is no propagation delay and no range limit, and the engine hands
each surviving pulse to its living agents.

The medium is owned by the simulation engine and advanced on a single
logical timeline, so delivery order (delivery_time, then sender id) is
globally consistent and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

COLLISION_POLICIES = ("drop_all", "deliver_all")


@dataclass(frozen=True)
class PulseMessage:
    """The only datum agents ever exchange.

    The broadcast-staggering phase is private to each agent and is not
    part of the payload; `hidden` stays None except in the explicit
    payload-ablation mode of the drone engine.
    """

    sender: int
    pos: tuple[float, float]   # sender's position when it fired
    theta: float
    sent_at: float
    hidden: float | None = None


@dataclass
class _InFlight:
    msg: PulseMessage
    delivery_time: float
    collided: bool = False


@dataclass
class MediumStats:
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    collisions: int = 0  # messages ever marked collided


@dataclass
class BroadcastMedium:
    """Single-channel broadcast with interval-overlap interference."""

    airtime: float = 0.005
    collision_policy: str = "drop_all"
    _queue: list[_InFlight] = field(default_factory=list)
    _last_poll: float = 0.0
    stats: MediumStats = field(default_factory=MediumStats)

    def __post_init__(self) -> None:
        if self.airtime < 0.0:
            raise ValueError(f"airtime must be >= 0, got {self.airtime}")
        if self.collision_policy not in COLLISION_POLICIES:
            raise ValueError(
                f"unknown collision policy {self.collision_policy!r} "
                f"(expected one of {COLLISION_POLICIES})"
            )

    def broadcast(self, msg: PulseMessage) -> None:
        """Enqueue a pulse; mark interference with anything in flight.

        Two pulses interfere when their airtime intervals overlap with
        positive measure, or start at exactly the same instant (the only
        way to collide when airtime is zero).
        """
        if msg.sent_at < self._last_poll:
            raise ValueError(
                f"broadcast at t={msg.sent_at} is before the last poll "
                f"at t={self._last_poll}"
            )
        entry = _InFlight(msg, msg.sent_at + self.airtime)
        s1, e1 = msg.sent_at, entry.delivery_time
        for other in self._queue:
            s2, e2 = other.msg.sent_at, other.delivery_time
            if max(s1, s2) < min(e1, e2) or s1 == s2:
                if not entry.collided:
                    entry.collided = True
                    self.stats.collisions += 1
                if not other.collided:
                    other.collided = True
                    self.stats.collisions += 1
        self._queue.append(entry)
        self.stats.sent += 1

    def poll_deliveries(self, now: float) -> list[PulseMessage]:
        """Drain every pulse due by `now`; return the survivors in
        delivery order (delivery time, then sender id).

        Collided pulses are dropped (and counted) under drop_all, or
        passed through under deliver_all. A surviving pulse counts as
        delivered whether or not anyone hears it.
        """
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

    def in_flight(self) -> int:
        return len(self._queue)
