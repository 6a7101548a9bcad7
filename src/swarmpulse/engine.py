"""Tick loop for the drone swarm.

One engine owns one timeline: the drones, the broadcast medium, the
scenario RNG, and the timed spawn/despawn events. Each tick covers
[t, t + dt] and always runs in the same order:

1. every living drone's clocks advance; hidden-phase wraps enqueue
   pulses on the medium at their exact crossing instants;
2. all pulses due by the end of the tick are delivered in medium order
   (delivery time, then sender id), each recipient updated in ascending
   id order;
3. every living drone integrates its held velocity over dt;
4. scenario events whose time has been reached take effect at the tick
   boundary.

Determinism is absolute: identical construction and dt yield identical
trajectories, fire logs, and collision counts. State is checked finite
every tick; a blow-up raises NumericBlowup naming the tick and agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import drone as drone_mod
from .drone import DroneParams, DroneState
from .geometry import NumericBlowup
from .medium import BroadcastMedium, PulseMessage
from .smoothing import IdentityFilter


class ScenarioEventError(ValueError):
    """A timed event referenced an agent that does not exist."""


@dataclass
class ScenarioEvent:
    """Timed swarm membership change.

    kind "spawn" uses `pos` (phases drawn from the scenario RNG at event
    time); kind "despawn" uses `target`, either an agent id or the
    string "nearest_centroid". Configs parse their `scenario.events`
    lines into these.
    """

    time: float
    kind: str                      # "spawn" | "despawn"
    pos: tuple[float, float] | np.ndarray | None = None
    target: int | str | None = None


@dataclass
class DroneSwarmEngine:
    params: DroneParams
    medium: BroadcastMedium
    rng: np.random.Generator
    dt: float = 0.005
    base_omega: float = 2.0 * math.pi
    hidden_in_payload: bool = False
    filter_factory: object = IdentityFilter
    events: list[ScenarioEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        self.drones: dict[int, DroneState] = {}
        self.tick = 0
        self.fire_log: list[tuple[float, int]] = []
        self.events = sorted(self.events, key=lambda e: e.time)
        self._next_event = 0
        self._next_id = 0

    @property
    def t(self) -> float:
        return self.tick * self.dt

    # -- membership ----------------------------------------------------

    def add_drone(
        self,
        pos,
        theta: float | None = None,
        hidden: float | None = None,
        drone_id: int | None = None,
    ) -> DroneState:
        if drone_id is None:
            drone_id = self._next_id
        if drone_id in self.drones:
            raise ValueError(f"duplicate drone id {drone_id}")
        self._next_id = max(self._next_id, drone_id) + 1
        d = drone_mod.spawn(
            drone_id,
            np.asarray(pos, dtype=np.float64),
            self.rng,
            self.params,
            self.base_omega,
            self.filter_factory,
            theta=theta,
            hidden=hidden,
        )
        self.drones[drone_id] = d
        self.medium.join(drone_id, self.t)
        return d

    def despawn(self, drone_id: int) -> None:
        d = self.drones[drone_id]
        if not d.alive:
            return
        d.alive = False
        self.medium.leave(drone_id, self.t)

    def alive_drones(self) -> list[DroneState]:
        return [self.drones[i] for i in sorted(self.drones) if self.drones[i].alive]

    def _nearest_centroid(self) -> int:
        alive = self.alive_drones()
        if not alive:
            raise ScenarioEventError("despawn of nearest_centroid with no agents alive")
        centroid = np.mean([d.pos for d in alive], axis=0)
        best = min(alive, key=lambda d: (float(np.linalg.norm(d.pos - centroid)), d.id))
        return best.id

    # -- stepping ------------------------------------------------------

    def step(self) -> None:
        t0 = self.t
        t1 = (self.tick + 1) * self.dt

        for d in self.alive_drones():
            for due in drone_mod.advance_clock(d, self.dt):
                sent_at = t0 + due.offset
                self.fire_log.append((sent_at, d.id))
                self.medium.broadcast(
                    PulseMessage(
                        sender=d.id,
                        pos=d.pos.copy(),
                        theta=due.theta,
                        sent_at=sent_at,
                        hidden=d.hidden if self.hidden_in_payload else None,
                    )
                )

        for delivery in self.medium.poll_deliveries(t1):
            for rid in delivery.recipients:
                receiver = self.drones.get(rid)
                if receiver is not None and receiver.alive:
                    drone_mod.on_pulse_received(
                        receiver, delivery.msg, self.params, self.rng
                    )

        for d in self.alive_drones():
            drone_mod.apply_motion(d, self.dt)

        self.tick += 1
        while (
            self._next_event < len(self.events)
            and self.events[self._next_event].time <= t1 + 1e-12
        ):
            self._apply_event(self.events[self._next_event])
            self._next_event += 1

        for d in self.alive_drones():
            if not (
                math.isfinite(d.pos[0])
                and math.isfinite(d.pos[1])
                and math.isfinite(d.theta)
                and math.isfinite(d.hidden)
            ):
                raise NumericBlowup(self.tick, d.id)

    def _apply_event(self, event: ScenarioEvent) -> None:
        if event.kind == "spawn":
            self.add_drone(event.pos)
        elif event.kind == "despawn":
            target = event.target
            if target == "nearest_centroid":
                target = self._nearest_centroid()
            if int(target) not in self.drones:
                raise ScenarioEventError(
                    f"despawn at t={event.time} names unknown agent {target}"
                )
            self.despawn(int(target))
        else:
            raise ValueError(f"unknown event kind {event.kind!r}")

    def run(self, duration: float, sample_every: int = 1, on_sample=None) -> None:
        """Step until the absolute simulation time `duration`.

        Successive calls with increasing values continue the same run
        (useful for mid-run snapshots). on_sample(engine) fires at t=0
        and at every `sample_every`-th tick boundary thereafter.
        """
        total_ticks = int(round(duration / self.dt))
        if on_sample is not None and self.tick == 0:
            on_sample(self)
        while self.tick < total_ticks:
            self.step()
            if on_sample is not None and (
                self.tick % sample_every == 0 or self.tick == total_ticks
            ):
                on_sample(self)
