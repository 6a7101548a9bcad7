"""Tick loop for the drone swarm.

One engine owns one timeline: the drones, the broadcast medium, the
scenario RNG, and the timed spawn/despawn events. Each tick covers
[t, t + dt] and always runs in the same order:

1. every living drone's clocks advance; hidden-phase wraps enqueue
   pulses on the medium at their exact crossing instants, in ascending
   sender id;
2. all pulses due by the end of the tick that survive the channel are
   delivered in medium order (delivery time, then sender id), each to
   every living drone except its sender, in ascending id order;
3. every living drone integrates its held velocity over dt;
4. scenario events whose time has been reached take effect at the tick
   boundary.

The engine alone decides who hears a pulse. Membership changes only at
a tick boundary t, after that tick's deliveries, so:

- a drone that joins at t hears exactly the pulses delivered in later
  ticks, that is after t;
- a drone that leaves at t hears none after t;
- a pulse already sent by a drone that has left still reaches the
  others.

The living drones' state is one `drone.DroneArrays`, one row per drone
in ascending id order: `pos` and `command` (n, 2), `phases` (n, 2) as
(theta, hidden), `rates` (n, 2) as (omega, hidden_omega). It is rebuilt
only when membership changes. Steps 1 and 3 are one array kernel each
per tick (`drone.advance_clock`, `drone.apply_motion`); step 2 is one
`drone.on_pulse_received` call per delivered pulse, which serves all its
recipients. Every value is computed by the same floating-point
operations in the same order as a per-drone loop would, so the layout
changes no output bit. A tick with nothing to deliver costs the two
kernels, an early return from the medium and one sum of squares for the
finiteness check.
`engine.drones[id]` and `alive_drones()` give `drone.Drone` handles
that read and write those rows.

Determinism is absolute: identical construction and dt yield identical
trajectories, fire logs, and collision counts. State is checked every
tick; a position, phase or command that stops being finite, or a pair
distance or speed whose square overflows, raises NumericBlowup naming
the tick and agent. When only pair distances overflow, the agent named
is the one farthest out.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import drone as drone_mod
from .drone import Drone, DroneArrays, DroneParams
from .geometry import NumericBlowup
from .medium import BroadcastMedium, PulseMessage
from .smoothing import IdentityFilter


class ScenarioEventError(ValueError):
    """A timed event referenced an agent that does not exist, or would
    despawn the last living drone."""


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


# With every coordinate below this, a squared pair distance is at most
# 8 * _COORD_LIMIT**2, half the largest float, and a squared speed less.
_COORD_LIMIT = math.sqrt(sys.float_info.max / 16.0)
# A state whose sum of squares is below this has every coordinate below
# _COORD_LIMIT, with a factor of two to spare for the sum's rounding.
_SQUARES_LIMIT = sys.float_info.max / 32.0


def _first_bad_row(state: DroneArrays) -> int | None:
    """Row of the first drone, in id order, whose own state is not
    finite; failing that, the first whose speed overflows when squared;
    failing that, if some pair distance overflows when squared, the
    drone farthest out (largest coordinate magnitude, lowest row on a
    tie). None when nothing overflows."""
    finite = (
        np.isfinite(state.pos).all(axis=1)
        & np.isfinite(state.command).all(axis=1)
        & np.isfinite(state.phases).all(axis=1)
    )
    if finite.all():
        with np.errstate(over="ignore"):
            finite = np.isfinite(np.vecdot(state.command, state.command))
            if finite.all():
                diff = state.pos[:, None, :] - state.pos[None, :, :]
                if not np.isfinite(np.vecdot(diff, diff)).all():
                    return int(np.abs(state.pos).max(axis=1).argmax())
    bad = np.flatnonzero(~finite)
    return int(bad[0]) if bad.size else None


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
        self.drones: dict[int, Drone] = {}
        self._alive: list[Drone] = []
        self.state = DroneArrays.gather([])
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
    ) -> Drone:
        if drone_id is None:
            drone_id = self._next_id
        if drone_id in self.drones:
            raise ValueError(f"duplicate drone id {drone_id}")
        self._next_id = max(self._next_id, drone_id) + 1
        d = drone_mod.spawn(
            drone_id,
            pos,
            self.rng,
            self.params,
            self.base_omega,
            self.filter_factory,
            theta=theta,
            hidden=hidden,
        )
        self.drones[drone_id] = d
        self._rebuild()
        return d

    def despawn(self, drone_id: int) -> None:
        d = self.drones[drone_id]
        if not d.alive:
            return
        d.alive = False
        # The departed drone keeps a one-row copy of its last state.
        d.state, d.row = DroneArrays.gather([d]), 0
        self._rebuild()

    def _rebuild(self) -> None:
        """Gather the living drones' rows, in id order, into fresh arrays."""
        alive = [self.drones[i] for i in sorted(self.drones) if self.drones[i].alive]
        state = DroneArrays.gather(alive)
        for row, d in enumerate(alive):
            d.state, d.row = state, row
        self._alive, self.state = alive, state

    def alive_drones(self) -> list[Drone]:
        return list(self._alive)

    def snapshot(self) -> tuple[list[int], list[float], list[float], np.ndarray, np.ndarray]:
        """(ids, theta, hidden, pos, vel) of the living drones in id order;
        vel is the held command. Arrays are copies."""
        s = self.state
        return (
            [d.id for d in self._alive],
            s.phases[:, 0].tolist(),
            s.phases[:, 1].tolist(),
            s.pos.copy(),
            s.command.copy(),
        )

    def _nearest_centroid(self) -> int:
        if not self._alive:
            raise ScenarioEventError("despawn of nearest_centroid with no agents alive")
        pos = self.state.pos
        centroid = np.mean(pos, axis=0)
        best = min(
            self._alive,
            key=lambda d: (float(np.linalg.norm(pos[d.row] - centroid)), d.id),
        )
        return best.id

    # -- stepping ------------------------------------------------------

    def step(self) -> None:
        t0 = self.t
        t1 = (self.tick + 1) * self.dt
        state = self.state

        for row, due in drone_mod.advance_clock(state, self.dt):
            sender = self._alive[row].id
            sent_at = t0 + due.offset
            self.fire_log.append((sent_at, sender))
            self.medium.broadcast(
                PulseMessage(
                    sender=sender,
                    pos=tuple(state.pos[row].tolist()),
                    theta=due.theta,
                    sent_at=sent_at,
                    hidden=state.phases.item(row, 1) if self.hidden_in_payload else None,
                )
            )

        for msg in self.medium.poll_deliveries(t1):
            drone_mod.on_pulse_received(
                [d for d in self._alive if d.id != msg.sender], msg, self.params, self.rng
            )

        drone_mod.apply_motion(state, self.dt)

        self.tick += 1
        while (
            self._next_event < len(self.events)
            and self.events[self._next_event].time <= t1 + 1e-12
        ):
            self._apply_event(self.events[self._next_event])
            self._next_event += 1

        self._check_finite()

    def _check_finite(self) -> None:
        """Raise NumericBlowup unless every position, phase and command
        is finite and no pair distance or speed overflows when squared.

        The fast test, one sum of squares, passes only states whose
        every coordinate is below _COORD_LIMIT; a state that fails it
        (NaN, inf, overflow or just large) is scanned drone by drone.
        """
        s = self.state
        if not s.values.dot(s.values) < _SQUARES_LIMIT:
            row = _first_bad_row(s)
            if row is not None:
                raise NumericBlowup(self.tick, self._alive[row].id)

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
            if [d.id for d in self._alive] == [int(target)]:
                raise ScenarioEventError(
                    f"despawn at t={event.time} of agent {target} would leave no drone alive"
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
        # Each tick's check reports an overflow as NumericBlowup, naming
        # the tick and agent; numpy's warning for it would only repeat it.
        with np.errstate(over="ignore"):
            while self.tick < total_ticks:
                self.step()
                if on_sample is not None and (
                    self.tick % sample_every == 0 or self.tick == total_ticks
                ):
                    on_sample(self)
