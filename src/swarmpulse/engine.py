"""Tick loop for the drone swarm.

One engine owns one timeline: the drones, the broadcast medium, the
scenario RNG, and the timed spawn/despawn events. It is built from the
run's `ScenarioConfig` alone, with no drone yet, and makes its own
medium, RNG, event list and smoothing filters from it. It trusts that
config, which `runner.run_config` checks, and refuses only the despawns
that a run alone shows to be wrong (ScenarioEventError). Each tick covers
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

Drones get ids in spawn order, 0 first, and no id is ever reused.

The swarm is one object, `state`, a `drone.DroneArrays`, and a living
drone is one row of it, in ascending id order: its id and smoothing
filter beside `pos` and `command` (n, 2), `phases` (n, 2) as
(theta, hidden) and `rates` (n, 2) as (omega, hidden_omega). Every
swarm is built for the run's dt, which fixes its per-tick phase steps
`rate_dt` with its rates. A departed drone leaves no trace. A
membership change binds `state` to a new swarm and never mutates the
old one, so whoever holds it sees the swarm as it was. Steps 1 and 3
are one array kernel each per tick (`drone.advance_clock`,
`drone.apply_motion`); step 2 is one `drone.on_pulse_received` call
per delivered pulse, which serves every row but the sender's. Every
value is computed by the same floating-point operations in the same
order as a per-drone loop would, so the layout changes no output bit.

`step()` advances one tick. `run()` also glides over quiet ticks: those
with no delivery due (the medium's `next_due` is after the tick's end
t1), no scenario event due (`time <= t1 + 1e-12` fails) and no phase
reaching 2*pi. Between pulses each drone holds its command and its
clocks run free, so k quiet ticks are one `np.add.accumulate` down a
(k + 1, 6n) buffer laid out like `DroneArrays.values`: row 0 is the
state, and each later row adds `command * dt` to `pos`, -0.0 to
`command` (x + -0.0 is x, -0.0 included) and `rate_dt` to `phases`.
The accumulate adds in sequence, one add per value and row, so each row
holds the bits that stepping gives: `apply_motion` makes the same add,
and `advance_clock`'s `np.mod` leaves a raw phase below 2*pi as it is.
The scan ends before the first row where a phase reaches 2*pi or the
state fails the finiteness check, and `step()` takes that tick, so a
blow-up names the same tick and agent. A glide is tried only when at
least MIN_GLIDE quiet ticks may follow, judged by the horizon and a
cheap bound on the ticks to the next wrap. A swarm with a negative rate
is stepped tick by tick, as `np.mod` wraps a negative raw phase.

A run that samples keeps, per sample, its tick, a copy of its `values`
row and the cumulative collision count, filed under the swarm of its
membership segment, whose ids are the segment's. A glide has no event
or pulse, so its samples share ids and count: it keeps them as one
block of its buffer's rows.

Determinism is absolute: identical construction and dt yield identical
trajectories, fire logs, and collision counts. State is checked every
tick; a position, phase or command that stops being finite, or a pair
distance or speed whose square overflows, raises NumericBlowup naming
the tick and agent. When only pair distances overflow, the agent named
is the one farthest out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import drone as drone_mod
from .drone import DroneArrays
from .geometry import SQUARES_LIMIT, TAU, NumericBlowup, seeded_rng
from .medium import BroadcastMedium, PulseMessage
from .smoothing import make_filter

if TYPE_CHECKING:
    from .config import ScenarioConfig

# Floats in one glide's buffer (256 KiB); a longer quiet stretch takes
# several glides.
GLIDE_FLOATS = 1 << 15
# Fewest quiet ticks worth a glide: shorter stretches, as in crowds, are
# cheaper stepped.
MIN_GLIDE = 8


class ScenarioEventError(ValueError):
    """A timed event referenced an agent that does not exist or has left,
    or would despawn the last living drone."""


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


class DroneSwarmEngine:
    def __init__(self, cfg: ScenarioConfig) -> None:
        self.cfg, self.dt = cfg, cfg.dt
        self.medium = BroadcastMedium(cfg.medium_airtime, cfg.medium_collision_policy)
        self.rng = seeded_rng(cfg.seed)
        self.events = sorted(cfg.events, key=lambda e: e.time)
        self.state = DroneArrays([], [], [], [], [], [], cfg.dt)
        self._spawned = 0
        self.tick = 0
        self.fire_log: list[tuple[float, int]] = []
        self._next_event = 0
        # Kept samples (see `_keep`).
        self._ticks, self._collisions = [], []
        self._segments: list[tuple[DroneArrays, list[np.ndarray]]] = []

    @property
    def t(self) -> float:
        return self.tick * self.dt

    # -- membership ----------------------------------------------------

    def add_drone(self, pos) -> int:
        """Spawn a drone at `pos` under the next id, at rest, with random
        phases and, when `drone.freq_var` is set, random rates, and
        return its id.

        The scenario RNG draws theta, hidden, omega and hidden_omega, in
        that fixed order, so spawns are reproducible.
        """
        cfg, rng = self.cfg, self.rng
        base, var = cfg.drone_omega, cfg.drone_freq_var
        phases = rng.uniform(0.0, TAU), rng.uniform(0.0, TAU)
        if var > 0.0:
            rates = rng.uniform(base - var, base + var), rng.uniform(base - var, base + var)
        else:
            rates = base, base
        drone_id, self._spawned = self._spawned, self._spawned + 1
        smoother = make_filter(cfg.smoothing_mode, cfg.smoothing_window, cfg.smoothing_alpha)
        self.state = self.state.joined(drone_id, smoother, pos, phases, rates)
        return drone_id

    def despawn(self, drone_id: int) -> None:
        """Remove living drone `drone_id`'s row."""
        self.state = self.state.without(drone_id)

    def _keep(self, ticks, rows: np.ndarray) -> None:
        """Keep the samples at `ticks`, one row of `values` each (one row may be 1-D),
        in the segment of the current membership."""
        if not self._segments or self._segments[-1][0] is not self.state:
            self._segments.append((self.state, []))
        self._segments[-1][1].append(rows)
        self._ticks.extend(ticks)
        self._collisions.extend([self.medium.stats.collisions] * len(ticks))

    def trace_columns(self) -> tuple:
        """The kept samples as trace columns: times, agent counts, and per
        agent row its id, theta, hidden, (x, y) position and (x, y) held
        command, then each sample's cumulative collision count."""
        counts, ids, theta, hidden, pos, vel = ([] for _ in range(6))
        for swarm, blocks in self._segments:
            rows, n = np.vstack(blocks), len(swarm.ids)
            counts.append(np.full(len(rows), n))
            ids.append(np.tile(np.array(swarm.ids, dtype=np.int64), len(rows)))
            theta.append(rows[:, 4 * n::2])
            hidden.append(rows[:, 4 * n + 1::2])
            pos.append(rows[:, :2 * n])
            vel.append(rows[:, 2 * n:4 * n])
        flat = [np.concatenate(c, axis=None) for c in (counts, ids, theta, hidden, pos, vel)]
        return (
            np.multiply(self._ticks, self.dt), *flat[:4], flat[4].reshape(-1, 2),
            flat[5].reshape(-1, 2), np.array(self._collisions, dtype=np.int64),
        )

    def _nearest_centroid(self) -> int:
        pos = self.state.pos
        centroid = np.mean(pos, axis=0)
        return min(zip((float(np.linalg.norm(p - centroid)) for p in pos), self.state.ids))[1]

    # -- stepping ------------------------------------------------------

    def step(self) -> None:
        t0 = self.t
        t1 = (self.tick + 1) * self.dt
        state = self.state

        try:
            for row, offset, theta in drone_mod.advance_clock(state):
                sender = state.ids[row]
                sent_at = t0 + offset
                self.fire_log.append((sent_at, sender))
                self.medium.broadcast(
                    PulseMessage(
                        sender=sender,
                        pos=tuple(state.pos[row].tolist()),
                        theta=theta,
                        sent_at=sent_at,
                        hidden=state.phases.item(row, 1) if self.cfg.drone_hidden_in_payload else None,
                    )
                )

            for msg in self.medium.poll_deliveries(t1):
                drone_mod.on_pulse_received(state, msg, self.cfg, self.rng)
        except ValueError as exc:
            # `wrap_angle` refuses a non-finite phase before either kernel
            # writes its rows back, so the rows still show which drone.
            row = _first_bad_row(state)
            if row is None:
                raise
            raise NumericBlowup(self.tick + 1, state.ids[row]) from exc

        drone_mod.apply_motion(state)

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
        every coordinate is below geometry.COORD_LIMIT; a state that fails it
        (NaN, inf, overflow or just large) is scanned drone by drone.
        """
        s = self.state
        if not s.values.dot(s.values) < SQUARES_LIMIT:
            row = _first_bad_row(s)
            if row is not None:
                raise NumericBlowup(self.tick, s.ids[row])

    def _apply_event(self, event: ScenarioEvent) -> None:
        if event.kind == "spawn":
            self.add_drone(event.pos)
        else:
            target = (self._nearest_centroid() if event.target == "nearest_centroid"
                      else int(event.target))
            if not 0 <= target < self._spawned:
                raise ScenarioEventError(
                    f"despawn at t={event.time} names unknown agent {target}"
                )
            if target not in self.state.ids:
                raise ScenarioEventError(
                    f"despawn at t={event.time} names agent {target}, which has left"
                )
            if self.state.ids == [target]:
                raise ScenarioEventError(
                    f"despawn at t={event.time} of agent {target} would leave no drone alive"
                )
            self.despawn(target)

    def run(self, duration: float, sample_every: int | None = None) -> None:
        """Step until the absolute simulation time `duration`.

        Successive calls with increasing values continue the same run,
        so to read or write the drones part-way, split the run into
        several calls. Given `sample_every`, it samples at t=0 unless
        that is kept already, at every `sample_every`-th tick boundary
        and at its last tick, keeping each for `trace_columns`. A run
        without `sample_every` keeps nothing.
        """
        total_ticks = int(round(duration / self.dt))
        if sample_every is not None and self.tick == 0 and not self._ticks:
            self._keep((self.tick,), self.state.values.copy())
        # Each tick's check reports an overflow as NumericBlowup, naming
        # the tick and agent; numpy's warning for it would only repeat it.
        with np.errstate(over="ignore"):
            while self.tick < total_ticks:
                self._glide(total_ticks, sample_every)
                if self.tick == total_ticks:
                    break
                self.step()
                if sample_every is not None and (
                    self.tick % sample_every == 0 or self.tick == total_ticks
                ):
                    self._keep((self.tick,), self.state.values.copy())

    def _ticks_before(self, time: float, slack: float, limit: int) -> int:
        """At most `limit` ticks from now, each ending at a t1 with
        t1 + slack < time."""
        while limit > 0 and (self.tick + limit) * self.dt + slack >= time:
            limit = min(limit - 1, max(0, int(time / self.dt) - self.tick))
        return limit

    def _glide(self, total_ticks: int, sample_every: int | None) -> None:
        """Advance over the quiet ticks ahead in one scan (see the module
        docstring) if at least MIN_GLIDE of them may follow; the tick
        that ends the scan is left to `step()`."""
        s, tick = self.state, self.tick
        limit = total_ticks - tick
        if limit < MIN_GLIDE or s.negative_rates or not s.values.size:
            return
        # Ticks before the largest raw phase of the last step could wrap
        # at the fastest rate: a bound on the work only, which a kick, a
        # setter or a glide leaves stale.
        room = TAU - s.top
        if not room >= MIN_GLIDE * s.top_rate:
            return
        if s.top_rate > 0.0:
            limit = int(min(limit, room / s.top_rate + MIN_GLIDE))
        limit = min(limit, GLIDE_FLOATS // s.values.size - 1)
        limit = self._ticks_before(self.medium.next_due, 0.0, limit)
        if self._next_event < len(self.events):
            limit = self._ticks_before(self.events[self._next_event].time, 1e-12, limit)
        if limit < MIN_GLIDE:
            return

        values = s.values
        m = values.size // 3
        buf = np.empty((limit + 1, values.size))
        buf[0] = values
        buf[1:, :m] = (s.command * self.dt).reshape(-1)
        buf[1:, m:2 * m] = -0.0
        # np.mod turns a raw phase of -0.0 into 0.0; so does adding 0.0
        # to a rate of -0.0, and nothing else changes a bit.
        buf[1:, 2 * m:] = (s.rate_dt + 0.0).reshape(-1)
        np.add.accumulate(buf, axis=0, out=buf)
        rows = buf[1:]
        quiet = (np.maximum.reduce(rows[:, 2 * m:], axis=1) < TAU) & (
            np.vecdot(rows, rows) < SQUARES_LIMIT
        )
        stop = np.flatnonzero(~quiet)
        end = tick + (int(stop[0]) if stop.size else limit)

        if sample_every is not None:
            marks = list(range(tick - tick % sample_every + sample_every, end + 1, sample_every))
            if end == total_ticks and end % sample_every:
                marks.append(end)
            if marks:
                self._keep(marks, buf[np.subtract(marks, tick)])
        values[:] = buf[end - tick]
        self.tick = end
        # The last tick's poll; nothing is due by then.
        self.medium.poll_deliveries(self.tick * self.dt)
