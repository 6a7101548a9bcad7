"""Observables, drivers and views that only the tests use.

No run of the package reaches these: the acceptance checks and unit
tests assert on them, so they live beside the tests rather than in
`swarmpulse`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from swarmpulse import drone
from swarmpulse.geometry import TAU, wrap_angle
from swarmpulse.pulse import PulsePopulation
from swarmpulse.smoothing import IdentityFilter

TARGET_POLYGONS = {"pentagon_ring": 5, "square_ring": 4}


def circ_diff(a: float, b: float) -> float:
    """Shortest signed angular distance from b to a, in (-pi, pi].

    Antisymmetric except at exactly pi, where the tie resolves to +pi so
    the result is totally ordered and reproducible.
    """
    d = (a - b) % TAU
    if d > math.pi:
        d -= TAU
    return d


def mean_phase(thetas) -> float:
    """Angle of the mean unit phasor, in [0, 2*pi)."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.size == 0:
        raise ValueError("mean phase of an empty phase list")
    angle = cmath.phase(complex(np.mean(np.exp(1j * thetas))))
    return angle % (2.0 * math.pi)


def formation_error(positions, target: str) -> float:
    """RMS residual of the swarm against a regular polygon.

    The polygon's circumradius is fitted as the mean distance from the
    centroid; points are matched to vertices in angular order; the
    rotation+translation that minimises the residual is applied in
    closed form. Zero means the positions are exactly the regular
    polygon up to rigid motion.
    """
    if target not in TARGET_POLYGONS:
        raise ValueError(f"unknown formation target {target!r}")
    n = TARGET_POLYGONS[target]
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape[0] != n:
        raise ValueError(
            f"{target} expects {n} agents, got {positions.shape[0]}"
        )
    centred = positions - positions.mean(axis=0)
    radius = float(np.mean(np.linalg.norm(centred, axis=1)))

    order = np.argsort(np.arctan2(centred[:, 1], centred[:, 0]), kind="stable")
    x = centred[order]
    angles = 2.0 * math.pi * np.arange(n) / n
    y = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)

    dots = float(np.sum(x * y))
    crosses = float(np.sum(x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0]))
    phi = math.atan2(crosses, dots)
    c, s = math.cos(phi), math.sin(phi)
    rotated = x @ np.array([[c, s], [-s, c]])
    return float(np.sqrt(np.mean(np.sum((rotated - y) ** 2, axis=1))))


def run_to_sync(pop: PulsePopulation, max_time: float, tol: float) -> float | None:
    """Simulate until the phase spread drops below tol at a fire instant.

    Returns the elapsed time at which synchrony was first observed, or
    None on timeout. tol is a circular unit-phase distance in (0, 0.5).
    """
    if not 0.0 < tol < 0.5:
        raise ValueError(f"tol must be in (0, 0.5), got {tol}")
    if pop.n <= 1:
        return 0.0
    start = pop.t
    period = 1.0 / pop.rate
    step = period / 4.0
    while pop.t - start < max_time:
        events = pop.advance(min(step, max_time - (pop.t - start)))
        if events and pop.spread() < tol:
            return pop.t - start
    return None


def min_spread_over(pop: PulsePopulation, duration: float) -> float:
    """Smallest spread observed at any fire instant over `duration`.

    Starts from the current spread so an uncoupled population reports
    its (constant) initial value.
    """
    lowest = pop.spread()
    elapsed = 0.0
    step = 0.25 / pop.rate
    while elapsed < duration:
        chunk = min(step, duration - elapsed)
        events = pop.advance(chunk)
        elapsed += chunk
        if events:
            lowest = min(lowest, pop.spread())
    return lowest


def _row_vector(name: str) -> property:
    def get(self) -> np.ndarray:
        return getattr(self.state, name)[self.row].copy()

    def set(self, value) -> None:
        getattr(self.state, name)[self.row] = value

    return property(get, set)


def _row_phase(col: int) -> property:
    def get(self) -> float:
        return self.state.phases.item(self.row, col)

    def set(self, value: float) -> None:
        self.state.phases[self.row, col] = wrap_angle(value)

    return property(get, set)


def _row_rate(col: int) -> property:
    def get(self) -> float:
        return self.state.rates.item(self.row, col)

    def set(self, value: float) -> None:
        self.state.rates[self.row, col] = value
        self.state.rate_dt = None

    return property(get, set)


class DroneView:
    """Drone `drone_id` of `swarm`: an engine, or anything else with a
    `state` and `ids` aligned with its rows.

    The row is found by id on every access, so a view stays valid across
    spawns and despawns; a departed drone has no row (ValueError).
    Vectors read as copies, a written phase is wrapped into [0, 2*pi),
    and a written rate clears the state's `rate_dt` cache.
    """

    def __init__(self, swarm, drone_id: int):
        self.swarm, self.id = swarm, drone_id

    state = property(lambda self: self.swarm.state)
    row = property(lambda self: self.swarm.ids.index(self.id))
    pos = _row_vector("pos")
    command = _row_vector("command")
    theta = _row_phase(0)
    hidden = _row_phase(1)
    omega = _row_rate(0)
    hidden_omega = _row_rate(1)


def drones(swarm) -> list[DroneView]:
    """Views of the living drones of `swarm`, in row order."""
    return [DroneView(swarm, i) for i in swarm.ids]


def hearers(monkeypatch) -> list[tuple[int, int]]:
    """Log (receiver id, sender id) of every reception from now on.

    The receivers are read from outside `drone.on_pulse_received`: the
    filters whose `push` ran during a call, mapped back to ids through
    the `filters` it was given. Every drone must smooth with an
    `IdentityFilter`.
    """
    log, pushed = [], []
    push, receive = IdentityFilter.push, drone.on_pulse_received
    monkeypatch.setattr(IdentityFilter, "push", lambda f, x: pushed.append(f) or push(f, x))

    def spy(state, ids, filters, msg, *args):
        pushed.clear()
        receive(state, ids, filters, msg, *args)
        owner = {id(f): i for i, f in zip(ids, filters)}
        log.extend((owner[id(f)], msg.sender) for f in pushed)

    monkeypatch.setattr(drone, "on_pulse_received", spy)
    return log
