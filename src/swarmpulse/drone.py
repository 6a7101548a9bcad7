"""Pulse-driven swarmalator drone agent.

Each drone keeps two circular phases. The visible phase is what it
broadcasts and what drives the like-attracts-like swarming force. The
hidden phase exists only to stagger broadcasts: it is coupled with a
negative constant so the population's hidden phases spread out, which
spaces the transmissions and avoids channel collisions. The hidden phase
never influences movement or the visible phase.

All coupling is pairwise and event-driven. When a pulse from drone j
arrives, drone i updates from (its own state, that one message) alone:

    theta_i  <- wrap(theta_i + k_visible * sin(theta_j - theta_i))
    hidden_i <- wrap(hidden_i - k_hidden * sin(psi) / (2 - cos(psi))),
                psi = hidden_i - ref_j
    command  <- unit(x_j - x_i) * (A + J*cos(theta_j - theta_i))
                - B * (x_j - x_i) / |x_j - x_i|**2

where ref_j is the sender's hidden phase as seen by the receiver. A
pulse is sent exactly when the sender's hidden phase wraps, so by
default the receiver takes ref_j = 0 (the send instant itself encodes
it) and nothing private ever rides in the payload. The command is pushed
through the drone's smoothing filter, capped at speed_cap, and held as
the velocity until the next pulse replaces it.

The hidden response is deliberately not the plain first harmonic
-k_hidden * sin(psi). That law also repels, but every sender pushes
every receiver toward the same antiphase point, and for four or more
drones purely first-harmonic repulsion leaves N-3 directions neutral
(Watanabe & Strogatz, 1994). Pulse kicks then gather the hidden phases
into antiphase pairs that fire together. Under drop_all the two drones
of such a pair collide, never hear each other, and so stay merged. The
shape used here is

    sin(psi) / (2 - cos(psi)) = 2 * sum_n r**n * sin(n * psi),
    r = 2 - sqrt(3),

so every harmonic repels and no direction is left neutral. Its slope is
1 at psi = 0, so |k_hidden| stays the small-phase gain, and -1/3 at
psi = pi, a third of the squeeze toward antiphase that sin gives. The
paper's abstract does not fix the response function; this shape is
used because it keeps the sign, the small-phase gain and the pulse-only
payload of the sin law while letting every harmonic repel.

No update ever depends on how many drones are in the swarm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    EPSILON_DIST,
    TAU,
    SingularityError,
    random_unit,
    vec,
    wrap_angle,
)


@dataclass
class DroneParams:
    """Coupling and motion constants shared by every drone in a run."""

    k_visible: float = 0.1
    k_hidden: float = -0.1
    j: float = 0.8
    a: float = 1.0
    b: float = 0.9
    speed_cap: float = 0.3
    freq_var: float = 0.0

    def __post_init__(self) -> None:
        if self.k_hidden > 0.0:
            raise ValueError(
                f"k_hidden must be <= 0 (broadcast staggering repels), "
                f"got {self.k_hidden}"
            )
        if self.speed_cap <= 0.0:
            raise ValueError(f"speed_cap must be > 0, got {self.speed_cap}")
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError(f"a and b must be > 0, got a={self.a}, b={self.b}")


@dataclass
class DroneState:
    """One drone. `command` is the held velocity (already smoothed and
    capped); it persists between pulses as a zero-order hold."""

    id: int
    pos: np.ndarray
    theta: float
    hidden: float
    omega: float
    hidden_omega: float
    filter: object
    alive: bool = True
    command: np.ndarray = field(default_factory=lambda: vec(0.0, 0.0))


@dataclass
class BroadcastDue:
    """A hidden-phase wrap inside one clock step.

    `offset` is seconds past the start of the step; `theta` is the
    visible phase at the crossing instant.
    """

    offset: float
    theta: float


def movement_command(
    delta: np.ndarray,
    phase_diff: float,
    params: DroneParams,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Raw pairwise swarming command toward/away from one sender.

    delta is x_sender - x_receiver. For near-coincident agents the
    direction is drawn from the scenario RNG and the distance is held at
    the floor value; the speed cap downstream bounds the resulting kick.
    """
    d = float(math.hypot(delta[0], delta[1]))
    if d <= EPSILON_DIST:
        if rng is None:
            raise SingularityError("coincident drones and no RNG for fallback")
        direction = random_unit(rng)
        d = EPSILON_DIST
    else:
        direction = delta / d
    gain = params.a + params.j * math.cos(phase_diff)
    return direction * (gain - params.b / d)


def on_pulse_received(
    me: DroneState,
    msg,
    params: DroneParams,
    rng: np.random.Generator | None = None,
) -> None:
    """Apply one received pulse to this drone, in place.

    Both phase kicks and the movement command are computed from the
    pre-update state; the hidden reference defaults to 0 (pulse timing
    implies the sender's hidden phase just wrapped).

    The hidden kick -k_hidden * sin(psi) / (2 - cos(psi)), with
    psi = hidden - ref, pushes the hidden phase away from the sender's
    firing instant. Unlike a bare sin(psi), every Fourier harmonic of it
    repels, so four or more drones spread their broadcasts evenly
    instead of condensing into antiphase pairs (see the module
    docstring).
    """
    if msg.sender == me.id:
        raise ValueError(f"drone {me.id} received its own pulse")
    phase_diff = msg.theta - me.theta

    if params.k_visible != 0.0:
        me.theta = wrap_angle(me.theta + params.k_visible * math.sin(phase_diff))
    if params.k_hidden != 0.0:
        ref = 0.0 if msg.hidden is None else msg.hidden
        psi = me.hidden - ref
        me.hidden = wrap_angle(
            me.hidden - params.k_hidden * math.sin(psi) / (2.0 - math.cos(psi))
        )

    raw = movement_command(msg.pos - me.pos, phase_diff, params, rng)
    smoothed = me.filter.push(raw)
    speed = float(math.hypot(smoothed[0], smoothed[1]))
    if speed > params.speed_cap:
        smoothed = smoothed * (params.speed_cap / speed)
    me.command = smoothed


def advance_clock(me: DroneState, dt: float) -> list[BroadcastDue]:
    """Advance both phases by dt at their natural rates.

    Returns a broadcast for every hidden-phase wrap inside the step,
    timestamped at the exact crossing instant (visible phase
    interpolated to that instant).
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    due: list[BroadcastDue] = []
    if me.hidden_omega > 0.0:
        raw = me.hidden + me.hidden_omega * dt
        k = 1
        while raw >= k * TAU:
            offset = (k * TAU - me.hidden) / me.hidden_omega
            due.append(
                BroadcastDue(offset, wrap_angle(me.theta + me.omega * offset))
            )
            k += 1
        me.hidden = wrap_angle(raw)
    else:
        me.hidden = wrap_angle(me.hidden + me.hidden_omega * dt)
    me.theta = wrap_angle(me.theta + me.omega * dt)
    return due


def apply_motion(me: DroneState, dt: float) -> None:
    """Integrate the held velocity over dt."""
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    me.pos = me.pos + me.command * dt


def spawn(
    drone_id: int,
    pos: np.ndarray,
    rng: np.random.Generator,
    params: DroneParams,
    base_omega: float,
    filter_factory,
    theta: float | None = None,
    hidden: float | None = None,
) -> DroneState:
    """Create a drone with seeded random phases and frequencies.

    Draw order is fixed (theta, hidden, omega, hidden_omega) so spawns
    are reproducible. Explicit theta/hidden override the drawn value;
    the draw still happens either way, keeping the stream aligned
    between runs that differ only in overrides.
    """
    drawn_theta = rng.uniform(0.0, TAU)
    drawn_hidden = rng.uniform(0.0, TAU)
    if params.freq_var > 0.0:
        omega = rng.uniform(base_omega - params.freq_var, base_omega + params.freq_var)
        hidden_omega = rng.uniform(
            base_omega - params.freq_var, base_omega + params.freq_var
        )
    else:
        omega = base_omega
        hidden_omega = base_omega
    return DroneState(
        id=drone_id,
        pos=np.array(pos, dtype=np.float64),
        theta=drawn_theta if theta is None else wrap_angle(theta),
        hidden=drawn_hidden if hidden is None else wrap_angle(hidden),
        omega=omega,
        hidden_omega=hidden_omega,
        filter=filter_factory(),
    )
