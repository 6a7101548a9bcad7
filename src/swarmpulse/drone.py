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

State lives in arrays, not in per-drone objects. A `DroneArrays` holds
one row per drone: position, held command, (theta, hidden) and
(omega, hidden_omega). The clock and motion kernels, `advance_clock` and
`apply_motion`, step every row at once. A drone is its row and
nothing else: whoever owns the arrays keeps, aligned with the rows, the
drones' ids and their smoothing filters, which take and return (x, y)
pairs. `on_pulse_received` serves every row that hears one pulse in one
call: it reads the rows once as Python floats, updates each in turn,
and writes the rows back once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    EPSILON_DIST,
    TAU,
    SingularityError,
    random_unit,
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


class DroneArrays:
    """State of a set of drones, one row each, as contiguous float64 arrays.

    `pos` and `command` are (n, 2); `command` is the held velocity
    (already smoothed and capped), kept between pulses as a zero-order
    hold. `phases` is (n, 2) holding (theta, hidden) in [0, 2*pi), and
    `rates` is (n, 2) holding (omega, hidden_omega). `pos`, `command`
    and `phases` are consecutive views of one buffer, `values`, so a
    single reduction can check all three. Every kernel updates them in
    place. `rate_dt`, the rates times dt, and `top_rate`, its largest
    entry, are cached by `advance_clock` for the dt in `rate_dt_of`;
    whoever writes `rates` sets `rate_dt` back to None. `top`, the
    largest raw phase of the last clock step, and `top_rate` bound the
    ticks to the next wrap.
    """

    FIELDS = ("pos", "command", "phases", "rates")

    def __init__(self, pos, command, phases, rates):
        self.values = np.concatenate(
            [np.asarray(x, dtype=np.float64).reshape(-1) for x in (pos, command, phases)]
        )
        self.pos, self.command, self.phases = (
            v.reshape(-1, 2) for v in np.split(self.values, 3)
        )
        self.rates = np.array(rates, dtype=np.float64).reshape(-1, 2)
        self.rate_dt: np.ndarray | None = None
        self.rate_dt_of = 0.0
        self.negative_rates = False
        self.top_rate, self.top = 0.0, math.inf


def on_pulse_received(
    state: DroneArrays,
    ids: list[int],
    filters: list,
    msg,
    params: DroneParams,
    rng: np.random.Generator | None = None,
) -> None:
    """Apply one received pulse to every row of `state` but its sender's,
    in place.

    Row r is drone `ids[r]`, which smooths its commands with
    `filters[r]`. Every row whose id is not `msg.sender` hears the
    pulse, in row order; that order fixes the order of the filter
    pushes and of the RNG draws for coincident drones. Each row's phase
    kicks and movement command come from its own pre-update state. The
    hidden reference defaults to 0 (pulse timing implies the sender's
    hidden phase just wrapped).

    The raw command toward the sender is unit(delta) * (A + J*cos(theta
    diff)) - B * delta / |delta|**2, delta = x_sender - x_receiver. For
    near-coincident drones the direction is drawn from the scenario RNG
    and the distance held at EPSILON_DIST; the speed cap bounds the
    resulting kick. The command goes through the recipient's smoothing
    filter, is capped at speed_cap, and is held as its velocity.

    The hidden kick -k_hidden * sin(psi) / (2 - cos(psi)), with
    psi = hidden - ref, pushes the hidden phase away from the sender's
    firing instant. Unlike a bare sin(psi), every Fourier harmonic of it
    repels, so four or more drones spread their broadcasts evenly
    instead of condensing into antiphase pairs (see the module
    docstring).

    The state is read once as Python floats and written back once, so a
    delivery pays for two array conversions however many drones hear
    it. Every value gets the same floating-point operations, in the
    same order, as serving the recipients one call each would.
    """
    # pos, command and phases, 2n floats each; row r's pair sits at 2r.
    values = state.values.tolist()
    m = len(values) // 3
    pos, command, phases = values[:m], values[m:2 * m], values[2 * m:]
    k_visible, k_hidden, cap = params.k_visible, params.k_hidden, params.speed_cap
    a, j, b = params.a, params.j, params.b
    ref = 0.0 if msg.hidden is None else msg.hidden
    sender, theta_j, (sx, sy) = msg.sender, msg.theta, msg.pos
    sin, cos, hypot = math.sin, math.cos, math.hypot
    for i, drone_id, smoother in zip(range(0, m, 2), ids, filters):
        if drone_id == sender:
            continue
        theta, hidden = phases[i], phases[i + 1]
        phase_diff = theta_j - theta
        if k_visible != 0.0:
            phases[i] = wrap_angle(theta + k_visible * sin(phase_diff))
        if k_hidden != 0.0:
            psi = hidden - ref
            phases[i + 1] = wrap_angle(hidden - k_hidden * sin(psi) / (2.0 - cos(psi)))

        dx, dy = sx - pos[i], sy - pos[i + 1]
        d = hypot(dx, dy)
        if d <= EPSILON_DIST:
            if rng is None:
                raise SingularityError("coincident drones and no RNG for fallback")
            ux, uy = random_unit(rng).tolist()
            d = EPSILON_DIST
        else:
            ux, uy = dx / d, dy / d
        scale = a + j * cos(phase_diff) - b / d
        cx, cy = smoother.push((ux * scale, uy * scale))
        speed = hypot(cx, cy)
        if speed > cap:
            scale = cap / speed
            cx, cy = cx * scale, cy * scale
        command[i], command[i + 1] = cx, cy
    state.values[m:] = command + phases


def advance_clock(state: DroneArrays, dt: float) -> list[tuple[int, float, float]]:
    """Advance every row's phases by dt at their natural rates.

    Returns (row, offset, theta) for every hidden-phase wrap inside the
    step, rows ascending: `offset` is the exact crossing instant in
    seconds past the start of the step, and `theta` the visible phase
    interpolated to that instant. A row whose hidden rate is not
    positive never reaches 2*pi from below, so never fires.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if state.rate_dt is None or state.rate_dt_of != dt:
        state.rate_dt, state.rate_dt_of = state.rates * dt, dt
        state.negative_rates = bool((state.rates < 0.0).any())
        state.top_rate = float(state.rate_dt.max(initial=0.0))
    phases = state.phases
    raw = phases + state.rate_dt
    due: list[tuple[int, float, float]] = []
    hidden_raw = raw[:, 1]
    state.top = np.maximum.reduce(raw, axis=None) if len(raw) else -math.inf
    if state.top >= TAU:
        for row in np.flatnonzero(hidden_raw >= TAU).tolist():
            theta, hidden = phases[row].tolist()
            omega, hidden_omega = state.rates[row].tolist()
            reached = raw.item(row, 1)
            k = 1
            while reached >= k * TAU:
                offset = (k * TAU - hidden) / hidden_omega
                due.append((row, offset, wrap_angle(theta + omega * offset)))
                k += 1
    # fmod of a non-negative value is exact and below TAU; a negative one
    # plus TAU can round up to TAU, which wraps to 0 as in `wrap_angle`.
    np.mod(raw, TAU, out=phases)
    if state.negative_rates:
        phases[phases >= TAU] -= TAU
    return due


def apply_motion(state: DroneArrays, dt: float) -> None:
    """Integrate every row's held velocity over dt."""
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    state.pos += state.command * dt
