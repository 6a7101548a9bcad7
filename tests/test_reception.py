"""One reception call per delivery equals one call per recipient.

`drone.on_pulse_received` serves every row but the sender's in one
call, reading the state once as Python floats and writing it back once.
These tests pin it, bit for bit, to the one-recipient-per-call function
it replaced, kept below as `reference_receive`: phases, commands, filter
state and the RNG state must all come out the same.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmpulse.drone import DroneArrays, DroneParams, on_pulse_received
from swarmpulse.geometry import (
    EPSILON_DIST,
    TAU,
    SingularityError,
    random_unit,
    seeded_rng,
    wrap_angle,
)
from swarmpulse.medium import PulseMessage
from swarmpulse.smoothing import ExponentialFilter, MovingAverageFilter, make_filter


def reference_movement_command(delta, phase_diff, params, rng=None):
    dx, dy = delta
    d = math.hypot(dx, dy)
    if d <= EPSILON_DIST:
        if rng is None:
            raise SingularityError("coincident drones and no RNG for fallback")
        ux, uy = random_unit(rng).tolist()
        d = EPSILON_DIST
    else:
        ux, uy = dx / d, dy / d
    gain = params.a + params.j * math.cos(phase_diff)
    scale = gain - params.b / d
    return ux * scale, uy * scale


def reference_receive(state, row, smoother, msg, params, rng=None):
    """The per-recipient reception: one drone, one pulse, one call."""
    phases = state.phases
    theta, hidden = phases[row].tolist()
    phase_diff = msg.theta - theta

    if params.k_visible != 0.0:
        phases[row, 0] = wrap_angle(theta + params.k_visible * math.sin(phase_diff))
    if params.k_hidden != 0.0:
        ref = 0.0 if msg.hidden is None else msg.hidden
        psi = hidden - ref
        phases[row, 1] = wrap_angle(
            hidden - params.k_hidden * math.sin(psi) / (2.0 - math.cos(psi))
        )

    x, y = state.pos[row].tolist()
    sx, sy = msg.pos
    cx, cy = smoother.push(
        reference_movement_command((sx - x, sy - y), phase_diff, params, rng)
    )
    speed = math.hypot(cx, cy)
    if speed > params.speed_cap:
        scale = params.speed_cap / speed
        cx, cy = cx * scale, cy * scale
    command = state.command
    command[row, 0] = cx
    command[row, 1] = cy


def filter_state(f):
    if isinstance(f, MovingAverageFilter):
        return list(f._buf)
    if isinstance(f, ExponentialFilter):
        return f.state
    return None


angles = st.floats(0.0, TAU, exclude_max=True)
coords = st.floats(-3.0, 3.0)
smoothing = st.one_of(
    st.just(("none", 10, 0.8)),
    st.sampled_from([1, 2, 10, 20]).map(lambda w: ("moving_average", w, 0.8)),
    st.floats(0.01, 1.0).map(lambda a: ("exponential", 10, a)),
)


@st.composite
def deliveries(draw):
    """A swarm on one state, its ascending ids, and 1-3 pulses for it."""
    n_recipients = draw(st.integers(1, 80))
    sender_alive = draw(st.booleans())
    n = n_recipients + sender_alive
    ids = sorted(draw(st.lists(st.integers(0, 500), min_size=n, max_size=n, unique=True)))
    sender = draw(st.sampled_from(ids)) if sender_alive else 501
    params = DroneParams(
        k_visible=draw(st.sampled_from([0.0, 0.1]) | st.floats(-1.0, 1.0)),
        k_hidden=draw(st.sampled_from([0.0, -0.1]) | st.floats(-1.0, 0.0)),
        j=draw(st.floats(-1.0, 1.0)),
        a=draw(st.floats(0.01, 2.0)),
        b=draw(st.floats(0.01, 3.0)),
        speed_cap=draw(st.sampled_from([0.01, 0.05, 0.3, 1e6])),
    )
    pos = [(draw(coords), draw(coords)) for _ in range(n)]
    phases = [(draw(angles), draw(angles)) for _ in range(n)]
    commands = [(draw(coords), draw(coords)) for _ in range(n)]
    msgs = []
    for k in range(draw(st.integers(1, 3))):
        sx, sy = draw(coords), draw(coords)
        # Put some recipients on the pulse's origin, or within
        # EPSILON_DIST of it, to reach the RNG fallback.
        near = draw(st.lists(st.integers(0, n - 1), max_size=4))
        offset = draw(st.sampled_from([0.0, 0.5 * EPSILON_DIST]))
        for row in near:
            pos[row] = (sx + offset, sy)
        hidden = draw(st.none() | angles)
        msgs.append(PulseMessage(sender, (sx, sy), draw(angles), 0.1 * k, hidden))
    return params, ids, pos, phases, commands, msgs, draw(smoothing), draw(st.integers(0, 2**32))


def swarm(pos, phases, commands, mode):
    state = DroneArrays(pos, commands, phases, [(TAU, TAU)] * len(pos))
    return state, [make_filter(*mode) for _ in pos]


@settings(max_examples=300, deadline=None)
@given(deliveries())
def test_one_call_per_delivery_equals_one_call_per_recipient(case):
    params, ids, pos, phases, commands, msgs, mode, seed = case
    ref_state, ref_filters = swarm(pos, phases, commands, mode)
    new_state, new_filters = swarm(pos, phases, commands, mode)
    ref_rng, new_rng = seeded_rng(seed), seeded_rng(seed)
    # Give every filter some history before the deliveries.
    for f in ref_filters + new_filters:
        f.push((0.25, -0.125))

    for msg in msgs:
        for row, (drone_id, f) in enumerate(zip(ids, ref_filters)):
            if drone_id != msg.sender:
                reference_receive(ref_state, row, f, msg, params, ref_rng)
        on_pulse_received(new_state, ids, new_filters, msg, params, new_rng)

    assert new_state.values.tobytes() == ref_state.values.tobytes()
    assert [filter_state(f) for f in new_filters] == [filter_state(f) for f in ref_filters]
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


def test_no_recipients_changes_nothing():
    # The only row is the sender's.
    state, filters = swarm([(0.0, 0.0)], [(1.0, 2.0)], [(0.5, 0.5)], ("none", 10, 0.8))
    before = state.values.copy()
    on_pulse_received(state, [0], filters, PulseMessage(0, (1.0, 0.0), 0.0, 0.0), DroneParams())
    assert np.array_equal(state.values, before)
