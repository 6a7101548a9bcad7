"""The reference step's kernel equals the per-call rates it replaced.

`reference._kernel` computes both rates of every agent on buffers that
live for a whole run. These tests pin it, bit for bit, to the
per-call functions it replaced, kept below as `parent_pair_geometry`
and `parent_rates`: velocity, phase rate and the RNG state afterwards
must all come out the same, for coincident agents and for pair
distances that overflow too. The run's blow-up contract, the step and
agent named, is pinned to what those functions gave.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmpulse.config import ScenarioConfig
from swarmpulse.geometry import (
    EPSILON_DIST,
    SQUARES_LIMIT,
    TAU,
    NumericBlowup,
    random_unit,
    seeded_rng,
)
from swarmpulse.reference import _kernel, init_state, run_reference


def parent_pair_geometry(pos, rng):
    diff = pos[None, :, :] - pos[:, None, :]
    sq = diff * diff
    dist = np.sqrt(sq[..., 0] + sq[..., 1])
    np.fill_diagonal(dist, 1.0)

    degenerate = dist <= EPSILON_DIST
    if degenerate.any():
        if rng is None:
            raise ValueError(
                "coincident agents and no RNG provided for the direction fallback"
            )
        for i, j in zip(*np.nonzero(np.triu(degenerate))):
            u = random_unit(rng)
            diff[i, j] = u * EPSILON_DIST
            diff[j, i] = -u * EPSILON_DIST
            dist[i, j] = dist[j, i] = EPSILON_DIST

    return diff, dist


def parent_rates(pos, theta, omega, cfg, rng):
    n = pos.shape[0]
    diff, dist = parent_pair_geometry(pos, rng)
    dist[np.isinf(dist)] = np.nan
    phase_diff = theta[None, :] - theta[:, None]
    gain = cfg.ref_a + cfg.ref_j * np.cos(phase_diff)
    coeff = gain / dist - cfg.ref_b / (dist * dist)
    np.fill_diagonal(coeff, 0.0)
    coupling = np.sin(phase_diff) / dist
    np.fill_diagonal(coupling, 0.0)
    vel = np.einsum("ij,ijk->ik", coeff, diff) / n
    dtheta = omega + (cfg.ref_k / n) * np.sum(coupling, axis=1)
    return vel, dtheta


def assert_same_bits(got, want):
    """Equal bytes wherever a value is a number; NaN in the same places."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def coupling(lo=-2.0, hi=2.0):
    return st.one_of(st.just(0.0), st.floats(lo, hi, allow_nan=False))


@st.composite
def swarms(draw):
    n = draw(st.integers(2, 150))
    a = draw(st.floats(0.1, 3.0))
    cfg = ScenarioConfig(n=n, ref_k=draw(coupling()), ref_j=draw(coupling(-a, a)), ref_a=a,
                         ref_b=draw(st.floats(0.1, 5.0)))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = data.uniform(-1.0, 1.0, (n, 2)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    theta = data.uniform(0.0, TAU, n)
    omega = np.zeros(n) if draw(st.booleans()) else data.uniform(-3.0, 3.0, n)
    # Coincident agents: pairs, or three and more at one point, exactly
    # or within EPSILON_DIST.
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, n - 1))
        for other in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            jitter = draw(st.sampled_from([0.0, 0.3 * EPSILON_DIST]))
            pos[other] = pos[at] + jitter
    # Agents far enough out that their pair distances overflow.
    for _ in range(draw(st.integers(0, 2))):
        pos[draw(st.integers(0, n - 1))] = data.choice([-1.0, 1.0], 2) * draw(
            st.sampled_from([1e153, 1e154, 1e160, 1e300])
        )
    return cfg, pos, theta, omega


@settings(max_examples=300, deadline=None)
@given(swarms(), st.integers(0, 2**32 - 1))
def test_kernel_matches_parent_rates(swarm, seed):
    cfg, pos, theta, omega = swarm
    rng_parent, rng_kernel = seeded_rng(seed), seeded_rng(seed)
    with np.errstate(all="ignore"):
        vel, dtheta = parent_rates(pos.copy(), theta.copy(), omega, cfg, rng_parent)
        state = np.array((*pos.T, theta))
        flat = state.reshape(-1)
        rates = _kernel(cfg, omega, rng_kernel, state)(flat.dot(flat) < SQUARES_LIMIT)
    assert_same_bits(rates[:2].T, vel)
    assert_same_bits(rates[2], dtheta)
    assert rng_kernel.bit_generator.state == rng_parent.bit_generator.state


# The step and agent each case names, as the parent's per-call rates gave
# them; every case blows up on the first step, whose check covers the
# initial rates too.
def inf_position(pos, theta, omega):
    pos[2, 1] = np.inf


def nan_phase(pos, theta, omega):
    theta[4] = np.nan


def inf_frequency(pos, theta, omega):
    omega[2] = np.inf


def overflowing_pair(pos, theta, omega):
    # Each is 1e154 from the others, whose squared distances stay finite,
    # but 2e154 from the other: only that pair's squared distance overflows.
    pos[4] = (1e154, 0.0)
    pos[2] = (-1e154, 0.0)


def overflowing_pair_y(pos, theta, omega):
    pos[5] = (0.0, 1e154)
    pos[3] = (0.0, -1e154)


@pytest.mark.parametrize("inject, tick, agent", [
    (inf_position, 1, 0),
    (nan_phase, 1, 0),
    (inf_frequency, 1, 2),
    (overflowing_pair, 1, 2),
    (overflowing_pair_y, 1, 3),
])
def test_blowup_names_the_parents_step_and_agent(inject, tick, agent):
    cfg = ScenarioConfig(n=6, ref_k=0.7, ref_j=0.8, duration=1.0, dt=0.01)
    pos, theta, omega = init_state(cfg, seeded_rng(3))
    inject(pos, theta, omega)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericBlowup) as exc:
            run_reference(cfg, seeded_rng(4), state=(pos, theta, omega))
    assert (exc.value.tick, exc.value.agent_id) == (tick, agent)


def test_large_finite_state_runs_without_warnings():
    # Coordinates past the sum-of-squares bound take the exact scan every
    # step and still run to the end when nothing overflows.
    cfg = ScenarioConfig(n=4, ref_k=0.7, ref_j=0.8, duration=0.1, dt=0.01)
    pos, theta, omega = init_state(cfg, seeded_rng(5))
    pos[1] = (4e153, 0.0)
    assert pos.reshape(-1).dot(pos.reshape(-1)) > SQUARES_LIMIT
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_reference(cfg, seeded_rng(6), state=(pos, theta, omega))
    assert np.isfinite(trace.positions).all() and trace.positions[-1, 1, 0] == 4e153
