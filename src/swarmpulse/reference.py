"""Continuous swarmalator population with global communication.

Every agent sees every other agent at every step, which makes this the
oracle model: the pairwise, pulse-driven drone swarm is judged against
the structures this one settles into (synchronised disc, rainbow ring).

Per step, from the pre-step snapshot of all positions x and phases theta:

    velocity_i = (1/N) * sum over j != i of
                 [ unit(x_j - x_i) * (A + J*cos(theta_j - theta_i))
                   - B * (x_j - x_i) / |x_j - x_i|**2 ]
    dtheta_i/dt = omega_i + (K/N) * sum over j != i of
                  sin(theta_j - theta_i) / |x_j - x_i|

Integration is explicit Euler; updates are synchronous (both updates read
the same snapshot). For two equal-phase agents the stationary separation
is B / (A + J), where attraction and repulsion balance.

Both rates come from one kernel, `_kernel`, built once per run over a
(3, N) state (x plane, y plane, theta) and filling (3, N) rates in
place, on buffers it allocates once. One subtract gives every pair
difference of all three state rows, diffs[k, i, j] = s_j[k] - s_i[k],
so diffs[2] holds the phase differences. The velocity terms are written
through a transposed view, work[k, j, i], so the sum over j runs over
the outer axis and adds the pairs in j order, one after another; a sum
along contiguous rows would be pairwise and round differently. Agents
closer than EPSILON_DIST get a random pair direction, drawn once per
coincident pair each step. `run_reference` records, with each state,
the velocity it then integrates from that state. `velocities`,
`step_positions` and `step_phases` are thin wrappers over the kernel.
Every constant comes from the run's `ScenarioConfig`: `n`, `duration`,
`dt` and the `ref.*` keys.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import EPSILON_DIST, SQUARES_LIMIT, TAU, NumericBlowup, random_unit

if TYPE_CHECKING:
    from .config import ScenarioConfig


def _kernel(cfg: ScenarioConfig, omega: np.ndarray, rng: np.random.Generator,
            state: np.ndarray):
    """The rates function of one run: it fills its (3, N) rates from
    `state` and returns them. Its argument says every coordinate is below
    geometry.COORD_LIMIT; otherwise a pair distance that overflows is not
    a distance, and both rates of the agents in that pair become NaN."""
    n = state.shape[1]
    rates, diffs, work, trig = (np.empty(s) for s in ((3, n), (3, n, n), (2, n, n), (2, n, n)))
    dist, tmp = np.empty((n, n)), np.empty((n, n))
    offsets, pd, coeff, coupling = diffs[:2], diffs[2], trig[0], trig[1]
    work_t = work.transpose(0, 2, 1)
    dist_diagonal, coeff_diagonal = (a.reshape(-1)[:: n + 1] for a in (dist, coeff))
    vel, dtheta = rates[:2], rates[2]
    a, j, b, k_n = cfg.ref_a, cfg.ref_j, cfg.ref_b, cfg.ref_k / n

    def step_rates(bounded: bool) -> np.ndarray:
        np.subtract(state[:, None, :], state[:, :, None], out=diffs)
        np.multiply(offsets, offsets, out=work)
        np.sqrt(np.add(work[0], work[1], out=dist), out=dist)
        # Held at 1 to keep divisions clean; diagonal terms are zero in every sum.
        dist_diagonal[:] = 1.0
        # fmin skips NaN, so a NaN distance cannot hide a near pair.
        if np.fmin.reduce(dist, axis=None) <= EPSILON_DIST:
            # An antisymmetric random direction per coincident pair, drawn
            # in row-major order, with the distance held at the floor.
            for p, q in zip(*np.nonzero(np.triu(dist <= EPSILON_DIST))):
                u = random_unit(rng)
                offsets[:, p, q] = u * EPSILON_DIST
                offsets[:, q, p] = -u * EPSILON_DIST
                dist[p, q] = dist[q, p] = EPSILON_DIST
        if not bounded:
            dist[np.isinf(dist)] = np.nan

        np.add(a, np.multiply(j, np.cos(pd, out=coeff), out=coeff), out=coeff)
        np.sin(pd, out=coupling)
        np.divide(trig, dist, out=trig)
        np.subtract(coeff, np.divide(b, np.multiply(dist, dist, out=tmp), out=tmp), out=coeff)
        coeff_diagonal[:] = 0.0
        # Written through the transposed view, so work[k, j, i] is the term
        # of pair (i, j) and the sum over axis 1 adds the j in sequence.
        np.multiply(coeff, offsets, out=work_t)
        np.add.reduce(work, axis=1, out=vel)
        np.divide(vel, n, out=vel)
        np.add.reduce(coupling, axis=1, out=dtheta)
        np.add(omega, np.multiply(k_n, dtheta, out=dtheta), out=dtheta)
        return rates

    return step_rates


def velocities(
    pos: np.ndarray, theta: np.ndarray, cfg: ScenarioConfig, rng: np.random.Generator
) -> np.ndarray:
    """Per-agent velocity field of the spatial dynamics."""
    return _kernel(cfg, np.zeros(len(pos)), rng, np.array((*pos.T, theta)))(False)[:2].T


def step_positions(
    pos: np.ndarray,
    theta: np.ndarray,
    cfg: ScenarioConfig,
    dt: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One Euler step of the spatial dynamics.

    Returns (new_positions, velocities); velocities are the pre-step
    values actually integrated.
    """
    vel = velocities(pos, theta, cfg, rng)
    return pos + vel * dt, vel


def step_phases(
    pos: np.ndarray,
    theta: np.ndarray,
    omega: np.ndarray,
    cfg: ScenarioConfig,
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One Euler step of the phase dynamics; result wrapped to [0, 2*pi)."""
    state = np.array((*pos.T, theta))
    new = state[2] + _kernel(cfg, omega, rng, state)(False)[2] * dt
    if not np.isfinite(new).all():
        raise ValueError("non-finite angle in array")
    return _wrap(new)


def assign_frequencies(
    n: int, base_omega: float, freq_var: float, rng: np.random.Generator
) -> np.ndarray:
    """Natural frequencies drawn uniformly from base +/- freq_var."""
    if freq_var == 0.0:
        return np.full(n, float(base_omega))
    return rng.uniform(base_omega - freq_var, base_omega + freq_var, size=n)


def init_state(
    cfg: ScenarioConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disordered start: positions uniform in a side-2 square centred at
    the origin, phases uniform on the circle.

    Draw order is fixed (positions, phases, frequencies) so a seed pins
    the whole initial condition.
    """
    pos = rng.uniform(-1.0, 1.0, size=(cfg.n, 2))
    theta = rng.uniform(0.0, TAU, size=cfg.n)
    omega = assign_frequencies(cfg.n, cfg.ref_omega, cfg.ref_freq_var, rng)
    return pos, theta, omega


def _wrap(theta: np.ndarray) -> np.ndarray:
    """Wrap finite phases into [0, 2*pi) in place, as `geometry.wrap_angle`
    does."""
    np.mod(theta, TAU, out=theta)
    # np.mod can round up to exactly TAU for tiny negative inputs.
    if np.maximum.reduce(theta) >= TAU:
        theta[theta >= TAU] -= TAU
    return theta


def _check_finite(step: int, xy: np.ndarray, scalar: np.ndarray) -> None:
    """Raise NumericBlowup naming the first agent with a non-finite entry
    in its row of `xy` (N, 2) or in `scalar` (N,)."""
    finite = np.isfinite(xy).all(axis=1) & np.isfinite(scalar)
    if not finite.all():
        raise NumericBlowup(step, int(np.argmin(finite)))


@dataclass
class ReferenceTrace:
    """Decimated trajectory of a reference run.

    The runner makes `thetas`, `positions` and `velocities`, reshaped to
    one row per agent per sample, the run's trace columns without copying
    them, so they must not be written after the run.
    """

    times: np.ndarray          # (T,)
    positions: np.ndarray      # (T, N, 2)
    thetas: np.ndarray         # (T, N)
    velocities: np.ndarray     # (T, N, 2) velocity field at each sample


def run_reference(
    cfg: ScenarioConfig,
    rng: np.random.Generator,
    trace_every: int = 1,
    state: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> ReferenceTrace:
    """Simulate the population for `cfg.duration` in steps of `cfg.dt`
    and return its decimated trajectory.

    `state` overrides the random initial condition (positions, thetas,
    omegas); `trace_every` keeps every k-th step plus the final one.
    Each sample's velocity is the one the next step integrates.
    Raises NumericBlowup naming the step and the first agent whose
    position, phase, pair distances or rates stop being finite.
    It trusts `cfg`, checked by `runner.run_config`, and only warns when
    |ref.j| > ref.a.
    """
    if abs(cfg.ref_j) > cfg.ref_a:
        warnings.warn(
            f"|j|={abs(cfg.ref_j)} exceeds a={cfg.ref_a}; pairwise attraction "
            "can reverse sign for antipodal phases",
            stacklevel=2,
        )
    if state is None:
        pos, theta, omega = init_state(cfg, rng)
    else:
        pos, theta, omega = (np.array(s, dtype=np.float64) for s in state)

    dt = cfg.dt
    steps = int(round(cfg.duration / dt))
    n = len(theta)
    samples = steps // trace_every + 1 + (steps % trace_every != 0)
    times, thetas = np.empty(samples), np.empty((samples, n))
    positions, vels = np.empty((samples, n, 2)), np.empty((samples, n, 2))
    x = np.array((*pos.T, theta))
    step_rates, move, flat_x = _kernel(cfg, omega, rng, x), np.empty((3, n)), x.reshape(-1)
    theta = x[2]
    sample = 0
    # Each step's checks report a non-finite or overflowing state as
    # NumericBlowup, naming the step and agent; numpy's warnings for it
    # would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        rates = step_rates(flat_x.dot(flat_x) < SQUARES_LIMIT)
        flat_rates = rates.reshape(-1)
        for step in range(steps + 1):
            if step > 0:
                x += np.multiply(rates, dt, out=move)
                # One sum of squares passes every state whose coordinates
                # are all small; anything else is scanned agent by agent.
                bounded = flat_x.dot(flat_x) < SQUARES_LIMIT
                if not bounded:
                    _check_finite(step, x[:2].T, theta)
                # `_wrap`, inlined to save a call per step.
                np.mod(theta, TAU, out=theta)
                if np.maximum.reduce(theta) >= TAU:
                    theta[theta >= TAU] -= TAU
                step_rates(bounded)
            # The initial rates count as step 1's, the first step to integrate them.
            if not flat_rates.dot(flat_rates) < math.inf:
                _check_finite(max(step, 1), rates[:2].T, rates[2])
            if step % trace_every == 0 or step == steps:
                times[sample] = step * dt
                positions[sample] = x[:2].T
                thetas[sample] = theta
                vels[sample] = rates[:2].T
                sample += 1

    return ReferenceTrace(times=times, positions=positions, thetas=thetas, velocities=vels)
