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

Both rates come from one pair geometry (`_rates`), built once per step:
`run_reference` records, with each state, the velocity it then
integrates from that state. Agents closer than EPSILON_DIST get a random
pair direction, drawn once per coincident pair each time the geometry is
built. `velocities`, `step_positions` and `step_phases` are thin
wrappers over the same rates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import EPSILON_DIST, TAU, NumericBlowup, random_unit, wrap_angle_array


@dataclass
class SwarmParams:
    """Population-level coupling constants.

    k may be negative (desynchronising); a and b must be positive.
    freq_var is the half-width of the uniform spread applied to each
    agent's natural frequency.
    """

    n: int
    k: float
    j: float
    a: float = 1.0
    b: float = 3.0
    freq_var: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"population needs n >= 2, got {self.n}")
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError(f"a and b must be > 0, got a={self.a}, b={self.b}")
        if self.freq_var < 0.0:
            raise ValueError(f"freq_var must be >= 0, got {self.freq_var}")
        if abs(self.j) > self.a:
            warnings.warn(
                f"|j|={abs(self.j)} exceeds a={self.a}; pairwise attraction "
                "can reverse sign for antipodal phases",
                stacklevel=2,
            )


def _pair_geometry(pos: np.ndarray, rng: np.random.Generator | None):
    """Pairwise offsets and distances with the coincident-pair fallback
    applied.

    Returns (diff, dist) where diff[i, j] = x_j - x_i. The diagonal of
    dist is set to 1 to keep divisions clean; diagonal terms are masked
    out of every sum.
    """
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
        # Substitute an antisymmetric random direction per degenerate pair
        # and hold the distance at the floor value.
        for i, j in zip(*np.nonzero(np.triu(degenerate))):
            u = random_unit(rng)
            diff[i, j] = u * EPSILON_DIST
            diff[j, i] = -u * EPSILON_DIST
            dist[i, j] = dist[j, i] = EPSILON_DIST

    return diff, dist


def _rates(
    pos: np.ndarray,
    theta: np.ndarray,
    omega: np.ndarray,
    params: SwarmParams,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Velocity and phase rate of every agent, from one pair geometry.

    A pair distance that overflows is not a distance: it turns both
    rates of the agents in that pair into NaN.
    """
    n = pos.shape[0]
    diff, dist = _pair_geometry(pos, rng)
    dist[np.isinf(dist)] = np.nan
    phase_diff = theta[None, :] - theta[:, None]
    gain = params.a + params.j * np.cos(phase_diff)
    coeff = gain / dist - params.b / (dist * dist)
    np.fill_diagonal(coeff, 0.0)
    coupling = np.sin(phase_diff) / dist
    np.fill_diagonal(coupling, 0.0)
    vel = np.einsum("ij,ijk->ik", coeff, diff) / n
    dtheta = omega + (params.k / n) * np.sum(coupling, axis=1)
    return vel, dtheta


def velocities(
    pos: np.ndarray,
    theta: np.ndarray,
    params: SwarmParams,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per-agent velocity field of the spatial dynamics."""
    return _rates(pos, theta, np.zeros(pos.shape[0]), params, rng)[0]


def step_positions(
    pos: np.ndarray,
    theta: np.ndarray,
    params: SwarmParams,
    dt: float,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One Euler step of the spatial dynamics.

    Returns (new_positions, velocities); velocities are the pre-step
    values actually integrated.
    """
    vel = velocities(pos, theta, params, rng)
    return pos + vel * dt, vel


def step_phases(
    pos: np.ndarray,
    theta: np.ndarray,
    omega: np.ndarray,
    params: SwarmParams,
    dt: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One Euler step of the phase dynamics; result wrapped to [0, 2*pi)."""
    dtheta = _rates(pos, theta, omega, params, rng)[1]
    return wrap_angle_array(theta + dtheta * dt)


def assign_frequencies(
    n: int, base_omega: float, freq_var: float, rng: np.random.Generator
) -> np.ndarray:
    """Natural frequencies drawn uniformly from base +/- freq_var."""
    if freq_var < 0.0:
        raise ValueError(f"freq_var must be >= 0, got {freq_var}")
    if freq_var == 0.0:
        return np.full(n, float(base_omega))
    return rng.uniform(base_omega - freq_var, base_omega + freq_var, size=n)


def init_state(
    params: SwarmParams, rng: np.random.Generator, base_omega: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disordered start: positions uniform in a side-2 square centred at
    the origin, phases uniform on the circle.

    Draw order is fixed (positions, phases, frequencies) so a seed pins
    the whole initial condition.
    """
    pos = rng.uniform(-1.0, 1.0, size=(params.n, 2))
    theta = rng.uniform(0.0, TAU, size=params.n)
    omega = assign_frequencies(params.n, base_omega, params.freq_var, rng)
    return pos, theta, omega


def _check_finite(step: int, xy: np.ndarray, scalar: np.ndarray) -> None:
    """Raise NumericBlowup naming the first agent with a non-finite entry
    in its row of `xy` (N, 2) or in `scalar` (N,)."""
    finite = np.isfinite(xy).all(axis=1) & np.isfinite(scalar)
    if not finite.all():
        raise NumericBlowup(step, int(np.argmin(finite)))


@dataclass
class ReferenceTrace:
    """Decimated trajectory of a reference run."""

    times: np.ndarray          # (T,)
    positions: np.ndarray      # (T, N, 2)
    thetas: np.ndarray         # (T, N)
    velocities: np.ndarray     # (T, N, 2) velocity field at each sample
    omega: np.ndarray          # (N,)


def run_reference(
    params: SwarmParams,
    duration: float,
    dt: float,
    rng: np.random.Generator,
    base_omega: float = 0.0,
    trace_every: int = 1,
    state: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> ReferenceTrace:
    """Simulate the population and return its decimated trajectory.

    `state` overrides the random initial condition (positions, thetas,
    omegas); `trace_every` keeps every k-th step plus the final one.
    Each sample's velocity is the one the next step integrates.
    Raises NumericBlowup naming the step and the first agent whose
    position, phase, pair distances or rates stop being finite.
    """
    if dt <= 0.0 or duration <= 0.0:
        raise ValueError("duration and dt must be > 0")
    if state is None:
        pos, theta, omega = init_state(params, rng, base_omega)
    else:
        pos, theta, omega = (np.array(s, dtype=np.float64) for s in state)

    steps = int(round(duration / dt))
    times, positions, thetas, vels = [], [], [], []
    vel, dtheta = _rates(pos, theta, omega, params, rng)
    for step in range(steps + 1):
        if step > 0:
            pos = pos + vel * dt
            theta = theta + dtheta * dt
            _check_finite(step, pos, theta)
            theta = wrap_angle_array(theta)
            vel, dtheta = _rates(pos, theta, omega, params, rng)
        # The initial rates count as step 1's, the first step to integrate them.
        _check_finite(max(step, 1), vel, dtheta)
        if step % trace_every == 0 or step == steps:
            times.append(step * dt)
            positions.append(pos)
            thetas.append(theta)
            vels.append(vel)

    return ReferenceTrace(
        times=np.array(times),
        positions=np.array(positions),
        thetas=np.array(thetas),
        velocities=np.array(vels),
        omega=omega,
    )
