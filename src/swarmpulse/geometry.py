"""Circular arithmetic, planar vectors, and seeded randomness.

Everything downstream (oscillator models, the broadcast medium, metrics)
builds on these helpers, so behaviour here is pinned down tightly:

* angles live in [0, 2*pi), unit phases in [0, 1), and every constructor
  wraps its input back into range;
* positions are 2D float64 numpy arrays;
* randomness comes from one named generator (PCG64) so a seed fully
  determines a run on any platform.
"""

from __future__ import annotations

import math

import numpy as np

TAU = 2.0 * math.pi

# Below this separation the direction between two agents is undefined and
# callers must substitute a random unit vector (see `random_unit`).
EPSILON_DIST = 1e-6


class SingularityError(ValueError):
    """Raised when a direction is requested between (near-)coincident points."""


class NumericBlowup(RuntimeError):
    """A model's state stopped being finite; names the tick and the agent."""

    def __init__(self, tick: int, agent_id: int):
        super().__init__(f"non-finite state at tick {tick} for agent {agent_id}")
        self.tick = tick
        self.agent_id = agent_id


def _require_finite(x: float, what: str) -> None:
    if not math.isfinite(x):
        raise ValueError(f"non-finite {what}: {x!r}")


def wrap_angle(raw: float) -> float:
    """Wrap an angle in radians into [0, 2*pi).

    Raises ValueError for NaN/inf input.
    """
    _require_finite(raw, "angle")
    wrapped = raw % TAU
    # Python's % can round up to exactly TAU for tiny negative inputs.
    if wrapped >= TAU:
        wrapped -= TAU
    return wrapped


def wrap_angle_array(raw: np.ndarray) -> np.ndarray:
    """Vectorised `wrap_angle` for float64 arrays."""
    if not np.all(np.isfinite(raw)):
        raise ValueError("non-finite angle in array")
    wrapped = np.mod(raw, TAU)
    return np.where(wrapped >= TAU, wrapped - TAU, wrapped)


def circ_diff(a: float, b: float) -> float:
    """Shortest signed angular distance from b to a, in (-pi, pi].

    Antisymmetric except at exactly pi, where the tie resolves to +pi so
    the result is totally ordered and reproducible.
    """
    d = (a - b) % TAU
    if d > math.pi:
        d -= TAU
    return d


def wrap_unit_phase(raw: float) -> float:
    """Wrap a dimensionless phase into [0, 1)."""
    _require_finite(raw, "unit phase")
    wrapped = raw % 1.0
    if wrapped >= 1.0:
        wrapped -= 1.0
    return wrapped


def unit_phase_dist(a: float, b: float) -> float:
    """Circular distance between two unit phases, in [0, 0.5]."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def vec(x: float, y: float) -> np.ndarray:
    """Build a 2D float64 vector."""
    return np.array([x, y], dtype=np.float64)


def norm(v: np.ndarray) -> float:
    """Euclidean length of a 2D vector."""
    return float(math.hypot(v[0], v[1]))


def unit(v: np.ndarray) -> np.ndarray:
    """Unit vector along v.

    Raises SingularityError when |v| <= EPSILON_DIST; the caller decides
    the fallback (normally a random unit vector from the scenario RNG).
    """
    n = norm(v)
    if n <= EPSILON_DIST:
        raise SingularityError(f"cannot normalise near-zero vector (|v|={n:g})")
    return v / n


def random_unit(rng: np.random.Generator) -> np.ndarray:
    """Deterministic pseudo-random unit vector from the scenario RNG.

    Used as the direction fallback for (near-)coincident agents.
    """
    angle = rng.uniform(0.0, TAU)
    return vec(math.cos(angle), math.sin(angle))


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic random stream for a scenario.

    The generator is PCG64; a given seed yields the identical draw
    sequence on every platform. One stream per scenario, owned by the
    engine loop.
    """
    return np.random.Generator(np.random.PCG64(seed))
