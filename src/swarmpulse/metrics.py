"""Observables over swarm snapshots.

Everything here is a pure function of a state snapshot (phases,
positions, or fire times), safe to call from anywhere. These are the
quantities the bundled scenarios trace and the acceptance checks assert
on: phase synchrony, inter-agent spacing, how closely the swarm matches
a regular polygon, and how evenly broadcasts are spaced in time.

The pair observables are array operations over the pairs i < j in
row-major order, whose index arrays are built once per agent count and
shared read-only (`_pairs`). A distance is `sqrt(vecdot(d, d))`, the
BLAS dot product `np.linalg.norm` uses, so it equals the norm of each
offset bit for bit; `sqrt(sum(d * d))` and `hypot` differ from it in the
last bit on some pairs. A phase difference is taken as theta_i - theta_j
for i < j only, because the other orientation can round differently.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import TAU

TARGET_POLYGONS = {"pentagon_ring": 5, "square_ring": 4}


@dataclass
class SpacingSample:
    t: float
    am: float
    gm: float
    min: float
    max: float


def order_parameter(thetas) -> float:
    """Magnitude of the mean unit phasor; 1 is perfect synchrony."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.size == 0:
        raise ValueError("order parameter of an empty phase list")
    return float(abs(np.mean(np.exp(1j * thetas))))


def mean_phase(thetas) -> float:
    """Angle of the mean unit phasor, in [0, 2*pi)."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.size == 0:
        raise ValueError("mean phase of an empty phase list")
    angle = cmath.phase(complex(np.mean(np.exp(1j * thetas))))
    return angle % (2.0 * math.pi)


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j) of every pair i < j of n agents, in row-major order;
    read-only, shared by every caller."""
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def max_pair_diff(thetas) -> float:
    """Largest absolute pairwise circular phase difference, in [0, pi]."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.size < 2:
        return 0.0
    i, j = _pairs(thetas.size)
    d = np.mod(thetas[i] - thetas[j], TAU)
    # |circ_diff|: d up to pi, else TAU - d (exactly -(d - TAU)), and the
    # smaller of the two is always the one circ_diff picks.
    return float(np.minimum(d, TAU - d).max())


def _pair_distances(positions: np.ndarray) -> np.ndarray:
    i, j = _pairs(positions.shape[0])
    diff = positions[j] - positions[i]
    return np.sqrt(np.vecdot(diff, diff))


def pairwise_spacing(positions, t: float = 0.0) -> SpacingSample:
    """Arithmetic/geometric mean and extremes of all pairwise distances."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape[0] < 2:
        raise ValueError("spacing needs at least two agents")
    d = _pair_distances(positions)
    gm = 0.0 if np.any(d == 0.0) else float(np.exp(np.mean(np.log(d))))
    return SpacingSample(
        t=t, am=float(np.mean(d)), gm=gm, min=float(np.min(d)), max=float(np.max(d))
    )


def rainbow_correlation(positions, thetas) -> float | None:
    """Circular-circular correlation between each agent's angular
    position about the swarm centroid and its phase.

    Uses the sine-product form: the sum over pairs of
    sin(a_i - a_j) * sin(b_i - b_j), normalised by the two marginal
    sine-square sums. Returns None when either variable is degenerate
    (all phases equal, or geometry collinear through the centroid).
    """
    positions = np.asarray(positions, dtype=np.float64)
    thetas = np.asarray(thetas, dtype=np.float64)
    if positions.shape[0] < 3:
        raise ValueError("rainbow correlation needs at least three agents")
    centroid = positions.mean(axis=0)
    rel = positions - centroid
    alpha = np.arctan2(rel[:, 1], rel[:, 0])

    i, j = _pairs(len(alpha))
    da = np.sin(alpha[i] - alpha[j])
    db = np.sin(thetas[i] - thetas[j])
    num = float(np.sum(da * db))
    den_a = float(np.sum(da**2))
    den_b = float(np.sum(db**2))
    if den_a < 1e-15 or den_b < 1e-15:
        return None
    return num / math.sqrt(den_a * den_b)


def broadcast_spacing_stats(fire_times) -> tuple[float, float, float]:
    """Gap statistics of the interleaved global fire sequence.

    `fire_times` is a per-agent collection of fire instants (any
    iterable of iterables). Returns (mean_gap, min_gap, jain_fairness)
    over consecutive gaps of the merged, sorted sequence. Fairness is
    (sum g)^2 / (M * sum g^2); all-equal gaps (including all-zero) score 1.
    """
    merged = sorted(t for times in fire_times for t in times)
    if len(merged) < 2:
        raise ValueError("need at least two fires for gap statistics")
    gaps = np.diff(np.array(merged))
    sq = float(np.sum(gaps**2))
    if sq == 0.0:
        jain = 1.0
    else:
        jain = float(np.sum(gaps)) ** 2 / (len(gaps) * sq)
    return float(np.mean(gaps)), float(np.min(gaps)), jain


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
