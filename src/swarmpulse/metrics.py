"""Observables over swarm snapshots.

Everything here is a pure function of a state snapshot (phases,
positions, or fire times), safe to call from anywhere. These are the
quantities the bundled scenarios trace and the acceptance checks assert
on: phase synchrony, inter-agent spacing, rainbow correlation, and how
evenly broadcasts are spaced in time.

The traced observables (order parameter, largest phase difference and
the four spacing statistics) have one kernel, `sample_metrics`, which
computes them for every sample of a run at once; `order_parameter`,
`max_pair_diff` and `pairwise_spacing` are its one-sample calls. The
pair observables are array operations over the pairs i < j in
row-major order, whose index arrays are built once per agent count and
shared read-only (`_pairs`). A distance is `sqrt(vecdot(d, d))`, the
BLAS dot product `np.linalg.norm` uses, so it equals the norm of each
offset bit for bit; `sqrt(sum(d * d))` and `hypot` differ from it in the
last bit on some pairs. A phase difference is taken as theta_i - theta_j
for i < j only, because the other orientation can round differently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import TAU

# Pairs per block of `sample_metrics`: enough 5- to 20-agent samples per
# block to amortise numpy's per-call cost, and temporaries of about
# 100 kB however long the run. Larger blocks gain no time and cost
# memory on crowds (32768 pairs added 11% to an 80-drone run's peak RSS).
CHUNK_PAIRS = 4096


@dataclass
class SpacingSample:
    am: float
    gm: float
    min: float
    max: float


def order_parameter(thetas) -> float:
    """Magnitude of the mean unit phasor; 1 is perfect synchrony."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.size == 0:
        raise ValueError("order parameter of an empty phase list")
    return float(sample_metrics([thetas.size], thetas)["order_param"][0])


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
    return float(sample_metrics([thetas.size], thetas)["max_pair_diff"][0])


def pairwise_spacing(positions) -> SpacingSample:
    """Arithmetic/geometric mean and extremes of all pairwise distances."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape[0] < 2:
        raise ValueError("spacing needs at least two agents")
    columns = sample_metrics([positions.shape[0]], pos=positions)
    return SpacingSample(**{key: float(col[0]) for key, col in columns.items()})


def sample_metrics(counts, theta=None, pos=None) -> dict[str, np.ndarray]:
    """The traced observables of every sample of a run, one column each.

    Sample k covers `counts[k]` consecutive rows of the flat `theta`
    (radians) and `pos` ((rows, 2)); either may be None. From `theta`
    come `order_param` (NaN for a sample of no agents) and
    `max_pair_diff` (0 below two agents); from `pos` come the pairwise
    distances' `am`, `gm`, `min` and `max` (NaN below two agents; `gm`
    is 0 when two agents coincide).

    Samples with the same agent count go through `_block_metrics`
    together, in blocks of at most CHUNK_PAIRS pairs (or agents), so the
    work is a few numpy calls per block and the temporaries are bounded
    by the block, not by the run. Each value is computed from the same
    numbers by the same operations as for one sample alone, bit for bit.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    out = {}
    if theta is not None:
        out["order_param"] = np.full(counts.size, np.nan)
        out["max_pair_diff"] = np.zeros(counts.size)
    if pos is not None:
        for key in ("am", "gm", "min", "max"):
            out[key] = np.full(counts.size, np.nan)
    # A set, not np.unique: the first np.unique call maps 1.7 MiB of sort code.
    for n in sorted(set(counts.tolist())):
        samples = np.flatnonzero(counts == n)
        per_block = max(1, CHUNK_PAIRS // max(n * (n - 1) // 2, n, 1))
        for a in range(0, samples.size, per_block):
            block = samples[a:a + per_block]
            _block_metrics(out, block, starts[block, None], n, theta, pos)
    return out


def _block_metrics(out, block, base, n, theta, pos) -> None:
    """Fill rows `block` of the `out` columns, for samples of n agents
    whose rows start at `base` ((k, 1)).

    Rows are gathered by flat index, so each sample's values form one
    C-contiguous row and a row mean is numpy's pairwise sum over it, as
    for a 1-D array; a strided row sums in another order. The phasor
    magnitude is `hypot(re, im)`, as the scalar `abs()`; `np.abs` of a
    complex array differs from it in the last bit.
    """
    i, j = _pairs(n)
    if theta is not None and n:
        z = np.mean(np.exp(1j * theta[base + np.arange(n)]), axis=1)
        out["order_param"][block] = np.hypot(z.real, z.imag)
        if n >= 2:
            # The shortest arc between the two phases: d if d <= pi, else
            # TAU - d (exactly -(d - TAU)), which np.minimum picks.
            d = np.mod(theta[base + i] - theta[base + j], TAU)
            out["max_pair_diff"][block] = np.minimum(d, TAU - d).max(axis=1)
    if pos is not None and n >= 2:
        diff = pos[base + j] - pos[base + i]
        d = np.sqrt(np.vecdot(diff, diff))
        # A zero distance makes its log -inf, so the row's gm is exactly 0.
        with np.errstate(divide="ignore"):
            out["gm"][block] = np.exp(np.mean(np.log(d), axis=1))
        out["am"][block] = np.mean(d, axis=1)
        out["min"][block] = d.min(axis=1)
        out["max"][block] = d.max(axis=1)


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
