"""Per-agent smoothing of movement commands.

Each received pulse yields one raw movement command; applying those
commands directly produces the small shuffling motions of a swarm whose
members react to one peer at a time. Two filters damp that artifact:

* moving average over the last N commands,
  out[n] = sum(x[n-i] for i in 0..N-1) / N;
* exponential smoothing with weight alpha,
  out[n] = alpha * x[n] + (1 - alpha) * out[n-1].

Both operate on 2D command vectors. Warm-up deliberately avoids
zero-padding: the moving average divides by the number of samples
actually seen, and the exponential filter initialises its state to the
first sample. Zero-padding would inject a phantom pull toward the origin
during the first commands after takeoff.

One filter instance belongs to exactly one agent and is never shared.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .geometry import vec

MODES = ("none", "moving_average", "exponential")


class IdentityFilter:
    """Pass-through used when smoothing is disabled."""

    def push(self, x: np.ndarray) -> np.ndarray:
        return np.array(x, dtype=np.float64)


class MovingAverageFilter:
    """Mean of the last `window` command vectors (fewer during warm-up)."""

    def __init__(self, window: int):
        if window < 1:
            raise ValueError(f"moving average window must be >= 1, got {window}")
        self.window = int(window)
        self._buf: deque[np.ndarray] = deque(maxlen=self.window)

    def push(self, x: np.ndarray) -> np.ndarray:
        self._buf.append(np.array(x, dtype=np.float64))
        total = vec(0.0, 0.0)
        for s in self._buf:
            total += s
        return total / len(self._buf)


class ExponentialFilter:
    """First-order recursive filter; state starts at the first sample."""

    def __init__(self, alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.state: np.ndarray | None = None

    def push(self, x: np.ndarray) -> np.ndarray:
        x = np.array(x, dtype=np.float64)
        if self.state is None:
            self.state = x
        else:
            self.state = self.alpha * x + (1.0 - self.alpha) * self.state
        return np.array(self.state)


def make_filter(mode: str, window: int = 10, alpha: float = 0.8):
    """Build a command filter from config values.

    mode is one of "none", "moving_average", "exponential".
    """
    if mode == "none":
        return IdentityFilter()
    if mode == "moving_average":
        return MovingAverageFilter(window)
    if mode == "exponential":
        return ExponentialFilter(alpha)
    raise ValueError(f"unknown smoothing mode {mode!r} (expected one of {MODES})")
