"""Pulse-coupled oscillator population.

The seed model for everything else in the package: N identical
oscillators whose phase climbs from 0 to 1 at a constant rate. On
reaching 1 an oscillator resets to 0 and fires a pulse; every other
oscillator responds by jumping its own phase to

    theta_new = (sqrt(theta) + k) ** 2

which is concave in theta, so oscillators close to firing jump further.
A response that reaches 1 is an absorption: the receiver fires
immediately within the same cascade. An oscillator fires at most once
per cascade and, having fired, ignores further pulses in that cascade.
That cap both prevents infinite pulse loops and makes synchrony
absorbing: once all phases are equal they fire as one group forever.

Determinism rules: crossings within a step are handled in ascending
crossing-time order (ties by ascending id); pulses raised during a
cascade are served FIFO with receivers visited in ascending id.
"""

from __future__ import annotations

from collections import deque

from .geometry import unit_phase_dist, wrap_unit_phase


def receive_pulse(theta: float, k: float) -> float:
    """Phase response of an oscillator at `theta` to one pulse.

    Returns the raw response value; a result >= 1.0 means the receiver
    fires immediately (absorption). Guarded so the output is never below
    the input even when the sqrt/square round trip rounds down.
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"unit phase out of range: {theta}")
    if k < 0.0:
        raise ValueError(f"coupling must be >= 0, got {k}")
    response = (theta ** 0.5 + k) ** 2
    return response if response > theta else theta


class PulsePopulation:
    """Ordered set of identical pulse-coupled oscillators."""

    def __init__(self, phases: list[float], k: float, rate: float = 1.0):
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.phases = [wrap_unit_phase(float(p)) for p in phases]
        self.k = float(k)
        self.rate = float(rate)
        self.t = 0.0

    @property
    def n(self) -> int:
        return len(self.phases)

    def spread(self) -> float:
        """Largest pairwise circular phase distance, in [0, 0.5]."""
        worst = 0.0
        for i in range(self.n):
            for j in range(i + 1, self.n):
                d = unit_phase_dist(self.phases[i], self.phases[j])
                if d > worst:
                    worst = d
        return worst

    def _cascade(self, first: int, now: float) -> list[tuple[float, int]]:
        """Fire `first` and propagate absorptions; returns (time, osc_id)
        fires in order."""
        fired = {first}
        queue = deque([first])
        events = [(now, first)]
        self.phases[first] = 0.0
        while queue:
            queue.popleft()
            for rid in range(self.n):
                if rid in fired:
                    continue
                if self.phases[rid] >= 1.0:
                    # Simultaneous crosser awaiting its turn: absorb it.
                    response = 1.0
                else:
                    response = receive_pulse(self.phases[rid], self.k)
                if response >= 1.0:
                    fired.add(rid)
                    self.phases[rid] = 0.0
                    queue.append(rid)
                    events.append((now, rid))
                else:
                    self.phases[rid] = response
        return events

    def advance(self, dt: float) -> list[tuple[float, int]]:
        """Advance the population by dt seconds, processing any fires.

        Phases grow at `rate`; each threshold crossing fires at its exact
        crossing instant with the usual cascade semantics. Returns every
        fire as (time, osc_id), in processing order.
        """
        if dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {dt}")
        events: list[tuple[float, int]] = []
        remaining = dt
        while remaining > 0.0:
            to_cross = min((1.0 - p) / self.rate for p in self.phases)
            step = min(to_cross, remaining)
            reaches_threshold = to_cross <= remaining
            for i in range(self.n):
                if reaches_threshold and (1.0 - self.phases[i]) / self.rate <= step:
                    self.phases[i] = 1.0
                else:
                    self.phases[i] += self.rate * step
            self.t += step
            remaining -= step
            # The >= sweep also catches a phase that rounding carried to
            # 1.0 even though its computed crossing time exceeded step.
            crossers = [i for i in range(self.n) if self.phases[i] >= 1.0]
            fired_now: set[int] = set()
            for c in crossers:
                if c in fired_now:
                    continue  # absorbed by an earlier crosser's cascade
                cascade_events = self._cascade(c, self.t)
                fired_now.update(osc_id for _, osc_id in cascade_events)
                events.extend(cascade_events)
        return events
