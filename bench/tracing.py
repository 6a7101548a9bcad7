"""Span recorder for the traced run.

`Tracer.install()` wraps the public functions of each swarmpulse module
from the outside, by replacing the attribute its callers look up. Each
call becomes a span (name, start, end, parent), kept in flat arrays in
memory and written out once the pass is over. A span's self time is its
duration minus the durations of its direct children.

The wrappers cost time of their own on every call; that cost is why the
end-to-end metrics come from untraced runs.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, count=None):
        """Wrap `fn` so each call records a span named `name`.

        `count(args, result)`, if given, returns how much work the call
        did; it is summed into `counts[name]`.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                self.counts[name] += count(args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace `owner.attr` (a module or class attribute) by its span wrapper."""
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, count))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics name."""
        from swarmpulse import config, drone, engine, medium, metrics, pulse
        from swarmpulse import reference, runner, smoothing

        self.patch(config, "parse_config", "config.parse_config")
        self.patch(runner, "run_config", "runner.run_config")

        # runner imported these names; the bound copies are what it calls.
        self.patch(runner, "run_reference", "reference.run_reference")
        self.patch(runner, "write_csv", "traces.write_csv")
        self.patch(runner, "write_summary", "traces.write_summary")

        for fn in ("step_positions", "step_phases", "velocities"):
            self.patch(reference, fn, f"reference.{fn}")

        self.patch(pulse.PulsePopulation, "advance", "pulse.advance",
                   count=lambda args, fires: len(fires))
        self.patch(pulse.PulsePopulation, "spread", "pulse.spread")

        self.patch(engine.DroneSwarmEngine, "step", "engine.step")
        for fn in ("advance_clock", "on_pulse_received", "apply_motion"):
            self.patch(drone, fn, f"drone.{fn}")
        for cls in (smoothing.IdentityFilter, smoothing.MovingAverageFilter,
                    smoothing.ExponentialFilter):
            self.patch(cls, "push", "smoothing.push")

        self.patch(medium.BroadcastMedium, "broadcast", "medium.broadcast")
        self.patch(medium.BroadcastMedium, "poll_deliveries", "medium.poll_deliveries")

        def pairs(args, _result):
            n = len(args[0])
            return n * (n - 1) // 2

        self.patch(metrics, "pairwise_spacing", "metrics.pairwise_spacing", count=pairs)
        self.patch(metrics, "max_pair_diff", "metrics.max_pair_diff")
        self.patch(metrics, "order_parameter", "metrics.order_parameter")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time."""
        names = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
        selft = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_sum = np.bincount(names, weights=selft, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_sum[i])}
            for i, name in enumerate(self.names)
        }

    def dump(self, path: Path) -> None:
        """Write every span as arrays: name index, parent index, start, end."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
