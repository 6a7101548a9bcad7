"""swarmpulse benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload ref_sync_n20 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --write-manifest      # rewrite BENCHMARK.json

Every measurement happens in a fresh worker process (worker.py), one at
a time, so the benchmark never uses more than one core for the program
and the peak memory read in a worker is that of one pass.

--trace 0 reports the end-to-end metrics. Set-up time is the median over
SETUP_SAMPLES set-up-only workers plus the set-up of every pass worker.
Then passes run back to back until --seconds have gone by; run time and
peak memory are medians over them.

--trace 1 alternates an untraced pass with a traced one for --seconds
and reports the per-layer metrics: medians of the traced passes' self
times, their counts, and the tracing overhead.

Every run of every pass is checked (checks.py). A run fails if the
program raised or a check found a problem; its trace files must also be
byte-identical to those of the first pass. The last line of standard
output is the JSON result; a readable table goes to standard error and
the result and the spans of the traced pass stay in bench/out/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = workloads.ROOT
OUT = BENCH / "out"
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 90

RUN_SECONDS = 20
END_TO_END = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]

# (metric, unit, span name, what to take from the span summary)
SPAN_METRICS = [
    ("runner.self_s", "s", "runner.run_config", "self_s"),
    ("config.parse_config_s", "s", "config.parse_config", "total_s"),
    ("reference.run_reference_s", "s", "reference.run_reference", "self_s"),
    ("reference.step_positions_s", "s", "reference.step_positions", "self_s"),
    ("reference.step_phases_s", "s", "reference.step_phases", "self_s"),
    ("reference.velocities_s", "s", "reference.velocities", "self_s"),
    ("reference.velocities_calls", "count", "reference.velocities", "calls"),
    ("pulse.advance_s", "s", "pulse.advance", "self_s"),
    ("pulse.spread_s", "s", "pulse.spread", "self_s"),
    ("engine.step_self_s", "s", "engine.step", "self_s"),
    ("engine.ticks", "count", "engine.step", "calls"),
    ("drone.advance_clock_s", "s", "drone.advance_clock", "self_s"),
    ("drone.on_pulse_received_s", "s", "drone.on_pulse_received", "self_s"),
    ("drone.on_pulse_received_calls", "count", "drone.on_pulse_received", "calls"),
    ("drone.apply_motion_s", "s", "drone.apply_motion", "self_s"),
    ("smoothing.push_s", "s", "smoothing.push", "self_s"),
    ("smoothing.push_calls", "count", "smoothing.push", "calls"),
    ("medium.broadcast_s", "s", "medium.broadcast", "self_s"),
    ("medium.poll_deliveries_s", "s", "medium.poll_deliveries", "self_s"),
    ("metrics.pairwise_spacing_s", "s", "metrics.pairwise_spacing", "self_s"),
    ("metrics.max_pair_diff_s", "s", "metrics.max_pair_diff", "self_s"),
    ("metrics.order_parameter_s", "s", "metrics.order_parameter", "self_s"),
    ("metrics.samples", "count", "metrics.order_parameter", "calls"),
    ("traces.write_csv_s", "s", "traces.write_csv", "self_s"),
    ("traces.write_summary_s", "s", "traces.write_summary", "self_s"),
]
OTHER_METRICS = [
    ("runner.rows", "count"),
    ("pulse.fires", "count"),
    ("medium.sent", "count"),
    ("medium.delivered", "count"),
    ("medium.dropped", "count"),
    ("medium.delivered_per_sent", "ratio"),
    ("metrics.pairs", "count"),
    ("traces.bytes", "B"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
]
# Better direction of a per-layer metric: times and work lower; pulses
# that get through the channel higher.
HIGHER_IS_BETTER = ("medium.delivered", "medium.delivered_per_sent")
PER_LAYER = [
    {"name": name, "unit": unit, "better": "higher" if name in HIGHER_IS_BETTER else "lower"}
    for name, unit, *_ in SPAN_METRICS + OTHER_METRICS
]


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in workloads.WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


class Bench:
    def __init__(self, workload: str, seed: int, out: Path):
        self.workload, self.seed, self.out = workload, seed, out
        self.texts = dict(workloads.configs(workload, seed))
        self.attempted = self.failed = 0
        self.problems: list[str] = []   # check findings: wrong output
        self.errors: list[str] = []     # passes the program did not finish
        self.first_digests: dict[str, dict[str, str]] | None = None

    def worker(self, *flags: str, pass_dir: Path | None = None) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(pass_dir or self.out), *flags]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run_pass(self, trace: bool) -> dict | None:
        """One pass in a fresh worker, then the checks on every run in it."""
        pass_dir = self.out / "pass"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        self.attempted += len(self.texts)
        try:
            res = self.worker("--pass", *(["--trace"] if trace else []), pass_dir=pass_dir)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            self.failed += len(self.texts)
            self.errors.append(f"pass failed: {exc}")
            return None
        digests, size = {}, 0
        for name, text in self.texts.items():
            run_dir = pass_dir / name
            fire_log = json.loads((run_dir / "fire_log.json").read_text())
            summary = json.loads((run_dir / "summary.json").read_text())
            problems = checks.check_run(run_dir, text, fire_log, summary,
                                        full_length=self.workload == "ref_sync_n20")
            digests[name] = checks.digests(run_dir)
            if self.first_digests is not None and digests[name] != self.first_digests[name]:
                problems.append("trace files differ from the first pass")
            if problems:
                self.failed += 1
                self.problems += [f"{name}: {p}" for p in problems]
            size += sum((run_dir / f).stat().st_size for f in checks.TRACE_FILES)
            res.setdefault("medium", []).append(summary.get("medium"))
        if self.first_digests is None:
            self.first_digests = digests
        if trace:
            (pass_dir / "spans.npz").replace(self.out / "spans.npz")
        shutil.rmtree(pass_dir)
        res["bytes"] = size
        return res


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the traced passes (medians of the times)."""
    def median_of(fn):
        return statistics.median(fn(r) for r in traced)

    def span(name, field):
        return lambda r: r["spans"].get(name, {}).get(field, 0)

    values = {metric: median_of(span(name, field)) for metric, _, name, field in SPAN_METRICS}
    last = traced[-1]
    media = [m for m in last["medium"] if m is not None]
    sent = sum(m["sent"] for m in media)
    delivered = sum(m["delivered"] for m in media)
    values.update({
        "runner.rows": last["rows"],
        "pulse.fires": last["counts"].get("pulse.advance", 0),
        "medium.sent": sent,
        "medium.delivered": delivered,
        "medium.dropped": sum(m["dropped"] for m in media),
        "medium.delivered_per_sent": delivered / sent if sent else 0.0,
        "metrics.pairs": last["counts"].get("metrics.pairwise_spacing", 0),
        "traces.bytes": last["bytes"],
        "trace.run_s": median_of(lambda r: r["run_s"]),
    })
    values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(r["run_s"] for r in untraced)
    return values


def counts_repeat(traced: list[dict]) -> bool:
    """Whether every traced pass did exactly the same work."""
    def work(r):
        return {k: v["calls"] for k, v in r["spans"].items()}, r["counts"], r["rows"], r["bytes"]
    return all(work(r) == work(traced[0]) for r in traced)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "swarmpulse" / "runner.py").is_file():
        print(f"no swarmpulse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = args.seed % 2**64

    out = OUT / f"{args.workload}-seed{seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    bench = Bench(args.workload, seed, out)

    # Warm-up: compiles the bytecode caches, which a user pays once.
    bench.worker()
    setups = [] if args.trace else [bench.worker()["setup_s"] for _ in range(SETUP_SAMPLES)]
    untraced, traced = [], []
    start = perf_counter()
    while True:
        res = bench.run_pass(trace=False)
        if res is not None:
            untraced.append(res)
        if args.trace:
            res = bench.run_pass(trace=True)
            if res is not None:
                traced.append(res)
        if perf_counter() - start >= args.seconds:
            break

    if args.trace:
        if traced and untraced:
            values = layer_metrics(traced, untraced)
            if not counts_repeat(traced):
                bench.problems.append("per-layer counts differ between traced passes")
        else:
            values = {}
        units = {m["name"]: m["unit"] for m in PER_LAYER}
    else:
        setups += [r["setup_s"] for r in untraced]
        values = {"setup_s": statistics.median(setups)}
        if untraced:
            values["run_s"] = statistics.median(r["run_s"] for r in untraced)
            values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in untraced)
        units = {m["name"]: m["unit"] for m in END_TO_END}

    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
    for p in bench.errors[:3] + bench.problems[:20]:
        print(f"FAILED: {p}", file=sys.stderr)
    print(f"{args.workload} seed {seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"passes, {bench.attempted} runs, {bench.failed} failed", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    (out / "result.json").write_text(json.dumps(
        {**result, "passes": {"untraced": untraced, "traced": traced}, "setup_samples": setups},
        indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
