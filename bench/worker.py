"""One fresh process: set up, then optionally run one pass over a workload.

    python3 bench/worker.py --workload W --seed S --out DIR [--pass] [--trace]

Set-up is the import of swarmpulse's public API and the parsing and
validation of the workload's configs; it is timed from before the first
swarmpulse import. A pass runs every config through `runner.run_config`,
writing its four trace files under DIR, and is timed from the first call
to the last file closed. Peak resident memory is read after the pass.
With --trace the layer boundaries are wrapped (tracing.py) before the
configs are parsed.

The last line of standard output is a JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import workloads

SRC = workloads.ROOT / "src"


def peak_rss_mb() -> float:
    """High-water resident memory of this process, in MiB.

    Read from VmHWM, which starts afresh at exec. getrusage's ru_maxrss
    does not: Linux carries it over from the parent across fork and exec,
    so it would report the benchmark's own memory when that is larger.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pass", dest="run_pass", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    texts = workloads.configs(args.workload, args.seed)

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    from swarmpulse import config, runner

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cfgs = [(name, config.parse_config(text)) for name, text in texts]
    setup_s = perf_counter() - t0
    if not Path(config.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"swarmpulse was imported from {config.__file__}, not from {SRC}")

    out = {"setup_s": setup_s}
    if args.run_pass:
        rows, fire_logs = 0, {}
        t1 = perf_counter()
        for name, cfg in cfgs:
            result = runner.run_config(cfg, name=name, out_dir=str(args.out))
            rows += len(result.phase_rows) + len(result.position_rows) + len(result.metric_rows)
            fire_logs[name] = result.fire_log
            del result
        out["run_s"] = perf_counter() - t1
        out["peak_rss_mb"] = peak_rss_mb()
        out["rows"] = rows
        for name, log in fire_logs.items():
            (args.out / name / "fire_log.json").write_text(json.dumps(log))
        if args.trace:
            tracer.uninstall()
            out["spans"] = tracer.summary()
            out["counts"] = dict(tracer.counts)
            tracer.dump(args.out / "spans.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
