"""The benchmark's traced mode (`bench/run.py --trace 1`) wraps named
layer boundaries of the package from outside. A rename of any of them
must fail here, in the test suite, rather than only in a traced run."""

import importlib.util
from pathlib import Path

from swarmpulse import config, drone, engine, medium, metrics, pulse, reference, runner, smoothing
from swarmpulse.scenarios import scenario_text

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
OWNERS = (
    config, drone, engine.DroneSwarmEngine, medium.BroadcastMedium, metrics,
    pulse.PulsePopulation, reference, runner, smoothing.IdentityFilter,
    smoothing.MovingAverageFilter, smoothing.ExponentialFilter,
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_wraps_every_boundary_and_restores_them():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = load_tracer()
    tracer.install()
    try:
        assert drone.advance_clock is not before[1]["advance_clock"]
        cfg = config.parse_config(scenario_text("quincunx_ma10") + "duration = 0.5\n")
        result = runner.run_config(cfg, write=False)
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in OWNERS] == before

    spans = tracer.summary()
    assert spans["engine.step"]["calls"] == 100
    for kernel in ("drone.advance_clock", "drone.apply_motion"):
        assert spans[kernel]["calls"] == 100
    # One reception call per delivery, one filter push per recipient.
    delivered = result.summary["medium"]["delivered"]
    assert delivered > 0 and spans["drone.on_pulse_received"]["calls"] == delivered
    assert spans["smoothing.push"]["calls"] == (cfg.n - 1) * delivered
