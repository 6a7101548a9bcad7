"""The benchmark's traced mode (`bench/run.py --trace 1`) wraps named
layer boundaries of the package from outside. A rename of any of them,
or a signature the wrappers cannot pass through, must fail here, in the
test suite, rather than only in a traced run."""

import importlib.util
from pathlib import Path

import pytest

from swarmpulse import config, drone, engine, medium, metrics, pulse, reference, runner, smoothing
from swarmpulse.scenarios import scenario_text

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
OWNERS = (
    config, drone, engine.DroneSwarmEngine, medium.BroadcastMedium, metrics,
    pulse.PulsePopulation, reference, runner, smoothing.IdentityFilter,
    smoothing.MovingAverageFilter, smoothing.ExponentialFilter,
)
# A short run of each model.
SHORT = {
    "drone": scenario_text("quincunx_ma10") + "duration = 0.5\n",
    "reference_swarmalator": scenario_text("table1_static_sync") + "duration = 0.5\n",
    "pulse": scenario_text("pulse_n9") + "duration = 2.0\n",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def traced_run(text, out):
    """Run `text` under an installed tracer, writing under `out`; check
    that uninstalling restores every wrapped attribute."""
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = load_tracer()
    tracer.install()
    try:
        assert drone.advance_clock is not before[1]["advance_clock"]
        cfg = config.parse_config(text)
        result = runner.run_config(cfg, out_dir=str(out))
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in OWNERS] == before
    return tracer, cfg, result


@pytest.mark.parametrize("model", sorted(SHORT))
def test_traced_run_writes_the_untraced_files(model, tmp_path):
    tracer, cfg, traced = traced_run(SHORT[model], tmp_path / "traced")
    plain = runner.run_config(config.parse_config(SHORT[model]), out_dir=str(tmp_path / "plain"))
    assert cfg.model == model
    assert sorted(traced.paths) == ["metrics", "phases", "positions", "summary"]
    for key, path in traced.paths.items():
        assert path.read_bytes() == plain.paths[key].read_bytes(), key

    spans = tracer.summary()
    assert spans["runner.run_config"]["calls"] == spans["config.parse_config"]["calls"] == 1
    # The writer keeps the names the tracer patches in `runner`: one
    # span per trace file and one for the summary.
    assert spans["traces.write_csv"]["calls"] == 3
    assert spans["traces.write_summary"]["calls"] == 1
    if model == "reference_swarmalator":
        assert spans["reference.run_reference"]["calls"] == 1
    elif model == "pulse":
        assert spans["pulse.advance"]["calls"] == round(cfg.duration / cfg.dt)
        assert tracer.counts["pulse.advance"] == traced.summary["fires_total"] > 0


def test_tracer_wraps_every_boundary_and_restores_them(tmp_path):
    tracer, cfg, result = traced_run(SHORT["drone"], tmp_path)
    spans = tracer.summary()
    assert all(path.stat().st_size > 0 for path in result.paths.values())
    # Of the run's 100 ticks, the quiet ones are glided over; the rest
    # each go through one step and its two kernels.
    steps = spans["engine.step"]["calls"]
    assert 0 < steps < 100
    for kernel in ("drone.advance_clock", "drone.apply_motion"):
        assert spans[kernel]["calls"] == steps
    # One reception call per delivery, one filter push per recipient.
    delivered = result.summary["medium"]["delivered"]
    assert delivered > 0 and spans["drone.on_pulse_received"]["calls"] == delivered
    assert spans["smoothing.push"]["calls"] == (cfg.n - 1) * delivered
