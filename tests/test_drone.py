"""Drone agent and engine: pairwise updates, clocks, motion, events."""

import math

import numpy as np
import pytest

from swarmpulse import drone as drone_mod
from swarmpulse import metrics
from swarmpulse.config import parse_config
from swarmpulse.drone import (
    Drone,
    DroneArrays,
    DroneParams,
    advance_clock,
    apply_motion,
    movement_command,
    on_pulse_received,
)
from swarmpulse.engine import DroneSwarmEngine, NumericBlowup, ScenarioEvent
from swarmpulse.geometry import TAU, circ_diff, seeded_rng, vec
from swarmpulse.medium import BroadcastMedium, PulseMessage
from swarmpulse.runner import build_drone_engine
from swarmpulse.scenarios import scenario_text
from swarmpulse.smoothing import IdentityFilter, make_filter

TABLE_PARAMS = DroneParams(k_visible=0.1, k_hidden=-0.1, j=0.8, a=1.0, b=3.0)


def drone(drone_id=0, pos=(0.0, 0.0), theta=0.0, hidden=0.0, omega=TAU, hidden_omega=TAU):
    """A lone drone on a one-row state of its own."""
    state = DroneArrays([pos], [(0.0, 0.0)], [(theta, hidden)], [(omega, hidden_omega)])
    return Drone(drone_id, state, filter=IdentityFilter())


def pulse_from(sender, pos, theta, sent_at=0.0, hidden=None):
    return PulseMessage(sender=sender, pos=vec(*pos), theta=theta, sent_at=sent_at, hidden=hidden)


def build_engine(seed=0, n=5, positions=None, params=None, events=(), dt=0.005,
                 mode="none", window=10, alpha=0.8, base_omega=TAU,
                 airtime=0.005, hidden_in_payload=False):
    eng = DroneSwarmEngine(
        params=params or DroneParams(),
        medium=BroadcastMedium(airtime=airtime),
        rng=seeded_rng(seed),
        dt=dt,
        base_omega=base_omega,
        hidden_in_payload=hidden_in_payload,
        filter_factory=lambda: make_filter(mode, window, alpha),
        events=list(events),
    )
    if positions is None:
        rr = seeded_rng(seed + 1000)
        positions = [rr.uniform(-1, 1, 2) for _ in range(n)]
    for p in positions:
        eng.add_drone(p)
    return eng


class TestPulseResponse:
    def test_equal_phases_no_visible_change(self):
        me = drone(theta=1.3)
        on_pulse_received(me, pulse_from(1, (1.0, 0.0), 1.3), TABLE_PARAMS)
        assert me.theta == 1.3

    def test_hand_evaluated_visible_kick(self):
        me = drone(theta=0.0)
        params = DroneParams(k_visible=0.1, k_hidden=0.0, j=0.8, a=1.0, b=3.0)
        on_pulse_received(me, pulse_from(1, (1.0, 0.0), math.pi / 2), params)
        assert me.theta == pytest.approx(0.1)

    def test_equilibrium_distance_zero_command(self):
        d_star = TABLE_PARAMS.b / (TABLE_PARAMS.a + TABLE_PARAMS.j)
        me = drone(theta=0.8)
        on_pulse_received(me, pulse_from(1, (d_star, 0.0), 0.8), TABLE_PARAMS)
        assert np.linalg.norm(me.command) < 1e-12

    def test_own_pulse_rejected(self):
        me = drone(drone_id=3)
        with pytest.raises(ValueError):
            on_pulse_received(me, pulse_from(3, (1.0, 0.0), 0.0), TABLE_PARAMS)

    def test_command_pushed_through_filter(self):
        me = drone()
        me.filter = make_filter("moving_average", 2)
        params = DroneParams(k_visible=0.0, k_hidden=0.0, j=0.0, a=1.0, b=0.5, speed_cap=10.0)
        on_pulse_received(me, pulse_from(1, (1.0, 0.0), 0.0), params)
        first = me.command.copy()
        on_pulse_received(me, pulse_from(1, (2.0, 0.0), 0.0), params)
        raw1 = np.array(movement_command(vec(1.0, 0.0), 0.0, params))
        raw2 = np.array(movement_command(vec(2.0, 0.0), 0.0, params))
        assert np.allclose(first, raw1)
        assert np.allclose(me.command, (raw1 + raw2) / 2)

    def test_speed_cap_applied_after_smoothing(self):
        me = drone()
        params = DroneParams(k_visible=0.0, k_hidden=0.0, j=0.0, a=5.0, b=0.001, speed_cap=0.3)
        on_pulse_received(me, pulse_from(1, (1.0, 0.0), 0.0), params)
        assert np.linalg.norm(me.command) == pytest.approx(0.3)

    def test_hidden_kick_repels_from_fire_instant(self):
        params = DroneParams(k_visible=0.0, k_hidden=-0.1)
        me = drone(hidden=0.3)
        on_pulse_received(me, pulse_from(1, (1.0, 0.0), 0.0), params)
        # pushed away from the sender's wrap point (0) toward antiphase:
        # psi = 0.3, kick 0.1 * sin(0.3) / (2 - cos(0.3)) = 0.0282886
        assert me.hidden == pytest.approx(0.3 + 0.1 * math.sin(0.3) / (2.0 - math.cos(0.3)))
        assert me.hidden == pytest.approx(0.328289, abs=1e-6)

    def test_hidden_payload_used_when_present(self):
        params = DroneParams(k_visible=0.0, k_hidden=-0.1)
        me = drone(hidden=0.3)
        on_pulse_received(me, pulse_from(1, (1.0, 0.0), 0.0, hidden=1.0), params)
        # psi = 0.3 - 1.0 = -0.7: pushed below the payload reference 1.0,
        # not away from 0; kick 0.1 * sin(0.7) / (2 - cos(0.7)) = 0.0521567
        assert me.hidden == pytest.approx(0.3 - 0.1 * math.sin(0.7) / (2.0 - math.cos(0.7)))
        assert me.hidden == pytest.approx(0.247843, abs=1e-6)

    def test_pairwise_update_ignores_swarm_size(self):
        # The update is a pure function of (state, message, params).
        results = []
        for _ in range(3):
            me = drone(theta=0.4, hidden=2.0, pos=(0.2, -0.1))
            on_pulse_received(me, pulse_from(9, (1.0, 0.7), 2.2), TABLE_PARAMS)
            results.append((me.theta, me.hidden, me.command.copy()))
        for theta, hidden, cmd in results[1:]:
            assert theta == results[0][0]
            assert hidden == results[0][1]
            assert np.array_equal(cmd, results[0][2])


class TestClock:
    def test_hidden_wrap_emits_broadcast_at_crossing(self):
        me = drone(theta=1.0, hidden=TAU - 0.01, omega=2.0, hidden_omega=1.0)
        due = advance_clock(me.state, 0.02)
        assert len(due) == 1
        row, first = due[0]
        assert row == me.row
        assert first.offset == pytest.approx(0.01)
        assert first.theta == pytest.approx(1.0 + 2.0 * 0.01)
        assert me.hidden == pytest.approx(0.01)

    def test_zero_omega_keeps_theta(self):
        me = drone(theta=0.7, omega=0.0, hidden_omega=1.0)
        advance_clock(me.state, 0.5)
        assert me.theta == 0.7

    def test_no_wrap_no_broadcast(self):
        me = drone(hidden=1.0)
        assert advance_clock(me.state, 0.01) == []

    def test_antiphase_pair_alternates_evenly(self):
        eng = build_engine(
            n=2,
            positions=[(-0.5, 0.0), (0.5, 0.0)],
            params=DroneParams(k_visible=0.0, k_hidden=0.0),
        )
        for d, hidden in zip(eng.alive_drones(), (0.0, math.pi)):
            d.hidden = hidden
        eng.run(5.0)
        senders = [s for _, s in eng.fire_log]
        assert all(a != b for a, b in zip(senders, senders[1:]))
        gaps = np.diff([t for t, _ in eng.fire_log])
        assert np.allclose(gaps, 0.5, atol=1e-9)


class TestBroadcastStaggering:
    """Hidden-phase repulsion must keep four or more drones off each
    other's airtime, not gather them into antiphase pairs that collide."""

    @staticmethod
    def _window(engine, t0, t1):
        engine.run(t0)
        before = engine.medium.stats.collisions
        engine.run(t1)
        per_agent = {}
        for t, aid in engine.fire_log:
            if t0 < t <= t1:
                per_agent.setdefault(aid, []).append(t)
        _, _, jain = metrics.broadcast_spacing_stats(per_agent.values())
        return engine.medium.stats.collisions - before, jain

    def test_bundled_quincunx_stays_collision_free(self):
        engine = build_drone_engine(parse_config(scenario_text("quincunx_ma10")))
        collisions, _ = self._window(engine, 20.0, 200.0)
        assert collisions == 0

    def test_six_random_drones_spread_evenly(self):
        cfg = parse_config(scenario_text("quincunx_ma10"))
        cfg.formation = "random"
        cfg.n = 6
        cfg.seed = 11
        engine = build_drone_engine(cfg)
        # Two drones whose broadcasts overlap from the first period never
        # hear each other under drop_all and are pulled apart only by the
        # slightly different kicks they get from the others, a separate
        # limit. This start has every pair of hidden phases more than one
        # airtime apart, so the staggering law alone decides the outcome.
        hidden = [d.hidden for d in engine.alive_drones()]
        airtime_arc = cfg.drone_omega * cfg.medium_airtime
        assert min(
            abs(circ_diff(a, b)) for i, a in enumerate(hidden) for b in hidden[i + 1:]
        ) > airtime_arc
        collisions, jain = self._window(engine, 40.0, 80.0)
        assert collisions == 0
        assert jain > 0.9


class TestMotion:
    def test_no_pulse_no_motion(self):
        me = drone(pos=(0.4, 0.2))
        apply_motion(me.state, 1.0)
        assert np.array_equal(me.pos, vec(0.4, 0.2))

    def test_constant_command_integrates(self):
        me = drone()
        me.command = vec(1.0, 0.0)
        apply_motion(me.state, 0.5)
        assert np.allclose(me.pos, vec(0.5, 0.0))

    def test_command_persists_between_pulses(self):
        me = drone()
        me.command = vec(0.2, -0.1)
        for _ in range(10):
            apply_motion(me.state, 0.1)
        assert np.allclose(me.pos, vec(0.2, -0.1))


class TestEngineInvariants:
    def test_duplicate_id_rejected(self):
        eng = build_engine(n=1, positions=[(0.0, 0.0)])
        with pytest.raises(ValueError):
            eng.add_drone((1.0, 1.0), drone_id=0)

    def test_uncoupled_spawned_drone_keeps_offset(self):
        eng = build_engine(n=3, params=DroneParams(k_visible=0.0, k_hidden=-0.1))
        r0 = metrics.order_parameter([d.theta for d in eng.alive_drones()])
        eng.run(10.0)
        r1 = metrics.order_parameter([d.theta for d in eng.alive_drones()])
        assert r1 == pytest.approx(r0, abs=1e-9)

    def test_zero_visible_coupling_leaves_fire_times_unchanged(self):
        base = build_engine(seed=5, params=DroneParams(k_visible=0.1, k_hidden=-0.1))
        ctrl = build_engine(seed=5, params=DroneParams(k_visible=0.0, k_hidden=-0.1))
        base.run(10.0)
        ctrl.run(10.0)
        assert base.fire_log == ctrl.fire_log

    def test_zero_hidden_coupling_leaves_visible_dynamics_unchanged(self):
        # Replay one fixed message schedule against both hidden gains.
        schedule = [
            pulse_from(9, (0.5, 0.2), 0.3),
            pulse_from(8, (-0.4, 0.1), 2.0),
            pulse_from(9, (0.3, -0.6), 4.4),
        ]
        thetas = []
        for k_hidden in (0.0, -0.1):
            params = DroneParams(k_visible=0.1, k_hidden=k_hidden, j=0.8, a=1.0, b=3.0)
            me = drone(theta=0.9, hidden=2.5)
            out = []
            for msg in schedule:
                advance_clock(me.state, 0.05)
                on_pulse_received(me, msg, params)
                out.append(me.theta)
            thetas.append(out)
        assert thetas[0] == thetas[1]

    def test_global_phase_shift_commutes(self):
        shift = 1.3
        base = build_engine(seed=6)
        shifted = build_engine(seed=6)
        for d in shifted.alive_drones():
            d.theta = (d.theta + shift) % TAU
        base.run(5.0)
        shifted.run(5.0)
        for b, s in zip(base.alive_drones(), shifted.alive_drones()):
            assert abs(circ_diff(s.theta, b.theta + shift)) < 1e-9
            assert np.allclose(s.pos, b.pos, atol=1e-9)

    def test_mirror_symmetric_pair_stays_mirrored(self):
        # Simultaneous broadcasts (deliver_all ablation) keep a mirror
        # configuration exactly mirrored: commands negate pairwise.
        eng = DroneSwarmEngine(
            params=DroneParams(k_visible=0.1, k_hidden=-0.1),
            medium=BroadcastMedium(airtime=0.005, collision_policy="deliver_all"),
            rng=seeded_rng(0),
            dt=0.005,
            base_omega=TAU,
            filter_factory=lambda: make_filter("moving_average", 10, 0.8),
        )
        eng.add_drone((-0.4, 0.0))
        eng.add_drone((0.4, 0.0))
        d0, d1 = eng.alive_drones()
        d0.theta = d1.theta = 0.5
        d0.hidden = d1.hidden = 2.0
        eng.run(10.0)
        assert np.allclose(d0.pos, -d1.pos, atol=1e-12)
        assert d0.theta == d1.theta

    def test_positive_coupling_shrinks_gap_every_pulse(self):
        params = DroneParams(k_visible=0.1, k_hidden=0.0)
        for gap in (0.3, 1.0, 2.0, 3.0):
            a = drone(drone_id=0, theta=0.0)
            b = drone(drone_id=1, theta=gap)
            g = gap
            for _ in range(40):
                on_pulse_received(a, pulse_from(1, (1.0, 0.0), b.theta), params)
                g_new = abs(circ_diff(b.theta, a.theta))
                assert g_new < g
                on_pulse_received(b, pulse_from(0, (-1.0, 0.0), a.theta), params)
                g2 = abs(circ_diff(b.theta, a.theta))
                assert g2 < g_new
                g = g2


class TestPayloadPrivacy:
    def _collect_messages(self, eng):
        sent = []
        original = eng.medium.broadcast

        def spy(msg):
            sent.append(msg)
            return original(msg)

        eng.medium.broadcast = spy
        return sent

    def test_hidden_phase_never_in_payload_by_default(self):
        eng = build_engine(seed=8, n=3)
        sent = self._collect_messages(eng)
        eng.run(3.0)
        assert sent
        assert all(m.hidden is None for m in sent)

    def test_payload_ablation_carries_hidden(self):
        eng = build_engine(seed=8, n=3, hidden_in_payload=True)
        sent = self._collect_messages(eng)
        eng.run(3.0)
        assert sent
        assert all(m.hidden is not None for m in sent)


class TestFrequencyVariation:
    def test_frequencies_drawn_within_bounds(self):
        params = DroneParams(k_visible=0.1, k_hidden=-0.1, freq_var=0.5)
        eng = build_engine(seed=9, n=20, params=params, base_omega=TAU)
        omegas = [d.omega for d in eng.alive_drones()]
        hidden_omegas = [d.hidden_omega for d in eng.alive_drones()]
        for w in omegas + hidden_omegas:
            assert TAU - 0.5 <= w <= TAU + 0.5
        assert len(set(omegas)) > 1
        assert omegas != hidden_omegas

    def test_zero_variation_all_equal(self):
        eng = build_engine(seed=9, n=4)
        assert {d.omega for d in eng.alive_drones()} == {TAU}


class TestEvents:
    def test_despawn_removes_from_traffic(self):
        events = [ScenarioEvent(time=2.0, kind="despawn", target=1)]
        eng = build_engine(seed=3, n=3, events=events)
        eng.run(6.0)
        assert not eng.drones[1].alive
        assert len(eng.alive_drones()) == 2
        late_fires = [s for t, s in eng.fire_log if t > 2.0 + eng.dt]
        assert 1 not in late_fires

    def test_despawn_nearest_centroid(self):
        events = [ScenarioEvent(time=1.0, kind="despawn", target="nearest_centroid")]
        positions = [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.05, 0.0)]
        eng = build_engine(n=5, positions=positions,
                           params=DroneParams(k_visible=0.0, k_hidden=0.0), events=events)
        eng.run(1.5)
        assert not eng.drones[4].alive

    def test_spawn_event_adds_listening_drone(self):
        events = [ScenarioEvent(time=1.0, kind="spawn", pos=np.array([2.0, 0.0]))]
        eng = build_engine(seed=4, n=2, events=events)
        eng.run(4.0)
        assert len(eng.alive_drones()) == 3
        assert any(s == 2 for _, s in eng.fire_log)

    def test_blowup_detected_and_named(self):
        eng = build_engine(n=2, positions=[(0.0, 0.0), (1.0, 0.0)])
        eng.drones[1].command = vec(math.inf, 0.0)
        with pytest.raises(NumericBlowup) as exc:
            eng.run(0.1)
        assert exc.value.agent_id == 1
        assert exc.value.tick >= 0


class TestRoster:
    """The engine decides who hears a pulse: every living drone but its
    sender, at the delivery instant."""

    @pytest.fixture
    def heard(self, monkeypatch):
        """(receiver id, sender id) of every reception, in order."""
        log = []
        receive = drone_mod.on_pulse_received
        monkeypatch.setattr(drone_mod, "on_pulse_received",
                            lambda d, p, *a: log.append((d.id, p.sender)) or receive(d, p, *a))
        return log

    def engine_with_pulse_in_flight(self, n):
        # Drone 0 fires at t = 0.011 and its pulse lands at 0.061; the
        # others' hidden phases start at 0, so they fire only at t = 1.
        eng = build_engine(n=0, airtime=0.05)
        for i in range(n):
            eng.add_drone(vec(float(i), 0.0), hidden=TAU * (1.0 - 0.011) if i == 0 else 0.0)
        eng.run(0.03)
        assert eng.fire_log == [(pytest.approx(0.011), 0)] and eng.medium.in_flight() == 1
        return eng

    def test_spawned_drone_hears_pulse_in_flight(self, heard):
        eng = self.engine_with_pulse_in_flight(2)
        eng.add_drone(vec(0.0, 1.0))
        eng.run(0.1)
        assert heard == [(1, 0), (2, 0)]

    def test_departed_senders_pulse_reaches_every_living_drone(self, heard):
        eng = self.engine_with_pulse_in_flight(3)
        eng.despawn(0)
        eng.run(0.1)
        assert heard == [(1, 0), (2, 0)]


class TestHandleWrites:
    """Writes through the engine's handles mid-run land in its arrays."""

    def test_zero_omega_freezes_theta_mid_run(self):
        eng = build_engine(seed=7, n=4, params=DroneParams(k_visible=0.0, k_hidden=-0.1))
        eng.run(1.0)
        eng.drones[2].omega = 0.0
        before = {d.id: d.theta for d in eng.alive_drones()}
        eng.run(2.5)
        after = {d.id: d.theta for d in eng.alive_drones()}
        assert after[2] == before[2]
        assert all(after[i] != before[i] for i in after if i != 2)

    def test_pos_and_command_writes_integrate_exactly(self):
        eng = build_engine(seed=7, n=3)
        eng.run(0.5)
        for d in eng.alive_drones():
            d.hidden_omega = 0.0  # no further broadcasts
        eng.run(0.5 + 2 * eng.dt)  # pulses already in flight land
        assert eng.medium.in_flight() == 0
        d = eng.drones[1]
        d.pos = vec(0.3, -0.2)
        d.command = vec(0.125, -0.0625)
        eng.step()
        assert np.array_equal(d.pos, vec(0.3, -0.2) + vec(0.125, -0.0625) * eng.dt)
        assert np.array_equal(d.command, vec(0.125, -0.0625))

    def test_departed_drone_keeps_its_last_state(self):
        eng = build_engine(seed=3, n=3)
        eng.run(1.0)
        d = eng.drones[1]
        last = (d.theta, d.hidden, d.pos)
        eng.despawn(1)
        eng.run(2.0)
        assert (d.theta, d.hidden) == last[:2] and np.array_equal(d.pos, last[2])
        assert [a.id for a in eng.alive_drones()] == [0, 2]


class TestOverflow:
    def test_overflowing_pair_distance_named(self):
        # Every coordinate is finite; the squared distance of 1 and 2 is not.
        eng = build_engine(n=3, positions=[(0.0, 0.0), (-1e154, 0.0), (1e154, 0.0)])
        with pytest.raises(NumericBlowup) as exc:
            eng.step()
        assert (exc.value.tick, exc.value.agent_id) == (1, 1)

    def test_large_but_safe_positions_run_on(self):
        # Past the fast check's bound, but no square overflows.
        eng = build_engine(n=2, positions=[(-4e153, 0.0), (4e153, 0.0)])
        eng.run(2.0)
        assert eng.tick == 400 and eng.fire_log


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        a = build_engine(seed=11, mode="moving_average")
        b = build_engine(seed=11, mode="moving_average")
        a.run(8.0)
        b.run(8.0)
        assert a.fire_log == b.fire_log
        for da, db in zip(a.alive_drones(), b.alive_drones()):
            assert da.theta == db.theta
            assert da.hidden == db.hidden
            assert np.array_equal(da.pos, db.pos)
