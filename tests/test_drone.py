"""Drone agent and engine: pairwise updates, clocks, motion, events."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmpulse import engine as engine_mod
from swarmpulse import metrics
from swarmpulse.config import parse_config
from swarmpulse.drone import (
    DroneArrays,
    DroneParams,
    advance_clock,
    apply_motion,
    on_pulse_received,
)
from swarmpulse.engine import DroneSwarmEngine, NumericBlowup, ScenarioEvent
from swarmpulse.geometry import TAU, seeded_rng, vec
from swarmpulse.medium import BroadcastMedium, PulseMessage
from swarmpulse.runner import build_drone_engine
from swarmpulse.scenarios import scenario_text
from swarmpulse.smoothing import IdentityFilter, make_filter

from helpers import DroneView, circ_diff, drones, hearers

TABLE_PARAMS = DroneParams(k_visible=0.1, k_hidden=-0.1, j=0.8, a=1.0, b=3.0)


def drone(drone_id=0, pos=(0.0, 0.0), theta=0.0, hidden=0.0, omega=TAU, hidden_omega=TAU,
          smoother=None):
    """A lone drone on a one-row state of its own."""
    state = DroneArrays([pos], [(0.0, 0.0)], [(theta, hidden)], [(omega, hidden_omega)])
    swarm = SimpleNamespace(state=state, ids=[drone_id], filters=[smoother or IdentityFilter()])
    return DroneView(swarm, drone_id)


def hear(me, msg, params):
    """`me`'s swarm hears `msg`."""
    on_pulse_received(me.state, me.swarm.ids, me.swarm.filters, msg, params)


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
        hear(me, pulse_from(1, (1.0, 0.0), 1.3), TABLE_PARAMS)
        assert me.theta == 1.3

    def test_hand_evaluated_visible_kick(self):
        me = drone(theta=0.0)
        params = DroneParams(k_visible=0.1, k_hidden=0.0, j=0.8, a=1.0, b=3.0)
        hear(me, pulse_from(1, (1.0, 0.0), math.pi / 2), params)
        assert me.theta == pytest.approx(0.1)

    def test_equilibrium_distance_zero_command(self):
        d_star = TABLE_PARAMS.b / (TABLE_PARAMS.a + TABLE_PARAMS.j)
        me = drone(theta=0.8)
        hear(me, pulse_from(1, (d_star, 0.0), 0.8), TABLE_PARAMS)
        assert np.linalg.norm(me.command) < 1e-12

    def test_own_pulse_not_heard(self):
        # Rows are drones 2, 3 and 7. Drone 3 sends from where it stands,
        # so serving its row would also draw from the RNG.
        state = DroneArrays([(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)], [(0.0, 0.0)] * 3,
                            [(0.5, 1.0), (0.3, 2.0), (0.1, 3.0)], [(TAU, TAU)] * 3)
        ids, filters = [2, 3, 7], [make_filter("moving_average", 2) for _ in range(3)]
        rng = seeded_rng(4)
        before = {f: getattr(state, f).copy() for f in DroneArrays.FIELDS}
        rng_before = rng.bit_generator.state
        on_pulse_received(state, ids, filters, pulse_from(3, (0.0, 0.0), 1.0), TABLE_PARAMS, rng)
        for f in DroneArrays.FIELDS:
            assert getattr(state, f)[1].tobytes() == before[f][1].tobytes()
        assert not filters[1]._buf
        assert rng.bit_generator.state == rng_before
        for row in (0, 2):
            assert len(filters[row]._buf) == 1 and state.command[row].any()
            assert state.phases[row, 0] != before["phases"][row, 0]

    def test_command_pushed_through_filter(self):
        me = drone(smoother=make_filter("moving_average", 2))
        params = DroneParams(k_visible=0.0, k_hidden=0.0, j=0.0, a=1.0, b=0.5, speed_cap=10.0)
        hear(me, pulse_from(1, (1.0, 0.0), 0.0), params)
        first = me.command.copy()
        hear(me, pulse_from(1, (2.0, 0.0), 0.0), params)
        # Raw commands at distance d: (a - b / d, 0), so (0.5, 0) and (0.75, 0).
        raw1, raw2 = vec(0.5, 0.0), vec(0.75, 0.0)
        assert np.allclose(first, raw1)
        assert np.allclose(me.command, (raw1 + raw2) / 2)

    def test_speed_cap_applied_after_smoothing(self):
        me = drone()
        params = DroneParams(k_visible=0.0, k_hidden=0.0, j=0.0, a=5.0, b=0.001, speed_cap=0.3)
        hear(me, pulse_from(1, (1.0, 0.0), 0.0), params)
        assert np.linalg.norm(me.command) == pytest.approx(0.3)

    def test_hidden_kick_repels_from_fire_instant(self):
        params = DroneParams(k_visible=0.0, k_hidden=-0.1)
        me = drone(hidden=0.3)
        hear(me, pulse_from(1, (1.0, 0.0), 0.0), params)
        # pushed away from the sender's wrap point (0) toward antiphase:
        # psi = 0.3, kick 0.1 * sin(0.3) / (2 - cos(0.3)) = 0.0282886
        assert me.hidden == pytest.approx(0.3 + 0.1 * math.sin(0.3) / (2.0 - math.cos(0.3)))
        assert me.hidden == pytest.approx(0.328289, abs=1e-6)

    def test_hidden_payload_used_when_present(self):
        params = DroneParams(k_visible=0.0, k_hidden=-0.1)
        me = drone(hidden=0.3)
        hear(me, pulse_from(1, (1.0, 0.0), 0.0, hidden=1.0), params)
        # psi = 0.3 - 1.0 = -0.7: pushed below the payload reference 1.0,
        # not away from 0; kick 0.1 * sin(0.7) / (2 - cos(0.7)) = 0.0521567
        assert me.hidden == pytest.approx(0.3 - 0.1 * math.sin(0.7) / (2.0 - math.cos(0.7)))
        assert me.hidden == pytest.approx(0.247843, abs=1e-6)

    def test_pairwise_update_ignores_swarm_size(self):
        # The update is a pure function of (state, message, params).
        results = []
        for _ in range(3):
            me = drone(theta=0.4, hidden=2.0, pos=(0.2, -0.1))
            hear(me, pulse_from(9, (1.0, 0.7), 2.2), TABLE_PARAMS)
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
        row, offset, theta = due[0]
        assert row == me.row
        assert offset == pytest.approx(0.01)
        assert theta == pytest.approx(1.0 + 2.0 * 0.01)
        assert me.hidden == pytest.approx(0.01)

    def test_zero_omega_keeps_theta(self):
        me = drone(theta=0.7, omega=0.0, hidden_omega=1.0)
        advance_clock(me.state, 0.5)
        assert me.theta == 0.7

    def test_no_wrap_no_broadcast(self):
        me = drone(hidden=1.0)
        assert advance_clock(me.state, 0.01) == []

    def test_each_step_uses_its_own_dt(self):
        me = drone(omega=1.0, hidden_omega=1.0)
        advance_clock(me.state, 0.01)
        advance_clock(me.state, 1.0)
        assert me.theta == pytest.approx(1.01)
        assert me.hidden == pytest.approx(1.01)

    def test_antiphase_pair_alternates_evenly(self):
        eng = build_engine(
            n=2,
            positions=[(-0.5, 0.0), (0.5, 0.0)],
            params=DroneParams(k_visible=0.0, k_hidden=0.0),
        )
        for d, hidden in zip(drones(eng), (0.0, math.pi)):
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
        hidden = [d.hidden for d in drones(engine)]
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
    def test_ids_follow_spawn_order_and_are_never_reused(self):
        eng = build_engine(n=3)
        eng.despawn(2)
        assert eng.add_drone((1.0, 1.0)) == 3
        eng.despawn(0)
        assert eng.add_drone((1.0, 1.0)) == 4
        eng.despawn(2)  # departed already: ignored
        for unknown in (-1, 5):
            with pytest.raises(KeyError):
                eng.despawn(unknown)
        assert eng.ids == [1, 3, 4] and eng.state.pos.shape == (3, 2)

    @pytest.mark.parametrize("change", ["spawn", "despawn"])
    def test_membership_change_rebinds_and_does_not_mutate(self, change):
        eng = build_engine(seed=3, n=3)
        eng.run(1.0)
        state, ids, filters = eng.state, eng.ids, eng.filters
        kept = (state.values.tobytes(), state.rates.tobytes(), list(ids), list(filters))
        if change == "spawn":
            eng.add_drone((0.5, 0.5))
        else:
            eng.despawn(1)
        assert (state.values.tobytes(), state.rates.tobytes(), ids, filters) == kept
        assert eng.state is not state and eng.ids is not ids and eng.filters is not filters
        assert eng.ids == ([0, 1, 2, 3] if change == "spawn" else [0, 2])

    def test_uncoupled_spawned_drone_keeps_offset(self):
        eng = build_engine(n=3, params=DroneParams(k_visible=0.0, k_hidden=-0.1))
        r0 = metrics.order_parameter([d.theta for d in drones(eng)])
        eng.run(10.0)
        r1 = metrics.order_parameter([d.theta for d in drones(eng)])
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
                hear(me, msg, params)
                out.append(me.theta)
            thetas.append(out)
        assert thetas[0] == thetas[1]

    def test_global_phase_shift_commutes(self):
        shift = 1.3
        base = build_engine(seed=6)
        shifted = build_engine(seed=6)
        for d in drones(shifted):
            d.theta = (d.theta + shift) % TAU
        base.run(5.0)
        shifted.run(5.0)
        for b, s in zip(drones(base), drones(shifted)):
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
        d0, d1 = drones(eng)
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
                hear(a, pulse_from(1, (1.0, 0.0), b.theta), params)
                g_new = abs(circ_diff(b.theta, a.theta))
                assert g_new < g
                hear(b, pulse_from(0, (-1.0, 0.0), a.theta), params)
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
        omegas = [d.omega for d in drones(eng)]
        hidden_omegas = [d.hidden_omega for d in drones(eng)]
        for w in omegas + hidden_omegas:
            assert TAU - 0.5 <= w <= TAU + 0.5
        assert len(set(omegas)) > 1
        assert omegas != hidden_omegas

    def test_zero_variation_all_equal(self):
        eng = build_engine(seed=9, n=4)
        assert {d.omega for d in drones(eng)} == {TAU}


class TestEvents:
    def test_despawn_removes_from_traffic(self):
        events = [ScenarioEvent(time=2.0, kind="despawn", target=1)]
        eng = build_engine(seed=3, n=3, events=events)
        eng.run(6.0)
        assert eng.ids == [0, 2]
        late_fires = [s for t, s in eng.fire_log if t > 2.0 + eng.dt]
        assert 1 not in late_fires

    def test_despawn_nearest_centroid(self):
        events = [ScenarioEvent(time=1.0, kind="despawn", target="nearest_centroid")]
        positions = [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.05, 0.0)]
        eng = build_engine(n=5, positions=positions,
                           params=DroneParams(k_visible=0.0, k_hidden=0.0), events=events)
        eng.run(1.5)
        assert eng.ids == [0, 1, 2, 3]

    def test_spawn_event_adds_listening_drone(self):
        events = [ScenarioEvent(time=1.0, kind="spawn", pos=np.array([2.0, 0.0]))]
        eng = build_engine(seed=4, n=2, events=events)
        eng.run(4.0)
        assert eng.ids == [0, 1, 2]
        assert any(s == 2 for _, s in eng.fire_log)

    def test_blowup_detected_and_named(self):
        eng = build_engine(n=2, positions=[(0.0, 0.0), (1.0, 0.0)])
        DroneView(eng, 1).command = vec(math.inf, 0.0)
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
        return hearers(monkeypatch)

    def engine_with_pulse_in_flight(self, n):
        # Drone 0 fires at t = 0.011 and its pulse lands at 0.061; the
        # others' hidden phases start at 0, so they fire only at t = 1.
        eng = build_engine(n=0, airtime=0.05)
        for i in range(n):
            DroneView(eng, eng.add_drone(vec(float(i), 0.0))).hidden = (
                TAU * (1.0 - 0.011) if i == 0 else 0.0
            )
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
    """Writes to the engine's rows mid-run, through test views, take
    effect."""

    def test_zero_omega_freezes_theta_mid_run(self):
        eng = build_engine(seed=7, n=4, params=DroneParams(k_visible=0.0, k_hidden=-0.1))
        eng.run(1.0)
        DroneView(eng, 2).omega = 0.0
        before = {d.id: d.theta for d in drones(eng)}
        eng.run(2.5)
        after = {d.id: d.theta for d in drones(eng)}
        assert after[2] == before[2]
        assert all(after[i] != before[i] for i in after if i != 2)

    def test_pos_and_command_writes_integrate_exactly(self):
        eng = build_engine(seed=7, n=3)
        eng.run(0.5)
        for d in drones(eng):
            d.hidden_omega = 0.0  # no further broadcasts
        eng.run(0.5 + 2 * eng.dt)  # pulses already in flight land
        assert eng.medium.in_flight() == 0
        d = DroneView(eng, 1)
        d.pos = vec(0.3, -0.2)
        d.command = vec(0.125, -0.0625)
        eng.step()
        assert np.array_equal(d.pos, vec(0.3, -0.2) + vec(0.125, -0.0625) * eng.dt)
        assert np.array_equal(d.command, vec(0.125, -0.0625))

    def test_despawn_keeps_the_other_rows(self):
        eng = build_engine(seed=3, n=3)
        eng.run(1.0)
        state, filters = eng.state, eng.filters
        eng.despawn(1)
        assert eng.ids == [0, 2]
        assert all(a is b for a, b in zip(eng.filters, filters[::2], strict=True))
        for f in DroneArrays.FIELDS:
            assert getattr(eng.state, f).tobytes() == getattr(state, f)[[0, 2]].tobytes()


class TestOverflow:
    @pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
    def test_overflowing_pair_distance_named(self):
        # Every coordinate is finite; the squared distance of 1 and 2 is not.
        eng = build_engine(n=3, positions=[(0.0, 0.0), (-1e154, 0.0), (1e154, 0.0)])
        with pytest.raises(NumericBlowup) as exc:
            eng.step()
        assert (exc.value.tick, exc.value.agent_id) == (1, 1)

    @pytest.mark.parametrize(
        "field, col, value, agent",
        [
            ("pos", 0, math.nan, 1),
            ("pos", 1, -math.inf, 0),
            ("command", 1, math.nan, 2),
            ("command", 0, math.inf, 3),
            ("phases", 0, math.nan, 3),
            ("phases", 1, math.nan, 2),
        ],
    )
    def test_non_finite_state_named_at_next_tick(self, field, col, value, agent):
        eng = build_engine(seed=2, n=4)
        eng.run(0.5)
        getattr(eng.state, field)[eng.ids.index(agent), col] = value
        with pytest.raises(NumericBlowup) as exc:
            eng.run(1.0)
        assert (exc.value.tick, exc.value.agent_id) == (101, agent)

    @pytest.mark.parametrize("col", [0, 1])
    @pytest.mark.parametrize("agent", [0, 1, 3])
    def test_non_finite_phase_met_by_a_pulse_named(self, col, agent):
        # Tick 56 is the first with a delivery; drone 2 sent the pulse.
        cfg = parse_config(scenario_text("quincunx_ma10")
                           + "scenario.n = 4\nscenario.formation = ring\nseed = 2\n")
        eng = build_drone_engine(cfg)
        eng.run(55 * eng.dt)
        eng.state.phases[eng.ids.index(agent), col] = math.nan
        with pytest.raises(NumericBlowup) as exc:
            eng.step()
        assert (exc.value.tick, exc.value.agent_id) == (56, agent)

    def test_non_finite_phase_of_a_firing_drone_named(self):
        eng = build_engine(seed=2, n=4)
        eng.run(1.0)
        for d in drones(eng):
            d.hidden = TAU - d.hidden_omega * eng.dt / 2  # every drone fires next tick
        eng.state.phases[eng.ids.index(2), 0] = math.nan
        with pytest.raises(NumericBlowup) as exc:
            eng.step()
        assert (exc.value.tick, exc.value.agent_id) == (201, 2)

    def test_overflowing_pair_distance_mid_run_named(self):
        # Drones 1 and 3 are 2e154 apart; each is 1e154 from the others.
        eng = build_engine(seed=2, n=4)
        eng.run(0.5)
        DroneView(eng, 1).pos = vec(-1e154, 0.0)
        DroneView(eng, 3).pos = vec(1e154, 0.0)
        with pytest.raises(NumericBlowup) as exc:
            eng.run(1.0)
        assert (exc.value.tick, exc.value.agent_id) == (101, 1)

    def test_far_spawn_names_the_spawned_drone(self):
        # Every state stays finite; only the distances to drone 2 overflow.
        eng = build_engine(n=2, positions=[(0.0, 0.0), (1.0, 0.0)])
        eng.add_drone((1e300, 0.0))
        with pytest.raises(NumericBlowup) as exc:
            eng.run(0.1)
        assert (exc.value.tick, exc.value.agent_id) == (1, 2)

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
        for da, db in zip(drones(a), drones(b)):
            assert da.theta == db.theta
            assert da.hidden == db.hidden
            assert np.array_equal(da.pos, db.pos)


GRID = st.integers(-4, 4).map(lambda v: v / 4)
# Event times: anywhere, on a tick boundary t1, or just past one, where
# `step` still applies them (time <= t1 + 1e-12).
EVENT_TIMES = st.one_of(
    st.floats(0.0, 3.0),
    st.integers(0, 600).map(lambda k: k * 0.005),
    st.integers(0, 600).map(lambda k: k * 0.005 + 5e-13),
)


@st.composite
def glide_setups(draw):
    """A small engine, its events, and how `run` is called. Positions on
    a 0.25 grid share coordinates, so some commands hold a -0.0."""
    n = draw(st.integers(1, 12))
    events = []
    if draw(st.booleans()):
        events.append(ScenarioEvent(draw(EVENT_TIMES), "spawn", pos=(draw(GRID), draw(GRID))))
    if n >= 2 and draw(st.booleans()):
        events.append(ScenarioEvent(draw(EVENT_TIMES), "despawn", target="nearest_centroid"))
    duration = draw(st.integers(10, 600)) * 0.005
    return {
        "seed": draw(st.integers(0, 2**16)),
        "positions": draw(st.lists(st.tuples(GRID, GRID), min_size=n, max_size=n)),
        "freq_var": draw(st.sampled_from([0.0, 0.5, 8.0])),
        "base_omega": draw(st.sampled_from([TAU, 1.0])),
        "airtime": draw(st.sampled_from([0.0, 0.005, 0.05])),
        "policy": draw(st.sampled_from(["drop_all", "deliver_all"])),
        "mode": draw(st.sampled_from(["none", "moving_average", "exponential"])),
        "events": events,
        "durations": [duration * draw(st.floats(0.0, 1.0)), duration]
        if draw(st.booleans()) else [duration],
        "sample_every": draw(st.sampled_from([1, 4, 7])),
        # Between split calls, write a command with a -0.0 through a test view.
        "poke": draw(st.booleans()),
        # 720 floats make glides of at most 9 ticks at n = 12
        "cap": draw(st.sampled_from([engine_mod.GLIDE_FLOATS, 720])),
    }


def glide_engine(setup):
    eng = DroneSwarmEngine(
        params=DroneParams(freq_var=setup["freq_var"]),
        medium=BroadcastMedium(airtime=setup["airtime"], collision_policy=setup["policy"]),
        rng=seeded_rng(setup["seed"]),
        base_omega=setup["base_omega"],
        filter_factory=lambda: make_filter(setup["mode"], 3, 0.8),
        events=list(setup["events"]),
    )
    for p in setup["positions"]:
        eng.add_drone(p)
    return eng


def kept_samples(eng):
    """The engine's kept columns as (t, values row bytes, ids, collision
    count) per sample, as `step_by_step` logs them."""
    times, counts, ids, theta, hidden, pos, vel, collisions = eng.trace_columns()
    out, a = [], 0
    for t, n, c in zip(times.tolist(), counts.tolist(), collisions.tolist()):
        b = a + n
        row = np.concatenate([pos[a:b], vel[a:b], np.column_stack([theta[a:b], hidden[a:b]])],
                             axis=None)
        out.append((t, row.tobytes(), ids[a:b].tolist(), c))
        a = b
    return out


def step_by_step(eng, duration, sample_every=1, log=()):
    """`run` as a loop over `step()`, one tick at a time. Returns `log`
    followed by its samples as (t, values row bytes, ids, collision
    count); t=0 is sampled only when `log` is empty."""
    log = list(log)

    def sample():
        log.append((eng.t, eng.state.values.tobytes(), eng.ids,
                    eng.medium.stats.collisions))

    total = int(round(duration / eng.dt))
    if eng.tick == 0 and not log:
        sample()
    while eng.tick < total:
        eng.step()
        if eng.tick % sample_every == 0 or eng.tick == total:
            sample()
    return log


class TestRunMatchesStep:
    """`run` glides over quiet ticks; every bit it leaves and shows
    matches stepping tick by tick."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(glide_setups())
    @example({
        # Three drones on y = 0, close enough to repel: commands hold a
        # y of -0.0, and about 100 ticks pass between pulses.
        "seed": 1, "positions": [(0.0, 0.0), (0.25, 0.0), (0.5, 0.0)], "freq_var": 0.0,
        "base_omega": TAU, "airtime": 0.005, "policy": "drop_all", "mode": "none",
        "events": [], "durations": [3.0], "sample_every": 4, "poke": False,
        "cap": engine_mod.GLIDE_FLOATS,
    })
    def test_run_equals_step_loop(self, setup):
        glided, stepped = glide_engine(setup), glide_engine(setup)
        stepped_log = []
        every = setup["sample_every"]
        with mock.patch.object(engine_mod, "GLIDE_FLOATS", setup["cap"]):
            for call, duration in enumerate(setup["durations"]):
                if call and setup["poke"]:
                    for eng in (glided, stepped):
                        drones(eng)[-1].command = vec(0.0625, -0.0)
                glided.run(duration, every)
                stepped_log = step_by_step(stepped, duration, every, stepped_log)
        assert kept_samples(glided) == stepped_log
        assert glided.tick == stepped.tick
        assert glided.state.values.tobytes() == stepped.state.values.tobytes()
        assert glided.fire_log == stepped.fire_log
        assert repr(glided.medium) == repr(stepped.medium)
        assert glided.rng.bit_generator.state == stepped.rng.bit_generator.state

    @pytest.mark.parametrize(
        "airtime, base_omega, event_time",
        [(1e308, TAU, 1.0), (0.005, 1e-320, 1.0), (0.005, TAU, 1e308), (0.005, TAU, math.nan)],
    )
    def test_far_horizons(self, airtime, base_omega, event_time):
        # Due times and tick counts too large for an int; a NaN event
        # never takes effect.
        setup = {
            "seed": 0, "positions": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], "freq_var": 0.0,
            "base_omega": base_omega, "airtime": airtime, "policy": "drop_all", "mode": "none",
            "events": [ScenarioEvent(event_time, "spawn", pos=(0.5, 0.5))],
        }
        glided, stepped = glide_engine(setup), glide_engine(setup)
        glided.run(3.0)
        step_by_step(stepped, 3.0)
        assert glided.state.values.tobytes() == stepped.state.values.tobytes()
        assert glided.fire_log == stepped.fire_log

    def test_negative_zero_phase_and_rate(self):
        # Per tick, np.mod turns a raw phase of -0.0 + -0.0 into 0.0. The
        # hidden phases start at 0, so nothing fires before t = 1.
        engines = []
        for _ in range(2):
            eng = build_engine(n=0)
            for x in (0.0, 1.0):
                d = DroneView(eng, eng.add_drone(vec(x, 0.0)))
                d.theta = d.hidden = 0.0
            DroneView(eng, 1).omega = -0.0
            eng.step()
            eng.state.phases[1, 0] = -0.0
            engines.append(eng)
        glided, stepped = engines
        glided.run(0.5)
        step_by_step(stepped, 0.5)
        assert glided.state.values.tobytes() == stepped.state.values.tobytes()
        assert math.copysign(1.0, DroneView(glided, 1).theta) == 1.0

    def test_call_of_no_ticks_keeps_t0_once(self):
        split, whole = build_engine(seed=3, n=4), build_engine(seed=3, n=4)
        split.run(0.001, 4)
        split.run(0.1, 4)
        whole.run(0.1, 4)
        for a, b in zip(split.trace_columns(), whole.trace_columns(), strict=True):
            assert a.tobytes() == b.tobytes()

    def test_unsampled_run_keeps_nothing(self):
        eng = build_engine(seed=3, n=5, events=[ScenarioEvent(2.0, "spawn", pos=(0.5, 0.5))])
        eng.run(5.0)
        assert eng.tick == 1000 and eng._ticks == [] and eng._segments == []

    def test_quiet_ticks_skip_step(self, monkeypatch):
        eng = build_engine(seed=3, n=5)
        step, calls = DroneSwarmEngine.step, []
        monkeypatch.setattr(DroneSwarmEngine, "step", lambda self: calls.append(1) or step(self))
        eng.run(5.0)
        assert eng.tick == 1000 and 0 < len(calls) < 500

