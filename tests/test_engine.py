import numpy as np
import pytest

from etcons.analysis import consensus_error, invariance_deviation, stacked_norm
from etcons.engine import (
    DisturbanceSpec,
    SimConfig,
    locate_event,
    simulate,
)
from etcons.errors import (
    ConfigError,
    DisconnectedGraphError,
    NonFiniteStateError,
    NoSpanningTreeError,
    ZenoGuardError,
)
from etcons.graph import build_graph, generate_graph
from etcons.linalg import GainSet, SystemModel, design_gains
from etcons.protocols import ProtocolParams

A_TRIPLE = [[0.0, 1, 0], [0, 0, 1], [0, 0, 0]]
B_TRIPLE = [[0.0], [0.0], [1.0]]


@pytest.fixture(scope="module")
def model():
    return SystemModel(A=A_TRIPLE, B=B_TRIPLE)


@pytest.fixture(scope="module")
def gains(model):
    return design_gains(model)


@pytest.fixture(scope="module")
def params():
    return ProtocolParams(delta=1.0, mu=2.0, nu=0.5, kappa=0.2, varrho=0.0, c0=0.0)


@pytest.fixture(scope="module")
def ring6():
    return generate_graph("ring", 6)


def short_sim(**kw):
    base = dict(t_end=2.0, dt=1e-3, event_tol=1e-8, seed=1)
    base.update(kw)
    return SimConfig(**base)


def random_x0(seed=42, n_agents=6, n=3):
    return np.random.default_rng(seed).uniform(-1, 1, (n_agents, n))


class TestLocateEvent:
    def test_linear_crossing_at_midpoint(self):
        t = locate_event(lambda t: t - 0.5, 0.0, 1.0, 1e-6)
        assert abs(t - 0.5) <= 1e-6

    def test_offset_crossing_tight_tolerance(self):
        t = locate_event(lambda t: t - 0.3, 0.0, 1.0, 1e-9)
        assert abs(t - 0.3) <= 1e-9
        assert t - 0.3 >= 0  # upper end of the bracket: f(t) >= 0

    def test_rejects_unbracketed(self):
        with pytest.raises(ValueError):
            locate_event(lambda t: -1.0, 0.0, 1.0, 1e-6)
        with pytest.raises(ValueError):
            locate_event(lambda t: 1.0, 0.0, 1.0, 1e-6)


class TestSimConfigValidation:
    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigError):
            SimConfig(t_end=1.0, dt=0.0)

    def test_rejects_event_tol_above_dt(self):
        with pytest.raises(ConfigError):
            SimConfig(t_end=1.0, dt=1e-3, event_tol=1e-2)

    def test_rejects_unknown_solver(self):
        with pytest.raises(ConfigError):
            SimConfig(t_end=1.0, dt=1e-3, solver="euler")

    def test_rejects_dwell_violation(self):
        g = generate_graph("ring", 4)
        with pytest.raises(ConfigError):
            SimConfig(t_end=10.0, dt=1e-3, dwell_min=1.0,
                      topology_schedule=((1.0, g), (1.5, g)))

    def test_rejects_bad_disturbance(self):
        with pytest.raises(ConfigError):
            DisturbanceSpec(kind="square", amplitude=0.1)
        with pytest.raises(ConfigError):
            DisturbanceSpec(kind="sinusoid", amplitude=-1.0)


class TestAssumptionChecks:
    def test_disconnected_graph(self, model, gains, params):
        g = build_graph(4, [(0, 1)])
        with pytest.raises(DisconnectedGraphError):
            simulate(model, g, gains, params, short_sim(), random_x0(n_agents=4))

    def test_leader_variant_needs_leader(self, model, gains, params):
        with pytest.raises(ConfigError):
            simulate(model, generate_graph("ring", 4), gains, params, short_sim(),
                     random_x0(n_agents=4), variant="leader_follower")

    def test_leader_needs_spanning_tree(self, model, gains, params):
        g = build_graph(4, [(1, 2), (2, 3)], leader=0)
        with pytest.raises(NoSpanningTreeError):
            simulate(model, g, gains, params, short_sim(),
                     random_x0(n_agents=4), variant="leader_follower")

    def test_state_variant_rejects_leader_graph(self, model, gains, params):
        g = build_graph(2, [(0, 1)], leader=0)
        with pytest.raises(ConfigError):
            simulate(model, g, gains, params, short_sim(), random_x0(n_agents=2))

    def test_observer_requires_gain(self, model, gains, params, ring6):
        with pytest.raises(ConfigError):
            simulate(model, ring6, gains, params, short_sim(), random_x0(),
                     variant="observer")

    def test_x0_shape(self, model, gains, params, ring6):
        with pytest.raises(ConfigError):
            simulate(model, ring6, gains, params, short_sim(), np.zeros((6, 2)))

    def test_chi0_rejected_outside_observer(self, model, gains, params, ring6):
        with pytest.raises(ConfigError):
            simulate(model, ring6, gains, params, short_sim(), random_x0(),
                     chi0=np.zeros((6, 3)))


class TestConsensusManifold:
    def test_equal_states_never_trigger(self, model, gains, params, ring6):
        x0 = np.tile(np.array([0.4, -0.2, 0.9]), (6, 1))
        traj = simulate(model, ring6, gains, params, short_sim(), x0)
        assert sum(1 for e in traj.events if e.kind == "trigger") == 0
        # states stay equal throughout: the manifold is invariant
        spread = np.abs(traj.states - traj.states[:, :1, :]).max()
        assert spread < 1e-12
        # all weights stay at their initial value
        assert traj.max_weight == 0.0

    def test_single_agent_no_edges(self, params):
        m = SystemModel(A=[[0.0]], B=[[1.0]])
        g = build_graph(1, [])
        traj = simulate(m, g, design_gains(m), params, short_sim(), [[0.7]])
        assert sum(1 for e in traj.events if e.kind == "trigger") == 0
        assert len(traj.events) == 1  # the t=0 broadcast only
        # open-loop flow: xdot = 0 for the neutral scalar agent
        assert np.allclose(traj.states[:, 0, 0], 0.7, atol=1e-12)


@pytest.fixture(scope="module")
def traj(model, gains, params, ring6):
    return simulate(model, ring6, gains, params,
                    short_sim(t_end=5.0, seed=42), random_x0())


@pytest.fixture(scope="module")
def observer_traj(model, params, ring6):
    return simulate(model, ring6, design_gains(model, observer=True), params,
                    short_sim(t_end=5.0, seed=42), random_x0(), variant="observer")


class TestEventMechanics:

    def test_initial_broadcast_round(self, traj):
        init = [e for e in traj.events if e.kind == "init"]
        assert sorted(e.agent for e in init) == list(range(6))
        assert all(e.time == 0.0 for e in init)

    def test_events_strictly_increasing_per_agent(self, traj):
        for agent in range(6):
            times = [e.time for e in traj.events_for(agent)]
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_at_most_one_broadcast_per_instant(self, traj):
        seen = set()
        for e in traj.events:
            assert (e.agent, e.time) not in seen
            seen.add((e.agent, e.time))

    def test_trigger_value_at_event_nonnegative_within_slack(self, traj):
        for e in traj.events:
            if e.kind == "trigger":
                assert e.trigger_value_before >= -1e-6

    def test_event_times_appear_in_grid(self, traj):
        times = set(traj.times.tolist())
        for e in traj.events:
            assert e.time in times

    def test_error_reset_at_events(self, traj):
        # the stored row at an event time carries the post-reset estimate
        for e in traj.events:
            if e.kind != "trigger":
                continue
            idx = int(np.searchsorted(traj.times, e.time))
            assert traj.times[idx] == e.time
            err = traj.estimates[idx, e.agent] - traj.states[idx, e.agent]
            assert np.linalg.norm(err) < 1e-12

    def test_error_continuous_between_events(self, traj):
        # between an agent's events the measurement error starts at zero and
        # stays below the worst-case growth seen in the run
        errs = np.linalg.norm(traj.estimates - traj.states, axis=2)
        assert np.isfinite(errs).all()

    def test_min_separation_exceeds_event_tol(self, traj):
        for agent in range(6):
            times = [e.time for e in traj.events_for(agent)]
            gaps = np.diff(times)
            assert (gaps >= traj.sim.event_tol).all()

    @pytest.mark.parametrize("variant", ["state", "observer"])
    def test_samples_match_states_at_event(self, request, variant):
        # agents broadcast what they hold: x, or chi when observing
        if variant == "state":
            traj = request.getfixturevalue("traj")
            sent = traj.states
        else:
            traj = request.getfixturevalue("observer_traj")
            sent = traj.observer_states
        assert any(e.kind == "trigger" for e in traj.events)
        for e in traj.events:
            idx = int(np.searchsorted(traj.times, e.time))
            assert np.array_equal(e.value, sent[idx, e.agent])


class TestDeterminism:
    def test_bit_identical_repeat(self, model, gains, params, ring6):
        sim = short_sim(t_end=3.0, seed=11)
        a = simulate(model, ring6, gains, params, sim, random_x0(11))
        b = simulate(model, ring6, gains, params, sim, random_x0(11))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.estimates, b.estimates)
        assert len(a.events) == len(b.events)
        for x, y in zip(a.events, b.events):
            assert (x.agent, x.time, x.trigger_value_before) == \
                   (y.agent, y.time, y.trigger_value_before)

    def test_random_disturbance_deterministic(self, model, gains, params, ring6):
        sim = short_sim(t_end=1.0, seed=3,
                        disturbance=DisturbanceSpec(kind="uniform-random",
                                                    amplitude=0.2, seed=9))
        a = simulate(model, ring6, gains, params, sim, random_x0(3))
        b = simulate(model, ring6, gains, params, sim, random_x0(3))
        assert np.array_equal(a.states, b.states)


class TestFlowQuality:
    def test_average_state_invariance(self, model, gains, params, ring6):
        x0 = random_x0(17)
        traj = simulate(model, ring6, gains, params, short_sim(t_end=5.0), x0)
        dev = invariance_deviation(traj)
        assert dev < 1e-6 * (1.0 + np.linalg.norm(x0.ravel()))

    def test_solvers_agree(self, model, gains, params, ring6):
        x0 = random_x0(23)
        a = simulate(model, ring6, gains, params,
                     short_sim(t_end=2.0, dt=1e-3), x0)
        b = simulate(model, ring6, gains, params,
                     short_sim(t_end=2.0, dt=1e-2, solver="rk45-adaptive",
                               event_tol=1e-8), x0)
        assert np.allclose(a.final_states, b.final_states, rtol=1e-6, atol=1e-8)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_flow_detected(self, params):
        # synthetic unstable open loop: gains of zero leave xdot = 10 x
        m = SystemModel(A=[[10.0]], B=[[1.0]])
        gz = GainSet(P=np.eye(1), K=np.zeros((1, 1)), Gamma=np.zeros((1, 1)))
        g = build_graph(2, [(0, 1)])
        with pytest.raises(NonFiniteStateError):
            simulate(m, g, gz, params,
                     SimConfig(t_end=100.0, dt=0.05, event_tol=1e-6),
                     [[1.0], [2.0]])


class TestZenoGuard:
    def test_guard_fires_as_probe(self, model, gains, params, ring6):
        sim = short_sim(t_end=5.0, max_events_per_unit_time=1, seed=42)
        with pytest.raises(ZenoGuardError, match="agent"):
            simulate(model, ring6, gains, params, sim, random_x0())


class TestTopologySwitch:
    def test_switch_to_identical_graph(self, model, gains, params, ring6):
        sim = short_sim(t_end=2.0, seed=5, dwell_min=0.5,
                        topology_schedule=((1.0, ring6),))
        traj = simulate(model, ring6, gains, params, sim, random_x0(5))
        assert len(traj.weight_segments) == 2
        old, new = traj.weight_segments
        # weights carried over continuously across the switch
        assert np.array_equal(old.values[-1], new.values[0])
        # one synchronized broadcast round at the switch instant
        switch = [e for e in traj.events if e.kind == "switch"]
        assert sorted(e.agent for e in switch) in ([], list(range(6)))
        assert any(e.time == 1.0 for e in switch)

    def test_new_edges_start_at_c0_old_edges_continuous(self, model, gains):
        params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5, kappa=0.2,
                                varrho=0.0, c0=0.25)
        ring4 = generate_graph("ring", 4)
        complete4 = generate_graph("complete", 4)
        sim = SimConfig(t_end=2.0, dt=1e-3, event_tol=1e-8, dwell_min=0.5,
                        topology_schedule=((1.0, complete4),))
        traj = simulate(model, ring4, gains, params, sim, random_x0(9, 4))
        old, new = traj.weight_segments
        old_map = dict(zip(old.graph.edges, old.values[-1]))
        new_map = dict(zip(new.graph.edges, new.values[0]))
        for e in new.graph.edges:
            if e in old_map:
                assert new_map[e] == old_map[e]
            else:
                assert new_map[e] == 0.25

    def test_removed_then_readded_edge_reinitializes(self, model, gains):
        params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5, kappa=0.2,
                                varrho=0.0, c0=0.0)
        ring4 = generate_graph("ring", 4)
        star4 = generate_graph("star", 4)
        sim = SimConfig(t_end=3.0, dt=1e-3, event_tol=1e-8, dwell_min=0.5,
                        topology_schedule=((1.0, star4), (2.0, ring4)))
        traj = simulate(model, ring4, gains, params, sim, random_x0(13, 4))
        seg_ring1, seg_star, seg_ring2 = traj.weight_segments
        # edge (1,2) exists in the rings but not the star: back to c0
        e = (1, 2)
        idx2 = seg_ring2.graph.edges.index(e)
        assert seg_ring2.values[0, idx2] == 0.0
        idx1 = seg_ring1.graph.edges.index(e)
        assert seg_ring1.values[-1, idx1] > 0.0

    def test_one_broadcast_per_agent_at_switch_in_dense_mode(self, model, gains,
                                                            params, ring6):
        # the switch round and the forced round share the instant t = 0.1
        sim = short_sim(t_end=0.2, dt=1e-2,
                        topology_schedule=((0.1, generate_graph("star", 6)),))
        traj = simulate(model, ring6, gains, params, sim, random_x0(7),
                        broadcast_every_step=True)
        at_switch = [e for e in traj.events if e.time == 0.1]
        assert sorted(e.agent for e in at_switch) == list(range(6))
        assert all(e.kind == "switch" for e in at_switch)
        last_round = [e for e in traj.events if e.time == traj.times[-1]]
        assert [e.kind for e in last_round] == ["forced"] * 6
        # init, then one round at each of the 20 grid points
        assert len(traj.events) == 6 + 20 * 6

    def test_schedule_must_keep_agent_count(self, model, gains, params, ring6):
        sim = short_sim(t_end=2.0, dwell_min=0.5,
                        topology_schedule=((1.0, generate_graph("ring", 5)),))
        with pytest.raises(ConfigError):
            simulate(model, ring6, gains, params, sim, random_x0())


class TestTrajectoryShape:
    def test_times_strictly_increasing(self, model, gains, params, ring6):
        traj = simulate(model, ring6, gains, params, short_sim(seed=2), random_x0(2))
        assert (np.diff(traj.times) > 0).all()
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 2.0

    def test_weight_rows_align_with_times(self, model, gains, params, ring6):
        traj = simulate(model, ring6, gains, params, short_sim(seed=2), random_x0(2))
        seg = traj.weight_segments[0]
        assert seg.values.shape == (len(traj.times), 6)

    def test_dense_mode_broadcasts_every_step(self, model, gains, params, ring6):
        sim = short_sim(t_end=0.1, dt=1e-2)
        traj = simulate(model, ring6, gains, params, sim, random_x0(7),
                        broadcast_every_step=True)
        forced = [e for e in traj.events if e.kind == "forced"]
        # 10 grid points after t=0, all 6 agents each
        assert len(forced) == 60
        assert len([e for e in traj.events if e.kind == "init"]) == 6
