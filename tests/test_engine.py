import copy
import itertools
import json
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from etcons import engine as engine_module
from etcons.analysis import consensus_error, invariance_deviation, stacked_norm, zeno_report
from etcons.cli import RunSetup
from etcons.engine import (
    DisturbanceSpec,
    SimConfig,
    _Rows,
    _Simulation,
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
from oracles import audit_crossings, events_for, rk4_flow
from runs import CONSTANT, named

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

    def test_tolerance_below_float_spacing_terminates(self):
        # bisection stops at adjacent floats; a child process turns a hang
        # into a timeout failure
        code = textwrap.dedent("""
            import numpy as np
            from etcons.engine import SimConfig, locate_event, simulate
            from etcons.graph import generate_graph
            from etcons.linalg import SystemModel, design_gains
            from etcons.protocols import ProtocolParams

            assert locate_event(lambda t: t - 0.3, 0.0, 1.0, 1e-17) == 0.3
            model = SystemModel(A=[[0.0, 1, 0], [0, 0, 1], [0, 0, 0]],
                                B=[[0.0], [0.0], [1.0]])
            params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5, kappa=0.2)
            x0 = np.random.default_rng(42).uniform(-1, 1, (6, 3))
            traj = simulate(model, generate_graph("ring", 6), design_gains(model),
                            params, SimConfig(t_end=2.0, dt=1e-3, event_tol=1e-17), x0)
            triggers = [e for e in traj.events if e.kind == "trigger"]
            assert triggers and all(e.trigger_value_before >= 0 for e in triggers)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(engine_module.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


class TestSimConfigValidation:
    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigError):
            SimConfig(t_end=1.0, dt=0.0)

    def test_rejects_event_tol_above_dt(self):
        with pytest.raises(ConfigError):
            SimConfig(t_end=1.0, dt=1e-3, event_tol=1e-2)

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

    @pytest.mark.parametrize("key, build", [
        # a NaN dwell_min would admit switches 1 ms apart
        ("sim.dwell_min", lambda g: SimConfig(t_end=10.0, dt=1e-3, dwell_min=float("nan"),
                                              topology_schedule=((1.0, g), (1.001, g)))),
        ("sim.max_events_per_unit_time",
         lambda g: SimConfig(t_end=1.0, dt=1e-3, max_events_per_unit_time=2.5)),
        ("sim.disturbance.frequency",
         lambda g: DisturbanceSpec(kind="sinusoid", amplitude=0.1, frequency=float("inf"))),
        *[("sim.seed", lambda g, seed=seed: SimConfig(t_end=1.0, dt=1e-3, seed=seed))
          for seed in (-1, 1.5, True, "x")],
        *[("sim.disturbance.seed",
           lambda g, seed=seed: DisturbanceSpec(kind="uniform-random", amplitude=0.1, seed=seed))
          for seed in (-1, 1.5)],
        ("sim.max_events_per_unit_time",
         lambda g: SimConfig(t_end=1.0, dt=1e-3, max_events_per_unit_time=True)),
        ("n", lambda g: generate_graph("path", 2.5)),
    ], ids=["dwell_min-nan", "max_events_per_unit_time-2.5", "frequency-inf",
            "seed--1", "seed-1.5", "seed-True", "seed-x", "disturbance-seed--1",
            "disturbance-seed-1.5", "max_events_per_unit_time-True", "generate_graph-n-2.5"])
    def test_rejects_nan_dwell_fractional_guard_and_infinite_frequency(self, key, build):
        with pytest.raises(ConfigError, match="^" + key.replace(".", r"\.") + ": "):
            build(generate_graph("ring", 4))


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

    @pytest.mark.parametrize("x0, chi0, match", [
        (random_x0(), np.zeros((3, 6)), "chi0 has shape"),
        (random_x0(), np.zeros(18), "chi0 has shape"),
        (random_x0(), np.zeros((5, 3)), "chi0 has shape"),
        (np.where(np.eye(6, 3) == 1, np.nan, random_x0()), None, "x0 has non-finite"),
        (random_x0(), np.full((6, 3), np.inf), "chi0 has non-finite"),
    ], ids=["chi0-transposed", "chi0-flat", "chi0-wrong-size", "x0-nan", "chi0-inf"])
    def test_initial_states_are_checked(self, model, params, ring6, x0, chi0, match):
        m = SystemModel(A=A_TRIPLE, B=B_TRIPLE, C=[[1.0, 0, 0]])
        with pytest.raises(ConfigError, match=match):
            simulate(m, ring6, design_gains(m, observer=True), params, short_sim(), x0,
                     variant="observer", chi0=chi0)


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
        # no weight to bound and no interval to check
        report = zeno_report(traj)
        assert report.checks == [] and report.verdict


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
            times = [e.time for e in events_for(traj, agent)]
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_at_most_one_broadcast_per_instant(self, traj):
        seen = set()
        for e in traj.events:
            assert (e.agent, e.time) not in seen
            seen.add((e.agent, e.time))

    def test_trigger_value_at_event_nonnegative(self, traj):
        for e in traj.events:
            if e.kind == "trigger":
                assert e.trigger_value_before >= 0

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
            times = [e.time for e in events_for(traj, agent)]
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


class TestRelocalization:
    def test_early_localization_is_localized_again(self, model, gains, params,
                                                  ring6, monkeypatch):
        # the first localization returns a time halfway before the crossing,
        # where no agent's f is >= 0 yet: nothing may fire or be stored
        # there, and the crossing must be found again from that instant
        sim = short_sim()
        x0 = random_x0(42)
        plain = simulate(model, ring6, gains, params, sim, x0)
        first = next(e.time for e in plain.events if e.kind == "trigger")
        localize = _Simulation._localize
        forced = []

        def early(self, t1, f1):
            t_star = localize(self, t1, f1)
            if not forced:
                forced.append(self.t + (t_star - self.t) / 2)
                return forced[0]
            return t_star

        monkeypatch.setattr(_Simulation, "_localize", early)
        traj = simulate(model, ring6, gains, params, sim, x0)
        triggers = [e for e in traj.events if e.kind == "trigger"]
        assert all(e.trigger_value_before >= 0 for e in triggers)
        assert not np.any(traj.times == forced[0])
        assert abs(triggers[0].time - first) <= sim.event_tol
        assert traj.stats.relocalizations == 1 + plain.stats.relocalizations
        # the steps around the relocalization instant read as one step
        assert audit_crossings(traj)["missed"] == 0

    def test_a_fine_tolerance_relocalizes_unpatched(self):
        # at event_tol 1e-15 the star's polynomial and the whole flow can
        # disagree on the sign at t*: no agent fires there, and the loop
        # localizes the crossing again from t*
        traj = RunSetup(named("switching", t_end=4.5, event_tol=1e-15)).run()[0]
        assert traj.stats.relocalizations > 0
        triggers = [e for e in traj.events if e.kind == "trigger"]
        assert triggers and all(e.trigger_value_before >= 0 for e in triggers)
        times = set(traj.times.tolist())
        assert all(e.time in times for e in traj.events)
        assert audit_crossings(traj)["missed"] == 0


def close(a, b, tol=1e-12):
    """Agreement to tol relative to the largest entry of b."""
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b).max(initial=0.0) <= tol * max(np.abs(b).max(initial=0.0), 1e-300)


def mid_run(model, gains, params, graph, sim, variant="state", seed=4):
    """An engine at its fifth grid instant with estimates apart from the
    states and grown weights, as between two broadcasts."""
    rng = np.random.default_rng(seed)
    engine = _Simulation(model, graph, gains, params, sim, random_x0(seed, graph.n_nodes),
                         variant)
    engine.t = engine._grid_t[4]
    engine.Z = engine.Z + rng.uniform(-0.2, 0.2, engine.Z.shape)
    engine.c = engine.c + rng.uniform(0.0, 1.0, engine.c.size)
    engine._broadcast((), engine.t, None, "trigger")  # re-forms the lift rows
    return engine


class TestClosedForm:
    def test_localization_states_match_the_oracle(self, model, gains, params, ring6):
        # inside a step, where localization evaluates the flow: width 0
        # gives the current state's bits, and every width the oracle's
        engine = mid_run(model, gains, params, ring6, short_sim())
        t0, h = engine.t, short_sim().dt
        V, Z, _, c, f = engine._flow(engine.flow.tables([0.0]), [t0])
        assert np.array_equal(V[0], engine.X) and np.array_equal(Z[0], engine.Z)
        assert np.array_equal(c[0], engine.c)
        assert np.array_equal(f[0], engine._triggers(t0))
        for theta in (0.25, 0.5, 1.0):
            t = t0 + theta * h
            V, Z, _, c, _ = engine._flow(engine.flow.tables([t - t0]), [t])
            v, cw, z = rk4_flow(engine, t)
            assert close(V[0][:, :3], v) and close(c[0], cw) and close(Z[0], z), theta

    @pytest.mark.parametrize("event_tol", [1e-8, 1e-2])
    def test_committed_cubic_moments_match_the_edge_work(self, model, gains, params, ring6,
                                                          monkeypatch, event_tol):
        # the (w, p) columns of the lift rows flow with the estimates and
        # the weights between broadcasts, so at every commit they are the
        # columns formed afresh from the edge work; at event_tol = dt every
        # crossing is committed at its step's end, past a commit in the pass
        commit, checked = _Simulation._commit, []

        def checked_commit(sim, t, flow, k):
            commit(sim, t, flow, k)
            flowed, fresh = (x.reshape(6, 1, -1) for x in (sim.X[:, sim.flow.wp],
                                                           sim.flow.moments(sim.dq, sim.c)))
            for part in (slice(0, 3), slice(3, None)):  # w, then p
                assert close(flowed[..., part], fresh[..., part], 1e-10), t
            checked.append(t)

        monkeypatch.setattr(_Simulation, "_commit", checked_commit)
        sim = short_sim(t_end=2.0, dt=1e-2, event_tol=event_tol, seed=3)
        traj = simulate(model, ring6, gains, params, sim, random_x0(3))
        assert len(checked) > 20 and any(e.kind == "trigger" for e in traj.events)

    def test_scatter_per_group_matches_the_per_agent_sums(self, model, gains, monkeypatch):
        # a leader graph with two leakage rates: after every broadcast and
        # every commit, each group's p and w columns of agent i's lift row
        # are the sums over i's neighbours j along that group's edges of
        # kappa_ij m3(z_i - z_j) and c_ij (z_i - z_j), and the leader's are
        # zero; a broadcast forms them, and between broadcasts they flow
        edges = [(0, 1), (0, 3), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
        graph = build_graph(6, edges, leader=0)
        varrho = {e: 0.1 if e in ((0, 1), (2, 3)) else 0.05 for e in edges}
        params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5, varrho=varrho, c0=0.3)
        mono = list(itertools.combinations_with_replacement(range(3), 3))
        broadcast, commit, checked = _Simulation._broadcast, _Simulation._commit, []

        def check(sim):
            k, G = sim.kernel, len(sim.flow.lams)
            assert G == 2
            P_oracle, W_oracle = np.zeros((6, G, len(mono))), np.zeros((6, G, 3))
            for i in range(6):
                for j in graph.neighbors(i) if i != graph.leader else ():
                    e = graph.edges.index((min(i, j), max(i, j)))
                    g = list(sim.flow.lams).index(k.kappa[e] * k.varrho[e])
                    d = sim.Z[i] - sim.Z[j]
                    P_oracle[i, g] += k.kappa[e] * np.array([d[a] * d[b] * d[c]
                                                             for a, b, c in mono])
                    W_oracle[i, g] += sim.c[e] * d
            row = sim.X[:, sim.flow.wp].reshape(6, G, -1)
            W, P = row[..., :3], row[..., 3:]
            assert close(P, P_oracle) and close(W, W_oracle)
            assert not P[graph.leader].any() and not W[graph.leader].any()
            checked.append(sim.t)

        def checked_broadcast(sim, agents, t, f, kind):
            broadcast(sim, agents, t, f, kind)
            check(sim)

        def checked_commit(sim, t, flow, k):
            commit(sim, t, flow, k)
            check(sim)

        monkeypatch.setattr(_Simulation, "_broadcast", checked_broadcast)
        monkeypatch.setattr(_Simulation, "_commit", checked_commit)
        traj = simulate(model, graph, gains, params, short_sim(t_end=1.0, dt=1e-2, seed=3),
                        random_x0(3), "leader_follower")
        assert checked[0] == 0.0 and len(checked) > 20
        assert any(e.kind == "trigger" for e in traj.events)

    @pytest.mark.parametrize("dt", [0.2, 0.1, 0.05])
    def test_exact_on_a_rotation(self, params, dt):
        # a lone agent flows by e^{At} x0 whatever the grid, to a few
        # roundings per pass (4 to 9 eps here); RK4's continuous extension
        # on this rotation erred like dt^4
        m = SystemModel(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]])
        sim = SimConfig(t_end=2.0, dt=dt)
        traj = simulate(m, build_graph(1, []), design_gains(m), params, sim, [[1.0, 0.5]])
        t = traj.times
        exact = np.stack([np.cos(t) + 0.5 * np.sin(t), -np.sin(t) + 0.5 * np.cos(t)], axis=1)
        assert np.abs(traj.states[:, 0] - exact).max() <= 16 * np.finfo(float).eps


class TestCarriedEdgeWork:
    """The engine carries each estimate stack with its edge work; every
    closed-form evaluation and every trigger evaluation must see the pair
    in step."""

    def _checked_run(self, monkeypatch, *args, **kwargs):
        checks = []

        def check(sim):
            d, q = sim.kernel.edge_terms(sim.Z)
            assert np.array_equal(sim.dq[0], d) and np.array_equal(sim.dq[1], q)
            checks.append(1)

        flow, triggers = _Simulation._flow, _Simulation._triggers

        def checked_flow(sim, *args):
            check(sim)
            return flow(sim, *args)

        def checked_triggers(sim, t):
            check(sim)
            return triggers(sim, t)

        monkeypatch.setattr(_Simulation, "_flow", checked_flow)
        monkeypatch.setattr(_Simulation, "_triggers", checked_triggers)
        traj = simulate(*args, **kwargs)
        assert checks
        return traj

    def test_switching_run_with_forced_broadcasts(self, model, gains, params,
                                                   ring6, monkeypatch):
        schedule = ((0.1, generate_graph("star", 6)), (0.3, ring6))
        sim = short_sim(t_end=0.5, dt=1e-2, topology_schedule=schedule)
        traj = self._checked_run(monkeypatch, model, ring6, gains, params, sim,
                                 random_x0(7), broadcast_every_step=True)
        kinds = {e.kind for e in traj.events}
        assert {"switch", "forced"} <= kinds

    def test_observer_run(self, model, params, ring6, monkeypatch):
        traj = self._checked_run(monkeypatch, model, ring6,
                                 design_gains(model, observer=True), params,
                                 short_sim(t_end=2.0, seed=42), random_x0(),
                                 variant="observer")
        assert any(e.kind == "trigger" for e in traj.events)


class TestReusedValues:
    """The state at now carries its trigger values: a localization takes
    the candidates' maximum of them as its low end, and the switch and
    forced rounds log them. Each must be the bits a fresh evaluation gives."""

    @pytest.mark.parametrize("variant", ["state", "observer"])
    def test_low_end_value(self, model, params, ring6, monkeypatch, variant):
        localize, force, checked = _Simulation._localize, _Simulation._force_broadcast, []

        def checked_localize(sim, t1, f1):
            t, cands = sim.t, np.flatnonzero(f1 >= 0)
            assert np.array_equal(sim._f_now, sim._flow(sim.flow.tables([0.0]), [t])[4][0])
            # what the bisection's evaluation at t0 gives
            f_star = sim.flow.star_triggers(sim.X, sim.Z, sim.dq[0], sim.c,
                                            sim.kernel.star(cands))
            assert sim._f_now[cands].max() == f_star(0.0, t)[:cands.size].max()
            checked.append("localization")
            return localize(sim, t1, f1)

        def checked_force(sim, t, kind):
            fresh, n = sim._triggers(t), len(sim.events)
            force(sim, t, kind)
            assert [e.trigger_value_before for e in sim.events[n:]] == \
                [fresh[e.agent] for e in sim.events[n:]]
            checked.append(kind)

        monkeypatch.setattr(_Simulation, "_localize", checked_localize)
        monkeypatch.setattr(_Simulation, "_force_broadcast", checked_force)
        gains = design_gains(model, observer=variant == "observer")
        star6 = generate_graph("star", 6)
        sim = short_sim(t_end=2.0, seed=3, topology_schedule=((0.7, star6), (1.4, ring6)))
        simulate(model, ring6, gains, params, sim, random_x0(3), variant=variant)
        dense = short_sim(t_end=0.5, dt=1e-2, topology_schedule=((0.2, star6),))
        simulate(model, ring6, gains, params, dense, random_x0(3), variant=variant,
                 broadcast_every_step=True)
        assert {"localization", "switch", "forced"} <= set(checked)


def _checked_passes(monkeypatch, wanted):
    """Record every pass as (steps, edge values per step); check the first
    ``wanted`` passes of more than one step, or of one when none is longer,
    against the RK4 oracle at each of their instants."""
    passes, compared, compare = [], [], _Simulation._pass

    def checked(sim, i, j):
        flow = compare(sim, i, j)
        V, Z, _, c, _ = flow
        nv = sim.flow.nv
        passes.append((len(V), sim.kernel.ei.size * nv))
        if len(compared) < wanted and (len(V) > 1 or len(passes) == 1):
            compared.append(i)
            probe = copy.copy(sim)  # the oracle steps on from its own states
            probe.X = sim.X.copy()
            for k in range(len(V)):
                v, probe.c, probe.Z = rk4_flow(probe, sim._grid_t[i + k])
                probe.X[:, :nv], probe.t = v, sim._grid_t[i + k]
                assert close(V[k][:, :nv], v) and close(c[k], probe.c) and close(Z[k], probe.Z)
        return flow

    monkeypatch.setattr(_Simulation, "_pass", checked)
    return passes


class TestPasses:
    def test_leaderless_passes_span_many_steps_and_match_the_oracle(self, monkeypatch):
        passes = _checked_passes(monkeypatch, 3)
        stats = RunSetup(named("leaderless_sec5", t_end=5.0)).run()[0].stats
        assert stats.steps >= 5000
        assert stats.passes <= stats.steps / 8
        assert (stats.passes, stats.steps) == (len(passes), sum(b for b, _ in passes))
        assert stats.localization_evaluations > stats.localizations > 0

    def test_ring400_passes_stay_within_the_element_cap(self, monkeypatch):
        passes = _checked_passes(monkeypatch, 1)
        cfg = named("leaderless_sec5", t_end=0.2)
        cfg["graph"] = {"generator": "ring", "n": 400}
        traj = RunSetup(cfg).run()[0]
        # a pass of more than one step holds at most the element budget
        assert all(b == 1 or b * per_step <= engine_module._BLOCK_ELEMENTS
                   for b, per_step in passes)
        assert traj.stats.passes == len(passes)
        assert traj.stats.steps == sum(b for b, _ in passes)
        assert sum(e.kind == "trigger" for e in traj.events) > 50


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

    def test_grid_refinement_only_moves_the_checks(self, model, gains, params, ring6):
        # the flow between checks is exact, so a 4x finer grid, which
        # misses no crossing here, gives the same events and states to
        # rounding (1.6e-15 apart); a 10x coarser one moves the localized
        # times by up to 9e-8 and the final states by 5.6e-8 (RK4: 4.7e-8)
        x0 = random_x0(23)
        runs = {dt: simulate(model, ring6, gains, params, short_sim(t_end=2.0, dt=dt), x0)
                for dt in (1e-2, 1e-3, 2.5e-4)}
        fine, base = runs[2.5e-4], runs[1e-3]
        assert [e.agent for e in fine.events] == [e.agent for e in base.events]
        assert np.allclose([e.time for e in fine.events], [e.time for e in base.events],
                           rtol=0.0, atol=1e-12)
        assert np.allclose(fine.final_states, base.final_states, rtol=0.0, atol=1e-12)
        assert np.allclose(runs[1e-2].final_states, base.final_states, rtol=1e-6, atol=1e-8)

    def test_random_disturbance_cells_are_exact(self, params):
        # xdot = w_k on a lone scalar integrator: every step must see its
        # own cell's draw, so each step adds dt * w_k and the state is the
        # running sum of the drawn table
        m = SystemModel(A=[[0.0]], B=[[1.0]])
        dist = DisturbanceSpec(kind="uniform-random", amplitude=0.2, seed=9)
        sim = short_sim(t_end=1.0, disturbance=dist)
        traj = simulate(m, build_graph(1, []), design_gains(m), params, sim, [[0.7]])
        w = np.random.default_rng(9).uniform(-0.2, 0.2, size=(1000, 1, 1))[:, 0, 0]
        expected = 0.7 + np.concatenate([[0.0], np.cumsum(1e-3 * w)])
        assert traj.states.shape == (1001, 1, 1)
        assert np.allclose(traj.states[:, 0, 0], expected, rtol=0.0, atol=1e-13)

    def test_random_disturbance_draws_follow_one_table(self, model, gains, params, ring6,
                                                        monkeypatch):
        # the cells are entered once each, in order, and their values are
        # the rows of one (cells, N, n) draw; every flow, a localization's
        # too, starts from rows that hold the draw of the cell entered last.
        # The switch at 0.1005 splits a cell in two, and each pass is one step
        setup, flow, calls = _Simulation._setup_disturbance, _Simulation._flow, []

        def recorded_setup(self, nv):
            out, draw = setup(self, nv), self._draw

            def recorded(cell):
                calls.append((cell, draw(cell)))
                return calls[-1][1]

            self._draw = recorded
            return out

        def checked_flow(self, *args):
            assert np.array_equal(self.X[:, self.flow.r], calls[-1][1])
            return flow(self, *args)

        monkeypatch.setattr(_Simulation, "_setup_disturbance", recorded_setup)
        monkeypatch.setattr(_Simulation, "_flow", checked_flow)
        dist = DisturbanceSpec(kind="uniform-random", amplitude=0.2, seed=9)
        sim = short_sim(t_end=0.2, dwell_min=0.05, disturbance=dist,
                        topology_schedule=((0.1005, generate_graph("star", 6)),))
        traj = simulate(model, ring6, gains, params, sim, random_x0())
        table = np.random.default_rng(9).uniform(-0.2, 0.2, (200, 6, 3))
        cells = [cell for cell, _ in calls]
        assert [c for k, c in enumerate(cells) if not k or c != cells[k - 1]] == list(range(200))
        assert all(np.array_equal(w, table[cell]) for cell, w in calls)
        assert traj.stats.passes == traj.stats.steps == len(calls) > 200

    @pytest.mark.parametrize("kind", ["constant", "sinusoid"])
    def test_disturbance_states_flow_with_the_lift_rows(self, model, gains, params, kind):
        # r starts at its value at t = 0 and flows with the lift rows, so
        # after the run it is the exosystem's state at t_end; a constant's
        # generator W = 0 carries it by an exact identity block, bit for bit
        graph = generate_graph("ring", 6, leader=0)
        dist = DisturbanceSpec(kind=kind, amplitude=0.1, frequency=1.3)
        sim = short_sim(disturbance=dist)
        engine = _Simulation(model, graph, gains, params, sim, random_x0(), "leader_follower")
        traj = engine.run()
        assert any(e.kind == "trigger" for e in traj.events)
        r, mask = engine.X[:, engine.flow.r], (np.arange(6) != graph.leader)[:, None]
        if kind == "constant":
            assert np.array_equal(r, 0.1 * np.ones((6, 3)) * mask)
        else:
            phase = 2 * np.pi * (1.3 * sim.t_end + np.arange(6) / 6)
            assert close(r, 0.1 * np.stack([np.sin(phase), np.cos(phase)], axis=1) * mask)

    def test_random_disturbance_holds_no_horizon_table(self, model, gains, params):
        # ring400 over 30 s at dt = 1e-3 is 30,000 cells: a pre-drawn table
        # of them takes 288 MB, one cell 9.6 kB
        ring = generate_graph("ring", 400)
        dist = DisturbanceSpec(kind="uniform-random", amplitude=0.1, seed=9)
        sim = SimConfig(t_end=30.0, dt=1e-3, disturbance=dist)
        x0 = random_x0(n_agents=400)
        tracemalloc.start()
        try:
            _Simulation(model, ring, gains, params, sim, x0, "state")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_grid_table_spans_the_run_at_most(self, model, gains, params, ring6):
        # a pass over ring6 may take 113 steps, but this run has 10 checkpoints
        engine = _Simulation(model, ring6, gains, params, short_sim(t_end=0.01),
                             random_x0(), "state")
        assert len(engine.flow.grid[0]) <= len(engine._grid_t) + 1
        assert len(engine.run().times) == 11

    def test_non_finite_flow_detected(self, params):
        # synthetic unstable open loop: gains of zero leave xdot = 10 x,
        # whose flow overflows on its way to the error
        m = SystemModel(A=[[10.0]], B=[[1.0]])
        gz = GainSet(P=np.eye(1), K=np.zeros((1, 1)), Gamma=np.zeros((1, 1)))
        g = build_graph(2, [(0, 1)])
        with pytest.raises(NonFiniteStateError), pytest.warns(RuntimeWarning):
            simulate(m, g, gz, params,
                     SimConfig(t_end=100.0, dt=0.05, event_tol=1e-6),
                     [[1.0], [2.0]])


class TestRowStore:
    @staticmethod
    def stored_run(model, params, ring6, monkeypatch, first):
        # an observer run with a switch writes every store: times, x, Z,
        # chi and a weight segment per graph
        class Sized(_Rows):
            def __init__(self, shape):
                super().__init__(shape, first)

        monkeypatch.setattr(engine_module, "_Rows", Sized)
        sim = short_sim(t_end=0.6, seed=3, dwell_min=0.1,
                        topology_schedule=((0.3, generate_graph("star", 6)),))
        return simulate(model, ring6, design_gains(model, observer=True), params, sim,
                        random_x0(3), variant="observer")

    def test_rows_across_growths_are_the_rows_of_a_store_that_never_grows(
            self, model, params, ring6, monkeypatch):
        # from 1 row past 512, these small stores double into new blocks ten
        # times; with every store taken as large they grow in place, by a row
        # up to 8 rows and by a quarter after, up to 27 times
        fixed, doubled = (self.stored_run(model, params, ring6, monkeypatch, first)
                          for first in (4096, 1))
        monkeypatch.setattr(engine_module, "_LARGE_STORE", 0)
        in_place = self.stored_run(model, params, ring6, monkeypatch, 1)
        assert 512 < len(fixed.times) < 4096
        for grown in (doubled, in_place):
            for name in ("times", "states", "estimates", "observer_states"):
                assert np.array_equal(getattr(grown, name), getattr(fixed, name))
            for a, b in zip(grown.weight_segments, fixed.weight_segments, strict=True):
                assert a.first_index == b.first_index
                assert np.array_equal(a.values, b.values)

    def test_a_viewed_store_refuses_to_grow(self):
        # a large store grows by reallocating its block in place, which would
        # leave a returned array dangling; view() ends the store instead
        width = engine_module._LARGE_STORE // 8  # one row fills a large store
        rows = _Rows((width,), first=1)
        rows.add(np.ones((1, width)))
        view = rows.view()
        with pytest.raises(TypeError):
            rows.add(np.zeros((1, width)))
        assert view.shape == (1, width) and (view == 1).all()

    @pytest.mark.parametrize("hook", [sys.setprofile, sys.settrace],
                             ids=["setprofile", "settrace"])
    def test_stores_grow_under_a_profiler_or_tracer(self, model, params, ring6, monkeypatch,
                                                    hook):
        # a profiler's or tracer's frames hold references to a store's
        # array, which resize's reference check would refuse
        monkeypatch.setattr(engine_module, "_LARGE_STORE", 0)
        plain = self.stored_run(model, params, ring6, monkeypatch, 1)
        previous = sys.getprofile() if hook is sys.setprofile else sys.gettrace()
        hook(lambda frame, event, arg: None)
        try:
            traced = self.stored_run(model, params, ring6, monkeypatch, 1)
        finally:
            hook(previous)
        for name in ("times", "states", "estimates", "observer_states"):
            assert np.array_equal(getattr(traced, name), getattr(plain, name))
        for a, b in zip(traced.weight_segments, plain.weight_segments, strict=True):
            assert np.array_equal(a.values, b.values)

    def test_returned_arrays_are_their_rows_alone_and_contiguous(
            self, model, params, ring6, monkeypatch):
        traj = self.stored_run(model, params, ring6, monkeypatch, 256)
        rows = len(traj.times)
        assert traj.times[-1] == 0.6 and (np.diff(traj.times) > 0).all()
        assert sum(len(seg.values) for seg in traj.weight_segments) == rows + 1  # one switch
        for a in (traj.times, traj.states, traj.estimates, traj.observer_states):
            assert len(a) == rows and a.flags.c_contiguous and a.dtype == np.float64
        for seg in traj.weight_segments:
            assert seg.values.flags.c_contiguous and seg.values.dtype == np.float64

    def test_each_switch_keeps_the_old_graph_row_in_the_old_segment(self):
        # switches at 2, 4 and 6 s
        traj = RunSetup(named("switching", t_end=6.5, dt=1e-2)).run()[0]
        segs = traj.weight_segments
        assert [seg.t_start for seg in segs] == [0.0, 2.0, 4.0, 6.0]
        for old, new in zip(segs, segs[1:]):
            assert traj.times[new.first_index] == new.t_start
            assert old.values.shape == (new.first_index - old.first_index + 1,
                                        len(old.graph.edges))
        assert len(segs[-1].values) == len(traj.times) - segs[-1].first_index

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc/self/status")
    def test_simulate_peak_memory_stays_near_the_trajectory(self):
        # VmHWM, not ru_maxrss, which carries the launching process's high
        # water mark across exec; a fresh child per run keeps pytest's heap
        # and the other runs out. Growth over the trajectory's bytes:
        # - ring400 at t_end 0.3: 2.18x with rows kept in per-pass blocks and
        #   stacked at the end, 1.18x to 1.29x with every store doubled into
        #   a copy, 1.17x to 1.22x now;
        # - complete70 at t_end 1: 1.55x to 1.57x when the copy of its
        #   doubled weight store set the peak, 1.13x grown in place;
        # - leaderless_sec5 (N = 6, 30 s): 1.61x doubled, 1.82x when its small
        #   stores grew by quarters in malloc's heap, 1.56x to 1.61x now
        cases = [({"generator": "ring", "n": 400}, 0.3, 1.4),
                 ({"generator": "complete", "n": 70}, 1.0, 1.3),
                 (None, 30.0, 1.7)]
        code = textwrap.dedent("""
            import json, sys
            from etcons.cli import RunSetup
            from etcons.engine import simulate

            def hwm():
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) * 1024 for line in fh
                                if line.startswith("VmHWM:"))

            setup = RunSetup(json.loads(sys.argv[1]))
            gains = setup.design()
            before = hwm()
            traj = simulate(setup.model, setup.graph, gains, setup.params, setup.sim,
                            setup.x0, variant=setup.variant, chi0=setup.chi0)
            grown = hwm() - before
            arrays = [traj.times, traj.states, traj.estimates, traj.observer_states]
            arrays += [seg.values for seg in traj.weight_segments]
            print(json.dumps([grown, sum(a.nbytes for a in arrays if a is not None)]))
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(engine_module.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        # numpy advises huge pages from 4 MiB, so the ratio reads with the THP mode
        thp = pathlib.Path("/sys/kernel/mm/transparent_hugepage/enabled")
        thp = "THP " + (thp.read_text().strip() if thp.exists() else "mode unknown")
        for graph, t_end, bound in cases:
            cfg = named("leaderless_sec5", t_end=t_end, seed=42)
            cfg["graph"] = graph or cfg["graph"]
            out = subprocess.run([sys.executable, "-c", code, json.dumps(cfg)], env=env,
                                 check=True, timeout=300, capture_output=True, text=True).stdout
            grown, stored = json.loads(out)
            assert stored > 9e6
            assert grown <= bound * stored, (graph, t_end, grown / stored, thp)


class TestZenoGuard:
    def test_guard_fires_as_probe(self, model, gains, params, ring6):
        sim = short_sim(t_end=5.0, max_events_per_unit_time=1, seed=42)
        with pytest.raises(ZenoGuardError, match="agent"):
            simulate(model, ring6, gains, params, sim, random_x0())


class TestEventStorm:
    def test_trigger_rate_grows_as_the_threshold_decays(self):
        # a constant disturbance leaves the measurement errors growing while
        # only mu e^{-nu t} holds a trigger off, so intervals shrink as
        # e^{-nu t / 2} and the triggers per 3 s window (28, 42, 94, 191,
        # 391) grow by e^{3 nu / 2}: the rate guard fires in finite time.
        # 6% is the largest relative gap of the two earlier window ratios
        # (2.24 and 2.03) from the law
        traj = RunSetup(named(CONSTANT, t_end=15.0)).run()[0]
        times = np.array([e.time for e in traj.events if e.kind == "trigger"])
        late, early = (np.count_nonzero((a <= times) & (times < a + 3)) for a in (12.0, 9.0))
        assert times.size > 700
        assert abs(late / early / np.exp(1.5 * traj.params.nu) - 1) <= 0.06


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

    def test_one_broadcast_per_agent_when_a_trigger_meets_a_switch(self, model, gains, params,
                                                                   ring6, monkeypatch):
        # every crossing is committed at its step's end, so triggers land on
        # the switch instants (seed 0: agent 1 at 0.5, agent 0 at 2.5); the
        # switch round then skips the agents that triggered there
        monkeypatch.setattr(_Simulation, "_localize", lambda self, t1, f1: t1)
        star6 = generate_graph("star", 6)
        schedule = tuple((0.5 * k, star6 if k % 2 else ring6) for k in range(1, 6))
        sim = short_sim(t_end=3.0, dt=0.05, topology_schedule=schedule)
        met = 0
        for seed in range(6):
            events = simulate(model, ring6, gains, params, sim, random_x0(seed)).events
            pairs = [(e.agent, e.time) for e in events]
            assert len(pairs) == len(set(pairs)), seed
            for t, _ in schedule:
                at = [e for e in events if e.time == t]
                triggered = {e.agent for e in at if e.kind == "trigger"}
                assert sorted(e.agent for e in at) == list(range(6)), (seed, t)
                assert not triggered & {e.agent for e in at if e.kind == "switch"}, (seed, t)
                met += len(triggered)
        assert met > 0

    def test_switch_at_a_rounded_grid_point_is_one_instant(self, model, gains,
                                                           params, ring6):
        # 700 * 1e-3 is 0.7000000000000001: the switch at 0.7 takes that grid
        # point's place, so the instant is stored once, under the switch's time
        sim = short_sim(t_end=1.0, seed=5, dwell_min=0.5,
                        topology_schedule=((0.7, generate_graph("star", 6)),))
        traj = simulate(model, ring6, gains, params, sim, random_x0(5))
        assert (np.diff(traj.times) > 0).all()
        new = traj.weight_segments[1]
        assert traj.times[new.first_index] == 0.7
        assert not np.any(traj.times == 700 * 1e-3)

    def test_a_run_performs_the_switch_at_its_end(self):
        # the switch at t_end = 4 opens a segment of the one row at 4
        traj = RunSetup(named("switching", t_end=4.0)).run()[0]
        assert [(seg.t_start, len(seg.values)) for seg in traj.weight_segments] == \
            [(0.0, 2033), (2.0, 2016), (4.0, 1)]

    def test_a_switch_after_the_end_shapes_nothing(self):
        # leakage on the star's own edges alone: a star the run never
        # switches to adds no leakage group, no grid-table row and no bit
        edges = set(generate_graph("ring", 6).edges) | set(generate_graph("star", 6).edges)
        cfg = named("leaderless_sec5", t_end=1.0)
        cfg["protocol"]["varrho"] = {f"{i}-{j}": 0.3 if (i, j) in ((0, 2), (0, 3), (0, 4))
                                     else 0.0 for i, j in edges}
        plain = RunSetup(copy.deepcopy(cfg)).run()[0]
        cfg["sim"]["topology_schedule"] = [{"t": 5.0, "graph": {"generator": "star", "n": 6}}]
        s = RunSetup(cfg)
        engine = _Simulation(s.model, s.graph, s.design(), s.params, s.sim, s.x0, s.variant)
        assert engine.flow.lams.tolist() == [0.0] and len(engine.flow.grid[0]) == 114
        traj = engine.run()
        for name in ("times", "states", "estimates"):
            assert np.array_equal(getattr(traj, name), getattr(plain, name))
        (seg,), (plain_seg,) = traj.weight_segments, plain.weight_segments
        assert np.array_equal(seg.values, plain_seg.values)
        assert [(e.agent, e.time, e.kind) for e in traj.events] == \
            [(e.agent, e.time, e.kind) for e in plain.events]

    def test_schedule_must_keep_agent_count(self, model, gains, params, ring6):
        sim = short_sim(t_end=2.0, dwell_min=0.5,
                        topology_schedule=((1.0, generate_graph("ring", 5)),))
        with pytest.raises(ConfigError):
            simulate(model, ring6, gains, params, sim, random_x0())

    # the config is checked whole: a switch after t_end, which the run never
    # performs, is checked as well
    @pytest.mark.parametrize("variant, first, scheduled, at, kappa, error, match", [
        ("leader_follower", generate_graph("ring", 6, leader=0),
         generate_graph("ring", 6, leader=1), 1.0, 0.2, ConfigError, "leader"),
        ("state", generate_graph("ring", 6), build_graph(6, [(0, 1), (2, 3), (4, 5)]), 1.0, 0.2,
         DisconnectedGraphError, "not connected"),
        ("leader_follower", generate_graph("ring", 6, leader=0),
         build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)], leader=0), 1.0, 0.2,
         NoSpanningTreeError, "spanning tree"),
        ("state", generate_graph("ring", 6), generate_graph("ring", 6, leader=0), 1.0, 0.2,
         ConfigError, "leader"),
        ("state", generate_graph("ring", 6), generate_graph("star", 6), 1.0,
         {(i, (i + 1) % 6): 0.2 for i in range(6)}, ConfigError, "protocol.kappa"),
        ("state", generate_graph("ring", 6), generate_graph("star", 6), 5.0,
         {(i, (i + 1) % 6): 0.2 for i in range(6)}, ConfigError,
         r"^protocol\.kappa: .*\(in sim\.topology_schedule\[0\]\.graph\)$"),
    ], ids=["other-leader", "disconnected", "leader-misses-follower",
            "leader-graph-in-state-run", "kappa-misses-edge", "kappa-misses-edge-after-the-end"])
    def test_scheduled_graphs_are_checked_before_the_first_step(
            self, model, gains, monkeypatch, variant, first, scheduled, at, kappa, error, match):
        monkeypatch.setattr(_Simulation, "run",
                            lambda self: pytest.fail("the run started before the check"))
        params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5, kappa=kappa)
        sim = short_sim(t_end=2.0, dwell_min=0.5, topology_schedule=((at, scheduled),))
        with pytest.raises(error, match=match):
            simulate(model, first, gains, params, sim, random_x0(), variant=variant)


    def test_per_edge_errors_name_the_key_and_the_graph(self, model, gains):
        # a ring-only kappa map misses the star's edges (0, 2), (0, 3), (0, 4)
        params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5,
                                kappa={(i, (i + 1) % 6): 0.2 for i in range(6)})
        sim = short_sim(t_end=2.0, dwell_min=0.5,
                        topology_schedule=((1.0, generate_graph("star", 6)),))
        with pytest.raises(ConfigError) as info:
            simulate(model, generate_graph("ring", 6), gains, params, sim, random_x0())
        assert info.value.key == "protocol.kappa"
        assert "(0, 2)" in info.value.reason
        assert "sim.topology_schedule[0].graph" in info.value.reason


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

    def test_dense_mode_rows_hold_forced_samples(self, model, gains, params, ring6):
        # the row at a grid point is stored after that point's forced round
        sim = short_sim(t_end=0.2, dt=1e-2)
        traj = simulate(model, ring6, gains, params, sim, random_x0(7),
                        broadcast_every_step=True)
        forced = [e for e in traj.events if e.kind == "forced"]
        assert len(forced) == 20 * 6
        for e in forced:
            row = int(np.searchsorted(traj.times, e.time))
            assert traj.times[row] == e.time
            assert np.array_equal(traj.estimates[row, e.agent], e.value)
