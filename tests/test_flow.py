"""The closed-form flow's one lift, its one Taylor evaluator, its resets and
the candidate-only localizer, against their oracles.

The one lift's tables must be those of one lift per leakage rate
(``oracles.per_rate_tables``); below the degree cap they must be
``linalg.horner``'s sum of the lift's Taylor terms at ``_Expm.degree``,
bit for bit, which is how a star's flow is read; a broadcast round forms
the lift rows' moments by one coupling; ``CascadeFlow.star_triggers``
evaluates the candidates' star off one polynomial per localization and
must agree with the whole closed form; the localizer that bisects on it
must land within event_tol of the one that evaluates every agent
(``oracles.localize_full``) at every trigger of a run; and the sampled
audit (``oracles.audit_crossings``) must find no crossing between the
instants the engine checks, and must find the one left when a trigger's
row is dropped. Both oracles read the run's record (``oracles.record_steps``).
"""

import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etcons import engine
from etcons.cli import RunSetup
from etcons.engine import _Simulation
from etcons.flow import CascadeFlow
from etcons.graph import build_graph, generate_graph
from etcons.linalg import _MAX_DEGREE, horner
from etcons.protocols import ProtocolKernel, ProtocolParams
from oracles import audit_crossings, localization_gaps, per_rate_tables
from runs import SHIPPED, TWO_RATES, VARIANTS, named


def engine_for(cfg: dict) -> _Simulation:
    """An engine built as ``RunSetup.run`` builds it, before its first step,
    with the arguments (L, BK, A, Gamma, Ed, W, lams) of its flow as
    ``lift_args``."""
    s, args = RunSetup(copy.deepcopy(cfg)), []

    class Recorded(CascadeFlow):
        def __init__(self, *given):
            args.extend(given[:7])
            super().__init__(*given)

    with mock.patch.object(engine, "CascadeFlow", Recorded):
        sim = _Simulation(s.model, s.graph, s.design(), s.params, s.sim, s.x0, s.variant,
                          chi0=s.chi0)
    sim.lift_args = args
    return sim


# the six shipped lifts at their own dt, the two-rate leader lift, and
# ultimate_bound at dt = 0.2, where theta(dt) is above the Taylor degree
# cap: widths past the radius of degree 16 go to the exponentials, which
# scale and square (its lift, with leakage, is not nilpotent as
# leaderless_sec5's is)
ENGINES = {name: engine_for(named(name, t_end=0.01)) for name in SHIPPED + (TWO_RATES,)}
ENGINES["above_cap"] = engine_for(named("ultimate_bound", t_end=1.0, dt=0.2))


def relative_gap(a, b) -> float:
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


class TestReadout:
    def test_the_above_cap_case_is_above_the_cap(self):
        flow = ENGINES["above_cap"].flow
        assert flow.expm.degree(0.2) > _MAX_DEGREE
        assert len(flow._taylor) == _MAX_DEGREE + 1
        shipped = [e for name, e in ENGINES.items() if name != "above_cap"]
        assert all(e.flow.expm.degree(e.cfg.dt) == 6 for e in shipped)
        assert len(ENGINES[TWO_RATES].flow.lams) == 2

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_one_lift_is_the_per_rate_lifts(self, name):
        # the groups' blocks of one exponential are those of one exponential
        # per rate, bit for bit, at the grid's offsets and widths in (0, dt];
        # the two-rate lift's powers hold both rates' blocks, so at some
        # grid offsets it takes a higher degree than a rate's own lift, and
        # the blocks agree to rounding
        engine = ENGINES[name]
        flow, dt = engine.flow, engine.cfg.dt
        widths = dt * np.array([1e-9, 1e-4, 0.3, 0.5, 0.99, 1.0])
        for s, tables in ((dt * np.arange(len(flow.grid[0])), flow.grid),
                          (widths, flow.tables(widths))):
            F, decay, R, ET = tables
            oracle = per_rate_tables(engine.lift_args, s)
            for new, old in zip((F[..., :flow.nv], decay, R, ET), oracle):
                assert new.shape == old.shape, name
                assert np.array_equal(new, old) or (
                    name == TWO_RATES and relative_gap(new, old) <= 1e-15), name

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(ENGINES)), frac=st.floats(0.0, 1.0, exclude_min=True))
    def test_polynomial_readout_is_the_exponentials(self, name, frac):
        engine = ENGINES[name]
        s, flow = frac * engine.cfg.dt, engine.flow
        k = flow.expm.degree(s)
        if k >= len(flow._taylor):
            assert name == "above_cap"
            return
        for poly, exact in zip(flow._read(horner(flow._taylor, s, k)[None]), flow.tables([s])):
            assert np.array_equal(poly, exact), (name, s)

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_both_branches_of_the_readout(self, name):
        # within the Taylor terms' degree the tables are Horner's sum of
        # them at _Expm.degree, bit for bit; past it, only above the cap
        engine = ENGINES[name]
        dt, flow = engine.cfg.dt, engine.flow
        for s in dt * np.array([1e-9, 1e-4, 0.3, 0.99, 1.0]):
            k = flow.expm.degree(s)
            if k < len(flow._taylor):
                poly = flow._read(horner(flow._taylor, s, k)[None])
                for a, b in zip(poly, flow.tables([s])):
                    assert np.array_equal(a, b), (name, s)
        past = flow.expm.degree(dt) >= len(flow._taylor)
        assert past == (name == "above_cap")


class TestStar:
    @pytest.mark.parametrize("graph", [generate_graph("ring", 9), generate_graph("complete", 7),
                                       build_graph(6, [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)],
                                                   leader=0)],
                             ids=["ring9", "complete7", "leader-tree6"])
    def test_star_values_at_the_agents_are_the_graphs(self, graph):
        rng = np.random.default_rng(3)
        n = 3
        k = rng.normal(size=(1, n))
        params = ProtocolParams(delta=1.3, mu=2.0, nu=0.5, kappa=0.4)
        kernel = ProtocolKernel(graph, params, k, k.T @ k)
        Z = rng.normal(size=(graph.n_nodes, n))
        live = Z + 0.3 * rng.normal(size=Z.shape)
        c = rng.uniform(0, 2, len(graph.edges))
        full = kernel.trigger_values(live, Z, kernel.edge_terms(Z), c, 0.7)
        followers = [i for i in range(graph.n_nodes) if i != graph.leader]
        for size in (1, 2, 3):
            agents = np.sort(rng.choice(followers, size, replace=False))
            star, nodes, edges = kernel.star(agents)
            assert list(nodes[:size]) == list(agents)
            assert sorted(set(kernel.ei[edges]) | set(kernel.ej[edges])) == sorted(nodes)
            incident = [e for e, (a, b) in enumerate(graph.edges) if a in agents or b in agents]
            assert list(edges) == incident
            f = star.trigger_values(live[nodes], Z[nodes], star.edge_terms(Z[nodes]), c[edges],
                                    0.7)
            assert relative_gap(f[:size], full[agents]) <= 1e-14
            if graph.leader in nodes:
                assert f[list(nodes).index(graph.leader)] == -np.inf

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_star_triggers_match_the_whole_flow(self, name):
        # from a mid-run state with spread estimates and grown weights, on
        # both sides of the degree cap in the above-cap case
        engine = ENGINES[name]
        sim = copy.copy(engine)
        rng = np.random.default_rng(8)
        sim.Z = sim.Z + rng.uniform(-0.3, 0.3, sim.Z.shape)
        sim.c = sim.c + rng.uniform(0, 1, sim.c.size)
        sim.X = sim.X.copy()  # a round of no broadcasts re-forms the lift rows in place
        sim._broadcast((), 0.0, None, "trigger")
        agents = np.array([a for a in (1, 3) if a != sim.leader])
        star = sim.kernel.star(agents)
        f_star = sim.flow.star_triggers(sim.X, sim.Z, sim.dq[0], sim.c, star)
        for frac in (1e-6, 0.05, 0.4, 1.0):
            s = frac * sim.cfg.dt
            whole = sim._flow(sim.flow.tables([s]), [s])[4][0]
            assert relative_gap(f_star(s, s)[:agents.size], whole[agents]) <= 1e-10, (name, s)


class TestLocalizer:
    # every localization of a run's first 10 s, and all 30 s of switching,
    # through its 14 switches
    @pytest.mark.parametrize("name", SHIPPED + (TWO_RATES,))
    def test_first_localizations_match_the_whole_flow(self, name):
        traj = RunSetup(named(name, t_end=30.0 if name == "switching" else 10.0)).run()[0]
        gaps = localization_gaps(traj)
        stats = traj.stats
        assert len(gaps) == len({e.time for e in traj.events if e.kind == "trigger"})
        assert len(gaps) >= stats.localizations - stats.relocalizations > 50
        assert max(gaps) <= traj.sim.event_tol


class TestAudit:
    # a missed crossing is a step between two stored rows whose largest
    # interior trigger value reaches 0; the localized steps (t0, t*] are
    # audited too, and the variants bring the disturbance kinds and the
    # leakage rates that no shipped config runs
    @pytest.mark.parametrize("dt, t_end", [(1e-3, 0.6), (1e-2, 3.0)], ids=["dt1e-3", "dt1e-2"])
    @pytest.mark.parametrize("name", SHIPPED + VARIANTS)
    def test_no_missed_crossing(self, name, dt, t_end):
        traj = RunSetup(named(name, t_end=t_end, dt=dt)).run()[0]
        audit = audit_crossings(traj)
        assert audit["steps"] >= round(t_end / dt)
        assert audit["missed"] == 0 and audit["max_f"] < 0
        assert any(e.kind == "trigger" for e in traj.events)

    def test_a_dropped_trigger_row_is_a_missed_crossing(self):
        # without the row of the first trigger off the grid, the step from
        # the row before it runs on past the crossing with no reset
        traj = RunSetup(named("leaderless_sec5", t_end=3.0)).run()[0]
        dt = traj.sim.dt
        t = next(e.time for e in traj.events
                 if e.kind == "trigger" and round(e.time / dt) * dt != e.time)
        k = int(np.flatnonzero(traj.times == t)[0])
        (seg,) = traj.weight_segments
        dropped = dataclasses.replace(
            traj, times=np.delete(traj.times, k), states=np.delete(traj.states, k, 0),
            estimates=np.delete(traj.estimates, k, 0),
            weight_segments=[dataclasses.replace(seg, values=np.delete(seg.values, k, 0))])
        assert abs(t - 0.20456) < 1e-5
        assert audit_crossings(traj)["missed"] == 0
        audit = audit_crossings(dropped)
        assert audit["missed"] == 1 and audit["max_f"] > 0.05


class TestResets:
    def test_one_coupling_per_broadcast_round(self, monkeypatch):
        # a broadcast round forms the (w, p) columns of the lift rows by one
        # coupling over the stacked per-edge values, and they flow between
        # rounds: no pass or localization forms them again (ring400 at
        # seed 42, as the ring-sparse benchmark runs it, shortened)
        cfg = named("leaderless_sec5", t_end=0.2)
        cfg["graph"] = {"generator": "ring", "n": 400}
        calls = {"coupling": 0, "rounds": 0}
        coupling, broadcast = ProtocolKernel.coupling, _Simulation._broadcast

        def counted_coupling(kernel, *args):
            calls["coupling"] += 1
            return coupling(kernel, *args)

        def counted_broadcast(sim, *args):
            calls["rounds"] += 1
            return broadcast(sim, *args)

        monkeypatch.setattr(ProtocolKernel, "coupling", counted_coupling)
        monkeypatch.setattr(_Simulation, "_broadcast", counted_broadcast)
        stats = RunSetup(cfg).run()[0].stats
        assert calls["coupling"] == calls["rounds"] > 10
        assert stats.passes > calls["rounds"] and stats.localizations > 10
