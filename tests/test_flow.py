"""The closed-form flow's polynomial readout and the candidate-only
localizer, against their oracles.

``CascadeFlow.readout`` reads a width off the lifts' Taylor coefficients
and must agree with ``_Expm.at``; ``CascadeFlow.star_triggers`` evaluates
the candidates' star off one polynomial per localization and must agree
with the whole closed form; the localizer that bisects on it must land
within event_tol of the one that evaluates every agent
(``oracles.localize_full``); and the sampled audit
(``oracles.audit_crossings``) must find no crossing between the instants
the engine checks.
"""

import copy
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etcons.cli import RunSetup, load_config
from etcons.engine import _Simulation
from etcons.graph import build_graph, generate_graph
from etcons.linalg import _TAYLOR_THETA
from etcons.protocols import ProtocolKernel, ProtocolParams
from oracles import audit_crossings, localize_full

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED = ("leaderless_sec5", "ultimate_bound", "switching", "leader_follower",
           "observer", "disturbance")


def config(name: str, **sim) -> dict:
    cfg = load_config(os.path.join(CONFIG_DIR, name + ".json"))
    cfg["sim"].update(sim)
    if "t_end" in sim:
        cfg["sim"]["topology_schedule"] = [s for s in cfg["sim"].get("topology_schedule", [])
                                           if s["t"] < sim["t_end"]]
    return cfg


def engine_for(cfg: dict) -> _Simulation:
    """An engine built as ``RunSetup.run`` builds it, before its first step."""
    s = RunSetup(copy.deepcopy(cfg))
    return _Simulation(s.model, s.graph, s.design(), s.params, s.sim, s.x0, s.variant,
                       chi0=s.chi0)


# the six shipped lifts at their own dt, and ultimate_bound at dt = 0.2,
# where theta(dt) is above the Taylor degree cap: widths past the radius
# of degree 16 go to the exponentials, which scale and square (its lift,
# with leakage, is not nilpotent as leaderless_sec5's is)
ENGINES = {name: engine_for(config(name, t_end=0.01)) for name in SHIPPED}
ENGINES["above_cap"] = engine_for(config("ultimate_bound", t_end=1.0, dt=0.2))


def relative_gap(a, b) -> float:
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


class TestReadout:
    def test_the_above_cap_case_is_above_the_cap(self):
        flow = ENGINES["above_cap"].flow
        assert flow._norm * 0.2 > _TAYLOR_THETA[-1] and len(flow._coef) == len(_TAYLOR_THETA)
        shipped = [e for name, e in ENGINES.items() if name != "above_cap"]
        assert all(e.flow._norm * e.cfg.dt <= 0.014 for e in shipped)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(ENGINES)), frac=st.floats(0.0, 1.0, exclude_min=True))
    def test_polynomial_readout_is_the_exponentials(self, name, frac):
        engine = ENGINES[name]
        s = frac * engine.cfg.dt
        for poly, exact in zip(engine.flow.readout(s), engine.flow.tables([s])):
            assert poly.shape == exact.shape
            assert relative_gap(poly, exact) <= 1e-14, (name, s)

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_both_branches_of_the_readout(self, name):
        # within the coefficients' degree the readout is Horner's at
        # _Expm.at's degree, so one lift's tables keep their bits
        engine = ENGINES[name]
        dt, flow = engine.cfg.dt, engine.flow
        widths = dt * np.array([1e-9, 1e-4, 0.3, 0.99, 1.0])
        for s in widths:
            for poly, exact in zip(flow.readout(s), flow.tables([s])):
                assert np.array_equal(poly, exact), (name, s)
        past = flow._horner(flow._coef, dt) is None
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
        sim.dq = sim.kernel.edge_terms(sim.Z)
        sim.c = sim.c + rng.uniform(0, 1, sim.c.size)
        sim.P = sim._lift_now = None
        agents = np.array([a for a in (1, 3) if a != sim.leader])
        star = sim.kernel.star(agents)
        f_star = sim.flow.star_triggers(sim._lifted(0), sim.Z, sim.c, star)
        for frac in (1e-6, 0.05, 0.4, 1.0):
            s = frac * sim.cfg.dt
            whole = sim._flow(sim.flow.tables([s]), [s], [0])[4][0]
            assert relative_gap(f_star(s, s)[:agents.size], whole[agents]) <= 1e-10, (name, s)


def localizations(monkeypatch, cfg: dict, wanted: int, after_switch: int = 0):
    """Run cfg and compare the first ``wanted`` localizations, and the first
    ``after_switch`` after each switch, with the whole-flow localizer."""
    localize, compared = _Simulation._localize, []
    state = {"since_switch": None}
    apply_switch = _Simulation._apply_switch

    def switched(sim, t, graph):
        state["since_switch"] = 0
        return apply_switch(sim, t, graph)

    def checked(sim, t1, cell, end):
        since = state["since_switch"]
        check = len(compared) < wanted or (since is not None and since < after_switch)
        oracle = localize_full(sim, t1, cell, end) if check else None
        t_star, found = localize(sim, t1, cell, end)
        if check:
            assert abs(t_star - oracle) <= sim.cfg.event_tol, (t1, t_star, oracle)
            compared.append((t_star, since))
            if since is not None:
                state["since_switch"] = since + 1
        return t_star, found

    monkeypatch.setattr(_Simulation, "_localize", checked)
    monkeypatch.setattr(_Simulation, "_apply_switch", switched)
    RunSetup(cfg).run()
    return compared


class TestLocalizer:
    @pytest.mark.parametrize("name", [n for n in SHIPPED if n != "switching"])
    def test_first_localizations_match_the_whole_flow(self, monkeypatch, name):
        compared = localizations(monkeypatch, config(name, t_end=10.0), 50)
        assert len(compared) == 50

    def test_localizations_after_each_switch(self, monkeypatch):
        cfg = config("switching")
        compared = localizations(monkeypatch, cfg, 50, after_switch=3)
        switches = len(cfg["sim"]["topology_schedule"])
        assert switches == 14 and len(compared) >= 50
        assert sum(since is not None for _, since in compared) >= 3 * switches


class TestAudit:
    # a missed crossing is a committed step whose largest interior trigger
    # value reaches 0; the localized steps (t0, t*] are audited too
    @pytest.mark.parametrize("dt, t_end", [(1e-3, 0.6), (1e-2, 3.0)], ids=["dt1e-3", "dt1e-2"])
    @pytest.mark.parametrize("name", SHIPPED)
    def test_no_missed_crossing(self, name, dt, t_end):
        cfg = config(name, t_end=t_end, dt=dt)
        audit = audit_crossings(lambda: RunSetup(cfg).run())
        traj = audit["result"][0]
        assert audit["steps"] >= round(t_end / dt)
        assert audit["missed"] == 0 and audit["max_f"] < 0
        assert any(e.kind == "trigger" for e in traj.events)
