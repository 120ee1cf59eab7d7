"""Closed-form estimate propagation inside the step loop.

The engine evaluates e^{As} with its own truncated Taylor series
(``engine._Expm``) and shares the Z-only edge work between the stages and
checks that see the same estimate stack. These tests pin the accuracy of
that exponential against scipy, that ``simulate`` never reaches scipy's
``expm``, that stored estimates are the closed-form propagation of the
last samples on a non-nilpotent model, and that the shared edge work and
the passed-in endpoint value change nothing.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from etcons import engine
from etcons.engine import SimConfig, _Expm, locate_event, simulate
from etcons.graph import build_graph, generate_graph
from etcons.linalg import SystemModel, design_gains, matrix_exponential
from etcons.protocols import ProtocolKernel, ProtocolParams

EPS = np.finfo(float).eps


def _stiff():
    a = np.diag([-200.0, -1.0, 0.5])
    a[0, 1], a[1, 2], a[2, 0] = 3.0, -2.0, 1.0
    return a


# name -> (A, dt, bound in multiples of eps on the 1-norm relative error).
# The stiff case has ||A||_1 dt > 1, so the evaluator scales and squares;
# scipy's own error there reaches ~16 eps against a 40-digit reference.
EXPM_CASES = {
    "nilpotent-chain": (3.0 * np.eye(4, k=1), 1e-3, 4),
    "rotation": (np.array([[0.0, 6 * math.pi], [-6 * math.pi, 0.0]]), 1e-2, 4),
    "random-dense": (np.random.default_rng(7).normal(size=(5, 5)), 5e-2, 4),
    "stiff": (_stiff(), 2e-2, 64),
}


def _above(x: float, ulps: int) -> float:
    for _ in range(ulps):
        x = np.nextafter(x, np.inf)
    return float(x)


def _norm1(m: np.ndarray) -> float:
    return np.abs(m).sum(axis=0).max()


def _rel_err(a: np.ndarray, ref: np.ndarray) -> float:
    return _norm1(a - ref) / _norm1(ref)


class TestTaylorExpm:
    @pytest.mark.parametrize("name", sorted(EXPM_CASES))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    def test_matches_scipy_within_dt(self, name, frac):
        a, dt, bound = EXPM_CASES[name]
        s = frac * dt
        if s == 0.0:
            return
        assert _rel_err(_Expm(a).at(s), scipy.linalg.expm(a * s)) <= bound * EPS

    @pytest.mark.parametrize("name", sorted(EXPM_CASES))
    @pytest.mark.parametrize("ulps", [0, 1, 2, 5])
    def test_matches_scipy_just_above_dt(self, name, ulps):
        # tc - t may land a few ulps above dt
        a, dt, bound = EXPM_CASES[name]
        s = _above(dt, ulps)
        assert _rel_err(_Expm(a).at(s), scipy.linalg.expm(a * s)) <= bound * EPS

    def test_stiff_case_needs_scaling(self):
        a, dt, _ = EXPM_CASES["stiff"]
        assert _norm1(a) * dt > 1.0

    def test_series_stops_at_nilpotency(self):
        triple = np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]])
        e = _Expm(triple)
        assert e._exact and len(e._P) == 3
        s = 1e-3
        expected = np.array([[1.0, s, 0.5 * s * s], [0, 1, s], [0, 0, 1]])
        assert np.array_equal(e.at(s), expected)

    def test_zero_width_is_identity(self):
        for a, _, _ in EXPM_CASES.values():
            assert np.array_equal(_Expm(a).at(0.0), np.eye(a.shape[0]))

    def test_large_width_scales_and_squares(self):
        a, _, _ = EXPM_CASES["rotation"]
        s = 3.0  # ||A|| s ~ 57
        assert _rel_err(_Expm(a).at(s), scipy.linalg.expm(a * s)) <= 1e3 * EPS


# -- no scipy inside simulate ------------------------------------------------

A_OSC = [[0.0, 2.0], [-2.0, 0.0]]
A_TRIPLE = [[0.0, 1, 0], [0, 0, 1], [0, 0, 0]]
PARAMS = ProtocolParams(delta=1.0, mu=0.1, nu=0.5, kappa=0.2, varrho=0.0, c0=0.0)


def _model(a):
    n = len(a)
    b = [[0.0]] * (n - 1) + [[1.0]]
    c = [[1.0] + [0.0] * (n - 1)]
    return SystemModel(A=a, B=b, C=c)


def _x0(n_agents, n, seed=3):
    return np.random.default_rng(seed).uniform(-1, 1, (n_agents, n))


def _run(a, variant, solver, t_end=1.0, schedule=()):
    model = _model(a)
    gains = design_gains(model, observer=variant == "observer")
    if variant == "leader_follower":
        graph = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)], leader=0)
    else:
        graph = generate_graph("ring", 5)
    sim = SimConfig(t_end=t_end, dt=1e-3, event_tol=1e-8, solver=solver, seed=1,
                    dwell_min=0.2, topology_schedule=schedule)
    return simulate(model, graph, gains, PARAMS, sim, _x0(5, model.n), variant=variant)


@pytest.fixture
def no_scipy_expm(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm called inside simulate")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)


class TestNoScipyInLoop:
    @pytest.mark.parametrize("solver", ["rk4", "rk45-adaptive"])
    @pytest.mark.parametrize("variant", ["state", "observer", "leader_follower"])
    @pytest.mark.parametrize("a", [A_OSC, A_TRIPLE], ids=["oscillator", "triple"])
    def test_variants(self, no_scipy_expm, a, variant, solver):
        traj = _run(a, variant, solver, t_end=0.5)
        assert traj.times[-1] == 0.5

    def test_switching_schedule(self, no_scipy_expm):
        schedule = ((0.25, generate_graph("complete", 5)),
                    (0.5, generate_graph("ring", 5)))
        traj = _run(A_OSC, "state", "rk4", t_end=0.75, schedule=schedule)
        assert len(traj.weight_segments) == 3


# -- closed-form estimates on a non-nilpotent model -------------------------

def _recorded_localizations(monkeypatch):
    """Record (f, t_lo, t_hi, event_tol, f_hi) of every engine localization."""
    calls = []

    def recording(f, t_lo, t_hi, event_tol, f_hi=None):
        calls.append((f, t_lo, t_hi, event_tol, f_hi))
        return locate_event(f, t_lo, t_hi, event_tol, f_hi=f_hi)

    monkeypatch.setattr(engine, "locate_event", recording)
    return calls


class TestOscillatorEstimates:
    @pytest.mark.parametrize("variant", ["state", "observer"])
    def test_estimates_are_closed_form(self, variant):
        traj = _run(A_OSC, variant, "rk4", t_end=2.0)
        assert sum(e.kind == "trigger" for e in traj.events) > 0
        a = np.array(A_OSC)
        for i in range(traj.estimates.shape[1]):
            events = traj.events_for(i)
            last = np.searchsorted([e.time for e in events], traj.times, side="right") - 1
            for k, t in enumerate(traj.times):
                ev = events[last[k]]
                ref = matrix_exponential(a, t - ev.time) @ ev.value
                err = np.linalg.norm(traj.estimates[k, i] - ref)
                assert err <= 1e-12 * np.linalg.norm(ref)

    def test_endpoint_value_is_g_at_t_hi(self, monkeypatch):
        calls = _recorded_localizations(monkeypatch)
        _run(A_OSC, "state", "rk4", t_end=2.0)
        assert calls
        for f, t_lo, t_hi, tol, f_hi in calls:
            assert f(t_hi) == f_hi  # the step's endpoint check, same bits
            assert locate_event(f, t_lo, t_hi, tol) == locate_event(
                f, t_lo, t_hi, tol, f_hi=f_hi)

    def test_bad_bracket_still_raises(self, monkeypatch):
        calls = _recorded_localizations(monkeypatch)
        _run(A_OSC, "state", "rk4", t_end=2.0)
        f, t_lo, t_hi, tol, _ = calls[0]
        with pytest.raises(ValueError):
            locate_event(f, t_lo, t_hi, tol, f_hi=-1.0)
        with pytest.raises(ValueError):
            locate_event(lambda t: 1.0, t_lo, t_hi, tol, f_hi=1.0)


# -- shared edge work ----------------------------------------------------------

class TestSharedEdgeWork:
    @pytest.mark.parametrize("leader", [None, 0])
    def test_dq_argument_is_bit_identical(self, leader):
        rng = np.random.default_rng(11)
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (2, 4)]
        graph = build_graph(5, edges, leader=leader)
        k = rng.normal(size=(1, 3))
        kernel = ProtocolKernel(graph, PARAMS, k, k.T @ k)
        z = rng.normal(size=(5, 3))
        live = z + 0.1 * rng.normal(size=(5, 3))
        c = rng.uniform(0.0, 2.0, size=len(edges))
        dq = kernel.edge_terms(z)
        assert np.array_equal(dq[0], z[kernel.ei] - z[kernel.ej])
        for got, want in zip(kernel.flow_terms(z, c, dq), kernel.flow_terms(z, c)):
            assert np.array_equal(got, want)
        assert np.array_equal(kernel.trigger_values(live, z, c, 0.4, dq),
                              kernel.trigger_values(live, z, c, 0.4))
