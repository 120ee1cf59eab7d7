"""Closed-form estimate propagation inside the step loop.

The engine evaluates e^{As} with the package's truncated Taylor series
(``linalg._Expm``) and shares the Z-only edge work between the stages and
checks that see the same estimate stack. These tests pin the accuracy of
that exponential against scipy, that it is ``linalg.horner``'s sum of its
Taylor terms at ``_Expm.degree`` below the degree cap, that ``simulate`` never reaches scipy's
``expm``, that stored estimates are the closed-form propagation of the
last samples on a non-nilpotent model (checked with scipy's ``expm``), and
that the shared edge work and the passed-in endpoint value change nothing.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from etcons import engine
from etcons.engine import SimConfig, locate_event, simulate
from etcons.graph import build_graph, generate_graph
from etcons.linalg import _MAX_DEGREE, SystemModel, _Expm, cascade_lift, design_gains, horner
from etcons.protocols import ProtocolKernel, ProtocolParams
from oracles import events_for

EPS = np.finfo(float).eps


def _stiff():
    a = np.diag([-200.0, -1.0, 0.5])
    a[0, 1], a[1, 2], a[2, 0] = 3.0, -2.0, 1.0
    return a


def _high_gamma_lift():
    """The cascade lift (``linalg.cascade_lift``, no leakage, no disturbance)
    of a seeded random n = 3 model whose Gamma reaches 12,508: ||M||_1 is
    55,640, from Gamma's thousands in one corner."""
    rng = np.random.default_rng(22)
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 1))
    g = design_gains(SystemModel(A=a, B=b))
    return cascade_lift(a, b @ g.K, a, g.Gamma, [0.0], np.zeros((3, 0)), np.zeros((0, 0))).T


# name -> (A, dt, bound in multiples of eps on the 1-norm relative error).
# The stiff case has ||A||_1 dt > 1, so the evaluator scales and squares;
# scipy's own error there reaches ~16 eps against a 40-digit reference.
# The degree follows d_k = ||A^k||_1^{1/k} of A as given: the slow chain
# is nilpotent but for its diagonal, so d_3 = 0.086 against ||A||_1 = 1
# (a degree chosen by a norm a thousand times below ||A||_1 erred by 1e-10
# at dt), and the high-Gamma lift's d_k fall from 55,640 at k = 1 to 125
# at k = 4. On that lift, and on four more seeded alike, degree 9 to 11
# held dt = 1e-3 without squaring, within 0.43 eps of a 40-digit
# reference (scipy: 0.9 to 1.4 eps); at s = 0.3 it squared 5 or 6 times
# and erred by 4.1 to 7.8 eps, where a degree chosen by the Parlett-Reinsch
# balanced norm squared 4 or 5 times and erred by 1.8 to 7.8 eps.
EXPM_CASES = {
    "nilpotent-chain": (3.0 * np.eye(4, k=1), 1e-3, 4),
    "rotation": (np.array([[0.0, 6 * math.pi], [-6 * math.pi, 0.0]]), 1e-2, 4),
    "random-dense": (np.random.default_rng(7).normal(size=(5, 5)), 5e-2, 4),
    "stiff": (_stiff(), 2e-2, 64),
    "slow-chain": (np.array([[-2e-4, 0, 0], [-0.64, -2e-4, 0], [0, 1.0, -6e-4]]), 1e-2, 4),
    "high-gamma-lift": (_high_gamma_lift(), 1e-3, 4),
}
WIDTHS = np.array([1e-9, 1e-4, 0.3, 0.99, 1.0])  # in units of each case's dt


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

    @pytest.mark.parametrize("name", sorted(EXPM_CASES))
    def test_degree_bounds_the_remainder(self, name):
        # the terms past K = degree(s) sum to at most theta^{K+1}/(K+1)!
        # e^theta, theta = alpha(K) s, alpha(K) the least max(d_p, d_{p+1})
        # over p (p - 1) <= K + 1, d_k = ||A^k||_1^{1/k} of A as given
        a, dt, _ = EXPM_CASES[name]
        e, checked = _Expm(a), 0
        d = [0.0] + [_norm1(np.linalg.matrix_power(a, k)) ** (1 / k) for k in range(1, 6)]
        for s in dt * WIDTHS:
            k = e.degree(s)
            if k <= _MAX_DEGREE:
                alpha = min(max(d[p], d[p + 1]) for p in range(1, 5) if p * (p - 1) <= k + 1)
                theta = alpha * s
                tail = sum(_norm1(t) * s ** j for j, t in enumerate(e._P) if j > k)
                assert tail <= theta ** (k + 1) / math.factorial(k + 1) * math.exp(theta), s
                checked += 1
        assert checked >= 2

    def test_series_stops_at_nilpotency(self):
        triple = np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]])
        e = _Expm(triple)
        assert len(e._P) == 3 and e.degree(1e9) == 2
        s = 1e-3
        expected = np.array([[1.0, s, 0.5 * s * s], [0, 1, s], [0, 0, 1]])
        assert np.array_equal(e.at(s), expected)

    @pytest.mark.parametrize("name", sorted(EXPM_CASES))
    def test_is_horner_at_the_degree(self, name):
        # below the cap e^{As} is horner's sum of the terms at degree(s)
        a, dt, _ = EXPM_CASES[name]
        e, checked = _Expm(a), 0
        for s in dt * WIDTHS:
            k = e.degree(s)
            if k <= _MAX_DEGREE:
                assert np.array_equal(e.at(s), horner(e._P, s, k)), s
                checked += 1
        assert checked >= 2

    def test_nilpotent_series_is_horner_past_the_cap(self):
        # an exact series is summed in full at any width, with no squaring:
        # here ||A||_1 s = 30, far past the degree cap's theta of 0.76
        a, s = 3.0 * np.eye(4, k=1), 10.0
        e = _Expm(a)
        assert len(e._P) == 4 and e.degree(s) == 3
        assert np.array_equal(e.at(s), horner(e._P, s, 3))

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


def _run(a, variant, t_end=1.0, schedule=()):
    model = _model(a)
    gains = design_gains(model, observer=variant == "observer")
    if variant == "leader_follower":
        graph = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)], leader=0)
    else:
        graph = generate_graph("ring", 5)
    sim = SimConfig(t_end=t_end, dt=1e-3, event_tol=1e-8, seed=1,
                    dwell_min=0.2, topology_schedule=schedule)
    return simulate(model, graph, gains, PARAMS, sim, _x0(5, model.n), variant=variant)


@pytest.fixture
def no_scipy_expm(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm called inside simulate")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)


class TestNoScipyInLoop:
    # ids name the integrator the run uses: RK4, the engine's only one
    @pytest.mark.parametrize("variant", ["state", "observer", "leader_follower"],
                             ids=lambda v: f"{v}-rk4")
    @pytest.mark.parametrize("a", [A_OSC, A_TRIPLE], ids=["oscillator", "triple"])
    def test_variants(self, no_scipy_expm, a, variant):
        traj = _run(a, variant, t_end=0.5)
        assert traj.times[-1] == 0.5

    def test_switching_schedule(self, no_scipy_expm):
        schedule = ((0.25, generate_graph("complete", 5)),
                    (0.5, generate_graph("ring", 5)))
        traj = _run(A_OSC, "state", t_end=0.75, schedule=schedule)
        assert len(traj.weight_segments) == 3


# -- closed-form estimates on a non-nilpotent model -------------------------

def _recorded_localizations(monkeypatch):
    """Record (f, t_lo, t_hi, event_tol, f_lo, f_hi) of every engine localization."""
    calls = []

    def recording(f, t_lo, t_hi, event_tol, f_lo=None, f_hi=None):
        calls.append((f, t_lo, t_hi, event_tol, f_lo, f_hi))
        return locate_event(f, t_lo, t_hi, event_tol, f_lo, f_hi)

    monkeypatch.setattr(engine, "locate_event", recording)
    return calls


class TestOscillatorEstimates:
    @pytest.mark.parametrize("variant", ["state", "observer"])
    def test_estimates_are_closed_form(self, variant):
        traj = _run(A_OSC, variant, t_end=2.0)
        assert sum(e.kind == "trigger" for e in traj.events) > 0
        a = np.array(A_OSC)
        for i in range(traj.estimates.shape[1]):
            events = events_for(traj, i)
            last = np.searchsorted([e.time for e in events], traj.times, side="right") - 1
            for k, t in enumerate(traj.times):
                ev = events[last[k]]
                ref = scipy.linalg.expm(a * (t - ev.time)) @ ev.value
                err = np.linalg.norm(traj.estimates[k, i] - ref)
                assert err <= 1e-12 * np.linalg.norm(ref)

    def test_known_ends_give_the_same_instant(self, monkeypatch):
        # the pass's values at the ends (the whole flow's) and the star's
        # own evaluations there bracket the same instant
        calls = _recorded_localizations(monkeypatch)
        _run(A_OSC, "state", t_end=2.0)
        assert calls and any(f_lo is not None for *_, f_lo, _ in calls)
        for f, t_lo, t_hi, tol, f_lo, f_hi in calls:
            assert locate_event(f, t_lo, t_hi, tol) == locate_event(
                f, t_lo, t_hi, tol, f_lo, f_hi)

    def test_bad_bracket_still_raises(self, monkeypatch):
        calls = _recorded_localizations(monkeypatch)
        _run(A_OSC, "state", t_end=2.0)
        f, t_lo, t_hi, tol, *_ = calls[0]
        with pytest.raises(ValueError):
            locate_event(f, t_lo, t_hi, tol, f_hi=-1.0)
        with pytest.raises(ValueError):
            locate_event(lambda t: 1.0, t_lo, t_hi, tol, f_hi=1.0)


# -- shared edge work ----------------------------------------------------------

class TestSharedEdgeWork:
    @pytest.mark.parametrize("leader", [None, 0])
    def test_dq_argument_is_bit_identical(self, leader):
        # the kernel reads Z's edge work only through dq, so dq must be
        # exactly the per-edge disagreements and their quadratic forms
        rng = np.random.default_rng(11)
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (2, 4)]
        graph = build_graph(5, edges, leader=leader)
        k = rng.normal(size=(1, 3))
        kernel = ProtocolKernel(graph, PARAMS, k, k.T @ k)
        z = rng.normal(size=(5, 3))
        d, q = kernel.edge_terms(z)
        assert np.array_equal(d, z[kernel.ei] - z[kernel.ej])
        assert np.allclose(q, [e @ k.T @ k @ e for e in d], rtol=1e-12, atol=1e-14)
