import dataclasses
import math

import numpy as np
import pytest

from etcons.analysis import (
    consensus_error,
    event_stats,
    final_error_norm,
    invariance_deviation,
    leader_error,
    observer_error,
    predicted_consensus_value,
    stacked_norm,
    theorem1_bound,
    zeno_bound,
    zeno_report,
)
from etcons.engine import SimConfig, simulate
from etcons.graph import build_graph, generate_graph
from etcons.linalg import SystemModel, design_gains, matrix_exponential
from etcons.protocols import ProtocolParams

A_TRIPLE = np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]])
B_TRIPLE = np.array([[0.0], [0.0], [1.0]])


@pytest.fixture(scope="module")
def model():
    return SystemModel(A=A_TRIPLE, B=B_TRIPLE)


@pytest.fixture(scope="module")
def gains(model):
    return design_gains(model)


@pytest.fixture(scope="module")
def base_traj(model, gains):
    params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5, kappa=0.2, varrho=0.0, c0=0.0)
    sim = SimConfig(t_end=5.0, dt=1e-3, event_tol=1e-7, seed=42)
    x0 = np.random.default_rng(42).uniform(-1, 1, (6, 3))
    return simulate(model, generate_graph("ring", 6), gains, params, sim, x0)


class TestConsensusError:
    def test_identical_states(self):
        x = np.tile([1.0, 2.0], (5, 1))
        assert np.array_equal(consensus_error(x), np.zeros((5, 2)))

    def test_two_agents_zero_mean(self):
        xi = consensus_error(np.array([[1.0], [-1.0]]))
        assert np.array_equal(xi, [[1.0], [-1.0]])

    def test_projection_sums_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=(7, 3))
            assert np.abs(consensus_error(x).sum(axis=0)).max() < 1e-12

    def test_time_series_shape(self):
        x = np.random.default_rng(2).normal(size=(4, 5, 2))
        assert consensus_error(x).shape == (4, 5, 2)


class TestLeaderError:
    def test_followers_at_leader(self):
        x = np.tile([0.3, 0.4], (4, 1))
        assert np.array_equal(leader_error(x, 0), np.zeros((3, 2)))

    def test_scalar_subtraction(self):
        z = leader_error(np.array([[1.0], [3.0]]), 0)
        assert np.array_equal(z, [[2.0]])

    def test_block_count(self):
        x = np.random.default_rng(3).normal(size=(6, 3))
        assert leader_error(x, 2).shape == (5, 3)


class TestTheorem1Bound:
    def test_zero_leakage_gives_zero_bound(self):
        g = build_graph(2, [(0, 1)])
        params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5, kappa=0.1, varrho=0.0)
        tc = theorem1_bound(g, params, np.eye(1))
        assert tc.available
        assert tc.varsigma == 0.0
        assert tc.bound == 0.0

    def test_hand_evaluated_two_node_case(self):
        # alpha = max(2, 4/2) = 2; theta2 = 0.01;
        # varsigma = 2 * (0.1/8) * 4 = 0.1; rho = (1 - 0.01)/2 = 0.495
        g = build_graph(2, [(0, 1)])
        params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5, kappa=0.1, varrho=0.1)
        tc = theorem1_bound(g, params, np.eye(1))
        assert tc.alpha == pytest.approx(2.0)
        assert tc.theta2 == pytest.approx(0.01)
        assert tc.varsigma == pytest.approx(0.1)
        assert tc.rho == pytest.approx(0.495)
        assert tc.bound == pytest.approx(0.1 / 0.495)

    def test_monotone_in_leakage(self):
        g = generate_graph("ring", 6)
        p = np.eye(3)
        prev = -1.0
        for varrho in (0.01, 0.02, 0.05):
            params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5, kappa=0.2,
                                    varrho=varrho)
            tc = theorem1_bound(g, params, p)
            assert tc.varsigma > prev
            prev = tc.varsigma

    def test_unavailable_when_condition_violated(self, gains):
        g = build_graph(2, [(0, 1)])
        params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5, kappa=2.0, varrho=2.0)
        tc = theorem1_bound(g, params, gains.P)
        assert not tc.available
        assert "lambda_max" in tc.reason


class TestZenoBound:
    def test_observed_intervals_dominate(self, base_traj):
        report = zeno_report(base_traj)
        assert len(report.checks) > 0
        assert report.verdict
        assert report.min_margin >= 0

    def test_bound_positive_for_finite_times(self, base_traj):
        for agent in range(6):
            recs = base_traj.events_for(agent)
            for k in range(len(recs) - 1):
                tau = zeno_bound(base_traj, agent, k)
                assert tau > 0

    def test_monotone_in_mu(self, base_traj):
        agent = base_traj.events[6].agent
        k = 0
        tau_small = zeno_bound(base_traj, agent, k)
        bigger = dataclasses.replace(
            base_traj,
            params=ProtocolParams(delta=1.0, mu=8.0, nu=0.5, kappa=0.2, varrho=0.0))
        tau_big = zeno_bound(bigger, agent, k)
        assert tau_big > tau_small

    def test_zero_drift_limit(self):
        # single-integrator network: ||A|| = 0 takes the limiting form
        m = SystemModel(A=[[0.0]], B=[[1.0]])
        g = build_graph(2, [(0, 1)])
        params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5, kappa=0.5, varrho=0.0)
        sim = SimConfig(t_end=5.0, dt=1e-3, event_tol=1e-8, seed=0)
        traj = simulate(m, g, design_gains(m), params, sim, [[1.0], [-1.0]])
        report = zeno_report(traj)
        assert report.verdict
        assert all(c.bound > 0 for c in report.checks)

    def test_missing_pair_raises(self, base_traj):
        with pytest.raises(ValueError):
            zeno_bound(base_traj, 0, 10_000)


class TestEventStats:
    def test_real_run(self, base_traj):
        st = event_stats(base_traj)
        assert st.total == len(base_traj.events)
        assert st.global_min_interval > 0

    def test_synthetic_intervals(self, base_traj):
        traj = dataclasses.replace(base_traj)
        rec = base_traj.events[0]
        traj.events = [
            dataclasses.replace(rec, agent=0, time=0.0),
            dataclasses.replace(rec, agent=0, time=0.1),
            dataclasses.replace(rec, agent=0, time=0.4),
        ]
        st = event_stats(traj)
        assert st.per_agent_counts[0] == 3
        assert st.per_agent_min_interval[0] == pytest.approx(0.1)
        assert st.per_agent_mean_interval[0] == pytest.approx(0.2)
        assert st.global_min_interval == pytest.approx(0.1)

    def test_no_events(self, base_traj):
        traj = dataclasses.replace(base_traj)
        traj.events = []
        st = event_stats(traj)
        assert st.total == 0
        assert st.global_min_interval is None

    def test_single_event_per_agent_no_intervals(self, base_traj):
        traj = dataclasses.replace(base_traj)
        traj.events = [e for e in base_traj.events if e.kind == "init"]
        st = event_stats(traj)
        assert st.per_agent_min_interval == {}
        assert st.global_min_interval is None


class TestObserverError:
    def test_exact_observer_gives_zero(self, model, base_traj):
        traj = dataclasses.replace(base_traj, observer_states=base_traj.states.copy())
        eps = observer_error(traj)
        assert np.abs(eps).max() == 0.0

    def test_centered_stacks_sum_to_zero(self, base_traj):
        rng = np.random.default_rng(5)
        traj = dataclasses.replace(
            base_traj, observer_states=base_traj.states + rng.normal(
                size=base_traj.states.shape))
        eps = observer_error(traj)
        assert np.abs(eps.sum(axis=1)).max() < 1e-10

    def test_requires_observer_states(self, base_traj):
        with pytest.raises(ValueError):
            observer_error(base_traj)


class TestPredictedConsensusValue:
    def test_initial_time_is_mean(self):
        x0 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.allclose(predicted_consensus_value(A_TRIPLE, x0, 0.0),
                           [0.5, 0.5, 0.0])

    def test_static_dynamics(self):
        x0 = np.array([[2.0], [4.0]])
        for t in (0.0, 1.0, 7.0):
            assert predicted_consensus_value(np.zeros((1, 1)), x0, t) == \
                pytest.approx(3.0)

    def test_nilpotent_polynomial_form(self):
        x0 = np.eye(3)  # three agents on the basis vectors
        t = 2.0
        # e^{At} mean = [1/3 + t/3 + t^2/6, 1/3 + t/3, 1/3]
        expected = np.array([1 / 3 + t / 3 + t * t / 6, 1 / 3 + t / 3, 1 / 3])
        assert np.allclose(predicted_consensus_value(A_TRIPLE, x0, t), expected,
                           rtol=1e-12)


class TestInvarianceAndNorms:
    def test_invariance_small_on_real_run(self, base_traj):
        assert invariance_deviation(base_traj) < 1e-8

    def test_invariance_exact_on_drift_flow(self, base_traj):
        # states on the exact drift flow conserve the transported average;
        # a rotation over 20 s takes the evaluator's scaling-and-squaring path
        a = np.array([[0.0, 2.0], [-2.0, 0.0]])
        steps = np.random.default_rng(5).uniform(1e-3, 0.05, 800)
        times = np.concatenate([[0.0], np.cumsum(steps)])
        x0 = np.random.default_rng(6).uniform(-1, 1, (4, 2))
        states = np.array([x0 @ matrix_exponential(a, t).T for t in times])
        traj = dataclasses.replace(base_traj, model=SystemModel(A=a, B=[[0.0], [1.0]]),
                                   times=times, states=states)
        assert invariance_deviation(traj) < 1e-12

    def test_final_error_norm_matches_direct_computation(self, base_traj):
        direct = stacked_norm(consensus_error(base_traj.states[-1]))
        assert final_error_norm(base_traj) == direct
