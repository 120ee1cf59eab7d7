import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etcons.errors import ConfigError
from etcons.graph import build_graph, generate_graph
from etcons.protocols import ProtocolKernel, ProtocolParams
from oracles import control_input, trigger_value, weight_rate

GAMMA1 = np.array([[1.0]])
K1 = np.array([[-1.0]])


def scalar(v):
    return np.array([float(v)])


class TestProtocolParams:
    def test_positive_constants_required(self):
        with pytest.raises(ConfigError):
            ProtocolParams(delta=0.0, mu=2.0, nu=0.5)
        with pytest.raises(ConfigError):
            ProtocolParams(delta=1.0, mu=-2.0, nu=0.5)
        with pytest.raises(ConfigError):
            ProtocolParams(delta=1.0, mu=2.0, nu=0.0)

    def test_scalar_broadcast(self):
        g = generate_graph("ring", 4)
        params = ProtocolParams(delta=1, mu=2, nu=0.5, kappa=0.2, varrho=0.1, c0=3.0)
        kappa, varrho, c0 = params.edge_arrays(g)
        assert np.array_equal(kappa, [0.2] * 4)
        assert np.array_equal(varrho, [0.1] * 4)
        assert np.array_equal(c0, [3.0] * 4)

    def test_per_edge_maps_symmetric_storage(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        params = ProtocolParams(delta=1, mu=2, nu=0.5,
                                kappa={(1, 0): 0.3, (1, 2): 0.7})
        kappa, _, _ = params.edge_arrays(g)
        # entry given as (1,0) lands on the canonical (0,1) slot
        assert np.array_equal(kappa, [0.3, 0.7])

    def test_missing_edge_entry(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        params = ProtocolParams(delta=1, mu=2, nu=0.5, kappa={(0, 1): 0.3})
        with pytest.raises(ConfigError):
            params.edge_arrays(g)

    def test_map_keys_are_distinct_nodes_keyed_once(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        for kappa, named in (({(0, 1): 0.2, (1, 0): 0.9, (1, 2): 0.2}, "(1, 0)"),
                             ({(0, 1): 0.2, (1, 2): 0.2, (2, 2): 0.2}, "(2, 2)"),
                             ({(0, 1): 0.2, (1, 2): 0.2, (0, 7): 0.2}, "(0, 7)"),
                             ({(0, 1): 0.2, (1, 2): 0.2, (-1, 2): 0.2}, "(-1, 2)")):
            with pytest.raises(ConfigError, match=r"protocol\.kappa") as info:
                ProtocolParams(delta=1, mu=2, nu=0.5, kappa=kappa).edge_arrays(g)
            assert named in str(info.value)
        # a valid pair that is not an edge of this graph is allowed
        params = ProtocolParams(delta=1, mu=2, nu=0.5,
                                c0={(0, 1): 1.0, (1, 2): 2.0, (2, 0): 3.0})
        assert np.array_equal(params.edge_arrays(g)[2], [1.0, 2.0])

    def test_sign_validation(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ConfigError):
            ProtocolParams(delta=1, mu=2, nu=0.5, kappa=0.0).edge_arrays(g)
        with pytest.raises(ConfigError):
            ProtocolParams(delta=1, mu=2, nu=0.5, varrho=-0.1).edge_arrays(g)

    def test_decay_is_math_exp_at_a_time_and_at_a_sequence(self):
        # the threshold of the engine's grid, the kernel and the Zeno bound
        # is one formula, bit for bit in either form
        params = ProtocolParams(delta=1, mu=1.7, nu=0.3)
        times = [0.0, 1e-3, 0.7, 3 * 0.1, 29.999, 1e4]
        expected = [1.7 * math.exp(-0.3 * t) for t in times]
        assert [params.decay(t) for t in times] == expected
        column = params.decay(np.array(times))
        assert column.shape == (len(times), 1)
        assert column[:, 0].tolist() == expected
        assert params.decay(2) == 1.7 * math.exp(-0.3 * 2)


class TestControlInput:
    def test_consensus_manifold_zero(self):
        est = scalar(0.4)
        u = control_input(K1, est, {1: est.copy(), 2: est.copy()}, {1: 1.0, 2: 5.0})
        assert np.array_equal(u, [0.0])

    def test_single_edge_substitution(self):
        u = control_input(K1, scalar(2.0), {1: scalar(0.0)}, {1: 1.0})
        assert u[0] == pytest.approx(-2.0)

    def test_two_edges_substitution(self):
        # u = K (1*1 + 3*(-1)) = -1 * (-2) = 2
        u = control_input(K1, scalar(0.0), {1: scalar(-1.0), 2: scalar(1.0)},
                          {1: 1.0, 2: 3.0})
        assert u[0] == pytest.approx(2.0)

    def test_missing_neighbor_sample(self):
        with pytest.raises(ValueError, match="missing broadcast sample"):
            control_input(K1, scalar(0.0), {}, {1: 1.0})


class TestWeightRate:
    def test_pure_leakage_at_zero_disagreement(self):
        assert weight_rate(0.5, 0.2, 3.0, scalar(0.0), GAMMA1) == pytest.approx(
            0.5 * (-0.2 * 3.0))

    def test_direct_substitution(self):
        assert weight_rate(0.2, 0.0, 1.0, scalar(2.0), GAMMA1) == pytest.approx(0.8)

    def test_fixed_point(self):
        diff = scalar(2.0)
        c_eq = float(diff @ GAMMA1 @ diff) / 0.5
        assert weight_rate(1.3, 0.5, c_eq, diff, GAMMA1) == pytest.approx(0.0)

    def test_symmetry_bit_for_bit(self):
        rng = np.random.default_rng(21)
        gamma = np.array([[2.0, 0.5], [0.5, 1.0]])
        for _ in range(20):
            d = rng.normal(size=2)
            lhs = weight_rate(0.3, 0.1, 1.7, d, gamma)
            rhs = weight_rate(0.3, 0.1, 1.7, -d, gamma)
            assert lhs == rhs  # exact: sign cancellation is exact in floats

    def test_rate_bounded_below_with_psd_gamma(self):
        rng = np.random.default_rng(22)
        k = rng.normal(size=(1, 3))
        gamma = k.T @ k
        for _ in range(20):
            d = rng.normal(size=3)
            c = rng.uniform(0, 5)
            assert weight_rate(0.2, 0.1, c, d, gamma) >= 0.2 * (-0.1 * c) - 1e-12


class TestTriggerValueState:
    def test_error_reset_strictly_negative(self):
        f = trigger_value(scalar(0.0), scalar(1.0), {1: scalar(0.0)},
                          {1: 2.0}, 1.0, 2.0, 0.5, GAMMA1, 0.0, leader=None)
        assert f == pytest.approx(-0.25 - 2.0)
        assert f < 0

    def test_scalar_substitution_no_fire(self):
        # (1 + 1*2)*0.01 - 0.25*1 - 2 = -2.22
        f = trigger_value(scalar(0.1), scalar(1.0), {1: scalar(0.0)},
                          {1: 2.0}, 1.0, 2.0, 0.5, GAMMA1, 0.0, leader=None)
        assert f == pytest.approx(-2.22)

    def test_scalar_substitution_fires(self):
        # 3*1 - 0.25 - 2 = 0.75
        f = trigger_value(scalar(1.0), scalar(1.0), {1: scalar(0.0)},
                          {1: 2.0}, 1.0, 2.0, 0.5, GAMMA1, 0.0, leader=None)
        assert f == pytest.approx(0.75)
        assert f >= 0


class TestTriggerValueLeaderFollower:
    def test_error_reset_strictly_negative(self):
        f = trigger_value(
            scalar(0.0), scalar(1.0), {0: scalar(0.0), 2: scalar(0.5)},
            {0: 2.0, 2: 1.0}, 1.0, 2.0, 0.5, GAMMA1, 0.0, leader=0)
        assert f < 0

    def test_leader_edge_substitution_no_fire(self):
        # 0.5*(1+2)*1 - 0.5*1 - 2 = -1
        f = trigger_value(
            scalar(1.0), scalar(1.0), {0: scalar(0.0)}, {0: 2.0},
            1.0, 2.0, 0.5, GAMMA1, 0.0, leader=0)
        assert f == pytest.approx(-1.0)

    def test_leader_edge_substitution_fires(self):
        # 0.5*3*4 - 0.5*1 - 2 = 3.5
        f = trigger_value(
            scalar(2.0), scalar(1.0), {0: scalar(0.0)}, {0: 2.0},
            1.0, 2.0, 0.5, GAMMA1, 0.0, leader=0)
        assert f == pytest.approx(3.5)

    def test_follower_edges_keep_quarter_share(self):
        # mixed neighbourhood: leader edge halves, follower edge quarters
        f = trigger_value(
            scalar(0.0), scalar(2.0), {0: scalar(0.0), 2: scalar(0.0)},
            {0: 1.0, 2: 1.0}, 1.0, 2.0, 0.5, GAMMA1, 0.0, leader=0)
        assert f == pytest.approx(-0.5 * 4.0 - 0.25 * 4.0 - 2.0)


class TestKernelAgainstLocalFunctions:
    """The stacked evaluator must agree with the per-agent formulas."""

    def _random_setup(self, rng, leader=None):
        n_nodes = int(rng.integers(3, 7))
        edges = set()
        for i in range(1, n_nodes):
            j = int(rng.integers(0, i))
            edges.add((j, i))
        for _ in range(n_nodes):
            a, b = rng.integers(0, n_nodes, size=2)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        g = build_graph(n_nodes, sorted(edges), leader=leader)
        n = 2
        k = rng.normal(size=(1, n))
        gamma = k.T @ k
        params = ProtocolParams(delta=1.3, mu=2.0, nu=0.5,
                                kappa=0.4, varrho=0.05, c0=0.0)
        kernel = ProtocolKernel(g, params, k, gamma)
        z = rng.normal(size=(n_nodes, n))
        live = z - 0.1 * rng.normal(size=(n_nodes, n))
        c = rng.uniform(0.0, 3.0, size=len(g.edges))
        return g, kernel, k, gamma, params, z, live, c

    def test_leaderless_consistency(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g, kernel, k, gamma, params, z, live, c = self._random_setup(rng)
            dq = kernel.edge_terms(z)
            u_stack, cdot_stack = kernel.flow_terms(dq, c)
            f_stack = kernel.trigger_values(live, z, dq, c, t=0.8)
            for i in range(g.n_nodes):
                est = {j: z[j] for j in g.neighbors(i)}
                w = {j: c[g.edges.index((min(i, j), max(i, j)))]
                     for j in g.neighbors(i)}
                assert np.allclose(u_stack[i], control_input(k, z[i], est, w),
                                   rtol=1e-12, atol=1e-12)
                f_local = trigger_value(z[i] - live[i], z[i], est, w,
                                        params.delta, params.mu, params.nu,
                                        gamma, 0.8, leader=None)
                assert f_stack[i] == pytest.approx(f_local, rel=1e-12, abs=1e-12)
            for e, (a, b) in enumerate(g.edges):
                r = weight_rate(0.4, 0.05, c[e], z[a] - z[b], gamma)
                assert cdot_stack[e] == pytest.approx(r, rel=1e-12, abs=1e-12)

    def test_leader_follower_consistency(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            g, kernel, k, gamma, params, z, live, c = self._random_setup(rng, leader=0)
            dq = kernel.edge_terms(z)
            u_stack, _ = kernel.flow_terms(dq, c)
            f_stack = kernel.trigger_values(live, z, dq, c, t=0.3)
            assert np.array_equal(u_stack[0], np.zeros(1))
            assert f_stack[0] == -np.inf
            for i in range(1, g.n_nodes):
                est = {j: z[j] for j in g.neighbors(i)}
                w = {j: c[g.edges.index((min(i, j), max(i, j)))]
                     for j in g.neighbors(i)}
                assert np.allclose(u_stack[i], control_input(k, z[i], est, w),
                                   rtol=1e-12, atol=1e-12)
                f_local = trigger_value(
                    z[i] - live[i], z[i], est, w, params.delta, params.mu,
                    params.nu, gamma, 0.3, leader=0)
                assert f_stack[i] == pytest.approx(f_local, rel=1e-12, abs=1e-12)

    def test_signatures_carry_no_global_quantities(self):
        # the per-agent oracles close over nothing but incident-edge data
        import inspect
        for fn in (control_input, weight_rate, trigger_value):
            names = set(inspect.signature(fn).parameters)
            assert not names & {"lambda2", "n_agents", "graph", "laplacian"}


@st.composite
def hub_graphs(draw):
    """Connected graphs on 4..12 nodes with at least one node of degree >= 3:
    a star, a complete graph, or a random tree plus a hub and extra edges."""
    kind = draw(st.sampled_from(["star", "complete", "random"]))
    n_nodes = draw(st.integers(4, 12))
    leader = draw(st.one_of(st.none(), st.integers(0, n_nodes - 1)))
    if kind != "random":
        return generate_graph(kind, n_nodes, leader=leader)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n_nodes)}
    hub = int(rng.integers(0, n_nodes))
    for j in rng.choice(np.delete(np.arange(n_nodes), hub), 3, replace=False):
        edges.add((min(hub, int(j)), max(hub, int(j))))
    for _ in range(int(rng.integers(0, 2 * n_nodes))):
        a, b = (int(v) for v in rng.integers(0, n_nodes, size=2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return build_graph(n_nodes, sorted(edges), leader=leader)


class TestKernelProperties:
    """The stacked evaluator against the per-agent formulas on drawn
    graphs, state dimensions and values."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(g=hub_graphs(), n=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 10.0))
    def test_matches_local_functions(self, g, n, seed, t):
        assert max(len(g.neighbors(i)) for i in range(g.n_nodes)) >= 3
        rng = np.random.default_rng(seed)
        k = rng.normal(size=(1, n))
        gamma = k.T @ k
        kappa, varrho = rng.uniform(0.05, 2.0, size=2)
        params = ProtocolParams(delta=float(rng.uniform(0.1, 3.0)), mu=2.0, nu=0.5,
                                kappa=float(kappa), varrho=float(varrho))
        kernel = ProtocolKernel(g, params, k, gamma)
        z = rng.normal(size=(g.n_nodes, n))
        live = z - 0.1 * rng.normal(size=(g.n_nodes, n))
        c = rng.uniform(0.0, 3.0, size=len(g.edges))
        dq = kernel.edge_terms(z)
        u_stack, cdot_stack = kernel.flow_terms(dq, c)
        f_stack = kernel.trigger_values(live, z, dq, c, t)
        for e, (a, b) in enumerate(g.edges):
            r = weight_rate(kappa, varrho, c[e], z[a] - z[b], gamma)
            assert cdot_stack[e] == pytest.approx(r, rel=1e-12, abs=1e-12)
        for i in range(g.n_nodes):
            if i == g.leader:
                assert np.array_equal(u_stack[i], np.zeros(1))
                assert f_stack[i] == -np.inf
                continue
            est = {j: z[j] for j in g.neighbors(i)}
            w = {j: c[g.edges.index((min(i, j), max(i, j)))] for j in g.neighbors(i)}
            assert np.allclose(u_stack[i], control_input(k, z[i], est, w),
                               rtol=1e-12, atol=1e-12)
            f_local = trigger_value(z[i] - live[i], z[i], est, w, params.delta,
                                    params.mu, params.nu, gamma, t, leader=g.leader)
            assert f_stack[i] == pytest.approx(f_local, rel=1e-12, abs=1e-12)


class TestKernelMemory:
    def test_no_node_by_edge_arrays(self):
        # ring N = 2000: one dense N x M float array would take 32 MB
        g = generate_graph("ring", 2000)
        rng = np.random.default_rng(5)
        k = rng.normal(size=(1, 3))
        params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5)
        z = rng.normal(size=(2000, 3))
        live = z + 0.1 * rng.normal(size=(2000, 3))
        c = rng.uniform(0.0, 3.0, size=len(g.edges))
        tracemalloc.start()
        try:
            kernel = ProtocolKernel(g, params, k, k.T @ k)
            dq = kernel.edge_terms(z)
            kernel.flow_terms(dq, c)
            kernel.trigger_values(live, z, dq, c, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestStackedCalls:
    @pytest.mark.parametrize("graph", [generate_graph("ring", 6),
                                       generate_graph("complete", 12),
                                       build_graph(5, [(0, 1), (0, 2), (2, 3), (3, 4)], leader=0)],
                             ids=["ring6", "complete12", "leader-path5"])
    @pytest.mark.parametrize("lead", [(1,), (7,), (4, 3)])
    def test_stacked_call_equals_its_per_slice_calls(self, graph, lead):
        rng = np.random.default_rng(5)
        n = 3
        k = rng.normal(size=(2, n))
        params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5, kappa=0.3, varrho=0.1)
        kernel = ProtocolKernel(graph, params, k, k.T @ k)
        Z = rng.normal(size=lead + (graph.n_nodes, n))
        live = rng.normal(size=Z.shape)
        c = rng.uniform(0, 2, lead + (len(graph.edges),))
        d, q = kernel.edge_terms(Z)
        u, cdot = kernel.flow_terms((d, q), c)
        for idx in np.ndindex(*lead):
            d1, q1 = kernel.edge_terms(Z[idx])
            assert np.array_equal(d[idx], d1) and np.array_equal(q[idx], q1)
            u1, cdot1 = kernel.flow_terms((d1, q1), c[idx])
            assert np.array_equal(u[idx], u1) and np.array_equal(cdot[idx], cdot1)
        if len(lead) == 1:  # one time per slice
            t = rng.uniform(0, 30, lead)
            f = kernel.trigger_values(live, Z, (d, q), c, t)
            for s in range(lead[0]):
                f1 = kernel.trigger_values(live[s], Z[s], (d[s], q[s]), c[s], float(t[s]))
                assert np.array_equal(f[s], f1)
