import numpy as np
import pytest

from etcons.errors import ConfigError, DisconnectedGraphError
from etcons.graph import (
    build_graph,
    generate_graph,
    is_connected,
    lambda2,
    laplacian,
)


def bfs_reachable(n, edges, start):
    """Independent breadth-first oracle over an undirected edge list."""
    adj = {i: set() for i in range(n)}
    for (i, j) in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def random_connected_graph(rng, n):
    """Random spanning tree plus random extra edges."""
    edges = set()
    nodes = list(rng.permutation(n))
    for idx in range(1, n):
        a = nodes[idx]
        b = nodes[rng.integers(0, idx)]
        edges.add((min(a, b), max(a, b)))
    extra = rng.integers(0, n)
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return build_graph(n, sorted(edges))


class TestBuildGraph:
    def test_path_two_nodes(self):
        g = build_graph(2, [(0, 1)])
        assert g.n_nodes == 2
        assert g.edges == ((0, 1),)
        assert g.leader is None

    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_ring_with_leader_partition_shape(self):
        edges = [(i, (i + 1) % 6) for i in range(6)]
        g = build_graph(6, edges, leader=0)
        assert g.leader == 0
        lap = laplacian(g)
        assert lap.shape == (6, 6)
        assert not lap[0].any()
        assert np.array_equal(np.diag(lap)[1:], [2.0] * 5)

    def test_canonical_ordering(self):
        a = build_graph(4, [(3, 2), (1, 0), (0, 2)])
        b = build_graph(4, [(0, 1), (2, 0), (2, 3)])
        assert a.edges == b.edges == ((0, 1), (0, 2), (2, 3))

    def test_rejects_self_loop(self):
        with pytest.raises(ConfigError):
            build_graph(3, [(1, 1)])

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(ConfigError):
            build_graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            build_graph(3, [(0, 3)])
        with pytest.raises(ConfigError):
            build_graph(3, [(0, 1)], leader=5)

    @pytest.mark.parametrize("key, build", [
        ("leader", lambda: build_graph(3, [(0, 1), (1, 2)], leader=True)),
        ("leader", lambda: build_graph(3, [(0, 1), (1, 2)], leader=1.7)),
        ("leader", lambda: build_graph(3, [(0, 1), (1, 2)], leader=-1)),
        ("edges[0]", lambda: build_graph(3, [(0, 1.9), (1, 2)])),
        ("edges[0]", lambda: build_graph(3, [(0, True)])),
        ("edges[0]", lambda: build_graph(3, [(-1, 2)])),
        ("edges[0]", lambda: build_graph(3, [(0, 1, 2)])),
        ("n", lambda: build_graph(0, [])),
        ("n", lambda: build_graph(3.0, [(0, 1)])),
        ("n", lambda: generate_graph("ring", True)),
    ], ids=["leader-True", "leader-1.7", "leader--1", "edge-1.9", "edge-True", "edge--1",
            "edge-triple", "n-0", "n-3.0", "generator-n-True"])
    def test_one_integer_rule(self, key, build):
        with pytest.raises(ConfigError) as exc:
            build()
        assert exc.value.key == key

    def test_numpy_integers_are_integers(self):
        g = generate_graph("ring", np.int64(6), leader=np.int64(0))
        assert g == build_graph(6, [(i, (i + 1) % 6) for i in range(6)], leader=0)
        assert type(g.n_nodes) is int and type(g.leader) is int
        assert all(type(i) is int for e in g.edges for i in e)
        assert build_graph(3, np.array([[0, 1], [1, 2]])).edges == ((0, 1), (1, 2))

    def test_generators(self):
        assert len(generate_graph("ring", 6).edges) == 6
        assert len(generate_graph("path", 6).edges) == 5
        assert len(generate_graph("complete", 6).edges) == 15
        star = generate_graph("star", 6)
        assert len(star.neighbors(0)) == 5
        with pytest.raises(ConfigError):
            generate_graph("torus", 6)


class TestLaplacian:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert np.array_equal(laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])

    def test_triangle_hand_expansion(self):
        # l_ii = sum_j a_ij = 2 for every node of K3, l_ij = -1 off-diagonal
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        L = laplacian(g)
        assert np.array_equal(L, 2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3)))
        assert np.array_equal(np.diag(L), [2, 2, 2])

    def test_pure_function(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert np.array_equal(laplacian(g), laplacian(g))

    def test_row_sums_exactly_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(2, 12)))
            assert np.array_equal(laplacian(g) @ np.ones(g.n_nodes),
                                  np.zeros(g.n_nodes))

    def test_quadratic_form_dominates_lambda2(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 10)))
            lam2 = lambda2(g)
            lap = laplacian(g)
            for _ in range(5):
                x = rng.normal(size=g.n_nodes)
                x -= x.mean()
                assert x @ lap @ x >= lam2 * (x @ x) - 1e-8


class TestConnectivity:
    def test_path_two_nodes(self):
        assert is_connected(build_graph(2, [(0, 1)]))

    def test_isolated_nodes(self):
        assert not is_connected(build_graph(4, [(0, 1)]))

    def test_leader_ring_spanning_tree(self):
        edges = [(i, (i + 1) % 6) for i in range(6)]
        g = build_graph(6, edges, leader=0)
        assert is_connected(g)

    def test_spanning_tree_matches_bfs_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(0, n * 2))
            edges = set()
            for _ in range(m):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    edges.add((min(a, b), max(a, b)))
            g = build_graph(n, sorted(edges), leader=0)
            expected = len(bfs_reachable(n, g.edges, 0)) == n
            assert is_connected(g) == expected
            g2 = build_graph(n, sorted(edges))
            assert is_connected(g2) == expected


class TestLambda2:
    def test_path_two_nodes(self):
        # eigenvalues of [[1,-1],[-1,1]] are {0, 2}
        assert lambda2(build_graph(2, [(0, 1)])) == pytest.approx(2.0, rel=1e-9)

    def test_complete_graphs(self):
        # complete-graph spectrum is {0, N, ..., N}
        assert lambda2(generate_graph("complete", 3)) == pytest.approx(3.0, rel=1e-9)
        k4 = generate_graph("complete", 4)
        brute = np.sort(np.linalg.eigvalsh(laplacian(k4)))
        assert brute[1] == pytest.approx(4.0, rel=1e-9)
        assert lambda2(k4) == pytest.approx(brute[1], rel=1e-9)

    def test_disconnected_signals(self):
        with pytest.raises(DisconnectedGraphError):
            lambda2(build_graph(4, [(0, 1), (2, 3)]))

    def test_rejects_leader_graph(self):
        with pytest.raises(ValueError):
            lambda2(build_graph(2, [(0, 1)], leader=0))

    def test_rejects_single_node(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            lambda2(build_graph(1, []))


class TestLeaderPartition:
    """The leader's block of the Laplacian: its row is zero."""

    def test_nonsymmetric_leader_row_zero(self):
        g = build_graph(3, [(0, 1), (1, 2)], leader=1)
        lap = laplacian(g)
        assert np.array_equal(lap[1], [0.0, 0.0, 0.0])
        assert np.diag(lap)[1] == 0
