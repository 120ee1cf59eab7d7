"""Communication topologies: construction, Laplacians, and spectral quantities.

Graphs are undirected with unit edge weights. In leader-follower mode one
node is marked as the leader: it influences its neighbours but receives no
input itself, so its Laplacian row is zero and the matrix is no longer
symmetric. The spectral quantity ``lambda2`` is consumed by the analysis
layer only; the protocols never see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigError, DisconnectedGraphError, _check_integer, _check_list,
                     _check_pair)

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Validated undirected communication graph with an optional leader."""

    n_nodes: int
    edges: tuple[Edge, ...]
    leader: int | None = None

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each node's neighbours in ascending order, built on first use."""
        out: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for (a, b) in self.edges:
            out[a].append(b)
            out[b].append(a)
        return tuple(tuple(sorted(nb)) for nb in out)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adjacency[i]


def build_graph(n: int, edges, leader: int | None = None) -> Graph:
    """Validate and canonicalize a graph given as an edge list.

    Edges are stored as (min, max) pairs in lexicographic order. The node
    count, the leader and every edge index must be integers. Rejects
    out-of-range indices, self-loops and duplicate edges (regardless of
    orientation). Errors name the spec key at fault: n, edges[k] or leader.
    """
    n = _check_integer(n, 1, "n")
    canon = []
    seen = set()
    for k, e in enumerate(_check_list(edges, "edges")):
        where = f"edges[{k}]"
        i, j = (_check_integer(v, 0, where) for v in _check_pair(e, where))
        if i == j:
            raise ConfigError(f"self-loop ({i},{j}) is not allowed", where)
        if not (i < n and j < n):
            raise ConfigError(f"edge ({i},{j}) out of range for {n} nodes", where)
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ConfigError(f"duplicate edge ({i},{j})", where)
        seen.add(key)
        canon.append(key)
    if leader is not None:
        leader = _check_integer(leader, 0, "leader")
        if leader >= n:
            raise ConfigError(f"leader index {leader} out of range for {n} nodes", "leader")
    return Graph(n_nodes=n, edges=tuple(sorted(canon)), leader=leader)


def generate_graph(name: str, n: int, leader: int | None = None) -> Graph:
    """Named generators: ring, path, complete, star (hub at node 0)."""
    n = _check_integer(n, 1, "n")
    if name == "ring":
        if n < 3:
            raise ConfigError("ring needs at least 3 nodes", "n")
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif name == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif name == "complete":
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif name == "star":
        edges = [(0, i) for i in range(1, n)]
    else:
        raise ConfigError(f"unknown graph generator {name!r}", "generator")
    return build_graph(n, edges, leader=leader)


def laplacian(g: Graph) -> np.ndarray:
    """Laplacian with l_ii = sum_j a_ij and l_ij = -a_ij, as floats.

    Built in integer arithmetic, so row sums are exactly zero before the
    float conversion. In leader mode the leader row is zero: the leader
    accepts no influence.
    """
    a = np.zeros((g.n_nodes, g.n_nodes), dtype=int)
    for (i, j) in g.edges:
        a[i, j] = a[j, i] = 1
    if g.leader is not None:
        a[g.leader, :] = 0
    lap = np.diag(a.sum(axis=1)) - a
    assert (lap.sum(axis=1) == 0).all()
    return lap.astype(float)


def is_connected(g: Graph) -> bool:
    """Every node reachable from node 0 over the undirected edge set. With a
    leader this is the leader-rooted spanning tree condition: follower links
    are undirected, so the leader reaches every follower exactly when the
    graph is connected."""
    seen = {0}
    stack = [0]
    while stack:
        for v in g.neighbors(stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n_nodes


def lambda2(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue of a connected leaderless graph.

    Analysis-side oracle only; raises on disconnected graphs instead of
    returning the uninformative 0.
    """
    if g.leader is not None:
        raise ValueError("lambda2 is defined for leaderless graphs")
    if g.n_nodes < 2:
        raise ValueError(f"lambda2 needs at least 2 nodes, got {g.n_nodes}")
    if not is_connected(g):
        raise DisconnectedGraphError(
            f"graph with {g.n_nodes} nodes and {len(g.edges)} edges is disconnected"
        )
    w = np.linalg.eigvalsh(laplacian(g))
    return float(w[1])

