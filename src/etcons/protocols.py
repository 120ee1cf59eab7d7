"""Adaptive event-based control laws and triggering functions.

All three variants share the same building blocks, evaluated on propagated
broadcast estimates only:

* control input        u_i = K sum_j c_ij a_ij (est_i - est_j)
* weight adaptation    cdot_ij = kappa_ij a_ij [-varrho_ij c_ij + d' Gamma d]
* trigger value        f_i = sum_j w_e (1 + delta c_ij) a_ij e_i' Gamma e_i
                             - sum_j v_e a_ij d_ij' Gamma d_ij - mu e^{-nu t}

with d_ij the estimate disagreement on edge (i,j). Leaderless triggering
uses w_e = 1, v_e = 1/4 on every edge; the leader-follower trigger halves
the error coefficient on the leader edge (w_e = 1/2) and doubles its
disagreement share (v_e = 1/2). Observer-based runs substitute the
observer state chi for x everywhere; the formulas are unchanged.

Each formula reads agent-local and incident-edge data only.
``ProtocolKernel`` is their one implementation: it evaluates them for
every agent and edge at once and carries no global graph quantity beyond
the edge list itself. The tests check it against per-agent forms of the
three formulas kept in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError, _check_integer, _check_number, _check_pair
from .graph import Edge, Graph


@dataclass(frozen=True)
class ProtocolParams:
    """Design constants of the adaptive event-based protocol.

    ``kappa``, ``varrho`` and ``c0`` may be scalars (applied to every edge)
    or per-edge mappings keyed by node pair. A single value is stored per
    undirected edge, which enforces the required symmetry of the gains and
    of the initial weights identically; a map is stored keyed by (min, max)
    pairs. Each key is a pair of distinct integer nodes, no pair is keyed
    twice, and pairs that are not edges are allowed (other graphs of a
    topology schedule use them); ``edge_arrays`` checks the nodes against
    a graph.
    Errors name a field by its config key, ``protocol.<field>``, and a map
    value by ``protocol.<field>.<i>-<j>``.
    """

    delta: float
    mu: float
    nu: float
    kappa: float | Mapping = 0.2
    varrho: float | Mapping = 0.0
    c0: float | Mapping = 0.0

    def __post_init__(self):
        for name in ("delta", "mu", "nu", "kappa", "varrho", "c0"):
            value, where = getattr(self, name), f"protocol.{name}"
            if isinstance(value, Mapping) and name in ("kappa", "varrho", "c0"):
                table: dict[Edge, float] = {}
                for pair, v in value.items():
                    try:
                        i, j = (_check_integer(x, 0, where) for x in _check_pair(pair, where))
                    except ConfigError:
                        raise ConfigError(f"key {pair!r} is not a pair of node indices",
                                          where) from None
                    edge = (min(i, j), max(i, j))
                    if i == j:
                        raise ConfigError(f"key {(i, j)} is not a pair of distinct nodes", where)
                    if edge in table:
                        raise ConfigError(f"key {(i, j)} repeats edge {edge}", where)
                    table[edge] = _constant(name, v, f"{where}.{i}-{j}")
                value = table
            else:
                value = _constant(name, value, where)
            object.__setattr__(self, name, value)

    def _per_edge(self, name: str, g: Graph) -> np.ndarray:
        value = getattr(self, name)
        if not isinstance(value, Mapping):
            return np.full(len(g.edges), value)
        for (i, j) in value:
            if j >= g.n_nodes:
                raise ConfigError(f"key {(i, j)} is not a pair of nodes in "
                                  f"0..{g.n_nodes - 1}", f"protocol.{name}")
        missing = [e for e in g.edges if e not in value]
        if missing:
            raise ConfigError(f"missing entries for edges {missing}", f"protocol.{name}")
        return np.array([value[e] for e in g.edges], dtype=float)

    def edge_arrays(self, g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(kappa, varrho, c0) aligned with g.edges; checks map keys against g."""
        return tuple(self._per_edge(name, g) for name in ("kappa", "varrho", "c0"))


def _constant(name: str, value, key: str) -> float:
    """``value`` held to ``_check_number``; varrho >= 0, c0 any, the others > 0."""
    v = _check_number(value, key)
    if name == "varrho" and v < 0:
        raise ConfigError(f"must be nonnegative, got {v}", key)
    if name not in ("varrho", "c0") and not v > 0:
        raise ConfigError(f"must be positive, got {v}", key)
    return v


class ProtocolKernel:
    """The control input, weight rate and trigger value of every agent
    and edge, evaluated together.

    Every sum over an agent's incident edges is a segment sum by edge
    endpoint (``np.bincount`` over the edge list): one evaluation costs
    O(M n) and the kernel holds no N x M array. A node sums, in
    ``graph.edges`` order, the edges where it is the lower endpoint, then
    those where it is the upper one, and adds the two; ``coupling`` is
    the one such scatter of per-edge vectors, which the engine also uses
    for its cubic moments. Inputs are the estimate stack Z (N x n) and its
    edge work ``dq`` (see ``edge_terms``), the live stack X or CHI, and
    the edge weight vector c (M,). Each input may carry the same leading
    stack axes, for instance one slice per grid point; a stacked call
    gives the bits of its per-slice calls.
    """

    def __init__(self, graph: Graph, params: ProtocolParams,
                 K: np.ndarray, Gamma: np.ndarray):
        self.graph = graph
        self.params = params
        self.K = np.asarray(K, dtype=float)
        self.Gamma = np.asarray(Gamma, dtype=float)
        self.n_agents = graph.n_nodes
        self.leader = graph.leader
        self.kappa, self.varrho, self.c0 = params.edge_arrays(graph)
        self.ei = np.array([e[0] for e in graph.edges], dtype=int)
        self.ej = np.array([e[1] for e in graph.edges], dtype=int)
        is_leader_edge = np.zeros(len(graph.edges), dtype=bool)
        if self.leader is not None:
            is_leader_edge = (self.ei == self.leader) | (self.ej == self.leader)
        self.err_w = np.where(is_leader_edge, 0.5, 1.0)
        self.dis_w = np.where(is_leader_edge, 0.5, 0.25)
        self._ones = np.ones(self.Gamma.shape[0])
        self._flat = {}  # per width k: endpoint indices into a raveled (N, k) stack

    def _endpoint_sums(self, v: np.ndarray, at_i: np.ndarray, at_j: np.ndarray,
                       size: int) -> tuple[np.ndarray, np.ndarray]:
        """Segment sums of v[..., e] into bins at_i[e] and into bins at_j[e],
        each (..., size): one bincount over every leading slice, each
        slice's bins offset by its position."""
        lead = v.shape[:-1]
        slices = math.prod(lead)
        if slices > 1:
            offsets = np.arange(0, slices * size, size)[:, None]
            at_i, at_j = (offsets + at_i).ravel(), (offsets + at_j).ravel()
        v, shape = v.ravel(), lead + (size,)
        return (np.bincount(at_i, v, slices * size).reshape(shape),
                np.bincount(at_j, v, slices * size).reshape(shape))

    def _node_sum(self, v: np.ndarray) -> np.ndarray:
        """sum of v_e over the edges incident to each node, (..., N)."""
        at_i, at_j = self._endpoint_sums(v, self.ei, self.ej, self.n_agents)
        return at_i + at_j

    def quadratic(self, v: np.ndarray) -> np.ndarray:
        """v' Gamma v per row of v.

        The row sum is a product with ones, a fraction of the cost of
        ``.sum(axis=1)``; for n <= 3 the two give the same bits.
        """
        return ((v @ self.Gamma) * v) @ self._ones

    def edge_terms(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The edge work ``dq`` = (d, q) of an estimate stack: the
        disagreements d_e = Z[i] - Z[j] (M, n) and d' Gamma d (M,).

        It changes only when Z does, so the engine forms it once per stack
        and hands it to ``flow_terms`` and ``trigger_values``.
        """
        d = Z.take(self.ei, axis=-2) - Z.take(self.ej, axis=-2)
        return d, self.quadratic(d)

    def coupling(self, d: np.ndarray, c: np.ndarray) -> np.ndarray:
        """sum_j c_ij d_ij per agent (..., N, k), zero at the leader, from
        per-edge values d (M, k), such as the disagreements z_i - z_j, and
        the weights c (..., M), or both with the same leading stack axes."""
        # + c d_e at endpoint i, - c d_e at endpoint j
        k = d.shape[-1]
        if k not in self._flat:
            cols = np.arange(k)
            self._flat[k] = [(end[:, None] * k + cols).ravel() for end in (self.ei, self.ej)]
        cd = (c[..., None] * d).reshape(c.shape[:-1] + (-1,))
        at_i, at_j = self._endpoint_sums(cd, *self._flat[k], self.n_agents * k)
        s = (at_i - at_j).reshape(cd.shape[:-1] + (self.n_agents, k))
        if self.leader is not None:
            s[..., self.leader, :] = 0.0
        return s

    def flow_terms(self, dq: tuple[np.ndarray, np.ndarray],
                   c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Control inputs (N, p) and weight rates cdot = kappa (-varrho c + q)
        (M,) from the edge work."""
        d, q = dq
        return self.coupling(d, c) @ self.K.T, self.kappa * (-self.varrho * c + q)

    def trigger_values(self, live: np.ndarray, Z: np.ndarray,
                       dq: tuple[np.ndarray, np.ndarray], c: np.ndarray,
                       t: float) -> np.ndarray:
        """Stacked trigger values (N,); the leader's entry is -inf.

        ``live`` is the stack the broadcasts sample from: X for state
        feedback and leader-follower runs, CHI for observer runs. On inputs
        stacked along one leading axis ``t`` holds one time per slice.
        """
        p = self.params
        eqf = self.quadratic(Z - live)
        err_coef = self._node_sum(self.err_w * (1.0 + p.delta * c))
        dis = self._node_sum(self.dis_w * dq[1])
        if isinstance(t, (int, float)):
            decay = p.mu * math.exp(-p.nu * t)
        else:  # math.exp per time: np.exp may differ in the last bit
            decay = np.array([[p.mu * math.exp(-p.nu * s)] for s in t])
        f = err_coef * eqf - dis - decay
        if self.leader is not None:
            f[..., self.leader] = -np.inf
        return f
