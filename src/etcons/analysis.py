"""Post-hoc verification of the theoretical guarantees on simulated runs.

This layer may consume global graph information (algebraic connectivity,
Laplacian spectra); the protocols themselves never do. It checks the
observable consequences of the theory: consensus error decay, the ultimate
bound of the sigma-modified protocol, strictly positive inter-event
intervals, and the conservation of the network-average state.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .engine import EventRecord, Trajectory, _Expm
from .graph import Graph, lambda2
from .linalg import matrix_exponential, max_eig_sym
from .protocols import ProtocolParams


def consensus_error(x: np.ndarray) -> np.ndarray:
    """Deviation of every agent from the network average.

    ``x`` is (..., N, n); the mean is removed along the agent axis, so the
    result sums to zero across agents up to rounding.
    """
    x = np.asarray(x, dtype=float)
    return x - x.mean(axis=-2, keepdims=True)


def leader_error(x: np.ndarray, leader: int = 0) -> np.ndarray:
    """Follower deviations from the leader, (..., N-1, n)."""
    x = np.asarray(x, dtype=float)
    n_agents = x.shape[-2]
    followers = [i for i in range(n_agents) if i != leader]
    return x[..., followers, :] - x[..., leader: leader + 1, :]


def stacked_norm(err: np.ndarray) -> float:
    """Euclidean norm of a stacked error (flattening agents and components)."""
    return float(np.linalg.norm(np.asarray(err).ravel()))


@dataclass(frozen=True)
class TheoremConstants:
    """Computable constants of the ultimate-bound guarantee.

    ``bound`` is the radius-squared of the residual set: trajectories of
    the sigma-modified protocol end up with ||xi||^2 <= bound. Available
    only when theta2 = min over edges of (varrho kappa) stays below
    1/lambda_max(P); otherwise ``reason`` explains.
    """

    available: bool
    alpha: float = math.nan
    theta2: float = math.nan
    varsigma: float = math.nan
    rho: float = math.nan
    bound: float = math.nan
    reason: str = ""


def theorem1_bound(graph: Graph, params: ProtocolParams, P: np.ndarray) -> TheoremConstants:
    """Ultimate-bound constants for a leaderless connected graph.

    alpha is reported at its smallest admissible value max{2/delta,
    4/lambda2}, which gives the tightest varsigma and hence the most
    informative bound.
    """
    lam2 = lambda2(graph)
    kappa, varrho, _ = params.edge_arrays(graph)
    lam_max = max_eig_sym(P)
    alpha = max(2.0 / params.delta, 4.0 / lam2)
    theta2 = float((varrho * kappa).min()) if len(kappa) else 0.0
    if theta2 >= 1.0 / lam_max:
        return TheoremConstants(
            available=False,
            theta2=theta2,
            reason=(f"theta2={theta2:.6g} is not below 1/lambda_max(P)="
                    f"{1.0 / lam_max:.6g}"),
        )
    # ordered double sum over (i, j): every undirected edge counts twice
    varsigma = float(2.0 * (varrho / 8.0).sum() * alpha ** 2)
    rho = 0.5 * (1.0 - theta2 * lam_max)
    return TheoremConstants(
        available=True, alpha=alpha, theta2=theta2,
        varsigma=varsigma, rho=rho, bound=varsigma / rho,
    )


def _grid_slice(traj: Trajectory, t_lo: float, t_hi: float) -> slice:
    i0 = int(np.searchsorted(traj.times, t_lo, side="left"))
    i1 = int(np.searchsorted(traj.times, t_hi, side="right"))
    return slice(i0, max(i1, i0 + 1))


def _events_by_agent(traj: Trajectory) -> list[list[EventRecord]]:
    """Each agent's broadcasts in run order, from one pass over the events."""
    out: list[list[EventRecord]] = [[] for _ in range(traj.graph.n_nodes)]
    for rec in traj.events:
        out[rec.agent].append(rec)
    return out


def _neighbor_lists(graph: Graph) -> list[tuple[int, ...]]:
    """``graph.neighbors(i)`` for every node, from one pass over the edges."""
    out: list[list[int]] = [[] for _ in range(graph.n_nodes)]
    for (a, b) in graph.edges:
        out[a].append(b)
        out[b].append(a)
    return [tuple(sorted(nb)) for nb in out]


class _ZenoBounds:
    """Run-wide inputs of the inter-event bound, computed once per run.

    ``bound(agent, k)`` then costs only the stored rows of that interval,
    so a report over every interval is linear in events plus rows.
    """

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self.events = _events_by_agent(traj)
        self.cbar = max(traj.max_weight, 0.0)
        self.norm_a = float(np.linalg.norm(traj.model.A, 2))
        self.norm_k = float(np.linalg.norm(traj.gains.K, 2))
        self.norm_bk = float(np.linalg.norm(traj.model.B @ traj.gains.K, 2))
        self.fc = traj.gains.F @ traj.model.C if traj.variant == "observer" else None
        self.starts = [seg.t_start for seg in traj.weight_segments]
        self.neighbors = [_neighbor_lists(seg.graph) for seg in traj.weight_segments]

    def bound(self, agent: int, k: int) -> float:
        traj = self.traj
        recs = self.events[agent]
        if not (0 <= k + 1 < len(recs)):
            raise ValueError(f"agent {agent} has no event pair ({k}, {k + 1})")
        t_k, t_k1 = recs[k].time, recs[k + 1].time
        # the active topology at t_k, as Trajectory.graph_at picks it
        seg = max(bisect.bisect_right(self.starts, t_k) - 1, 0)
        neigh = self.neighbors[seg][agent]
        d_i = len(neigh)
        if d_i == 0:
            return math.inf

        p = traj.params
        cbar, norm_a, norm_k = self.cbar, self.norm_a, self.norm_k
        rows = _grid_slice(traj, t_k, t_k1)
        z = traj.estimates[rows]
        diffs = z[:, [agent], :] - z[:, neigh, :]
        sigma_i = float(self.norm_bk * np.linalg.norm(diffs, axis=2).sum(axis=1).max())

        b = cbar * sigma_i
        if self.fc is not None:
            gap = traj.observer_states[rows, agent] - traj.states[rows, agent]
            b += float(np.linalg.norm(gap @ self.fc.T, axis=1).max())
        dist = traj.sim.disturbance
        if dist is not None and traj.variant != "observer":
            b += dist.amplitude * math.sqrt(traj.model.n)
        if b <= 0.0:
            return math.inf

        denom = d_i * (1.0 + p.delta * cbar)

        def theta(tau: float) -> float:
            return math.sqrt(p.mu * math.exp(-p.nu * (t_k + tau)) / denom) / norm_k

        def step(tau: float) -> float:
            if norm_a == 0.0:
                return theta(tau) / b
            return math.log1p(norm_a * theta(tau) / b) / norm_a

        tau = 0.0
        for _ in range(200):
            nxt = step(tau)
            if abs(nxt - tau) < 1e-15:
                tau = nxt
                break
            tau = nxt
        return tau


def zeno_bound(traj: Trajectory, agent: int, k: int) -> float:
    """Guaranteed minimum inter-event time after the agent's k-th broadcast.

    Solves the implicit relation

        tau = (1/||A||) ln(1 + ||A|| theta(tau) / b)
        theta(tau) = sqrt(mu e^{-nu (t_k + tau)} / (d_i (1 + delta cbar))) / ||K||

    by fixed-point iteration from tau = 0 (the right side decreases in
    tau). b bounds the non-homogeneous part of the measurement-error
    growth: cbar sigma_i from the control term, plus the output-injection
    term on observer runs and the disturbance amplitude on perturbed runs.
    cbar is the largest edge weight observed over the whole run, sigma_i
    the largest incident estimate-disagreement sum sampled on the stored
    grid (conservative up to the grid resolution). For ||A|| = 0 the
    limiting form tau = theta(tau) / b applies. Returns inf when the error
    cannot grow at all (no neighbours or zero drive).
    """
    return _ZenoBounds(traj).bound(agent, k)


@dataclass
class ZenoCheck:
    """One inter-event interval against its guaranteed lower bound."""

    agent: int
    k: int
    interval: float
    bound: float

    @property
    def margin(self) -> float:
        return self.interval - self.bound


@dataclass
class ZenoReport:
    checks: list[ZenoCheck]

    @property
    def verdict(self) -> bool:
        return all(c.margin >= 0 for c in self.checks)

    @property
    def min_interval(self) -> float | None:
        return min((c.interval for c in self.checks), default=None)

    @property
    def min_margin(self) -> float | None:
        return min((c.margin for c in self.checks), default=None)


def zeno_report(traj: Trajectory) -> ZenoReport:
    """Check every triggered interval against the theoretical lower bound.

    An interval qualifies when it ends at an organic trigger; forced
    broadcasts (topology switches, dense-sampling mode) are not crossings
    of the trigger function, so no positive lower bound applies to them.
    """
    bounds = _ZenoBounds(traj)
    checks = []
    for agent, recs in enumerate(bounds.events):
        for k in range(len(recs) - 1):
            if recs[k + 1].kind != "trigger":
                continue
            checks.append(ZenoCheck(
                agent=agent, k=k,
                interval=recs[k + 1].time - recs[k].time,
                bound=bounds.bound(agent, k),
            ))
    return ZenoReport(checks=checks)


@dataclass
class EventStats:
    """Per-agent broadcast counts and inter-broadcast interval statistics."""

    per_agent_counts: dict[int, int]
    per_agent_min_interval: dict[int, float]
    per_agent_mean_interval: dict[int, float]
    global_min_interval: float | None
    total: int


def event_stats(traj: Trajectory) -> EventStats:
    counts: dict[int, int] = {}
    mins: dict[int, float] = {}
    means: dict[int, float] = {}
    for agent, recs in enumerate(_events_by_agent(traj)):
        times = [r.time for r in recs]
        if times:
            counts[agent] = len(times)
        if len(times) >= 2:
            gaps = np.diff(times)
            mins[agent] = float(gaps.min())
            means[agent] = float(gaps.mean())
    global_min = min(mins.values()) if mins else None
    return EventStats(
        per_agent_counts=counts,
        per_agent_min_interval=mins,
        per_agent_mean_interval=means,
        global_min_interval=global_min,
        total=sum(counts.values()),
    )


def observer_error(traj: Trajectory) -> np.ndarray:
    """Gap between the centred observer stack and the centred state stack,
    (T, N, n); this is the quantity driven to zero by the output
    injection."""
    if traj.observer_states is None:
        raise ValueError("trajectory has no observer states")
    return consensus_error(traj.observer_states) - consensus_error(traj.states)


def predicted_consensus_value(A: np.ndarray, x0: np.ndarray, t: float) -> np.ndarray:
    """Final consensus trajectory value: mean of e^{A t} x_i(0)."""
    return matrix_exponential(A, t) @ np.asarray(x0, dtype=float).mean(axis=0)


def invariance_deviation(traj: Trajectory) -> float:
    """Largest drift of mean_i e^{-A t} x_i(t) from its t=0 value.

    The network average transported back through the drift is conserved by
    the protocol in continuous time; the deviation measures integration
    error. e^{-A t} is evaluated afresh at every stored time with the
    engine's Taylor evaluator, so no rounding accumulates across rows.
    """
    back = _Expm(-np.asarray(traj.model.A, dtype=float))
    means = traj.states.mean(axis=1)
    moved = np.array([back.at(t) @ m for t, m in zip(traj.times.tolist(), means)])
    return float(np.linalg.norm(moved - means[0], axis=1).max())


def final_error_norm(traj: Trajectory) -> float:
    """Consensus error norm at the final time: ||xi|| for leaderless runs,
    ||z|| (deviation from the leader) for leader-follower runs."""
    if traj.variant == "leader_follower":
        return stacked_norm(leader_error(traj.final_states, traj.graph.leader))
    return stacked_norm(consensus_error(traj.final_states))
