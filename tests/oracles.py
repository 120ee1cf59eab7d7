"""Reference implementations that the tests check the package against.

They are the straightforward per-agent, per-value and per-check forms of
code that ``src/etcons`` runs in a faster shape: the protocol formulas are
written for one agent or one edge (``ProtocolKernel`` stacks them), the
flow between broadcasts is integrated by classical RK4, one stage at a time
on the whole augmented state (the engine evaluates its closed form), the
cascade's lift is built and exponentiated once per leakage rate (the
engine places every rate in one generator), event
localization evaluates every bisection midpoint, or the whole closed form
at every point the localizer asks for (the engine evaluates the
candidates' star), the CSV writers format one value per f-string, and the
Zeno report rescans the event list and every weight row for each interval
it checks. ``record_steps`` rebuilds the start of every step of a run from
its record alone, from which ``audit_crossings`` samples the closed form
between the instants the engine checks and ``localization_gaps`` localizes
each trigger afresh.
"""

from __future__ import annotations

import bisect
import math
from typing import Mapping

import numpy as np
import scipy.linalg

from etcons.analysis import ZenoCheck, ZenoReport, _grid_slice
from etcons.engine import EventRecord, Trajectory, _Simulation, locate_event
from etcons.graph import Graph
from etcons.linalg import _Expm, symmetric_powers
from etcons.protocols import ProtocolKernel


def control_input(
    K: np.ndarray,
    own_estimate: np.ndarray,
    neighbor_estimates: Mapping[int, np.ndarray],
    weights: Mapping[int, float],
) -> np.ndarray:
    """u_i = K sum_j c_ij (est_i - est_j) over the agent's neighbours.

    The same sum serves the state-feedback, observer-based (estimates are
    chi_tilde) and leader-follower (leader included as a neighbour) laws.
    """
    u = np.zeros(K.shape[0])
    for j, c in weights.items():
        if j not in neighbor_estimates:
            raise ValueError(f"missing broadcast sample from neighbor {j}")
        u += c * (K @ (own_estimate - neighbor_estimates[j]))
    return u


def weight_rate(
    kappa: float,
    varrho: float,
    c: float,
    diff: np.ndarray,
    Gamma: np.ndarray,
) -> float:
    """cdot = kappa [-varrho c + diff' Gamma diff] for one edge.

    ``diff`` is the estimate disagreement across the edge; on a leader edge
    it is the follower-to-leader gap.
    """
    diff = np.atleast_1d(np.asarray(diff, dtype=float))
    return float(kappa * (-varrho * c + diff @ Gamma @ diff))


def trigger_value(
    error: np.ndarray,
    own_estimate: np.ndarray,
    neighbor_estimates: Mapping[int, np.ndarray],
    weights: Mapping[int, float],
    delta: float,
    mu: float,
    nu: float,
    Gamma: np.ndarray,
    t: float,
    leader: int | None = None,
) -> float:
    """Trigger function value for one agent; an event fires at f >= 0.

    With ``leader`` set (leader-follower mode, leader among the
    neighbours), the leader edge takes coefficient 1/2 on both the error
    and the disagreement term; every other edge takes 1 and 1/4.
    """
    error = np.atleast_1d(np.asarray(error, dtype=float))
    eqf = float(error @ Gamma @ error)
    f = -mu * math.exp(-nu * t)
    for j, c in weights.items():
        diff = np.atleast_1d(own_estimate - neighbor_estimates[j])
        q = float(diff @ Gamma @ diff)
        if leader is not None and j == leader:
            f += 0.5 * (1.0 + delta * c) * eqf - 0.5 * q
        else:
            f += (1.0 + delta * c) * eqf - 0.25 * q
    return f


def bisect_event(f, t_lo: float, t_hi: float, event_tol: float,
                 f_lo: float | None = None, f_hi: float | None = None) -> float:
    """Plain bisection for the first sign change of ``f`` on [t_lo, t_hi],
    one evaluation per midpoint, with the ends' values taken as
    ``engine.locate_event`` takes them; it must return the same upper end."""
    f_lo = f(t_lo) if f_lo is None else f_lo
    f_hi = f(t_hi) if f_hi is None else f_hi
    if not (f_lo < 0 <= f_hi):
        raise ValueError(f"invalid bracket: f({t_lo})={f_lo}, f({t_hi})={f_hi}")
    lo, hi = t_lo, t_hi
    while hi - lo > event_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return hi


def record_steps(traj: Trajectory):
    """Every step between two stored rows of ``traj``: an engine, rebuilt
    from the run's inputs for its flow, checkpoints and uniform-random draw,
    set to the row at the step's start; the step's end t1; and the
    checkpoint at or after t1 (a ``_grid_t`` index).

    A stored row holds the state after every reset at its instant, so the
    step flows from it: its lift row is v, the (w, p) columns of its edge
    work and r, the disturbance at t0 (a sinusoid's r0 rotated to t0, a
    uniform-random run's draw of the checkpoint's cell). A relocalization
    instant stores no row, so the two steps around it read as one.
    """
    obs, d = traj.observer_states, traj.sim.disturbance
    sim = _Simulation(traj.model, traj.graph, traj.gains, traj.params, traj.sim,
                      traj.states[0], traj.variant, None if obs is None else obs[0])
    r0 = sim.X[:, sim.flow.r]
    for seg in traj.weight_segments:
        sim.kernel = ProtocolKernel(seg.graph, traj.params, traj.gains.K, traj.gains.Gamma)
        sim.flow.use(sim.kernel)
        for k, c in enumerate(seg.values[:-1], seg.first_index):
            t0, t1 = traj.times[k], traj.times[k + 1]
            cp = bisect.bisect_left(sim._grid_t, t1)
            r = r0
            if sim._draw is not None:
                r = sim._draw(sim._grid_cell[cp])
            elif r0.size and d.kind == "sinusoid":
                a = 2 * math.pi * d.frequency * t0
                r = r0 @ np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            v = traj.states[k] if obs is None else np.hstack([traj.states[k], obs[k]])
            sim.t, sim.Z, sim.c = t0, traj.estimates[k], c
            sim.dq = sim.kernel.edge_terms(sim.Z)
            sim.X = np.hstack([v, sim.flow.moments(sim.dq, c), r])
            yield sim, t1, cp


def localize_full(sim, t1: float) -> float:
    """``_Simulation._localize``'s event time in (now, t1], with every point
    the localizer asks for evaluated on the whole closed form: the trigger
    maximum over all agents, at the width from now by ``_Expm.at``."""
    t0 = sim.t
    if t1 - t0 <= sim.cfg.event_tol:
        return t1
    return locate_event(lambda tm: float(sim._flow(sim.flow.tables([tm - t0]), [tm])[4].max()),
                        t0, t1, sim.cfg.event_tol)


def localization_gaps(traj: Trajectory) -> list[float]:
    """|t* - localize_full| for every step of ``traj`` that ends at a
    trigger, localized afresh from the step's start to its checkpoint."""
    triggers = {e.time for e in traj.events if e.kind == "trigger"}
    return [abs(t1 - localize_full(sim, sim._grid_t[cp]))
            for sim, t1, cp in record_steps(traj) if t1 in triggers]


def audit_crossings(traj: Trajectory, points: int = 7) -> dict:
    """The sampled missed-crossing audit of ``traj``: the whole closed form
    is evaluated at ``points`` interior points of every step between two
    stored rows (``record_steps``), the localized steps (t0, t*] included.

    Returns the number of steps audited, the number of them whose largest
    interior trigger value reaches 0 (a crossing the engine missed) and the
    largest interior trigger value of any step (``max_f``; its negative is
    the smallest interior margin).
    """
    out = {"steps": 0, "missed": 0, "max_f": -math.inf}
    for sim, t1, _ in record_steps(traj):
        t0 = sim.t
        inner = [t0 + (t1 - t0) * j / (points + 1) for j in range(1, points + 1)]
        top = float(sim._flow(sim.flow.tables([t - t0 for t in inner]), inner)[4].max())
        out["steps"] += 1
        out["missed"] += top >= 0
        out["max_f"] = max(out["max_f"], top)
    return out


def single_rate_lift(L, BK, A, Gamma, lam: float, Ed, W) -> np.ndarray:
    """The generator (column form) of the cascade at one leakage rate lam:
    the block diagonal of the agent lift [v, w, p, r], the edge lift
    [c/kappa, m2(d)] and the estimate z (``linalg.cascade_lift`` places one
    (w, p) group and one edge group per rate in a single generator)."""
    nv, n, nd = L.shape[0], A.shape[0], W.shape[0]
    (_, A2, U2), (_, A3, U3) = symmetric_powers(A, 2), symmetric_powers(A, 3)
    m = nv + n + len(A3)
    out = np.zeros((m + nd + 1 + len(A2) + n,) * 2)
    M, E = out[:m + nd, :m + nd], out[m + nd:-n, m + nd:-n]  # views of the first two blocks
    M[:nv, :nv], M[:nv, nv:nv + n], M[:nv, m:] = L, BK, Ed
    M[nv:nv + n, nv:nv + n] = A - lam * np.eye(n)
    M[nv:nv + n, nv + n:m] = np.kron(Gamma.reshape(1, -1), np.eye(n)) @ U3
    M[nv + n:m, nv + n:m], M[m:, m:] = A3, W
    E[0, 0], E[0, 1:], E[1:, 1:] = -lam, Gamma.ravel() @ U2, A2
    out[-n:, -n:] = A
    return out


def per_rate_tables(args, widths):
    """``CascadeFlow.tables`` at ``widths`` from one lift per leakage rate,
    each exponentiated on its own and their readouts stitched: the rows
    (s, D, nv) that map a lift row to v(s), e^{-lambda s} and the weight
    integrals per group, and (e^{As})^T. ``args`` are ``CascadeFlow``'s
    (L, BK, A, Gamma, Ed, W, lams)."""
    L, BK, A, Gamma, Ed, W, lams = args
    nv, n, nd = L.shape[0], A.shape[0], W.shape[0]
    m = nv + n + len(symmetric_powers(A, 3)[0])
    a = m + nd
    F = [np.stack([_Expm(single_rate_lift(L, BK, A, Gamma, lam, Ed, W).T).at(s)
                   for s in widths]) for lam in sorted(lams) or [0.0]]
    RV = np.concatenate([F[0][:, :nv, :nv]] + [f[:, nv:m, :nv] for f in F]
                        + [F[0][:, m:a, :nv]], axis=1)
    C = np.stack([f[:, a:-n, a] for f in F], axis=1)
    return RV, C[..., 0], C[..., 1:], F[0][:, -n:, -n:]


def rk4_step(sim, t: float, y: np.ndarray, Z: np.ndarray, h: float, w=None):
    """One classical RK4 step of width h of an engine's flow from the flat
    state y (each agent's x, then its chi on observer runs, then the edge
    weights) and estimate stack Z at t, one stage at a time.

    ``w(s)`` is the disturbance (N, n) at stage time s, or None. Returns
    the end state, the end estimate stack and the four stages.
    """
    model, kernel = sim.model, sim.kernel
    n, m = model.n, kernel.ei.size
    rows = sim.n_agents

    def rhs(s, y, Zs):
        v, c = y[:y.size - m].reshape(rows, -1), y[y.size - m:]
        x = v[:, :n]
        u, cdot = kernel.flow_terms(kernel.edge_terms(Zs), c)
        bu = u @ model.B.T
        xdot = x @ model.A.T + bu + (0.0 if w is None else w(s))
        if v.shape[1] == n:
            return np.concatenate((xdot.ravel(), cdot))
        chi = v[:, n:]
        chidot = chi @ model.A.T + bu + (chi - x) @ (sim.gains.F @ model.C).T
        return np.concatenate((np.hstack([xdot, chidot]).ravel(), cdot))

    z_half = Z @ scipy.linalg.expm(model.A * (0.5 * h)).T
    z_full = Z @ scipy.linalg.expm(model.A * h).T
    k1 = rhs(t, y, Z)
    k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1, z_half)
    k3 = rhs(t + 0.5 * h, y + (0.5 * h) * k2, z_half)
    k4 = rhs(t + h, y + h * k3, z_full)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), z_full, (k1, k2, k3, k4)


def rk4_extension(y0, h, k, theta):
    """RK4's continuous extension: the state at fraction ``theta`` of the
    step of width h from y0 with stages ``k`` = (k1, k2, k3, k4).

    Third order in theta h (Hairer, Norsett & Wanner, Solving ODEs I,
    II.6); y0 itself at theta = 0 and the RK4 step at theta = 1.
    """
    k1, k2, k3, k4 = k
    t2 = theta * theta
    c = 2 * t2 * theta / 3
    return y0 + h * ((theta - 1.5 * t2 + c) * k1 + (t2 - c) * (k2 + k3)
                     + (c - 0.5 * t2) * k4)


def rk4_flow(sim, t1: float, w=None, substeps: int = 100):
    """An engine's flow from its current state to t1 by ``substeps`` steps
    of ``rk4_step``; ``w(s)`` is the disturbance. Returns the agent stack v
    (x, then chi on observer runs), the weights c and the estimates Z."""
    m, v = sim.kernel.ei.size, sim.X[:, :sim.flow.nv]
    y, Z, h = np.concatenate([v.ravel(), sim.c]), sim.Z, (t1 - sim.t) / substeps
    for k in range(substeps):
        y, Z, _ = rk4_step(sim, sim.t + k * h, y, Z, h, w)
    return y[:y.size - m].reshape(v.shape), y[y.size - m:], Z


def events_for(traj: Trajectory, agent: int) -> list[EventRecord]:
    """The events of one agent, in time order."""
    return [e for e in traj.events if e.agent == agent]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def graph_at(traj: Trajectory, t: float) -> Graph:
    """The topology active at time t."""
    active = traj.weight_segments[0].graph
    for seg in traj.weight_segments:
        if seg.t_start <= t:
            active = seg.graph
        else:
            break
    return active


def write_trajectory_csv(traj: Trajectory, path: str):
    n = traj.model.n
    cols = ["t", "agent"] + [f"x{i}" for i in range(n)]
    if traj.observer_states is not None:
        cols += [f"chi{i}" for i in range(n)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row, t in enumerate(traj.times):
            for agent in range(traj.states.shape[1]):
                parts = [_fmt(t), str(agent)]
                parts += [_fmt(v) for v in traj.states[row, agent]]
                if traj.observer_states is not None:
                    parts += [_fmt(v) for v in traj.observer_states[row, agent]]
                fh.write(",".join(parts) + "\n")


def write_events_csv(traj: Trajectory, path: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("agent,t,f_before\n")
        for rec in traj.events:
            fh.write(f"{rec.agent},{_fmt(rec.time)},{_fmt(rec.trigger_value_before)}\n")


def write_weights_csv(traj: Trajectory, path: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,i,j,c\n")
        for seg in traj.weight_segments:
            for r in range(seg.values.shape[0]):
                t = traj.times[seg.first_index + r]
                for e, (i, j) in enumerate(seg.graph.edges):
                    fh.write(f"{_fmt(t)},{i},{j},{_fmt(seg.values[r, e])}\n")


def zeno_bound(traj: Trajectory, agent: int, k: int) -> float:
    recs = events_for(traj, agent)
    if not (0 <= k + 1 < len(recs)):
        raise ValueError(f"agent {agent} has no event pair ({k}, {k + 1})")
    t_k, t_k1 = recs[k].time, recs[k + 1].time
    g = graph_at(traj, t_k)
    neigh = g.neighbors(agent)
    d_i = len(neigh)
    if d_i == 0:
        return math.inf

    p = traj.params
    cbar = max(traj.max_weight, 0.0)
    norm_a = float(np.linalg.norm(traj.model.A, 2))
    norm_k = float(np.linalg.norm(traj.gains.K, 2))
    norm_bk = float(np.linalg.norm(traj.model.B @ traj.gains.K, 2))

    rows = _grid_slice(traj, t_k, t_k1)
    z = traj.estimates[rows]
    diffs = z[:, [agent], :] - z[:, neigh, :]
    sigma_i = float(norm_bk * np.linalg.norm(diffs, axis=2).sum(axis=1).max())

    b = cbar * sigma_i
    if traj.variant == "observer":
        gap = traj.observer_states[rows] - traj.states[rows]
        fc = traj.gains.F @ traj.model.C
        b += float(np.linalg.norm(gap[:, agent, :] @ fc.T, axis=1).max())
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


def zeno_report(traj: Trajectory) -> ZenoReport:
    checks = []
    for agent in range(traj.graph.n_nodes):
        recs = events_for(traj, agent)
        for k in range(len(recs) - 1):
            if recs[k + 1].kind != "trigger":
                continue
            checks.append(ZenoCheck(
                agent=agent, k=k,
                interval=recs[k + 1].time - recs[k].time,
                bound=zeno_bound(traj, agent, k),
            ))
    return ZenoReport(checks=checks)
