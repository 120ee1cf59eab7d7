"""Reference implementations that the tests check the package against.

They are the straightforward per-value and per-check forms of code that
``src/etcons`` runs in a faster shape: the CSV writers format one value
per f-string, and the Zeno report rescans the event list and every weight
row for each interval it checks.
"""

from __future__ import annotations

import math

import numpy as np

from etcons.analysis import ZenoCheck, ZenoReport, _grid_slice
from etcons.cli import _fmt
from etcons.engine import Trajectory


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


def write_weights_csv(traj: Trajectory, path: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,i,j,c\n")
        for seg in traj.weight_segments:
            for r in range(seg.values.shape[0]):
                t = traj.times[seg.first_index + r]
                for e, (i, j) in enumerate(seg.graph.edges):
                    fh.write(f"{_fmt(t)},{i},{j},{_fmt(seg.values[r, e])}\n")


def zeno_bound(traj: Trajectory, agent: int, k: int) -> float:
    recs = traj.events_for(agent)
    if not (0 <= k + 1 < len(recs)):
        raise ValueError(f"agent {agent} has no event pair ({k}, {k + 1})")
    t_k, t_k1 = recs[k].time, recs[k + 1].time
    g = traj.graph_at(t_k)
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
        recs = traj.events_for(agent)
        for k in range(len(recs) - 1):
            if recs[k + 1].kind != "trigger":
                continue
            checks.append(ZenoCheck(
                agent=agent, k=k,
                interval=recs[k + 1].time - recs[k].time,
                bound=zeno_bound(traj, agent, k),
            ))
    return ZenoReport(checks=checks)
