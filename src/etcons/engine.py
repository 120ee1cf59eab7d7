"""Hybrid simulation loop: continuous flow, event detection, trigger resets.

The augmented ODE state is one flat vector y = (x, chi, c): all agent
states row-major (N n), then all observer states when present (N n), then
the edge weights in ``graph.edges`` order (M). ``_Simulation._views`` is
the only place that knows these offsets; everything else works on its
reshaped views. Broadcast estimates are never integrated: they are
closed-form matrix-exponential propagations of the latest samples, kept
as the rows of the estimate stack Z, so an agent's own estimate cannot
drift away from its own state numerically.

The flow between events is integrated by classical RK4, one step from
the current instant to the next base-grid or switch instant. Triggers are
monitored at step endpoints. A sign change of any trigger function starts
a bisection on RK4's continuous extension of the step (its own stages);
the flow is re-integrated up to the localized instant and every agent
whose trigger function is nonnegative there broadcasts (ascending index,
each reset immediately visible, one broadcast per agent per instant). If
none is, the crossing is localized again from that instant. Each
instant's row is stored once, after its last reset.
"""

from __future__ import annotations

import bisect
import math
import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DisconnectedGraphError,
    NonFiniteStateError,
    NoSpanningTreeError,
    ZenoGuardError,
)
from .graph import Graph, is_connected
from .linalg import GainSet, SystemModel, _Expm
from .protocols import ProtocolKernel, ProtocolParams

VARIANTS = ("state", "observer", "leader_follower")
_SLACK = 1e-12  # relative: checkpoint times closer than this are one instant
DISTURBANCE_KINDS = ("constant", "sinusoid", "uniform-random")


def _check_integer(value, low: int, key: str):
    """``value`` must be an integer >= low; a bool is not an integer."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low):
        raise ConfigError(f"must be an integer >= {low}, got {value!r}", key)


@dataclass(frozen=True)
class DisturbanceSpec:
    """Bounded per-agent disturbance entering the state equation.

    ``constant`` applies amplitude * ones; ``sinusoid`` dephases agents by
    2 pi i / N; ``uniform-random`` draws piecewise-constant values per base
    step from a seeded generator, keeping runs deterministic.
    """

    kind: str
    amplitude: float
    frequency: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KINDS:
            raise ConfigError(f"expected one of {DISTURBANCE_KINDS}, got {self.kind!r}",
                              "sim.disturbance.kind")
        if not (0 <= self.amplitude < math.inf):
            raise ConfigError(f"must be finite and >= 0, got {self.amplitude}",
                              "sim.disturbance.amplitude")
        if not math.isfinite(self.frequency):
            raise ConfigError(f"must be finite, got {self.frequency}", "sim.disturbance.frequency")
        if self.seed is not None:
            _check_integer(self.seed, 0, "sim.disturbance.seed")


@dataclass(frozen=True)
class SimConfig:
    """Horizon, discretization and runtime policies of one simulation."""

    t_end: float
    dt: float
    event_tol: float = 1e-8
    seed: int | None = None
    disturbance: DisturbanceSpec | None = None
    topology_schedule: tuple = ()
    dwell_min: float = 1e-2
    max_events_per_unit_time: int = 10_000

    def __post_init__(self):
        for name in ("t_end", "dt", "dwell_min"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"must be finite and positive, got {getattr(self, name)}",
                                  f"sim.{name}")
        if not (0 < self.event_tol <= self.dt):
            raise ConfigError(f"must lie in (0, dt]; got {self.event_tol} with dt={self.dt}",
                              "sim.event_tol")
        if self.seed is not None:
            _check_integer(self.seed, 0, "sim.seed")
        _check_integer(self.max_events_per_unit_time, 1, "sim.max_events_per_unit_time")
        sched = tuple((float(t), g) for (t, g) in self.topology_schedule)
        object.__setattr__(self, "topology_schedule", sched)
        prev = 0.0
        for k, (t, g) in enumerate(sched):
            if not isinstance(g, Graph):
                raise ConfigError("expected a (time, Graph) pair", f"sim.topology_schedule[{k}]")
            if t - prev < self.dwell_min:
                raise ConfigError(f"switch at t={t} comes within dwell_min={self.dwell_min} "
                                  f"of t={prev}", f"sim.topology_schedule[{k}].t")
            prev = t


@dataclass
class EventRecord:
    """One broadcast: the initial sync, an organic trigger, a forced
    broadcast (dense-sampling mode), or a topology-switch broadcast.

    ``value`` is the sampled state (observer state for observer runs) that
    the agent sent at ``time``; neighbours propagate it as
    e^{A (t - time)} value until the agent's next broadcast.
    """

    agent: int
    time: float
    value: np.ndarray
    trigger_value_before: float
    kind: str = "trigger"


@dataclass
class WeightSegment:
    """Edge-weight history under one fixed topology.

    ``first_index`` points into ``Trajectory.times``; row k of ``values``
    holds the weights at ``times[first_index + k]`` for ``graph.edges``.
    The engine appends rows to a list while it runs and stacks them when
    the run ends.
    """

    graph: Graph
    t_start: float
    first_index: int
    values: np.ndarray


@dataclass
class Trajectory:
    """Dense result of one simulation run."""

    times: np.ndarray
    states: np.ndarray
    estimates: np.ndarray
    observer_states: np.ndarray | None
    weight_segments: list[WeightSegment]
    events: list[EventRecord]
    variant: str
    model: SystemModel
    gains: GainSet
    params: ProtocolParams
    graph: Graph
    sim: SimConfig

    def events_for(self, agent: int) -> list[EventRecord]:
        return [e for e in self.events if e.agent == agent]

    @property
    def max_weight(self) -> float:
        return max(float(seg.values.max()) for seg in self.weight_segments)

    @property
    def final_states(self) -> np.ndarray:
        return self.states[-1]


def locate_event(f, t_lo: float, t_hi: float, event_tol: float,
                 f_hi: float | None = None) -> float:
    """Bisect the first sign change of ``f`` on [t_lo, t_hi].

    Requires f(t_lo) < 0 <= f(t_hi); returns the upper end of a bracket of
    width <= event_tol, or of two adjacent floats when event_tol is finer
    than their spacing, so f at the returned time is >= 0. ``f_hi`` is
    f(t_hi) when the caller already holds it.
    """
    f_lo = f(t_lo)
    if f_hi is None:
        f_hi = f(t_hi)
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


def _rk4_extension(y0, h, k, theta):
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


class _Simulation:
    """Single-run engine state; see ``simulate`` for the public contract."""

    def __init__(self, model, graph, gains, params, sim, x0, variant,
                 chi0=None, broadcast_every_step=False):
        self.model = model
        self.gains = gains
        self.params = params
        self.cfg = sim
        self.variant = variant
        self.broadcast_every_step = broadcast_every_step
        self.n_agents = graph.n_nodes
        self.leader = graph.leader

        self.kernel = ProtocolKernel(graph, params, gains.K, gains.Gamma)
        self.expm = _Expm(model.A)

        # the (N, n) layout and the transposed model, fixed for the run
        self._shape = shape = (self.n_agents, model.n)
        self._nx = self.n_agents * model.n
        self._AT = model.A.T
        self._BT = model.B.T
        parts = [np.asarray(x0, dtype=float)]
        if variant == "observer":
            parts.append(np.zeros(shape) if chi0 is None else np.asarray(chi0, dtype=float))
            self._FCT = (gains.F @ model.C).T
        parts.append(self.kernel.c0)
        # the augmented state (x, chi when observing, c), read through _views
        self.y = np.concatenate([p.ravel() for p in parts])
        # the estimate stack and its edge work, always updated together
        self.Z = self._views(self.y)[3].copy()
        self.dq = self.kernel.edge_terms(self.Z)

        self.t = 0.0
        self.events: list[EventRecord] = []
        self._zeno_windows = [deque() for _ in range(self.n_agents)]

        self._times: list[float] = []
        self._states: list[np.ndarray] = []
        self._estimates: list[np.ndarray] = []
        self._chis: list[np.ndarray] = []
        self._segments = [WeightSegment(graph, 0.0, 0, [])]

        self._grid = self._checkpoints()
        self._setup_disturbance()

    # -- disturbance ---------------------------------------------------

    def _setup_disturbance(self):
        d = self.cfg.disturbance
        if d is None or d.amplitude == 0.0:
            self._dist_kind = None
            return
        self._dist_kind = d.kind
        self._amp = d.amplitude
        N = self.n_agents
        self._mask = np.ones((N, 1))
        if self.leader is not None:
            self._mask[self.leader] = 0.0  # the leader flows unperturbed
        if d.kind == "constant":
            self._w_const = d.amplitude * np.ones(self._shape) * self._mask
        elif d.kind == "sinusoid":
            self._phases = 2 * np.pi * np.arange(N) / N
            self._omega = 2 * np.pi * d.frequency
        else:  # uniform-random, piecewise constant per base step
            seed = d.seed if d.seed is not None else (self.cfg.seed or 0) + 1
            self._rng = np.random.default_rng(seed)
            self._w_cell = -1

    def _disturbance(self, t: float, cell: int) -> np.ndarray:
        if self._dist_kind == "constant":
            return self._w_const
        if self._dist_kind == "sinusoid":
            s = self._amp * np.sin(self._omega * t + self._phases)
            return s[:, None] * self._mask  # (N, 1), broadcast against xdot
        # cells are entered in order, so drawing each one's (N, n) values on
        # entry reads the generator's stream as one (cells, N, n) draw would
        while self._w_cell < cell:
            self._w_cell += 1
            self._w = self._rng.uniform(-self._amp, self._amp, self._shape) * self._mask
        return self._w

    # -- flow ----------------------------------------------------------

    def _views(self, y: np.ndarray):
        """(x, chi | None, c, live) views of an augmented state; ``live``
        is what agents broadcast: chi for observer runs, else x."""
        nx = self._nx
        x = y[:nx].reshape(self._shape)
        if self.variant != "observer":
            return x, None, y[nx:], x
        chi = y[nx: 2 * nx].reshape(self._shape)
        return x, chi, y[2 * nx:], chi

    def _rhs(self, t: float, y: np.ndarray, dq, cell: int) -> np.ndarray:
        x, chi, c, _ = self._views(y)
        u, cdot = self.kernel.flow_terms(dq, c)
        bu = u @ self._BT
        xdot = x @ self._AT + bu
        if self._dist_kind is not None:
            xdot = xdot + self._disturbance(t, cell)
        if chi is None:
            return np.concatenate((xdot.ravel(), cdot))
        chidot = chi @ self._AT + bu + (chi - x) @ self._FCT
        return np.concatenate((xdot.ravel(), chidot.ravel(), cdot))

    # A step of width h from (t, y, Z) starts from the stage k1 its caller
    # formed; it returns (y1, z1, dq1, k): the end state, the propagated stack
    # with its edge work, and the four stages, which give the continuous extension.

    def _step_rk4(self, t, y, Z, k1, h, cell):
        z_half = Z @ self.expm.at(0.5 * h).T
        z_full = Z @ self.expm.at(h).T
        dq_half = self.kernel.edge_terms(z_half)
        k2 = self._rhs(t + 0.5 * h, y + (0.5 * h) * k1, dq_half, cell)
        k3 = self._rhs(t + 0.5 * h, y + (0.5 * h) * k2, dq_half, cell)
        dq_full = self.kernel.edge_terms(z_full)
        k4 = self._rhs(t + h, y + h * k3, dq_full, cell)
        y1 = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(y1).all():
            raise NonFiniteStateError(f"non-finite state after step at t={t:.6f}")
        return y1, z_full, dq_full, (k1, k2, k3, k4)

    # -- triggers --------------------------------------------------------

    def _triggers(self, t: float, y: np.ndarray, Z: np.ndarray, dq) -> np.ndarray:
        """Trigger values at t of state y and estimate stack Z with edge work dq."""
        _, _, c, live = self._views(y)
        return self.kernel.trigger_values(live, Z, dq, c, t)

    def _broadcast(self, agents, t: float, f, kind: str):
        """Reset each agent's estimate to its live value at t, logging f[i],
        then form the edge work of the new stack."""
        live = self._views(self.y)[3]
        for i in agents:
            value = live[i].copy()
            self.Z[i] = value
            self.events.append(EventRecord(
                agent=i, time=t, value=value,
                trigger_value_before=float(f[i]), kind=kind,
            ))
            if kind == "trigger":
                win = self._zeno_windows[i]
                win.append(t)
                while win and t - win[0] > 1.0:
                    win.popleft()
                if len(win) > self.cfg.max_events_per_unit_time:
                    raise ZenoGuardError(
                        f"agent {i} fired {len(win)} events within 1 s ending at "
                        f"t={t:.6f}; exceeds max_events_per_unit_time="
                        f"{self.cfg.max_events_per_unit_time}"
                    )
        self.dq = self.kernel.edge_terms(self.Z)

    def _sweep(self, t: float) -> bool:
        """Trigger every agent whose f >= 0, ascending index, resets
        immediately visible, at most one broadcast per agent; whether any
        fired. The leader's f is -inf, so it never fires."""
        eligible = np.ones(self.n_agents, dtype=bool)
        while True:
            f = self._triggers(t, self.y, self.Z, self.dq)
            cands = np.flatnonzero(eligible & (f >= 0))
            if not cands.size:
                return not eligible.all()
            i = int(cands[0])
            self._broadcast((i,), t, f, "trigger")
            eligible[i] = False

    def _force_broadcast(self, t: float, kind: str):
        # f values are a pre-reset snapshot; forced broadcasts are not
        # crossings, the value is informational only
        f = self._triggers(t, self.y, self.Z, self.dq)
        # one broadcast per agent per instant: skip agents already sent at t
        done = {self.leader}
        for e in reversed(self.events):
            if e.time != t:
                break
            done.add(e.agent)
        self._broadcast([i for i in range(self.n_agents) if i not in done], t, f, kind)

    # -- storage ---------------------------------------------------------

    def _store_row(self):
        """Record the current instant, after every reset at it."""
        x, chi, c, _ = self._views(self.y)
        self._times.append(self.t)
        self._states.append(x.copy())
        self._estimates.append(self.Z.copy())
        if chi is not None:
            self._chis.append(chi.copy())
        self._segments[-1].values.append(c.copy())

    # -- event localization ------------------------------------------------

    def _localize(self, t0, y0, k, t1, g1: float) -> float:
        """Event time in (t0, t1] on the continuous extension of the step
        with stages ``k``; ``g1`` is the trigger maximum at t1."""
        h = t1 - t0
        if h <= self.cfg.event_tol:
            return t1
        z0 = self.Z

        def g(tm: float) -> float:
            ym = _rk4_extension(y0, h, k, (tm - t0) / h)
            zm = z0 @ self.expm.at(tm - t0).T
            return float(self._triggers(tm, ym, zm, self.kernel.edge_terms(zm)).max())

        return locate_event(g, t0, t1, self.cfg.event_tol, f_hi=g1)

    # -- main loop ---------------------------------------------------------

    def _checkpoints(self):
        """(t, cell, switch graph or None) of every checkpoint: the base
        grid k dt, ending exactly at t_end, merged with the switch instants.
        ``cell`` is the base-grid cell that the steps ending at t lie in."""
        cfg = self.cfg
        n_full = int(math.floor(cfg.t_end / cfg.dt + 1e-9))
        pts = [k * cfg.dt for k in range(1, n_full + 1)]
        if not pts or pts[-1] < cfg.t_end - 1e-9 * cfg.dt:
            pts.append(cfg.t_end)
        else:
            pts[-1] = cfg.t_end
        switches = {t: g for (t, g) in cfg.topology_schedule if t <= cfg.t_end}
        for s in switches:
            # 700 * 1e-3 is 0.7000000000000001: a switch at 0.7 takes its place
            j = bisect.bisect_left(pts, s)
            for i in (j - 1, j):
                if 0 <= i < len(pts) and abs(pts[i] - s) <= _SLACK * max(1.0, s):
                    pts[i] = s
        merged = sorted(set(pts) | set(switches))
        return [(t, bisect.bisect_left(pts, t), switches.get(t)) for t in merged]

    def _advance_to(self, tc: float, cell: int):
        """Integrate up to checkpoint tc, processing and storing every
        trigger instant before it; ``run`` stores the row at tc."""
        slack = _SLACK * max(1.0, tc)
        while tc - self.t > slack:
            t0, y0 = self.t, self.y
            k1 = self._rhs(t0, y0, self.dq, cell)
            y1, z1, dq1, k = self._step_rk4(t0, y0, self.Z, k1, tc - t0, cell)
            g1 = float(self._triggers(tc, y1, z1, dq1).max())
            # steps return fresh arrays, so y1 and z1 are owned once committed
            if g1 < 0:
                self.t, self.y, self.Z, self.dq = tc, y1, z1, dq1
                continue
            t_star = self._localize(t0, y0, k, tc, g1)
            if t_star < tc:
                y1, z1, dq1, _ = self._step_rk4(t0, y0, self.Z, k1, t_star - t0, cell)
            self.t, self.y, self.Z, self.dq = t_star, y1, z1, dq1
            # if the re-integrated state is still below zero at t_star, no
            # agent fires: the next pass localizes again from t_star, where
            # the extension returns this very state, so the bracket holds
            if self._sweep(t_star) and tc - t_star > slack:
                self._store_row()

    def _apply_switch(self, t: float, new_graph: Graph):
        c = self._views(self.y)[2]
        self._segments[-1].values.append(c.copy())  # the old graph's row at t
        old = dict(zip(self.kernel.graph.edges, c))
        kernel = ProtocolKernel(new_graph, self.params, self.gains.K, self.gains.Gamma)
        c_new = np.array([old.get(e, c0) for e, c0 in zip(new_graph.edges, kernel.c0)])
        self.kernel = kernel
        self.dq = kernel.edge_terms(self.Z)  # re-indexed by the new edge list
        self.y = np.concatenate([self.y[: self.y.size - c.size], c_new])
        # the new segment opens with the next row stored, the one at t
        self._segments.append(WeightSegment(new_graph, t, len(self._times), []))
        self._force_broadcast(t, kind="switch")

    def run(self) -> Trajectory:
        f0 = self._triggers(0.0, self.y, self.Z, self.dq)
        if self.leader is not None:
            f0[self.leader] = np.nan
        self._broadcast(range(self.n_agents), 0.0, f0, "init")
        self._store_row()
        for tc, cell, switch_graph in self._grid:
            self._advance_to(tc, cell)
            if switch_graph is not None:
                self._apply_switch(tc, switch_graph)
            if self.broadcast_every_step:
                self._force_broadcast(tc, kind="forced")
            self._store_row()
        return self._finalize()

    def _finalize(self) -> Trajectory:
        for seg in self._segments:
            seg.values = np.array(seg.values)
        return Trajectory(
            times=np.array(self._times),
            states=np.array(self._states),
            estimates=np.array(self._estimates),
            observer_states=np.array(self._chis) if self.variant == "observer" else None,
            weight_segments=self._segments,
            events=self.events,
            variant=self.variant,
            model=self.model,
            gains=self.gains,
            params=self.params,
            graph=self._segments[0].graph,
            sim=self.cfg,
        )


def simulate(
    model: SystemModel,
    graph: Graph,
    gains: GainSet,
    params: ProtocolParams,
    sim: SimConfig,
    x0,
    variant: str = "state",
    chi0=None,
    broadcast_every_step: bool = False,
) -> Trajectory:
    """Run the closed event-triggered loop and return the dense trajectory.

    ``x0`` is (N, n). For observer runs ``chi0`` defaults to zeros.
    ``broadcast_every_step`` forces a broadcast from every (non-leader)
    agent at each base grid point: the continuous-communication limit used
    as an oracle and for event-economy comparisons.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    # every graph of the run, checked before the first step
    leader_run = variant == "leader_follower"
    for k, g in enumerate([graph] + [g for (_, g) in sim.topology_schedule]):
        where = f"sim.topology_schedule[{k - 1}].graph" if k else "graph"
        if (g.n_nodes, g.leader) != (graph.n_nodes, graph.leader):
            raise ConfigError("must keep the initial graph's agent count and leader", where)
        if (g.leader is not None) != leader_run:
            raise ConfigError(f"the {variant} variant requires a graph "
                              f"{'with' if leader_run else 'without'} a leader", where)
        if not is_connected(g):
            if leader_run:
                raise NoSpanningTreeError(
                    "no spanning tree rooted at the leader reaches every follower")
            raise DisconnectedGraphError("communication graph is not connected")
        params.edge_arrays(g)

    shape = (graph.n_nodes, model.n)
    for name, v in (("x0", x0), ("chi0", chi0)):
        if v is not None:
            v = np.asarray(v, dtype=float)
            if v.shape != shape:
                raise ConfigError(f"{name} has shape {v.shape}, expected {shape}")
            if not np.isfinite(v).all():
                raise ConfigError(f"{name} has non-finite entries")
    if gains.K.shape != (model.p, model.n):
        raise ConfigError(f"K has shape {gains.K.shape}, expected ({model.p}, {model.n})")
    if gains.Gamma.shape != (model.n, model.n):
        raise ConfigError(f"Gamma has shape {gains.Gamma.shape}")
    if variant == "observer":
        if gains.F is None:
            raise ConfigError("observer variant requires an observer gain F")
        if gains.F.shape != (model.n, model.q):
            raise ConfigError(f"F has shape {gains.F.shape}, expected ({model.n}, {model.q})")
    elif chi0 is not None:
        raise ConfigError("chi0 only applies to the observer variant")
    simulation = _Simulation(model, graph, gains, params, sim, x0, variant,
                             chi0=chi0, broadcast_every_step=broadcast_every_step)
    return simulation.run()
