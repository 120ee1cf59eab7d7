"""Hybrid simulation loop: continuous flow, event detection, trigger resets.

The augmented ODE state is one flat vector y = (x, chi, c): all agent
states row-major (N n), then all observer states when present (N n), then
the edge weights in ``graph.edges`` order (M). ``_Simulation._views`` is
the only place that knows these offsets; everything else works on its
reshaped views. Broadcast estimates are never integrated: they are
closed-form matrix-exponential propagations of the latest samples, kept
as the rows of the estimate stack Z, so an agent's own estimate cannot
drift away from its own state numerically.

Triggers are monitored at step endpoints. A sign change of any trigger
function starts a bisection on a cubic Hermite dense-output interpolant of
the step; the flow is then re-integrated up to the localized instant, the
triggering agents broadcast (ascending index, each reset immediately
visible), and integration resumes. Simultaneous crossings are processed
within the same instant, one broadcast per agent per instant.
"""

from __future__ import annotations

import bisect
import math
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
from .graph import Graph, has_leader_spanning_tree, is_connected
from .linalg import GainSet, SystemModel
from .protocols import ProtocolKernel, ProtocolParams

VARIANTS = ("state", "observer", "leader_follower")
DISTURBANCE_KINDS = ("constant", "sinusoid", "uniform-random")


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
            raise ConfigError(
                f"unknown disturbance kind {self.kind!r}; expected one of {DISTURBANCE_KINDS}"
            )
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ConfigError(f"disturbance amplitude must be >= 0, got {self.amplitude}")


@dataclass(frozen=True)
class SimConfig:
    """Horizon, discretization and runtime policies of one simulation."""

    t_end: float
    dt: float
    event_tol: float = 1e-8
    solver: str = "rk4"
    seed: int | None = None
    disturbance: DisturbanceSpec | None = None
    topology_schedule: tuple = ()
    dwell_min: float = 1e-2
    max_events_per_unit_time: int = 10_000
    rtol: float = 1e-8
    atol: float = 1e-10

    def __post_init__(self):
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not (0 < self.event_tol <= self.dt):
            raise ConfigError(
                f"event_tol must lie in (0, dt]; got {self.event_tol} with dt={self.dt}"
            )
        if self.solver not in ("rk4", "rk45-adaptive"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.dwell_min <= 0:
            raise ConfigError("dwell_min must be positive")
        if self.max_events_per_unit_time < 1:
            raise ConfigError("max_events_per_unit_time must be >= 1")
        sched = tuple((float(t), g) for (t, g) in self.topology_schedule)
        object.__setattr__(self, "topology_schedule", sched)
        prev = 0.0
        for (t, g) in sched:
            if not isinstance(g, Graph):
                raise ConfigError("topology_schedule entries must be (time, Graph)")
            if t - prev < self.dwell_min:
                raise ConfigError(
                    f"switch at t={t} violates dwell_min={self.dwell_min} after t={prev}"
                )
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

    def graph_at(self, t: float) -> Graph:
        active = self.weight_segments[0].graph
        for seg in self.weight_segments:
            if seg.t_start <= t:
                active = seg.graph
            else:
                break
        return active

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
    width <= event_tol, so f at the returned time is >= 0. ``f_hi`` is
    f(t_hi) when the caller already holds it.
    """
    f_lo = f(t_lo)
    if f_hi is None:
        f_hi = f(t_hi)
    if not (f_lo < 0 <= f_hi):
        raise ValueError(
            f"invalid bracket: f({t_lo})={f_lo}, f({t_hi})={f_hi}"
        )
    lo, hi = t_lo, t_hi
    while hi - lo > event_tol:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return hi


def _hermite(y0, f0, y1, f1, h, s):
    """Cubic Hermite interpolant at fraction s of a step of width h."""
    s2 = s * s
    s3 = s2 * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * f0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * f1)


# Dormand-Prince 5(4) tableau; the last stage is the FSAL derivative.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _taylor_radius(k: int) -> float:
    """Largest theta with theta^{k+1}/(k+1)! e^{theta} <= u e^{-theta}."""
    log_u = math.log(2.0 ** -53)

    def excess(th: float) -> float:
        return (k + 1) * math.log(th) - math.lgamma(k + 2) + 2 * th - log_u

    lo, hi = 1e-300, 64.0
    for _ in range(100):
        mid = math.sqrt(lo * hi) if hi > 4 * lo else 0.5 * (lo + hi)
        if excess(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


#: _TAYLOR_THETA[k] bounds ||A||_1 s for a degree-k truncation of e^{As}
_MAX_DEGREE = 16
_TAYLOR_THETA = [_taylor_radius(k) for k in range(_MAX_DEGREE + 1)]


class _Expm:
    """e^{A s} from a truncated Taylor series, numpy only.

    P_k = A^k / k! is computed once. For theta = ||A||_1 |s| the degree K
    is the smallest with theta^{K+1}/(K+1)! e^{theta} <= u e^{-theta}: the
    remainder of the series is then at most unit roundoff u relative to
    ||e^{As}|| >= e^{-theta}. When A^k is exactly zero the series is exact
    at degree k - 1 for every s (the triple integrator stops at K = 2).
    Widths beyond the reach of degree _MAX_DEGREE are scaled by 2^-j and
    the result squared j times.
    """

    def __init__(self, A: np.ndarray):
        A = np.asarray(A, dtype=float)
        self._norm = float(np.abs(A).sum(axis=0).max())
        term = np.eye(A.shape[0])
        self._P = [term]
        self._exact = False
        for k in range(1, _MAX_DEGREE + 1):
            term = (term @ A) / k
            if not term.any():
                self._exact = True
                break
            self._P.append(term)
        for P in self._P:
            P.setflags(write=False)

    def at(self, s: float) -> np.ndarray:
        P = self._P
        squarings = 0
        if self._exact:
            k = len(P) - 1
        else:
            theta = self._norm * abs(s)
            if theta > _TAYLOR_THETA[-1]:
                # smallest j with theta 2^-j below the degree-cap radius
                squarings = math.frexp(theta / _TAYLOR_THETA[-1])[1]
                s = math.ldexp(s, -squarings)
                theta = math.ldexp(theta, -squarings)
            k = min(bisect.bisect_left(_TAYLOR_THETA, theta), _MAX_DEGREE)
        out = P[k]
        for j in range(k - 1, -1, -1):
            out = out * s + P[j]
        for _ in range(squarings):
            out = out @ out
        return out


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

        shape = (self.n_agents, model.n)
        parts = [np.asarray(x0, dtype=float).reshape(shape)]
        if variant == "observer":
            parts.append(np.zeros(shape) if chi0 is None
                         else np.asarray(chi0, dtype=float).reshape(shape))
            self._FC = gains.F @ model.C
        else:
            self._FC = None
        parts.append(self.kernel.c0)
        # the augmented state (x, chi when observing, c), read through _views
        self.y = np.concatenate([p.ravel() for p in parts])
        self.Z = self._views(self.y)[3].copy()

        self.t = 0.0
        self.events: list[EventRecord] = []
        self._zeno_windows = [deque() for _ in range(self.n_agents)]
        self._k1 = None

        self._times: list[float] = []
        self._states: list[np.ndarray] = []
        self._estimates: list[np.ndarray] = []
        self._chis: list[np.ndarray] = []
        self._segments: list[dict] = []
        self._open_segment(graph, 0.0, first_index=0)

        self._setup_disturbance()
        self._h_ctrl = sim.dt

    # -- disturbance ---------------------------------------------------

    def _setup_disturbance(self):
        cfg = self.cfg
        self._n_cells = max(1, int(math.floor(cfg.t_end / cfg.dt + 1e-9)))
        if cfg.t_end - self._n_cells * cfg.dt > 1e-9 * cfg.dt:
            self._n_cells += 1
        d = cfg.disturbance
        self._w_table = None
        self._w_const = None
        self._phases = None
        if d is None or d.amplitude == 0.0:
            self._dist_kind = None
            return
        self._dist_kind = d.kind
        n, N = self.model.n, self.n_agents
        mask = np.ones((N, 1))
        if self.leader is not None:
            mask[self.leader] = 0.0  # the leader flows unperturbed
        if d.kind == "constant":
            self._w_const = d.amplitude * np.ones((N, n)) * mask
        elif d.kind == "sinusoid":
            self._phases = 2 * np.pi * np.arange(N) / N
            self._amp = d.amplitude
            self._omega = 2 * np.pi * d.frequency
            self._mask = mask
        else:  # uniform-random, piecewise constant per base step
            seed = d.seed if d.seed is not None else (self.cfg.seed or 0) + 1
            rng = np.random.default_rng(seed)
            table = rng.uniform(-d.amplitude, d.amplitude,
                                size=(self._n_cells, N, n))
            self._w_table = table * mask[None, :, :]

    def _disturbance(self, t: float, cell: int):
        if self._dist_kind is None:
            return None
        if self._dist_kind == "constant":
            return self._w_const
        if self._dist_kind == "sinusoid":
            s = self._amp * np.sin(self._omega * t + self._phases)
            return s[:, None] * self._mask  # (N, 1), broadcast against xdot
        return self._w_table[min(cell, self._n_cells - 1)]

    # -- flow ----------------------------------------------------------

    def _views(self, y: np.ndarray):
        """(x, chi | None, c, live) views of an augmented state; ``live``
        is what agents broadcast: chi for observer runs, else x."""
        N, n = self.n_agents, self.model.n
        x = y[: N * n].reshape(N, n)
        if self.variant != "observer":
            return x, None, y[N * n:], x
        chi = y[N * n: 2 * N * n].reshape(N, n)
        return x, chi, y[2 * N * n:], chi

    def _rhs(self, t: float, y: np.ndarray, Z: np.ndarray, cell: int,
             dq=None) -> np.ndarray:
        x, chi, c, _ = self._views(y)
        u, cdot = self.kernel.flow_terms(Z, c, dq)
        w = self._disturbance(t, cell)
        m = self.model
        xdot = x @ m.A.T + u @ m.B.T
        if w is not None:
            xdot = xdot + w
        if chi is None:
            return np.concatenate([xdot.ravel(), cdot])
        chidot = chi @ m.A.T + u @ m.B.T + (chi - x) @ self._FC.T
        return np.concatenate([xdot.ravel(), chidot.ravel(), cdot])

    # Steps return (y1, z1, k1, f1, err, dq1): dq1 is the edge work of z1,
    # shared with the endpoint trigger check.

    def _step_rk4(self, t, y, Z, h, cell, k1):
        edge_terms = self.kernel.edge_terms
        z_half = Z @ self.expm.at(0.5 * h).T
        z_full = Z @ self.expm.at(h).T
        if k1 is None:
            k1 = self._rhs(t, y, Z, cell)
        dq_half = edge_terms(z_half)
        k2 = self._rhs(t + 0.5 * h, y + (0.5 * h) * k1, z_half, cell, dq_half)
        k3 = self._rhs(t + 0.5 * h, y + (0.5 * h) * k2, z_half, cell, dq_half)
        dq_full = edge_terms(z_full)
        k4 = self._rhs(t + h, y + h * k3, z_full, cell, dq_full)
        y1 = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        f1 = self._rhs(t + h, y1, z_full, cell, dq_full)
        return y1, z_full, k1, f1, 0.0, dq_full

    def _step_dopri(self, t, y, Z, h, cell, k1):
        ks = [None] * 7
        ks[0] = k1 if k1 is not None else self._rhs(t, y, Z, cell)
        z_end = dq_end = None
        for i in range(1, 7):
            yi = y.copy()
            for j, a in enumerate(_DP_A[i]):
                if a != 0.0:
                    yi += (h * a) * ks[j]
            if _DP_C[i] == 1.0:
                # stages 6 and 7 both sit at the step end
                if z_end is None:
                    z_end = Z @ self.expm.at(h).T
                    dq_end = self.kernel.edge_terms(z_end)
                zi, dq = z_end, dq_end
            else:
                zi = Z @ self.expm.at(_DP_C[i] * h).T
                dq = None
            ks[i] = self._rhs(t + _DP_C[i] * h, yi, zi, cell, dq)
        y1 = y.copy()
        for j in range(7):
            if _DP_B5[j] != 0.0:
                y1 += (h * _DP_B5[j]) * ks[j]
        err_vec = np.zeros_like(y)
        for j in range(7):
            d = _DP_B5[j] - _DP_B4[j]
            if d != 0.0:
                err_vec += (h * d) * ks[j]
        scale = self.cfg.atol + self.cfg.rtol * np.maximum(np.abs(y), np.abs(y1))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        f1 = ks[6]  # FSAL: stage 7 is the derivative at (t+h, y1)
        return y1, z_end, ks[0], f1, err, dq_end

    # -- triggers --------------------------------------------------------

    def _trigger_values_now(self, t: float) -> np.ndarray:
        _, _, c, live = self._views(self.y)
        return self.kernel.trigger_values(live, self.Z, c, t)

    def _apply_trigger(self, i: int, t: float, f_before: float, kind: str):
        value = self._views(self.y)[3][i].copy()
        self.Z[i] = value
        self.events.append(EventRecord(
            agent=i, time=t, value=value,
            trigger_value_before=float(f_before), kind=kind,
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
        self._k1 = None

    def _sweep(self, t: float, kind: str = "trigger") -> list[int]:
        """Trigger every agent whose f >= 0, ascending index, resets
        immediately visible, at most one broadcast per agent."""
        triggered: list[int] = []
        eligible = np.ones(self.n_agents, dtype=bool)
        if self.leader is not None:
            eligible[self.leader] = False
        while True:
            f = self._trigger_values_now(t)
            cands = np.flatnonzero(eligible & (f >= 0))
            if not cands.size:
                return triggered
            i = int(cands[0])
            self._apply_trigger(i, t, f[i], kind)
            eligible[i] = False
            triggered.append(i)

    def _force_broadcast(self, t: float, kind: str):
        # f values are a pre-reset snapshot; forced broadcasts are not
        # crossings, the value is informational only
        f = self._trigger_values_now(t)
        # one broadcast per agent per instant: skip agents already sent at t
        done = {self.leader}
        for e in reversed(self.events):
            if e.time != t:
                break
            done.add(e.agent)
        for i in range(self.n_agents):
            if i not in done:
                self._apply_trigger(i, t, f[i], kind)

    # -- storage ---------------------------------------------------------

    def _open_segment(self, graph: Graph, t_start: float, first_index: int):
        self._segments.append({
            "graph": graph, "t_start": t_start,
            "first_index": first_index, "rows": [],
        })

    def _store_row(self):
        x, chi, c, _ = self._views(self.y)
        rows = self._segments[-1]["rows"]
        if self._times and self._times[-1] == self.t:
            # refresh the row: post-trigger estimates/weights replace it
            for stored in (self._times, self._states, self._estimates, rows):
                stored.pop()
            if chi is not None:
                self._chis.pop()
        self._times.append(self.t)
        self._states.append(x.copy())
        self._estimates.append(self.Z.copy())
        if chi is not None:
            self._chis.append(chi.copy())
        rows.append(c.copy())

    # -- event localization ------------------------------------------------

    def _localize(self, t0, y0, f0, t1, y1, f1, g1: float) -> float:
        """Event time in (t0, t1]; ``g1`` is the trigger maximum at t1."""
        h = t1 - t0
        if h <= self.cfg.event_tol:
            return t1
        z0 = self.Z

        def g(tm: float) -> float:
            ym = _hermite(y0, f0, y1, f1, h, (tm - t0) / h)
            zm = z0 @ self.expm.at(tm - t0).T
            _, _, cm, live = self._views(ym)
            return float(self.kernel.trigger_values(live, zm, cm, tm).max())

        return locate_event(g, t0, t1, self.cfg.event_tol, f_hi=g1)

    # -- main loop ---------------------------------------------------------

    def _checkpoints(self):
        cfg = self.cfg
        n_full = int(math.floor(cfg.t_end / cfg.dt + 1e-9))
        pts = [k * cfg.dt for k in range(1, n_full + 1)]
        if not pts or pts[-1] < cfg.t_end - 1e-9 * cfg.dt:
            pts.append(cfg.t_end)
        else:
            pts[-1] = cfg.t_end
        switches = {t: g for (t, g) in cfg.topology_schedule if t <= cfg.t_end}
        merged = sorted(set(pts) | set(switches))
        return [(t, switches.get(t)) for t in merged]

    def _cell_of(self, t: float) -> int:
        return min(int(t / self.cfg.dt + 1e-9), self._n_cells - 1)

    def _advance_to(self, tc: float):
        step = self._step_rk4 if self.cfg.solver == "rk4" else self._step_dopri
        adaptive = self.cfg.solver != "rk4"
        while tc - self.t > 1e-12 * max(1.0, tc):
            remaining = tc - self.t
            h = min(self._h_ctrl, remaining) if adaptive else remaining
            full = h >= remaining
            t_next = tc if full else self.t + h
            cell = self._cell_of(self.t)
            y0 = self.y
            y1, z1, k1, f1, err, dq1 = step(self.t, y0, self.Z, h, cell, self._k1)
            if adaptive:
                if err > 1.0:
                    self._h_ctrl = h * max(0.2, 0.9 * err ** -0.2)
                    continue
                fac = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                self._h_ctrl = min(self.cfg.dt, h * fac)
            if not np.isfinite(y1).all():
                raise NonFiniteStateError(f"non-finite state after step at t={self.t:.6f}")
            _, _, c1, live1 = self._views(y1)
            g1 = float(self.kernel.trigger_values(live1, z1, c1, t_next, dq1).max())
            if g1 >= 0:
                t_star = self._localize(self.t, y0, k1, t_next, y1, f1, g1)
                if t_star < t_next:
                    y1, z1, k1, f1, _, _ = step(self.t, y0, self.Z, t_star - self.t,
                                                cell, k1)
                    if not np.isfinite(y1).all():
                        raise NonFiniteStateError(
                            f"non-finite state after step at t={self.t:.6f}")
                self._commit(t_star, y1, z1, f1)
                triggered = self._sweep(t_star)
                if not triggered:
                    # the localized crossing sits within the interpolation
                    # slack of zero on the committed state: broadcast the
                    # closest agent, then let any cascade play out
                    f = self._trigger_values_now(t_star)
                    i = int(np.argmax(f))
                    self._apply_trigger(i, t_star, f[i], "trigger")
                    self._sweep(t_star)
                self._store_row()
            else:
                self._commit(t_next, y1, z1, f1)

    def _commit(self, t, y, z, f1):
        # steps return fresh arrays, so y and z are owned from here on
        self.y = y
        self.Z = z
        self.t = t
        self._k1 = f1

    def _apply_switch(self, t: float, new_graph: Graph):
        c = self._views(self.y)[2]
        old = dict(zip(self.kernel.graph.edges, c))
        kernel = ProtocolKernel(new_graph, self.params, self.gains.K, self.gains.Gamma)
        c_new = np.array([old.get(e, c0) for e, c0 in zip(new_graph.edges, kernel.c0)])
        self.kernel = kernel
        self.y = np.concatenate([self.y[: self.y.size - c.size], c_new])
        self._open_segment(new_graph, t, first_index=len(self._times) - 1)
        self._segments[-1]["rows"].append(c_new)
        self._force_broadcast(t, kind="switch")
        self._store_row()  # refresh the row at t with post-switch estimates
        self._k1 = None

    def run(self) -> Trajectory:
        self._store_row()
        f0 = self._trigger_values_now(0.0)
        for i in range(self.n_agents):
            fv = float("nan") if i == self.leader else f0[i]
            self._apply_trigger(i, 0.0, fv, "init")
        for tc, switch_graph in self._checkpoints():
            self._advance_to(tc)
            self._store_row()
            if switch_graph is not None:
                self._apply_switch(tc, switch_graph)
            if self.broadcast_every_step:
                self._force_broadcast(tc, kind="forced")
        return self._finalize()

    def _finalize(self) -> Trajectory:
        segments = []
        for seg in self._segments:
            segments.append(WeightSegment(
                graph=seg["graph"], t_start=seg["t_start"],
                first_index=seg["first_index"],
                values=np.array(seg["rows"]) if seg["rows"] else
                np.zeros((0, len(seg["graph"].edges))),
            ))
        return Trajectory(
            times=np.array(self._times),
            states=np.array(self._states),
            estimates=np.array(self._estimates),
            observer_states=np.array(self._chis) if self.variant == "observer" else None,
            weight_segments=segments,
            events=self.events,
            variant=self.variant,
            model=self.model,
            gains=self.gains,
            params=self.params,
            graph=self._segments[0]["graph"],
            sim=self.cfg,
        )


def _validate_graph_for_variant(graph: Graph, variant: str):
    if variant == "leader_follower":
        if graph.leader is None:
            raise ConfigError("leader_follower variant requires a graph with a leader")
        if not has_leader_spanning_tree(graph):
            raise NoSpanningTreeError(
                "no spanning tree rooted at the leader reaches every follower"
            )
    else:
        if graph.leader is not None:
            raise ConfigError(f"{variant} variant requires a leaderless graph")
        if not is_connected(graph):
            raise DisconnectedGraphError("communication graph is not connected")


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
    _validate_graph_for_variant(graph, variant)
    for (_, g) in sim.topology_schedule:
        if g.n_nodes != graph.n_nodes:
            raise ConfigError("topology_schedule graphs must keep the agent count")
        if g.leader != graph.leader:
            raise ConfigError("topology_schedule graphs must keep the same leader")
        _validate_graph_for_variant(g, variant)

    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (graph.n_nodes, model.n):
        raise ConfigError(
            f"x0 has shape {x0.shape}, expected ({graph.n_nodes}, {model.n})"
        )
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
