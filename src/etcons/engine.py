"""Hybrid simulation loop: continuous flow, event detection, trigger resets.

The augmented state is one flat vector y = (v, c): row i of the agent
stack v (N, d) holds agent i's state x, then its observer state chi on
observer runs, and c holds the edge weights in ``graph.edges`` order.
``_Simulation._views`` is the only place that knows this layout.
Broadcast estimates are never integrated: they are closed-form
propagations e^{As} z of the latest samples, kept as the rows of the
estimate stack Z, so an agent's own estimate cannot drift numerically.

The flow is classical RK4 on the base grid merged with the switch
instants, a run of grid steps per batched pass (``_Simulation._steps``).
A pass starts from the last event-free run length and doubles while no
trigger crosses; it holds at most ``_BLOCK_ELEMENTS`` values per stack
and ends at a switch instant (at every grid instant in dense mode). Its
steps are committed up to the first whose end has a trigger value >= 0.
That crossing is bisected on RK4's continuous extension of the step (its
own stages), the flow is re-integrated up to the localized instant, and
every agent whose trigger function is nonnegative there broadcasts
(ascending index, each reset immediately visible, one broadcast per agent
per instant). If none is, the crossing is localized again from that
instant. Each instant's row is stored once, after its last reset.
"""

from __future__ import annotations

import bisect
import math
import numbers
from collections import deque
from dataclasses import dataclass, field

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
_BLOCK_ELEMENTS = 2048  # a pass of several steps holds at most B M d edge values
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
class RunStats:
    """Work counters of one run: RK4 steps taken (discarded ones included),
    the passes that took them, localizations and their f evaluations."""

    steps: int = 0
    passes: int = 0
    localizations: int = 0
    localization_evaluations: int = 0


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
    stats: RunStats = field(default_factory=RunStats)

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

    The midpoints are bisection's, but a midpoint's sign is read off a
    second bracket f(a) < 0 <= f(b) when the midpoint lies outside (a, b).
    Illinois steps (Dowell & Jarratt, BIT 11, 1971) shrink [a, b]; after
    three of them in a row that fail to halve it, f(mid) itself is taken.
    With one sign change in [t_lo, t_hi] the answer is bisection's.
    """
    f_lo = f(t_lo)
    if f_hi is None:
        f_hi = f(t_hi)
    if not (f_lo < 0 <= f_hi):
        raise ValueError(f"invalid bracket: f({t_lo})={f_lo}, f({t_hi})={f_hi}")
    lo, hi = t_lo, t_hi
    a, fa, b, fb, side, slow = t_lo, f_lo, t_hi, f_hi, 0, 0
    while hi - lo > event_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        while a < mid < b:
            c = b - fb * (b - a) / (fb - fa)
            if slow == 3 or not a < c < b:
                c = mid
            fc, width = f(c), b - a
            if fc >= 0:  # Illinois: halve the value of an end kept twice
                b, fb, fa, side = c, fc, fa * (0.5 if side > 0 else 1.0), 1
            else:
                a, fa, fb, side = c, fc, fb * (0.5 if side < 0 else 1.0), -1
            slow = slow + 1 if c != mid and b - a > 0.5 * width else 0
        if mid >= b:
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


def _rk4(f, v, h, k1=None):
    """Classical RK4 on v' = f(v, j), j = 0..3 the stage, from v over the
    widths h: the step's end and its four stages. ``k1`` is f(v, 0) when
    the caller holds it."""
    k, half = [f(v, 0) if k1 is None else k1], 0.5 * h
    for j, w in enumerate((half, half, h), 1):
        k.append(f(v + w * k[-1], j))
    return v + (h / 6.0) * (k[0] + 2 * k[1] + 2 * k[2] + k[3]), k


def _chain(v0, R, H, mul):
    """v_1 .. v_K of v_{k+1} = mul(v_k, R_k) + H_k by recursive doubling:
    log2 K stacked products instead of K sequential ones. Overwrites R, H."""
    s = 1
    while s < len(R):
        H[s:] = mul(H[:-s], R[s:]) + H[s:]
        R[s:] = mul(R[:-s], R[s:])
        s *= 2
    return mul(v0, R) + H


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
        self.expm_T = _Expm(model.A.T)  # (e^{As})^T, so Z (e^{As})^T is Z @ expm_T.at(s)

        # v' = v L + F: the flow of the agent stack v, fixed for the run
        self._shape = shape = (self.n_agents, model.n)
        v, AT = np.asarray(x0, dtype=float), model.A.T
        self._L = AT
        if variant == "observer":
            FCT = (gains.F @ model.C).T
            chi = np.zeros(shape) if chi0 is None else np.asarray(chi0, dtype=float)
            v = np.hstack([v, chi])
            self._L = np.block([[AT, -FCT], [np.zeros_like(AT), AT + FCT]])
        self._vshape, self._nv = v.shape, v.size
        self._BT = np.tile(model.B.T, (1, v.shape[1] // model.n))
        self._eye = np.eye(v.shape[1])
        # the augmented state (v, c), read through _views
        self.y = np.concatenate([v.ravel(), self.kernel.c0])
        # the estimate stack and its edge work, always updated together
        self.Z = v[:, -model.n:].copy()
        self.dq = self.kernel.edge_terms(self.Z)

        self.t = 0.0
        self.events: list[EventRecord] = []
        self.stats = RunStats()
        self._f_now = None  # the trigger maximum at the current state, when known
        self._zeno_windows = [deque() for _ in range(self.n_agents)]
        # block size: the last event-free run, doubled while none crosses
        self._size, self._free = 1, 0

        self._times: list[float] = []
        self._states: list[np.ndarray] = []
        self._estimates: list[np.ndarray] = []
        self._chis: list[np.ndarray] = []
        self._segments = [WeightSegment(graph, 0.0, 0, [])]

        grid = self._checkpoints()
        self._grid_t, self._grid_cell, self._grid_switch = (list(col) for col in zip(*grid))
        # a pass ends after a switch checkpoint, and after every one in dense mode
        self._ends = [k + 1 for k, (_, _, g) in enumerate(grid)
                      if broadcast_every_step or g is not None] + [len(grid)]
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
            self._held, self._w_next = {}, 0

    def _disturbance(self, T: np.ndarray, cells) -> np.ndarray:
        """The disturbance at the stage times T (4, B) of steps lying in
        grid cells ``cells``, broadcastable to (4, B, N, n)."""
        if self._dist_kind == "constant":
            return self._w_const
        if self._dist_kind == "sinusoid":
            s = self._amp * np.sin(self._omega * T[..., None] + self._phases)
            return s[..., None] * self._mask
        # cells are entered in order, so drawing each one's (N, n) values on
        # first use reads the generator's stream as one (cells, N, n) draw
        # would; a cell is held until a pass starts past it
        for cell in range(self._w_next, cells[-1] + 1):
            self._held[cell] = self._rng.uniform(-self._amp, self._amp, self._shape) * self._mask
        self._w_next = max(self._w_next, cells[-1] + 1)
        for cell in [c for c in self._held if c < cells[0]]:
            del self._held[cell]
        return np.stack([self._held[c] for c in cells])

    # -- flow ----------------------------------------------------------

    def _views(self, y: np.ndarray):
        """(v, c) views of augmented states y (..., nv + M). Row i of v is
        agent i's x, followed by its chi on observer runs; agents broadcast
        the last n columns (chi, or x)."""
        nv = self._nv
        return y[..., :nv].reshape(y.shape[:-1] + self._vshape), y[..., nv:]

    def _steps(self, times, cells, k1=None):
        """Classical RK4 over the checkpoints times[0] (now) < ... < times[B]
        in one pass; step k lies in grid cell cells[k]. ``k1`` is the first
        stage of a single step when the caller holds it. Returns every
        step's end state (B, nv + M), estimate stack, edge work and trigger
        values, and its four stages.

        Given the estimates e^{As} z the flow is linear, so the later steps'
        starts come first: c_{k+1} = a_k c_k + b_k per edge, then v_{k+1} =
        v_k R_k + H_k (R_k is RK4's polynomial of h_k L, H_k the step from
        v = 0), both chained by recursive doubling. One RK4 call then takes
        every step from its start, on unstacked arrays for a single step.
        """
        kern, B, n, nv, L = self.kernel, len(times) - 1, self.model.n, self._nv, self._L
        self.stats.steps += B
        self.stats.passes += 1
        h = np.array([[b - a] for a, b in zip(times, times[1:])])
        o = []  # every step's midpoint and end, from now
        for a, b in zip(times, times[1:]):
            o += (a - times[0] + 0.5 * (b - a), b - times[0])
        Zs = self.Z @ self.expm_T.at(o)
        d, q = kern.edge_terms(Zs)
        # the rows that stage j of every step reads: its start (now: the
        # carried edge work), midpoint, midpoint and end; a single step
        # reads them unstacked
        mid, end = (0, 1) if B == 1 else (slice(0, None, 2), slice(1, None, 2))
        ds, qs = ([x0 if B == 1 else np.concatenate([x0[None], x[1:-1:2]]), x[mid], x[mid], x[end]]
                  for x0, x in zip(self.dq, (d, q)))
        w = None  # the disturbance at stage j of every step
        if self._dist_kind is not None:
            T = np.array(times[:-1]) + np.multiply.outer([0.0, 0.5, 0.5, 1.0], h[:, 0])
            w = np.broadcast_to(self._disturbance(T, cells), (4, B) + self._shape)
            w = w if B > 1 else w[:, 0]

        def field(y, j):  # the flow at stage j of every step
            u, cdot = kern.flow_terms((ds[j], qs[j]), y[..., nv:])
            vdot = y[..., :nv].reshape(u.shape[:-1] + (-1,)) @ L + u @ self._BT
            if w is not None:
                vdot[..., :n] += w[j]
            return np.concatenate([vdot.reshape(cdot.shape[:-1] + (nv,)), cdot], axis=-1)

        y_k, hs = self.y, h[0, 0]
        if B > 1:  # c reads nothing but the edge work, so its starts come first
            v0, c0 = self._views(self.y)
            b = _rk4(lambda c, j: kern.weight_rates(qs[j], c), 0.0, h)[0][:-1]
            if kern.varrho.any():
                a = _rk4(lambda c, j: kern.weight_rates(0.0, c), 1.0, h)[0][:-1]
                c_k = np.vstack([c0, _chain(c0, a, b, np.multiply)])
            else:  # a running sum, so that no weight ever decreases
                c_k = np.cumsum(np.vstack([c0, b]), axis=0)
            H = self._views(_rk4(field, np.hstack([np.zeros((B, nv)), c_k]), h)[0][:-1])[0]
            R = _rk4(lambda v, j: v @ L, self._eye, h[:-1, :, None])[0]
            v_k = np.vstack([v0[None], _chain(v0, R, H, np.matmul)])
            y_k, hs = np.hstack([v_k.reshape(B, nv), c_k]), h
        y1, k = _rk4(field, y_k, hs, k1)
        if B > 1:
            y1[:-1] = y_k[1:]  # each step ends where the next one starts
        v1, c1 = self._views(y1)
        f = kern.trigger_values(v1[..., -n:], Zs[end], (d[end], q[end]), c1,
                                times[1] if B == 1 else times[1:])
        return (y1.reshape(B, -1), Zs[1::2], (d[1::2], q[1::2]), f.reshape(B, -1),
                [x.reshape(B, -1) for x in k])

    # -- triggers --------------------------------------------------------

    def _triggers(self, t: float, y: np.ndarray, Z: np.ndarray, dq) -> np.ndarray:
        """Trigger values at t of state y and estimate stack Z with edge work dq."""
        v, c = self._views(y)
        return self.kernel.trigger_values(v[:, -self.model.n:], Z, dq, c, t)

    def _broadcast(self, agents, t: float, f, kind: str):
        """Reset each agent's estimate to its live value at t, logging f[i],
        then form the edge work of the new stack."""
        live = self._views(self.y)[0][:, -self.model.n:]
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
        self.dq, self._f_now = self.kernel.edge_terms(self.Z), None

    def _sweep(self, t: float, f: np.ndarray) -> bool:
        """Trigger every agent whose f >= 0, ascending index, resets
        immediately visible, at most one broadcast per agent; whether any
        fired. ``f`` holds the trigger values at t before any reset. The
        leader's f is -inf, so it never fires."""
        eligible = np.ones(self.n_agents, dtype=bool)
        while True:
            cands = np.flatnonzero(eligible & (f >= 0))
            if not cands.size:
                self._f_now = float(f.max())
                return not eligible.all()
            i = int(cands[0])
            self._broadcast((i,), t, f, "trigger")
            eligible[i] = False
            f = self._triggers(t, self.y, self.Z, self.dq)

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

    def _store(self, times, y, Z):
        """Record rows at ``times`` from flat states y (r, nv + M) and
        estimate stacks Z (r, N, n), copied into compact arrays."""
        n, v, c = self.model.n, *self._views(y)
        self._times.extend(times)
        self._states.append(v[..., :n].copy())
        if self.variant == "observer":
            self._chis.append(v[..., n:].copy())
        self._estimates.append(Z.copy())
        self._segments[-1].values.append(c.copy())

    def _store_row(self):
        """Record the current instant, after every reset at it."""
        self._store([self.t], self.y[None], self.Z[None])

    def _commit(self, t: float, y, Z, dq, f, k: int):
        """Make end k of a pass the current instant t; the pass's arrays
        live on until the next one, but no stored row points into them."""
        self.t, self.y, self.Z, self.dq = t, y[k], Z[k], (dq[0][k], dq[1][k])
        self._f_now = float(f[k].max())

    # -- event localization ------------------------------------------------

    def _localize(self, t0, y0, k, t1, g1) -> float:
        """Event time in (t0, t1] on the continuous extension of the step
        with stages ``k``. ``g1`` is the trigger maximum at the step's own
        RK4 end, or None when the pass took t1's state from the next step's
        start, which may differ from that end in the last bits."""
        h = t1 - t0
        if h <= self.cfg.event_tol:
            return t1
        z0, g0, stats = self.Z, self._f_now, self.stats
        stats.localizations += 1

        def g(tm: float) -> float:
            if tm == t0 and g0 is not None:  # the same bits: the extension starts at y0
                return g0
            stats.localization_evaluations += 1
            ym = _rk4_extension(y0, h, k, (tm - t0) / h)
            zm = z0 @ self.expm_T.at(tm - t0)
            return float(self._triggers(tm, ym, zm, self.kernel.edge_terms(zm)).max())

        if g1 is None:
            g1 = g(t1)
            if g1 < 0:  # only the next step's start crosses: the event is at t1
                return t1
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

    def _advance(self, i: int) -> int:
        """One pass from now over the checkpoints from i on: commit every
        step before the first whose end has max f >= 0, and localize and
        process that crossing. Returns the next checkpoint to reach."""
        cap = max(1, _BLOCK_ELEMENTS // max(1, self.kernel.ei.size * self._vshape[1]))
        size = min(self._size, cap)
        j = min(i + size, self._ends[bisect.bisect_right(self._ends, i)])
        B, times = j - i, [self.t] + self._grid_t[i:j]
        y, Z, dq, f, stages = self._steps(times, self._grid_cell[i:j])
        fmax = f.max(axis=1).tolist()
        finite = np.isfinite(y).all(axis=1).tolist()
        hit = next((k for k in range(B) if fmax[k] >= 0 or not finite[k]), B)
        if hit < B and not finite[hit]:
            raise NonFiniteStateError(f"non-finite state after step at t={times[hit]:.6f}")
        m = min(hit, B - 1)  # the ends before the crossing, or before the last
        if m:
            self._store(times[1:m + 1], y[:m], Z[:m])
        if hit:
            self._commit(times[hit], y, Z, dq, f, hit - 1)
        if hit == B:
            self._size, self._free = 2 * size, self._free + B
            self._reach(j - 1)
            return j

        self._size, self._free = max(1, self._free + hit), 0
        t0, t1 = times[hit], times[hit + 1]
        k = [s[hit] for s in stages]
        t_star = self._localize(t0, self.y, k, t1, fmax[hit] if hit == B - 1 else None)
        end = hit
        if t_star < t1:  # the first stage does not depend on the step's width
            y, Z, dq, f, _ = self._steps([t0, t_star], [self._grid_cell[i + hit]], k[0])
            end = 0
        self._commit(t_star, y, Z, dq, f, end)
        # if the re-integrated state is still below zero at t_star, no
        # agent fires: the next pass localizes again from t_star, where
        # the extension returns this very state, so the bracket holds
        fired = self._sweep(t_star, f[end])
        if t1 - t_star > _SLACK * max(1.0, t1):
            if fired:
                self._store_row()
            return i + hit
        self._reach(i + hit)
        return i + hit + 1

    def _reach(self, i: int):
        """At checkpoint i: apply its switch, force the dense round, store the row."""
        if self._grid_switch[i] is not None:
            self._apply_switch(self._grid_t[i], self._grid_switch[i])
        if self.broadcast_every_step:
            self._force_broadcast(self._grid_t[i], kind="forced")
        self._store_row()

    def _apply_switch(self, t: float, new_graph: Graph):
        c = self._views(self.y)[1]
        self._segments[-1].values.append(c[None].copy())  # the old graph's row at t
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
        i = 0
        while i < len(self._grid_t):
            i = self._advance(i)
        return self._finalize()

    def _finalize(self) -> Trajectory:
        for seg in self._segments:
            seg.values = np.concatenate(seg.values)
        return Trajectory(
            times=np.array(self._times),
            states=np.concatenate(self._states),
            estimates=np.concatenate(self._estimates),
            observer_states=np.concatenate(self._chis) if self.variant == "observer" else None,
            weight_segments=self._segments,
            events=self.events,
            variant=self.variant,
            model=self.model,
            gains=self.gains,
            params=self.params,
            graph=self._segments[0].graph,
            sim=self.cfg,
            stats=self.stats,
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
        try:
            params.edge_arrays(g)
        except ConfigError as exc:
            raise ConfigError(f"{exc.reason} (in {where})", exc.key) from None

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
