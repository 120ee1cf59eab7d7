"""Hybrid simulation loop: closed-form flow, event detection, trigger resets.

Row i of the agent stack v holds agent i's state x, then its observer
state chi on observer runs; c holds the edge weights in ``graph.edges``
order. Broadcast estimates are never integrated: they are closed-form
propagations e^{As} z of the latest samples, the rows of the estimate
stack Z, so an agent's own estimate cannot drift numerically.

Between broadcasts the cascade Z -> c -> v is the linear flow of a lift
(``linalg.cascade_lift``), which ``_tables`` reads off one matrix
exponential per leakage rate; its rows at the offsets k dt are built once
per run. A pass evaluates the flow at a run of grid instants by those rows,
or at one instant by its own exponential when now is off the grid. It
spans at most ``_BLOCK_ELEMENTS`` values per stack and ends at a switch
instant (at every grid instant in dense mode). Its instants are committed
up to the first with a trigger value >= 0. That crossing is bisected on
the closed form, the state there is committed as evaluated, and every
agent whose trigger function is nonnegative there broadcasts (ascending
index, each reset immediately visible, one broadcast per agent per
instant). If none is, the crossing is localized again from that instant.
Each instant's row is stored once, after its last reset.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DisconnectedGraphError,
    NonFiniteStateError,
    NoSpanningTreeError,
    ZenoGuardError,
    _check_integer,
    _check_list,
    _check_number,
    _check_pair,
)
from .graph import Graph, is_connected
from .linalg import GainSet, SystemModel, _Expm, cascade_lift, symmetric_powers
from .protocols import ProtocolKernel, ProtocolParams

VARIANTS = ("state", "observer", "leader_follower")
_SLACK = 1e-12  # relative: checkpoint times closer than this are one instant
_BLOCK_ELEMENTS = 2048  # a pass of several steps holds at most B M d edge values
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
            raise ConfigError(f"expected one of {DISTURBANCE_KINDS}, got {self.kind!r}",
                              "sim.disturbance.kind")
        for name in ("amplitude", "frequency"):
            key = f"sim.disturbance.{name}"
            object.__setattr__(self, name, _check_number(getattr(self, name), key))
        if self.amplitude < 0:
            raise ConfigError(f"must be >= 0, got {self.amplitude}", "sim.disturbance.amplitude")
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
        for name in ("t_end", "dt", "event_tol", "dwell_min"):
            v = _check_number(getattr(self, name), f"sim.{name}")
            if not v > 0:
                raise ConfigError(f"must be positive, got {v}", f"sim.{name}")
            object.__setattr__(self, name, v)
        if self.event_tol > self.dt:
            raise ConfigError(f"must lie in (0, dt]; got {self.event_tol} with dt={self.dt}",
                              "sim.event_tol")
        if self.seed is not None:
            _check_integer(self.seed, 0, "sim.seed")
        _check_integer(self.max_events_per_unit_time, 1, "sim.max_events_per_unit_time")
        sched, prev = [], 0.0
        for k, entry in enumerate(_check_list(self.topology_schedule, "sim.topology_schedule")):
            t, g = _check_pair(entry, f"sim.topology_schedule[{k}]")
            t = _check_number(t, f"sim.topology_schedule[{k}].t")
            if not isinstance(g, Graph):
                raise ConfigError("expected a (time, Graph) pair", f"sim.topology_schedule[{k}]")
            if t - prev < self.dwell_min:
                raise ConfigError(f"switch at t={t} comes within dwell_min={self.dwell_min} "
                                  f"of t={prev}", f"sim.topology_schedule[{k}].t")
            sched.append((t, g))
            prev = t
        object.__setattr__(self, "topology_schedule", tuple(sched))


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
    """Work counters of one run; README's Outputs section defines them."""

    steps: int = 0
    passes: int = 0
    localizations: int = 0
    localization_evaluations: int = 0
    relocalizations: int = 0
    cascade_broadcasts: int = 0


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


class _Simulation:
    """Single-run engine state; see ``simulate`` for the public contract."""

    def __init__(self, model, graph, gains, params, sim, x0, variant,
                 chi0=None, broadcast_every_step=False):
        self.model, self.gains, self.params, self.cfg = model, gains, params, sim
        self.variant, self.broadcast_every_step = variant, broadcast_every_step
        self.n_agents, self.leader = graph.n_nodes, graph.leader
        self.kernel = ProtocolKernel(graph, params, gains.K, gains.Gamma)

        # the agent stack v: x, and chi beside it on observer runs
        n, A = model.n, model.A
        v, L, Bv = np.asarray(x0, dtype=float), A, model.B
        if variant == "observer":
            FC = gains.F @ model.C
            chi = np.zeros(v.shape) if chi0 is None else np.asarray(chi0, dtype=float)
            v, L = np.hstack([v, chi]), np.block([[A, np.zeros_like(A)], [-FC, A + FC]])
            Bv = np.vstack([Bv, Bv])
        self.v, self.c = v, self.kernel.c0
        # the estimate stack and its edge work, always updated together
        self.Z = v[:, -n:].copy()
        self.dq = self.kernel.edge_terms(self.Z)

        self.t = 0.0
        self.events: list[EventRecord] = []
        self.stats = RunStats()
        self._f_now = None  # the trigger maximum at the current state, when known
        self._lift_now = self.P = None  # the lift of the current state and its p, when formed
        self._zeno_windows = [deque() for _ in range(self.n_agents)]

        # the stored rows: times, then blocks of x, Z and chi
        self._times, self._states, self._estimates, self._chis = [], [], [], []
        self._segments = [WeightSegment(graph, 0.0, 0, [])]

        self._grid_t, self._grid_cell, self._grid_switch = self._checkpoints()
        # a pass ends after a switch checkpoint (after every one in dense
        # mode) and before a checkpoint that is not one dt after the last
        t = np.array(self._grid_t)
        off = np.abs(np.diff(t) - sim.dt) > 4 * np.spacing(t[1:])
        self._ends = sorted({k + 1 for k, g in enumerate(self._grid_switch)
                             if broadcast_every_step or g is not None}
                            | set((np.flatnonzero(off) + 1).tolist()) | {t.size})
        Ed, W = self._setup_disturbance(v.shape[1])

        # one lift per distinct leakage rate lambda = kappa varrho of any graph
        graphs = [graph] + [g for (_, g) in sim.topology_schedule]
        lams = {float(lam) for g in graphs for lam in np.multiply(*params.edge_arrays(g)[:2])}
        self._lams = np.array(sorted(lams) or [0.0])
        self._lifts = [_Expm(cascade_lift(L, Bv @ gains.K, A, gains.Gamma, lam, Ed, W).T)
                       for lam in self._lams]
        self._mono2, self._mono3 = (symmetric_powers(A, k)[0] for k in (2, 3))
        self._agent_size = v.shape[1] + n + len(self._mono3) + W.shape[0]
        self._group()
        # the readout at every offset k dt that a pass of any graph can reach
        widths = sim.dt * np.arange(max(self._cap(len(g.edges)) for g in graphs) + 1)
        self._table = [x.copy() for x in self._tables(widths)]  # slices would pin every F

    def _cap(self, m: int) -> int:
        """Most steps in a pass over m edges."""
        return max(1, _BLOCK_ELEMENTS // max(1, m * self.v.shape[1]))

    def _on_grid(self, t0: float, t1: float) -> bool:
        """Whether t1 lies one base step after t0, up to the rounding of
        the grid times."""
        return abs(t1 - t0 - self.cfg.dt) <= 4 * math.ulp(t1)

    # -- disturbance ---------------------------------------------------

    def _setup_disturbance(self, nv: int):
        """The disturbance states r: their input matrix into v, their
        generator, and ``_dist(t, cell)``, their values (N, r) on a step
        from t in grid cell ``cell``."""
        d, n, N = self.cfg.disturbance, self.model.n, self.n_agents
        self._dist_kind = None if d is None or d.amplitude == 0.0 else d.kind
        mask = self._mask = np.ones((N, 1))
        if self.leader is not None:
            mask[self.leader] = 0.0  # the leader flows unperturbed
        if self._dist_kind is None:
            self._dist = lambda t, cell: np.zeros((N, 0))
            return np.zeros((nv, 0)), np.zeros((0, 0))
        if d.kind == "sinusoid":  # r = amplitude (sin, cos)(omega t + phase)
            phases, w = 2 * np.pi * np.arange(N) / N, 2 * np.pi * d.frequency
            self._dist = lambda t, cell: d.amplitude * np.stack(
                [np.sin(w * t + phases), np.cos(w * t + phases)], axis=1) * mask
            return np.outer(np.arange(nv) < n, [1.0, 0.0]), np.array([[0.0, w], [-w, 0.0]])
        if d.kind == "constant":
            const = d.amplitude * np.ones((N, n)) * mask
            self._dist = lambda t, cell: const
        else:  # uniform-random, piecewise constant per base step
            seed = d.seed if d.seed is not None else (self.cfg.seed or 0) + 1
            self._rng, self._held, self._w_next = np.random.default_rng(seed), {}, 0
            self._dist = lambda t, cell: self._draws([cell])[0]
        return np.eye(nv, n), np.zeros((n, n))

    def _draws(self, cells) -> np.ndarray:
        """The uniform-random values (len(cells), N, n) of grid cells ``cells``."""
        # cells are entered in order, so drawing each one's (N, n) values on
        # first use reads the generator's stream as one (cells, N, n) draw
        # would; a cell is held until a pass starts past it
        shape, amp = (self.n_agents, self.model.n), self.cfg.disturbance.amplitude
        for cell in range(self._w_next, cells[-1] + 1):
            self._held[cell] = self._rng.uniform(-amp, amp, shape) * self._mask
        self._w_next = max(self._w_next, cells[-1] + 1)
        for cell in [c for c in self._held if c < cells[0]]:
            del self._held[cell]
        return np.stack([self._held[c] for c in cells])

    # -- flow ----------------------------------------------------------

    def _group(self):
        """Each edge's leakage group under the current graph, and its
        membership mask per group (G, M)."""
        k = self.kernel
        self._g = np.searchsorted(self._lams, k.kappa * k.varrho)
        self._in_group = (self._g == np.arange(len(self._lams))[:, None]).astype(float)

    def _cubes(self):
        """p = sum ±kappa_e m3(d_e) of every agent per group (N, G, r3),
        from the edge work."""
        k, m3 = self.kernel, self.dq[0][:, self._mono3].prod(axis=-1)
        self.P = k.coupling(m3, self._in_group * k.kappa).transpose(1, 0, 2)

    def _tables(self, widths):
        """The closed-form readout at each width s: the rows that map an
        agent's lift to v(s) (s, D, nv), e^{-lambda s} and the weight
        integrals of m2(d) per group, (s, G) and (s, G, r2), (e^{As})^T,
        and the flow of the cubic moments p (s, r3, r3)."""
        nv, n, a = self.v.shape[1], self.model.n, self._agent_size
        m = nv + n + len(self._mono3)
        F = [np.stack([e.at(s) for s in widths]) for e in self._lifts]
        RV = np.concatenate([F[0][:, :nv, :nv]] + [f[:, nv:m, :nv] for f in F]
                            + [F[0][:, m:a, :nv]], axis=1)
        C = np.stack([f[:, a:-n, a] for f in F], axis=1)
        return RV, C[..., 0], C[..., 1:], F[0][:, -n:, -n:], F[0][:, nv + n:m, nv + n:m]

    def _lifted(self, cell: int):
        """The lift of now, rows [v, (w, p) per group, r] (N, D) with r the
        disturbance states of a step in grid cell ``cell``, and m2(d) per
        edge; formed on first use after each change of the state."""
        if self._lift_now is None:
            if self.P is None:  # a broadcast changed the edge work
                self._cubes()
            N, d = self.n_agents, self.dq[0]
            w = self.kernel.coupling(d, self._in_group * self.c).transpose(1, 0, 2)
            X = np.hstack([self.v, np.concatenate([w, self.P], axis=2).reshape(N, -1),
                           self._dist(self.t, cell)])
            self._lift_now = X, d[:, self._mono2].prod(axis=-1)
        return self._lift_now

    def _flow(self, tab, times, cells):
        """The closed-form flow from now to the instants ``times``, with the
        readout ``tab`` at their offsets (see ``_tables``); step k lies in
        grid cell cells[k]. Returns the stacks of v, Z, the edge work, c and
        the trigger values, and p now with its flow to each instant."""
        kern, n = self.kernel, self.model.n
        RV, decay, R, ET, PP = tab
        X, dd = self._lifted(cells[0])
        V = X @ RV
        if self._dist_kind == "uniform-random" and len(cells) > 1:
            # a new cell's draw is a step in the disturbance state
            steps = np.diff(self._draws(cells), axis=0)
            lag = np.maximum(np.arange(1, len(cells) + 1)[:, None] - np.arange(1, len(cells)), 0)
            V += np.einsum("jna,kjab->knb", steps, self._table[0][:, -n:][lag])
        Zs = self.Z @ ET
        dq = kern.edge_terms(Zs)
        g = self._g  # each edge reads its group's weight integral
        c = decay[:, g] * self.c + kern.kappa * (R @ dd.T)[:, g, np.arange(g.size)]
        f = kern.trigger_values(V[..., -n:], Zs, dq, c, times)
        return V, Zs, dq, c, f, (self.P, PP)

    # -- triggers --------------------------------------------------------

    def _triggers(self, t: float) -> np.ndarray:
        """Trigger values at t of the current state."""
        return self.kernel.trigger_values(self.v[:, -self.model.n:], self.Z, self.dq, self.c, t)

    def _broadcast(self, agents, t: float, f, kind: str):
        """Reset each agent's estimate to its live value at t, logging f[i],
        then form the edge work of the new stack."""
        live = self.v[:, -self.model.n:]
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
        self.dq, self._f_now, self._lift_now = self.kernel.edge_terms(self.Z), None, None
        self.P = None  # p, formed anew when the flow next needs it

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
            if not eligible.all():
                self.stats.cascade_broadcasts += 1
            i = int(cands[0])
            self._broadcast((i,), t, f, "trigger")
            eligible[i] = False
            f = self._triggers(t)

    def _force_broadcast(self, t: float, kind: str):
        # f values are a pre-reset snapshot; forced broadcasts are not
        # crossings, the value is informational only
        f = self._triggers(t)
        # one broadcast per agent per instant: skip agents already sent at t
        done = {self.leader}
        for e in reversed(self.events):
            if e.time != t:
                break
            done.add(e.agent)
        self._broadcast([i for i in range(self.n_agents) if i not in done], t, f, kind)

    # -- storage ---------------------------------------------------------

    def _store(self, times, v, Z, c):
        """Record rows at ``times`` from agent stacks v (r, N, nv),
        estimate stacks Z (r, N, n) and weights c (r, M), copied into
        compact arrays."""
        n = self.model.n
        self._times.extend(times)
        self._states.append(v[..., :n].copy())
        if self.variant == "observer":
            self._chis.append(v[..., n:].copy())
        self._estimates.append(Z.copy())
        self._segments[-1].values.append(c.copy())

    def _store_row(self):
        """Record the current instant, after every reset at it."""
        self._store([self.t], self.v[None], self.Z[None], self.c[None])

    def _commit(self, t: float, flow, k: int):
        """Make instant k of a ``_flow`` result the current instant t; the
        result's arrays live on until the next one, but no stored row
        points into them."""
        V, Zs, dq, c, f, (P, PP) = flow
        self.t, self.v, self.Z, self.dq, self.c = t, V[k], Zs[k], (dq[0][k], dq[1][k]), c[k]
        self.P = (P.reshape(-1, PP.shape[-1]) @ PP[k]).reshape(P.shape)
        self._f_now, self._lift_now = float(f[k].max()), None

    # -- event localization ------------------------------------------------

    def _localize(self, t1: float, cell: int, end):
        """Event time in (now, t1] on the closed-form flow from now through
        grid cell ``cell``, and the flow there as (result, index). ``end``
        is the pass's flow at t1, whose trigger maximum is >= 0."""
        t0, stats = self.t, self.stats
        if t1 - t0 <= self.cfg.event_tol:
            return t1, end
        stats.localizations += 1
        seen = {t1: end}

        def g(tm: float) -> float:
            if tm not in seen:
                if tm == t0 and self._f_now is not None:
                    return self._f_now
                stats.localization_evaluations += 1
                seen[tm] = self._flow(self._tables([tm - t0]), [tm], [cell]), 0
            flow, k = seen[tm]
            return float(flow[4][k].max())

        t_star = locate_event(g, t0, t1, self.cfg.event_tol, f_hi=g(t1))
        g(t_star)
        return t_star, seen[t_star]

    # -- main loop ---------------------------------------------------------

    def _checkpoints(self):
        """The times, cells and switch graphs (or None) of the checkpoints:
        the base grid k dt, ending exactly at t_end, merged with the switch
        instants. A cell is the base-grid cell that the steps ending at the
        checkpoint lie in."""
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
        return merged, np.searchsorted(pts, merged).tolist(), [switches.get(t) for t in merged]

    def _pass(self, i: int, j: int):
        """The ``_flow`` from now to checkpoints i..j-1 by rows of the run's
        table when now lies one base step before checkpoint i, else to
        checkpoint i alone by one exponential."""
        times, cells = self._grid_t[i:j], self._grid_cell[i:j]
        if self._on_grid(self.t, times[0]):
            return self._flow([x[1:j - i + 1] for x in self._table], times, cells)
        return self._flow(self._tables([times[0] - self.t]), times[:1], cells[:1])

    def _advance(self, i: int) -> int:
        """One pass from now over the checkpoints from i on: commit every
        instant before the first with max f >= 0, and localize and process
        that crossing. Returns the next checkpoint to reach."""
        j = min(i + self._cap(self.kernel.ei.size), self._ends[bisect.bisect_right(self._ends, i)])
        flow = V, Zs, _, c, f, _ = self._pass(i, j)
        B = len(V)
        j, times, cells = i + B, self._grid_t[i:i + B], self._grid_cell[i:i + B]
        self.stats.steps += B
        self.stats.passes += 1
        fmax = f.max(axis=1).tolist()
        finite = (np.isfinite(V).all(axis=(1, 2)) & np.isfinite(c).all(axis=1)).tolist()
        hit = next((k for k in range(B) if fmax[k] >= 0 or not finite[k]), B)
        if hit < B and not finite[hit]:
            start = ([self.t] + times)[hit]
            raise NonFiniteStateError(f"non-finite state after step at t={start:.6f}")
        m = min(hit, B - 1)  # the instants before the crossing, or before the last
        if m:
            self._store(times[:m], V[:m], Zs[:m], c[:m])
        if hit:
            self._commit(times[hit - 1], flow, hit - 1)
        if hit == B:
            self._reach(j - 1)
            return j

        t1 = times[hit]
        t_star, (flow, k) = self._localize(t1, cells[hit], (flow, hit))
        self._commit(t_star, flow, k)
        # if the state is still below zero at t_star, no agent fires: the
        # next pass localizes again from t_star, where the closed form
        # returns this very state, so the bracket holds
        fired = self._sweep(t_star, flow[4][k])
        self.stats.relocalizations += not fired
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
        c = self.c
        self._segments[-1].values.append(c[None].copy())  # the old graph's row at t
        old = dict(zip(self.kernel.graph.edges, c))
        kernel = ProtocolKernel(new_graph, self.params, self.gains.K, self.gains.Gamma)
        self.c = np.array([old.get(e, c0) for e, c0 in zip(new_graph.edges, kernel.c0)])
        self.kernel = kernel
        self.dq = kernel.edge_terms(self.Z)  # re-indexed by the new edge list
        self._group()  # the broadcast round forms p anew
        # the new segment opens with the next row stored, the one at t
        self._segments.append(WeightSegment(new_graph, t, len(self._times), []))
        self._force_broadcast(t, kind="switch")

    def run(self) -> Trajectory:
        f0 = self._triggers(0.0)
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
