"""Hybrid simulation loop: closed-form flow, event detection, trigger resets.

Row i of the agent stack v holds agent i's state x, then its observer
state chi on observer runs; c holds the edge weights in ``graph.edges``
order. Broadcast estimates are never integrated: they are closed-form
propagations e^{As} z of the latest samples, the rows of the estimate
stack Z, so an agent's own estimate cannot drift numerically.

Between broadcasts the cascade Z -> c -> v flows in closed form
(``flow.CascadeFlow``). The engine's state is agent i's lift row
[v, (w, p) per group, r] in row i of X: each reset forms the (w, p)
columns from the edge work, and between resets they flow with v and r. A
pass evaluates the flow at a run of grid instants by the rows of the
run's table, or at one instant by the flow's tables at that width when
now is off the grid; it spans at most ``_BLOCK_ELEMENTS`` values per
stack and ends at a switch instant, and at every grid instant in dense
mode or under a uniform-random disturbance (whose pass writes its cell's
draw in r). Its instants are committed up to the first with a trigger
value >= 0. That crossing is bisected on the closed form of the
candidates alone, the agents whose trigger value is >= 0 there, on their
star (their rows, their neighbours' estimates and their incident edges),
read off one polynomial in the width per localization. At the localized
instant the whole flow is evaluated and committed, and every agent whose
trigger function is nonnegative there broadcasts (ascending index, each
reset immediately visible, one broadcast per agent per instant). If none
is, the crossing is localized again from that instant. Each instant's
row is stored once, after its last reset.
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
from .flow import CascadeFlow
from .linalg import GainSet, SystemModel
from .protocols import ProtocolKernel, ProtocolParams

VARIANTS = ("state", "observer", "leader_follower")
_SLACK = 1e-12  # relative: checkpoint times closer than this are one instant
_BLOCK_ELEMENTS = 2048  # a pass of several steps holds at most B M d edge values
_LARGE_STORE = 1 << 22  # bytes: stores grow in place from here, where numpy advises huge pages
DISTURBANCE_KINDS = ("constant", "sinusoid", "uniform-random")


@dataclass(frozen=True)
class DisturbanceSpec:
    """Bounded per-agent disturbance entering the state equation.

    ``constant`` applies amplitude * ones and ``sinusoid`` dephases agents
    by 2 pi i / N, both as lift states; ``uniform-random`` is constant per
    base step, seeded and deterministic, drawn as the run enters the step,
    which a pass spans.
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
    While the engine runs, ``values`` is the segment's row store, whose
    filled rows it becomes when the run ends.
    """

    graph: Graph
    t_start: float
    first_index: int
    values: np.ndarray


class _Rows:
    """Rows of one stored array, written in place: the store starts at
    ``first`` rows, and ``view()`` trims it to its filled rows, returns it
    and ends the store: no view of a store exists before ``view()``.

    A full store under ``_LARGE_STORE`` bytes doubles into a new block:
    malloc may keep a block that small in its heap, where a realloc copies
    too and each freed block stays resident, so growing such stores by
    quarters set simulate's peak RSS on leaderless_sec5 at 1.82× the
    stored bytes against 1.61× when doubling. A larger store grows in place
    by a quarter of its rows with ``ndarray.resize``, whose realloc remaps
    a block that large page by page: no filled row is copied and only the
    new rows are touched. On complete70 at t_end 1, whose weight store
    starts at 4.9 MB, the peak then grows by 1.13× the trajectory's bytes
    against 1.55× when every store doubled into a copy. Resize skips its
    reference check, which the references of a profiler or tracer fail."""

    def __init__(self, shape, first=256):
        self.a, self.n = np.empty((first,) + shape), 0

    def add(self, rows):
        k = self.n + len(rows)
        if k > len(self.a) and self.a.nbytes < _LARGE_STORE:
            a = np.empty((max(k, 2 * len(self.a)),) + self.a.shape[1:])
            a[:self.n], self.a = self.a[:self.n], a
        elif k > len(self.a):
            self.a.resize((max(k, len(self.a) * 5 // 4),) + self.a.shape[1:], refcheck=False)
        self.a[self.n:k], self.n = rows, k

    def view(self) -> np.ndarray:
        a, self.a = self.a, None
        a.resize((self.n,) + a.shape[1:], refcheck=False)
        return a


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
        return max(float(seg.values.max(initial=-np.inf)) for seg in self.weight_segments)

    @property
    def final_states(self) -> np.ndarray:
        return self.states[-1]


def locate_event(f, t_lo: float, t_hi: float, event_tol: float,
                 f_lo: float | None = None, f_hi: float | None = None) -> float:
    """Bisect the first sign change of ``f`` on [t_lo, t_hi].

    Requires f(t_lo) < 0 <= f(t_hi); returns the upper end of a bracket of
    width <= event_tol, or of two adjacent floats when event_tol is finer
    than their spacing, so f at the returned time is >= 0. ``f`` is never
    called at an end whose value the caller gives as ``f_lo`` or ``f_hi``.

    The midpoints are bisection's, but a midpoint's sign is read off a
    second bracket f(a) < 0 <= f(b) when the midpoint lies outside (a, b).
    Illinois steps (Dowell & Jarratt, BIT 11, 1971) shrink [a, b]; after
    three of them in a row that fail to halve it, f(mid) itself is taken.
    With one sign change in [t_lo, t_hi] the answer is bisection's.
    """
    f_lo = f(t_lo) if f_lo is None else f_lo
    f_hi = f(t_hi) if f_hi is None else f_hi
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
        n, A, N = model.n, model.A, graph.n_nodes
        v, L, Bv = np.asarray(x0, dtype=float), A, model.B
        if variant == "observer":
            FC = gains.F @ model.C
            chi = np.zeros(v.shape) if chi0 is None else np.asarray(chi0, dtype=float)
            v, L = np.hstack([v, chi]), np.block([[A, np.zeros_like(A)], [-FC, A + FC]])
            Bv = np.vstack([Bv, Bv])
        self.c, self._nv = self.kernel.c0, v.shape[1]
        # the estimate stack and its edge work, always updated together
        self.Z = v[:, -n:].copy()
        self.dq = self.kernel.edge_terms(self.Z)

        self.t = 0.0
        self.events: list[EventRecord] = []
        self.stats = RunStats()
        self._f_now = None  # the trigger maximum at the current state, when known
        self._zeno_windows = [deque() for _ in range(self.n_agents)]

        # the stored rows, one store per array: times, x, Z and chi
        self._times, self._states, self._estimates = _Rows(()), _Rows((N, n)), _Rows((N, n))
        self._chis = _Rows((N, self._nv - n)) if variant == "observer" else None
        self._segments = [WeightSegment(graph, 0.0, 0, _Rows(self.c.shape))]

        self._grid_t, self._grid_cell, self._grid_switch = self._checkpoints()
        Ed, W, r0 = self._setup_disturbance(self._nv)
        # a pass ends after a switch checkpoint (after every one in dense mode
        # and under a uniform-random disturbance, so that a pass holds one
        # cell's draw) and before a checkpoint that is not one dt after the last
        every = broadcast_every_step or self._draw is not None
        t = np.array(self._grid_t)
        off = np.abs(np.diff(t) - sim.dt) > 4 * np.spacing(t[1:])
        ends = np.logical_or(off, [every or g is not None for g in self._grid_switch[:-1]])
        self._ends = (np.flatnonzero(ends) + 1).tolist() + [t.size]

        # one lift with a group per leakage rate lambda = kappa varrho of any
        # graph the run switches to, read at every offset k dt a pass can reach
        graphs = [graph] + [g for g in self._grid_switch if g is not None]
        lams = {float(lam) for g in graphs for lam in np.multiply(*params.edge_arrays(g)[:2])}
        steps = min(max(self._cap(len(g.edges)) for g in graphs), max(np.diff([0] + self._ends)))
        self.flow = CascadeFlow(L, Bv @ gains.K, A, gains.Gamma, Ed, W, lams, sim.dt, steps)
        self.flow.use(self.kernel)
        # the state: each agent's lift row [v, (w, p) per group, r], whose
        # (w, p) columns each reset forms
        self.X = np.hstack([v, np.zeros((self.n_agents, self.flow.r.start - self._nv)), r0])

    def _cap(self, m: int) -> int:
        """Most steps in a pass over m edges."""
        return max(1, _BLOCK_ELEMENTS // max(1, m * self._nv))

    # -- disturbance ---------------------------------------------------

    def _setup_disturbance(self, nv: int):
        """The disturbance states r: their input matrix into v, their
        generator W and their values (N, r) at t = 0; a uniform-random one
        sets ``_draw(cell)``, their values on grid cell ``cell``."""
        d, n, N = self.cfg.disturbance, self.model.n, self.n_agents
        self._draw = None
        mask = np.ones((N, 1))
        if self.leader is not None:
            mask[self.leader] = 0.0  # the leader flows unperturbed
        if d is None or d.amplitude == 0.0:
            return np.zeros((nv, 0)), np.zeros((0, 0)), np.zeros((N, 0))
        if d.kind == "sinusoid":  # r = amplitude (sin, cos)(omega t + phase)
            phases, w = 2 * np.pi * np.arange(N) / N, 2 * np.pi * d.frequency
            r0 = d.amplitude * np.stack([np.sin(phases), np.cos(phases)], axis=1) * mask
            return np.outer(np.arange(nv) < n, [1.0, 0.0]), np.array([[0.0, w], [-w, 0.0]]), r0
        if d.kind == "uniform-random":  # constant per base step: each pass writes r
            seed = d.seed if d.seed is not None else (self.cfg.seed or 0) + 1
            rng, last = np.random.default_rng(seed), [-1, None]  # the last cell entered, its draw

            def draw(cell):  # cells are entered in order: rows of one (cells, N, n) draw
                while last[0] < cell:
                    last[:] = last[0] + 1, rng.uniform(-d.amplitude, d.amplitude, (N, n)) * mask
                return last[1]
            self._draw = draw
        return np.eye(nv, n), np.zeros((n, n)), d.amplitude * np.ones((N, n)) * mask

    # -- flow ----------------------------------------------------------

    def _flow(self, tab, times):
        """``CascadeFlow`` from now to the instants ``times``: the stacks of
        lift rows, Z, the edge work, c and the trigger values there."""
        V, Zs, c = self.flow(self.X, self.Z, self.dq[0], self.c, tab)
        dq = self.kernel.edge_terms(Zs)
        f = self.kernel.trigger_values(V[..., self.flow.live], Zs, dq, c, times)
        return V, Zs, dq, c, f

    # -- triggers --------------------------------------------------------

    def _triggers(self, t: float) -> np.ndarray:
        """Trigger values at t of the current state."""
        return self.kernel.trigger_values(self.X[:, self.flow.live], self.Z, self.dq, self.c, t)

    def _broadcast(self, agents, t: float, f, kind: str):
        """Reset each agent's estimate to its live value at t, logging f[i];
        then form the edge work of the estimate stack, and from it the
        (w, p) columns of the lift rows (with no agents, those of now)."""
        live = self.X[:, self.flow.live]
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
        self.X[:, self.flow.wp] = self.flow.moments(self.dq, self.c)

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
        f = self._triggers(t)  # a pre-reset snapshot, informational only
        # one broadcast per agent per instant: skip agents already sent at t
        done = {self.leader}
        for e in reversed(self.events):
            if e.time != t:
                break
            done.add(e.agent)
        self._broadcast([i for i in range(self.n_agents) if i not in done], t, f, kind)

    # -- storage ---------------------------------------------------------

    def _store(self, times, V, Z, c):
        """Record rows at ``times`` from lift rows V (r, N, D), estimate
        stacks Z (r, N, n) and weights c (r, M), written into their stores."""
        n = self.model.n
        self._times.add(times)
        self._states.add(V[..., :n])
        if self._chis is not None:
            self._chis.add(V[..., n:self._nv])
        self._estimates.add(Z)
        self._segments[-1].values.add(c)

    def _store_row(self):
        """Record the current instant, after every reset at it."""
        self._store([self.t], self.X[None], self.Z[None], self.c[None])

    def _commit(self, t: float, flow, k: int):
        """Make instant k of a ``_flow`` result the current instant t. The state
        is then a view of the result that resets and passes write into: nothing
        reads the result afterwards, and no stored row points into it."""
        V, Zs, dq, c, f = flow
        self.t, self.X, self.Z, self.dq, self.c = t, V[k], Zs[k], (dq[0][k], dq[1][k]), c[k]
        self._f_now = float(f[k].max())

    # -- event localization ------------------------------------------------

    def _localize(self, t1: float, f1: np.ndarray) -> float:
        """Event time in (now, t1] on the closed-form flow from now; an
        answer within ``_SLACK`` of t1 is t1. ``f1`` holds the pass's trigger
        values at t1, whose maximum is >= 0. Bisection evaluates the
        candidates alone, the agents with f(t1) >= 0, on their star."""
        t0, stats = self.t, self.stats
        if t1 - t0 <= self.cfg.event_tol:
            return t1
        stats.localizations += 1
        cands = np.flatnonzero(f1 >= 0)
        f_star = self.flow.star_triggers(self.X, self.Z, self.dq[0], self.c,
                                         self.kernel.star(cands))

        def g(tm: float) -> float:
            stats.localization_evaluations += 1
            return float(f_star(tm - t0, tm)[:cands.size].max())

        t_star = locate_event(g, t0, t1, self.cfg.event_tol, self._f_now, float(f1.max()))
        return t1 if t1 - t_star <= _SLACK * max(1.0, t1) else t_star

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
        checkpoint i alone by ``CascadeFlow.tables`` at its width; a
        uniform-random pass first writes cell i's draw into the r columns."""
        times = self._grid_t[i:j]
        if self._draw is not None:
            self.X[:, self.flow.r] = self._draw(self._grid_cell[i])
        if abs(times[0] - self.t - self.cfg.dt) <= 4 * math.ulp(times[0]):  # up to rounding
            return self._flow([x[1:j - i + 1] for x in self.flow.grid], times)
        return self._flow(self.flow.tables([times[0] - self.t]), times[:1])

    def _advance(self, i: int) -> int:
        """One pass from now over the checkpoints from i on: commit every
        instant before the first with max f >= 0, and localize and process
        that crossing. Returns the next checkpoint to reach."""
        j = min(i + self._cap(self.kernel.ei.size), self._ends[bisect.bisect_right(self._ends, i)])
        flow = V, Zs, _, c, f = self._pass(i, j)
        B = len(V)
        j, times = i + B, self._grid_t[i:i + B]
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

        t1, k = times[hit], hit
        t_star = self._localize(t1, f[hit])
        if t_star < t1:  # the whole flow at t*
            self.stats.localization_evaluations += 1
            flow, k = self._flow(self.flow.tables([t_star - self.t]), [t_star]), 0
        self._commit(t_star, flow, k)
        # if the state is still below zero at t_star, no agent fires: the
        # next pass localizes again from t_star, where the closed form
        # returns this very state, so the bracket holds
        fired = self._sweep(t_star, flow[4][k])
        self.stats.relocalizations += not fired
        if t_star < t1:
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
        self._segments[-1].values.add(c[None])  # the old graph's row at t
        old = dict(zip(self.kernel.graph.edges, c))
        kernel = ProtocolKernel(new_graph, self.params, self.gains.K, self.gains.Gamma)
        self.c = np.array([old.get(e, c0) for e, c0 in zip(new_graph.edges, kernel.c0)])
        self.kernel = kernel
        self.dq = kernel.edge_terms(self.Z)  # re-indexed by the new edge list
        self.flow.use(kernel)  # the broadcast round forms the (w, p) columns anew
        # the new segment opens with the next row stored, the one at t
        self._segments.append(WeightSegment(new_graph, t, self._times.n, _Rows(self.c.shape)))
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
            seg.values = seg.values.view()
        return Trajectory(
            times=self._times.view(),
            states=self._states.view(),
            estimates=self._estimates.view(),
            observer_states=None if self._chis is None else self._chis.view(),
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


def initial_states(shape: tuple, variant: str, x0, chi0=None, keys=(None, None)):
    """x0 and chi0 (or None) as float arrays, each of ``shape`` with finite
    entries; chi0 only on observer runs. ``keys`` name them in a config."""
    if chi0 is not None and variant != "observer":
        raise ConfigError("chi0 only applies to the observer variant", keys[1])
    out = [None if v is None else np.asarray(v, dtype=float) for v in (x0, chi0)]
    for name, v, key in zip(("x0", "chi0"), out, keys):
        if v is not None and v.shape != shape:
            raise ConfigError(f"{name} has shape {v.shape}, expected {shape}", key)
        if v is not None and not np.isfinite(v).all():
            raise ConfigError(f"{name} has non-finite entries", key)
    return out


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

    x0, chi0 = initial_states((graph.n_nodes, model.n), variant, x0, chi0)
    if gains.K.shape != (model.p, model.n):
        raise ConfigError(f"K has shape {gains.K.shape}, expected ({model.p}, {model.n})")
    if gains.Gamma.shape != (model.n, model.n):
        raise ConfigError(f"Gamma has shape {gains.Gamma.shape}")
    if variant == "observer":
        if gains.F is None:
            raise ConfigError("observer variant requires an observer gain F")
        if gains.F.shape != (model.n, model.q):
            raise ConfigError(f"F has shape {gains.F.shape}, expected ({model.n}, {model.q})")
    simulation = _Simulation(model, graph, gains, params, sim, x0, variant,
                             chi0=chi0, broadcast_every_step=broadcast_every_step)
    return simulation.run()
