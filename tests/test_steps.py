"""The engine's closed-form pass against an RK4 oracle.

``_Simulation._pass`` evaluates the flow between broadcasts in closed form
at a run of grid instants: rows of a table at the offsets k dt, or the
flow's tables at one width when the pass starts off the grid. ``oracles.rk4_flow``
integrates the same flow with classical RK4, 100 steps per grid cell,
one stage at a time on the whole augmented state. The engine's disturbance
states r flow with its lift rows, so a mid-run start sets them to the
sinusoid's value there; a uniform-random pass writes its cell's draw
itself. Drawn: connected graphs on 2..10 nodes (a leader for the
leader-follower variant), controllable (A, B) with n <= 4, every variant,
scalar and per-edge leakage varrho >= 0
(so that several leakage rates lambda = kappa varrho share a run), every
disturbance kind, 1..12 grid instants (one under a uniform-random
disturbance, whose passes the engine ends at every grid instant), a start
that may lie inside a grid cell, and a topology switch at the start.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etcons.engine import DisturbanceSpec, SimConfig, _Simulation
from etcons.graph import build_graph, generate_graph
from etcons.linalg import SystemModel, design_gains
from etcons.protocols import ProtocolParams
from oracles import rk4_flow
from test_engine_properties import connected_graphs

TOL = 1e-12


@st.composite
def models(draw, observer):
    """Controllable (A, B), n <= 4, p <= 2; observable (A, C) with q <= 2
    for observer runs."""
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        a, b = rng.normal(size=(n, n)), rng.normal(size=(n, p))
        c = rng.normal(size=(min(n, 2), n)) if observer else None
        ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n)])
        obsv = np.vstack([c @ np.linalg.matrix_power(a, k) for k in range(n)]) if observer else a
        if np.linalg.matrix_rank(ctrb) == n and np.linalg.matrix_rank(obsv) == n:
            return SystemModel(A=a, B=b, C=c)


def close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b).max(initial=0.0) <= TOL * max(np.abs(b).max(initial=0.0), 1e-300)


def set_state(engine, rng):
    """A mid-run state: estimates apart from the states, grown weights, and
    the lift rows re-formed from them."""
    engine.Z = rng.uniform(-1, 1, engine.Z.shape)
    engine.c = engine.c + rng.uniform(0, 1, engine.c.size)
    engine._broadcast((), engine.t, None, "trigger")  # a round of no broadcasts


@pytest.mark.parametrize("kind", [None, "constant", "sinusoid", "uniform-random"])
@pytest.mark.parametrize("variant", ["state", "observer", "leader_follower"])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data(), leak=st.sampled_from([0.0, 0.05, 2.0, "per-edge"]),
       steps=st.integers(1, 12), dt=st.sampled_from([1e-3, 1e-2]),
       offset=st.sampled_from([0.0, 0.0, 0.3, 0.75]), switch=st.booleans())
def test_pass_matches_the_rk4_oracle(variant, kind, data, leak, steps, dt, offset, switch):
    g = data.draw(connected_graphs())
    leader = 0 if variant == "leader_follower" else None
    g = build_graph(g.n_nodes, g.edges, leader=leader)
    star = generate_graph("star", g.n_nodes, leader=leader)
    model = data.draw(models(variant == "observer"))
    gains = design_gains(model, observer=variant == "observer")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if leak == "per-edge":  # distinct rates on the edges of both graphs
        leak = {e: float(r) for e, r in zip(sorted(set(g.edges) | set(star.edges)),
                                            rng.choice([0.0, 0.05, 0.7, 2.0], 64))}
    params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5, kappa=0.2, varrho=leak, c0=0.1)
    dist = None if kind is None else DisturbanceSpec(kind=kind, amplitude=0.1, seed=5)
    sim = SimConfig(t_end=1.0, dt=dt, disturbance=dist, topology_schedule=((0.9, star),))
    shape = (g.n_nodes, model.n)
    engine = _Simulation(model, g, gains, params, sim, rng.uniform(-1, 1, shape), variant,
                         chi0=rng.uniform(-1, 1, shape) if variant == "observer" else None)
    first = 3  # the pass starts at `offset` of cell `first`, or at its start
    engine.t = engine._grid_t[first - 1] + offset * dt
    if switch:
        engine._apply_switch(engine.t, star)
    set_state(engine, rng)
    mask = np.ones((g.n_nodes, 1))
    if leader is not None:
        mask[leader] = 0.0
    phases = 2 * np.pi * np.arange(g.n_nodes) / g.n_nodes
    if kind == "sinusoid":  # the exosystem's state at the pass start
        phase = 2 * np.pi * engine.t + phases
        engine.X[:, engine.flow.r] = 0.1 * np.stack([np.sin(phase), np.cos(phase)], axis=1) * mask
    # a uniform-random run ends its passes at every grid instant
    B = 1 if offset or kind == "uniform-random" else min(steps, engine._cap(engine.kernel.ei.size))
    V, Z, dq, c, f = engine._pass(first, first + B)
    assert V.shape[0] == Z.shape[0] == c.shape[0] == f.shape[0] == B

    table = np.random.default_rng(5).uniform(-0.1, 0.1, (first + B + 1,) + shape) * mask

    def disturbance(cell):
        if kind == "constant":
            return lambda s: 0.1 * np.ones(shape) * mask
        if kind == "sinusoid":
            return lambda s: (0.1 * np.sin(2 * np.pi * s + phases))[:, None] * mask
        return None if kind is None else (lambda s: table[cell])

    kern = engine.kernel
    for k in range(B):
        t1, cell = engine._grid_t[first + k], engine._grid_cell[first + k]
        v, cw, z = rk4_flow(engine, t1, disturbance(cell))
        assert close(V[k][:, :v.shape[1]], v), k
        assert close(c[k], cw), k
        assert close(Z[k], z), k
        d, q = kern.edge_terms(Z[k])
        assert np.array_equal(dq[0][k], d) and np.array_equal(dq[1][k], q)
        # f is the trigger function of the flowed state at t1, bit for bit;
        # that state is held to the oracle's above
        live = V[k][:, engine.flow.live]
        assert np.array_equal(f[k], kern.trigger_values(live, Z[k], (d, q), c[k], t1)), k
        # the oracle goes on from its own state at t1
        engine.t, engine.c, engine.Z = t1, cw, z
        engine.X[:, :v.shape[1]] = v
