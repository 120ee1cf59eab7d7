"""The engine's batched RK4 pass against the per-step oracle.

``_Simulation._steps`` integrates a run of grid steps at once: it chains
the starts of the steps by recursive doubling and evaluates every step's
stages together. ``oracles.rk4_step`` takes the same steps one at a time,
stage by stage, on the whole augmented state. Drawn: connected graphs on
2..10 nodes (a leader for the leader-follower variant), controllable
(A, B) with n <= 4, every variant, leakage varrho >= 0, every disturbance
kind, 1..64 steps, and a first step that may start inside a grid cell.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from etcons.engine import DisturbanceSpec, SimConfig, _rk4_extension, _Simulation
from etcons.graph import build_graph
from etcons.linalg import SystemModel, design_gains
from etcons.protocols import ProtocolParams
from oracles import rk4_step
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), variant=st.sampled_from(["state", "observer", "leader_follower"]),
       varrho=st.sampled_from([0.0, 0.05, 2.0]),
       kind=st.sampled_from([None, "constant", "sinusoid", "uniform-random"]),
       steps=st.integers(1, 64), dt=st.sampled_from([1e-3, 1e-2]),
       offset=st.sampled_from([0.0, 0.3, 0.75]))
def test_steps_match_the_per_step_oracle(data, variant, varrho, kind, steps, dt, offset):
    g = data.draw(connected_graphs())
    if variant == "leader_follower":
        g = build_graph(g.n_nodes, g.edges, leader=0)
    model = data.draw(models(variant == "observer"))
    gains = design_gains(model, observer=variant == "observer")
    params = ProtocolParams(delta=1.0, mu=2.0, nu=0.5, kappa=0.2, varrho=varrho, c0=0.1)
    dist = None if kind is None else DisturbanceSpec(kind=kind, amplitude=0.1, seed=5)
    sim = SimConfig(t_end=1.0, dt=dt, disturbance=dist)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (g.n_nodes, model.n)
    engine = _Simulation(model, g, gains, params, sim, rng.uniform(-1, 1, shape), variant,
                         chi0=rng.uniform(-1, 1, shape) if variant == "observer" else None)
    # a mid-run state: estimates apart from the states, grown weights
    engine.Z = rng.uniform(-1, 1, shape)
    engine.dq = engine.kernel.edge_terms(engine.Z)
    engine.y[engine._nv:] += rng.uniform(0, 1, engine.y.size - engine._nv)
    first = 3  # the first step starts at `offset` of cell 3 and ends at its end
    engine.t = (first + offset) * dt
    times = [engine.t] + engine._grid_t[first:first + steps]
    cells = engine._grid_cell[first:first + steps]

    mask = np.ones((g.n_nodes, 1))
    if g.leader is not None:
        mask[g.leader] = 0.0
    table = np.random.default_rng(5).uniform(-0.1, 0.1, (first + steps + 1,) + shape) * mask

    def disturbance(cell):
        if kind == "constant":
            return lambda s: 0.1 * np.ones(shape) * mask
        if kind == "sinusoid":
            phases = 2 * np.pi * np.arange(g.n_nodes) / g.n_nodes
            return lambda s: (0.1 * np.sin(2 * np.pi * s + phases))[:, None] * mask
        return None if kind is None else (lambda s: table[cell])

    y0, z0 = engine.y.copy(), engine.Z.copy()
    ends, Z_end, dq_end, f, stages = engine._steps(times, cells)
    assert ends.shape[0] == Z_end.shape[0] == f.shape[0] == len(cells)

    y, z = y0, z0
    n, nv = model.n, engine._nv
    for k, (t0, t1, cell) in enumerate(zip(times, times[1:], cells)):
        y, z, _ = rk4_step(engine, t0, y, z, t1 - t0, disturbance(cell))
        v, c = y[:nv].reshape(engine._vshape), y[nv:]
        assert close(ends[k, :nv], v.ravel()), k
        assert close(ends[k, nv:], c), k
        assert close(Z_end[k], z), k
        d, q = engine.kernel.edge_terms(Z_end[k])
        assert np.array_equal(dq_end[0][k], d) and np.array_equal(dq_end[1][k], q)
        oracle_f = engine.kernel.trigger_values(v[:, -n:], z, engine.kernel.edge_terms(z), c, t1)
        finite = np.isfinite(oracle_f)
        assert np.array_equal(finite, np.isfinite(f[k]))
        assert close(f[k][finite], oracle_f[finite]), k
        # the stages give the step's own end at theta = 1
        start = y0 if k == 0 else ends[k - 1]
        ext = _rk4_extension(start, t1 - t0, [s[k] for s in stages], 1.0)
        assert close(ext, ends[k]), k
        assert np.array_equal(_rk4_extension(start, t1 - t0, [s[k] for s in stages], 0.0), start)
    assert math.isclose(times[-1], engine._grid_t[first + steps - 1])
