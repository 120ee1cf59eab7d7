"""Engine invariants on drawn graphs and models.

Each example draws a connected graph on 2..10 nodes, a controllable pair
(A, B) with n <= 4 states and p <= 2 inputs, and initial states, designs
the gains with the Riccati solver and runs the state-feedback protocol
for 1 s at dt = 1e-3 without leakage (varrho = 0); the disturbed test
also draws a disturbance kind of amplitude 0.1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from etcons.analysis import invariance_deviation, zeno_report
from etcons.engine import DISTURBANCE_KINDS, DisturbanceSpec, SimConfig, simulate
from etcons.graph import build_graph
from etcons.linalg import SystemModel, design_gains
from etcons.protocols import ProtocolParams

PARAMS = ProtocolParams(delta=1.0, mu=2.0, nu=0.5, kappa=0.2, varrho=0.0, c0=0.0)
SIM = SimConfig(t_end=1.0, dt=1e-3)


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 2..10 nodes plus random extra edges."""
    n_nodes = draw(st.integers(2, 10))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n_nodes)}
    node = st.integers(0, n_nodes - 1)
    for a, b in draw(st.lists(st.tuples(node, node), max_size=2 * n_nodes)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return build_graph(n_nodes, sorted(edges))


@st.composite
def controllable_models(draw):
    """Normal (A, B) with n <= 4 and p <= 2, redrawn until controllable."""
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        a, b = rng.normal(size=(n, n)), rng.normal(size=(n, p))
        ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n)])
        if np.linalg.matrix_rank(ctrb) == n:
            return SystemModel(A=a, B=b)


def _events(traj):
    return [(e.agent, e.time, e.trigger_value_before, e.kind, e.value.tobytes())
            for e in traj.events]


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(g=connected_graphs(), model=controllable_models(), seed=st.integers(0, 2**32 - 1))
def test_engine_invariants(g, model, seed):
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, (g.n_nodes, model.n))
    gains = design_gains(model)
    traj = simulate(model, g, gains, PARAMS, SIM, x0)
    (segment,) = traj.weight_segments
    assert (np.diff(segment.values, axis=0) >= 0).all()
    assert invariance_deviation(traj) < 1e-6 * (1.0 + np.linalg.norm(x0.ravel()))
    assert zeno_report(traj).verdict
    assert _events(simulate(model, g, gains, PARAMS, SIM, x0)) == _events(traj)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(g=connected_graphs(), model=controllable_models(), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(DISTURBANCE_KINDS))
def test_disturbed_engine_invariants(g, model, seed, kind):
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, (g.n_nodes, model.n))
    gains = design_gains(model)
    sim = SimConfig(t_end=1.0, dt=1e-3,
                    disturbance=DisturbanceSpec(kind=kind, amplitude=0.1, seed=seed))
    traj = simulate(model, g, gains, PARAMS, sim, x0)
    (segment,) = traj.weight_segments
    assert (np.diff(segment.values, axis=0) >= 0).all()
    assert _events(simulate(model, g, gains, PARAMS, sim, x0)) == _events(traj)
    # a uniform-random pass holds one cell's draw, so it is one step
    assert kind != "uniform-random" or traj.stats.passes == traj.stats.steps
