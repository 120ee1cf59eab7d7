"""Each library owner of an input value holds it to the package's one
number rule (``errors._check_number``), integer rule
(``errors._check_integer``), pair and list rules (``errors._check_pair``,
``errors._check_list``) or matrix rule (``linalg._as_matrix``) when it is
built, names the config key at fault, and stores numbers as floats."""

import math
from operator import attrgetter

import numpy as np
import pytest

from etcons.engine import DisturbanceSpec, SimConfig
from etcons.errors import ConfigError
from etcons.graph import build_graph, generate_graph
from etcons.linalg import SystemModel
from etcons.protocols import ProtocolParams

RING = generate_graph("ring", 4)
A2, B2 = [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]]
NOT_NUMBERS = {"str": "0.5", "True": True, "None": None, "nan": math.nan, "inf": math.inf,
               "-inf": -math.inf, "10**400": 10 ** 400}


def params(**kw) -> ProtocolParams:
    return ProtocolParams(**{"delta": 1.0, "mu": 2.0, "nu": 0.5, **kw})


# config key -> (the owner built around one value, the value it stores)
NUMBERS = {
    "sim.t_end": (lambda v: SimConfig(t_end=v, dt=0.5), attrgetter("t_end")),
    "sim.dt": (lambda v: SimConfig(t_end=10.0, dt=v), attrgetter("dt")),
    "sim.event_tol": (lambda v: SimConfig(t_end=10.0, dt=5.0, event_tol=v),
                      attrgetter("event_tol")),
    "sim.dwell_min": (lambda v: SimConfig(t_end=10.0, dt=0.5, dwell_min=v),
                      attrgetter("dwell_min")),
    "sim.topology_schedule[0].t": (
        lambda v: SimConfig(t_end=10.0, dt=0.5, topology_schedule=((v, RING),)),
        lambda sim: sim.topology_schedule[0][0]),
    "sim.disturbance.amplitude": (lambda v: DisturbanceSpec("constant", amplitude=v),
                                  attrgetter("amplitude")),
    "sim.disturbance.frequency": (lambda v: DisturbanceSpec("sinusoid", 0.1, frequency=v),
                                  attrgetter("frequency")),
    **{f"protocol.{name}": (lambda v, name=name: params(**{name: v}), attrgetter(name))
       for name in ("delta", "mu", "nu", "kappa", "varrho", "c0")},
    **{f"protocol.{name}.0-1": (lambda v, name=name: params(**{name: {(0, 1): v, (1, 2): 1.0}}),
                                lambda p, name=name: getattr(p, name)[(0, 1)])
       for name in ("kappa", "varrho", "c0")},
    "model.A": (lambda v: SystemModel(A=[[0.0, 1.0], [0.0, v]], B=B2),
                lambda m: m.A.tolist()[1][1]),
    "model.B": (lambda v: SystemModel(A=A2, B=[[0.0], [v]]), lambda m: m.B.tolist()[1][0]),
    "model.C": (lambda v: SystemModel(A=A2, B=B2, C=[[v, 0.0]]), lambda m: m.C.tolist()[0][0]),
}

REJECTED = [
    *[pytest.param(key, lambda b=build, v=v: b(v), id=f"{key}-{name}")
      for key, (build, _) in NUMBERS.items() for name, v in NOT_NUMBERS.items()],
    *[pytest.param("edges[1]", lambda v=v: build_graph(3, [(0, 1), (1, v)]), id=f"edge-{name}")
      for name, v in {**NOT_NUMBERS, "1.5": 1.5}.items()],
    *[pytest.param("leader", lambda v=v: build_graph(3, [(0, 1)], leader=v), id=f"leader-{name}")
      for name, v in {**NOT_NUMBERS, "1.5": 1.5}.items() if v is not None],
    pytest.param("model.A", lambda: SystemModel(A=[[0.0, 1.0], [0.0]], B=B2), id="A-ragged"),
    pytest.param("model.B", lambda: SystemModel(A=A2, B=[[0.0], [1.0, 2.0]]), id="B-ragged"),
    pytest.param("model.A", lambda: SystemModel(A=[[[0.0]]], B=[[1.0]]), id="A-3d"),
    # the map rules that need no graph hold at construction
    pytest.param("protocol.kappa", lambda: params(kappa=0.0), id="kappa-0"),
    pytest.param("protocol.varrho", lambda: params(varrho=-0.1), id="varrho-negative"),
    pytest.param("protocol.kappa.0-1", lambda: params(kappa={(0, 1): 0.0}), id="kappa-map-0"),
    pytest.param("protocol.varrho.0-1", lambda: params(varrho={(0, 1): -0.1}),
                 id="varrho-map-negative"),
    pytest.param("protocol.kappa", lambda: params(kappa={(0, 1): 0.2, (1, 0): 0.3}),
                 id="kappa-map-pair-twice"),
    pytest.param("protocol.c0", lambda: params(c0={(2, 2): 0.2}), id="c0-map-self-loop"),
    # the structure of pairs and lists
    pytest.param("protocol.kappa", lambda: params(kappa={"0-1": 0.2}), id="kappa-map-string-key"),
    pytest.param("protocol.varrho", lambda: params(varrho={(0.5, 1): 0.2}),
                 id="varrho-map-fractional-node"),
    pytest.param("protocol.c0", lambda: params(c0={(-1, 1): 0.2}), id="c0-map-negative-node"),
    pytest.param("sim.topology_schedule[0]",
                 lambda: SimConfig(t_end=10.0, dt=0.5, topology_schedule=(1.0,)),
                 id="schedule-entry-not-a-pair"),
    pytest.param("sim.topology_schedule",
                 lambda: SimConfig(t_end=10.0, dt=0.5, topology_schedule=1.0),
                 id="schedule-not-a-list"),
    pytest.param("edges", lambda: build_graph(3, 5), id="edges-not-a-list"),
]


@pytest.mark.parametrize("key, build", REJECTED)
def test_owner_rejects_and_names_the_key(key, build):
    with pytest.raises(ConfigError) as info:
        build()
    assert info.value.key == key


@pytest.mark.parametrize("value", [np.float64(0.5), np.int64(2)], ids=["float64", "int64"])
@pytest.mark.parametrize("key", NUMBERS)
def test_numpy_scalars_are_stored_as_floats(key, value):
    build, stored = NUMBERS[key]
    out = stored(build(value))
    assert type(out) is float and out == value
