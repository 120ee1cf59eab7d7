"""The runs that the gates and the tests check: the shipped configs, the
variants that no shipped config runs, and the one way to shorten a run.

    SHIPPED    the configs/*.json names, sorted
    CONSTANT   disturbance.json with a constant disturbance of amplitude 0.1
    UNIFORM    disturbance.json with a uniform-random disturbance of amplitude 0.1
    TWO_RATES  leader_follower.json with two leakage rates: varrho 0.1 on
               edges 0-1 and 2-3 and 0.05 on the rest

This module imports nothing from etcons: the ensemble gate's children load
it beside another revision's ``src/``.
"""

import json
import os

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
SHIPPED = tuple(sorted(p[:-5] for p in os.listdir(CONFIGS) if p.endswith(".json")))
CONSTANT = "disturbance_constant"
UNIFORM = "disturbance_uniform-random"
TWO_RATES = "leader_follower_two_rates"
VARIANTS = (CONSTANT, UNIFORM, TWO_RATES)
_BASE = {CONSTANT: "disturbance", UNIFORM: "disturbance", TWO_RATES: "leader_follower"}


def override(cfg: dict, **sim) -> dict:
    """``cfg`` with ``sim`` keys replaced in place. A run performs the
    switches of its schedule at or before its ``t_end``, and no other."""
    cfg["sim"].update(sim)
    return cfg


def named(name: str, **sim) -> dict:
    """A config of ``SHIPPED`` or ``VARIANTS`` by name, with ``sim`` keys
    replaced as ``override`` replaces them."""
    with open(os.path.join(CONFIGS, _BASE.get(name, name) + ".json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    if name in (CONSTANT, UNIFORM):
        cfg["sim"]["disturbance"] = {"kind": name.split("_", 1)[1], "amplitude": 0.1}
    elif name == TWO_RATES:
        cfg["protocol"]["varrho"] = {f"{i}-{j}": 0.1 if (i, j) in ((0, 1), (2, 3)) else 0.05
                                     for i, j in cfg["graph"]["edges"]}
    return override(cfg, **sim)
