"""Workload configs, generated from a seed.

Each workload is a list of etcons configs run one after another, one
process each. The seed replaces ``sim.seed`` (initial states) and, for a
uniform-random disturbance, the disturbance seed; the default seed 42
reproduces the shipped configs, copied here under ``configs/`` so that the
benchmark's inputs do not change when the repository's examples do.
"""

from __future__ import annotations

import copy
import json
import os

DEFAULT_SEED = 42
CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")
PAPER_CONFIGS = ("disturbance", "leader_follower", "leaderless_sec5", "observer",
                 "switching", "ultimate_bound")


def _load(name: str) -> dict:
    with open(os.path.join(CONFIG_DIR, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def _seeded(cfg: dict, seed: int) -> dict:
    cfg = copy.deepcopy(cfg)
    cfg["sim"]["seed"] = seed
    dist = cfg["sim"].get("disturbance")
    if dist is not None and dist["kind"] == "uniform-random":
        dist["seed"] = seed + 1
    return cfg


def _scaled(generator: str, n: int, t_end: float) -> dict:
    """leaderless_sec5 parameters on another graph and horizon."""
    cfg = _load("leaderless_sec5")
    cfg["graph"] = {"generator": generator, "n": n}
    cfg["sim"]["t_end"] = t_end
    return cfg


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    "paper-n6": lambda: [(name, _load(name)) for name in PAPER_CONFIGS],
    "ring-sparse": lambda: [("ring400", _scaled("ring", 400, 1.0))],
    "complete-dense": lambda: [("complete70", _scaled("complete", 70, 1.0))],
    # a few seconds in all; the benchmark's own self-test, not a measurement
    "smoke": lambda: [("ring6", _scaled("ring", 6, 0.5))],
}


def configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(name, config) pairs of one workload pass."""
    return [(name, _seeded(cfg, seed)) for name, cfg in WORKLOADS[workload]()]


def write_configs(workload: str, seed: int, directory: str) -> list[tuple[str, str, dict]]:
    """Write the workload's configs into ``directory``; (name, path, config)."""
    out = []
    for name, cfg in configs(workload, seed):
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
        out.append((name, path, cfg))
    return out
