"""Experiment runner: config-driven simulations, sweeps, CSV/JSON outputs.

Configs are single JSON documents with row-major numeric matrices. These
readers check their structure (unknown keys are rejected), and the objects
they build check each value before anything runs. Exit codes: 0 success,
2 config error, 3 assumption violation (disconnected graph, non-stabilizable
model, ...), 4 runtime failure (Zeno guard, non-finite states).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys

import numpy as np

from . import analysis
from .engine import VARIANTS, DisturbanceSpec, SimConfig, Trajectory, initial_states, simulate
from .errors import ConfigError, EtconsError, _check_number
from .graph import Graph, build_graph, generate_graph
from .linalg import GainSet, SystemModel, _as_matrix, design_gains
from .protocols import ProtocolParams
from .textio import cells

ENV_OUT_DIR = "ETCONS_OUT_DIR"
EMIT_CHOICES = ("trajectory", "events", "weights", "summary")


def _read(section, readers: dict, required, where: str) -> dict:
    """The keys present in ``section``, each passed through its reader.

    ``readers`` maps every allowed key to ``reader(value, dotted_path)``;
    unknown and missing keys are config errors. Absent keys stay absent,
    so the dataclasses the result is handed to keep their own defaults.
    ``where`` is the section's dotted path, empty for the whole config.
    """
    name = where or "config"
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = set(section) - set(readers)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    missing = set(required) - set(section)
    if missing:
        raise ConfigError(f"missing keys in {name}: {sorted(missing)}")
    return {key: read(section[key], f"{where}.{key}" if where else key)
            for key, read in readers.items() if key in section}


def _section(readers: dict, required=()):
    return lambda value, where: _read(value, readers, required, where)


def _as_given(value, where: str):
    """A value that the library object it is handed to checks."""
    return value


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _choice(options: tuple):
    def read(value, where: str):
        if value not in options:
            raise ConfigError(f"{where}: expected one of {list(options)}, got {value!r}")
        return value
    return read


def _list_of(read_item):
    """A reader for a JSON list whose entries go through ``read_item``."""
    def read(value, where: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(read_item(v, f"{where}[{i}]") for i, v in enumerate(value))
    return read


def _graph(value, where: str) -> Graph:
    spec = _read(value, {"n": _as_given, "edges": _list_of(_as_given), "generator": _text,
                         "leader": _as_given}, {"n"}, where)
    if ("generator" in spec) == ("edges" in spec):
        raise ConfigError(f"{where}: give exactly one of 'generator' or 'edges'")
    try:
        if "generator" in spec:
            g = generate_graph(spec["generator"], spec["n"], leader=spec.get("leader"))
        else:
            g = build_graph(spec["n"], spec["edges"], leader=spec.get("leader"))
    except ConfigError as exc:
        raise ConfigError(exc.reason, f"{where}.{exc.key}") from None
    if g.n_nodes < 2:  # a lone agent has no edge: no weights to write and no lambda2
        raise ConfigError(f"a run needs at least 2 agents, got {g.n_nodes}", f"{where}.n")
    return g


def _edge_map(value, where: str):
    """A number for every edge, or an {'i-j': number} mapping keyed by
    node pairs; ``ProtocolParams`` checks the values and the pairs."""
    if not isinstance(value, dict):
        return value
    out = {}
    for pair, v in value.items():
        try:
            i, j = (int(part) for part in pair.split("-"))
        except ValueError:
            raise ConfigError(f"{where}: bad edge key {pair!r}, expected 'i-j'") from None
        out[(i, j)] = v
    return out


def _switch(value, where: str) -> tuple[float, Graph]:
    spec = _read(value, {"t": _as_given, "graph": _graph}, {"t", "graph"}, where)
    return spec["t"], spec["graph"]


def _disturbance(value, where: str) -> DisturbanceSpec:
    readers = dict.fromkeys(("kind", "amplitude", "frequency", "seed"), _as_given)
    return DisturbanceSpec(**_read(value, readers, {"kind", "amplitude"}, where))


_STATES = _section({"values": _as_matrix, "random": _section(
    {"low": _check_number, "high": _check_number}, {"low", "high"})})

_CONFIG = {
    "model": _section(dict.fromkeys("ABC", _as_given), {"A", "B"}),
    "graph": _graph,
    "protocol": _section({"variant": _choice(VARIANTS), "delta": _as_given, "mu": _as_given,
                          "nu": _as_given, "kappa": _edge_map, "varrho": _edge_map,
                          "c0": _edge_map}, {"delta", "mu", "nu"}),
    "sim": _section({
        **dict.fromkeys(("t_end", "dt", "event_tol", "seed", "dwell_min",
                         "max_events_per_unit_time"), _as_given),
        # older configs name the one integrator; any other value is an error
        "solver": _choice(("rk4",)),
        "disturbance": _disturbance,
        "topology_schedule": _list_of(_switch),
    }, {"t_end", "dt"}),
    "initial_states": _STATES,
    "initial_observer_states": _STATES,
    "outputs": _section({"directory": _text, "emit": _list_of(_choice(EMIT_CHOICES))}),
}


def _states(spec: dict, shape: tuple, rng, where: str) -> np.ndarray:
    if len(spec) != 1:
        raise ConfigError(f"{where}: give exactly one of 'values' or 'random'")
    if "values" in spec:
        return spec["values"]
    low, high = spec["random"]["low"], spec["random"]["high"]
    if not low < high:
        raise ConfigError(f"{where}.random: low must be below high")
    return rng.uniform(low, high, size=shape)


class RunSetup:
    """Validated experiment: everything ``simulate`` needs plus outputs."""

    def __init__(self, cfg: dict):
        cfg = _read(cfg, _CONFIG, {"model", "graph", "protocol", "sim", "initial_states"}, "")
        self.model = SystemModel(**cfg["model"])
        self.graph = cfg["graph"]
        self.variant = cfg["protocol"].pop("variant", VARIANTS[0])  # simulate's default
        self.params = ProtocolParams(**cfg["protocol"])
        cfg["sim"].pop("solver", None)
        self.sim = SimConfig(**cfg["sim"])

        rng = np.random.default_rng(self.sim.seed)
        shape = (self.graph.n_nodes, self.model.n)
        keys = ("initial_states", "initial_observer_states")
        given = [_states(cfg[key], shape, rng, key) if key in cfg else None for key in keys]
        self.x0, self.chi0 = initial_states(shape, self.variant, *given, keys=keys)
        outputs = cfg.get("outputs", {})
        self.out_dir = outputs.get("directory")
        self.emit = outputs.get("emit", EMIT_CHOICES)

    def design(self) -> GainSet:
        return design_gains(self.model, observer=self.variant == "observer")

    def run(self) -> tuple[Trajectory, GainSet]:
        gains = self.design()
        traj = simulate(self.model, self.graph, gains, self.params, self.sim,
                        self.x0, variant=self.variant, chi0=self.chi0)
        return traj, gains


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None


# -- output writers -----------------------------------------------------

# Values formatted per block; a block's text goes out in one write. Large
# blocks pay numpy's per-call cost less often, but a block's buffers take
# about 200 bytes a value: at 8192 a paper config's peak RSS stays within
# 0.4 MB of the simulation's, where 16384 added 1.1 to 1.9 MB.
BLOCK_VALUES = 8192
_NEWLINE = np.array([[10]], np.uint8)


def _labels(texts) -> np.ndarray:
    """Fixed label cells: (texts, 1, width) uint8, zero-padded."""
    arr = np.array([t.encode() for t in texts])
    return arr.view(np.uint8).reshape(len(arr), 1, arr.itemsize)


def _join(*parts) -> np.ndarray:
    """The text of cells laid side by side, as uint8. Each part holds
    (..., count, width) uint8 cells, its leading axes broadcast with the
    others'; the text skips zero bytes."""
    shape = np.broadcast_shapes(*(p.shape[:-2] for p in parts))
    sizes = [p.shape[-2] * p.shape[-1] for p in parts]
    buf = np.empty(shape + (sum(sizes),), np.uint8)
    end = 0
    for p, size in zip(parts, sizes):
        end += size
        buf[..., end - size:end].reshape(shape + p.shape[-2:])[...] = p
    return buf[buf != 0]


def _write_rows(fh, times, labels, *values):
    """Line 't,label,values' for each time and label. Each array in
    ``values`` is (times, labels, k) and adds k cells to a line. A block's
    times and values are formatted by one ``cells`` call."""
    rows = max(1, BLOCK_VALUES // max(1, sum(v[0:1].size for v in values)))
    for r in range(0, len(times), rows):
        block = [times[r:r + rows]] + [v[r:r + rows] for v in values]
        text = np.split(cells(np.concatenate([b.ravel() for b in block])),
                        np.cumsum([b.size for b in block[:-1]]))
        t = text[0]
        t[t == ord(",")] = 0  # a line starts with t
        t = t[:, np.flatnonzero(t.any(axis=0))][:, None, None]
        fh.write(_join(t, labels, *(c.reshape(b.shape + (-1,))
                                    for c, b in zip(text[1:], block[1:])), _NEWLINE))


def write_trajectory_csv(traj: Trajectory, path: str):
    n = traj.model.n
    cols = ["t", "agent"] + [f"x{i}" for i in range(n)]
    blocks = [traj.states]
    if traj.observer_states is not None:
        cols += [f"chi{i}" for i in range(n)]
        blocks.append(traj.observer_states)
    with open(path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        _write_rows(fh, traj.times, _labels(f",{a}" for a in range(traj.states.shape[1])),
                    *blocks)


def write_events_csv(traj: Trajectory, path: str):
    with open(path, "wb") as fh:
        fh.write(b"agent,t,f_before\n")
        rows = max(1, BLOCK_VALUES // 2)
        for r in range(0, len(traj.events), rows):
            recs = traj.events[r:r + rows]
            text = cells([(e.time, e.trigger_value_before) for e in recs])
            fh.write(_join(_labels(str(e.agent) for e in recs),
                           text.reshape(len(recs), 2, -1), _NEWLINE))


def write_weights_csv(traj: Trajectory, path: str):
    with open(path, "wb") as fh:
        fh.write(b"t,i,j,c\n")
        for seg in traj.weight_segments:
            times = traj.times[seg.first_index:seg.first_index + len(seg.values)]
            _write_rows(fh, times, _labels(f",{i},{j}" for i, j in seg.graph.edges),
                        seg.values[..., None])


def _gains_dict(gains: GainSet) -> dict:
    out = {"P": gains.P.tolist(), "K": gains.K.tolist(), "Gamma": gains.Gamma.tolist()}
    if gains.F is not None:
        out["F"] = gains.F.tolist()
    return out


def build_summary(traj: Trajectory, gains: GainSet) -> dict:
    stats = analysis.event_stats(traj)
    zeno = analysis.zeno_report(traj)
    if traj.variant == "leader_follower":
        bound_info = {"available": False,
                      "reason": "ultimate-bound constants are defined for leaderless runs"}
    else:
        tc = analysis.theorem1_bound(traj.graph, traj.params, gains.P)
        if tc.available:
            bound_info = {"available": True, "alpha": tc.alpha, "theta2": tc.theta2,
                          "varsigma": tc.varsigma, "rho": tc.rho, "bound": tc.bound}
        else:
            bound_info = {"available": False, "reason": tc.reason}
    trigger_residuals = [r.trigger_value_before for r in traj.events
                         if r.kind == "trigger"]
    return {
        "variant": traj.variant,
        "n_agents": traj.graph.n_nodes,
        "gains": _gains_dict(gains),
        "params": {
            "delta": traj.params.delta, "mu": traj.params.mu, "nu": traj.params.nu,
        },
        "event_counts": {
            "per_agent": {str(k): v for k, v in stats.per_agent_counts.items()},
            "total": stats.total,
            "triggers": sum(1 for r in traj.events if r.kind == "trigger"),
        },
        "min_inter_event_interval": stats.global_min_interval,
        "final_consensus_error_norm": analysis.final_error_norm(traj),
        "theorem1_bound": bound_info,
        "zeno": {
            "verdict": "ok" if zeno.verdict else "violated",
            "checked_intervals": len(zeno.checks),
            "min_interval": zeno.min_interval,
            "min_margin": zeno.min_margin,
            "guard_fired": False,
        },
        "localization": {
            "dt": traj.sim.dt,
            "event_tol": traj.sim.event_tol,
            "max_trigger_residual": max(trigger_residuals, default=None),
        },
        "stats": dataclasses.asdict(traj.stats),
    }


def write_outputs(traj: Trajectory, gains: GainSet, out_dir: str, emit=EMIT_CHOICES) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    summary = build_summary(traj, gains)
    if "trajectory" in emit:
        write_trajectory_csv(traj, os.path.join(out_dir, "trajectory.csv"))
    if "events" in emit:
        write_events_csv(traj, os.path.join(out_dir, "events.csv"))
    if "weights" in emit:
        write_weights_csv(traj, os.path.join(out_dir, "weights.csv"))
    if "summary" in emit:
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summary


def _resolve_out_dir(cli_out: str | None, setup_out: str | None) -> str:
    return cli_out or setup_out or os.environ.get(ENV_OUT_DIR) or "out"


# -- commands -----------------------------------------------------------


def cmd_run(args) -> int:
    setup = RunSetup(load_config(args.config))
    traj, gains = setup.run()
    out_dir = _resolve_out_dir(args.out, setup.out_dir)
    summary = write_outputs(traj, gains, out_dir, setup.emit)
    print(f"run complete: {summary['event_counts']['total']} broadcasts, "
          f"final error {summary['final_consensus_error_norm']:.6g}, "
          f"outputs in {out_dir}")
    return 0


def _print_matrix(name: str, m: np.ndarray):
    print(f"{name} =")
    for row in np.atleast_2d(m):
        print("  [" + ", ".join(f"{v: .4f}" for v in row) + "]")


def cmd_gains(args) -> int:
    setup = RunSetup(load_config(args.config))
    gains = setup.design()
    _print_matrix("P", gains.P)
    _print_matrix("K", gains.K)
    _print_matrix("Gamma", gains.Gamma)
    if gains.F is not None:
        _print_matrix("F", gains.F)
    return 0


def _parse_sweep_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _apply_override(cfg: dict, param: str, value):
    if param == "graph":
        cfg["graph"] = {k: v for k, v in cfg["graph"].items() if k in ("n", "leader")}
        cfg["graph"]["generator"] = value
        return
    node = cfg
    parts = param.split(".")
    for key in parts[:-1]:
        if key not in node or not isinstance(node[key], dict):
            raise ConfigError(f"sweep parameter {param!r} does not address a config entry")
        node = node[key]
    if parts[-1] not in node:
        raise ConfigError(f"sweep parameter {param!r} does not address a config entry")
    node[parts[-1]] = value


def cmd_sweep(args) -> int:
    base = load_config(args.config)
    values = [v for v in args.values.split(",") if v != ""]
    if not values:
        raise ConfigError("sweep needs a non-empty list of values")
    out_root = _resolve_out_dir(args.out, RunSetup(base).out_dir)
    rows = []
    for raw in values:
        value = _parse_sweep_value(raw)
        cfg = copy.deepcopy(base)
        _apply_override(cfg, args.param, value)
        setup = RunSetup(cfg)
        traj, gains = setup.run()
        run_dir = os.path.join(out_root, f"{args.param.replace('.', '_')}={raw}")
        summary = write_outputs(traj, gains, run_dir, setup.emit)
        rows.append({
            "value": value,
            "directory": run_dir,
            "total_events": summary["event_counts"]["total"],
            "min_inter_event_interval": summary["min_inter_event_interval"],
            "final_consensus_error_norm": summary["final_consensus_error_norm"],
            "zeno_verdict": summary["zeno"]["verdict"],
        })
        print(f"{args.param}={raw}: {rows[-1]['total_events']} broadcasts, "
              f"final error {rows[-1]['final_consensus_error_norm']:.6g}")
    os.makedirs(out_root, exist_ok=True)
    with open(os.path.join(out_root, "sweep_summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"param": args.param, "runs": rows}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etcons",
        description="Adaptive event-triggered consensus simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)
    p_gains = sub.add_parser("gains", help="print the designed gain matrices")
    p_gains.add_argument("config")
    p_gains.set_defaults(func=cmd_gains)
    p_sweep = sub.add_parser("sweep", help="run one experiment per parameter value")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True,
                         help="dotted config path (e.g. protocol.mu) or 'graph'")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default=None, help="output directory root")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EtconsError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
