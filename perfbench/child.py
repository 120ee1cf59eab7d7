"""One benchmarked invocation of ``etcons run``, launched as its own process.

Usage: child.py SRC_DIR RECORD_PATH TRACE TRACE_ID -- run CONFIG --out DIR

Imports etcons from SRC_DIR, calls ``etcons.cli.main`` with the arguments
after ``--`` and exits with its return code. Before exiting it writes a
JSON record to RECORD_PATH:

* untraced (TRACE 0): one monotonic timestamp taken at the first call of
  ``simulate``; nothing else is wrapped, so the run is the one users get.
* traced (TRACE 1): a span for every call of the hooked public functions
  (name, start, end, parent span, trace id), kept in memory and written
  next to the record as ``<record>.spans.npz`` at exit, plus counts read
  from the returned ``Trajectory``.

A hook whose target no longer exists is listed under ``absent`` instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (module, attribute path, span name). The engine's layer boundaries are
# the public functions it calls; scipy's expm is hooked because the engine
# reaches it through the module attribute on every cache miss.
HOOKS = (
    ("etcons.cli", "load_config", "cli.load_config"),
    ("etcons.cli", "RunSetup.__init__", "cli.run_setup"),
    ("etcons.cli", "build_summary", "cli.build_summary"),
    ("etcons.cli", "write_trajectory_csv", "cli.write_trajectory"),
    ("etcons.cli", "write_weights_csv", "cli.write_weights"),
    ("etcons.cli", "write_events_csv", "cli.write_events"),
    ("etcons.graph", "build_graph", "graph.build"),
    ("etcons.graph", "generate_graph", "graph.build"),
    ("etcons.graph", "lambda2", "graph.lambda2"),
    ("etcons.linalg", "design_gains", "linalg.design_gains"),
    ("etcons.engine", "simulate", "engine.simulate"),
    ("etcons.engine", "locate_event", "engine.locate_event"),
    ("scipy.linalg", "expm", "engine.expm"),
    ("etcons.protocols", "ProtocolKernel.__init__", "protocols.kernel_build"),
    ("etcons.protocols", "ProtocolKernel.flow_terms", "protocols.flow_terms"),
    ("etcons.protocols", "ProtocolKernel.trigger_values", "protocols.trigger_values"),
    ("etcons.analysis", "zeno_report", "analysis.zeno_report"),
    ("etcons.analysis", "event_stats", "analysis.event_stats"),
    ("etcons.analysis", "theorem1_bound", "analysis.theorem1_bound"),
    ("etcons.analysis", "invariance_deviation", "analysis.invariance_deviation"),
)


def monotonic() -> float:
    """System-wide clock shared with the launching process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span store; spans nest by call order on one thread."""

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _name_id(self, span_name: str) -> int:
        if span_name not in self.names:
            self.names.append(span_name)
        return self.names.index(span_name)

    def wrap(self, fn, span_name: str):
        nid = self._name_id(span_name)
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def save(self, path: str):
        import numpy as np

        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end),
                 trace_id=np.full(len(self.name), self.trace_id, dtype=np.int64))


def _rebind(owner_names, old, new):
    """Point every module-level binding of ``old`` in ``owner_names`` at ``new``."""
    for mod_name in owner_names:
        mod = sys.modules.get(mod_name)
        if mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(wrapper_for, hooks=HOOKS) -> list[str]:
    """Replace each hook target by ``wrapper_for(target, span_name)``.

    Functions are rebound in their module and in every loaded etcons module
    that imported them by name; methods are replaced on their class.
    Returns the targets that could not be found.
    """
    absent = []
    owners = [m for m in sys.modules if m == "etcons" or m.startswith("etcons.")]
    for mod_name, path, span_name in hooks:
        try:
            owner = importlib.import_module(mod_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            target = getattr(owner, attr)
        except (ImportError, AttributeError):
            absent.append(f"{mod_name}.{path}")
            continue
        if not callable(target):
            absent.append(f"{mod_name}.{path}")
            continue
        wrapped = wrapper_for(target, span_name)
        if parents:
            setattr(owner, attr, wrapped)
        else:
            _rebind([mod_name] + owners, target, wrapped)
    return absent


def trajectory_counts(traj) -> tuple[dict, list[str]]:
    """Counts the engine leaves on the returned trajectory."""
    counts, absent = {}, []

    def take(key, fn):
        try:
            counts[key] = fn()
        except (AttributeError, TypeError):
            absent.append(f"Trajectory -> {key}")

    def events_of(kind):
        return [e for e in traj.events if e.kind == kind]

    def cascades():
        times = [e.time for e in events_of("trigger")]
        return sum(1 for a, b in zip(times, times[1:]) if a == b)

    def state_bytes():
        arrays = [traj.times, traj.states, traj.estimates, traj.observer_states]
        arrays += [seg.values for seg in traj.weight_segments]
        return sum(int(a.nbytes) for a in arrays if a is not None)

    take("rows", lambda: len(traj.times))
    take("events", lambda: len(traj.events))
    take("triggers", lambda: len(events_of("trigger")))
    take("cascade_broadcasts", cascades)
    take("fallback_triggers",
         lambda: sum(1 for e in events_of("trigger") if e.trigger_value_before < 0))
    take("switches", lambda: len(traj.weight_segments) - 1)
    take("state_bytes", state_bytes)
    return counts, absent


def main(argv: list[str]) -> int:
    src_dir, record_path, trace, trace_id = argv[:4]
    if argv[4] != "--":
        raise SystemExit("usage: child.py SRC_DIR RECORD TRACE TRACE_ID -- ARGS...")
    cli_args = argv[5:]
    sys.path.insert(0, src_dir)
    record = {"first_simulate": None, "absent": [], "counts": {}}
    tracer = Tracer(int(trace_id)) if trace == "1" else None
    results = []
    code = None
    try:
        import etcons.cli

        def stamp_first_call(fn, _span_name):
            @functools.wraps(fn)
            def stamped(*args, **kwargs):
                if record["first_simulate"] is None:
                    record["first_simulate"] = monotonic()
                out = fn(*args, **kwargs)
                if tracer is not None:
                    results.append(out)
                return out

            return stamped

        stamp_hook = [h for h in HOOKS if h[2] == "engine.simulate"]
        if tracer is not None:
            record["absent"] += install(tracer.wrap)
        record["absent"] += install(stamp_first_call, stamp_hook)
        code = etcons.cli.main(cli_args)
        if tracer is not None and results:
            import etcons.analysis

            # timed outside the CLI path, which never calls it
            invariance_deviation = getattr(etcons.analysis, "invariance_deviation", None)
            if invariance_deviation is not None:
                invariance_deviation(results[-1])
            counts, absent = trajectory_counts(results[-1])
            record["counts"] = counts
            record["absent"] += absent
    finally:
        if tracer is not None:
            tracer.save(record_path + ".spans.npz")
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
