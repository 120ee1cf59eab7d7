"""Per-layer metrics from the spans and counts of traced invocations.

Every metric is a pair (value, unit). Times are sums over all invocations
of a workload pass; per-call timings pool the calls of the whole pass.
Ratios are printed next to their base, which is also a metric.
"""

from __future__ import annotations

import numpy as np

# Per-call timings: p50 and the tail percentiles of the ladder. The
# report names the highest one with at least ten samples beyond it.
PERCENTILES = (50, 90, 99)


class Spans:
    """Spans of several invocations, concatenated with global indices."""

    def __init__(self, paths: list[str]):
        names: list[str] = []
        cols = {"name": [], "parent": [], "start": [], "end": []}
        offset = 0
        for path in paths:
            with np.load(path) as f:
                local = [str(n) for n in f["names"]]
                for n in local:
                    if n not in names:
                        names.append(n)
                remap = np.array([names.index(n) for n in local], dtype=np.int64)
                cols["name"].append(remap[f["name"]])
                parent = f["parent"].astype(np.int64)
                cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
                for key in ("start", "end"):
                    cols[key].append(f[key])
                offset += len(f["name"])
        self.names = names
        for key, parts in cols.items():
            dtype = np.float64 if key in ("start", "end") else np.int64
            setattr(self, key, np.concatenate(parts).astype(dtype) if parts
                    else np.zeros(0, dtype))
        self.dur = self.end - self.start

    def __len__(self) -> int:
        return len(self.name)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name == self.names.index(name)

    def under(self, name: str) -> np.ndarray:
        """Spans with an ancestor called ``name``."""
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        target = self.names.index(name)
        out = np.zeros(len(self), dtype=bool)
        anc = self.parent.copy()
        while (anc >= 0).any():
            live = anc >= 0
            out[live] |= self.name[anc[live]] == target
            anc[live] = self.parent[anc[live]]
        return out

    def total(self, name: str) -> float:
        """Seconds in ``name``; nested calls of the same name count once."""
        return float(self.dur[self.mask(name) & ~self.under(name)].sum())


def _percentiles(spans: Spans, span_name: str, stem: str) -> dict:
    us = spans.dur[spans.mask(span_name)] * 1e6
    return {f"{stem}_us_p{p}": (float(np.percentile(us, p)) if us.size else 0.0, "us")
            for p in PERCENTILES}


def tail_percentile(n: int) -> int | None:
    """Highest percentile of PERCENTILES with at least ten samples beyond it."""
    ok = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    return max(ok) if ok else None


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def layer_metrics(spans: Spans, counts: list[dict], zeno_checks: int,
                  csv_bytes: int, bytes_written: int) -> dict:
    """All per-layer metrics of one traced pass."""
    m: dict[str, tuple[float, str]] = {}

    def count(key: str) -> int:
        return int(sum(c.get(key, 0) for c in counts))

    simulate_s = float(spans.dur[spans.mask("engine.simulate")].sum())
    children_s = sum(child_breakdown(spans).values())
    in_sim = spans.under("engine.simulate")
    in_locate = spans.under("engine.locate_event")
    rows = count("rows")
    localizations = int(spans.mask("engine.locate_event").sum())

    m["engine.simulate_s"] = (simulate_s, "s")
    m["engine.children_s"] = (children_s, "s")
    m["engine.self_s"] = (simulate_s - children_s, "s")
    m["engine.rows"] = (rows, "count")
    rhs = int((spans.mask("protocols.flow_terms") & in_sim).sum())
    m["engine.rhs_per_row"] = (_ratio(rhs, rows), "calls/row")
    for key in ("events", "triggers", "cascade_broadcasts", "fallback_triggers", "switches"):
        m[f"engine.{key}"] = (count(key), "count")
    m["engine.localizations"] = (localizations, "count")
    m["engine.locate_s"] = (spans.total("engine.locate_event"), "s")
    m.update(_percentiles(spans, "engine.locate_event", "engine.locate"))
    evals = int((spans.mask("protocols.trigger_values") & in_locate).sum())
    m["engine.evals_per_localization"] = (_ratio(evals, localizations), "evals/loc")
    m["engine.expm_calls"] = (int((spans.mask("engine.expm") & in_sim).sum()), "count")
    m["engine.state_mb"] = (max((c.get("state_bytes", 0) for c in counts), default=0) / 1e6,
                            "MB")

    for fn in ("flow_terms", "trigger_values"):
        name = f"protocols.{fn}"
        m[f"{name}_calls"] = (int(spans.mask(name).sum()), "count")
        m.update(_percentiles(spans, name, name))
        m[f"{name}_s"] = (spans.total(name), "s")
    m["protocols.kernel_builds"] = (int(spans.mask("protocols.kernel_build").sum()), "count")

    zeno_s = spans.total("analysis.zeno_report")
    m["analysis.zeno_report_s"] = (zeno_s, "s")
    m["analysis.zeno_checks"] = (zeno_checks, "count")
    m["analysis.zeno_us_per_check"] = (_ratio(zeno_s * 1e6, zeno_checks), "us/check")
    for fn in ("event_stats", "theorem1_bound", "invariance_deviation"):
        m[f"analysis.{fn}_s"] = (spans.total(f"analysis.{fn}"), "s")

    for fn in ("load_config", "run_setup", "build_summary",
               "write_trajectory", "write_weights", "write_events"):
        m[f"cli.{fn}_s"] = (spans.total(f"cli.{fn}"), "s")
    write_s = sum(m[f"cli.write_{k}_s"][0] for k in ("trajectory", "weights", "events"))
    m["cli.bytes_written"] = (bytes_written, "bytes")
    m["cli.write_mb_per_s"] = (_ratio(csv_bytes / 1e6, write_s), "MB/s")

    m["linalg.design_gains_s"] = (spans.total("linalg.design_gains"), "s")
    m["graph.build_s"] = (spans.total("graph.build"), "s")
    m["graph.lambda2_s"] = (spans.total("graph.lambda2"), "s")
    m["trace.spans"] = (len(spans), "count")
    return m


def child_breakdown(spans: Spans) -> dict[str, float]:
    """Seconds of the direct children of ``simulate``, by span name."""
    sim_idx = np.flatnonzero(spans.mask("engine.simulate"))
    direct = np.isin(spans.parent, sim_idx)
    out: dict[str, float] = {}
    for nid in np.unique(spans.name[direct]):
        out[spans.names[nid]] = float(spans.dur[direct & (spans.name == nid)].sum())
    return out
