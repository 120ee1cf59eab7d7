"""Benchmark of ``etcons run``: config -> gain design -> simulation -> checks -> files.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-n6 [--seed 42] [--seconds 10] [--trace 0]

Each workload is a fixed list of configs generated from the seed (see
``workloads.py``). One pass runs every config once through the real CLI
path, ``etcons.cli.main(["run", cfg, "--out", dir])``, one process per
config and one config at a time: a closed loop with a single client. The
program runs at its default BLAS threading. Passes repeat until
``--seconds`` have elapsed; every reported time is the median over passes.

``--trace 0`` reports the end-to-end metrics, measured from outside the
process. ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of the traced ones, plus the tracing overhead.

Every invocation's outputs are checked; an invocation fails on a nonzero
exit, a Zeno verdict other than "ok", an events.csv row count that differs
from the summary total, a non-finite value, or an average-state drift above
the criterion-03 tolerance 1e-6 (1 + |x0|). The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading

import numpy as np
import scipy

import layers
import workloads
from child import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
# A run must end within 180 s: no cycle starts that could overrun this, and
# children still running at this point are killed (leaving time to report).
RUN_LIMIT_S = 160.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# End-to-end metrics in the result line: name -> unit.
END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "broadcasts": "count",
}
# Printed in the report but not in the result line: between seeds they
# differ by more than any regression bound could allow (final_error by a
# quarter on paper-n6, the drift is rounding noise near 1e-16 to 1e-11),
# and fail_rate is 0 when all is well. The last three are gated instead.
REPORT_ONLY = {
    "final_error": "norm",
    "invariance_dev": "norm",
    "zeno_min_margin": "s",
    "fail_rate": "ratio",
}


# -- one invocation ------------------------------------------------------


def invoke(cfg_path: str, out_dir: str, record: str, traced: bool, trace_id: int,
           deadline: float) -> dict:
    """Launch one ``etcons run`` process and measure it from outside."""
    cmd = [sys.executable, CHILD, SRC, record, "1" if traced else "0", str(trace_id),
           "--", "run", cfg_path, "--out", out_dir]
    with open(record + ".stderr", "wb") as err:
        t0 = monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {}
    if os.path.exists(record):
        with open(record, encoding="utf-8") as fh:
            rec = json.load(fh)
    first = rec.get("first_simulate")
    return {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "setup": None if first is None else first - t0,
        "record": rec,
        "stderr": record + ".stderr",
    }


def _non_finite_numbers(node) -> bool:
    if isinstance(node, dict):
        return any(_non_finite_numbers(v) for v in node.values())
    if isinstance(node, list):
        return any(_non_finite_numbers(v) for v in node)
    return isinstance(node, float) and not math.isfinite(node)


def _non_finite_text(path: str) -> bool:
    """True if a %.17g CSV holds nan or inf, scanned in chunks."""
    tail = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 24):
            buf = tail + chunk
            if b"nan" in buf or b"inf" in buf:
                return True
            tail = chunk[-3:]
    return False


def expm_stack(M: np.ndarray) -> np.ndarray:
    """e^M for a stack of small matrices (..., n, n).

    Scaling and squaring: every matrix is scaled to 1-norm <= 1/2, where a
    degree-18 Taylor polynomial is exact to rounding, then squared back.
    """
    norm = float(np.abs(M).sum(axis=-2).max(initial=0.0))
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
    X = M / 2.0 ** s
    eye = np.eye(M.shape[-1])
    E = np.broadcast_to(eye, M.shape)
    for k in range(18, 0, -1):
        E = eye + (X @ E) / k
    for _ in range(s):
        E = E @ E
    return E


def invariance_drift(traj: np.ndarray, A: np.ndarray, n_agents: int) -> tuple[float, float]:
    """Largest |e^{-At} mean_i x_i(t) - mean_i x_i(0)| and its tolerance.

    ``traj`` holds the (t, agent, x...) columns of trajectory.csv, agents in
    order within each time.
    """
    n = A.shape[0]
    x = traj[:, 2:2 + n].reshape(-1, n_agents, n)
    t = traj[::n_agents, 0]
    means = x.mean(axis=1)
    back = expm_stack(-A[None, :, :] * t[:, None, None])
    drift = np.linalg.norm(np.einsum("tij,tj->ti", back, means) - means[0], axis=1)
    return float(drift.max()), 1e-6 * (1.0 + float(np.linalg.norm(x[0])))


def check_outputs(cfg: dict, out_dir: str) -> dict:
    """Outcome numbers of one finished invocation and its failures."""
    res = {"failures": []}
    fail = res["failures"].append
    path = functools.partial(os.path.join, out_dir)
    try:
        with open(path("summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        events = np.loadtxt(path("events.csv"), delimiter=",", skiprows=1, ndmin=2)
        csv_bad = _non_finite_text(path("trajectory.csv")) or _non_finite_text(
            path("weights.csv"))
    except (OSError, ValueError) as exc:
        fail(f"unreadable output: {exc}")
        return res

    leader = cfg["graph"].get("leader", -1)
    total = summary["event_counts"]["total"]
    res["broadcasts"] = total
    res["final_error"] = summary["final_consensus_error_norm"]
    res["zeno_min_margin"] = summary["zeno"]["min_margin"]
    res["zeno_checks"] = summary["zeno"]["checked_intervals"]
    if summary["zeno"]["verdict"] != "ok":
        fail(f"zeno verdict {summary['zeno']['verdict']!r}")
    if len(events) != total:
        fail(f"events.csv has {len(events)} rows, summary total is {total}")
    if _non_finite_numbers(summary):
        fail("non-finite value in summary.json")
    # the leader never triggers: its initial f_before is written as nan
    nan_ok = (events[:, 0] == leader) & (events[:, 1] == 0.0)
    if csv_bad or not (np.isfinite(events[:, :2]).all()
                       and (np.isfinite(events[:, 2]) | nan_ok).all()):
        fail("non-finite value in the CSV outputs")
    elif cfg["protocol"].get("variant", "state") != "leader_follower":
        A = np.asarray(cfg["model"]["A"], dtype=float)
        traj = np.loadtxt(path("trajectory.csv"), delimiter=",", skiprows=1, ndmin=2,
                          usecols=range(2 + A.shape[0]))
        drift, tol = invariance_drift(traj, A, int(cfg["graph"]["n"]))
        res["invariance_dev"] = drift
        if not drift <= tol:
            fail(f"average-state drift {drift:.3g} above tolerance {tol:.3g}")
    return res


def _dir_bytes(path: str, names=None) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path)
               if names is None or f in names)


# -- passes ----------------------------------------------------------------


def run_pass(cfgs, work: str, traced: bool, pass_no: int, deadline: float) -> dict:
    """Run every config once; per-invocation results and pass totals."""
    invs = []
    for k, (name, path, cfg) in enumerate(cfgs):
        out_dir = os.path.join(work, f"out-{pass_no}-{k}")
        record = os.path.join(work, f"record-{pass_no}-{k}.json")
        inv = invoke(path, out_dir, record, traced, trace_id=pass_no * 100 + k,
                     deadline=deadline)
        inv["config"] = name
        if inv["code"] != 0:
            with open(inv["stderr"], encoding="utf-8", errors="replace") as fh:
                last = (fh.read().strip().splitlines() or ["(no output)"])[-1]
            inv["failures"] = [f"exit code {inv['code']}: {last}"]
        else:
            inv.update(check_outputs(cfg, out_dir))
            if inv["setup"] is None:
                inv["failures"].append("simulate was never called")
            inv["bytes_written"] = _dir_bytes(out_dir)
            inv["csv_bytes"] = _dir_bytes(out_dir, ("trajectory.csv", "weights.csv",
                                                    "events.csv"))
        shutil.rmtree(out_dir, ignore_errors=True)
        inv["spans"] = record + ".spans.npz"
        invs.append(inv)
    return {"traced": traced, "invocations": invs}


def pass_totals(p: dict) -> dict:
    """End-to-end metrics of one pass: sums over configs, or max / min."""
    invs = p["invocations"]

    def vals(key):
        return [i[key] for i in invs if i.get(key) is not None]

    out = {"run_s": sum(vals("wall")), "cpu_s": sum(vals("cpu")),
           "setup_s": sum(vals("setup")), "peak_rss_mb": max(vals("rss_mb"))}
    for key, agg in (("broadcasts", sum), ("final_error", sum),
                     ("invariance_dev", max), ("zeno_min_margin", min)):
        if vals(key):
            out[key] = agg(vals(key))
    return out


def pass_layers(p: dict) -> dict:
    invs = [i for i in p["invocations"] if os.path.exists(i["spans"])]
    spans = layers.Spans([i["spans"] for i in invs])
    m = layers.layer_metrics(
        spans, [i["record"].get("counts", {}) for i in invs],
        zeno_checks=sum(i.get("zeno_checks", 0) for i in invs),
        csv_bytes=sum(i.get("csv_bytes", 0) for i in invs),
        bytes_written=sum(i.get("bytes_written", 0) for i in invs))
    return {"metrics": m, "children": layers.child_breakdown(spans)}


def median_metrics(per_pass: list[dict]) -> dict:
    """Median over passes of every (value, unit) metric."""
    return {k: (statistics.median(d[k][0] for d in per_pass), unit)
            for k, (_, unit) in per_pass[0].items()}


# -- environment -------------------------------------------------------------


def _blas(module) -> str:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]
        return "; ".join(f"{k} {deps[k]['name']} {deps[k]['version']}"
                         for k in ("blas", "lapack") if k in deps)
    except (AttributeError, KeyError, TypeError, ValueError):
        return "unknown"


def environment() -> dict:
    git_sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            git_sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                     capture_output=True, text=True,
                                     check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "etcons")
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
    }


# -- report --------------------------------------------------------------------


def _line(name: str, value, unit: str, note: str = "") -> str:
    return f"  {name:<36} {value!r:>24} {unit:<10} {note}".rstrip()


def report(args, passes, env, absent) -> dict:
    """Print the human-readable report; return the result line's metrics
    as name -> (value, unit)."""
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    invs = [i for p in passes for i in p["invocations"]]
    failed = [i for i in invs if i["failures"]]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={len(untraced)} untraced + {len(traced)} traced")
    print("environment " + json.dumps(env, sort_keys=True))
    for n, p in enumerate(passes):
        for i in p["invocations"]:
            setup = "-" if i["setup"] is None else f"{i['setup']:.3f}"
            print(f"  pass {n} {'traced' if p['traced'] else 'untraced'} {i['config']}: "
                  f"wall {i['wall']:.3f} s, cpu {i['cpu']:.3f} s, setup {setup} s, "
                  f"rss {i['rss_mb']:.1f} MB, broadcasts {i.get('broadcasts', '-')}"
                  + (f", FAILED: {'; '.join(i['failures'])}" if i["failures"] else ""))
    totals = [pass_totals(p) for p in untraced]
    e2e = {k: statistics.median(t[k] for t in totals) if all(k in t for t in totals)
           else 0.0 for k in {**END_TO_END, **REPORT_ONLY} if k != "fail_rate"}
    e2e["fail_rate"] = len(failed) / len(invs)
    print(f"end-to-end, median over {len(untraced)} untraced passes "
          "(sum over configs; max for peak_rss_mb and invariance_dev; "
          "min for zeno_min_margin):")
    for k, unit in {**END_TO_END, **REPORT_ONLY}.items():
        note = "" if k in END_TO_END else "(report only)"
        if k == "fail_rate":
            note = f"({len(failed)} of {len(invs)} invocations failed) {note}"
        print(_line(k, e2e[k], unit, note))
    if not args.trace:
        return {k: (e2e[k], unit) for k, unit in END_TO_END.items()}

    per_pass = [pass_layers(p) for p in traced]
    m = median_metrics([d["metrics"] for d in per_pass])
    untraced_s = statistics.median(t["run_s"] for t in totals)
    traced_s = statistics.median(pass_totals(p)["run_s"] for p in traced)
    m["trace.untraced_run_s"] = (untraced_s, "s")
    m["trace.traced_run_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    m["trace.absent_hooks"] = (len(absent), "count")
    print(f"per-layer, median over {len(traced)} traced passes:")
    for k, (value, unit) in m.items():
        print(_line(k, value, unit))
    for stem, base in (("engine.locate", "engine.localizations"),
                       ("protocols.flow_terms", "protocols.flow_terms_calls"),
                       ("protocols.trigger_values", "protocols.trigger_values_calls")):
        n = int(m[base][0])
        tail = layers.tail_percentile(n)
        print(f"  tail of {stem}: " + (f"p{tail} = {m[f'{stem}_us_p{tail}'][0]:.2f} us"
                                       if tail else "none") + f" (n={n} samples)")
    children = per_pass[len(per_pass) // 2]["children"]
    print("  simulate = self + children: "
          f"{m['engine.self_s'][0]:.4f} + {m['engine.children_s'][0]:.4f} s; children: "
          + ", ".join(f"{k} {v:.4f} s" for k, v in sorted(children.items())))
    print("absent hooks: " + (", ".join(absent) if absent else "none"))
    return m


# -- main --------------------------------------------------------------------


def measure(args, work: str) -> int:
    cfgs = workloads.write_configs(args.workload, args.seed, work)
    start = monotonic()
    kinds = (False, True) if args.trace else (False,)
    passes = []
    # whole cycles until --seconds have passed; none that could overrun the limit
    while True:
        for traced in kinds:
            passes.append(run_pass(cfgs, work, traced, len(passes), start + RUN_LIMIT_S))
        elapsed = monotonic() - start
        cycle = elapsed * len(kinds) / len(passes)
        if elapsed >= args.seconds or elapsed + cycle > RUN_LIMIT_S:
            break
    absent = sorted({a for p in passes for i in p["invocations"]
                     for a in i["record"].get("absent", [])})
    metrics = report(args, passes, environment(), absent)
    invs = [i for p in passes for i in p["invocations"]]
    failed = sum(1 for i in invs if i["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(invs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on termination, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "etcons", "cli.py")):
        print(f"perfbench: no etcons sources in {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(SRC, "etcons"), quiet=1)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
