"""Check that this tree writes the same output bytes as another revision.

    python tools/compare_outputs.py REV

Runs the six shipped configs, 5 s runs of the variants of ``tests/runs.py``
(disturbance.json with a constant and with a uniform-random disturbance,
leader_follower.json with two leakage rates) and the ring400/complete70
benchmark configs (seed 42) through ``etcons run`` once with this tree's
``src/`` and once with REV's, extracted by ``git archive`` into a
temporary directory, and compares trajectory.csv, events.csv, weights.csv
and summary.json byte for byte, summary.json without its ``"stats"`` work
counters. Prints one line per config, with the counters that moved, and
exits 1 on any other difference.
The two sides of a config run in parallel, one process each.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUTS = ("trajectory.csv", "events.csv", "weights.csv", "summary.json")
SEED = 42


def _configs() -> list[tuple[str, dict]]:
    sys.path[:0] = [os.path.join(REPO, "perfbench"), os.path.join(REPO, "tests")]
    import runs
    import workloads
    out = [(name, runs.named(name)) for name in runs.SHIPPED]
    out += [(name, runs.named(name, t_end=5.0)) for name in runs.VARIANTS]
    for workload in ("ring-sparse", "complete-dense"):
        out += workloads.configs(workload, SEED)
    return out


def _extract_src(rev: str, dest: str) -> str:
    tar = subprocess.run(["git", "-C", REPO, "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return os.path.join(dest, "src")


def _summary(path: str) -> tuple[bytes, dict]:
    """The bytes of summary.json without its top-level "stats" block (as
    ``etcons run`` writes it, two-space indented), and that block."""
    with open(path, "rb") as fh:
        text = fh.read()
    rest = re.sub(rb'^  "stats": \{\n.*?^  \},?\n', b"", text, count=1, flags=re.M | re.S)
    return rest, json.loads(text).get("stats", {})


def compare_dirs(a: str, b: str) -> tuple[list[str], list[str]]:
    """The output files that differ between run directories a and b, and
    the work counters that moved from a to b ("name a -> b"), which are no
    difference."""
    changed = [f for f in OUTPUTS[:-1]
               if not filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False)]
    (text_a, stats_a), (text_b, stats_b) = (_summary(os.path.join(d, OUTPUTS[-1]))
                                            for d in (a, b))
    if text_a != text_b:
        changed.append(OUTPUTS[-1])
    moved = [f"{k} {stats_a.get(k)} -> {stats_b.get(k)}" for k in sorted(stats_a | stats_b)
             if stats_a.get(k) != stats_b.get(k)]
    return changed, moved


def _start(src: str, config: str, out: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-m", "etcons.cli", "run", config, "--out", out],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)
    differ = False
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        sides = {"this": os.path.join(REPO, "src"),
                 args.rev: _extract_src(args.rev, os.path.join(tmp, "rev"))}
        for name, cfg in _configs():
            cfg.pop("outputs", None)
            path = os.path.join(tmp, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            outs = {side: os.path.join(tmp, side.replace(os.sep, "_"), name)
                    for side in sides}
            procs = {side: _start(src, path, outs[side]) for side, src in sides.items()}
            failed = []
            for side, proc in procs.items():
                _, err = proc.communicate()
                if proc.returncode:
                    last = (err.decode().strip().splitlines() or [""])[-1]
                    failed.append(f"{side} exit {proc.returncode}: {last}")
            if failed:
                differ = True
                print(f"{name:26s} FAILED {'; '.join(failed)}", flush=True)
                continue
            changed, moved = compare_dirs(outs[args.rev], outs["this"])
            differ |= bool(changed)
            verdict = "differ: " + ", ".join(changed) if changed else "identical"
            if moved:
                verdict += f" (stats moved: {'; '.join(moved)})"
            print(f"{name:26s} {len(OUTPUTS) - len(changed)}/{len(OUTPUTS)} {verdict}",
                  flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
