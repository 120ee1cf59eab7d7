"""``tools/compare_outputs.py`` on hand-made run directories: every CSV
and summary.json byte counts, except the work counters under "stats",
which are reported as moved."""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
from compare_outputs import OUTPUTS, compare_dirs  # noqa: E402

SUMMARY = {"event_counts": {"total": 7}, "stats": {"passes": 2, "steps": 10},
           "zeno": {"verdict": "ok"}}


def run_dir(path, summary=SUMMARY, csv="t,agent,x0\n0,0,1\n"):
    path.mkdir()
    for name in OUTPUTS[:-1]:
        (path / name).write_text(csv)
    (path / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return str(path)


def test_moved_counters_are_no_difference(tmp_path):
    moved = dict(SUMMARY, stats={"passes": 2, "relocalizations": 0, "steps": 12})
    assert compare_dirs(run_dir(tmp_path / "a"), run_dir(tmp_path / "b", moved)) == \
        ([], ["relocalizations None -> 0", "steps 10 -> 12"])


def test_every_other_byte_counts(tmp_path):
    a = run_dir(tmp_path / "a")
    count = run_dir(tmp_path / "count", dict(SUMMARY, event_counts={"total": 8}))
    csv = run_dir(tmp_path / "csv", csv="t,agent,x0\n0,0,1.0\n")
    spaced = run_dir(tmp_path / "spaced")
    with open(os.path.join(spaced, "summary.json"), "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert compare_dirs(a, count) == (["summary.json"], [])
    assert compare_dirs(a, csv) == (["trajectory.csv", "events.csv", "weights.csv"], [])
    assert compare_dirs(a, spaced) == (["summary.json"], [])
    assert compare_dirs(a, run_dir(tmp_path / "same")) == ([], [])
