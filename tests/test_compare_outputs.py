"""``tools/compare_outputs.py`` on hand-made run directories: every CSV
and summary.json byte counts, except the work counters under "stats",
which are reported as moved. And the runs of the two standing gates, the
byte comparison and the full ensemble gate."""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
import ensemble  # noqa: E402
from compare_outputs import OUTPUTS, _configs, compare_dirs  # noqa: E402
from runs import SHIPPED, UNIFORM, VARIANTS  # noqa: E402

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


def test_the_gates_run_every_shipped_config_and_their_variants():
    configs = _configs()
    assert [name for name, _ in configs] == list(SHIPPED + VARIANTS + ("ring400", "complete70"))
    assert [cfg["sim"]["t_end"] for name, cfg in configs if name in VARIANTS] == [5.0] * 3
    assert ensemble.FULL == SHIPPED + (UNIFORM,)
