"""The single-pass Zeno report against the per-check reference loop."""

import os

import pytest

import oracles
from etcons.analysis import zeno_report
from etcons.cli import RunSetup, load_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# config name -> short horizon; switching keeps three switches (t = 2, 4, 6)
RUNS = {
    "leaderless_sec5": 5.0,
    "leader_follower": 5.0,
    "ultimate_bound": 5.0,
    "observer": 5.0,
    "disturbance": 5.0,
    "switching": 6.5,
}


@pytest.fixture(scope="module", params=sorted(RUNS))
def traj(request):
    cfg = load_config(os.path.join(CONFIG_DIR, f"{request.param}.json"))
    cfg["sim"]["t_end"] = RUNS[request.param]
    return RunSetup(cfg).run()[0]


def _rows(report):
    return [(c.agent, c.k, c.interval, c.bound) for c in report.checks]


def test_report_equals_reference_exactly(traj):
    got = _rows(zeno_report(traj))
    assert len(got) > 0
    assert got == _rows(oracles.zeno_report(traj))

