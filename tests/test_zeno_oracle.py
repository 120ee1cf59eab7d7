"""The single-pass Zeno report against the per-check reference loop."""

import pytest

import oracles
from etcons.analysis import zeno_report
from etcons.cli import RunSetup
from runs import named

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
    return RunSetup(named(request.param, t_end=RUNS[request.param])).run()[0]


def _rows(report):
    return [(c.agent, c.k, c.interval, c.bound) for c in report.checks]


def test_report_equals_reference_exactly(traj):
    got = _rows(zeno_report(traj))
    assert len(got) > 0
    assert got == _rows(oracles.zeno_report(traj))

