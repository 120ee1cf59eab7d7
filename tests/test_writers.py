"""The row-templated CSV writers against the per-value reference writers."""

import os

import numpy as np
import pytest

import oracles
from etcons.cli import (
    RunSetup,
    _fmt,
    _row_lines,
    load_config,
    write_trajectory_csv,
    write_weights_csv,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# config name -> short horizon; switching keeps three switches (t = 2, 4, 6)
SHAPES = {
    "leaderless_sec5": 1.0,
    "observer": 1.0,
    "leader_follower": 1.0,
    "switching": 6.5,
}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def traj(request):
    cfg = load_config(os.path.join(CONFIG_DIR, f"{request.param}.json"))
    cfg["sim"]["t_end"] = SHAPES[request.param]
    return RunSetup(cfg).run()[0]


def _same_bytes(tmp_path, traj, new, ref):
    got, want = tmp_path / "new.csv", tmp_path / "ref.csv"
    new(traj, str(got))
    ref(traj, str(want))
    assert got.read_bytes() == want.read_bytes()


def test_trajectory_csv_matches_reference(tmp_path, traj):
    _same_bytes(tmp_path, traj, write_trajectory_csv, oracles.write_trajectory_csv)


def test_weights_csv_matches_reference(tmp_path, traj):
    _same_bytes(tmp_path, traj, write_weights_csv, oracles.write_weights_csv)


def test_shapes_cover_the_variants_and_a_shared_switch_row(traj):
    segs = traj.weight_segments
    if traj.variant == "observer":
        assert traj.observer_states is not None
    if len(segs) > 1:
        assert len(segs) == 4
        for prev, seg in zip(segs, segs[1:]):
            # the switch instant closes one segment and opens the next
            assert prev.first_index + len(prev.values) - 1 == seg.first_index


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e-5]


def _random_doubles(n: int) -> np.ndarray:
    bits = np.random.default_rng(7).integers(0, 2**64, size=n, dtype=np.uint64)
    return bits.view(np.float64)


@pytest.mark.parametrize("values", [np.array(SPECIAL), _random_doubles(100_000)],
                         ids=["special", "random-bits"])
def test_row_template_formats_like_fmt(values):
    t = np.float64(0.30000000000000004)
    labels = [str(k) for k in range(len(values))]
    want = "".join(f"{_fmt(t)},{k},{_fmt(v)}\n" for k, v in enumerate(values))
    assert _row_lines(labels, 1)(t, [values]) == want


@pytest.mark.parametrize("x", SPECIAL)
def test_row_template_formats_numpy_scalars_like_fmt(x):
    t, v = np.float64(x), np.float64(x)
    line = _row_lines(["3,4"], 2)(t, [np.array([v]), np.array([-v])])
    assert line == f"{_fmt(x)},3,4,{_fmt(v)},{_fmt(-v)}\n"
    assert "%.17g" % v == _fmt(v)
