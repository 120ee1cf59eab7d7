"""The block CSV writers against the per-value reference writers."""

import io
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from etcons import cli
from etcons.cli import (
    RunSetup,
    _labels,
    _write_rows,
    write_events_csv,
    write_trajectory_csv,
    write_weights_csv,
)
from etcons.textio import _digits
from oracles import _fmt
from runs import SHIPPED, named

WRITERS = [(write_trajectory_csv, oracles.write_trajectory_csv),
           (write_weights_csv, oracles.write_weights_csv),
           (write_events_csv, oracles.write_events_csv)]
WRITER_IDS = ["trajectory", "weights", "events"]

# config name -> short horizon; switching keeps three switches (t = 2, 4, 6)
SHAPES = {
    "leaderless_sec5": 1.0,
    "observer": 1.0,
    "leader_follower": 1.0,
    "switching": 6.5,
}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def traj(request):
    return RunSetup(named(request.param, t_end=SHAPES[request.param])).run()[0]


def _same_bytes(tmp_path, traj, new, ref):
    got, want = tmp_path / "new.csv", tmp_path / "ref.csv"
    new(traj, str(got))
    ref(traj, str(want))
    assert got.read_bytes() == want.read_bytes()


def test_trajectory_csv_matches_reference(tmp_path, traj):
    _same_bytes(tmp_path, traj, write_trajectory_csv, oracles.write_trajectory_csv)


def test_weights_csv_matches_reference(tmp_path, traj):
    _same_bytes(tmp_path, traj, write_weights_csv, oracles.write_weights_csv)


def test_events_csv_matches_reference(tmp_path, traj):
    _same_bytes(tmp_path, traj, write_events_csv, oracles.write_events_csv)


def test_shapes_cover_the_variants_and_a_shared_switch_row(traj):
    segs = traj.weight_segments
    if traj.variant == "observer":
        assert traj.observer_states is not None
    if traj.variant == "leader_follower":
        assert any(math.isnan(e.trigger_value_before) for e in traj.events)
    if len(segs) > 1:
        assert len(segs) == 4
        for prev, seg in zip(segs, segs[1:]):
            # the switch instant closes one segment and opens the next
            assert prev.first_index + len(prev.values) - 1 == seg.first_index


# short runs for the block boundaries: switches one step after the start
# and at the end, which leave segments of two rows and of one row
EDGES = {
    "switching": dict(dwell_min=1e-3, topology_schedule=[
        {"t": 1e-3, "graph": {"generator": "star", "n": 6}},
        {"t": 0.05, "graph": {"generator": "ring", "n": 6}}]),
    "observer": {},
    "leader_follower": {},
}


@pytest.fixture(scope="module", params=sorted(EDGES))
def short_traj(request):
    return RunSetup(named(request.param, t_end=0.05, **EDGES[request.param])).run()[0]


@pytest.mark.parametrize("block", [1, 7, 100, 1000])
@pytest.mark.parametrize("new, ref", WRITERS, ids=WRITER_IDS)
def test_block_boundaries_match_reference(tmp_path, monkeypatch, short_traj, block, new, ref):
    monkeypatch.setattr(cli, "BLOCK_VALUES", block)
    _same_bytes(tmp_path, short_traj, new, ref)


def test_short_runs_cover_the_block_edges(short_traj):
    n_rows = len(short_traj.times)
    per_row = short_traj.states[0].size * (1 if short_traj.observer_states is None else 2)
    assert n_rows % max(1, 1000 // per_row) != 0  # a last block that is not full
    if short_traj.variant == "state":
        assert [len(s.values) for s in short_traj.weight_segments] == [2, n_rows - 1, 1]


def test_fallback_is_rare_on_written_values():
    """Values that take Python's ``%`` instead of the vector path: fewer than
    one in 10^4 on every shipped config and on a complete graph of 70."""
    cfg = dict(named("leaderless_sec5", t_end=0.1), graph={"generator": "complete", "n": 70})
    runs = [RunSetup(cfg).run()[0]]
    runs += [RunSetup(named(name, t_end=3.0)).run()[0] for name in SHIPPED]
    assert len(runs) == 7
    for run in runs:
        values = [run.times, run.states.ravel(),
                  [e.time for e in run.events], [e.trigger_value_before for e in run.events]]
        values += [s.values.ravel() for s in run.weight_segments]
        if run.observer_states is not None:
            values.append(run.observer_states.ravel())
        values = np.concatenate(values)
        assert _digits(values)[2].sum() < 1e-4 * values.size, run.variant


def test_writing_a_ring400_run_stays_within_a_few_mb(tmp_path):
    cfg = dict(named("leaderless_sec5", t_end=0.05), graph={"generator": "ring", "n": 400})
    run = RunSetup(cfg).run()[0]
    tracemalloc.start()
    try:
        for new, _ in WRITERS:
            new(run, str(tmp_path / "out.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block's buffers, about 1.8 MB at 8192 values, whatever the run's length
    assert len(run.times) > 50 and peak < 4e6


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e-5]


def _random_doubles(n: int) -> np.ndarray:
    bits = np.random.default_rng(7).integers(0, 2**64, size=n, dtype=np.uint64)
    return bits.view(np.float64)


def _lines(times, labels, *values) -> str:
    fh = io.BytesIO()
    _write_rows(fh, np.asarray(times), _labels(labels), *values)
    return fh.getvalue().decode()


@pytest.mark.parametrize("values", [np.array(SPECIAL), _random_doubles(100_000)],
                         ids=["special", "random-bits"])
def test_row_template_formats_like_fmt(values):
    t = np.float64(0.30000000000000004)
    labels = [f",{k}" for k in range(len(values))]
    want = "".join(f"{_fmt(t)},{k},{_fmt(v)}\n" for k, v in enumerate(values))
    assert _lines([t], labels, values[None, :, None]) == want


@pytest.mark.parametrize("x", SPECIAL)
def test_row_template_formats_numpy_scalars_like_fmt(x):
    t, v = np.float64(x), np.float64(x)
    line = _lines([t], [",3,4"], np.array([[[v, -v]]]))
    assert line == f"{_fmt(x)},3,4,{_fmt(v)},{_fmt(-v)}\n"
    assert "%.17g" % v == _fmt(v)
