import copy
import glob
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import etcons
from etcons.cli import RunSetup, load_config, main
from runs import named

BASE_CONFIG = {
    "model": {
        "A": [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
        "B": [[0], [0], [1]],
    },
    "graph": {"generator": "ring", "n": 6},
    "protocol": {"variant": "state", "delta": 1.0, "mu": 2.0, "nu": 0.5,
                 "kappa": 0.2, "varrho": 0.0, "c0": 0.0},
    "sim": {"t_end": 2.0, "dt": 0.001, "event_tol": 1e-7, "seed": 42},
    "initial_states": {"random": {"low": -1.0, "high": 1.0}},
}

NAN = float("nan")
# one kappa per edge of the malformed-config base's ring and star graphs
RING_STAR_KAPPA = {f"{i}-{j}": 0.2 for i, j in
                   [(i, (i + 1) % 6) for i in range(6)] + [(0, j) for j in range(2, 5)]}
# a map key whose nodes lie outside the graph: only ``run`` checks the map
# against the graph, so ``gains`` accepts it
KAPPA_NODE_OUT_OF_RANGE = {**RING_STAR_KAPPA, "7-9": 0.2}
REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestGainsCommand:
    def test_prints_published_gain_values(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["gains", path]) == 0
        out = capsys.readouterr().out
        assert "2.4142" in out
        assert "4.8284" in out
        assert "-1.0000" in out
        assert "5.8284" in out

    def test_scalar_system(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"] = {"A": [[0]], "B": [[1]]}
        cfg["graph"] = {"generator": "ring", "n": 6}
        cfg["initial_states"] = {"random": {"low": -1.0, "high": 1.0}}
        path = write_config(tmp_path, cfg)
        assert main(["gains", path]) == 0
        out = capsys.readouterr().out
        assert "1.0000" in out       # P = 1
        assert "-1.0000" in out      # K = -1

    def test_undetectable_observer_fails(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"]["C"] = [[0, 0, 0]]
        cfg["protocol"]["variant"] = "observer"
        path = write_config(tmp_path, cfg)
        assert main(["gains", path]) == 3
        assert "detect" in capsys.readouterr().err


class TestRunCommand:
    def test_writes_all_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        out = str(tmp_path / "results")
        assert main(["run", path, "--out", out]) == 0
        for name in ("trajectory.csv", "events.csv", "weights.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_csv_schemas(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        out = str(tmp_path / "results")
        main(["run", path, "--out", out])
        with open(os.path.join(out, "trajectory.csv")) as fh:
            assert fh.readline().strip() == "t,agent,x0,x1,x2"
        with open(os.path.join(out, "events.csv")) as fh:
            assert fh.readline().strip() == "agent,t,f_before"
        with open(os.path.join(out, "weights.csv")) as fh:
            assert fh.readline().strip() == "t,i,j,c"
            for line in fh:
                _, i, j, _ = line.split(",")
                assert int(i) < int(j)

    def test_observer_columns(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"]["C"] = [[1, 0, 0]]
        cfg["protocol"]["variant"] = "observer"
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "obs")
        assert main(["run", path, "--out", out]) == 0
        with open(os.path.join(out, "trajectory.csv")) as fh:
            assert fh.readline().strip() == "t,agent,x0,x1,x2,chi0,chi1,chi2"

    def test_summary_contents(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        out = str(tmp_path / "results")
        main(["run", path, "--out", out])
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert set(summary) >= {"gains", "event_counts", "min_inter_event_interval",
                                "final_consensus_error_norm", "theorem1_bound",
                                "zeno", "localization"}
        assert np.allclose(np.round(summary["gains"]["K"], 4),
                           [[-1.0, -2.4142, -2.4142]])
        assert summary["zeno"]["verdict"] == "ok"
        assert summary["theorem1_bound"]["available"] is True
        assert summary["theorem1_bound"]["bound"] == 0.0

    def test_summary_stats_keys(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        out = str(tmp_path / "results")
        assert main(["run", path, "--out", out]) == 0
        with open(os.path.join(out, "summary.json")) as fh:
            stats = json.load(fh)["stats"]
        assert sorted(stats) == ["cascade_broadcasts", "localization_evaluations",
                                 "localizations", "passes", "relocalizations", "steps"]
        assert all(isinstance(v, int) for v in stats.values())
        # 2,000 grid instants evaluated in fewer passes; a localization evaluates f
        assert stats["steps"] >= 2000 > stats["passes"] > 0
        assert stats["localization_evaluations"] > stats["localizations"] > 0
        assert 0 <= stats["relocalizations"] < stats["localizations"]
        assert 0 <= stats["cascade_broadcasts"] < stats["localizations"]

    def test_byte_identical_outputs_same_seed(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["run", path, "--out", out_a]) == 0
        assert main(["run", path, "--out", out_b]) == 0
        for name in ("trajectory.csv", "events.csv", "weights.csv", "summary.json"):
            with open(os.path.join(out_a, name), "rb") as fa, \
                 open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    @pytest.mark.parametrize("graph, t_end", [
        ({"generator": "complete", "n": 30}, 0.2),
        # ring6 runs dozens of grid steps per pass, so stacked products count
        ({"generator": "ring", "n": 6}, 2.0),
    ], ids=["complete30", "ring6"])
    def test_byte_identical_outputs_any_blas_thread_count(self, tmp_path, graph, t_end):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["graph"] = graph
        cfg["sim"]["t_end"] = t_end
        path = write_config(tmp_path, cfg)
        src = os.path.dirname(os.path.dirname(os.path.abspath(etcons.__file__)))
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           p for p in (src, os.environ.get("PYTHONPATH")) if p))
            subprocess.run([sys.executable, "-m", "etcons.cli", "run", path,
                            "--out", str(tmp_path / threads)],
                           env=env, check=True, capture_output=True, timeout=300)
        for name in ("trajectory.csv", "events.csv", "weights.csv", "summary.json"):
            assert (tmp_path / "1" / name).read_bytes() == \
                (tmp_path / "2" / name).read_bytes(), name

    def test_runs_import_no_scipy(self, tmp_path):
        # scipy is a test-only dependency: runs of every variant and of a
        # topology schedule, in a fresh process, load no scipy module
        args = []
        for name in ("leaderless_sec5", "observer", "leader_follower", "switching"):
            cfg = named(name, t_end=4.5)  # past two switches of the schedule
            args += [write_config(tmp_path, cfg, f"{name}.json"), str(tmp_path / name)]
        code = ("import sys\n"
                "from etcons.cli import main\n"
                "for path, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
                "    assert main(['run', path, '--out', out]) == 0\n"
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        src = os.path.dirname(os.path.dirname(os.path.abspath(etcons.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                              capture_output=True, text=True, timeout=300)
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_emit_writes_only_the_listed_files(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        out = tmp_path / "emitted"
        cfg["outputs"] = {"directory": str(out), "emit": ["events", "summary"]}
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        assert sorted(os.listdir(out)) == ["events.csv", "summary.json"]

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, BASE_CONFIG)
        env_dir = str(tmp_path / "envout")
        monkeypatch.setenv("ETCONS_OUT_DIR", env_dir)
        assert main(["run", path]) == 0
        assert os.path.exists(os.path.join(env_dir, "summary.json"))


class TestExitCodes:
    def test_disconnected_graph_exit_3(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["graph"] = {"n": 4, "edges": [[0, 1]]}
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
        assert "connected" in capsys.readouterr().err

    @pytest.mark.parametrize("graph", [{"generator": "path", "n": 1},
                                       {"n": 1, "edges": []}])
    def test_lone_agent_exit_2(self, tmp_path, capsys, graph):
        # one agent has no edge: no weights to report and no lambda2
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["graph"] = graph
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: graph.n: a run needs at least 2 agents, got 1")
        assert not os.path.exists(tmp_path / "o")

    def test_non_stabilizable_exit_3(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"] = {"A": [[1, 0], [0, 1]], "B": [[1], [0]]}
        cfg["initial_states"] = {"random": {"low": -1.0, "high": 1.0}}
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
        assert "stabilizable" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("initial_states", {"values": [[0.0, 0.0]] * 6}),
        ("initial_observer_states", {"values": [[0.0, 0.0, 0.0]] * 6}),
    ], ids=["wrong-shape", "observer-states-on-a-state-run"])
    @pytest.mark.parametrize("command", ["run", "gains"])
    def test_initial_state_rules_exit_2(self, tmp_path, capsys, command, key, value):
        # one implementation of the rules serves both commands; ``gains``
        # never simulates
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg[key] = value
        args = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, write_config(tmp_path, cfg)] + args) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not os.path.exists(tmp_path / "o")

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["extra_section"] = {}
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("section, key, value", [
        ("sim", "event_tol", "1e-8"),
        ("sim", "t_end", "abc"),
        ("sim", "max_events_per_unit_time", "x"),
        ("sim", "dwell_min", None),
        ("protocol", "delta", "x"),
        ("sim", "max_events_per_unit_time", 2.5),
        ("sim", "seed", "x"),
        ("sim", "seed", 1.5),
        ("sim", "seed", -1),
        ("sim.disturbance", "seed", "x"),
        ("graph", "n", "abc"),
        ("graph", "n", 6.5),
        ("graph", "leader", "x"),
        ("model", "A", "x"),
        ("model", "B", [[0], [0, 1], [1]]),
        ("initial_states", "values", "x"),
        ("sim", "dwell_min", NAN),
        ("sim.topology_schedule[0]", "t", NAN),
        ("sim.disturbance", "frequency", NAN),
        ("initial_states", "values", [[NAN, 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * 5),
        ("initial_states.random", "low", -math.inf),
        ("protocol", "kappa", "0.2"),
        ("protocol", "kappa", True),
        ("protocol", "kappa", {"0-1": None}),
        ("graph", "edges", [[2, 0.5]]),
        ("graph", "edges", [["0", "1"]]),
        ("graph", "edges", [[0, 1, 2]]),
        pytest.param("sim", "t_end", 10 ** 400, id="sim-t_end-10**400"),
        ("model", "A", [[0, True, 0], [0, 0, 1], [0, 0, 0]]),
        ("sim", "topology_schedule", 5),
        ("outputs", "emit", 5),
        ("outputs", "emit", [[1]]),
        ("outputs", "emit", "summary"),
        ("outputs", "directory", 5),
        pytest.param("protocol", "kappa", {**RING_STAR_KAPPA, "1-0": 0.9},
                     id="protocol-kappa-duplicate-edge"),
        pytest.param("protocol", "kappa", KAPPA_NODE_OUT_OF_RANGE,
                     id="protocol-kappa-node-out-of-range"),
        ("graph", "generator", "foo"),
        ("graph", "n", 0),
        ("protocol", "delta", -1),
        ("protocol", "kappa", 0),
        ("sim", "t_end", -1),
        ("sim", "event_tol", 0.01),
        ("sim", "dwell_min", 0),
        ("sim.disturbance", "amplitude", -1),
        ("sim.topology_schedule[0].graph", "generator", "foo"),
        ("sim.topology_schedule[0].graph", "n", 0),
    ])
    @pytest.mark.parametrize("command", ["run", "gains"])
    def test_malformed_number_exit_2(self, tmp_path, capsys, command, section, key, value):
        # ``section`` is a dotted path with optional [index] parts; the base
        # gains a disturbance, a switch, an edge list, explicit initial
        # values (random ones for the random cases) and an outputs section
        # so that every addressed key exists
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["outputs"] = {"directory": str(tmp_path / "o"), "emit": ["summary"]}
        cfg["graph"] = {"n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]}
        cfg["sim"]["disturbance"] = {"kind": "uniform-random", "amplitude": 0.1, "seed": 3}
        cfg["sim"]["topology_schedule"] = [{"t": 1.0, "graph": {"generator": "star", "n": 6}}]
        if not section.startswith("initial_states.random"):
            cfg["initial_states"] = {"values": [[0.0, 0.0, 0.0]] * 6}
        node = cfg
        for part in section.replace("]", "").replace("[", ".").split("."):
            node = node[int(part) if part.isdigit() else part]
        node[key] = value
        # a graph spec gives one of 'generator' or 'edges'
        node.pop({"generator": "edges", "edges": "generator"}.get(key), None)
        path = write_config(tmp_path, cfg)
        args = ["--out", str(tmp_path / "o")] if command == "run" else []
        if command == "gains" and value is KAPPA_NODE_OUT_OF_RANGE:
            assert main([command, path]) == 0
            return
        assert main([command, path] + args) == 2
        assert capsys.readouterr().err.startswith(f"config error: {section}.{key}")

    def test_solver_key_accepts_only_rk4(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["sim"]["solver"] = "rk4"
        assert main(["gains", write_config(tmp_path, cfg)]) == 0
        for key, value in (("solver", "rk45-adaptive"), ("solver", "euler"),
                           ("rtol", 1e-8), ("atol", 1e-10)):
            cfg = copy.deepcopy(BASE_CONFIG)
            cfg["sim"][key] = value
            path = write_config(tmp_path, cfg)
            assert main(["run", path, "--out", str(tmp_path / "o")]) == 2, key
            err = capsys.readouterr().err
            assert err.startswith("config error:") and key in err, err
        assert not os.path.exists(tmp_path / "o")

    def test_zeno_guard_exit_4(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["sim"]["max_events_per_unit_time"] = 1
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 4
        assert "events within" in capsys.readouterr().err


class TestSweepCommand:
    def test_graph_sweep(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["sim"]["t_end"] = 1.0
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "sweep")
        code = main(["sweep", path, "--param", "graph",
                     "--values", "ring,star,complete", "--out", out])
        assert code == 0
        with open(os.path.join(out, "sweep_summary.json")) as fh:
            combined = json.load(fh)
        assert combined["param"] == "graph"
        assert [r["value"] for r in combined["runs"]] == ["ring", "star", "complete"]
        assert all(r["total_events"] > 0 for r in combined["runs"])
        for r in combined["runs"]:
            assert os.path.exists(os.path.join(r["directory"], "summary.json"))

    def test_mu_sweep_runs_each_value(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["sim"]["t_end"] = 1.0
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "musweep")
        assert main(["sweep", path, "--param", "protocol.mu",
                     "--values", "1,2,4", "--out", out]) == 0
        with open(os.path.join(out, "sweep_summary.json")) as fh:
            combined = json.load(fh)
        assert [r["value"] for r in combined["runs"]] == [1, 2, 4]
        assert all(r["zeno_verdict"] == "ok" for r in combined["runs"])

    def test_empty_values_exit_2(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["sweep", path, "--param", "protocol.mu", "--values", ""]) == 2

    def test_bad_param_path_exit_2(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["sweep", path, "--param", "protocol.zeta",
                     "--values", "1,2"]) == 2


@pytest.mark.parametrize("directory", ["configs", os.path.join("perfbench", "configs")])
def test_shipped_configs_parse(directory):
    paths = sorted(glob.glob(os.path.join(REPO, directory, "*.json")))
    assert len(paths) == 6
    for path in paths:
        setup = RunSetup(load_config(path))
        assert setup.sim.t_end > 0, path
