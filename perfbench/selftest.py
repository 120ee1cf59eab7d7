"""Self-test of the benchmark itself; takes a few seconds.

Run from the repository root:

    python3 perfbench/selftest.py

It runs the small ``smoke`` workload untraced and traced and checks that
the result line names every metric of BENCHMARK.json with its unit, that
the report prints every end-to-end metric by name with its unit, that
``simulate`` is accounted for by its self time plus its child spans, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(trace: int, declared: list[dict]) -> list[str]:
    proc = bench("--workload", "smoke", "--seed", "7", "--seconds", "1",
                 "--trace", str(trace))
    if proc.returncode != 0:
        return [f"trace {trace}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"trace {trace}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        errors.append(f"trace {trace}: run not correct: {lines[-1][:300]}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        errors.append(f"trace {trace}: missing {sorted(set(want) - set(metrics))}, "
                      f"undeclared {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            errors.append(f"trace {trace}: {name} printed as {got}, declared unit {unit}")
    report = "\n".join(lines[:-1])
    for name, unit in {**run.END_TO_END, **run.REPORT_ONLY}.items():
        if not any(line.split()[:1] == [name] and f" {unit}" in line
                   for line in report.splitlines()):
            errors.append(f"trace {trace}: report lacks end-to-end metric {name} [{unit}]")
    if trace:
        sim = metrics["engine.simulate_s"]["value"]
        parts = metrics["engine.self_s"]["value"] + metrics["engine.children_s"]["value"]
        if not (sim > 0 and abs(sim - parts) <= 1e-9 * sim):
            errors.append(f"self + children = {parts} but simulate = {sim}")
        if metrics["trace.absent_hooks"]["value"] != 0:
            errors.append("some hooks found no target: " + report.splitlines()[-1])
    return errors


def check_refuses_without_sources() -> list[str]:
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "smoke", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(run.WORK_ROOT)
        except OSError:
            pass
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["ran without the program's sources"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = check_run(0, spec["end_to_end"]) + check_run(1, spec["per_layer"])
    errors += check_refuses_without_sources()
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
