"""Perturbation ensembles: behavioural equivalence that survives bit changes.

    python tests/ensemble.py REV                 # full gate, about 2.5 min on 2 cores
    python tests/ensemble.py REV --record-short  # rewrite tests/data/ensemble_short.json

A change that moves output bits cannot be checked by byte identity
(``tools/compare_outputs.py``). It is checked instead against the spread
that a 1e-12 relative nudge of one initial state already produces: member
k of an ensemble runs a config with ``x0[0, 0]`` scaled by 1 + 1e-12 k,
and ``gate`` compares the new code's ensemble with the parent's.

The full gate runs K = 12 members at full horizon on the six shipped
configs and on ``runs.UNIFORM`` (disturbance.json with a uniform-random
disturbance, which no shipped config runs), with this tree's ``src/``
and with REV's (extracted by ``git archive``) in separate processes,
prints one line per config and exits 1 when any config fails.
``--record-short`` runs the short gate's settings (three configs,
t_end = 5, K = 8) with REV's ``src/`` and writes the reference that
``tests/test_ensemble.py`` gates this tree against. Both build their
configs with ``tests/runs.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

from runs import SHIPPED, UNIFORM

TESTS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TESTS)
FULL = SHIPPED + (UNIFORM,)
FULL_K = 12
SHORT = {"configs": ("observer", "leader_follower", "switching"), "t_end": 5.0, "k": 8}
SHORT_REFERENCE = os.path.join(TESTS, "data", "ensemble_short.json")
NUDGE = 1e-12


def run_ensemble(cfg: dict, k: int) -> list[dict]:
    """The observables of K in-process runs of ``cfg``, member k with
    ``x0[0, 0]`` scaled by 1 + 1e-12 k."""
    # imported here, so that the process running ``main`` needs no etcons
    from etcons import analysis
    from etcons.cli import RunSetup

    out = []
    for member in range(k):
        setup = RunSetup(cfg)
        setup.x0[0, 0] *= 1.0 + NUDGE * member
        traj, _ = setup.run()
        zeno = analysis.zeno_report(traj)
        out.append({
            "triggers": sum(e.kind == "trigger" for e in traj.events),
            "final_error": analysis.final_error_norm(traj),
            "verdict": "ok" if zeno.verdict else "violated",
            "min_margin": zeno.min_margin,
            "min_interval": zeno.min_interval,
            "invariance_deviation": analysis.invariance_deviation(traj),
            "max_weight": traj.max_weight,
        })
    return out


def _digits(x) -> str:
    return "none" if x is None else f"{x:.3e}"


def _span(values) -> str:
    """``min_interval`` values to 4 digits: the one value, or the range."""
    digits = set(map(_digits, values))
    if len(digits) == 1:
        return digits.pop()
    if None in values:
        return "/".join(sorted(digits))
    return f"{_digits(min(values))}..{_digits(max(values))}"


def gate(parent: list[dict], new: list[dict]) -> list[str]:
    """The rules the ``new`` ensemble breaks against ``parent``; empty
    when it passes.

    * every verdict of both ensembles is the same;
    * the trigger-count medians differ by less than the parent's
      interquartile range, or are equal where that range is 0;
    * ``min_interval`` agrees to 4 significant digits where the parent's
      members give one value to 4 digits; where they vary, the two ranges
      overlap. (Ranges a few ulps wide would not overlap after any bit
      change.)
    """
    broken = []
    verdicts = {r["verdict"] for r in parent + new}
    if len(verdicts) > 1:
        broken.append(f"verdicts differ: {sorted(verdicts)}")
    p_trig = [r["triggers"] for r in parent]
    shift = abs(float(np.median([r["triggers"] for r in new])) - float(np.median(p_trig)))
    iqr = float(np.subtract(*np.percentile(p_trig, [75, 25])))
    if not (shift < iqr or shift == iqr == 0):
        broken.append(f"trigger median moved by {shift:g} (parent IQR {iqr:g})")
    p_min = [r["min_interval"] for r in parent]
    n_min = [r["min_interval"] for r in new]
    if len(set(map(_digits, p_min))) == 1:
        same = set(map(_digits, n_min)) == {_digits(p_min[0])}
    else:
        same = (None not in p_min + n_min
                and min(p_min) <= max(n_min) and min(n_min) <= max(p_min))
    if not same:
        broken.append(f"min_interval {_span(n_min)} does not match parent {_span(p_min)}")
    return broken


def spread(ensemble: list[dict]) -> str:
    """One line on an ensemble: trigger range, median and IQR, and the
    min_interval range."""
    trig = [r["triggers"] for r in ensemble]
    q1, med, q3 = np.percentile(trig, [25, 50, 75])
    return (f"triggers {min(trig)}..{max(trig)} median {med:g} IQR {q3 - q1:g}, "
            f"min_interval {_span([r['min_interval'] for r in ensemble])}")


def _child(src: str, name: str, k: int, **sim) -> subprocess.Popen:
    """A process printing ``run_ensemble``'s JSON for ``runs.named(name,
    **sim)`` with the etcons package under ``src``."""
    code = ("import json, sys, ensemble, runs; json.dump(ensemble.run_ensemble("
            f"runs.named({name!r}, **{sim!r}), {k}), sys.stdout)")
    return subprocess.Popen([sys.executable, "-c", code], cwd=TESTS,
                            env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, TESTS])),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _collect(procs: list[subprocess.Popen]) -> list[list[dict]]:
    """Each process's ensemble, after all of them have ended."""
    outs = [p.communicate() for p in procs]
    for p, (_, err) in zip(procs, outs):
        if p.returncode:
            raise RuntimeError((err.strip().splitlines() or ["no output"])[-1])
    return [json.loads(out) for out, _ in outs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision of the parent, e.g. HEAD~1")
    parser.add_argument("--record-short", action="store_true",
                        help=f"write REV's short-gate ensembles to {SHORT_REFERENCE}")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(REPO, "tools"))
    from compare_outputs import _extract_src

    with tempfile.TemporaryDirectory(prefix="ensemble_") as tmp:
        rev_src = _extract_src(args.rev, tmp)
        if args.record_short:
            procs = [_child(rev_src, name, SHORT["k"], t_end=SHORT["t_end"])
                     for name in SHORT["configs"]]
            rev = subprocess.run(["git", "-C", REPO, "rev-parse", "--short", args.rev],
                                 check=True, capture_output=True, text=True).stdout.strip()
            record = dict(SHORT, rev=rev,
                          ensembles=dict(zip(SHORT["configs"], _collect(procs))))
            with open(SHORT_REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
            return 0
        failed = False
        for name in FULL:
            procs = [_child(src, name, FULL_K)
                     for src in (rev_src, os.path.join(REPO, "src"))]
            try:
                parent, new = _collect(procs)
            except RuntimeError as exc:
                failed = True
                print(f"{name:26s} FAILED to run: {exc}", flush=True)
                continue
            broken = gate(parent, new)
            failed |= bool(broken)
            verdict = "FAIL " + "; ".join(broken) if broken else "pass"
            print(f"{name:26s} {verdict} | parent {spread(parent)} | new {spread(new)}",
                  flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
