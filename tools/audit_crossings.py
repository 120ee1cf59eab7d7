"""Sampled audit of the crossings a run's event detection may have missed.

    python tools/audit_crossings.py CONFIG [--t-end T] [--dt DT] [--points K]

Runs CONFIG (an ``etcons run`` config, its sim keys replaced by ``--t-end``
and ``--dt`` as ``tests/runs.py:override`` replaces them) in process with
this tree's ``src/`` and evaluates the whole closed form at K interior points (default
7) of every step between two stored rows of the run's trajectory, the
localized steps (t0, t*] included, each from the stored row at the step's
start (``tests/oracles.py:audit_crossings``). Prints the steps audited, the
steps whose largest interior trigger value reaches 0 (missed crossings)
and the smallest interior margin, and exits 1 when any step missed a
crossing.
"""

from __future__ import annotations

import argparse
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "tests")]

from etcons.cli import RunSetup, load_config  # noqa: E402
from oracles import audit_crossings  # noqa: E402
from runs import override  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--t-end", type=float, help="shorten the horizon to T")
    parser.add_argument("--dt", type=float, help="run on a grid of step DT")
    parser.add_argument("--points", type=int, default=7, help="interior points per step")
    args = parser.parse_args(argv)
    sim = {k: v for k, v in (("t_end", args.t_end), ("dt", args.dt)) if v is not None}
    cfg = override(load_config(args.config), **sim)
    audit = audit_crossings(RunSetup(cfg).run()[0], args.points)
    print(f"{os.path.basename(args.config)}: {audit['steps']} steps audited, "
          f"{audit['missed']} missed crossings, smallest interior margin "
          f"{-audit['max_f']:.3e}")
    return 1 if audit["missed"] else 0


if __name__ == "__main__":
    sys.exit(main())
