"""The perturbation-ensemble gate: its rules on synthetic ensembles, and
the short gate of this tree against a recorded reference.

The reference, ``tests/data/ensemble_short.json``, holds ensembles of the
short settings recorded with an earlier revision's ``src/`` (its ``rev``
field) by ``python tests/ensemble.py REV --record-short``.
"""

import json
import math

import pytest

from ensemble import SHORT_REFERENCE, gate, run_ensemble
from runs import named

with open(SHORT_REFERENCE, encoding="utf-8") as fh:
    REFERENCE = json.load(fh)


@pytest.mark.parametrize("name", REFERENCE["configs"])
def test_short_gate(name):
    new = run_ensemble(named(name, t_end=REFERENCE["t_end"]), REFERENCE["k"])
    assert gate(REFERENCE["ensembles"][name], new) == []


def ensemble(triggers, min_intervals=None, verdicts=None):
    min_intervals = min_intervals or [0.1] * len(triggers)
    verdicts = verdicts or ["ok"] * len(triggers)
    return [{"triggers": t, "min_interval": m, "verdict": v}
            for t, m, v in zip(triggers, min_intervals, verdicts)]


class TestGateRules:
    # triggers with median 102 and interquartile range 4 (101..105)
    TRIGGERS = [100, 101, 101, 102, 102, 105, 105, 106]

    def test_identical_ensembles_pass(self):
        for e in (ensemble(self.TRIGGERS),
                  ensemble([7] * 4, [0.2, 0.25, 0.3, 0.2]),
                  ensemble([3] * 3, [None] * 3)):
            assert gate(e, e) == []

    def test_flipped_verdict_fails(self):
        parent = ensemble(self.TRIGGERS)
        new = ensemble(self.TRIGGERS, verdicts=["ok"] * 7 + ["violated"])
        assert [r for r in gate(parent, new) if r.startswith("verdicts")]

    def test_median_shifted_by_the_iqr_fails(self):
        parent = ensemble(self.TRIGGERS)
        assert gate(parent, ensemble([t + 3 for t in self.TRIGGERS])) == []
        for shift in (4, -4):
            broken = gate(parent, ensemble([t + shift for t in self.TRIGGERS]))
            assert [r for r in broken if r.startswith("trigger median")]

    def test_median_shift_fails_where_the_iqr_is_zero(self):
        parent = ensemble([50] * 8)
        assert gate(parent, ensemble([49, 50, 50, 51])) == []
        assert gate(parent, ensemble([50, 50, 51, 51])) != []

    def test_differing_single_min_interval_fails(self):
        parent = ensemble([5] * 4, [0.09673] * 4)
        assert gate(parent, ensemble([5] * 4, [0.096731] * 4)) == []
        # values ulps apart are one value, not a range that must overlap
        ulps = ensemble([5] * 2, [0.0425512, math.nextafter(0.0425512, 1.0)])
        assert gate(ulps, ensemble([5] * 2, [0.0425513] * 2)) == []
        broken = gate(parent, ensemble([5] * 4, [0.09673] * 3 + [0.09681]))
        assert [r for r in broken if r.startswith("min_interval")]

    def test_disjoint_min_interval_ranges_fail(self):
        parent = ensemble([5] * 4, [0.05, 0.06, 0.06, 0.07])
        assert gate(parent, ensemble([5] * 4, [0.065, 0.08, 0.08, 0.09])) == []
        for new in ([0.071, 0.08, 0.08, 0.09], [0.06, 0.06, None, 0.07]):
            broken = gate(parent, ensemble([5] * 4, new))
            assert [r for r in broken if r.startswith("min_interval")]
