"""``locate_event`` against plain bisection, bit for bit.

The localizer takes bisection's midpoints but reads a midpoint's sign off
an Illinois bracket when it can, so on a function with one sign change in
the bracket it must return bisection's upper end exactly. Drawn: monotone
cubics, evaluated so that their sign is exact, and RK4 continuous
extensions with stages close enough to keep them monotone, on random
brackets and tolerances down to below the float spacing.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from etcons.cli import RunSetup
from etcons.engine import locate_event
from oracles import bisect_event, rk4_extension
from runs import SHIPPED, named

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def brackets(draw):
    """(t_lo, t_hi, event_tol) with a tolerance from a third of the bracket
    down to below the spacing of floats near t_hi."""
    t_lo = draw(st.floats(-1e3, 1e3, **finite))
    width = draw(st.floats(1e-9, 10.0, **finite))
    tol = width * 10.0 ** -draw(st.floats(0.5, 20.0, **finite))
    return t_lo, t_lo + width, tol


@st.composite
def cubics(draw):
    """f(t) = u (beta + u (gamma + alpha u)), u = t - r: the factor in
    brackets is positive (gamma^2 < alpha beta), so f has the sign of the
    rounded u, which only changes sign at r."""
    t_lo, t_hi, tol = draw(brackets())
    r = draw(st.floats(t_lo, t_hi, exclude_min=True, **finite))
    alpha, beta = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    gamma = draw(st.floats(-0.99, 0.99)) * math.sqrt(alpha * beta)

    def f(t):
        u = t - r
        return u * (beta + u * (gamma + alpha * u))

    return f, t_lo, t_hi, tol


@st.composite
def extensions(draw):
    """g(t) on RK4's extension of a scalar step from y0 < 0 over [t_lo, t_hi]
    whose stages differ from k by at most 30%: g' > 0.1 k h."""
    t_lo, t_hi, tol = draw(brackets())
    h = t_hi - t_lo
    k = draw(st.floats(1e-2, 1e2))
    stages = [k * (1 + draw(st.floats(-0.3, 0.3))) for _ in range(4)]
    y0 = -k * h * draw(st.floats(0.05, 0.95))
    if rk4_extension(y0, h, stages, 1.0) < 0:
        y0 = -0.5 * rk4_extension(0.0, h, stages, 1.0)

    def g(t):
        return rk4_extension(y0, h, stages, (t - t_lo) / h)

    return g, t_lo, t_hi, tol


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(cubics(), extensions()))
def test_returns_bisections_time_bit_for_bit(case):
    f, t_lo, t_hi, tol = case
    assume(f(t_lo) < 0 <= f(t_hi))
    assert locate_event(f, t_lo, t_hi, tol) == bisect_event(f, t_lo, t_hi, tol)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cubics())
def test_given_ends_are_never_evaluated(case):
    f, t_lo, t_hi, tol = case
    f_lo, f_hi = f(t_lo), f(t_hi)
    assume(f_lo < 0 <= f_hi)
    asked = []

    def inner(t):
        asked.append(t)
        return f(t)

    t = locate_event(inner, t_lo, t_hi, tol, f_lo, f_hi)
    assert t_lo not in asked and t_hi not in asked
    assert t == bisect_event(f, t_lo, t_hi, tol, f_lo, f_hi)


@pytest.mark.parametrize("name", SHIPPED)
def test_few_evaluations_per_localization(name):
    """Plain bisection took 15 per localization on every shipped config."""
    stats = RunSetup(named(name, t_end=2.0)).run()[0].stats
    assert 0 < stats.localization_evaluations <= 6 * stats.localizations
