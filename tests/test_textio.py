"""The vectorized ``%.17g`` formatter against Python's own ``'%.17g' %``."""

import os
import subprocess
import sys

import numpy as np
import pytest

import etcons
from etcons.textio import _digits, cells


def _text(values) -> str:
    c = cells(values)
    return c[c != 0].tobytes().decode()


def _want(values) -> str:
    return "".join("," + "%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist())


def _assert_formats_like_percent(values):
    values = np.asarray(values, dtype=np.float64)
    got, want = _text(values), _want(values)
    if got != want:
        bad = [(v.hex(), g, w) for v, g, w in zip(values.tolist(), got.split(",")[1:],
                                                  want.split(",")[1:]) if g != w]
        pytest.fail(f"{len(bad)} values differ, first ones (value, got, want): {bad[:5]}")


def test_random_bit_patterns():
    bits = np.random.default_rng(20240601).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    _assert_formats_like_percent(bits.view(np.float64))


def test_zeros_infinities_and_nans_of_either_sign():
    nan_bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFF0000000000001], dtype=np.uint64)
    values = np.concatenate([[0.0, -0.0, np.inf, -np.inf], nan_bits.view(np.float64)])
    assert np.signbit(values).tolist() == [False, True, False, True, False, True, False, True]
    _assert_formats_like_percent(values)
    # ±0 take the vector path; only the non-finite values fall back
    assert _digits(values)[2].tolist() == [False] * 2 + [True] * 6


def test_subnormals_down_to_the_smallest():
    bits = np.concatenate([np.arange(1, 5000), np.arange(2**52 - 5000, 2**52 + 5000),
                           np.random.default_rng(3).integers(1, 2**52, 20_000)]).astype(np.uint64)
    values = bits.view(np.float64)
    assert values.min() == 5e-324
    _assert_formats_like_percent(np.concatenate([values, -values]))


def test_every_power_of_ten_and_its_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [powers]
    for direction in (np.inf, 0.0):
        step = powers
        for _ in range(2):
            step = np.nextafter(step, direction)
            near.append(step)
    values = np.concatenate(near)
    _assert_formats_like_percent(np.concatenate([values, -values]))


def test_exact_decimal_ties():
    below = np.arange(2**53 - 2000, 2**53, dtype=np.float64) / 4  # n/4: ties at .25 and .75
    values = np.concatenate([[1234567890123456.75, 1234567890123456.25, 0.5, 2.5e-7], below])
    _assert_formats_like_percent(np.concatenate([values, -values]))


def test_notation_switches():
    edges = np.array([1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 9.9999999999999999e16,
                      99999999999999984.0, 1e-4 * (1 - 2**-52), 0.1, 1.0, 10.0, 123456.0])
    values = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    _assert_formats_like_percent(np.concatenate([values, -values]))
    assert _text([1e-5, 1e-4, 1e16, 1e17]) == ",1.0000000000000001e-05,0.0001,10000000000000000,1e+17"


def test_values_a_simulation_writes():
    rng = np.random.default_rng(11)
    values = np.concatenate([np.arange(0, 30001) * 1e-3,  # grid times
                             rng.normal(size=100_000) * 10.0 ** rng.integers(-12, 4, 100_000)])
    _assert_formats_like_percent(values)
    assert not _digits(values)[2].any()


def test_exact_powers_of_ten_take_the_vector_path():
    # y = 10^16 exactly: the edge where k is decided
    values = np.array([1.0, 10.0, 1e22, 1e-1, 1e23, 99999999999999999e-16])
    _assert_formats_like_percent(values)
    assert not _digits(values)[2].any()


def test_importing_the_cli_builds_no_table():
    src = os.path.dirname(os.path.dirname(os.path.abspath(etcons.__file__)))
    code = ("import etcons.cli, etcons.textio\n"
            "assert etcons.textio._tables.cache_info().currsize == 0\n"
            "etcons.textio.cells([1.5])\n"
            "assert etcons.textio._tables.cache_info().currsize == 1\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
