"""Exact ``'%.17g'`` text for float64 blocks, computed in numpy.

The 17 rounded digits of |v| come from y = |v| 10^(16-k), k = floor(log10
|v|), in double-double arithmetic (Dekker, Numer. Math. 18, 1971). The
error of y is below 2^-45, so only non-finite values and values whose y
lies within 2^-30 of a rounding tie go to Python's exact ``%``. At the
10^16 and 10^17 edges that decide k, either k rounds to the same digits.
"""

from __future__ import annotations

import functools

import numpy as np

_Q0 = -300  # the smallest tabled power of ten; 16 - k spans [-293, 341]
_EPS = 2.0 ** -30
_E16, _E17 = 10 ** 16, 10 ** 17
_U8, _U56 = np.uint64(8), np.uint64(56)
_word = functools.partial(int.from_bytes, byteorder="little")


@functools.cache
def _tables():
    """Columns (hi, hi's Veltkamp halves, lo, s) with 10^q ~ (hi + lo) 2^s
    to 2^-105 for q = _Q0 .. 349; four-digit groups as bytes and their
    trailing zeros; the cell layouts; the exponent suffixes."""
    powers = []
    for q in range(_Q0, 350):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        s = num.bit_length() - den.bit_length() - 108
        num, den = num << max(-s, 0), den << max(s, 0)
        a = (2 * num + den) // (2 * den)  # 10^q 2^-s rounded, 108 or 109 bits
        powers.append((float(a), float(a - int(float(a))), s))
    hi, lo, s = np.array(powers).T
    c = hi * 134217729.0
    hh = c - (c - hi)
    texts = [b"%04d" % g for g in range(10000)]
    return (np.array([hi, hh, hi - hh, lo, s]),
            np.array([_word(t) for t in texts], "<u4"),
            np.array([len(t) - len(t.rstrip(b"0")) for t in texts], np.int8), _layouts(),
            np.array([_word(b"e%+03d" % k) << 16 for k in range(-324, 309)], np.uint64))


def _layouts():
    """Per (k clipped to [-5, 17], nd significant digits, sign): the first
    word, ',' sign and "0.000" ending at byte 7 so that holes only end a
    cell; then, for each word of bytes 8-25, the masks of the bytes taken
    from the 17 digits and from the digits shifted up a byte, and the '.'."""
    def mask(lo, hi):
        return sum(0xFF << 8 * b for b in range(max(lo, 0), min(hi, 24)))

    rows = []
    for k in range(-5, 18):
        for nd in range(1, 18):
            fixed = -4 <= k < 17  # the body: p digits, '.', the rest; length bytes
            p = (17 if k < 0 else k + 1) if fixed else 1
            length = nd if fixed and k < 0 else max(p, nd + 1 if nd > p else 0)
            lead = b"0." + b"0" * (-k - 1) if fixed and k < 0 else b""
            body = (mask(0, min(p, length)), mask(p + 1, length),
                    0x2E << 8 * p if p < length else 0)
            words = [(v >> 64 * i) & (2 ** 64 - 1) for i in range(3) for v in body]
            rows += [[_word((b"," + sign + lead).rjust(8, b"\0"))] + words
                     for sign in (b"", b"-")]
    return np.array(rows, np.uint64).T.copy()


def _scaled(m, e, k):
    """floor(y) and y - floor(y) for y = m 2^e 10^(16-k)."""
    h, hh, hl, lo, s = np.take(_tables()[0], 16 - k - _Q0, axis=1)
    p = m * h
    c = m * 134217729.0
    mh = c - (c - m)
    ml = m - mh
    t = (((mh * hh - p) + mh * hl + ml * hh) + ml * hl) + m * lo
    sc = (e + s).astype(np.int32)
    yh, yl = np.ldexp(p, sc), np.ldexp(t, sc)
    fl = np.floor(yl)
    return yh.astype(np.int64) + fl.astype(np.int64), yl - fl


def _digits(x):
    """The 17 rounded digits d, the decimal exponent k and the values that
    need Python's ``%``; ±0 gives d = 0 and k = 0."""
    ax = np.abs(x)
    finite = np.isfinite(ax)
    zero = ax == 0.0
    ax[zero | ~finite] = 1.5
    m, e = np.frexp(ax)
    k = np.floor(np.log10(ax)).astype(np.int64)
    n, f = _scaled(m, e, k)
    redo = np.flatnonzero((n < _E16) | (n >= _E17))
    if redo.size:  # log10 was one off next to a power of ten
        k[redo] += np.where(n[redo] < _E16, -1, 1)
        n[redo], f[redo] = _scaled(m[redo], e[redo], k[redo])
    d = n + (f > 0.5)
    carry = d == _E17
    fallback = ~finite | (np.abs(f - 0.5) < _EPS)
    d[carry] = _E16
    k += carry
    d[zero], k[zero] = 0, 0
    return d, k, fallback


def _words(d):
    """The 17 digits of d as little-endian words (bytes 0-7, 8-15 and 16),
    the same shifted one byte up, and the count of significant digits."""
    groups, zeros = _tables()[1:3]
    hi, lo = d // 10 ** 9, d // 10 % 10 ** 8
    g = np.empty((d.size, 4), np.int64)  # digits 0-3, 4-7, 8-11 and 12-15
    g[:, 0], g[:, 2] = hi // 10 ** 4, lo // 10 ** 4
    g[:, 1], g[:, 3] = hi - g[:, 0] * 10 ** 4, lo - g[:, 2] * 10 ** 4
    last = d - d // 10 * 10
    w = np.take(groups, g).view(np.uint64)
    digits = [w[:, 0], w[:, 1], last.astype(np.uint64) + np.uint64(48)]
    shifted = [digits[0] << _U8, digits[1] << _U8 | digits[0] >> _U56,
               digits[2] << _U8 | digits[1] >> _U56]
    z = np.take(zeros, g).T
    tz = (last == 0) * (1 + z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0])))
    return digits, shifted, np.maximum(17 - tz, 1)


def cells(x) -> np.ndarray:
    """(size, width <= 32) uint8: ``',' + '%.17g' % v`` for each v in x,
    with zero bytes as holes; ',' is the first nonzero byte of each row.
    Columns that no value uses are cut."""
    x = np.asarray(x, dtype=np.float64).ravel()
    d, k, fallback = _digits(x)
    digits, shifted, nd = _words(d)
    layouts, expo = _tables()[3:]
    key = ((np.clip(k, -5, 17) + 5) * 17 + nd - 1) * 2 + np.signbit(x)
    out = np.empty((x.size, 4), "<u8")
    out[:, 0] = np.take(layouts[0], key)
    for i in range(3):
        take, take_shifted, dot = np.take(layouts[3 * i + 1:3 * i + 4], key, axis=1)
        out[:, i + 1] = (digits[i] & take) | (shifted[i] & take_shifted) | dot
    sci = np.flatnonzero((k < -4) | (k >= 17))
    out[sci, 3] |= expo[k[sci] + 324]
    text = out.view(np.uint8)
    for i in np.flatnonzero(fallback):
        s = b",%.17g" % x[i]  # at most 25 bytes
        text[i] = 0
        text[i, 7:7 + len(s)] = np.frombuffer(s, np.uint8)
    used = np.flatnonzero(np.bitwise_or.reduce(out, axis=0).view(np.uint8))
    return text[:, used.min(initial=0):used.max(initial=-1) + 1]
