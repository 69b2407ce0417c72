"""Texts of numbers for the CLI writers, in numpy array passes:
format(x, ".17g") of doubles and str(n) of positive integers, byte for
byte, each in a NUL-padded cell of a byte matrix.  The CLI imports this
module on its first write, so `verify` and `params` never load it.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["TEXT_WIDTH", "float_texts", "int_texts"]


# "%.17g" in numpy array passes.  For finite x with 1e-270 <= |x| <= 1e270
# and k = floor(log10 |x|), the 17 significant digits of format(x, ".17g")
# are the integer D nearest to |x| 10^(16-k), which lies in [1e16, 1e17).
# The product is taken as a double-double: hi + lo is 10^(16-k) to a
# relative 2^-107, Dekker's exact two-product (1971) gives |x| hi as p plus
# an exact error term, and |x| lo joins that term.  The sum is good to about
# 5e-15 absolute: |x| lo is below 11 and the term sum below 19, so their
# roundings are at most 11 and 19 times 2^-53, and the error of hi + lo
# adds 1e17 2^-107.  D is therefore exact unless the fraction lies within
# 1e-9 of one half, a window wider than the error by five orders of
# magnitude.  Those near-ties, the exact 18-digit ties among them, NaN, the
# infinities and the values outside that range, where the split could
# overflow or lose bits, go to format() one at a time.
_POW10_MIN, _POW10_MAX = -260, 290   # 16 - k over that range, with room to spare
_SPLIT = 134217729.0   # 2^27 + 1: splits a double into two halves of 26 bits
# A text's cell, with NUL in the bytes a text leaves out: the sign at byte
# 0 and digits 2..17 at 7..22.  "%.17g" writes exponents -4..16 without
# "e".  Of those, -1..-4 put "0." and up to three zeros at 1..5 and the
# first digit at 6; the others put the first digit at 5 and the point at
# 6, or, from exponent 1 on, the integer digits at 5.. and the point after
# them.  With "e", the first digit and the point sit at 1 and 2, the other
# digits at 3..18, and "e", the exponent's sign and its digits at 19..23.
TEXT_WIDTH = 24


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hi = a * _SPLIT
    lo = hi - a
    hi -= lo
    return hi, np.subtract(a, hi, out=lo)


@functools.cache
def _pow10() -> np.ndarray:
    """Rows hi, lo and the two halves of hi, where hi + lo = 10^e for e in
    [_POW10_MIN, _POW10_MAX] to 2^-107: hi and lo are the correctly rounded
    quotients of Python ints."""
    hi, lo = [], []
    for e in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    table = np.stack([hi, np.array(lo), *_split(hi)])
    table.setflags(write=False)
    return table


@functools.cache
def _digit_words() -> np.ndarray:
    """The texts of 0..9999 as four bytes each, viewed as uint32: in full
    (rows 0..9999), with trailing zeros as NULs (rows 10000..19999) and
    with leading zeros as NULs (rows 20000..29999); 0 is four NULs in
    both of the latter.  Rows 30000..30004 hold "", "0.", "0.0", "0.00"
    and "0.00", the bytes 1..4 of a prefix."""
    d = np.arange(10000, dtype=np.int16)[:, None]
    scale = np.array([1000, 100, 10, 1], np.int16)
    full = (d // scale % 10 + ord("0")).astype(np.uint8)
    trailing = np.where(d % (10 * scale) == 0, 0, full)
    leading = np.where(d < scale, 0, full)
    prefixes = np.frombuffer(b"\0\0\0\0" b"0.\0\0" b"0.0\0" b"0.00" b"0.00", np.uint8)
    words = np.concatenate([full, trailing, leading, prefixes.reshape(-1, 4)]).view(np.uint32)
    words.setflags(write=False)
    return words.ravel()


def _scaled(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|x| 10^(16-k) as p + e, p the rounded product, for 1e-270 <= |x| <= 1e270:
    e = (((x_h hi_h - p) + x_h hi_l + x_l hi_h) + x_l hi_l) + |x| lo, summed
    in place so that few temporaries are alive at once."""
    row = 16 - k - _POW10_MIN
    hi, lo, hi_h, hi_l = _pow10()
    ten = hi.take(row)
    p = ax * ten
    x_h, x_l = _split(ax)
    e = x_h * hi_h.take(row, out=ten)
    e -= p
    term = np.multiply(x_h, hi_l.take(row, out=ten), out=x_h)
    e += term
    e += np.multiply(x_l, hi_h.take(row, out=ten), out=term)
    e += np.multiply(x_l, hi_l.take(row, out=ten), out=term)
    e += np.multiply(ax, lo.take(row, out=ten), out=term)
    return p, e


def _off(p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """+1 where p + e >= 1e17, -1 where p + e < 1e16, else 0; p - 1e17 and
    p - 1e16 are exact where the sign of the sum is in doubt."""
    return (p - 1e17 + e >= 0).view(np.int8) - (p - 1e16 + e < 0).view(np.int8)


def _where(mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """np.nonzero(mask), which takes five times as long on a 2-D mask."""
    return np.unravel_index(np.flatnonzero(mask), mask.shape)


def float_texts(x: np.ndarray, cells: np.ndarray) -> None:
    """Write format(v, ".17g") for each v of the float array `x` into its
    cell of `cells`, shaped x.shape + (TEXT_WIDTH,) and NUL on entry: the
    text is the cell's bytes other than NUL, in order."""
    ax = np.abs(x)
    scaled = (ax >= 1e-270) & (ax <= 1e270)
    ax[~scaled] = 1.0
    k = np.floor(np.log10(ax)).astype(np.intp)
    p, e = _scaled(ax, k)
    # log10 can be one off next to a power of ten
    step = _off(p, e)
    redo = _where(step)
    if len(redo[0]):
        k[redo] += step[redo]
        p[redo], e[redo] = _scaled(ax[redo], k[redo])
        scaled[redo] &= _off(p[redo], e[redo]) == 0
    r = np.rint(e)
    zero = x == 0
    fast = (scaled & (np.abs(np.abs(e - r) - 0.5) > 1e-9)) | zero
    digits = p.astype(np.int64) + r.astype(np.int64)
    digits[zero] = 0
    # a block's arrays (96 kB each for 12,288 values) come from the heap,
    # whose high-water mark stays resident: drop each once it is used
    del ax, scaled, p, e, r
    # a round-up to 1e17 carries into the exponent
    top = digits == 10 ** 17
    digits[top] = 10 ** 16
    k += top
    # the leading digit and four groups of four; a group's trailing zeros
    # are NUL when all later groups are 0
    high = digits // 10 ** 8
    g34 = digits - high * 10 ** 8
    lead = high // 10 ** 8
    g12 = high - lead * 10 ** 8
    del digits, high
    g1 = g12 // 10 ** 4
    g3 = g34 // 10 ** 4
    g2 = g12 - g1 * 10 ** 4
    g4 = g34 - g3 * 10 ** 4
    del g12, g34
    words = _digit_words()
    body = cells[..., 7:23].view(np.uint32)
    strip = g4 == 0
    body[..., 3] = words.take(g4 + 10000)
    body[..., 2] = words.take(g3 + 10000 * strip)
    strip &= g3 == 0
    body[..., 1] = words.take(g2 + 10000 * strip)
    strip &= g2 == 0
    body[..., 0] = words.take(g1 + 10000 * strip)
    np.multiply(np.signbit(x), np.uint8(ord("-")), out=cells[..., 0])
    lead = (lead + ord("0")).astype(np.uint8)
    # exponents -4..-1: "0." and zeros, then the digits
    small = (k < 0) & (k >= -4)
    cells[..., 1:5].view(np.uint32)[..., 0] = words.take(30000 + small * -k)
    cells[..., 5] = np.where(small, (k == -4) * ord("0"), lead)
    # the point follows the first digit, unless no digit follows it
    cells[..., 6] = np.where(small, lead, (cells[..., 7] != 0) * ord("."))
    for X in np.flatnonzero(np.bincount(k[(k > 0) & (k <= 16)], minlength=1)):
        at = _where(k == X)
        cell = cells[at]
        # the integer digits keep their zeros
        cell[:, 6:6 + X] = cell[:, 7:7 + X] | ord("0")
        cell[:, 6 + X] = (cell[:, 7 + X] != 0) * ord(".") if X < 16 else 0
        cells[at] = cell
    at = _where(fast & ((k < -4) | (k > 16)))
    if len(at[0]):
        cell = cells[at]
        cell[:, 1:19] = cell[:, 5:23]
        cell[:, 19] = ord("e")
        cell[:, 20] = np.where(k[at] < 0, ord("-"), ord("+"))
        a = np.abs(k[at])
        cell[:, 21:] = words.take(a).view(np.uint8).reshape(-1, 4)[:, 1:]
        # at least two exponent digits
        cell[:, 21] *= a >= 100
        cells[at] = cell
    for at in zip(*_where(~fast)):
        text = format(float(x[at]), ".17g").encode()
        cells[at] = 0
        cells[at][:len(text)] = np.frombuffer(text, np.uint8)


def int_texts(values: np.ndarray, width: int) -> np.ndarray:
    """str(v) for each v of the integer array `values`, 1 <= v < 10^width,
    as the rows of a (len(values), width) byte table, right-aligned in NULs."""
    words = _digit_words()
    groups = -(-width // 4)
    table = np.empty((len(values), groups), np.uint32)
    # leading zeros are NUL up to the first nonzero group
    leading = np.full(len(values), 20000)
    for j in range(groups):
        scale = 10 ** (4 * (groups - 1 - j))
        g = values // scale
        values = values - g * scale
        table[:, j] = words.take(g + leading)
        leading[g != 0] = 0
    return np.ascontiguousarray(table.view(np.uint8)[:, 4 * groups - width:])
