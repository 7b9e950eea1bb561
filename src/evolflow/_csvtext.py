"""CSV rows of float64 fields, each field its Python `repr`, from array arithmetic.

`rows_text(table)` returns, for a float64 (R, C) table,
`"".join(",".join(map(repr, row)) + "\\r\\n" for row in table.tolist())`.
The fields go BLOCK at a time, each block one (k, 48) uint8 array of
fixed slots and one boolean compaction of it.

A field's digits come from Ryu (Adams, "Ryu: fast float-to-string
conversion", PLDI 2018) on uint64 arrays where Ryu takes its common
branch: x normal with 2^-14 <= |x| < 2^50, so that its binary exponent
e2 is negative, q = log10(5^-e2) - 1 is at least 2 and 5^i, i = -e2 - q,
fits one word, with 4 * mantissa not a multiple of 2^q (no trailing-zero
tracking), and whose decimal point p, the shortest digits d_1 ... d_k
read as 0.d_1 ... d_k x 10^p, has -4 < p, where `repr` takes positional
form (p <= 16 holds below 2^50).  There Ryu's multiplier 5^i is exact, so
its three products are floor(m 5^i / 2^q) for the interval's centre and
ends m, exactly, from 32-bit limbs.  The digits removed are the most r
with the interval's ends apart at 10^r, and the last one removed rounds.
Every other field, +-0.0, NaN, +-inf, subnormals, |x| >= 2^50, integers
and other trailing-zero cases, exponent form, takes `repr`.

A slot holds the sign, the integer part right-aligned in 16 digits, the
point, the fraction right-aligned in 20 digits (each four digits one
lookup in a table of "0000" ... "9999") and the separator; the mask keeps
what `repr` prints.  Exact only while `sys.float_repr_style` is "short",
which the caller checks.  Every integer operation is on uint64 arrays and
uint64 or Python-int operands: NumPy 1.x turns uint64 mixed with int64
into float64.
"""

from __future__ import annotations

import numpy as np

# fields a block holds: a (BLOCK, 48) slot array and its mask, 384 KB each,
# and about 30 word arrays of BLOCK entries while the digits are found (a
# block's peak is 1.8 MB, tracemalloc)
BLOCK = 8192

_MANTISSA = (1 << 52) - 1


def _exponent_tables():
    # Ryu's parameters for each biased exponent; an exponent outside the
    # common branch gets E=1072's, harmless arithmetic for a field that
    # takes `repr` anyway
    ok = np.zeros(2048, bool)
    q = np.full(2048, 2, np.uint64)
    low = np.full(2048, 3, np.uint64)
    pow5 = np.full(2048, 125, np.uint64)
    e10 = np.full(2048, -3, np.int64)
    r0 = np.full(2048, 1, np.intp)
    for b in range(1023 - 14, 1023 + 50):
        me2 = 1077 - b  # -e2: the centre 4 m sits at 4 m 2^e2
        qb = ((me2 * 732923) >> 20) - 1  # floor(me2 log10 5) - 1
        if qb < 2:
            continue
        ok[b], q[b], low[b], pow5[b], e10[b] = True, qb, (1 << qb) - 1, 5 ** (me2 - qb), qb - me2
        # the ends are at least floor(3 5^i / 2^q) apart, so at least this many digits go
        r0[b] = len(str(3 * 5 ** (me2 - qb) >> qb)) - 1
    return ok, q, 64 - q, low, pow5, e10, r0


_OK, _Q, _SHIFT, _LOW, _POW5, _E10, _R0 = _exponent_tables()
_P10 = np.array([10**k for k in range(20)], np.uint64)
_HALF = np.array([2**64 - 1, *(5 * 10 ** (k - 1) for k in range(1, 20))], np.uint64)  # nothing removed: no rounding
_d = np.arange(10000)
_DIGITS4 = (np.stack([_d // 1000, _d // 100 % 10, _d // 10 % 10, _d % 10], axis=1) + 48).astype(np.uint8)
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()  # "0000" ... "9999", one word each
del _d


def _word(text: bytes):
    return np.frombuffer(text, np.uint32)[0]


# a slot's 48 bytes: 3 free, the sign, 16 integer digits, 3 free, the point,
# 20 fraction digits, the separator (",", or "\r\n" at a row's end), 2 free
_SIGN, _POINT, _COMMA, _CRLF = _word(b"\0\0\0-"), _word(b"\0\0\0."), _word(b",\0\0\0"), _word(b"\r\n\0\0")


def _keep_tables():
    # the bytes a slot keeps: its first 24 by (sign, integer digits), its
    # last 24 by (row end, fraction digits)
    cols = np.arange(24)
    head = np.zeros((2, 17, 24), bool)
    head[1, :, 3] = True
    head[:, :, 4:20] = cols[4:20] >= 20 - np.arange(17)[:, None]
    head[:, :, 23] = True
    tail = np.zeros((2, 21, 24), bool)
    tail[:, :, :20] = cols[:20] >= 20 - np.arange(21)[:, None]
    tail[:, :, 20] = True
    tail[1, :, 21] = True
    return head.view("V24").ravel(), tail.view("V24").ravel()


_HEAD, _TAIL = _keep_tables()


def _floor_shift(hi, lo, q, shift):
    # floor((hi 2^64 + lo) / 2^q), 0 < q < 64, for a quotient below 2^64
    return (hi << shift) | (lo >> q)


def _digits(x):
    """Ryu's shortest digits of each field of x: (kernel, out, exp10) with x = out 10^exp10
    where `kernel` is true; elsewhere the values are garbage."""
    bits = x.view(np.uint64)
    mant = bits & _MANTISSA
    b = ((bits >> 52) & 0x7FF).astype(np.intp)
    q, shift, p5 = _Q[b], _SHIFT[b], _POW5[b]
    mv = (mant | (1 << 52)) << 2
    kernel = _OK[b] & ((mv & _LOW[b]) != 0)
    # mv 5^i from 32-bit limbs: mv < 2^55 and 5^i < 2^52, so no partial product wraps
    a1, a0 = mv >> 32, mv & 0xFFFFFFFF
    b1, b0 = p5 >> 32, p5 & 0xFFFFFFFF
    p00 = a0 * b0
    mid = a0 * b1 + a1 * b0 + (p00 >> 32)
    lo = (mid << 32) | (p00 & 0xFFFFFFFF)
    hi = a1 * b1 + (mid >> 32)
    vr = _floor_shift(hi, lo, q, shift)
    up = p5 << 1  # the upper end is mv + 2
    lo_p = lo + up
    vp = _floor_shift(hi + (lo_p < lo), lo_p, q, shift)
    down = p5 << (mant != 0).astype(np.uint64)  # the lower end is mv - 1 - mmShift
    lo_m = lo - down
    vm = _floor_shift(hi - (lo_m > lo), lo_m, q, shift)
    # r: the most digits whose removal keeps the ends apart.  Apart at 10^(r + 1)
    # implies apart at 10^r, so past the first round each open field's r is
    # bisected between lo, where its ends are apart, and hi, where they are
    # not: 19 to start with, since vp < 3.6e18 (the largest (2^55 + 2) 5^i / 2^q)
    r = _R0[b]
    d = _P10[r + 1]
    more = np.flatnonzero(vp // d > vm // d)
    lo, hi = r[more] + 1, np.full(more.size, 19)
    while more.size:
        mid = (lo + hi) >> 1
        d = _P10[mid]
        apart = vp[more] // d > vm[more] // d
        lo, hi = np.where(apart, mid, lo), np.where(apart, hi, mid)
        still = hi - lo > 1
        r[more] = lo
        more, lo, hi = more[still], lo[still], hi[still]
    scale = _P10[r]
    kept = vr // scale
    out = kept + ((kept == vm // scale) | (vr - kept * scale >= _HALF[r]))
    return kernel, out, _E10[b] + r


def _put(words, end, v, digits: int):
    # the last `digits` digits of each v, right-aligned in the word columns before `end`
    for col in range(end - 1, end - 1 - (digits + 3) // 4, -1):
        hi = v // 10000
        words[:, col] = _DIGITS4.take(v - hi * 10000)
        v = hi


def _block_text(x, row_end) -> bytes:
    # the text of the fields x, each followed by "\r\n" where row_end is true, else by ","
    kernel, out, exp10 = _digits(x)
    point = _P10.searchsorted(out, side="right") + exp10  # p, as `repr` places the point
    kernel &= point > -4  # positional form
    f = -exp10  # fraction digits
    scale = _P10[np.clip(f, 0, 19)]
    whole = out // scale
    frac = out - whole * scale
    whole *= _P10[np.clip(exp10, 0, 19)]
    # digits shown: at least one on each side of the point; a field that takes `repr` shows none
    shown_whole = np.where(kernel, np.maximum(point, 1), 0)
    shown_frac = np.where(kernel, np.maximum(f, 1), 0)
    slots = np.empty((len(x), 48), np.uint8)
    words = slots.view(np.uint32)
    words[:, 0] = _SIGN
    _put(words, 5, whole, int(shown_whole.max()))
    words[:, 5] = _POINT
    _put(words, 11, frac, int(shown_frac.max()))
    words[:, 11] = np.where(row_end, _CRLF, _COMMA)
    keep = np.empty((len(x), 48), bool)
    halves = keep.view("V24")
    halves[:, 0] = _HEAD.take(shown_whole + 17 * (x < 0))
    halves[:, 1] = _TAIL.take(shown_frac + 21 * row_end)
    other = np.flatnonzero(~kernel)
    if other.size:
        text = np.array(list(map(repr, x[other].tolist())), "S44").view(np.uint8).reshape(-1, 44)
        slots[other, :44] = text
        keep[other, :44] = text != 0
    return slots[keep].tobytes()


def rows_text(table) -> str:
    """The CSV text of a float64 (R, C) table: each field its `repr`, joined by ",", each row ended by "\\r\\n"."""
    R, C = table.shape
    flat = np.ascontiguousarray(table, np.float64).ravel()
    parts = []
    for start in range(0, R * C, BLOCK):
        x = flat[start:start + BLOCK]
        parts.append(_block_text(x, np.arange(start, start + len(x)) % C == C - 1))
    return b"".join(parts).decode("ascii")
