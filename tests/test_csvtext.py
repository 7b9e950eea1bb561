"""`_csvtext.rows_text` against the per-field `repr` reference, field for field.

The kernel takes Ryu's digits only in its window (normal, 2^-14 <= |x| <
2^50, no trailing-zero tracking, positional form); every other field is
`repr`'s own.  The random patterns cover the whole float64 range, three
quarters of them drawn inside the window's exponents and their neighbours; the special set holds every power
of two, integers to 2^54, k * 10^-3 grids and the neighbours of each place
where `repr` changes notation.
"""

import math
import sys

import numpy as np
import pytest

from evolflow import _csvtext, cli
from evolflow._csvtext import rows_text
from oracles import per_row_samples_csv


def reference(table):
    return "".join(",".join(map(repr, row)) + "\r\n" for row in table.tolist())


def assert_rows_equal(table):
    got, want = rows_text(table), reference(table)
    if got != want:  # name the first field that differs
        for x, g, w in zip(table.ravel().tolist(), got.replace("\r\n", ",").split(","),
                           want.replace("\r\n", ",").split(",")):
            assert g == w, f"{x!r} ({x.hex()}): {g!r}, repr {w!r}"
        assert got == want


def patterns(bits):
    x = bits.view(np.float64)
    return x[np.isfinite(x)]


def test_rows_text_equals_repr_on_a_million_random_bit_patterns():
    rng = np.random.default_rng(20181)
    # repr of a field far from 1 takes microseconds, so most patterns are drawn near the window
    anywhere = patterns(rng.integers(0, 2**64, size=250_000, dtype=np.uint64, endpoint=False))
    mantissa = rng.integers(0, 2**52, size=750_000, dtype=np.uint64)
    exponent = rng.integers(1023 - 16, 1023 + 54, size=750_000).astype(np.uint64)
    sign = rng.integers(0, 2, size=750_000).astype(np.uint64)
    window = patterns((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa)
    assert anywhere.size + window.size >= 999_000
    for x, columns in ((anywhere, 7), (window, 11)):  # rows that straddle the blocks
        assert_rows_equal(x[: x.size // columns * columns].reshape(-1, columns))


def neighbours(values, ulps=3):
    out = []
    for v in values:
        up = down = v
        out.append(v)
        for _ in range(ulps):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
            out += [up, down]
    return out


def special_values():
    powers = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    integers = [*range(0, 10_001), *(2**k + d for k in range(14, 55) for d in (-3, -1, 0, 1, 3))]
    grid = [k * 1e-3 for k in range(-3000, 3001)] + [k / 1000 for k in range(-3000, 3001)]
    turns = neighbours([1e-5, 1e-4, 1e15, 1e16, 1e17, 2.0**-14, 2.0**50, 2.0**53, 0.1, 0.5, 9.5, 99.5, 0.3])
    ends = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308, sys.float_info.max]
    values = [*powers, *map(float, integers), *grid, *turns, *ends]
    return values + [-v for v in values]


def test_rows_text_equals_repr_on_the_special_set():
    x = np.array(special_values())
    assert_rows_equal(x[: x.size // 5 * 5].reshape(-1, 5))
    assert_rows_equal(x.reshape(-1, 1))


@pytest.mark.parametrize("shape", [(1, 1), (1, _csvtext.BLOCK + 5), (3, _csvtext.BLOCK // 2 + 1), (_csvtext.BLOCK, 1)],
                         ids=["one-field", "a-row-over-a-block", "rows-across-blocks", "one-column"])
def test_row_ends_fall_where_the_rows_end(shape):
    rng = np.random.default_rng(7)
    assert_rows_equal(rng.normal(size=shape) * 10.0 ** rng.integers(-6, 18, size=shape))


def test_the_window_keeps_ryus_products_in_one_word():
    # the ends of each exponent's interval, floor(m 5^i / 2^q), stay below 10^19 and
    # are at least 10^r0 apart, the digits the digit search starts from
    for b in np.flatnonzero(_csvtext._OK).tolist():
        q, p5, r0 = int(_csvtext._Q[b]), int(_csvtext._POW5[b]), int(_csvtext._R0[b])
        assert q >= 2 and p5 < 2**52 and int(_csvtext._SHIFT[b]) == 64 - q
        assert ((2**55 + 2) * p5) >> q < 10**19  # so the search never divides by more than 10^19
        assert (3 * p5) >> q >= 10**r0
        assert int(_csvtext._E10[b]) == -round(math.log(p5, 5))


def test_the_csv_writer_joins_str_when_float_repr_is_not_short(tmp_path, monkeypatch):
    # the kernel's digits are the short repr's: without it, every field's str
    monkeypatch.setattr(sys, "float_repr_style", "legacy")
    monkeypatch.setattr(_csvtext, "rows_text", None)
    mats = np.random.default_rng(3).normal(size=(4, 2, 2))
    times, columns = [0.0, 0.1, 0.2, 0.3], {"det": np.linalg.det(mats).tolist()}
    cli._write_samples_csv(tmp_path / "a.csv", times, mats, columns)
    per_row_samples_csv(tmp_path / "b.csv", times, mats, columns)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def removed_digits(x):
    # the digits the kernel removes from each field it takes: x = out 10^(e10 + r), e10 its exponent's
    kernel, _, exp10 = _csvtext._digits(x)
    b = ((x.view(np.uint64) >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.intp)
    return (exp10 - _csvtext._E10[b])[kernel]


def test_every_count_of_removed_digits_prints_as_repr():
    # the search for r bisects past its first round: each count from 1 (the window's least,
    # `_R0`) to 18 must come out as `repr` does, as must the time columns of a march
    rng = np.random.default_rng(16)
    kept = [float(f"{v:.{s}g}") for s in range(1, 18)
            for v in rng.uniform(-1.0, 1.0, 400) * 10.0 ** rng.integers(-4, 15, 400)]
    times = [k * 1e-3 for k in range(-4000, 4001)] + [k * 1e-4 for k in range(-20000, 20001)]
    x = np.array(kept + times)
    assert set(removed_digits(x).tolist()) == set(range(1, 19))
    assert int(_csvtext._R0[_csvtext._OK].min()) == 1
    assert_rows_equal(x.reshape(-1, 1))
    assert_rows_equal(x[: x.size // 18 * 18].reshape(-1, 18))
