"""The blocked generator evaluation behind marching and Simpson quadrature.

`march`, `integrate_right` and the `Numeric` table take their RK4 steps a
block at a time, reading the generator from `_stepper.tabulate` at each
block's distinct times and taking the block's propagators from one stacked
`rk4_step` call; `commuting_magnus` sums its Simpson nodes a block at a
time.  The references (`oracles.per_step_march` and
`oracles.reference_magnus`) evaluate the generator one call at a time through
`checked_generator`: four calls per RK4 step and one per Simpson node.
The blocks must give the same bytes and raise the same errors.  The step's
propagator form A @ P rounds differently from the A form it replaced
(`oracles.a_form_rk4_step`); the two must agree to rounding, and RK4 must
converge at order 4.
"""

import math
import tracemalloc

import numpy as np
import pytest

from evolflow import _stepper
from evolflow._stepper import checked_generator, rk4_step, tabulate
from evolflow.curves import AffineArg, MatrixFunction, Numeric, Poly
from evolflow.errors import DimensionMismatch, NonFiniteGenerator
from evolflow.flows import IntegratorConfig, commuting_magnus, integrate_right, march
from evolflow.matcore import frob_norm
from oracles import a_form_rk4_step, per_step_march, reference_magnus

H, T = 0.03, 1.37  # h does not divide the horizon: the last step is short


def assert_same_bytes(got, want):
    got, want = np.stack(got), np.stack(want)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def generators(n=3, seed=11, complex_terms=False):
    """A multi-term MatrixFunction and a plain lambda wrapping it."""
    rng = np.random.default_rng(seed)

    def matrix():
        M = rng.normal(size=(n, n))
        return M + 1j * rng.normal(size=(n, n)) if complex_terms else M

    mf = MatrixFunction([
        (AffineArg("cos", 1.7, 0.2), matrix()),
        (AffineArg("exp", -0.6, 0.1), matrix()),
        (Poly((0.3, -1.1, 0.4)), matrix()),
    ])
    return {"matrix_function": mf, "lambda": lambda t: mf(t)}


@pytest.fixture(params=["matrix_function", "lambda"])
def fun(request):
    return generators()[request.param]


# ---------------------------------------------------------------------------
# bit identity


@pytest.mark.parametrize("ts", [[0.0, 0.25, -1.3, 2.0], [], [0.5]])
@pytest.mark.parametrize("complex_terms", [False, True])
def test_matrix_function_at_stacks_the_calls_bit_for_bit(ts, complex_terms):
    mf = generators(complex_terms=complex_terms)["matrix_function"]
    stack = mf.at(ts)
    assert stack.shape == (len(ts), 3, 3)
    for t, X in zip(ts, stack):
        assert X.tobytes() == mf(t).tobytes()


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_march_is_bit_identical_to_the_per_step_loop(fun, direction):
    A0 = np.eye(3) + 0.1 * np.arange(9.0).reshape(3, 3)
    ts, ms = march(fun, A0, H, T, direction)
    want_ts, want_ms = per_step_march(fun, A0, H, T, direction)
    assert ts == want_ts
    assert_same_bytes(ms, want_ms)


def test_integrate_right_is_bit_identical_to_the_per_step_loop(fun):
    A0 = np.eye(3) - 0.2
    line = integrate_right(fun, A0, IntegratorConfig(H, T))
    want_ts, want_ms = per_step_march(fun, A0, H, T, 1.0)
    assert line.times() == want_ts
    assert_same_bytes([M for _, M in line.samples], want_ms)


def test_complex_march_is_bit_identical():
    mf = generators(complex_terms=True)["matrix_function"]
    A0 = np.eye(3) + 0.5j
    ts, ms = march(mf, A0, H, T, 1.0)
    assert_same_bytes(ms, per_step_march(mf, A0, H, T, 1.0)[1])


def test_numeric_table_is_bit_identical_to_the_per_step_loops(fun):
    A0 = np.eye(3) + 0.05
    c = Numeric(A0, fun, h=H, horizon=T)
    fwd_t, fwd_m = per_step_march(fun, A0, H, T, 1.0)
    bwd_t, bwd_m = per_step_march(fun, A0, H, T, -1.0)
    assert np.array_equal(c._ts, np.array(bwd_t[::-1] + fwd_t[1:]))
    assert_same_bytes(c._table, bwd_m[::-1] + fwd_m[1:])


@pytest.mark.parametrize("complex_terms", [False, True])
@pytest.mark.parametrize("kind", ["matrix_function", "lambda"])
def test_numeric_value_between_nodes_is_one_checked_step_off_its_node(kind, complex_terms):
    # off a node, value(t) is one rk4_step from the stored node at or below
    # t, with the generator called through checked_generator
    fun = generators(complex_terms=complex_terms)[kind]
    A0 = np.eye(3) + 0.05
    c = Numeric(A0, fun, h=H, horizon=T)
    fwd_t, fwd_m = per_step_march(fun, A0, H, T, 1.0)
    bwd_t, bwd_m = per_step_march(fun, A0, H, T, -1.0)
    node_ts, node_ms = bwd_t[::-1] + fwd_t[1:], bwd_m[::-1] + fwd_m[1:]
    gen = checked_generator(fun, 3)
    for t in (-1.3699, -0.7777, -0.0101, 0.0004, 0.5123, 1.3699):
        assert t not in node_ts
        k = max(i for i, s in enumerate(node_ts) if s <= t)
        want = rk4_step(node_ms[k], node_ts[k], t - node_ts[k], gen)
        got = c.value(t)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("t", [0.9, -1.3])
def test_commuting_magnus_is_bit_identical(t):
    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    two_terms = MatrixFunction([(AffineArg("cos", 1.3), Q), (Poly((0.2, 0.0, 0.5)), Q @ Q)])
    A0 = np.array([[1.0, 0.3], [0.2, 1.1]])
    for fun in (two_terms, lambda s: two_terms(s), MatrixFunction([(AffineArg("sin", 3.0), Q)])):
        got = commuting_magnus(fun, A0, t)
        assert got.tobytes() == reference_magnus(fun, A0, t).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("complex_terms", [False, True])
def test_one_stacked_step_equals_its_per_slice_calls(n, complex_terms):
    mf = generators(n=n, seed=n, complex_terms=complex_terms)["matrix_function"]
    rng = np.random.default_rng(n)
    t = rng.uniform(-2.0, 2.0, size=(40, 1, 1))
    h = rng.uniform(-0.1, 0.1, size=(40, 1, 1))
    for A in (np.eye(n), np.eye(n) + 0.1 * rng.normal(size=(n, n))):
        P = rk4_step(A, t, h, lambda s: mf.at(s.ravel().tolist()))
        assert P.shape == (40, n, n)
        for k in range(40):
            assert P[k].tobytes() == rk4_step(A, float(t[k, 0, 0]), float(h[k, 0, 0]), mf).tobytes()


def real_then_complex(t):
    X = np.array([[0.1, 1.0], [-1.0, 0.2]])
    return X if t < 0.5 else X + 0.3j * np.eye(2)


def complex_then_real(t):
    return real_then_complex(1.0 - t)


def int_then_float(t):
    X = np.array([[0, 1], [-1, 0]])
    return X if t < 0.5 else X + 0.1


def float32_then_float64(t):
    X = np.array([[0.1, 1.0], [-1.0, 0.2]])
    return X.astype(np.float32) if t < 0.5 else X


@pytest.mark.parametrize("fun", [real_then_complex, complex_then_real, int_then_float,
                                 float32_then_float64])
def test_a_block_of_mixed_dtypes_steps_as_the_per_step_loop(fun):
    # one block holds every step: a step stacked with its neighbours' values
    # would take their dtype (a real step upcast to complex)
    ts, ms = march(fun, np.eye(2), 1e-2, 1.0, 1.0)
    want_ts, want_ms = per_step_march(fun, np.eye(2), 1e-2, 1.0, 1.0)
    assert ts == want_ts and len(ms) == 101
    assert [M.dtype for M in ms] == [W.dtype for W in want_ms]
    assert [M.tobytes() for M in ms] == [W.tobytes() for W in want_ms]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("M", [[[0.0, 1.0], [-1.0, 0.0]], [[1.0, 2.0], [3.0, 4.0]], [[2.0, 0.0], [0.0, -1.0]]])
@pytest.mark.parametrize("scale", [1e60, 1e100, 1e200])
def test_an_overflowing_propagator_leaves_the_same_entries_non_finite(M, scale):
    # P is taken from the identity, and I @ P turns an infinite column of P
    # into NaN: the finite entries stay bit for bit, the others non-finite
    fun = lambda t: scale * (1.0 + t) * np.array(M)  # noqa: E731
    A0 = np.eye(2) + 0.1
    _, ms = march(fun, A0, 0.1, 0.5, 1.0)
    _, want = per_step_march(fun, A0, 0.1, 0.5, 1.0)
    assert not np.isfinite(want[-1]).all()
    for got, W in zip(ms, want):
        finite = np.isfinite(W)
        assert np.array_equal(np.isfinite(got), finite)
        assert got[finite].tobytes() == W[finite].tobytes()


@pytest.mark.parametrize("direction", [1.0, -1.0])
@pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
@pytest.mark.parametrize("complex_terms", [False, True])
def test_the_propagator_form_rounds_within_1e13_of_the_a_form(n, complex_terms, direction):
    # the one declared numerical change: A @ P instead of A + h/6 (k1 + ...)
    mf = generators(n=n, complex_terms=complex_terms)["matrix_function"]
    A0 = np.eye(n) + 0.1 * np.arange(n * n).reshape(n, n) / n
    _, ms = march(mf, A0, 1e-3, 2.0, direction)
    _, want = per_step_march(mf, A0, 1e-3, 2.0, direction, step=a_form_rk4_step)
    assert len(ms) == len(want) == 2001
    assert max(frob_norm(M - W) / frob_norm(W) for M, W in zip(ms, want)) <= 1e-13


def test_rk4_converges_at_order_four():
    # X(t) = cos(3t) B1 + t B2 in so(3); halving h divides the error by 2^4
    rng = np.random.default_rng(0)
    M1, M2 = rng.normal(size=(2, 3, 3))
    mf = MatrixFunction([(AffineArg("cos", 3.0), M1 - M1.T), (Poly((0.0, 1.0)), M2 - M2.T)])
    final = lambda h: march(mf, np.eye(3), h, 2.0, 1.0)[1][-1]  # noqa: E731
    reference = final(0.1 / 64)
    errors = [frob_norm(final(h) - reference) for h in (0.1, 0.05, 0.025)]
    for coarse, fine in zip(errors, errors[1:]):
        assert abs(math.log2(coarse / fine) - 4.0) < 0.1


def count_blocks(monkeypatch):
    # the number of times each `_stepper._evaluate` call evaluates, in order
    sizes = []
    evaluate = _stepper._evaluate
    monkeypatch.setattr(_stepper, "_evaluate", lambda f, n, ts: sizes.append(len(ts)) or evaluate(f, n, ts))
    return sizes


def test_small_chunks_change_no_byte_and_no_count(monkeypatch):
    # one 2x2 step a block: each block's first time may have been
    # evaluated in the previous block
    monkeypatch.setattr(_stepper, "CHUNK_ENTRIES", 12)
    sizes = count_blocks(monkeypatch)
    mf = generators(n=2)["matrix_function"]
    calls = []

    def counted(t):
        calls.append(t)
        return mf(t)

    for fun in (mf, counted):
        sizes.clear()
        ts, ms = march(fun, np.eye(2), H, T, -1.0)
        assert_same_bytes(ms, per_step_march(mf, np.eye(2), H, T, -1.0)[1])
        assert len(sizes) == len(ts) - 1 > 1
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize("t", [0.9, -1.3])
def test_small_simpson_blocks_change_no_byte(monkeypatch, t):
    # five 2x2 nodes a block: 129 nodes and more take many blocks
    monkeypatch.setattr(_stepper, "CHUNK_ENTRIES", 20)
    sizes = count_blocks(monkeypatch)
    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    mf = MatrixFunction([(AffineArg("cos", 1.3), Q), (Poly((0.2, 0.0, 0.5)), Q @ Q)])
    A0 = np.array([[1.0, 0.3], [0.2, 1.1]])
    assert commuting_magnus(mf, A0, t).tobytes() == reference_magnus(mf, A0, t).tobytes()
    assert len(sizes) > 1 and max(sizes) == 5


# ---------------------------------------------------------------------------
# the blocks' contract


def rk4_times(h, horizon, direction):
    # every time the per-step loop passes to its generator, with repeats
    seen = []
    per_step_march(lambda t: seen.append(t) or np.zeros((2, 2)), np.eye(2), h, horizon, direction)
    return seen


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_a_plain_callable_is_called_once_per_distinct_time(direction):
    calls = []

    def fun(t):
        calls.append(t)
        return np.array([[0.0, t], [-t, 0.0]])

    ts, _ = march(fun, np.eye(2), H, T, direction)
    steps = len(ts) - 1
    assert len(calls) == len(set(calls)) <= 3 * steps
    assert calls == list(dict.fromkeys(rk4_times(H, T, direction)))


def test_a_table_keeps_first_use_order_and_repeats():
    calls = []

    def fun(t):
        calls.append(t)
        return np.full((2, 2), t)

    table = tabulate(fun, 2, [0.5, 0.1, 0.5, 0.3])
    assert table.times.tolist() == [0.1, 0.3, 0.5]
    assert [table(t)[0, 0] for t in (0.5, 0.1, 0.1, 0.5, 0.3)] == [0.5, 0.1, 0.1, 0.5, 0.3]
    assert calls == [0.5, 0.1, 0.3]
    # a time already known is taken from there, not evaluated again
    calls.clear()
    again = tabulate(fun, 2, [0.3, 0.7, 0.5, 0.7], known=table)
    assert again.times.tolist() == [0.3, 0.5, 0.7]
    assert again(0.3).tobytes() == table(0.3).tobytes()
    assert again(0.5).tobytes() == table(0.5).tobytes()
    assert again(0.7)[0, 0] == 0.7
    assert calls == [0.7]
    # one gather reads a stack of times; a time not in the table raises
    stack = again(np.array([0.7, 0.3, 0.7]).reshape(3, 1, 1))
    assert stack[:, 0, 0].tolist() == [0.7, 0.3, 0.7]
    for missing in (0.4, 0.8, np.nextafter(0.7, 1.0)):
        with pytest.raises(KeyError):
            again(missing)


def march_block(direction, steps=2000, h=1e-3, t0=0.0):
    # the (steps, 3) times of a block of RK4 steps, as `flows.march` lays them out
    t = t0 + direction * np.arange(steps + 1) * h
    return np.stack([t[:-1], t[:-1] + 0.5 * (t[1:] - t[:-1]), t[1:]], axis=1)


@pytest.mark.parametrize("times", [
    march_block(1.0),
    march_block(-1.0),
    march_block(-1.0, 7, 0.25, 3.0),
    np.array([[0.0, -0.0, -0.5], [-0.5, -0.75, -1.0]]),  # 0.0 then -0.0: one time, 0.0 kept
    np.array([-0.0, 0.0, 0.0, 1.0]),  # -0.0 kept
    np.full((4, 3), 2.5),
    np.array([[1.5]]),
    np.array([0.3, 0.1, 0.2, 0.1]),  # not monotone: np.unique itself
    np.array([0.3, math.nan, 0.1]),
    np.empty(0),
], ids=["forward", "backward", "backward-short", "zeros-down", "zeros-up", "constant", "one",
        "unordered", "nan", "empty"])
def test_distinct_times_are_those_of_np_unique(times):
    want_times, want_first = np.unique(times, return_index=True)
    got_times, got_first = _stepper._distinct(np.ravel(times))
    assert got_times.dtype == want_times.dtype and got_times.tobytes() == want_times.tobytes()
    assert got_first.tolist() == want_first.tolist()
    assert np.argsort(got_first).tolist() == np.argsort(want_first).tolist()  # first-use order


def late_nan(t):
    return np.array([[0.0, 1.0], [math.nan if t > 0.8 else 0.0, 0.0]])


def late_shape(t):
    return np.eye(3 if t < -0.9 else 2)


POLY_INF = Poly((0.0, 0.0, 0.0, 1e308))  # infinite beyond |t| = 1.216
EXP_OVERFLOW = AffineArg("exp", 560.0)  # math.exp overflows beyond t = 1.267


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fun, error, direction", [
    (late_nan, NonFiniteGenerator, 1.0),
    (late_shape, DimensionMismatch, -1.0),
    (MatrixFunction([(POLY_INF, np.eye(2))]), NonFiniteGenerator, 1.0),
    (MatrixFunction([(POLY_INF, np.eye(2))]), NonFiniteGenerator, -1.0),
    (MatrixFunction([(1.0, np.eye(3))]), DimensionMismatch, 1.0),
    (MatrixFunction([(EXP_OVERFLOW, np.eye(2))]), OverflowError, 1.0),
    # the first failure in time order wins: a non-finite value before the overflow
    (MatrixFunction([(POLY_INF, np.eye(2)), (EXP_OVERFLOW, np.eye(2))]), NonFiniteGenerator, 1.0),
    (MatrixFunction([(EXP_OVERFLOW, np.eye(3))]), DimensionMismatch, 1.0),
])
def test_a_bad_generator_fails_as_the_per_step_loop_does(fun, error, direction):
    with pytest.raises(error) as want:
        per_step_march(fun, np.eye(2), H, T, direction)
    with pytest.raises(error) as got:
        march(fun, np.eye(2), H, T, direction)
    assert str(got.value) == str(want.value)


def test_a_table_chunk_stays_within_its_entry_budget(monkeypatch):
    sizes = []
    evaluate = _stepper._evaluate
    monkeypatch.setattr(_stepper, "_evaluate", lambda f, n, ts: sizes.append(len(ts)) or evaluate(f, n, ts))
    # n = 60: 6 steps and at most 13 distinct times a chunk, 401 in 200 steps
    march(generators(n=60)["matrix_function"], np.eye(60), 1e-2, 2.0, 1.0)
    assert len(sizes) > 1 and max(sizes) * 60 * 60 <= _stepper.CHUNK_ENTRIES
    assert sum(sizes) == len(set(rk4_times(1e-2, 2.0, 1.0)))


def test_the_table_adds_no_memory_that_grows_with_the_steps():
    # n = 100, 2000 steps: the trajectory is 160 MB; an unchunked table would add 240 MB
    rng = np.random.default_rng(5)
    n = 100
    mf = MatrixFunction([(AffineArg("cos", 2.0), 0.01 * rng.normal(size=(n, n))),
                         (AffineArg("sin", 1.0), 0.01 * rng.normal(size=(n, n)))])
    A0 = np.eye(n)
    cfg = IntegratorConfig(1e-3, 2.0)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    want = peak(lambda: per_step_march(mf, A0, cfg.h, cfg.horizon, 1.0))
    got = peak(lambda: integrate_right(mf, A0, cfg))
    assert got <= 1.10 * want


def test_a_march_reads_its_nodes_lazily():
    # 10^12 steps: the first bad value must end the march, not a node list
    with pytest.raises(NonFiniteGenerator, match=r"at t=0\.0$"):
        march(lambda t: np.full((2, 2), np.nan), np.eye(2), 1e-12, 1.0, 1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fun", [lambda s: np.eye(2), MatrixFunction([(AffineArg("cos"), np.eye(2))])])
def test_commuting_magnus_at_a_nan_time_fails_as_the_per_node_loop_does(fun):
    with pytest.raises(Exception) as want:
        reference_magnus(fun, np.eye(2), math.nan)
    with pytest.raises(type(want.value)) as got:
        commuting_magnus(fun, np.eye(2), math.nan)
    assert str(got.value) == str(want.value)
