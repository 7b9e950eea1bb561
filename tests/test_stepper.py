"""The generator table behind marching and Simpson quadrature.

`march`, `integrate_right`, the `Numeric` table and `commuting_magnus`
read the generator from a `_stepper.GeneratorTable`.  The references
(`oracles.per_step_march` and the Simpson loops below) evaluate it one call
at a time through `checked_generator`: four calls per RK4 step and one per
Simpson node.  The table must give the same bytes and raise the same
errors.
"""

import math
import tracemalloc

import numpy as np
import pytest

from evolflow import _stepper
from evolflow._stepper import GeneratorTable, checked_generator, rk4_step
from evolflow.curves import AffineArg, MatrixFunction, Numeric, Poly
from evolflow.errors import DimensionMismatch, NonFiniteGenerator
from evolflow.flows import IntegratorConfig, commuting_magnus, integrate_right, march
from evolflow.matcore import expm, frob_norm
from oracles import per_step_march

H, T = 0.03, 1.37  # h does not divide the horizon: the last step is short


def reference_simpson(gen, t, nodes):
    xs = np.linspace(0.0, t, nodes)
    h = (t - 0.0) / (nodes - 1)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    acc = w[0] * gen(xs[0])
    for i in range(1, nodes):
        acc = acc + w[i] * gen(xs[i])
    return (h / 3.0) * acc


def reference_magnus(fun, A0, t):
    gen = checked_generator(fun, A0.shape[0])
    nodes = 129
    omega = reference_simpson(gen, t, nodes)
    while nodes < 8193:
        nodes = 2 * nodes - 1
        refined = reference_simpson(gen, t, nodes)
        done = frob_norm(refined - omega) <= 1e-11
        omega = refined
        if done:
            break
    return A0 @ expm(omega)


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


@pytest.mark.parametrize("t", [0.9, -1.3])
def test_commuting_magnus_is_bit_identical(t):
    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    two_terms = MatrixFunction([(AffineArg("cos", 1.3), Q), (Poly((0.2, 0.0, 0.5)), Q @ Q)])
    A0 = np.array([[1.0, 0.3], [0.2, 1.1]])
    for fun in (two_terms, lambda s: two_terms(s), MatrixFunction([(AffineArg("sin", 3.0), Q)])):
        got = commuting_magnus(fun, A0, t)
        assert got.tobytes() == reference_magnus(fun, A0, t).tobytes()


def test_small_chunks_change_no_byte_and_no_count(monkeypatch):
    # three 2x2 values a chunk: boundaries fall inside steps and between
    # them, where a step's first time was evaluated in the previous chunk
    monkeypatch.setattr(_stepper, "CHUNK_ENTRIES", 12)
    mf = generators(n=2)["matrix_function"]
    calls = []

    def counted(t):
        calls.append(t)
        return mf(t)

    for fun in (mf, counted):
        ts, ms = march(fun, np.eye(2), H, T, -1.0)
        assert_same_bytes(ms, per_step_march(mf, np.eye(2), H, T, -1.0)[1])
    assert len(calls) == len(set(calls))


# ---------------------------------------------------------------------------
# the table's contract


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
    table = GeneratorTable(lambda t: calls.append(t) or np.full((2, 2), t), 2, [0.5, 0.1, 0.5, 0.3])
    assert [table[t][0, 0] for t in (0.5, 0.1, 0.1, 0.5, 0.3)] == [0.5, 0.1, 0.1, 0.5, 0.3]
    assert calls == [0.5, 0.1, 0.3]


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
    # n = 60: 72 times a chunk, 401 distinct times in 200 steps
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
