"""Property tests: blocked marching and quadrature equal their per-call loops.

Random block sizes (`_stepper.CHUNK_ENTRIES`), steps down to 1e-14,
horizons, directions and 1-3-term `MatrixFunction`s, real or complex.
`march` must give the bytes of `oracles.per_step_march`, and a plain
callable must see each distinct time the per-step loop asks for exactly
once, in first-use order.  `commuting_magnus` must give the bytes of
`oracles.reference_magnus` on generators whose terms commute, and each row
of `MatrixFunction.at` the bytes of its terms' `value` calls.  Skipped
when hypothesis is not installed.
"""

import numpy as np
import pytest

from evolflow import _stepper
from evolflow.curves import AFFINE_ARG_KINDS, AffineArg, MatrixFunction, Poly
from evolflow.flows import commuting_magnus, march
from oracles import per_step_march, reference_magnus

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

bounded = st.floats(-1.0, 1.0, allow_nan=False)
coefficients = st.one_of(
    st.builds(AffineArg, st.sampled_from(AFFINE_ARG_KINDS), bounded, bounded),
    st.builds(Poly, st.lists(bounded, min_size=1, max_size=3).map(tuple)),
)


@st.composite
def matrix_functions(draw, commuting=False):
    # commuting: every term a power of one matrix, so the terms commute
    # up to rounding and `commuting_magnus` accepts the generator
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = draw(st.lists(coefficients, min_size=1, max_size=3))
    complex_terms = draw(st.booleans())

    def matrix():
        M = rng.normal(size=(n, n))
        return M + 1j * rng.normal(size=(n, n)) if complex_terms else M

    if commuting:
        Q = matrix()
        return MatrixFunction([(f, np.linalg.matrix_power(Q, k)) for k, f in enumerate(terms)])
    return MatrixFunction([(f, matrix()) for f in terms])


# The drawn coefficients reach e^21 over the horizon, so some trajectories
# overflow (inf, then NaN from inf - inf); march and the per-step loop must
# still agree bit for bit.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    mf=matrix_functions(),
    chunk=st.integers(1, 200),
    h=st.one_of(st.floats(0.01, 0.5), st.floats(1e-14, 1e-11)),
    steps=st.floats(0.5, 40.0),
    direction=st.sampled_from([1.0, -1.0]),
)
def test_march_equals_the_per_step_loop(mf, chunk, h, steps, direction):
    horizon = max(h, steps * h)
    n = mf.n
    A0 = np.eye(n) + 0.1 * np.arange(n * n).reshape(n, n)
    asked = []
    want_ts, want_ms = per_step_march(lambda t: asked.append(t) or mf(t), A0, h, horizon, direction)
    assert len(want_ts) > 1
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_stepper, "CHUNK_ENTRIES", chunk)
        for fun in (mf, lambda t: calls.append(t) or mf(t)):
            ts, ms = march(fun, A0, h, horizon, direction)
            assert ts == want_ts
            assert np.stack(ms).tobytes() == np.stack(want_ms).tobytes()
    assert calls == list(dict.fromkeys(asked))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(
    mf=matrix_functions(commuting=True),
    chunk=st.integers(1, 4096),
    t=st.floats(-2.0, 2.0, allow_nan=False),
)
def test_commuting_magnus_equals_the_per_node_loop(mf, chunk, t):
    A0 = np.eye(mf.n) + 0.1 * np.arange(mf.n**2).reshape(mf.n, mf.n)
    want = reference_magnus(mf, A0, t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_stepper, "CHUNK_ENTRIES", chunk)
        got = commuting_magnus(mf, A0, t)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    mf=matrix_functions(),
    ts=st.lists(st.floats(-50.0, 50.0, allow_nan=False), max_size=20),
)
def test_matrix_function_at_equals_its_terms_value_calls(mf, ts):
    # each row is sum_k f_k.value(t) M_k, added in term order, bit for bit
    stack = mf.at(ts)
    assert stack.shape == (len(ts), mf.n, mf.n)
    for t, X in zip(ts, stack):
        (f, M), *rest = mf.terms
        want = f.value(t) * M
        for f, M in rest:
            want = want + f.value(t) * M
        assert X.tobytes() == want.tobytes()
