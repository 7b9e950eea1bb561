"""Property test: blocked marching equals the per-step loop on random input.

Random block sizes (`_stepper.CHUNK_ENTRIES`), steps, horizons, directions
and 1-3-term `MatrixFunction`s.  `march` must give the bytes of
`oracles.per_step_march`, and a plain callable must see each distinct time
the per-step loop asks for exactly once, in first-use order.  Skipped when
hypothesis is not installed.
"""

import numpy as np
import pytest

from evolflow import _stepper
from evolflow.curves import AFFINE_ARG_KINDS, AffineArg, MatrixFunction, Poly
from evolflow.flows import march
from oracles import per_step_march

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

bounded = st.floats(-1.0, 1.0, allow_nan=False)
coefficients = st.one_of(
    st.builds(AffineArg, st.sampled_from(AFFINE_ARG_KINDS), bounded, bounded),
    st.builds(Poly, st.lists(bounded, min_size=1, max_size=3).map(tuple)),
)


@st.composite
def matrix_functions(draw):
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = draw(st.lists(coefficients, min_size=1, max_size=3))
    return MatrixFunction([(f, rng.normal(size=(n, n))) for f in terms])


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    mf=matrix_functions(),
    chunk=st.integers(1, 200),
    h=st.floats(0.01, 0.5),
    steps=st.floats(0.5, 40.0),
    direction=st.sampled_from([1.0, -1.0]),
)
def test_march_equals_the_per_step_loop(mf, chunk, h, steps, direction):
    horizon = max(h, steps * h)
    n = mf.n
    A0 = np.eye(n) + 0.1 * np.arange(n * n).reshape(n, n)
    asked = []
    want_ts, want_ms = per_step_march(lambda t: asked.append(t) or mf(t), A0, h, horizon, direction)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_stepper, "CHUNK_ENTRIES", chunk)
        for fun in (mf, lambda t: calls.append(t) or mf(t)):
            ts, ms = march(fun, A0, h, horizon, direction)
            assert ts == want_ts
            assert np.stack(ms).tobytes() == np.stack(want_ms).tobytes()
    assert calls == list(dict.fromkeys(asked))
