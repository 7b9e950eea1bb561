import math
import threading
import tracemalloc

import numpy as np
import pytest

from evolflow.errors import DimensionMismatch, NonFiniteInput, SingularMatrix
from evolflow.matcore import (
    as_matrix,
    det,
    det_gauge,
    expm,
    expm_times,
    frob_norm,
    inv,
    is_nonsingular,
    memo,
    memoized,
    one_norm,
    spectral_radius_estimate,
)
from evolflow import matcore
from evolflow.markov import random_rate_matrix
from oracles import cofactor_det, reference_as_matrix, taylor_expm


def test_expm_of_zero_is_identity():
    assert np.array_equal(expm(np.zeros((2, 2))), np.eye(2))


@pytest.mark.parametrize("t", [-2.0, -0.5, 0.3, 1.0, 2.7])
def test_expm_rotation_closed_form(t):
    X = np.array([[0.0, 1.0], [-1.0, 0.0]])
    expected = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
    assert frob_norm(expm(t * X) - expected) <= 1e-13


@pytest.mark.parametrize("alpha", [0.5, -3.0, 7.0])
@pytest.mark.parametrize("t", [-1.0, 0.25, 2.0])
def test_expm_nilpotent_shear(alpha, t):
    X = np.array([[0.0, alpha], [0.0, 0.0]])
    expected = np.array([[1.0, t * alpha], [0.0, 1.0]])
    assert frob_norm(expm(t * X) - expected) <= 1e-13


def test_expm_det_trace_identity_random():
    rng = np.random.default_rng(7042)
    for _ in range(30):
        n = rng.integers(2, 6)
        M = rng.normal(size=(n, n))
        M *= 3.0 / max(frob_norm(M), 3.0)
        lhs = det(taylor_expm(M))  # pivoted elimination of the series oracle
        rhs = math.exp(np.trace(M))
        assert abs(lhs - rhs) <= 1e-9 * rhs
        assert abs(det(expm(M)) - rhs) <= 1e-9 * rhs


def test_expm_matches_series_oracle():
    rng = np.random.default_rng(11)
    for scale in (0.3, 1.0, 4.0, 9.0):  # the larger ones exercise squaring
        for _ in range(10):
            n = int(rng.integers(1, 7))
            M = scale * rng.normal(size=(n, n))
            E = expm(M)
            R = taylor_expm(M)
            assert frob_norm(E - R) <= 1e-12 * max(1.0, frob_norm(R))


def test_expm_complex_series_oracle():
    rng = np.random.default_rng(12)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert frob_norm(expm(M) - taylor_expm(M)) <= 1e-12 * frob_norm(taylor_expm(M))


def test_exp_additivity_on_grid():
    rng = np.random.default_rng(2)
    grid = [-2.0, -1.0, 0.5, 1.0, 2.0]
    for _ in range(5):
        X = rng.normal(size=(3, 3))
        for s in grid:
            for t in grid:
                lhs = expm((s + t) * X)
                rhs = expm(s * X) @ expm(t * X)
                assert frob_norm(lhs - rhs) <= 1e-9 * max(1.0, frob_norm(lhs))


def test_exp_inverse_law():
    rng = np.random.default_rng(3)
    for _ in range(10):
        X = rng.normal(size=(4, 4))
        assert frob_norm(expm(-X) @ expm(X) - np.eye(4)) <= 1e-10
        assert frob_norm(inv(expm(X)) - expm(-X)) <= 1e-10


def test_expm_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_det_identity():
    assert det(np.eye(3)) == 1.0


@pytest.mark.parametrize("alpha", [-5.0, 0.0, 0.7, 100.0])
def test_det_flip_family_is_minus_one(alpha):
    assert abs(det(np.array([[0.0, 1.0], [1.0, alpha]])) + 1.0) <= 1e-14


def test_det_against_cofactor_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        M = rng.normal(size=(4, 4))
        expected = cofactor_det(M)
        assert abs(det(M) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_det_gauge_encoding():
    # (nonsingular, |det(M / max|m_ij|)|, sign); 1.0 and 0.0 are exact,
    # the other magnitudes hold to rounding
    third = pytest.approx(2.0 / 3.0, rel=1e-15)
    assert det_gauge(np.diag([2.0, 3.0])) == (True, third, 1)
    assert det_gauge(np.diag([-2.0, 3.0])) == (True, third, -1)
    assert det_gauge(np.ones((2, 2))) == (False, 0.0, 0)
    assert det_gauge(np.zeros((3, 3))) == (False, 0.0, 0)
    assert det_gauge(np.eye(2) * (1.0 + 1j)) == (True, pytest.approx(1.0, rel=1e-15), None)
    assert det_gauge(np.ones((2, 2)) * 1j) == (False, 0.0, None)
    # complex dtype with no imaginary mass is real
    assert det_gauge(np.eye(2).astype(complex)) == (True, 1.0, 1)


@pytest.mark.parametrize("M, sign", [
    (0.01 * np.eye(200), 1),
    (1e-110 * np.eye(3), 1),
    (-1e-110 * np.eye(3), -1),
    (-1e-110 * np.eye(4), 1),
    (1e150 * np.diag([1.0, 1.0, -1.0]), -1),
])
def test_det_gauge_sign_survives_an_unscaled_determinant_out_of_range(M, sign):
    assert det_gauge(M) == (True, 1.0, sign)
    assert is_nonsingular(M)


def test_inv_identity():
    assert np.allclose(inv(np.eye(4)), np.eye(4), atol=0.0)


def test_inv_contract_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = np.eye(5) + 0.5 * rng.normal(size=(5, 5))
        assert frob_norm(A @ inv(A) - np.eye(5)) <= 1e-10


def test_inv_rank_one_raises():
    with pytest.raises(SingularMatrix):
        inv(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_spectral_radius_identity():
    for n in (1, 3, 6):
        assert spectral_radius_estimate(np.eye(n)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_diagonal():
    assert spectral_radius_estimate(np.diag([2.0, -3.0])) == pytest.approx(3.0, abs=1e-5)


def test_spectral_radius_nilpotent():
    assert spectral_radius_estimate(np.array([[0.0, 7.0], [0.0, 0.0]])) <= 1e-6


def test_spectral_radius_bounds_random():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        M = rng.normal(size=(n, n))
        rho = max(abs(np.linalg.eigvals(M)))  # eigensolver as the test oracle
        est = spectral_radius_estimate(M)
        assert est >= rho * (1.0 - 1e-6)
        assert est <= one_norm(M) * (1.0 + 1e-12)


def test_frob_norm_zero():
    assert frob_norm(np.zeros((3, 3))) == 0.0


def test_trace_of_flip_flop_rate():
    lam = 1.7
    Q = np.array([[-lam, lam], [lam, -lam]])
    assert np.trace(Q) == -2.0 * lam


def test_as_matrix_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros((2, 3)))


_RNG = np.random.default_rng(11)
_REAL = _RNG.normal(size=(6, 6)) * 10.0 ** _RNG.integers(-150, 150, size=(6, 6))
_CPLX = _REAL + 1j * _RNG.normal(size=(6, 6))
_SMALL = _RNG.normal(size=(3, 3)) + 1j * _RNG.normal(size=(3, 3))  # fits float32
_DENSE = _RNG.normal(size=(40, 40)) * np.exp(3.0 * _RNG.normal(size=(40, 40)))


@pytest.mark.parametrize("M", [
    _REAL, _CPLX, _REAL[:4, :4], _CPLX[:4, :4],
    np.asfortranarray(_REAL), np.asfortranarray(_CPLX),
    _REAL.T, _CPLX.T, _REAL[::2, 1::2], _CPLX[::-2, ::3], _CPLX.real, _CPLX.imag,
    _REAL[0], _REAL[:, 2], _CPLX[1, ::-1],
    # 1600 entries over a few decades: the summation order shows in the last bit
    np.asfortranarray(_DENSE), _DENSE.T, np.asfortranarray(_DENSE + 1j * _DENSE.T),
    np.arange(16).reshape(4, 4), np.arange(9, dtype=np.int8).reshape(3, 3).T,
    np.eye(3, dtype=bool), _SMALL.real.astype(np.float32), _SMALL.astype(np.complex64),
    [[1, 2], [3, 4]], [[1.5, -2j], [0.0, 1e308]], np.full((2, 2), 1e200),
    np.zeros((0, 0)), np.array(3.5), np.array([[np.inf, 1.0]]), np.array([[np.nan, 1j]]),
], ids=lambda M: f"{np.asarray(M).dtype}{np.asarray(M).shape}")
def test_frob_norm_is_numpys_norm_bit_for_bit(M):
    with np.errstate(all="ignore"):  # the 1e200 entries overflow both to inf
        ours, theirs = frob_norm(M), float(np.linalg.norm(M))
    assert type(ours) is float
    assert ours == theirs or (math.isnan(ours) and math.isnan(theirs))


def _outcome(fn, a):
    # (dtype, bytes, shape) of the coerced matrix, or (exception type, message)
    try:
        M = fn(a, "A")
    except Exception as exc:  # the comparison covers whatever is raised
        return type(exc), str(exc)
    return M.dtype, M.tobytes(), M.shape


_nan_imag = np.eye(2, dtype=complex)
_nan_imag[1, 0] = complex(0.0, np.nan)


@pytest.mark.parametrize("a", [
    np.arange(4).reshape(2, 2), np.eye(3, dtype=bool), np.eye(2, dtype=np.uint8),
    np.eye(2, dtype=np.float32), np.eye(2, dtype=np.complex64), np.eye(2) + 0j,
    np.eye(2, dtype=">f8"), np.asfortranarray(_REAL), _CPLX[::2, ::2],
    np.array([[1, 2.5], [3, 4]], dtype=object), np.array([[1, 2j], [3, 4]], dtype=object),
    np.array([[1, None], [3, 4]], dtype=object), np.array([["1", "2"], ["3", "4"]]),
    [[1, 2], [3, 4]], [[1.0, 2j], [3, 4]], [[True, False], [False, True]],
    [[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]], [[1.0, -np.inf], [0.0, 1.0]],
    _nan_imag, np.array([[1.0, complex(0, np.inf)], [0.0, 1.0]]),
    np.array([[1e308, 1e308], [1e308, 1e308]]), np.full((1, 1), np.inf, dtype=np.float32),
    np.zeros((0, 0)), np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2)), 3.0, [],
], ids=lambda a: f"{type(a).__name__}-{np.asarray(a).dtype}{np.asarray(a).shape}")
def test_as_matrix_accepts_and_rejects_as_the_generic_predicates_do(a):
    ref = _outcome(reference_as_matrix, a)
    assert _outcome(as_matrix, a) == ref
    if not isinstance(ref[0], type):  # an accepted matrix: float64 or complex128
        assert ref[0] in (np.float64, np.complex128)


def test_mat_arithmetic_contracts():
    # products, sums, scaling and transposes are numpy's own operators;
    # check the contracts they must satisfy here
    rng = np.random.default_rng(7)
    A = np.eye(4) + 0.4 * rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 4))
    assert frob_norm(A @ inv(A) - np.eye(4)) <= 1e-10
    assert np.array_equal(A + B, B + A)
    assert np.array_equal((2.0 * A).T, 2.0 * A.T)
    Z = A + 1j * B
    assert np.array_equal(Z.conj().T, Z.T.conj())
    assert is_nonsingular(A)


# ---------------------------------------------------------------------------
# per-check memo

X_MEMO = np.array([[0.3, -1.2], [0.7, 0.1]])


@pytest.fixture
def solves(monkeypatch):
    """Padé solves taken so far: one per expm that computes a nonzero input."""
    calls = []
    solve = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def test_expm_outside_a_memo_computes_every_call(solves):
    expm(X_MEMO)
    expm(X_MEMO)
    assert len(solves) == 2
    assert matcore._MEMO.get() is None


def test_memo_computes_each_distinct_argument_once(solves):
    with memo():
        first = expm(X_MEMO)
        again = expm(X_MEMO.copy())
        assert len(solves) == 1
        # exact bytes: a one-ulp change is a different argument
        expm(np.nextafter(X_MEMO, 2.0))
        assert len(solves) == 2
    assert np.array_equal(first, again)
    assert np.array_equal(first, expm(X_MEMO))


def test_memo_hit_hands_out_a_private_copy():
    with memo():
        first = expm(X_MEMO)
        first[:] = 99.0
        again = expm(X_MEMO)
        assert again is not first
    assert np.array_equal(again, expm(X_MEMO))


def test_memo_table_is_dropped_on_exit(solves):
    with memo():
        expm(X_MEMO)
        assert matcore._MEMO.get()
    assert matcore._MEMO.get() is None
    expm(X_MEMO)
    assert len(solves) == 2


def test_memo_table_is_dropped_after_an_exception(solves):
    with pytest.raises(RuntimeError):
        with memo():
            expm(X_MEMO)
            raise RuntimeError("inside the block")
    assert matcore._MEMO.get() is None
    expm(X_MEMO)
    assert len(solves) == 2


def test_nested_memo_blocks_share_one_table(solves):
    with memo():
        outer = matcore._MEMO.get()
        expm(X_MEMO)
        with memo():
            assert matcore._MEMO.get() is outer
            expm(X_MEMO)
        # leaving the inner block keeps the outer table
        assert matcore._MEMO.get() is outer
        expm(X_MEMO)
    assert len(solves) == 1


def test_memo_key_is_dtype_shape_strides_bytes_and_arguments():
    calls = []

    @memoized
    def f(M, *rest, **kw):
        calls.append(1)
        return float(np.sum(M))

    M = np.arange(4.0).reshape(2, 2)
    with memo():
        f(M)
        f(M.copy())                       # same bytes, strides, dtype: a hit
        assert len(calls) == 1
        f(M.astype(">f8"))                # other byte order
        f(M.view(np.int64))               # same bytes, other dtype
        f(np.asfortranarray(M))           # same entries and bytes, other strides
        f(M.reshape(1, 4))                # same bytes, other shape
        assert len(calls) == 5
        f(M, 1e-9)
        f(M, tol=1e-9)                    # a keyword is not a positional argument
        f(M, 1e-9)
        f(M, tol=1e-9)
        assert len(calls) == 7
        f(M, [1])                         # unhashable: computed every call
        f(M, [1])
        f(np.array([[1, 2]], dtype=object))  # not numeric: computed every call
        f(np.array([[1, 2]], dtype=object))
        assert len(calls) == 11
        assert len(matcore._MEMO.get()) == 7


def test_memo_stores_no_call_that_raises():
    calls = []

    @memoized
    def flaky(M):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("first call fails")
        return float(np.sum(M))

    with memo():
        with pytest.raises(RuntimeError):
            flaky(np.eye(2))
        assert flaky(np.eye(2)) == 2.0
        assert flaky(np.eye(2)) == 2.0
        with pytest.raises(NonFiniteInput):
            expm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(NonFiniteInput):
            expm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        assert len(matcore._MEMO.get()) == 1  # flaky's one success
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the residual fold


def test_worst_of_nothing_is_zero():
    assert matcore.worst([]) == 0.0
    assert matcore.worst(iter(())) == 0.0


def test_worst_of_zeros_is_positive_zero():
    r = matcore.worst([0.0, -0.0, 0.0])
    assert r == 0.0 and math.copysign(1.0, r) == 1.0


def test_worst_is_the_fold_from_zero_on_finite_residuals():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rs = list(rng.exponential(size=int(rng.integers(1, 9))))
        assert matcore.worst(rs) == max(0.0, *rs)


@pytest.mark.parametrize("rs", [
    [math.nan, 1.0, 2.0],
    [1.0, 2.0, math.nan],
    [math.inf, math.nan],
    [math.nan, math.inf],
    [0.0, math.nan, 0.0],
])
def test_worst_keeps_a_nan_wherever_it_comes(rs):
    r = matcore.worst(rs)
    assert math.isnan(r)
    assert not r <= 1e-9


def test_worst_keeps_inf():
    assert matcore.worst([1.0, math.inf, 2.0]) == math.inf


def test_worst_consumes_a_generator_once_and_lazily():
    seen = []

    def residuals():
        for r in (0.5, 3.0, 1.0):
            seen.append(r)
            yield r

    gen = residuals()
    assert matcore.worst(gen) == 3.0
    assert seen == [0.5, 3.0, 1.0]
    assert list(gen) == []


# ---------------------------------------------------------------------------
# expm_times: expm at many times, one Pade approximant per scaled argument

SWEEP = [2.0**-k for k in range(1, 21)]
TIMES = [0.0, -0.0, 0.3, 0.3, 0.6, 1.2, 2.4, -0.3, -0.6, 7.0, 14.0, 28.0, 1e-5, 3e-5, *SWEEP]


def assert_expm_times_is_expm(X, ts):
    """`expm_times(X, ts)` yields each distinct t once, with expm(t * X)'s bytes.

    Checked one group at a time and two at a time (the helper thread forced
    on at every size), each as it runs at X's size and with the powers
    shared at every size, and one at a time with stacked blocks of at most
    three approximants below _STACK_BELOW_N.
    """
    off, on = (lambda: False), (lambda: True)
    settings = [
        {"_helper_engages": off},
        {"_helper_engages": off, "_SHARE_POWERS_MIN_N": 1},
        {"_helper_engages": off, "CHUNK_ENTRIES": 3 * np.asarray(X).size},
        {"_helper_engages": on, "_PARALLEL_MIN_N": 1},
        {"_helper_engages": on, "_PARALLEL_MIN_N": 1, "_SHARE_POWERS_MIN_N": 1},
    ]
    with np.errstate(all="ignore"):  # an exponential that overflows does so alike
        want = {}
        for t in ts:
            want.setdefault(t, expm(t * X))
        runs = []
        for patches in settings:
            with pytest.MonkeyPatch.context() as mp:
                for name, value in patches.items():
                    mp.setattr(matcore, name, value)
                runs.append(list(expm_times(X, ts)))
    for results in runs:
        assert len(results) == len(want)
        assert {repr(t) for t, _ in results} == {repr(t) for t in want}  # the first of 0.0 and -0.0
        for t, E in results:
            assert E.dtype == want[t].dtype and E.shape == want[t].shape
            assert E.tobytes() == want[t].tobytes(), t
        assert len({id(E) for _, E in results}) == len(results)  # each matrix the caller's own
    return runs[0]


def chapman_times(ts):
    return [*ts, 0.0, *(s + t for s in ts for t in ts)]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 50])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("scale", [0.1, 1.0, 30.0])
def test_expm_times_is_expm_bit_for_bit(n, kind, scale):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, n))
    if kind == "complex":
        X = X + 1j * rng.normal(size=(n, n))
    assert_expm_times_is_expm(scale * X, TIMES)


@pytest.mark.parametrize("n", [50, 100, 200, 300])
def test_expm_times_is_expm_on_rate_matrices(n):
    # the sizes and times of the dense axioms checks: four irregular times
    # and their sums, then the continuity sweep
    Q = random_rate_matrix(n, n).Q
    ts = [float(t) for t in np.random.default_rng(n).uniform(0.0, 1.6, 4)]
    assert_expm_times_is_expm(Q, chapman_times(ts))
    assert_expm_times_is_expm(Q, SWEEP)


def test_expm_times_is_expm_on_a_complex_300():
    rng = np.random.default_rng(300)
    X = (rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300))) / 10.0
    assert_expm_times_is_expm(X, [0.5, 1.0, 2.0, 1.0, 2.0**-3, 0.7])


def test_expm_times_of_no_time_yields_nothing():
    assert list(expm_times(np.eye(2), [])) == []


def test_expm_times_of_zero_is_a_fresh_identity():
    got = assert_expm_times_is_expm(np.zeros((3, 3)), [1.0, 0.0, 1.0, 2.0])
    assert all(np.array_equal(E, np.eye(3)) for _, E in got)
    got = assert_expm_times_is_expm(np.ones((2, 2)), [-0.0, 0.0])
    assert repr(got[0][0]) == "-0.0"


def test_expm_times_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def power_of_two_times(draw):
        # a few base times, each at several power-of-two multiples, some repeated
        bases = draw(st.lists(st.floats(1e-3, 4.0), min_size=1, max_size=3))
        times = [b * 2.0**k * sign for b in bases
                 for k in draw(st.lists(st.integers(-30, 8), min_size=1, max_size=8))
                 for sign in draw(st.sampled_from([(1.0,), (-1.0,), (1.0, -1.0)]))]
        return draw(st.permutations(times + draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=2))))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 6),
        complex_=st.booleans(),
        scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
        ts=power_of_two_times(),
    )
    def prop(n, complex_, scale, seed, ts):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, n)) * 10.0**scale
        if complex_:
            X = X + 1j * rng.normal(size=(n, n)) * 10.0**scale
        assert_expm_times_is_expm(X, ts + ts[:2])

    prop()


def test_expm_times_computes_the_powers_near_underflow(monkeypatch):
    # X t has entries near 1e-155, so (X t)^2 is subnormal at small t: the
    # powers of 2^k X t are not 4^k (X t)^2 there, and they are computed
    X = np.zeros((4, 4))
    X[0, 1], X[1, 2], X[2, 3] = 1.2345678901234e-155, 3.3333333333e-157, 5.0 / 2**10
    ts = [2.0**k for k in range(11)]
    A2, A4, _ = matcore._powers(X)
    assert not matcore._scales_exactly(X, A2, A4, 1)
    assert_expm_times_is_expm(X, ts)
    # sharing regardless would change results
    monkeypatch.setattr(matcore, "_SHARE_POWERS_MIN_N", 1)
    monkeypatch.setattr(matcore, "_scales_exactly", lambda *args: True)
    got = dict(expm_times(X, ts))
    assert any(got[t].tobytes() != expm(t * X).tobytes() for t in ts)


def test_expm_times_shares_powers_only_over_a_representable_factor():
    # X^2 = 0 bounds nothing, but 2^(6 * 290) is no float: the powers are computed
    X = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert_expm_times_is_expm(X, [2.0**-1074, 2.0**-300, 2.0**-10, 1.0, 4.0])


def test_expm_times_shares_no_powers_with_an_entry_that_underflowed():
    # t X loses its one-ulp entry to underflow at t <= 1/4 but not at t = 1:
    # the scaled arguments are no longer multiples of one another
    X = np.array([[1.0, 5e-324], [0.0, 2.0]])
    assert np.array_equal(0.25 * X, np.diag([0.25, 0.5]))
    assert_expm_times_is_expm(X, [2.0**-k for k in range(8)])


def test_expm_times_splits_a_group_whose_scaled_arguments_differ(pade):
    # 0.3 X / 4 and 0.6 X / 8 differ in the subnormal entry's last bit, so
    # the two times take one approximant each, though 0.6 is twice 0.3
    X = np.array([[40.0, 3.78159362874e-313], [0.0, -40.0]])
    assert not np.array_equal(as_matrix(0.3 * X) / 4.0, as_matrix(0.6 * X) / 8.0)
    assert_expm_times_is_expm(X, [0.3, 0.6])
    assert len(set(pade)) == 2


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1e300])
@pytest.mark.parametrize("X", [np.array([[0.0, 1e10], [2.0, 0.0]]), np.ones((2, 3))])
def test_expm_times_raises_as_expm_does(t, X):
    with np.errstate(all="ignore"):
        with pytest.raises(Exception) as want:
            expm(t * X)
        with pytest.raises(want.type) as got:
            list(expm_times(X, [0.5, t, 1.0]))
    assert str(got.value) == str(want.value)
    assert want.type in (NonFiniteInput, DimensionMismatch)


def test_expm_times_validates_every_time_before_the_first_result():
    times = expm_times(np.eye(2), [0.5, math.nan])
    with np.errstate(all="ignore"), pytest.raises(NonFiniteInput, match="non-finite entries"):
        next(times)


@pytest.mark.parametrize("errors", ["warn", "raise"])
def test_an_overflow_raises_nonfiniteinput_without_a_warning(errors):
    # pytest turns a RuntimeWarning into an error, so none is emitted first;
    # 0.5 X has a 1-norm of 1e308, and X one that overflows
    X = np.full((2, 2), 1e308)
    with np.errstate(over=errors):
        with pytest.raises(NonFiniteInput, match="1-norm overflows"):
            expm(X)
        times = expm_times(X, [0.5, 1.0])
        with pytest.raises(NonFiniteInput, match="1-norm overflows"):
            next(times)
        # expm_times forms t * X itself, and rejects one that overflows
        times = expm_times(np.array([[0.0, 1e10], [2.0, 0.0]]), [0.5, 1e300])
        with pytest.raises(NonFiniteInput, match="non-finite entries"):
            next(times)


def test_expm_times_takes_one_pade_approximant_per_distinct_scaled_argument(pade):
    Q = random_rate_matrix(5, 4).Q
    ts = chapman_times([0.25, 0.5, 0.6, 1.5]) + SWEEP
    got = dict(expm_times(Q, ts))
    scaled = pade.copy()
    pade.clear()
    for t in got:
        assert got[t].tobytes() == expm(t * Q).tobytes()
    assert len(pade) == len(got) - 1 == 31  # expm: one per nonzero time
    assert len(scaled) == len(set(scaled)) == 26  # expm_times: one per scaled argument
    assert set(scaled) == set(pade)


def test_expm_times_holds_one_chain_and_one_family_of_powers():
    Q = random_rate_matrix(100, 3).Q
    ts = [*SWEEP, 0.3, 0.6, 1.2, 2.4, 0.7, 1.4, 0.0]
    tracemalloc.start()
    try:
        expm(2.4 * Q)
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for _ in expm_times(Q, ts):
            pass
        streamed = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert streamed <= one + 2 * Q.nbytes


# ---------------------------------------------------------------------------
# two groups at a time: the later group of each pair on a helper thread


@pytest.fixture
def helper_groups(monkeypatch):
    """The helper forced on; (ran on another thread, had powers, times) per helper group."""
    monkeypatch.setattr(matcore, "_helper_engages", lambda: True)
    caller = threading.get_ident()
    groups = []
    values = matcore._values

    def recorded(X, A, powers, members, errors):
        elsewhere = threading.get_ident() != caller
        groups.append((elsewhere, powers is not None, [t for _, t in members]))
        return values(X, A, powers, members, errors)

    monkeypatch.setattr(matcore, "_values", recorded)
    return groups


@pytest.mark.parametrize("n", [matcore._PARALLEL_MIN_N - 1, matcore._PARALLEL_MIN_N, 300])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_two_at_a_time_is_expm_from_the_threshold_on(helper_groups, monkeypatch, n, kind):
    rng = np.random.default_rng([n, kind == "complex"])
    if kind == "real":
        X = random_rate_matrix(n, rng).Q
    else:
        X = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / 10.0
    ts = [0.0, 0.3, -0.0, 0.6, 0.3, 1.1, 2.2, 2.0**-3, 2.0**-9]
    want = {t: expm(t * X) for t in ts}
    got = list(expm_times(X, ts))
    for t, E in got:
        assert E.tobytes() == want[t].tobytes(), t
    with monkeypatch.context() as mp:
        mp.setattr(matcore, "_helper_engages", lambda: False)
        assert [repr(t) for t, _ in got] == [repr(t) for t, _ in expm_times(X, ts)]
    assert len(got) == 7
    _, families = matcore._plan(X, ts)
    groups = sum(len(family) for family in families.values())
    if n < matcore._PARALLEL_MIN_N:
        assert helper_groups == []
    else:  # every other group on the helper
        assert len(helper_groups) == groups // 2 >= 2
        assert all(other for other, _, _ in helper_groups)


def test_one_group_takes_no_helper(helper_groups):
    X = random_rate_matrix(matcore._PARALLEL_MIN_N, 4).Q
    before = threading.active_count()
    for t, E in expm_times(X, [0.0, 0.7, 0.0]):
        assert threading.active_count() == before
        assert E.tobytes() == expm(t * X).tobytes()
    assert helper_groups == []


def test_two_at_a_time_shares_powers_a_pair_was_given(helper_groups, monkeypatch):
    # the sweep is one family of groups: the first pair computes its powers
    # on both threads, and each later pair is given scaled ones
    monkeypatch.setattr(matcore, "_PARALLEL_MIN_N", 1)
    Q = random_rate_matrix(matcore._SHARE_POWERS_MIN_N, 3).Q
    assert_expm_times_is_expm(Q, SWEEP)
    helper_groups.clear()
    dict(expm_times(Q, SWEEP))
    given = [had for _, had, _ in helper_groups]
    assert len(given) > 2 and given[0] is False and all(given[1:])


def test_the_helper_computes_a_chain_member_whose_scaled_argument_differs(
        helper_groups, monkeypatch, pade):
    # as in test_expm_times_splits_a_group_whose_scaled_arguments_differ, with
    # a group of another family first, so that the split group is the helper's
    monkeypatch.setattr(matcore, "_PARALLEL_MIN_N", 1)
    X = np.array([[40.0, 3.78159362874e-313], [0.0, -40.0]])
    got = dict(expm_times(X, [0.1, 0.3, 0.6]))
    assert helper_groups == [(True, False, [0.3, 0.6])]
    assert len(set(pade)) == 3
    for t, E in got.items():
        assert E.tobytes() == expm(t * X).tobytes()


def test_the_helper_overflows_under_the_callers_error_settings(helper_groups, monkeypatch):
    # exp(2 X) overflows in its squarings, on the helper: it raises under
    # "raise" and gives infinite entries without a warning under "ignore"
    # (a plain thread's default would warn, which pytest turns into an error)
    monkeypatch.setattr(matcore, "_PARALLEL_MIN_N", 1)
    X = np.diag([500.0, -500.0])
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        list(expm_times(X, [0.3, 2.0]))
    assert helper_groups == [(True, False, [2.0])]
    with np.errstate(all="ignore"):
        got = dict(expm_times(X, [0.3, 2.0]))
        want = expm(2.0 * X)
    assert np.isinf(got[2.0][0, 0]) and got[2.0].tobytes() == want.tobytes()


def test_preload_stores_nothing_when_the_helpers_exponential_would_warn(helper_groups):
    n = matcore._PARALLEL_MIN_N
    X = np.zeros((n, n))
    X[0, 0], X[1, 1] = 500.0, -500.0
    with memo():
        matcore.preload_expm(X, [0.3, 2.0])
        assert memo_entries() == 0
        with np.errstate(all="ignore"):
            matcore.preload_expm(X, [0.3, 2.0])
            assert memo_entries() == 2
    assert [times for _, _, times in helper_groups] == [[2.0], [2.0]]


def test_two_at_a_time_joins_its_helper_when_the_generator_stops(helper_groups, monkeypatch):
    monkeypatch.setattr(matcore, "_PARALLEL_MIN_N", 1)
    X = random_rate_matrix(8, 5).Q
    ts = [0.3, 0.7, 1.1, 1.9, 2.3]  # five groups: pairs and one on its own
    before = threading.active_count()
    times = expm_times(X, ts)
    next(times)
    assert threading.active_count() == before + 1
    times.close()
    assert threading.active_count() == before

    def consume():
        for t, _ in expm_times(X, ts):
            raise KeyError(t)

    with pytest.raises(KeyError):
        consume()
    assert threading.active_count() == before
    assert len(dict(expm_times(X, ts))) == 5
    assert threading.active_count() == before
    # a pair started at each first yield, two in the full run
    assert [times for _, _, times in helper_groups] == [[0.7], [0.7], [0.7], [1.9]]


def test_helper_engages_at_one_blas_thread_on_two_cpus(monkeypatch):
    for name in matcore._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(matcore.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert not matcore._helper_engages()  # unset: OpenBLAS takes a thread per CPU
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert matcore._helper_engages()
    monkeypatch.setenv("GOTO_NUM_THREADS", "2")  # read before OMP_NUM_THREADS
    assert not matcore._helper_engages()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # read first
    assert matcore._helper_engages()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")  # not a thread count: the next decides
    assert not matcore._helper_engages()
    monkeypatch.setenv("GOTO_NUM_THREADS", "junk")
    assert matcore._helper_engages()
    monkeypatch.setattr(matcore.os, "sched_getaffinity", lambda pid: {3})
    assert not matcore._helper_engages()  # one usable CPU
    monkeypatch.delattr(matcore.os, "sched_getaffinity")
    for cpus, engages in ((None, False), (1, False), (2, True)):
        monkeypatch.setattr(matcore.os, "cpu_count", lambda: cpus)
        assert matcore._helper_engages() is engages



# ---------------------------------------------------------------------------
# stacked Pade blocks


def pade_stack(rng, n, complex_, squarings):
    """Scaled arguments t X / 2**s as `expm` forms them, one per squaring count.

    Each X is scaled to a 1-norm that needs exactly that many squarings; a
    zero slice and a slice whose powers overflow come last.
    """
    slices, Xs = [], []
    for s in squarings:
        X = rng.normal(size=(n, n))
        if complex_:
            X = X + 1j * rng.normal(size=(n, n))
        X *= matcore._PADE13_THETA * 2.0**s * rng.uniform(0.55, 1.0) / one_norm(X)
        assert matcore._squarings(one_norm(X)) == s
        Xs.append(X)
        slices.append(X / 2.0**s)
    big = np.full((n, n), 1e200, dtype=complex if complex_ else float)
    return np.stack([*slices, np.zeros_like(big), big]), Xs


def assert_stacked_helpers_are_per_slice(S, Xs, squarings):
    with np.errstate(all="ignore"):  # the last slice overflows alike in both forms
        P = matcore._powers(S)
        E = matcore._pade13(S, *P)
        for i, A in enumerate(S):
            per = matcore._powers(A)
            for stacked, alone in zip(P, per):
                assert stacked[i].tobytes() == alone.tobytes()
            assert E[i].tobytes() == matcore._pade13(A, *per).tobytes()
        for s in set(squarings):
            squared = matcore._square(E, s)
            for i in range(len(S)):
                assert squared[i].tobytes() == matcore._square(E[i], s).tobytes()
        # the approximants of one stack, each squared its own number of times, are expm's
        for X, s, Ei in zip(Xs, squarings, E):
            assert matcore._square(Ei, s).tobytes() == expm(X).tobytes()
    assert not np.isfinite(E[-1]).any()  # the overflowing slice, in a stack of finite ones


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_stacked_pade_helpers_equal_each_slice_bit_for_bit(n, complex_):
    rng = np.random.default_rng([n, complex_])
    squarings = [0, 3, 0, 1, 7, 2, 0]
    S, Xs = pade_stack(rng, n, complex_, squarings)
    assert_stacked_helpers_are_per_slice(S, Xs, squarings)


def test_stacked_pade_helpers_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 10),
        complex_=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        squarings=st.lists(st.integers(0, 12), min_size=1, max_size=12),
    )
    def prop(n, complex_, seed, squarings):
        S, Xs = pade_stack(np.random.default_rng(seed), n, complex_, squarings)
        assert_stacked_helpers_are_per_slice(S, Xs, squarings)

    prop()


def test_block_rows_fill_chunk_entries_below_the_stacking_limit():
    assert matcore._block_rows(1) == matcore.CHUNK_ENTRIES
    assert matcore._block_rows(5) == matcore.CHUNK_ENTRIES // 25
    assert matcore._block_rows(matcore._STACK_BELOW_N - 1) > 1
    assert matcore._block_rows(matcore._STACK_BELOW_N) == 1
    assert matcore._block_rows(matcore._SHARE_POWERS_MIN_N) == 1
    assert matcore._STACK_BELOW_N <= matcore._SHARE_POWERS_MIN_N


@pytest.mark.parametrize("n", [3, matcore._STACK_BELOW_N])
def test_expm_times_takes_a_block_of_approximants_in_one_call(monkeypatch, n):
    shapes = []
    approximant = matcore._pade13

    def recorded(A, *powers):
        shapes.append(A.shape)
        return approximant(A, *powers)

    monkeypatch.setattr(matcore, "_pade13", recorded)
    X = np.random.default_rng(n).normal(size=(n, n))
    X /= one_norm(X)
    ts = [0.1 * k for k in range(1, 41)]  # ||t X|| <= 4 needs no squaring: 40 scaled arguments
    got = dict(expm_times(X, ts))
    assert len(got) == 40
    if n < matcore._STACK_BELOW_N:
        assert shapes == [(40, n, n)]
    else:
        assert shapes == [(n, n)] * 40
    shapes.clear()
    monkeypatch.setattr(matcore, "CHUNK_ENTRIES", 16 * n * n)
    assert all(E.tobytes() == got[t].tobytes() for t, E in expm_times(X, ts))
    if n < matcore._STACK_BELOW_N:
        assert shapes == [(16, n, n), (16, n, n), (8, n, n)]


def test_expm_times_computes_a_mixed_dtype_block_row_by_row():
    # a complex numpy time among real ones makes one complex scaled argument:
    # stacked with the real ones it would upcast them, so none is stacked
    X = np.array([[0.2, -1.0], [0.5, 0.1]])
    ts = [0.5, np.complex128(1.5), 2.5]
    with pytest.warns(np.exceptions.ComplexWarning):
        got = dict(expm_times(X, ts))
    for t in ts:
        assert got[t].tobytes() == expm(t * X).tobytes()


# ---------------------------------------------------------------------------
# preload_expm


def memo_entries():
    return len(matcore._MEMO.get())


def test_preload_stores_expm_under_the_key_of_each_call(pade):
    X = np.array([[0.3, -1.2], [0.7, 0.1]])
    ts = [0.0, -0.0, 0.25, 0.5, 0.25, 3.0, -7.5, 1e-9]
    want = {repr(t): expm(t * X) for t in ts}
    pade.clear()
    with memo():
        matcore.preload_expm(X, ts)
        rows = len(pade)
        # one row per distinct nonzero scaled argument; 0.0 and -0.0 both stored
        assert rows == 5 and memo_entries() == 7
        for t in ts:
            assert expm(t * X).tobytes() == want[repr(t)].tobytes()
        assert len(pade) == rows


def test_preload_keys_on_the_kernel_not_on_a_binding(monkeypatch, pade):
    # a wrapper bound over `matcore.expm` (as a tracer binds one) reaches the
    # memoized expm, and the preloaded entry is a hit through it
    memoized_expm = matcore.expm
    calls = []

    def wrapper(M):
        calls.append(1)
        return memoized_expm(M)

    monkeypatch.setattr(matcore, "expm", wrapper)
    X = np.array([[0.0, 2.0], [-1.0, 0.5]])
    with memo():
        matcore.preload_expm(X, [0.5, 1.5])
        rows = len(pade)
        wrapper(0.5 * X), wrapper(1.5 * X)
        assert len(calls) == 2 and len(pade) == rows == 2


def test_preload_keeps_an_entry_already_in_the_table():
    X = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with memo():
        expm(0.5 * X)
        table = matcore._MEMO.get()
        (key, first), = table.items()
        matcore.preload_expm(X, [0.5, 1.0])
        assert table[key] is first and len(table) == 2


def test_preload_outside_a_memo_stores_nothing(monkeypatch):
    def unreachable(X, ts):
        raise AssertionError("no exponential is computed outside a memo")

    monkeypatch.setattr(matcore, "expm_times", unreachable)
    assert matcore.preload_expm(np.eye(2), [1.0]) is None
    assert matcore._MEMO.get() is None


@pytest.mark.parametrize("quiet", [False, True], ids=["pytest-errors", "errstate-ignore"])
@pytest.mark.parametrize("X, ts", [
    (np.array([[0.0, 1e10], [2.0, 0.0]]), [0.5, 1e300, 1.0]),  # t X overflows
    (np.full((2, 2), 1e308), [0.5, 1.0]),  # the 1-norm of t X overflows
    (np.array([[0.0, 1.0], [2.0, 0.0]]), [0.5, math.nan]),
    (np.array([[0.0, 1.0], [2.0, 0.0]]), [math.inf]),
    (np.ones((2, 3)), [0.5]),
    (np.array([[0.0, 1.0], [2.0, 0.0]]), [0.5, "a"]),
    (np.array([["a", "b"], ["c", "d"]]), [0.5]),
], ids=["overflow", "norm-overflow", "nan", "inf", "non-square", "string-time", "string-matrix"])
def test_preload_never_raises_and_stores_nothing_when_a_time_fails(X, ts, quiet):
    with np.errstate(all="ignore") if quiet else np.errstate():
        with memo():
            assert matcore.preload_expm(X, ts) is None
            assert memo_entries() == 0


def test_preload_stores_nothing_when_an_exponential_would_warn():
    # exp(2X) overflows in its squarings: under the settings that report an
    # overflow the per-call path reports it, so nothing is preloaded; with
    # overflows ignored the values are stored
    X = np.diag([500.0, -500.0])
    with np.errstate(all="ignore"):
        want = expm(2.0 * X)
    assert np.isinf(want[0, 0])
    with memo():
        with np.errstate(over="warn"):
            matcore.preload_expm(X, [1.0, 2.0])
        assert memo_entries() == 0
        with np.errstate(all="ignore"):
            matcore.preload_expm(X, [1.0, 2.0])
            assert memo_entries() == 2
            assert expm(2.0 * X).tobytes() == want.tobytes()
