import contextlib
import math
import sys
import threading
import tracemalloc
import warnings

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
from evolflow import _stepper, matcore
from evolflow.markov import random_rate_matrix
from oracles import (ReferencePowers, cofactor_det, per_time_plan, reference_as_matrix, reference_expm,
                     reference_pade, taylor_expm)


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


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("m", [3, 5, 7, 9, 13])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_expm_matches_series_oracle_on_either_side_of_each_degree(n, m, complex_):
    # from n = 32 on each theta_m bounds a degree: just below it degree m, just above the next
    rng = np.random.default_rng([n, m, complex_])
    X = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0.0)
    for side, degree in ((1.0 - 2.0**-20, m), (1.0 + 2.0**-20, {3: 5, 5: 7, 7: 9, 9: 13, 13: 13}[m])):
        Y = X * (matcore._THETA[m] * side / one_norm(X))
        nrm = one_norm(Y)
        k = matcore._squarings(nrm)
        assert matcore._degree(matcore._Powers(Y / 2.0**k), nrm, k)[0] == degree
        R = taylor_expm(Y)
        assert frob_norm(expm(Y) - R) <= 1e-13 * frob_norm(R)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("b", [1e8, 1e12])
def test_expm_of_non_normal_blocks_down_a_large_diagonal(n, b):
    # [[1, b], [0, -1]] n / 2 times: exp is [[e, b sinh 1], [0, 1 / e]] in each block, which
    # halving by ||X||_1 alone lost 7 digits of
    X = np.kron(np.eye(n // 2), [[1.0, b], [0.0, -1.0]])
    want = np.kron(np.eye(n // 2), [[math.e, b * math.sinh(1.0)], [0.0, 1.0 / math.e]])
    assert frob_norm(expm(X) - want) <= 1e-14 * frob_norm(want)


@pytest.mark.parametrize("n", [32, 64])
def test_expm_of_nilpotent_blocks_takes_ells_halvings(monkeypatch, n):
    # [[a, a], [-a, -a]] squares to 0, so exp is I + X; the norms of its powers ask for no
    # halving, and ell(X, 13), read off the exact norm of |X|**27, adds them back
    X = np.kron(np.eye(n // 2), [[100.0, 100.0], [-100.0, -100.0]])
    exact, abs_norm = [], matcore._Powers.abs_norm
    monkeypatch.setattr(matcore._Powers, "abs_norm", lambda self: exact.append(1) or abs_norm(self))
    nrm = one_norm(X)
    k = matcore._squarings(nrm)
    m, s = matcore._degree(matcore._Powers(X / 2.0**k), nrm, k)
    assert exact and m == 13 and 0 < s <= k
    assert frob_norm(expm(X) - (np.eye(n) + X)) <= 1e-14 * frob_norm(np.eye(n) + X)


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


@pytest.mark.parametrize("M", [
    np.random.default_rng(5).normal(size=(5, 5)),
    np.random.default_rng(5).normal(size=(4, 4)) + 1j * np.random.default_rng(6).normal(size=(4, 4)),
    np.array([[1.0, np.nan], [-3.0, 2.0]]),
    np.array([[np.nan, 1j], [-3.0, 2.0 + np.nan * 1j]]),
    np.array([[-0.0, 0.0], [-0.0, -0.0]]),
    np.array([[-0.0, -2.5], [2.5, -0.0]]),
    np.asfortranarray(np.random.default_rng(7).normal(size=(3, 3))),
], ids=["real", "complex", "nan", "complex-nan", "signed-zeros", "signed-zeros-and-ties", "fortran"])
def test_det_gauge_scale_is_np_max_bit_for_bit(M):
    # `det_gauge` reduces |M| with the ufunc reduction that `np.max` calls, without its wrapper
    want, got = np.max(np.abs(M)), matcore._MAX(np.abs(M), axis=None)
    assert type(got) is type(want) and repr(got) == repr(want)
    if np.isfinite(M).all():  # a NaN entry fails validation first
        d = np.linalg.det(M / want) if want != 0.0 else 0.0
        assert repr(det_gauge(M).scaled_abs_det) == repr(float(abs(d)))


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


def _same_norms(stack):
    # frob_norms of a stack against frob_norm of each slice, compared as bits
    got = matcore.frob_norms(stack)
    want = np.array([frob_norm(S) for S in stack])
    assert got.shape == (len(stack),) and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_frob_norms_is_frob_norm_of_each_slice_bit_for_bit(complex_):
    # n = 1-100, entries over a few decades, so the summation order shows in the last bit
    rng = np.random.default_rng(12)
    for n in range(1, 101):
        stack = rng.normal(size=(3, n, n)) * np.exp(3.0 * rng.normal(size=(3, n, n)))
        if complex_:
            stack = stack + 1j * rng.normal(size=(3, n, n))
        _same_norms(stack)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_frob_norms_on_non_finite_and_zero_slices(complex_):
    stack = np.random.default_rng(13).normal(size=(6, 4, 4)) + (1j if complex_ else 0.0)
    stack[1, 2, 3] = np.nan
    stack[2, 0, 0] = np.inf
    stack[3] = 0.0
    stack[4] = -0.0
    stack[5, 1, 1] = -np.inf
    with np.errstate(all="ignore"):
        got = matcore.frob_norms(stack)
    assert math.isnan(got[1]) and got[2] == got[5] == math.inf
    assert got[3] == got[4] == 0.0 and math.copysign(1.0, got[4]) == 1.0
    with np.errstate(all="ignore"):
        _same_norms(stack)


@pytest.mark.parametrize("view", [
    lambda S: S.transpose(0, 2, 1),  # slices in column order: frob_norm sums in memory order
    lambda S: S[:, ::2, 1::2],
    lambda S: S[::-1],
    lambda S: S[:, ::-1, :],
    lambda S: np.asfortranarray(S),
    lambda S: S[1:3],
    lambda S: np.moveaxis(np.ascontiguousarray(np.moveaxis(S, 0, 2)), 2, 0),  # interleaved slices
], ids=["transposed", "strided", "reversed", "flipped-rows", "fortran", "sub-stack", "interleaved"])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_frob_norms_on_non_contiguous_stacks(view, complex_):
    rng = np.random.default_rng(14)
    for n in (1, 3, 8, 30):
        base = rng.normal(size=(4, 2 * n, 2 * n)) * np.exp(3.0 * rng.normal(size=(4, 2 * n, 2 * n)))
        if complex_:
            base = base + 1j * rng.normal(size=base.shape)
        _same_norms(view(base))


def test_frob_norms_of_an_empty_stack():
    assert matcore.frob_norms(np.zeros((0, 3, 3))).shape == (0,)


def _pair_chunks(rng, n, k):
    # two chunks of k matrices each, entries over a few decades
    return [[rng.normal(size=(n, n)) * np.exp(3.0 * rng.normal(size=(n, n))) for _ in range(k)]
            for _ in range(2)]


@pytest.mark.parametrize("case", [
    "real", "complex", "one-pair", "mixed-dtype", "fortran", "transposed", "mixed-shape", "stacked-right",
    "non-finite",
])
def test_frob_residuals_are_frob_norm_of_each_difference_bit_for_bit(case, monkeypatch):
    stacks = []
    norms = matcore.frob_norms
    monkeypatch.setattr(matcore, "frob_norms", lambda M: stacks.append(M.shape[-1]) or norms(M))
    rng = np.random.default_rng(15)
    ns = (1, 2, 5, 31, 32, 40, 64)
    for n in ns:
        left, right = _pair_chunks(rng, n, 1 if case == "one-pair" else 6)
        if case == "complex":
            left = [L + 1j * R for L, R in zip(left, right)]
            right = [R + 1j * L for L, R in zip(left, right)]
        elif case == "mixed-dtype":
            right[2] = right[2] + 0.5j
        elif case in ("fortran", "transposed"):
            lay = np.asfortranarray if case == "fortran" else np.transpose
            left, right = [lay(L) for L in left], [lay(R) for R in right]
        elif case == "mixed-shape":
            left[3], right[3] = np.eye(n + 1), np.ones((n + 1, n + 1))
        elif case == "stacked-right":
            right = np.array(right)
        elif case == "non-finite":
            left[1][0, 0], left[2][-1, -1], right[2][-1, -1] = np.nan, np.inf, np.inf
        with np.errstate(invalid="ignore"):  # inf - inf
            got = matcore.frob_residuals(left, right)
            want = [frob_norm(L - R) for L, R in zip(left, right)]
        assert type(got) is list and np.array(got).tobytes() == np.array(want).tobytes()
    # chunks that stack alike (a 1 x 1 matrix is C-contiguous in any layout) take the stacked
    # stage below n = 32, and go pair by pair from there
    stacking = {"real", "complex", "stacked-right", "non-finite"}
    assert stacks == [n for n in ns if n < matcore._STACK_BELOW_N
                      and (case in stacking or n == 1 and case in ("fortran", "transposed"))]


def test_frob_residuals_stack_only_chunks_that_stack_alike(monkeypatch):
    stacks = []
    norms = matcore.frob_norms
    monkeypatch.setattr(matcore, "frob_norms", lambda M: stacks.append(M.shape) or norms(M))
    left, right = _pair_chunks(np.random.default_rng(16), 3, 4)
    matcore.frob_residuals(left, right)
    matcore.frob_residuals(left[:1], right[:1])  # one pair has nothing to stack
    matcore.frob_residuals(left, [R + 0j for R in right])  # stacked, the real chunk would upcast
    matcore.frob_residuals(left, [np.asfortranarray(R) for R in right])
    matcore.frob_residuals(left, np.array(right)[:, ::-1])  # a stack, but not C-contiguous
    assert stacks == [(4, 3, 3)]


def test_stacked_takes_a_c_stack_as_it_is_and_lists_the_rest():
    M = np.zeros((3, 2, 2))
    assert matcore.stacked(M) is M
    assert type(matcore.stacked(list(M))) is np.ndarray
    for others in ([M[0]], list(M[:, ::-1]), list(M.transpose(0, 2, 1)), [M[0], M[1] + 0j],
                   [M[0], np.zeros((3, 3))], M[:, :, ::-1], []):
        got = matcore.stacked(others)
        assert type(got) is list and len(got) == len(others)
        assert all(a is b for a, b in zip(got, others)) or isinstance(others, np.ndarray)


def test_nonempty_lists_the_points_and_refuses_none():
    assert matcore.nonempty(iter([0.5, 1])) == [0.5, 1]
    with pytest.raises(ValueError, match="grid must be nonempty"):
        matcore.nonempty([])
    with pytest.raises(ValueError, match="no base points"):
        matcore.nonempty(iter(()), "no base points")


def _outcome(fn, a):
    # (dtype, bytes, shape) of the coerced matrix, or (exception type, message)
    try:
        M = fn(a, "A")
    except Exception as exc:  # the comparison covers whatever is raised
        return type(exc), str(exc)
    return M.dtype, M.tobytes(), M.shape


_nan_imag = np.eye(2, dtype=complex)
_nan_imag[1, 0] = complex(0.0, np.nan)


_AS_MATRIX_INPUTS = [
    np.arange(4).reshape(2, 2), np.eye(3, dtype=bool), np.eye(2, dtype=np.uint8),
    np.eye(2, dtype=np.float32), np.eye(2, dtype=np.complex64), np.eye(2) + 0j,
    np.eye(2, dtype=">f8"), np.asfortranarray(_REAL), _CPLX[::2, ::2],
    np.array([[1, 2.5], [3, 4]], dtype=object), np.array([[1, 2j], [3, 4]], dtype=object),
    np.array([[1, None], [3, 4]], dtype=object), np.array([["1", "2"], ["3", "4"]]),
    [[1, 2], [3, 4]], [[1.0, 2j], [3, 4]], [[True, False], [False, True]],
    [[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]], [[1.0, -np.inf], [0.0, 1.0]],
    _nan_imag, np.array([[1.0, complex(0, np.inf)], [0.0, 1.0]]),
    np.array([[1e308, 1e308], [1e308, 1e308]]), np.array([[1e308, 1e308j], [1e308j, 0.0]]),
    np.full((1, 1), np.inf, dtype=np.float32),
    np.zeros((0, 0)), np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2)), 3.0, [],
]
_AS_MATRIX_IDS = [f"{type(a).__name__}-{np.asarray(a).dtype}{np.asarray(a).shape}" for a in _AS_MATRIX_INPUTS]


@pytest.mark.parametrize("a", _AS_MATRIX_INPUTS, ids=_AS_MATRIX_IDS)
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


def _row(X, t):
    # t * X as `flows.flow_apply` and `curves.ExpLine.value` take it: the open scope's row if it has one
    return matcore._times(X, t, matcore._reach(X))


def scope_rows():
    # the open scope's rows {t: t * X}, {} when it holds none
    scope = matcore._SCOPE.get()
    return {} if scope is None else scope.rows


def preloaded():
    # the open scope's preloaded exponentials {t: expm(t * X)}, by their rows' times
    scope = matcore._SCOPE.get()
    return {} if scope is None else {t: scope.exponentials[id(Y)] for t, Y in scope.rows.items()}


@pytest.fixture
def solves(monkeypatch):
    """Padé solves taken so far: one per expm that computes a nonzero input, counted at the
    LAPACK binding `matcore._pade` solves through."""
    calls = []
    solve = matcore._gesv

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(matcore, "_gesv", counted)
    return calls


@pytest.fixture
def doubled():
    """A memoized kernel M -> 2 M, as `lie.in_group` is one, with `calls`, the calls that reach it."""
    calls = []

    @memoized
    def f(M):
        calls.append(1)
        return 2.0 * np.asarray(M)

    f.calls = calls
    return f


def test_expm_outside_a_memo_computes_every_call(solves):
    expm(X_MEMO)
    expm(X_MEMO)
    assert len(solves) == 2
    assert matcore._SCOPE.get() is None


def test_memo_computes_each_distinct_argument_once(doubled):
    with memo(X_MEMO, []):
        first = doubled(X_MEMO)
        again = doubled(X_MEMO.copy())
        assert len(doubled.calls) == 1
        # exact bytes: a one-ulp change is a different argument
        doubled(np.nextafter(X_MEMO, 2.0))
        assert len(doubled.calls) == 2
    assert np.array_equal(first, again)
    assert np.array_equal(first, doubled(X_MEMO))


def test_memo_hit_hands_out_a_private_copy(doubled):
    with memo(X_MEMO, [1.0]):
        row = _row(X_MEMO, 1.0)
        first = expm(row)  # a preloaded value
        first[:] = 99.0
        again = expm(row)
        assert again is not first
        stored = doubled(X_MEMO)  # a value stored by the call
        stored[:] = 99.0
        assert np.array_equal(doubled(X_MEMO), 2.0 * X_MEMO) and len(doubled.calls) == 1
    assert np.array_equal(again, expm(X_MEMO))


def test_memo_table_is_dropped_on_exit(solves, doubled):
    with memo(X_MEMO, [1.0]):
        preloaded = len(solves)
        expm(_row(X_MEMO, 1.0))  # a preloaded row
        doubled(X_MEMO)  # computed and stored
        assert matcore._SCOPE.get().table and len(solves) == preloaded
    assert matcore._SCOPE.get() is None
    expm(_row(X_MEMO, 1.0)), doubled(X_MEMO)
    assert len(solves) == preloaded + 1 and len(doubled.calls) == 2


def test_memo_table_is_dropped_after_an_exception(solves, doubled):
    with pytest.raises(RuntimeError):
        with memo(X_MEMO, [1.0]):
            preloaded = len(solves)
            expm(_row(X_MEMO, 1.0)), doubled(X_MEMO)
            raise RuntimeError("inside the scope")
    assert matcore._SCOPE.get() is None
    expm(_row(X_MEMO, 1.0)), doubled(X_MEMO)
    assert len(solves) == preloaded + 1 and len(doubled.calls) == 2


def test_a_nested_memo_scope_starts_its_own_table(solves, doubled):
    with memo(X_MEMO, []):
        outer = matcore._SCOPE.get()
        doubled(0.5 * X_MEMO)
        assert len(outer.table) == 1 and len(doubled.calls) == 1 and scope_rows() == {}  # the call's
        with memo(X_MEMO, [1.0]):
            inner = matcore._SCOPE.get()
            assert inner.table is not outer.table and len(outer.table) == 1
            preloaded = len(solves)
            expm(_row(X_MEMO, 1.0)), expm(_row(X_MEMO, 2.0))  # hits on the inner preload
            doubled(0.5 * X_MEMO)  # the outer table's entry is not looked up here
            assert len(solves) == preloaded and len(doubled.calls) == 2
        # leaving the inner scope brings the outer table and rows back, unchanged
        assert matcore._SCOPE.get() is outer and len(outer.table) == 1
        doubled(0.5 * X_MEMO)
        assert len(doubled.calls) == 2
        expm(_row(X_MEMO, 1.0))  # the inner preload went with its scope
        assert len(solves) == preloaded + 1
    assert matcore._SCOPE.get() is None


def test_memo_key_is_dtype_shape_strides_bytes_and_arguments():
    calls = []

    @memoized
    def f(M, *rest, **kw):
        calls.append(1)
        return float(np.sum(M))

    M = np.arange(4.0).reshape(2, 2)
    with memo(X_MEMO, []):
        preloaded = memo_entries()
        f(M)
        f(M.copy())                       # same bytes, strides, dtype: a hit
        assert len(calls) == 1
        f(M.astype(">f8"))                # other byte order
        f(M.view(np.int64))               # same bytes, other dtype
        f(np.asfortranarray(M))           # same entries and bytes, other strides
        f(M.reshape(1, 4))                # same bytes, other shape
        assert len(calls) == 5
        f(M, 1e-9)
        f(M, 1e-9)
        assert len(calls) == 6
        f(M, [1])                         # unhashable: computed every call
        f(M, [1])
        f(np.array([[1, 2]], dtype=object))  # not numeric: computed every call
        f(np.array([[1, 2]], dtype=object))
        assert len(calls) == 10
        assert memo_entries() == preloaded + 6


def test_a_keyword_call_in_a_memo_scope_is_computed_and_not_stored(solves):
    calls = []

    @memoized
    def f(M, tol=0.0):
        calls.append(1)
        return float(np.sum(M))

    with memo(X_MEMO, [1.0]):
        table = dict(matcore._SCOPE.get().table)
        preloaded = len(solves)
        f(X_MEMO, tol=1e-9), f(X_MEMO, tol=1e-9), f(M=X_MEMO)
        assert len(calls) == 3
        # `expm` is no memoized kernel: a keyword call on a row finds its exponential as a positional one
        row = _row(X_MEMO, 1.0)
        assert row is scope_rows()[1.0]
        assert expm(X=row).tobytes() == expm(row).tobytes() == expm(X_MEMO).tobytes()
        assert len(solves) == preloaded + 1  # the foreign X_MEMO's
        assert matcore._SCOPE.get().table.keys() == table.keys()


def test_memo_stores_no_call_that_raises():
    calls = []

    @memoized
    def flaky(M):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("first call fails")
        return float(np.sum(M))

    with memo(X_MEMO, []):
        preloaded = memo_entries()
        with pytest.raises(RuntimeError):
            flaky(np.eye(2))
        assert flaky(np.eye(2)) == 2.0
        assert flaky(np.eye(2)) == 2.0
        with pytest.raises(NonFiniteInput):
            expm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(NonFiniteInput):
            expm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        assert memo_entries() == preloaded + 1  # flaky's one success
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the scope's t * X rows (`matcore._times`)

SCOPE_GRID = [0.5, -0.25, 1.5, 0.0, -0.0]
# times a caller may pass: the grid's, its sums, ints, bools, numpy scalars, complex ones
# (1 + 0j equals 1.0 as a key, but its t * X is complex) and a float the preload did not form
SCOPE_TIMES = [0.5, -0.25, 1.5, 0.0, -0.0, 1.0, 0.25, 3.0, -0.5, 1, 0, True, False, np.float64(0.5),
               np.float32(0.5), np.float32(-0.25), 1 + 0j, 0.5 + 0j, -0.25j, 0.3]


def _bits(M):
    return M.dtype, M.shape, M.strides, M.tobytes()


def _scope_matrices():
    rng = np.random.default_rng(28)
    X = rng.normal(size=(4, 4))
    return {
        "real": X,
        "complex": X + 1j * rng.normal(size=(4, 4)),
        "fortran": np.asfortranarray(X),
        "n=31": rng.normal(size=(31, 31)) / 31,
        "n=32": rng.normal(size=(32, 32)) / 32,
    }


def _row_expected(t):
    # a preloaded row: a Python-float time of the grid or its sums, zero included, at every n and order
    sums = {s + u for s in SCOPE_GRID for u in SCOPE_GRID}
    return type(t) is float and (t in SCOPE_GRID or t in sums)


def _is_row(M, t):
    return M is scope_rows().get(t)


@pytest.mark.parametrize("case", sorted(_scope_matrices()))
def test_memo_scope_hands_out_t_x_bit_for_bit(case):
    X = _scope_matrices()[case]
    reach = matcore._reach(X)
    want = [_bits(t * X) for t in SCOPE_TIMES]
    with memo(X, SCOPE_GRID):
        got = [matcore._times(X, t, reach) for t in SCOPE_TIMES]
        # -0.0 takes the 0.0 row, the grid's first zero: expm of either product is the identity
        assert [_bits(M) for M in got] == [_bits(0.0 * X) if t == 0.0 and _row_expected(t) else w
                                           for t, w in zip(SCOPE_TIMES, want)]
        # a row is the scope's read-only t * X, a slice of one stacked product at every n and order,
        # every other product a new array
        assert [_is_row(M, t) for M, t in zip(got, SCOPE_TIMES)] == [_row_expected(t) for t in SCOPE_TIMES]
        assert all(not M.flags.writeable for M, t in zip(got, SCOPE_TIMES) if _is_row(M, t))
        assert all(M.flags.writeable for M, t in zip(got, SCOPE_TIMES) if not _is_row(M, t))
        assert len({id(Y.base) for Y in scope_rows().values()}) == 1
        assert [_bits(expm(M)) for M in got] == [_bits(expm(t * X)) for t in SCOPE_TIMES]
    assert [_bits(matcore._times(X, t, reach)) for t in SCOPE_TIMES] == want
    assert matcore._SCOPE.get() is None


def test_memo_scope_rows_go_with_the_scope():
    X = X_MEMO.copy()
    reach = matcore._reach(X)
    with memo(X, [0.5]):
        row = matcore._times(X, 0.5, reach)
        assert _is_row(row, 0.5)
    assert matcore._SCOPE.get() is None and matcore._times(X, 0.5, reach) is not row
    with pytest.raises(RuntimeError):
        with memo(X, [0.5]):
            raise RuntimeError("inside the scope")
    assert matcore._SCOPE.get() is None
    # a preload that fails (2e308 overflows) holds no row, and the products are new
    with memo(X, [0.5, 1e308]):
        scope = matcore._SCOPE.get()
        assert scope.rows == scope.exponentials == scope.table == {}
        assert _bits(matcore._times(X, 0.5, reach)) == _bits(0.5 * X)
        assert matcore._times(X, 0.5, reach).flags.writeable


@pytest.mark.parametrize("errors", ["warn", "ignore"])
def test_a_preload_whose_sums_overflow_reports_nothing(errors):
    # 1e308 + 1e308 overflows: under "warn" the preload fails without a warning, under "ignore" its
    # infinite time fails it; the calls act as outside a scope either way
    with warnings.catch_warnings(record=True) as caught, np.errstate(all=errors):
        warnings.simplefilter("always")
        with memo(X_MEMO, [0.5, 1e308]):
            assert scope_rows() == {} and memo_entries() == 0
            assert expm(_row(X_MEMO, 0.5)).tobytes() == expm(0.5 * X_MEMO).tobytes()
    assert caught == []


def test_memo_scope_rows_belong_to_their_own_x():
    X, Y = X_MEMO.copy(), 2.0 * X_MEMO
    reach_x, reach_y = matcore._reach(X), matcore._reach(Y)
    with memo(X, [0.5]):
        outer = matcore._SCOPE.get()
        with memo(Y, [0.75]):
            # the inner scope's rows are Y's: X's products are new, with X's bits
            assert matcore._times(X, 0.5, reach_x) is not outer.rows[0.5]
            assert _bits(matcore._times(X, 0.5, reach_x)) == _bits(0.5 * X)
            assert _is_row(matcore._times(Y, 0.75, reach_y), 0.75)
            assert _bits(matcore._times(Y, 0.75, reach_y)) == _bits(0.75 * Y)
            # an equal copy of Y is not the scope's array
            assert not _is_row(matcore._times(Y.copy(), 0.75, reach_y), 0.75)
        assert matcore._SCOPE.get() is outer
        assert _is_row(matcore._times(X, 0.5, reach_x), 0.5)
        assert matcore._times(Y, 0.75, reach_y).flags.writeable


def test_memo_scope_sees_x_mutated_in_place():
    X = X_MEMO.copy()
    reach = matcore._reach(X)
    changed = X.copy()
    changed[0, 0] = 1.3
    want = expm(0.5 * changed).tobytes()
    with memo(X, [0.5]):
        X[0, 0] = 1.3
        M = matcore._times(X, 0.5, reach)
        assert not _is_row(M, 0.5) and _bits(M) == _bits(0.5 * X)
        assert expm(M).tobytes() == want
        X[0, 0] = X_MEMO[0, 0]  # the preloaded bytes again
        assert _is_row(matcore._times(X, 0.5, reach), 0.5)


# ---------------------------------------------------------------------------
# identity hits: `expm` on a row finds the row's preloaded exponential without a key


@pytest.mark.parametrize("n", [2, 5, 31, 32, 40])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_a_rows_hit_is_a_private_copy_of_expm_outside_a_scope(solves, n, complex_, order):
    rng = np.random.default_rng([n, complex_, 29])
    X = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0.0)
    X = np.asarray(X / n, order=order)
    grid = [-1.5, -0.5, 0.25, 1.0, 2.0, -0.0, 0.0]  # every time has a row, +-0.0 the first zero's
    ts = [*grid, *(s + t for s in grid for t in grid)]
    want = {repr(t): _bits(expm(t * X)) for t in ts}
    with memo(X, grid):
        solves.clear()
        for t in ts:
            row = _row(X, t)
            assert row is scope_rows()[t] and _bits(row) == _bits((t or -0.0) * X)
            E = expm(row)
            assert _bits(E) == want[repr(t)] and E.flags.writeable and E.flags.owndata
            E[...] = 99.0  # the caller's own: the next hit is unchanged
            assert _bits(expm(row)) == want[repr(t)]
        assert len(solves) == 0 and memo_entries() == 0  # no call computed, none looked up by bytes


def test_rows_are_read_only_and_go_with_the_scope(solves):
    X = X_MEMO.copy()
    with memo(X, [0.5, 1.0]):
        rows = dict(scope_rows())
        assert sorted(rows) == [0.5, 1.0, 1.5, 2.0]
        assert set(matcore._SCOPE.get().exponentials) == {id(Y) for Y in rows.values()}
        for Y in rows.values():
            with pytest.raises(ValueError, match="read-only"):
                Y[0, 0] = 1.0
        solves.clear()
        expm(rows[0.5])
        assert len(solves) == 0
    assert matcore._SCOPE.get() is None
    # past its scope a row is an ordinary argument, computed by each call
    assert expm(rows[0.5]).tobytes() == expm(0.5 * X).tobytes() and len(solves) == 2


def test_only_expm_finds_a_row_by_identity():
    calls = []

    @memoized
    def f(M):
        calls.append(1)
        return float(np.sum(M))

    with memo(X_MEMO, [0.5]):
        row = _row(X_MEMO, 0.5)
        assert _is_row(row, 0.5)
        # another kernel on the row is not answered with its exponential: computed once, then hit by bytes
        assert f(row) == f(row) == float(np.sum(0.5 * X_MEMO))
        assert len(calls) == 1 and memo_entries() == 1


def test_a_foreign_product_in_a_scope_is_computed_each_call(solves):
    X = X_MEMO
    want = expm(0.5 * X).tobytes()
    with memo(X, [0.5]):
        solves.clear()
        # 0.5 * X formed here, not the scope's row: computed by each call, as outside a scope
        first, again = expm(0.5 * X), expm(0.5 * X)
        assert len(solves) == 2 and memo_entries() == 0
        assert first.tobytes() == again.tobytes() == want == expm(_row(X, 0.5)).tobytes()
        assert len(solves) == 2 and first is not again


def test_an_x_mutated_in_its_scope_is_computed_afresh(solves):
    X = X_MEMO.copy()
    changed = X.copy()
    changed[0, 1] = 2.0
    want = expm(0.5 * changed).tobytes()
    with memo(X, [0.5]):
        solves.clear()
        X[0, 1] = 2.0
        M = _row(X, 0.5)  # a new product of the new X, not the preloaded row
        assert not _is_row(M, 0.5)
        assert expm(M).tobytes() == want and len(solves) == 1
        assert expm(_row(X, 0.5)).tobytes() == want and len(solves) == 2  # computed again


@pytest.fixture
def validated(monkeypatch):
    """The `expm` calls that get past the scope lookup, counted as they reach validation."""
    calls = []
    square_float = matcore._square_float

    def counted(a, *rest):
        if sys._getframe(1).f_code is matcore.expm.__code__:
            calls.append(1)
        return square_float(a, *rest)

    monkeypatch.setattr(matcore, "_square_float", counted)
    return calls


@pytest.mark.parametrize("n", [2, 31, 32, 40])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_both_grid_checks_find_every_exponential_by_the_one_lookup(monkeypatch, validated, n, complex_, order):
    import oracles
    from evolflow.curves import ExpLine, check_one_parameter_subgroup
    from evolflow.flows import Flow, flow_axioms
    from evolflow.lie import Group

    rng = np.random.default_rng([n, complex_, 30])
    X = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0.0)
    X = np.asarray(X / n, order=order)
    A0 = np.eye(n) + rng.normal(size=(n, n)) / (4 * n)
    grid = [-0.75, 0.0, 0.5, -0.0, 1.25]
    flow, curve, bases = Flow(X, Group.gl(n)), ExpLine(A0, X), [A0, np.eye(n)]
    assert flow.X.flags.f_contiguous == (order == "F")
    with monkeypatch.context() as m:  # the per-pair references outside any scope: every call computed
        m.setattr(oracles, "memo", lambda X, grid: contextlib.nullcontext())
        want = oracles.per_pair_flow_axioms(flow, bases, grid), oracles.per_pair_subgroup_report(curve, grid)
    assert validated  # outside a scope each `expm` call is validated, zero times included
    validated.clear()
    got = flow_axioms(flow, bases, grid), check_one_parameter_subgroup(curve, grid)
    assert len(validated) == 0  # in both checks each `expm` call was a row of the preload
    assert repr(got) == repr(want)


def test_times_past_the_reach_overflow_without_a_warning():
    # pytest turns RuntimeWarning into an error here: no errstate wrapper
    X = np.array([[0.0, 3.0], [-2.0, 1e-300]])
    reach = matcore._reach(X)
    assert reach == 2.0**1023 / 3.0 and type(reach) is np.float64
    for t in (reach, -reach, float(np.nextafter(reach, 0.0)), np.float32(3e38), 1j * reach,
              reach * (0.6 + 0.8j), 10**300):
        assert np.isfinite(matcore._times(X, t, reach)).all()
    for t in (1e308, -1e308, np.float64(1e308), 1e308 + 0j):
        M = matcore._times(X, t, reach)
        assert not np.isfinite(M).all() and _bits(M) == _bits(_quiet_product(t, X))
        with pytest.raises(NonFiniteInput):
            expm(M)
    with np.errstate(over="raise"):
        assert not np.isfinite(matcore._times(X, 1e308, reach)).all()
    assert matcore._reach(np.zeros((2, 2))) == math.inf


def _quiet_product(t, X):
    with np.errstate(over="ignore", invalid="ignore"):
        return t * X


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
    on at every size), and one at a time with stacked blocks of three times
    below _STACK_BELOW_N.
    """
    off, on = (lambda: False), (lambda: True)
    settings = [
        {"evolflow.matcore._helper_engages": off},
        {"evolflow.matcore._helper_engages": off, "evolflow._stepper.CHUNK_ENTRIES": 3 * np.asarray(X).size},
        {"evolflow.matcore._helper_engages": on, "evolflow.matcore._PARALLEL_MIN_N": 1},
    ]
    with np.errstate(all="ignore"):  # an exponential that overflows does so alike
        want = {}
        for t in ts:
            want.setdefault(t, expm(t * X))
        runs = []
        for patches in settings:
            with pytest.MonkeyPatch.context() as mp:
                for name, value in patches.items():
                    mp.setattr(name, value)
                runs.append(list(expm_times(X, ts)))
    for results in runs:
        assert len(results) == len(want)
        assert {repr(t) for t, _ in results} == {repr(t) for t in want}  # the first of 0.0 and -0.0
        for t, E in results:
            assert E.dtype == want[t].dtype and E.shape == want[t].shape
            assert E.tobytes() == want[t].tobytes(), t
        assert len({id(E) for _, E in results}) == len(results)  # each matrix the caller's own
        assert all(E.base is None for _, E in results)  # and not a view into a stack
    return runs[0]


def chapman_times(ts):
    return [*ts, 0.0, *(s + t for s in ts for t in ts)]


def assert_grouped_is_expm(X, ts):
    """`assert_expm_times_is_expm` as planned, then with every nonzero time on the grouped path:
    with `_block_rows` forced to 1, so that no block stacks, and on an F-ordered copy of X."""
    assert_expm_times_is_expm(X, ts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matcore, "_block_rows", lambda n: 1)
        assert_grouped(X, ts)
        assert_expm_times_is_expm(X, ts)
    F = np.asfortranarray(X)
    assert_grouped(F, ts)
    assert_expm_times_is_expm(F, ts)


def assert_grouped(X, ts):
    # `_plan` stacks no time: each nonzero one goes to a group
    stacks, zeros, families = matcore._plan(X, ts)
    members = sum(len(group) for family in families.values() for group in family.values())
    assert stacks == [] and members + len(zeros) == len(dict.fromkeys(ts))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 50])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("scale", [0.1, 1.0, 30.0])
def test_expm_times_is_expm_bit_for_bit(n, kind, scale):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, n))
    if kind == "complex":
        X = X + 1j * rng.normal(size=(n, n))
    assert_expm_times_is_expm(scale * X, TIMES)


@pytest.mark.parametrize("n", [2, 3, 17, 31])
@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_expm_times_is_expm_bit_for_bit_on_an_x_not_in_c_order(n, layout):
    # an F-ordered t * X rounds its products otherwise than a stacked C-ordered one (at n = 17 every
    # nonzero time of TIMES differed when its blocks stacked), so only a C-ordered X stacks
    X = np.random.default_rng(n).normal(size=(n, n))
    if layout == "fortran":
        X = np.asfortranarray(X)
    else:
        wide = np.zeros((n, 2 * n))
        wide[:, ::2] = X
        X = wide[:, ::2]
    assert_expm_times_is_expm(X, TIMES)


@pytest.mark.parametrize("n", [50, 100, 200, 300])
def test_expm_times_is_expm_on_rate_matrices(n):
    # the sizes and times of the dense axioms checks: four irregular times
    # and their sums, then the continuity sweep
    Q = random_rate_matrix(n, n).Q
    ts = [float(t) for t in np.random.default_rng(n).uniform(0.0, 1.6, 4)]
    assert_expm_times_is_expm(Q, chapman_times(ts))
    assert_expm_times_is_expm(Q, SWEEP)


@pytest.mark.parametrize("engages", [False, True], ids=["one-at-a-time", "two-at-a-time"])
def test_expm_times_yields_a_group_at_a_time_in_the_plans_order(monkeypatch, engages):
    # at n = 40 every time is grouped: zeros first, then the families by first-seen mantissa of t,
    # each family's groups by ascending offset and each group's members by (k, t), the order that
    # sets how many Chapman-Kolmogorov sums `axioms_report` holds (its times are `chapman_times`)
    monkeypatch.setattr(matcore, "_helper_engages", lambda: engages)
    monkeypatch.setattr(matcore, "_PARALLEL_MIN_N", 1)
    Q = random_rate_matrix(40, 40).Q

    def order(ts):
        zeros, families = per_time_plan(Q, ts)
        return [t for t, _ in zeros] + [t for family in families.values() for offset in sorted(family)
                                        for _, t, _ in sorted(family[offset])]

    def yielded(ts):
        return [t for t, _ in expm_times(Q, ts)]

    ts = chapman_times([0.3, 0.6, 0.7, 1.4])
    assert yielded(ts) == [0.0, 0.3, 0.6, 1.2, 0.7, 1.4, 2.8, 0.3 + 0.6, 0.3 + 0.7, 0.6 + 1.4, 0.3 + 1.4,
                           0.6 + 0.7, 0.7 + 1.4] == order(ts)
    ts = chapman_times([float(t) for t in np.random.default_rng(40).uniform(0.0, 1.6, 4)])
    assert yielded(ts) == order(ts) != list(dict.fromkeys(ts))
    assert yielded(SWEEP) == order(SWEEP) == SWEEP[::-1]


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


def test_expm_times_computes_the_powers_near_underflow():
    # X t has entries near 1e-155, so (X t)^2 is subnormal at small t: the
    # powers of 2^k X t are not 4^k (X t)^2 there
    X = np.zeros((4, 4))
    X[0, 1], X[1, 2], X[2, 3] = 1.2345678901234e-155, 3.3333333333e-157, 5.0 / 2**10
    assert_grouped_is_expm(X, [2.0**k for k in range(11)])


def test_expm_times_shares_powers_only_over_a_representable_factor():
    # power-of-two multiples of a nilpotent X, at times from 2^-1074 to 4
    X = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert_grouped_is_expm(X, [2.0**-1074, 2.0**-300, 2.0**-10, 1.0, 4.0])


def test_expm_times_shares_no_powers_with_an_entry_that_underflowed():
    # t X loses its one-ulp entry to underflow at t <= 1/4 but not at t = 1:
    # the scaled arguments are no longer power-of-two multiples of one another
    X = np.array([[1.0, 5e-324], [0.0, 2.0]])
    assert np.array_equal(0.25 * X, np.diag([0.25, 0.5]))
    assert_grouped_is_expm(X, [2.0**-k for k in range(8)])


def test_expm_times_splits_a_group_whose_scaled_arguments_differ(pade):
    # 0.3 X / 4 and 0.6 X / 8 differ in the subnormal entry's last bit, so
    # the two times take one approximant each, though 0.6 is twice 0.3
    X = np.array([[40.0, 3.78159362874e-313], [0.0, -40.0]])
    assert not np.array_equal(as_matrix(0.3 * X) / 4.0, as_matrix(0.6 * X) / 8.0)
    _, families = per_time_plan(X, [0.3, 0.6])
    assert [[t for _, t, _ in group] for family in families.values() for group in family.values()] == [[0.3, 0.6]]
    assert_grouped_is_expm(X, [0.3, 0.6])
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
    # a block that does not stack takes one approximant per distinct scaled argument; a stacked
    # block below n = 32 takes one row per nonzero time, as expm does, though 2t beside t above
    # theta_13 repeat an argument
    Q = random_rate_matrix(5, 4).Q
    ts = chapman_times([0.25, 0.5, 0.6, 1.5]) + SWEEP
    got = dict(expm_times(Q, ts))
    scaled = list(zip(pade.degrees, pade))
    pade.clear()
    for t in got:
        assert got[t].tobytes() == expm(t * Q).tobytes()
    assert len(pade) == len(got) - 1 == 31  # expm: one per nonzero time
    # expm_times: one row per nonzero time, 27 distinct (degree, scaled argument), all of degree 13
    assert len(scaled) == 31 and len(set(scaled)) == 27
    assert set(scaled) == set(zip(pade.degrees, pade)) and set(pade.degrees) == {13}
    pade.clear()
    with pytest.MonkeyPatch.context() as mp:  # one time a block: no block stacks
        mp.setattr(_stepper, "CHUNK_ENTRIES", Q.size)
        assert all(E.tobytes() == got[t].tobytes() for t, E in expm_times(Q, ts))
    assert len(pade) == len(set(zip(pade.degrees, pade))) == 27
    assert set(scaled) == set(zip(pade.degrees, pade))


def test_the_continuity_sweep_takes_fewer_products_than_degree_13(monkeypatch):
    # the 2**-k sweep of a 64-state rate matrix: each time that the 1-norm takes unhalved has the
    # degree its 1-norm bounds, at 2 to 6 products (the powers it forms and r_m's own), where
    # degree 13 took 6 each
    Q = random_rate_matrix(64, 9).Q
    unhalved = [t for t in SWEEP if one_norm(t * Q) <= matcore._THETA[13]]
    products, degrees, even, pade = [], set(), matcore._Powers.even, matcore._pade

    def counted(powers, h):
        formed = len(powers.W)
        result = even(powers, h)
        products.extend([1] * (len(powers.W) - formed))
        return result

    def approximant(A, powers, m):
        degrees.add(m)
        products.extend([1] * (3 if m == 13 else 1))  # U, and degree 13's two inside
        return pade(A, powers, m)

    monkeypatch.setattr(matcore._Powers, "even", counted)
    monkeypatch.setattr(matcore, "_pade", approximant)
    got = dict(expm_times(Q, SWEEP))
    monkeypatch.undo()
    assert len(unhalved) == 17 and len(products) < 6 * len(unhalved) and degrees == {3, 5, 7, 9, 13}
    assert all(E.tobytes() == expm(t * Q).tobytes() for t, E in got.items())


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
    """The helper forced on, no times stacked; the times of each group computed on another thread."""
    monkeypatch.setattr(matcore, "_helper_engages", lambda: True)
    monkeypatch.setattr(matcore, "_block_rows", lambda n: 1)
    caller = threading.get_ident()
    groups = []
    group = matcore._group

    def recorded(X, members):
        if threading.get_ident() != caller:  # read as the group is taken, on the thread taking it
            groups.append([t for _, t, _ in members])
        yield from group(X, members)

    monkeypatch.setattr(matcore, "_group", recorded)
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
    _, _, families = matcore._plan(X, ts)
    groups = sum(len(family) for family in families.values())
    if n < matcore._PARALLEL_MIN_N:
        assert helper_groups == []
    else:  # every other group on the helper
        assert len(helper_groups) == groups // 2 >= 2


def test_one_group_takes_no_helper(helper_groups):
    X = random_rate_matrix(matcore._PARALLEL_MIN_N, 4).Q
    before = threading.active_count()
    for t, E in expm_times(X, [0.0, 0.7, 0.0]):
        assert threading.active_count() == before
        assert E.tobytes() == expm(t * X).tobytes()
    assert helper_groups == []


def test_two_at_a_time_shares_powers_a_pair_was_given(helper_groups, monkeypatch):
    # the sweep is one family of groups, whose scaled arguments are
    # power-of-two multiples of one another, taken two at a time
    monkeypatch.setattr(matcore, "_PARALLEL_MIN_N", 1)
    Q = random_rate_matrix(80, 3).Q
    assert_expm_times_is_expm(Q, SWEEP)


def test_the_helper_computes_a_chain_member_whose_scaled_argument_differs(
        helper_groups, monkeypatch, pade):
    # as in test_expm_times_splits_a_group_whose_scaled_arguments_differ, with
    # a group of another family first, so that the split group is the helper's
    monkeypatch.setattr(matcore, "_PARALLEL_MIN_N", 1)
    X = np.array([[40.0, 3.78159362874e-313], [0.0, -40.0]])
    got = dict(expm_times(X, [0.1, 0.3, 0.6]))
    assert helper_groups == [[0.3, 0.6]]
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
    assert helper_groups == [[2.0]]
    with np.errstate(all="ignore"):
        got = dict(expm_times(X, [0.3, 2.0]))
        want = expm(2.0 * X)
    assert np.isinf(got[2.0][0, 0]) and got[2.0].tobytes() == want.tobytes()


def test_preload_stores_nothing_when_the_helpers_exponential_would_warn(helper_groups):
    # the grid [0.3, 2.0] and its sums make three groups: 0.3 with 0.6, 2.0 with 4.0, and 2.3;
    # the helper takes the second, where exp(2 X) overflows
    n = matcore._PARALLEL_MIN_N
    X = np.zeros((n, n))
    X[0, 0], X[1, 1] = 500.0, -500.0
    with memo(X, [0.3, 2.0]):
        assert preloaded() == {} and memo_entries() == 0
    with np.errstate(all="ignore"):
        with memo(X, [0.3, 2.0]):
            assert sorted(preloaded()) == [0.3, 0.6, 2.0, 2.3, 4.0]
    assert helper_groups == [[2.0, 4.0], [2.0, 4.0]]


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
    assert helper_groups == [[0.7], [0.7], [0.7], [1.9]]


def test_two_at_a_time_holds_two_exponentials_and_two_blocks_of_values(monkeypatch):
    # the helper's approximant can be in progress while the caller's is, so
    # the bound is two exponentials' peaks and the values of two groups
    # (a group's values: its chain's members)
    monkeypatch.setattr(matcore, "_helper_engages", lambda: True)
    monkeypatch.setattr(matcore, "_PARALLEL_MIN_N", 1)
    Q = random_rate_matrix(64, 3).Q
    ts = [*SWEEP, *chapman_times([0.3, 0.6, 0.7, 1.4])]
    _, _, families = matcore._plan(Q, ts)
    values = max(len(members) for family in families.values() for members in family.values())
    assert len(families) > 1 and values > 1
    dict(expm_times(Q, ts))  # the thread pool's import is not the generator's memory
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
    assert streamed <= 2 * one + 2 * values * Q.nbytes


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
    """Matrices X whose 1-norm takes each count of squarings (`_squarings`), every other one
    non-normal (a diagonal under a large strict upper triangle), with their 1-norms and the
    scaled arguments X / 2**k `expm` forms of them, as one stack; a zero slice and a slice whose
    powers overflow come last in the stack, with no X."""
    Xs = []
    for j, k in enumerate(squarings):
        X = rng.normal(size=(n, n))
        if complex_:
            X = X + 1j * rng.normal(size=(n, n))
        if j % 2:
            X = np.diag(np.diag(X)) + 1e3 * np.triu(X, 1)
        X *= matcore._THETA[13] * 2.0**k * rng.uniform(0.55, 1.0) / one_norm(X)
        assert matcore._squarings(one_norm(X)) == k
        Xs.append(X)
    big = np.full((n, n), 1e200, dtype=complex if complex_ else float)
    S = np.stack([*(X / 2.0**k for X, k in zip(Xs, squarings)), np.zeros_like(big), big])
    return Xs, [one_norm(X) for X in Xs], squarings, S


def assert_stacked_helpers_are_per_slice(Xs, norms, squarings, S):
    # the halvings of a stacked `_Powers` (`_row_halvings`, the last two slices taken as unhalved)
    # and every power, 1-norm and norm of |A|**27 behind them equal the one-matrix calls' (`_degree`),
    # bit for bit, and so do the approximants of one stacked call, the last two slices' (unscaled)
    # too; these, each squared its own number of times, are expm's
    stacked, alone, chosen = matcore._Powers(S), [matcore._Powers(A.copy()) for A in S], []
    with np.errstate(all="ignore"):  # the last slice overflows alike in both forms
        rows = matcore._row_halvings(stacked, np.array([*norms, 0.0, 0.0]), np.array([*squarings, 0, 0]))
        stacked_norms, stacked_abs_norms = np.array(stacked.norms()), stacked.abs_norm()
        for i, (nrm, k) in enumerate(zip(norms, squarings)):
            m, s = matcore._degree(alone[i], nrm, k)
            assert m == 13 and rows[i] == s  # below n = 32
            assert stacked_norms[:, i].tolist() == alone[i].norms()
            assert stacked_abs_norms[i] == alone[i].abs_norm()
            assert all(P[i].tobytes() == Q.tobytes() for P, Q in zip(stacked.even(3), alone[i].even(3)))
            chosen.append((k - s, s))
        a = np.array([a for a, _ in chosen] + [0, 0])
        E = matcore._approximant(stacked.arguments(13), 13, a)
        for s in {s for _, s in chosen}:
            squared = matcore._square(E, s)
            for i in range(len(S)):
                assert squared[i].tobytes() == matcore._square(E[i], s).tobytes()
        for powers, a_i, Ei in zip(alone, a.tolist(), E):
            assert Ei.tobytes() == matcore._approximant(powers.arguments(13), 13, a_i).tobytes()
        for X, (_, s), Ei in zip(Xs, chosen, E):
            assert matcore._square(Ei, s).tobytes() == expm(X).tobytes()
    assert not np.isfinite(E[-1]).any()  # the overflowing slice, in a stack of finite ones
    return chosen


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_stacked_pade_helpers_equal_each_slice_bit_for_bit(n, complex_):
    rng = np.random.default_rng([n, complex_])
    chosen = assert_stacked_helpers_are_per_slice(*pade_stack(rng, n, complex_, [0, 3, 0, 1, 7, 2, 0, 30, 700]))
    # the norms of the powers take fewer halvings than the 1-norm for a non-normal matrix
    assert (max(a for a, _ in chosen) > 0) is (n > 1)


def test_stacked_pade_helpers_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 10),
        complex_=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        squarings=st.lists(st.integers(0, 12) | st.sampled_from([40, 900]), min_size=1, max_size=12),
    )
    def prop(n, complex_, seed, squarings):
        assert_stacked_helpers_are_per_slice(*pade_stack(np.random.default_rng(seed), n, complex_, squarings))

    prop()


def test_block_rows_fill_chunk_entries_below_the_stacking_limit():
    assert matcore._block_rows(1) == _stepper.CHUNK_ENTRIES
    assert matcore._block_rows(5) == _stepper.CHUNK_ENTRIES // 25
    assert matcore._block_rows(matcore._STACK_BELOW_N - 1) > 1
    assert matcore._block_rows(matcore._STACK_BELOW_N) == 1


@pytest.mark.parametrize("n", [3, matcore._STACK_BELOW_N])
def test_expm_times_takes_a_block_of_approximants_in_one_call(monkeypatch, n):
    shapes, degrees = [], set()
    approximant = matcore._pade

    def recorded(A, powers, m):
        shapes.append(A.shape)
        degrees.add(m)
        return approximant(A, powers, m)

    monkeypatch.setattr(matcore, "_pade", recorded)
    X = np.random.default_rng(n).normal(size=(n, n))
    X /= one_norm(X)
    ts = [0.1 * k for k in range(1, 41)]  # ||t X|| <= 4 needs no halving: 40 scaled arguments
    got = dict(expm_times(X, ts))
    assert len(got) == 40
    # below n = 32 every degree is 13; from there on ||t X|| <= theta_9 takes lower ones
    assert degrees == {13} if n < matcore._STACK_BELOW_N else len(degrees) > 2
    if n < matcore._STACK_BELOW_N:
        assert shapes == [(40, n, n)]
    else:
        assert shapes == [(n, n)] * 40
    shapes.clear()
    monkeypatch.setattr(_stepper, "CHUNK_ENTRIES", 16 * n * n)
    assert all(E.tobytes() == got[t].tobytes() for t, E in expm_times(X, ts))
    if n < matcore._STACK_BELOW_N:
        assert shapes == [(16, n, n), (16, n, n), (8, n, n)]


def test_expm_times_computes_a_mixed_dtype_block_row_by_row():
    # a complex numpy time among real ones makes one complex scaled argument:
    # stacked with the real ones it would upcast them, so none is stacked
    X = np.array([[0.2, -1.0], [0.5, 0.1]])
    ts = [0.5, np.complex128(1.5), 2.5]
    with pytest.warns(getattr(np, "exceptions", np).ComplexWarning):  # np.ComplexWarning before NumPy 1.25
        got = dict(expm_times(X, ts))
    for t in ts:
        assert got[t].tobytes() == expm(t * X).tobytes()


# ---------------------------------------------------------------------------
# the memo scope's preload


def memo_entries():
    # the entries of the open scope's table, the memoized kernels' (`lie.in_group`)
    return len(matcore._SCOPE.get().table)


def test_preload_stores_expm_under_the_key_of_each_call(pade):
    X = np.array([[0.3, -1.2], [0.7, 0.1]])
    grid = [-0.0, 0.25, 0.25, 1e-9, -1.5]
    ts = [0.0, *grid, *(s + t for s in grid for t in grid)]
    want = {repr(t): expm(t * X) for t in ts}
    pade.clear()
    with memo(X, grid):
        rows = len(pade)
        # ||t X||_1 <= 3.9 takes no halving: one approximant row per distinct nonzero time (0.25,
        # 1e-9, -1.5 and their sums 0.5, 0.25 + 1e-9, -1.25, 2e-9, -1.5 + 1e-9, -3.0), each the
        # exponential of its t * X row; 0.0 and -0.0 share the row of the grid's -0.0, which takes none
        assert rows == 9 == len(preloaded()) - 1 == len(want) - 2
        for t in ts:
            assert expm(_row(X, t)).tobytes() == want[repr(t)].tobytes()
        assert len(pade) == rows
        assert memo_entries() == 0  # no call computed, none looked up by bytes


def test_preload_keys_on_the_kernel_not_on_a_binding(monkeypatch, pade):
    # a wrapper bound over `matcore.expm` (as a tracer binds one) reaches
    # expm's own row lookup, and the preloaded entry is a hit through it
    kernel = matcore.expm
    calls = []

    def wrapper(M):
        calls.append(1)
        return kernel(M)

    monkeypatch.setattr(matcore, "expm", wrapper)
    X = np.array([[0.0, 2.0], [-1.0, 0.5]])
    with memo(X, [0.5, 1.5]):
        rows = len(pade)
        wrapper(_row(X, 0.5)), wrapper(_row(X, 1.5)), wrapper(_row(X, 3.0))
        assert len(calls) == 3 and len(pade) == rows > 0 and memo_entries() == 0


@pytest.mark.parametrize("quiet", [False, True], ids=["pytest-errors", "errstate-ignore"])
@pytest.mark.parametrize("X, grid", [
    (np.array([[0.0, 1e10], [2.0, 0.0]]), [0.5, 1e300, 1.0]),  # t X overflows
    (np.full((2, 2), 1e308), [0.5, 1.0]),  # the 1-norm of t X overflows
    (np.array([[0.0, 1.0], [2.0, 0.0]]), [0.5, math.nan]),
    (np.array([[0.0, 1.0], [2.0, 0.0]]), [math.inf]),
    (np.ones((2, 3)), [0.5]),
    (np.array([[0.0, 1.0], [2.0, 0.0]]), [0.5, "a"]),
    (np.array([["a", "b"], ["c", "d"]]), [0.5]),
], ids=["overflow", "norm-overflow", "nan", "inf", "non-square", "string-time", "string-matrix"])
def test_preload_never_raises_and_stores_nothing_when_a_time_fails(X, grid, quiet):
    with np.errstate(all="ignore") if quiet else np.errstate():
        with memo(X, grid):
            assert memo_entries() == 0 and preloaded() == {}


@pytest.mark.parametrize("X, t, message", [
    (np.array([[0.0, 1e10], [2.0, 0.0]]), 1e300, "matrix has non-finite entries"),
    (np.full((2, 2), 1e308), 1.0, "matrix 1-norm overflows"),
    (np.array([[0.0, 1.0], [2.0, 0.0]]), math.nan, "matrix has non-finite entries"),
], ids=["overflow", "norm-overflow", "nan"])
def test_after_a_failed_preload_each_call_raises_as_outside_a_scope(X, t, message):
    with np.errstate(over="ignore"):
        Y = t * X
    with memo(X, [0.5, t]):
        assert memo_entries() == 0 and scope_rows() == {}
        for _ in range(2):
            with pytest.raises(NonFiniteInput, match=message):
                expm(Y)
            expm(np.eye(2))
        assert memo_entries() == 0  # exp(I) is computed by each call
    with pytest.raises(NonFiniteInput, match=message):
        expm(Y)


def test_preload_stores_nothing_when_an_exponential_would_warn():
    # exp(2X) overflows in its squarings: under the settings that report an
    # overflow the per-call path reports it, so nothing is preloaded; with
    # overflows ignored the values are stored
    X = np.diag([500.0, -500.0])
    with np.errstate(all="ignore"):
        want = expm(2.0 * X)
    assert np.isinf(want[0, 0])
    with np.errstate(over="warn"):
        with memo(X, [1.0]):
            assert preloaded() == {} and memo_entries() == 0
            with pytest.warns(RuntimeWarning, match="overflow"):
                expm(_row(X, 2.0))  # a new product, which warns as outside a scope
            assert memo_entries() == 0
    with np.errstate(all="ignore"):
        with memo(X, [1.0]):
            assert sorted(preloaded()) == [1.0, 2.0]
            assert expm(_row(X, 2.0)).tobytes() == want.tobytes() and memo_entries() == 0


# ---------------------------------------------------------------------------
# the stacked plan


def _theta_edges(X):
    # times at and on either side of ||t X||_1 = theta_m for m = 3 to 9, where the degree steps,
    # and of theta_13 2**k, where the halvings step
    edges = []
    bounds = [matcore._THETA[m] for m in (3, 5, 7, 9)] + [matcore._THETA[13] * 2.0**k for k in range(-3, 12)]
    for bound in bounds:
        t = bound / one_norm(X)
        edges += [float(np.nextafter(t, 0.0)), t, float(np.nextafter(t, math.inf))]
    return edges + [-t for t in edges]


_PLAN_X = np.random.default_rng(17).normal(size=(4, 4))
_PLAN_Z = _PLAN_X + 1j * _PLAN_X.T
_EDGE_X = np.random.default_rng(23).normal(size=(32, 32))


@pytest.mark.parametrize("X", [_PLAN_X, _PLAN_Z, np.triu(_PLAN_X), _EDGE_X, _EDGE_X + 1j * _EDGE_X.T],
                         ids=["real", "complex", "triangular", "real-32", "complex-32"])
def test_expm_times_is_expm_at_the_degree_and_halving_edges(X):
    assert_expm_times_is_expm(X, _theta_edges(X))


_PLAN_CASES = {  # X, times, and whether their blocks are stacked
    "signed-zeros-and-duplicates": (_PLAN_X, [0.0, -0.0, 0.5, 0.5, -0.0, 1.5, 0.0, -2.0, 1.5], True),
    "sweep": (_PLAN_X, [sign * 2.0**-k for k in range(60) for sign in (1.0, -1.0)], True),
    "theta-edges": (_PLAN_X, _theta_edges(_PLAN_X), True),
    "complex": (_PLAN_Z, TIMES + _theta_edges(_PLAN_Z), True),
    "zero-matrix": (np.zeros((3, 3)), TIMES, True),
    "n=31": (np.random.default_rng(18).normal(size=(31, 31)), TIMES + _theta_edges(_PLAN_X), True),
    "n=32": (np.random.default_rng(19).normal(size=(32, 32)), TIMES, False),
    "fortran": (np.asfortranarray(_PLAN_X), TIMES + _theta_edges(_PLAN_X), False),
    "numpy-times": (_PLAN_X, [np.float64(t) for t in TIMES], False),
    "float32": (_PLAN_X.astype(np.float32), TIMES, False),
    "int": (np.arange(16).reshape(4, 4) - 8, TIMES, False),
}


@pytest.fixture
def norms(monkeypatch):
    """The 1-norms `_scaling_norm` takes, one a time validated one t * X at a time."""
    taken = []
    scaling_norm = matcore._scaling_norm
    monkeypatch.setattr(matcore, "_scaling_norm", lambda M: taken.append(1) or scaling_norm(M))
    return taken


@pytest.mark.parametrize("case", sorted(_PLAN_CASES))
def test_stacked_plan_equals_the_per_time_plan(norms, case):
    X, ts, stacks = _PLAN_CASES[case]
    want = per_time_plan(X, ts)
    stacked, *got = matcore._plan(X, ts)
    if stacks:  # every time in a stacked block, in order, with the per-time plan's 1-norm (0.0 if zero)
        assert got == [[], {}]
        zeros, families = want
        planned = {t: nrm for block, nrms in stacked for t, nrm in zip(block, nrms.tolist())}
        assert [repr(t) for t in planned] == [repr(t) for t in dict.fromkeys(ts)]
        assert planned == {t: 0.0 for t, _ in zeros} | {
            t: nrm for family in families.values() for members in family.values() for _, t, nrm in members}
        assert all(dtype == X.dtype for _, dtype in zeros)
    else:  # the zero times with their dtypes, the families with their squarings, in order
        assert stacked == [] and repr(tuple(got)) == repr(want)
    assert len(norms) == (0 if stacks else len(dict.fromkeys(ts)))


@pytest.mark.parametrize("ts, message", [
    ([0.5, 1.0, math.nan, 0.25], "matrix 1-norm overflows"),
    ([0.5, math.nan, 1.0, 0.25], "matrix has non-finite entries"),
    ([0.25, 3.0, 1.0], "matrix has non-finite entries"),
], ids=["norm-then-nan", "nan-then-norm", "entry-then-norm"])
def test_a_failing_block_raises_as_the_per_time_plan_for_its_first_failing_time(ts, message):
    # 1e308 t X: at t = 1 the entries are finite but the 1-norm overflows, at t = 3 an entry does
    X = np.full((2, 2), 1e308)
    with pytest.raises(NonFiniteInput) as want:
        per_time_plan(X, ts)
    with pytest.raises(NonFiniteInput) as got:
        matcore._plan(X, ts)
    assert str(got.value) == str(want.value) == message


def test_a_block_stacks_only_while_numpy_ignores_underflow(norms):
    # 1e-300 X underflows in its last entry: under "warn" each t * X reports it
    X = np.array([[1.0, 2.0], [3.0, 1e-20]])
    ts = [0.5, 1e-300, 2.0]
    with np.errstate(under="warn"), pytest.warns(RuntimeWarning, match="underflow"):
        stacked, *got = matcore._plan(X, ts)
    assert len(norms) == 3 and stacked == []
    with np.errstate(under="warn"), pytest.warns(RuntimeWarning, match="underflow"):
        assert repr(tuple(got)) == repr(per_time_plan(X, ts))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_preload_stores_each_value_under_the_key_of_its_call(norms, complex_, order):
    rng = np.random.default_rng(20)
    X = np.asarray(rng.normal(size=(4, 4)) + (1j * rng.normal(size=(4, 4)) if complex_ else 0.0),
                   order=order)
    # -0.0 beside 0.0, and 0.5 twice
    grid = [float(t) for t in np.linspace(-2.0, 2.0, 9)] + [-0.0, 0.5]
    ts = [*grid, *(s + t for s in grid for t in grid)]
    want = {t: expm(t * X).tobytes() for t in ts}
    with memo(X, grid):
        rows, got = dict(scope_rows()), preloaded()
        assert memo_entries() == 0
    # a C-ordered X is planned from stacked products, an F-ordered one time by time
    assert len(norms) == (0 if order == "C" else len(dict.fromkeys(ts)))
    # each distinct time's value under its row, t * X bit for bit; -0.0 is the grid's 0.0
    assert [repr(t) for t in got] == [repr(t) for t in want] and len(want) == len(dict.fromkeys(ts))
    for t, E in got.items():
        assert E.tobytes() == want[t] and _bits(rows[t]) == _bits(t * X)


# ---------------------------------------------------------------------------
# the stacked rows below n = 32: one row per time, as arrays from the 1-norms to the squarings


ROWS_GRID = [float(t) for t in np.linspace(-2.0, 2.0, 41)]


def rows_cases(n, complex_):
    """C-ordered matrices of order n for the stacked rows: a random one, a non-normal one (a
    diagonal under a large strict upper triangle), a nilpotent one whose powers ask for no halving
    and whose ell adds them, and one with ||t X||_1 = t exactly (its first column e_1, the others
    smaller), so that t = theta_13 and one ulp either side are the halving edge itself."""
    rng = np.random.default_rng([n, complex_, 26])

    def draw():
        return rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0.0)

    R, T = draw(), draw()
    w = np.resize([1.0, -1.0], n)
    w[-1] -= w.sum()  # entries summing to 0.0 exactly, so the rank-one X below squares to 0
    edge = draw()
    edge[:, 0] = 0.0
    edge *= 0.9 / max(one_norm(edge), 1.0)
    edge[0, 0] = 1.0
    return {"random": R * (4.0 / one_norm(R)), "non-normal": np.diag(np.diag(T)) + 1e3 * np.triu(T, 1),
            "nilpotent": 100.0 * np.outer(np.ones(n), w), "edge": edge.astype(T.dtype)}


def rows_times(X, grid):
    """The times of a stacked block: a grid and its sums, 2**-k sweeps, t beside 2t and 4t above
    theta_13, the degree and halving edges of ||t X||_1, +-0.0 and subnormal times."""
    theta, nrm = matcore._THETA[13], one_norm(X)
    above = [c * theta / (nrm or 1.0) * 2.0**j for c in (1.3, 2.9) for j in range(3)]
    edges = [float(np.nextafter(theta, 0.0)), theta, float(np.nextafter(theta, math.inf))]
    edges += _theta_edges(X)[::5] if nrm else []
    tiny = [5e-324, -5e-324, 2.0**-1060, 1e-310]
    return [0.0, *grid, *(s + t for s in grid for t in grid), *(2.0**-k for k in range(0, 40, 3)), *above,
            *edges, -0.0, *tiny]


def assert_rows_are_expm(X, ts, pade):
    """`expm_times(X, ts)` on stacked rows: each distinct time once, in order, with the bytes of
    expm(t * X) and of the reference chain, in one block and in blocks of seven times; one
    approximant row per nonzero time; each value the caller's own."""
    want = {}
    with np.errstate(over="ignore", invalid="ignore"):  # the largest times overflow alike
        for t in ts:
            if t not in want:
                want[t] = expm(t * X)
                assert want[t].tobytes() == reference_expm(t * X).tobytes(), t
    nonzero = sum(bool(np.any(t * X)) for t in want)
    for chunk in (_stepper.CHUNK_ENTRIES, 7 * X.size):
        pade.clear()
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
            mp.setattr(_stepper, "CHUNK_ENTRIES", chunk)
            got = list(expm_times(X, ts))
        assert [repr(t) for t, _ in got] == [repr(t) for t in want]
        for t, E in got:
            assert E.dtype == want[t].dtype and E.tobytes() == want[t].tobytes(), t
        assert len(pade) == nonzero and set(pade.degrees) <= {13}
        assert all(E.base is None for _, E in got)
        got[1][1][...] = 99.0  # written into: no other value changes
        assert all(E.tobytes() == want[t].tobytes() for t, E in got[2:])
    return got


@pytest.mark.parametrize("n", range(1, matcore._STACK_BELOW_N))
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_stacked_rows_are_expm_and_the_reference_chain_bit_for_bit(monkeypatch, pade, n, complex_):
    halvings = matcore._row_halvings
    squared, ells = [], []

    def recorded(powers, nrm, squarings):
        s = halvings(powers, nrm, squarings)
        squared.append(int(s.max(initial=0)))
        return s

    abs_norm = matcore._Powers.abs_norm
    monkeypatch.setattr(matcore, "_row_halvings", recorded)
    monkeypatch.setattr(matcore._Powers, "abs_norm", lambda self: ells.append(self.A.ndim) or abs_norm(self))
    # at grid_small's sizes every case on the 41-point grid; above them half the cases, alternately
    cases = list(rows_cases(n, complex_).items())
    grid, cases = (ROWS_GRID, cases) if n <= 5 else (ROWS_GRID[::8], cases[n % 2::2])
    for name, X in cases:
        ells.clear()
        assert_rows_are_expm(X, rows_times(X, grid), pade)
        if name == "nilpotent" and n > 1:  # its rows' ell comes from the exact norm, on a stack
            assert 3 in ells
    assert max(squared) > 0  # rows squared at several levels


def test_stacked_rows_split_t_and_2t_that_shared_a_chain(pade):
    # above theta_13, 2t's scaled argument is t's (one halving more): grouped, they took one
    # approximant and one chain; as rows each takes its own, to the same bits
    X = np.random.default_rng(26).normal(size=(4, 4))
    X *= 40.0 / one_norm(X)
    ts = [0.3 * 2.0**j for j in range(6)]

    def scaled(t):
        return t * X / 2.0**matcore._squarings(one_norm(t * X))

    assert all(scaled(t).tobytes() == scaled(0.3).tobytes() for t in ts)
    assert_rows_are_expm(X, ts, pade)
    assert len(set(pade)) < len(pade) == 6  # repeated arguments, each its own row


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_stacked_rows_validate_every_time_before_the_first_yield(complex_):
    X = np.array([[0.0, 1e10], [2.0, 0.0]]) * (1j if complex_ else 1.0)
    for ts in ([0.5, 1e300, 1.0], [0.5, 1.0, 0.25, 1e300]):
        times = expm_times(X, ts)
        with pytest.raises(NonFiniteInput, match="non-finite entries"):
            next(times)
        with pytest.MonkeyPatch.context() as mp:  # the failing time in a later block
            mp.setattr(_stepper, "CHUNK_ENTRIES", 2 * X.size)
            with pytest.raises(NonFiniteInput, match="non-finite entries"):
                next(expm_times(X, ts))


@pytest.mark.parametrize("n", [2, 3, 5, 17, 31])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_stacked_rows_preload_hits_through_every_binding(solves, n, complex_):
    from evolflow import cli, curves, flows, markov

    X = rows_cases(n, complex_)["random"]
    ts = [0.0, -0.0, *ROWS_GRID, *(s + t for s in ROWS_GRID for t in ROWS_GRID)]
    want = {repr(t): expm(t * X) for t in ts}
    with memo(X, ROWS_GRID):
        solves.clear()
        for module in (matcore, curves, flows, markov, cli):
            for t in ts:
                E = module.expm(_row(X, t))
                assert E.tobytes() == want[repr(t)].tobytes()
                E[...] = 99.0  # a hit is the caller's own: the entry stays
        assert len(solves) == 0
        assert all(module.expm(_row(X, t)).tobytes() == want[repr(t)].tobytes() for t in ts)
        # a row for each distinct time, +-0.0 sharing one; nothing looked up by bytes
        assert len(preloaded()) == len(want) - 1 and memo_entries() == 0
    assert len(solves) == 0


def test_halvings_of_every_entry_are_the_scalar_ones():
    # `_halvings_of` on int64 arrays against `_halvings` on Python ints: zero, subnormal, normal and
    # huge quantities, each scale k and exponent e of the degree-13 and ell limits
    rng = np.random.default_rng(26)
    q = np.concatenate([[0.0, 5e-324, 3e-320, 2.2250738585072014e-308, 1.0, 1e300],
                        10.0 ** rng.uniform(-300, 300, 200), rng.uniform(0.0, 8.0, 200)])
    q = np.concatenate([q, np.nextafter(q, 0.0), np.nextafter(q, math.inf)])
    e = rng.integers(-60, 60, len(q))
    limits = [*matcore._THETA13_LIMITS.items(), (1, matcore._ELL_ROOT), (26, (0.8, -7))]
    for k, limit in limits:
        got = matcore._halvings_of(q, k, e, limit)
        assert got.dtype == np.int64
        assert got.tolist() == [matcore._halvings(qi, k, ei, limit) for qi, ei in zip(q.tolist(), e.tolist())]
    theta = matcore._THETA[13]
    norms = np.array([theta, *np.nextafter(theta, [0.0, math.inf]), *q[q > 0]])
    k = np.maximum(matcore._halvings_of(norms, 1, 0, matcore._THETA13_LIMITS[1]), 0)
    assert k.tolist() == [matcore._squarings(x) for x in norms.tolist()]


# ---------------------------------------------------------------------------
# the exponential's bits against the reference helper chain (`oracles.reference_expm`): `_matmul`'s
# `ndarray.dot` and the one-matrix path below n = 32, its powers in one stack and v's and u's sums
# from one multiply and one reduction, change no bit


BATTERY_NS = [*range(1, 32), 32, 64, 100, 300]
THETA13 = matcore._THETA[13]
# 1-norms: unhalved, at theta_13 and one ulp either side, halved a little and a lot
BATTERY_NORMS = [0.4, 3.0, THETA13 * (1.0 - 2.0**-52), THETA13, THETA13 * (1.0 + 2.0**-52), 9.0, 300.0]


def assert_same_outcome(got, want):
    # the same bytes, dtype and shape, or the same exception type and message
    assert _expm_outcome(got) == _expm_outcome(want)


def _expm_outcome(f):
    try:
        E = f()
    except Exception as exc:  # compared by type and message; numpy's floating-point error names
        return type(exc), str(exc).split(" encountered in ")[0]  # the ufunc, `dot` or `matmul`
    return E.dtype, E.shape, E.tobytes()


def battery(rng, n, complex_):
    """Matrices of order n for the reference battery: random ones at each of BATTERY_NORMS, a
    non-normal one whose ell adds halvings, one with -0.0 and subnormal entries and, complex at
    n = 2, one whose result's signs of zero hang on the Pade identity terms, each C- and F-ordered,
    as a strided view and as an unaligned copy, which `expm` takes unhalved without copying it."""
    def draw():
        X = rng.normal(size=(n, n))
        return X + 1j * rng.normal(size=(n, n)) if complex_ else X

    X = draw()
    Xs = [X * (nrm / one_norm(X)) for nrm in (BATTERY_NORMS if n <= 64 else BATTERY_NORMS[1::2])]
    T = draw()
    Xs.append(np.diag(np.diag(T)) + 1e3 * np.triu(T, 1))
    Z = 2.0 * draw() / n
    Z[rng.random(Z.shape) < 0.3] = -0.0
    Z[rng.random(Z.shape) < 0.2] = 3e-320
    if complex_:
        Z.imag[rng.random(Z.shape) < 0.3] = -0.0
    Xs.append(Z)
    if complex_ and n == 2:  # exp's (2, 1) entry is -0.0 unless b_0 I and b_1 I reach every entry of v and u
        Xs.append(np.array([[-1 - 0.5j, -1 - 1j], [complex(-0.0, 0.0), 0.5 + 0.5j]]))
    for X in Xs:
        wide = np.zeros((n, 2 * n), dtype=X.dtype)
        wide[:, ::2] = X
        unaligned = np.frombuffer(bytearray(X.nbytes + 1), X.dtype, X.size, offset=1).reshape(n, n)
        unaligned[...] = X
        yield from (X, np.asfortranarray(X), wide[:, ::2], unaligned)


@pytest.mark.parametrize("n", BATTERY_NS)
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_expm_is_the_reference_chain_bit_for_bit(monkeypatch, n, complex_):
    # every branch of the one-matrix path: unhalved, halved with the approximant's argument as it
    # is and halved with `_approximant` rescaling it by 2**a, a > 0 (never at n = 1, where each
    # power's 1-norm is the 1-norm's power); and `expm_times`' groups, which take it
    rescaled, approximant = [], matcore._approximant

    def recorded(W, m, a):
        rescaled.append(bool(np.any(np.asarray(a) > 0)))  # a stacked call's a is an array
        return approximant(W, m, a)

    monkeypatch.setattr(matcore, "_approximant", recorded)
    for X in battery(np.random.default_rng([n, complex_]), n, complex_):
        assert_same_outcome(lambda: expm(X), lambda: reference_expm(X))
        for t, E in expm_times(X, [1.0, 2.0] if n < matcore._STACK_BELOW_N else []):  # 2.0 X: one more halving
            assert E.tobytes() == reference_expm(t * X).tobytes()
    assert False in rescaled and (True in rescaled) is (n > 1)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 31, 32, 64])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_expm_times_is_the_reference_chain_bit_for_bit(n, complex_):
    rng = np.random.default_rng([n, complex_, 1])
    X = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0.0)
    X /= one_norm(X)
    ts = [0.0, 0.1, 0.2, 3.0, THETA13, -THETA13, 6.0, -9.0, 300.0, *_theta_edges(X)[::5]]
    with np.errstate(over="ignore", invalid="ignore"):  # the largest times overflow alike
        for t, E in expm_times(X, ts):
            assert E.tobytes() == reference_expm(t * X).tobytes()


@pytest.mark.parametrize("m", [3, 5, 7, 9, 13])
@pytest.mark.parametrize("n", [1, 2, 5, 17, 31, 32])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_pade_is_the_reference_pade_on_one_matrix_and_on_a_stack(m, n, complex_):
    rng = np.random.default_rng([m, n, complex_])
    S = rng.normal(size=(6, n, n)) + (1j * rng.normal(size=(6, n, n)) if complex_ else 0.0)
    S *= (matcore._THETA[m] * rng.uniform(0.3, 1.0, size=6) / [one_norm(A) for A in S])[:, None, None]
    S[1] = np.triu(S[1])  # a zero lower triangle in every power
    S[2][rng.random((n, n)) < 0.3] = -0.0
    S[2][rng.random((n, n)) < 0.2] = 3e-320
    W = ReferencePowers(S).arguments(m)
    stacked = matcore._pade(W[0], W[1:], m)
    for i, A in enumerate(S):
        powers = ReferencePowers(A.copy()).arguments(m)
        want = reference_pade(powers[0], powers[1:], m).tobytes()
        assert matcore._pade(powers[0], powers[1:], m).tobytes() == want
        assert stacked[i].tobytes() == want
        # the powers as one (h, n, n) stack, as `expm` passes them, with A F-ordered and strided
        wide = np.zeros((n, 2 * n), dtype=A.dtype)
        wide[:, ::2] = A
        for B in (np.asfortranarray(A), wide[:, ::2]):
            assert matcore._pade(B, np.array(powers[1:]), m).tobytes() == reference_pade(B, powers[1:], m).tobytes()


@pytest.mark.parametrize("m", [3, 5, 7, 9, 13])
def test_expm_is_the_reference_chain_at_each_theta_edge_from_n_32(m):
    rng = np.random.default_rng(m)
    for X in (rng.normal(size=(32, 32)), rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))):
        for side in (1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52):
            Y = X * (matcore._THETA[m] * side / one_norm(X))
            assert expm(Y).tobytes() == reference_expm(Y).tobytes()


@pytest.mark.parametrize("b", [1e8, 1e20])
@pytest.mark.parametrize("dtype", [float, complex])
def test_expm_is_the_reference_chain_on_a_large_off_diagonal(b, dtype):
    X = np.array([[1.0, b], [0.0, -1.0]], dtype=dtype)
    assert expm(X).tobytes() == reference_expm(X).tobytes()


@pytest.mark.parametrize("z", [-745 - 1j, -745 - 2.5j, -745 + 100j, -800 - 1j, -3000 + 2.5j, 1e-200 - 1e-200j])
def test_expm_is_the_reference_chain_on_a_one_by_one_complex_underflow(z):
    # exp(z) underflows in its squarings: a 1 x 1 `dot` is a scalar product, which keeps a -0.0
    # imaginary part that `@`'s gemm sums to +0.0, so at n = 1 every product is `@`'s
    X = np.array([[z]])
    with np.errstate(under="ignore"):
        assert expm(X).tobytes() == reference_expm(X).tobytes()


def test_the_identity_terms_stay_read_only_and_unchanged():
    # `_pade13_identity` hands every one-matrix approximant below n = 32 the same array
    rng = np.random.default_rng(24)
    for n in range(1, matcore._STACK_BELOW_N):
        for dtype in (np.dtype(float), np.dtype(complex)):
            X = rng.normal(size=(n, n)).astype(dtype)
            for nrm in (1.0, 9.0):  # unhalved and halved
                expm(X * (nrm / one_norm(X)))
            eye = matcore._pade13_identity(n, dtype)
            fresh = matcore._pade13_identity.__wrapped__(n, dtype)
            assert not eye.flags.writeable and eye.dtype == dtype and eye.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("a", _AS_MATRIX_INPUTS, ids=_AS_MATRIX_IDS)
def test_expm_validates_as_the_reference_chain(a):
    with np.errstate(over="raise"):  # neither its 1-norm nor its validation warns
        assert_same_outcome(lambda: expm(a), lambda: reference_expm(a))


def _coefficient_mutants():
    # (table, degree, coefficient) of b_0, b_1 and b_2: in the tables of v's and u's coefficients
    # that one matrix below n = 32 takes ("pairs": b_0 and b_1 in `_pade13_identity`, b_2 in
    # `_PADE13_TERMS`), and in `_PADE_B`, which the others take.  An ulp of the higher
    # coefficients lies below the result's last bit on most inputs (b_13 = 1 scales A**13 against
    # b_0 ~ 6e16)
    return ([("pairs", 13, i) for i in range(3)]
            + [("b", m, i) for m in matcore._PADE_B for i in range(3)])


@pytest.mark.parametrize("table, m, i", _coefficient_mutants())
def test_a_coefficient_one_ulp_off_fails_the_battery(monkeypatch, table, m, i):
    rng = np.random.default_rng([m, i, table == "pairs"])
    n = 4 if table == "pairs" else 32
    Xs = []
    for side in np.linspace(1.0, 0.2, 8):  # each 1-norm within theta_m, so the degree is m from n = 32
        for complex_ in (False, True):
            X = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0.0)
            Xs.append(X * (matcore._THETA[m] * side / one_norm(X)))
    assert all(expm(X).tobytes() == reference_expm(X).tobytes() for X in Xs)
    if table == "pairs" and i < 2:
        identity = matcore._pade13_identity

        def mutated(n, dtype):
            eye = identity(n, dtype).copy()
            eye[i] += np.eye(n) * (np.nextafter(matcore._PADE_B[13][i], math.inf) - matcore._PADE_B[13][i])
            return eye

        monkeypatch.setattr(matcore, "_pade13_identity", mutated)
    elif table == "pairs":
        terms = matcore._PADE13_TERMS.copy()
        terms[0, 0, 0] = np.nextafter(terms[0, 0, 0], math.inf)  # b_2, of v's A**2
        monkeypatch.setattr(matcore, "_PADE13_TERMS", terms)
    else:
        b = list(matcore._PADE_B[m])
        b[i] = float(np.nextafter(b[i], math.inf))
        monkeypatch.setitem(matcore._PADE_B, m, tuple(b))
    assert any(expm(X).tobytes() != reference_expm(X).tobytes() for X in Xs)


# ---------------------------------------------------------------------------
# the Pade solve: LAPACK's gesv gufunc (`matcore._gesv`) without numpy's wrapper, the same bits and
# the same floating-point reports


def _solve_operands(rng, shape, complex_):
    # a well-conditioned P and a V, with -0.0 and subnormal entries in both
    n = shape[-1]
    P, V = (rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_ else 0.0) for _ in range(2))
    P += n * np.eye(n)
    for M in (P, V):
        M[rng.random(shape) < 0.2] = -0.0
        M[rng.random(shape) < 0.1] = 3e-320
        if complex_:
            M.imag[rng.random(shape) < 0.2] = -0.0
    P[..., range(n), range(n)] = n + 1.0  # subnormal off-diagonal entries only
    return P, V


@pytest.mark.parametrize("n", [1, 2, 3, 17, 31, 32, 64, 300])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_gesv_is_numpys_solve_bit_for_bit_on_one_matrix_and_on_a_stack(n, complex_):
    rng = np.random.default_rng([n, complex_, 25])
    for shape in ((n, n), (2 if n == 300 else 5, n, n)):
        P, V = _solve_operands(rng, shape, complex_)
        got, want = matcore._gesv(P, V), np.linalg.solve(P, V)
        assert got.dtype == want.dtype == P.dtype and got.tobytes() == want.tobytes()


def test_gesv_raises_no_flag_that_numpys_wrapper_hides():
    # the gufunc clears the overflow, underflow and division flags its elimination raises; only a
    # singular matrix reports (invalid), which numpy's wrapper turns into LinAlgError, so `inv` and
    # `stochastic_affine_embed` keep `np.linalg.solve`
    systems = [
        (np.array([[1e-300, 0.0], [0.0, 1.0]]), np.array([[1e300, 1.0], [1.0, 1.0]])),  # overflows
        (np.array([[1e300, 0.0], [0.0, 1.0]]), np.array([[1e-300, 1.0], [1.0, 1.0]])),  # underflows
        (np.array([[1.0, 1e-200], [1e-200, 1.0]]), np.array([[1e-200, 0.0], [0.0, 1.0]])),
        (np.array([[1.0, 3e-320], [-3e-320, 1.0]]) + 0j, np.array([[3e-320j, -0.0], [1.0, 1.0]])),
    ]
    for P, V in systems:
        with np.errstate(all="ignore"):
            want = np.linalg.solve(P, V)
        with np.errstate(all="raise"):
            assert matcore._gesv(P, V).tobytes() == want.tobytes()
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError, match="invalid value"):
        matcore._gesv(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.zeros((2, 2)), np.eye(2))


def _reported(fn, errors):
    # what fn() raises, or its warnings in order, under the numpy error settings `errors`
    with warnings.catch_warnings(record=True) as caught, np.errstate(**errors):
        warnings.simplefilter("always")
        try:
            fn()
        except FloatingPointError as exc:
            return [("raised", str(exc))]
    return [(w.category.__name__, str(w.message)) for w in caught]


@pytest.mark.parametrize("n", [2, 3, 64])
@pytest.mark.parametrize("errors", ["warn", "raise"])
def test_tiny_arguments_report_only_from_products_as_through_numpys_solve(monkeypatch, n, errors):
    # tiny and subnormal arguments underflow in their products (and their solves in elimination);
    # `expm` and `expm_times` (one stacked block below n = 32) report the same events as through
    # numpy's wrapper, none of them from the solve
    rng = np.random.default_rng([n, 25])
    Z = rng.normal(size=(n, n)) * 1e-310
    Z[rng.random((n, n)) < 0.3] = -0.0
    cases = [rng.normal(size=(n, n)) * 1e-160, rng.normal(size=(n, n)) * 1e-310, Z, Z * 1j + Z.T]
    runs = [lambda X=X: expm(X) for X in cases] + [lambda X=X: dict(expm_times(X, [0.5, 1.0, 2.0])) for X in cases]
    got = [_reported(run, {"all": errors}) for run in runs]
    monkeypatch.setattr(matcore, "_gesv", np.linalg.solve)
    assert got == [_reported(run, {"all": errors}) for run in runs]
    assert all(events for events in got)  # each underflows somewhere
    assert not any("solve" in message for events in got for _, message in events)


@pytest.mark.parametrize("errors", [{}, {"under": "warn"}, {"all": "ignore"}], ids=["default", "under-warn", "ignore"])
def test_memo_preloads_tiny_arguments_as_through_numpys_solve(monkeypatch, errors):
    # the preload runs under the strict form of the caller's settings; the solve adds no event
    X = np.random.default_rng(25).normal(size=(3, 3)) * 1e-310
    X[0, 1] = -0.0

    def entries():
        with np.errstate(**errors), memo(X, [0.5, 1.0]):
            return {t: E.tobytes() for t, E in preloaded().items()}

    got = entries()
    monkeypatch.setattr(matcore, "_gesv", np.linalg.solve)
    assert got == entries()
    # under the default settings, the nonzero times 0.5, 1.0, 1.5 and 2.0, each with expm(t * X)'s
    # bits; with underflow reported the preload stores nothing
    assert len(got) == (0 if errors == {"under": "warn"} else 4)
    if not errors:
        with np.errstate(under="ignore"):
            assert got == {t: expm(t * X).tobytes() for t in (0.5, 1.0, 1.5, 2.0)}
