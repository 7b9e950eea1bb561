import math

import numpy as np
import pytest

from evolflow.errors import DimensionMismatch, NonFiniteInput, SingularMatrix
from evolflow.matcore import (
    as_matrix,
    det,
    det_gauge,
    expm,
    frob_norm,
    inv,
    is_nonsingular,
    memo,
    memoized,
    one_norm,
    spectral_radius_estimate,
)
from evolflow import matcore
from oracles import cofactor_det, taylor_expm


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
    assert det_gauge(np.diag([2.0, 3.0])) == (True, 1)
    assert det_gauge(np.diag([-2.0, 3.0])) == (True, -1)
    assert det_gauge(np.ones((2, 2))) == (False, 0)
    assert det_gauge(np.zeros((3, 3))) == (False, 0)
    assert det_gauge(np.eye(2) * (1.0 + 1j)) == (True, None)
    assert det_gauge(np.ones((2, 2)) * 1j) == (False, None)
    # complex dtype with no imaginary mass is real
    assert det_gauge(np.eye(2).astype(complex)) == (True, 1)


@pytest.mark.parametrize("M, sign", [
    (0.01 * np.eye(200), 1),
    (1e-110 * np.eye(3), 1),
    (-1e-110 * np.eye(3), -1),
    (-1e-110 * np.eye(4), 1),
    (1e150 * np.diag([1.0, 1.0, -1.0]), -1),
])
def test_det_gauge_sign_survives_an_unscaled_determinant_out_of_range(M, sign):
    assert det_gauge(M) == (True, sign)
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
