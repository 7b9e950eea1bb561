import math
import warnings

import numpy as np
import pytest

from evolflow.curves import Constant, ExpLine, FlipFlop, perfectness_profile
from evolflow.errors import DimensionMismatch
from evolflow.evoalg import (
    EvolutionAlgebra,
    evo_mul,
    evolution_operator,
    is_markov_algebra,
    is_perfect,
)
from evolflow.markov import random_rate_matrix
from evolflow.matcore import det_gauge
from oracles import brute_evo_mul


def test_basis_squares_are_rows():
    A = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    alg = EvolutionAlgebra(A)
    for i in range(3):
        e = alg.basis_element(i)
        assert np.array_equal(evo_mul(alg, e, e), A[i])


def test_distinct_basis_elements_annihilate():
    alg = EvolutionAlgebra(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = evo_mul(alg, alg.basis_element(0), alg.basis_element(1))
    assert np.array_equal(out, np.zeros(2))


def test_flip_flop_slice_against_brute_expansion():
    A = FlipFlop(1.0).value(1.0)
    alg = EvolutionAlgebra(A)
    x = np.array([1.0, 1.0])
    assert np.allclose(evo_mul(alg, x, x), brute_evo_mul(A, x, x), atol=1e-15)


def test_random_products_match_brute_expansion():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        A = rng.normal(size=(n, n))
        x, y = rng.normal(size=n), rng.normal(size=n)
        alg = EvolutionAlgebra(A)
        assert np.allclose(evo_mul(alg, x, y), brute_evo_mul(A, x, y), atol=1e-13)


def test_bilinearity():
    rng = np.random.default_rng(32)
    alg = EvolutionAlgebra(rng.normal(size=(4, 4)))
    for _ in range(25):
        a, b = rng.normal(), rng.normal()
        x, y, z = (rng.normal(size=4) for _ in range(3))
        lhs = evo_mul(alg, a * x + b * y, z)
        rhs = a * evo_mul(alg, x, z) + b * evo_mul(alg, y, z)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_commutativity():
    rng = np.random.default_rng(33)
    real_alg = EvolutionAlgebra(rng.normal(size=(5, 5)))
    xr, yr = rng.normal(size=5), rng.normal(size=5)
    # real products take the identical arithmetic path
    assert np.array_equal(evo_mul(real_alg, xr, yr), evo_mul(real_alg, yr, xr))
    alg = EvolutionAlgebra(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    x = rng.normal(size=5) + 1j * rng.normal(size=5)
    y = rng.normal(size=5) + 1j * rng.normal(size=5)
    diff = evo_mul(alg, x, y) - evo_mul(alg, y, x)
    assert np.max(np.abs(diff)) <= 1e-15 * max(1.0, np.max(np.abs(x)) * np.max(np.abs(y)))


def test_dimension_mismatch():
    alg = EvolutionAlgebra(np.eye(3))
    with pytest.raises(DimensionMismatch):
        evo_mul(alg, np.ones(2), np.ones(3))


def test_evolution_operator_identity():
    assert np.array_equal(evolution_operator(EvolutionAlgebra(np.eye(4))), np.eye(4))


def test_evolution_operator_rotation_slice_is_transpose():
    t = 0.8
    A = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
    assert np.array_equal(evolution_operator(EvolutionAlgebra(A)), A.T)


def test_evolution_operator_consistent_with_product():
    rng = np.random.default_rng(34)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        alg = EvolutionAlgebra(rng.normal(size=(n, n)))
        L = evolution_operator(alg)
        e = alg.evolution_element()
        for _ in range(10):
            x = rng.normal(size=n)
            assert np.max(np.abs(L @ x - evo_mul(alg, e, x))) <= 1e-12


def test_perfectness():
    assert is_perfect(EvolutionAlgebra(np.eye(3))).perfect
    rank_one = is_perfect(EvolutionAlgebra(np.array([[1.0, 1.0], [1.0, 1.0]])))
    assert rank_one == (False, 0.0, 0)
    for alpha in (-2.0, 0.0, 5.0):
        rep = is_perfect(EvolutionAlgebra(np.array([[0.0, 1.0], [1.0, alpha]])))
        assert rep.perfect and rep.sign == -1
        # det = -1 of the matrix, scaled by its largest entry max(1, |alpha|)
        assert rep.scaled_abs_det == pytest.approx(1.0 / max(1.0, abs(alpha)) ** 2, rel=1e-14)


def _gauge_specimens():
    rng = np.random.default_rng(36)
    dup = rng.normal(size=(4, 4))
    dup[3] = dup[1]  # exactly rank-deficient
    return [
        rng.normal(size=(3, 3)),
        rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
        dup,
        0.01 * np.eye(200),
        1e-110 * np.eye(3),
        -1e-110 * np.eye(3),
        1e150 * np.diag([1.0, 1.0, -1.0]),
    ]


@pytest.mark.parametrize("M", _gauge_specimens(), ids=[
    "real", "complex", "duplicated_row", "0.01_I200", "1e-110_I", "-1e-110_I", "1e150_diag"])
def test_is_perfect_profile_and_gauge_agree(M):
    gauge = det_gauge(M)
    rep = is_perfect(EvolutionAlgebra(M))
    assert rep == (gauge.nonsingular, gauge.scaled_abs_det, gauge.sign)
    (sample,) = perfectness_profile(Constant(M), [0.5]).samples
    assert sample == (0.5, rep.scaled_abs_det, rep.sign)


def test_perfectness_takes_one_lu_per_slice(monkeypatch):
    calls = []
    det = np.linalg.det

    def counted(a):
        calls.append(1)
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    rng = np.random.default_rng(37)
    X = 0.5 * rng.normal(size=(3, 3))
    is_perfect(EvolutionAlgebra(rng.normal(size=(3, 3))))
    assert len(calls) == 1
    grid = np.linspace(-1.0, 1.0, 9)
    calls.clear()
    perfectness_profile(ExpLine(rng.normal(size=(3, 3)), X), grid)
    assert len(calls) == len(grid)


@pytest.mark.parametrize("n", [100, 200, 300])
def test_is_perfect_on_large_rate_matrices_warns_nothing(n):
    # the unscaled det of these overflows at n >= 200; the gauge's does not
    Q = random_rate_matrix(n, rng=n).Q
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = is_perfect(EvolutionAlgebra(Q))
    assert not rep.perfect and rep.sign == 0  # rows sum to zero
    assert rep.scaled_abs_det <= 1e-12


def test_markov_recognition():
    assert is_markov_algebra(EvolutionAlgebra(np.eye(3)))
    assert is_markov_algebra(EvolutionAlgebra(FlipFlop(1.0).value(1.0)))
    # at t = -1 the off-diagonal entries are (1 - e^2)/2 < 0
    assert not is_markov_algebra(EvolutionAlgebra(FlipFlop(1.0).value(-1.0)))
    assert not is_markov_algebra(EvolutionAlgebra(np.eye(2) + 0.5j * np.ones((2, 2))))


def test_markov_slice_preserves_probability_vectors():
    rng = np.random.default_rng(35)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = rng.uniform(0.1, 1.0, size=(n, n))
        A /= A.sum(axis=1, keepdims=True)
        alg = EvolutionAlgebra(A)
        L = evolution_operator(alg)
        p = rng.uniform(0.0, 1.0, size=n)
        p /= p.sum()
        q = L @ p
        assert q.min() >= -1e-12
        assert abs(q.sum() - 1.0) <= 1e-10
