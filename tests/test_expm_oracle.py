"""`expm` against a 50-digit oracle (mpmath), on the inputs scaling and squaring finds hard.

The battery skips where mpmath is not installed.  Each case compares the
relative Frobenius error of `matcore.expm` with the exponential mpmath takes
at 50 significant digits, rounded to float64.
"""

import numpy as np
import pytest

from evolflow.markov import random_rate_matrix
from evolflow.matcore import expm

mpmath = pytest.importorskip("mpmath")


def reference(X):
    """exp(X) at 50 digits, rounded to float64."""
    with mpmath.workdps(50):
        E = mpmath.expm(mpmath.matrix(np.asarray(X).tolist()))
        return np.array([[float(E[i, j]) for j in range(E.cols)] for i in range(E.rows)])


def relative_error(X):
    want = reference(X)
    return float(np.linalg.norm(expm(X) - want) / np.linalg.norm(want))


@pytest.mark.parametrize("b", [1e8, 1e12])
def test_a_strongly_non_normal_2x2_is_accurate(b):
    # [[1, b], [0, -1]]: halving by ||X||_1 alone took 25 and 38 squarings
    # here and lost 7 digits; its powers' norms ask for none
    assert relative_error(np.array([[1.0, b], [0.0, -1.0]])) <= 1e-14


def test_moler_van_loans_example():
    # the 2 x 2 of Moler & Van Loan (SIAM Review 45, 2003) with eigenvalues
    # -1 and -17, whose exponential the Taylor series loses to cancellation
    assert relative_error(np.array([[-49.0, 24.0], [-64.0, 31.0]])) <= 1e-13


@pytest.mark.parametrize("n", [3, 6])
def test_a_nilpotent_jordan_block(n):
    # exp of the shift is the upper triangle of 1/k!: its powers vanish past n - 1
    assert relative_error(np.diag(np.ones(n - 1), 1)) <= 1e-15
    assert relative_error(-3.0 * np.eye(n) + np.diag(np.ones(n - 1), 1)) <= 1e-14


def test_the_continuity_sweep_of_a_rate_matrix():
    Q = random_rate_matrix(6, 11).Q
    errors = [relative_error(2.0**-k * Q) for k in range(1, 21)]
    assert max(errors) <= 1e-14
