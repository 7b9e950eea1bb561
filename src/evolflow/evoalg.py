"""A single evolution algebra: one frozen time-slice of a curve.

The structure matrix uses the row convention: row i holds the coordinates
of the square of the i-th natural basis element.  Products of distinct
basis elements vanish by definition and are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .matcore import as_matrix, as_vector, is_nonsingular, is_real


@dataclass(frozen=True)
class EvolutionAlgebra:
    """n-dimensional evolution algebra over R or C with structure matrix A."""

    A: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "A", as_matrix(self.A, name="structure matrix"))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def basis_element(self, i: int) -> np.ndarray:
        """Coordinate vector of e_i (0-based index)."""
        e = np.zeros(self.n, dtype=self.A.dtype)
        e[i] = 1.0
        return e

    def evolution_element(self) -> np.ndarray:
        """Coordinates of e = e_1 + ... + e_n."""
        return np.ones(self.n, dtype=self.A.dtype)


class PerfectnessReport(NamedTuple):
    perfect: bool
    abs_det: float


def evo_mul(alg: EvolutionAlgebra, x, y) -> np.ndarray:
    """Product of two elements given by natural-basis coordinates.

    Only the diagonal pairs survive: the result is sum_i x_i y_i (row i of A).
    Bilinear in both arguments and commutative.
    """
    x = as_vector(x, alg.n, name="x")
    y = as_vector(y, alg.n, name="y")
    return (x * y) @ alg.A


def evolution_operator(alg: EvolutionAlgebra) -> np.ndarray:
    """Matrix of left multiplication by the evolution element e = sum e_i.

    Column-image convention: column i is the coordinate vector of
    e * e_i = e_i**2, so the matrix is the transpose of the structure
    matrix and  L_e @ coords(x) == coords(evo_mul(alg, e, x)).
    """
    return alg.A.T.copy()


def is_perfect(alg: EvolutionAlgebra) -> PerfectnessReport:
    """Whether the algebra equals its own square, i.e. det A != 0.

    Structure matrices that `matcore.is_nonsingular` rejects are
    classified not perfect.
    """
    return PerfectnessReport(is_nonsingular(alg.A), float(abs(np.linalg.det(alg.A))))


def is_markov_algebra(alg: EvolutionAlgebra, tol: float = 1e-9) -> bool:
    """True when the structure matrix is real, nonnegative and row stochastic."""
    if not is_real(alg.A, tol):
        return False
    A = alg.A.real
    if np.min(A) < -tol:
        return False
    return bool(np.max(np.abs(A.sum(axis=1) - 1.0)) <= tol)
