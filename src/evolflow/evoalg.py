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
from .matcore import as_matrix, as_vector, det_gauge, is_real


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
    scaled_abs_det: float  # |det A| of the entry-normalized A, as the gauge takes it
    sign: int | None       # sign of det A: 0 when not perfect; None when complex


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

    The library's one perfectness decision: verdict, magnitude and sign
    all come from the one LU of `matcore.det_gauge`, so structure matrices
    its singularity gauge rejects are classified not perfect.
    """
    return PerfectnessReport(*det_gauge(alg.A))


def is_markov_algebra(alg: EvolutionAlgebra, tol: float = 1e-9) -> bool:
    """True when the structure matrix is real, nonnegative and row stochastic."""
    if not is_real(alg.A, tol):
        return False
    A = alg.A.real
    if np.min(A) < -tol:
        return False
    return bool(np.max(np.abs(A.sum(axis=1) - 1.0)) <= tol)
