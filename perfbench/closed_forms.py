"""Closed-form matrix exponentials, written without evolflow.

Every oracle here is exact arithmetic on scalars (`math`) placed into a
matrix, so a check that compares evolflow's output against it measures
evolflow's own error.  Direct sums are permuted by an exact permutation,
which moves entries without rounding them.
"""

from __future__ import annotations

import math

import numpy as np


def triangular(a: float, b: float, c: float) -> np.ndarray:
    """exp([[a, b], [0, c]]): the off-diagonal entry is b (e^a - e^c) / (a - c)."""
    if a == c:
        off = b * math.exp(a)
    else:
        off = b * math.exp(c) * math.expm1(a - c) / (a - c)
    return np.array([[math.exp(a), off], [0.0, math.exp(c)]])


def rotation(theta: float) -> np.ndarray:
    """exp(theta [[0, 1], [-1, 0]])."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def boost(phi: float) -> np.ndarray:
    """exp(phi [[0, 1], [1, 0]])."""
    c, s = math.cosh(phi), math.sinh(phi)
    return np.array([[c, s], [s, c]])


def flip_flop(lam: float, t: float) -> np.ndarray:
    """exp(t [[-lam, lam], [lam, -lam]])."""
    e = math.exp(-2.0 * lam * t)
    p, q = 0.5 * (1.0 + e), 0.5 * (1.0 - e)
    return np.array([[p, q], [q, p]])


def heisenberg(a: float, b: float, c: float) -> np.ndarray:
    """exp([[0, a, b], [0, 0, c], [0, 0, 0]]); the series stops after the square."""
    return np.array([[1.0, a, b + 0.5 * a * c], [0.0, 1.0, c], [0.0, 0.0, 1.0]])


# 2x2 generator families with a closed-form exponential: kind -> (generator
# from parameters, exponential of t * generator from parameters).
BLOCKS = {
    "triangular": (
        lambda p: np.array([[p[0], p[1]], [0.0, p[2]]]),
        lambda p, t: triangular(t * p[0], t * p[1], t * p[2]),
    ),
    "rotation": (
        lambda p: p[0] * np.array([[0.0, 1.0], [-1.0, 0.0]]),
        lambda p, t: rotation(t * p[0]),
    ),
    "boost": (
        lambda p: p[0] * np.array([[0.0, 1.0], [1.0, 0.0]]),
        lambda p, t: boost(t * p[0]),
    ),
    "flip_flop": (
        lambda p: p[0] * np.array([[-1.0, 1.0], [1.0, -1.0]]),
        lambda p, t: flip_flop(p[0], t),
    ),
}


class DirectSum:
    """P^T (B_1 + ... + B_k) P for 2x2 closed-form blocks and a permutation P."""

    def __init__(self, blocks, perm):
        self.blocks = list(blocks)  # [(kind, params)]
        self.perm = np.asarray(perm)
        if self.perm.shape != (2 * len(self.blocks),):
            raise ValueError("permutation length must be twice the block count")

    @property
    def n(self) -> int:
        return self.perm.shape[0]

    def _assemble(self, pieces) -> np.ndarray:
        M = np.zeros((self.n, self.n))
        for i, B in enumerate(pieces):
            M[2 * i:2 * i + 2, 2 * i:2 * i + 2] = B
        return M[np.ix_(self.perm, self.perm)]

    def generator(self) -> np.ndarray:
        return self._assemble(BLOCKS[k][0](p) for k, p in self.blocks)

    def exp(self, t: float) -> np.ndarray:
        """exp(t * generator), block by block."""
        return self._assemble(BLOCKS[k][1](p, t) for k, p in self.blocks)


def rel_err(M, exact) -> float:
    """Relative Frobenius error of M against the exact matrix."""
    M = np.asarray(M)
    exact = np.asarray(exact)
    if M.shape != exact.shape:
        return math.inf
    return float(np.linalg.norm(M - exact) / np.linalg.norm(exact))
