"""One classical 4th-order Runge-Kutta step for A'(t) = A(t) X(t).

Marching a table of such steps over a horizon is `flows.march`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteGenerator


def checked_generator(fun, n: int):
    """Wrap a time -> matrix callable with shape and finiteness checks."""

    def gen(t: float) -> np.ndarray:
        X = np.asarray(fun(t))
        if X.shape != (n, n):
            raise DimensionMismatch(
                f"generator returned shape {X.shape} at t={t}, expected {(n, n)}"
            )
        if not np.all(np.isfinite(X)):
            raise NonFiniteGenerator(f"generator has non-finite entries at t={t}")
        return X

    return gen


def rk4_step(A: np.ndarray, t: float, h: float, gen) -> np.ndarray:
    """One classical Runge-Kutta step of size h from (t, A)."""
    k1 = A @ gen(t)
    k2 = (A + 0.5 * h * k1) @ gen(t + 0.5 * h)
    k3 = (A + 0.5 * h * k2) @ gen(t + 0.5 * h)
    k4 = (A + h * k3) @ gen(t + h)
    return A + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
