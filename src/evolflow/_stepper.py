"""One classical 4th-order Runge-Kutta step for A'(t) = A(t) X(t), and the
tabulation of generator values that marching and quadrature read.

`tabulate` evaluates a generator once per distinct time of a block of
times, with the checks `checked_generator` makes on each single value.
`flows.march` takes its steps a block at a time, tabulating each block's
times; `flows._simpson_matrix` sums its quadrature nodes a block at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteGenerator

# Most float64 entries one block of tabulated generator values holds (2 MB),
# so marching and quadrature add bounded memory however many steps they take.
CHUNK_ENTRIES = 1 << 18


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


def _evaluate(fun, n: int, ts: list):
    """fun at each time of ts; the first bad time raises as `checked_generator` does.

    A callable with an `at(ts)` method gives the values stacked, (len(ts),
    n, n), checked once for shape and once for finiteness.  Anything else,
    and a stack that fails a check or raises, is evaluated one time at a
    time in order, so the first failure in time order is the one raised.
    """
    if hasattr(fun, "at"):
        try:
            stack = np.asarray(fun.at(ts))
        except (ArithmeticError, ValueError):
            stack = None
        if stack is not None and stack.shape[1:] == (n, n) and np.isfinite(stack).all():
            return stack
    gen = checked_generator(fun, n)
    return [gen(t) for t in ts]


def tabulate(fun, n: int, times, known=None) -> dict:
    """fun at each distinct time of `times`, keyed by time in first-use order.

    Each time not in `known` is evaluated once, all of them in one
    `_evaluate` call; a time in `known` takes its value from there.
    """
    known = known or {}
    table = {t: known.get(t) for t in times}
    fresh = [t for t, X in table.items() if X is None]
    table.update(zip(fresh, _evaluate(fun, n, fresh)))
    return table


def rk4_step(A: np.ndarray, t: float, h: float, gen) -> np.ndarray:
    """One classical Runge-Kutta step of size h from (t, A)."""
    k1 = A @ gen(t)
    k2 = (A + 0.5 * h * k1) @ gen(t + 0.5 * h)
    k3 = (A + 0.5 * h * k2) @ gen(t + 0.5 * h)
    k4 = (A + h * k3) @ gen(t + h)
    return A + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
