"""One classical 4th-order Runge-Kutta step for A'(t) = A(t) X(t), and the
table of generator values that marching and quadrature read.

`GeneratorTable` evaluates a generator once per distinct time, a bounded
chunk of times at a time, with the checks `checked_generator` makes on
each single value.  Marching a table of steps over a horizon is
`flows.march`; `flows._simpson_matrix` reads its quadrature nodes from a
table too.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteGenerator

# Most float64 entries one chunk of tabulated generator values holds (2 MB),
# so a table adds bounded memory however many steps a march takes.
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


class GeneratorTable:
    """Values of the generator `fun` at the times `times` yields, as a lookup.

    Look the times up in the order `times` yields them; a time may be looked
    up again while its chunk is current.  A lookup past the current chunk
    evaluates the next one: up to CHUNK_ENTRIES / n^2 times not yet seen,
    each evaluated once, and the previous chunk is dropped (a time it shares
    with the new one is kept, not evaluated again).
    """

    def __init__(self, fun, n: int, times):
        self._fun, self._n = fun, n
        self._times = iter(times)
        self._per_chunk = max(1, CHUNK_ENTRIES // (n * n))
        self._values = {}

    def __getitem__(self, t: float) -> np.ndarray:
        try:
            return self._values[t]
        except KeyError:
            self._next_chunk()
            return self._values[t]

    def _next_chunk(self) -> None:
        old, kept, fresh = self._values, {}, {}
        for t in self._times:
            if t in old:
                kept[t] = old[t]
            elif t not in fresh:
                fresh[t] = None
                if len(fresh) == self._per_chunk:
                    break
        if fresh:
            ts = list(fresh)
            kept.update(zip(ts, _evaluate(self._fun, self._n, ts)))
        self._values = kept


def rk4_step(A: np.ndarray, t: float, h: float, gen) -> np.ndarray:
    """One classical Runge-Kutta step of size h from (t, A)."""
    k1 = A @ gen(t)
    k2 = (A + 0.5 * h * k1) @ gen(t + 0.5 * h)
    k3 = (A + 0.5 * h * k2) @ gen(t + 0.5 * h)
    k4 = (A + h * k3) @ gen(t + h)
    return A + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
