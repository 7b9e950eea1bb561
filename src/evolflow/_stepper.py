"""One classical 4th-order Runge-Kutta step for A'(t) = A(t) X(t), and the
tabulation of generator values that marching and quadrature read.

The equation is linear in A, so `rk4_step` computes the step's propagator
P(t, h), the step taken from the identity, and returns A @ P.  Given
(k, 1, 1) arrays of times and steps and a generator that gives (k, n, n)
stacks, one call computes k propagators.  `tabulate` evaluates a generator
once per distinct time of a block of times, with the checks
`checked_generator` makes on each single value.  `flows.march` takes its
steps a block at a time: it tabulates each block's times, takes the
block's propagators from one stacked `rk4_step` call and folds them in,
one product a node.  `flows._simpson_matrix` sums its quadrature nodes a
block at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteGenerator

# Most float64 entries one block of tabulated generator values holds (512 KB),
# so marching and quadrature add bounded memory however many steps they take.
# A stacked RK4 step holds about five block-sized arrays at once.  At 2 MB
# they left the cache: marching at n = 60 took 165 us a step instead of 132
# (2-core Xeon, one BLAS thread).
CHUNK_ENTRIES = 1 << 16


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


def rk4_step(A: np.ndarray, t, h, gen) -> np.ndarray:
    """One classical Runge-Kutta step of size h from (t, A): A @ P(t, h).

    A' = A X(t) is linear in A, so the step is A times its propagator P,
    the same step taken from the identity: K1 = X(t),
    K2 = (I + h/2 K1) X(t + h/2), K3 = (I + h/2 K2) X(t + h/2),
    K4 = (I + h K3) X(t + h) and P = I + h/6 (K1 + 2 K2 + 2 K3 + K4), with
    gen called four times.  t and h may also be (k, 1, 1) arrays, with gen
    giving (k, n, n) stacks: the k propagators then come from one call, and
    each equals its own call's bit for bit.  The coefficients are float64 in
    both forms, so a float32 or integer generator is scaled in float64.
    """
    I = np.eye(A.shape[-1])
    w = np.float64(h)  # a Python float h would take a float32 generator's dtype
    k1 = gen(t)
    k2 = (I + 0.5 * w * k1) @ gen(t + 0.5 * h)
    k3 = (I + 0.5 * w * k2) @ gen(t + 0.5 * h)
    k4 = (I + w * k3) @ gen(t + h)
    return A @ (I + (w / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
