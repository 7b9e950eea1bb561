"""One classical 4th-order Runge-Kutta step for A'(t) = A(t) X(t), and the
array table of generator values that marching reads.

The equation is linear in A, so `rk4_step` computes the step's propagator
P(t, h), the step taken from the identity, and returns A @ P.  Given
(k, 1, 1) arrays of times and steps and a generator that gives (k, n, n)
stacks, one call computes k propagators.  `tabulate` evaluates a generator
once per distinct time of a block of times, with the checks
`checked_generator` makes on each single value, into a `Table`: the
distinct times sorted, and their values stacked (k, n, n).  Called on a
(k, 1, 1) array of times, the table gives their values in one gather,
`values[searchsorted(times, s)]`, and a time it does not hold raises
rather than take a neighbour's value.  `flows.march` takes its steps a
block at a time: it tabulates each block's times, takes the block's
propagators from one stacked `rk4_step` call, whose four generator calls
are four gathers, and folds them in with one `ndarray.dot` (one gemm) a
node.  `flows._simpson_matrix` weights a block of quadrature nodes at
once and adds them in node order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonFiniteGenerator

# Most float64 entries one block of tabulated generator values holds (512 KB),
# so marching and quadrature (and the CLI's CSV, written in batches of as many
# entries) add bounded memory however many steps they take.  A stacked RK4
# step holds about five block-sized arrays at once.  At 2 MB they left the
# cache: marching at n = 60 took 165 us a step, not 132 (2-core Xeon, 1 thread).
# A chunk of CHUNK_ENTRIES / n^2 times (`curves.slices`, an `expm_times` block)
# holds more at small n: 4.1, 4.0 and 4.7 MB beyond its results at n = 5, 3 and 2
# (tracemalloc, `perfectness_profile`): about six block-sized stacks of
# `expm_times` (products, powers, Pade parts), and two Python arrays a time.
CHUNK_ENTRIES = 1 << 16


def checked_generator(fun, n: int):
    """Wrap a time -> matrix callable with shape and finiteness checks; values come out in C order."""

    def gen(t: float) -> np.ndarray:
        X = np.asarray(fun(t), order="C")
        if X.shape != (n, n):
            raise DimensionMismatch(
                f"generator returned shape {X.shape} at t={t}, expected {(n, n)}"
            )
        if not np.all(np.isfinite(X)):
            raise NonFiniteGenerator(f"generator has non-finite entries at t={t}")
        return X

    return gen


def _evaluate(fun, n: int, ts):
    """fun at each time of ts; the first bad time raises as `checked_generator` does.

    A callable with an `at(ts)` method gives the values stacked, (len(ts),
    n, n) in C order, checked once for shape and once for finiteness.
    Anything else, and a stack that fails a check or raises, is evaluated
    one time at a time in order, so the first failure in time order is the
    one raised.  Values evaluated one time at a time come back as one stack
    when they share a dtype, else as the list of them.
    """
    if hasattr(fun, "at"):
        try:
            stack = np.asarray(fun.at(ts), order="C")
        except (ArithmeticError, ValueError):
            stack = None
        if stack is not None and stack.shape[1:] == (n, n) and np.isfinite(stack).all():
            return stack
    gen = checked_generator(fun, n)
    return _stacked([gen(t) for t in ts], n)


def _stacked(values: list, n: int):
    # one (k, n, n) array when the values share a dtype, else the list itself
    if len({V.dtype for V in values}) > 1:
        return values
    return np.array(values) if values else np.empty((0, n, n))


class Table(NamedTuple):
    """A generator's values at distinct times, read by exact time.

    `times` holds the times sorted, `values` the value at each: one
    (k, n, n) array, or a list of k arrays when their dtypes differ, so no
    value is upcast by another's.  Called on a time it gives that time's
    value; on a (k, 1, 1) array of times, the stack of their values, one
    gather.  A time not in the table raises KeyError.
    """

    times: np.ndarray
    values: np.ndarray | list

    def find(self, s) -> np.ndarray:
        """The position of each time of s in `times`, -1 where it is not there."""
        idx = self.times.searchsorted(s)
        return np.where(self.times.take(idx, mode="clip") == s, idx, -1)

    def rows(self, idx):
        """The values at positions idx (an index array), stacked unless their dtypes differ."""
        if isinstance(self.values, np.ndarray):
            return self.values.take(idx, axis=0)  # a fancy index's copy, 2-10 times as fast at n = 2-4
        return _stacked([self.values[i] for i in idx.tolist()], self.values[0].shape[0])

    def __call__(self, s):
        idx = self.times.searchsorted(s)
        hit = self.times.take(idx, mode="clip") == s
        if idx.ndim == 0 and hit:
            return self.values[idx]
        if idx.ndim and hit.all():
            return self.rows(idx.reshape(-1))
        raise KeyError(f"no tabulated generator value at t={np.ravel(s)[~np.ravel(hit)][0]}")


def tabulate(fun, n: int, times, known: Table | None = None) -> Table:
    """fun at each distinct time of `times` (any shape), as a Table.

    The times not in `known` are evaluated once each, in first-use order,
    in one `_evaluate` call (an array for `at`, Python floats for a plain
    callable); a time in `known` takes its value from there.  Fresh values
    that are the whole table in order are its values, not a scattered copy.
    """
    distinct, first = _distinct(np.ravel(times))
    fresh = first.argsort()  # positions in `distinct`, in first-use order
    parts = []
    if known is not None:
        old = known.find(distinct)
        fresh = fresh[old[fresh] < 0]
        kept = np.flatnonzero(old >= 0)
        if kept.size:
            parts.append((kept, known.rows(old[kept])))
    ts = distinct[fresh]
    parts.append((fresh, _evaluate(fun, n, ts if hasattr(fun, "at") else ts.tolist())))
    if len(parts) == 1 and (fresh[1:] > fresh[:-1]).all():
        return Table(distinct, parts[0][1])
    if all(isinstance(V, np.ndarray) for _, V in parts) and len({V.dtype for _, V in parts}) == 1:
        values = np.empty((len(distinct), n, n), parts[0][1].dtype)
        for idx, V in parts:
            values[idx] = V
    else:
        values = [None] * len(distinct)
        for idx, V in parts:
            for i, X in zip(idx.tolist(), V):
                values[i] = X
        values = _stacked(values, n)
    return Table(distinct, values)


def _distinct(times):
    """`np.unique(times, return_index=True)`, without a sort for a monotone block.

    A march's block of times runs one way, with equal neighbours; there the
    runs of equal times are the distinct times, and each run's first entry
    is the one `np.unique` keeps (its sort is stable).  A descending block
    reads them through its reverse; any other block goes to `np.unique`.
    """
    step = np.diff(times)
    if times.size and ((step >= 0.0).all() or (step <= 0.0).all()):
        first = np.flatnonzero(np.concatenate(([True], step != 0.0)))
        if times[0] > times[-1]:
            first = first[::-1]
        return times[first], first
    return np.unique(times, return_index=True)


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
