"""One classical 4th-order Runge-Kutta step for A'(t) = A(t) X(t), and the
array table of generator values that marching reads.

The equation is linear in A, so `rk4_step` computes the step's propagator
P(t, h), the step taken from the identity, and returns A @ P.  Given
(k, 1, 1) arrays of times and steps and a generator that gives (k, n, n)
stacks, one call computes k propagators, its stage sums written in place
into one reused buffer.  `tabulate` evaluates a generator once per
distinct time of a block of times, with the checks `checked_generator`
makes on each single value, into a `Table`: the distinct times sorted,
and their values stacked (k, n, n).  Called on a (k, 1, 1) array of
times, the table gives their values: a march block's stage times are
every other row of its table, up or down, which the table reads as one
strided view of its values once it has checked that they are exactly
those rows' times; any other array is searched, and a time the table
does not hold raises rather than take a neighbour's value.
`flows.march` takes its steps a block at a time: it tabulates each
block's times, takes the block's propagators from one stacked `rk4_step`
call, whose four generator calls are four row slices, and folds them in
with one `ndarray.dot` (one gemm) a node.  `flows._simpson_matrix`
weights a block of quadrature nodes at once and adds them in node order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonFiniteGenerator

# Most float64 entries one block of tabulated generator values holds (512 KB),
# so marching and quadrature (and the CLI's CSV, written in batches of as many
# entries) add bounded memory however many steps they take.  A march block of
# k = CHUNK_ENTRIES / (3 n^2) steps holds its table, 2 k + 1 values that each
# RK4 stage reads in place, and `rk4_step`'s five arrays of k values (a stage
# sum, the identity repeated, two stages, its result).  At 2 MB they left the
# cache: marching at n = 60 took 165 us a step, not 132 (2-core Xeon, 1 thread).
# A chunk of CHUNK_ENTRIES / n^2 times (`curves.slices`, an `expm_times` block)
# holds more at small n: 4.1, 4.0 and 4.7 MB beyond its results at n = 5, 3 and 2
# (tracemalloc, `perfectness_profile`): about six block-sized stacks of
# `expm_times` (products, powers, Pade parts), and two Python arrays a time.
CHUNK_ENTRIES = 1 << 16

# The dtypes whose RK4 stage sums `rk4_step` writes in place: a float64 or
# complex128 value keeps its dtype through every operation of the step.
_IN_PLACE = frozenset({np.dtype(np.float64), np.dtype(np.complex128)})


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
    (k, n, n) array (a reversed view for a march block that runs down), or
    a list of k arrays when their dtypes differ, so no value is upcast by
    another's.  Called on a time it gives that time's value; on a (k, 1, 1)
    array of times, the stack of their values: a view of the rows when the
    times are exactly those of evenly spaced rows, as a march's stage times
    are (`_spaced`), else a gather of the rows a search finds.  A time not
    in the table raises KeyError.
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
        if type(s) is np.ndarray and s.ndim and s.size and type(self.values) is np.ndarray:
            rows = self._spaced(s.reshape(-1))
            if rows is not None:
                return self.values[rows]
        idx = self.times.searchsorted(s)
        hit = self.times.take(idx, mode="clip") == s
        if idx.ndim == 0 and hit:
            return self.values[idx]
        if idx.ndim and hit.all():
            return self.rows(idx.reshape(-1))
        raise KeyError(f"no tabulated generator value at t={np.ravel(s)[~np.ravel(hit)][0]}")

    def _spaced(self, s):
        """The slice of rows whose times are exactly s, in order, when they are evenly spaced; else None.

        A march's stage reads ask for every other row of its block's table,
        up or down: rows 2k, 2k + 1 or 2k + 2 for its step k.  The first two
        times place the slice, and one comparison of all of them confirms it.
        """
        head = self.times.searchsorted(s[:2]).tolist()
        step = head[-1] - head[0] if len(head) > 1 else 1
        if not step:
            return None
        stop = head[0] + step * len(s)
        rows = slice(head[0], stop if stop >= 0 else None, step)
        got = self.times[rows]
        if len(got) != len(s) or self.times[-1] != self.times[-1]:
            return None  # rows past an end; or a NaN time, sorted last, which only a search turns away
        return rows if got.tobytes() == s.tobytes() else None  # the same bytes: a -0.0 for 0.0 is searched


def tabulate(fun, n: int, times, known: Table | None = None) -> Table:
    """fun at each distinct time of `times` (any shape), as a Table.

    The times not in `known` are evaluated once each, in first-use order,
    in one `_evaluate` call (an array for `at`, Python floats for a plain
    callable); a time in `known` takes its value from there.  A block that
    runs one way, as a march's does, asks `known` only for its first time
    when the rest lie outside `known`'s span: its table is the fresh values
    after that time's, in block order, or that order reversed as a view when
    the block runs down.  Any other block's values are scattered into
    sorted order.
    """
    times = np.ravel(times)
    first = _runs(times)
    if first is not None:
        ts = times[first]  # the distinct times, in first-use order
        if known is None or _outside(ts[1:], known.times):
            hit = int(known.find(ts[:1])[0]) if known is not None else -1
            fresh = ts[1:] if hit >= 0 else ts
            values = _evaluate(fun, n, fresh if hasattr(fun, "at") else fresh.tolist())
            if hit >= 0:
                row = known.values[hit]
                values = (np.concatenate((row[None], values)) if type(known.values) is type(values) is np.ndarray
                          and row.dtype == values.dtype else _stacked([row, *values], n))
            if ts[0] > ts[-1]:
                return Table(ts[::-1].copy(), values[::-1])
            return Table(ts, values)
    distinct, first = np.unique(times, return_index=True)
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


def _outside(ts, span) -> bool:
    # whether every time of the monotone ts lies outside the sorted span's range
    return not (ts.size and span.size) or max(ts[0], ts[-1]) < span[0] or min(ts[0], ts[-1]) > span[-1]


def _runs(times):
    """The first entry of each run of equal times, for a block that runs one way; else None.

    A march's block of times runs one way, with equal neighbours; there the
    runs of equal times are the distinct times, in first-use order, and each
    run's first entry is the one `np.unique` keeps (its sort is stable).
    """
    step = np.diff(times)
    if times.size and ((step >= 0.0).all() or (step <= 0.0).all()):
        return np.flatnonzero(np.concatenate(([True], step != 0.0)))
    return None


def rk4_step(A: np.ndarray, t, h, gen) -> np.ndarray:
    """One classical Runge-Kutta step of size h from (t, A): A @ P(t, h).

    A' = A X(t) is linear in A, so the step is A times its propagator P,
    the same step taken from the identity: K1 = X(t),
    K2 = (I + h/2 K1) X(t + h/2), K3 = (I + h/2 K2) X(t + h/2),
    K4 = (I + h K3) X(t + h) and P = I + h/6 (K1 + 2 K2 + 2 K3 + K4), with
    gen called four times, at t, t + h/2 (formed once), t + h/2 and t + h.
    t and h may also be (k, 1, 1) arrays, with gen giving (k, n, n) stacks:
    the k propagators then come from one call, and each equals its own
    call's bit for bit.  The coefficients are float64 in both forms, so a
    float32 or integer generator is scaled in float64.

    When the four values share one shape and a dtype of `_IN_PLACE`, every
    operation's result has that dtype, so the same operations in the same
    order write into three arrays: each stage's I + c K into one reused
    buffer, K2 and then the sum into K2's array, K3 and then K4 into K3's.
    Otherwise (a stage that turns complex, a float32 or integer generator)
    the step keeps the plain expression, whose promotions an in-place
    write would change.
    """
    I = np.eye(A.shape[-1])
    w = np.float64(h)  # a Python float h would take a float32 generator's dtype
    mid = t + 0.5 * h
    k1, X2, X3, X4 = gen(t), gen(mid), gen(mid), gen(t + h)
    if not (type(k1) is np.ndarray and k1.dtype in _IN_PLACE and all(
            type(X) is np.ndarray and X.dtype == k1.dtype and X.shape == k1.shape for X in (X2, X3, X4))):
        k2 = (I + 0.5 * w * k1) @ X2
        k3 = (I + 0.5 * w * k2) @ X3
        k4 = (I + w * k3) @ X4
        return A @ (I + (w / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    c = 0.5 * w
    S = np.multiply(c, k1)
    # I repeated to S's stack: each I + S is then one flat pass, not an n x n pass a matrix
    I = np.repeat(I[None], len(S), axis=0) if S.ndim == 3 else I
    k2 = np.add(I, S, out=S) @ X2
    np.multiply(c, k2, out=S)
    k3 = np.add(I, S, out=S) @ X3
    np.multiply(w, k3, out=S)
    np.add(I, S, out=S)  # I + h K3, K4's stage
    np.add(k1, np.multiply(2.0, k2, out=k2), out=k2)
    np.add(k2, np.multiply(2.0, k3, out=k3), out=k2)
    np.add(k2, np.matmul(S, X4, out=k3), out=k2)
    return A @ np.add(I, np.multiply(w / 6.0, k2, out=k2), out=k2)
