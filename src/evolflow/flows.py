"""Global flows Phi(t, A) = A exp(t X) on matrix Lie groups.

A Flow pairs a generator X with a declared ambient group whose Lie
algebra must contain X; its flow lines are the orbits of base points,
each one a structure-matrix curve staying in the base point's connected
component.  The module also owns fixed-step integration of the
time-dependent problem A' = A X(t): `march` is the one classical
4th-order marching loop, used by `integrate_right` and by the Numeric
curve's trajectory table.  It is a fold over per-step propagators,
A_{k+1} = A_k @ P_k, with each block's P_k from one stacked
`_stepper.rk4_step` call.  Finally it evaluates the closed-form solution
A0 exp(integral of X) available when X(t) commutes with its integral.

Both `march` and the Simpson rule of `commuting_magnus` evaluate the
generator a block of bounded size at a time (`_stepper.CHUNK_ENTRIES`
entries), checked as `checked_generator` checks: `march` tabulates each
distinct time of a block of steps once into an array table and reads it
with one gather per RK4 stage, and the Simpson rule weights a block of
nodes at once and adds them to its sum in node order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import _stepper
from ._stepper import rk4_step, tabulate
from .errors import CommutatorTooLarge, NotInAlgebra, NotInGroup
from .lie import Group, algebra_of, in_algebra, in_group
from .matcore import as_matrix, expm, frob_norm, memo, preload_expm, worst


@dataclass(frozen=True)
class Flow:
    """The global flow of the left-invariant field with value X at identity."""

    X: np.ndarray = field(repr=False)
    group: Group

    def __post_init__(self):
        X = as_matrix(self.X, name="generator")
        object.__setattr__(self, "X", X)
        rep = in_algebra(X, algebra_of(self.group))
        if not rep.belongs:
            raise NotInAlgebra(
                f"generator is not in the {self.group.kind} Lie algebra "
                f"(residual {rep.residual:.3e})"
            )

    @property
    def n(self) -> int:
        return self.X.shape[0]


# Most steps an IntegratorConfig allows, as cli.MAX_GRID_POINTS bounds a grid,
# so a tiny step or an infinite horizon cannot march without end.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step one-step method configuration: step h over [0, horizon].

    The horizon must be finite and at most MAX_STEPS steps of h long.
    """

    h: float
    horizon: float

    def __post_init__(self):
        if not 0.0 < self.h <= self.horizon:
            raise ValueError("need 0 < h <= horizon")
        if not math.isfinite(self.horizon) or self.horizon / self.h > MAX_STEPS:
            raise ValueError(f"need a finite horizon of at most {MAX_STEPS} steps of h")


@dataclass(frozen=True)
class FlowLine:
    """A sampled orbit; the first sample is always (0, base)."""

    base: np.ndarray = field(repr=False)
    samples: tuple = field(repr=False)

    def times(self) -> list:
        return [t for t, _ in self.samples]

    def final(self) -> np.ndarray:
        return self.samples[-1][1]


def base_point(flow: Flow, A, tol: float = 1e-9) -> np.ndarray:
    """A as a validated base point: raises NotInGroup outside the declared group."""
    A = as_matrix(A, name="base point")
    rep = in_group(A, flow.group, tol)
    if not rep.belongs:
        raise NotInGroup(f"base point fails {flow.group.kind} membership (residual {rep.residual:.3e})")
    return A


def flow_apply(flow: Flow, t: float, A, tol: float = 1e-9) -> np.ndarray:
    """Phi(t, A) = A exp(t X) for a base point A of the declared group."""
    return base_point(flow, A, tol) @ expm(t * flow.X)


class FlowAxiomsReport(NamedTuple):
    passed: bool
    identity_residual: float
    composition_residual: float
    tol: float


def flow_axioms(flow: Flow, bases, grid, tol: float = 1e-9) -> FlowAxiomsReport:
    """Check Phi(0, A) = A and Phi(s, Phi(t, A)) = Phi(s+t, A) on the grid.

    The check runs in one `matcore.memo()` block, so each distinct
    exponential and base-point membership is computed once; the block
    is preloaded with exp(t X) for t in {0} and the grid and its pairwise
    sums, all from one `expm_times` call.
    """
    ts = [float(t) for t in grid]
    idents, comps = [], []  # one worst residual per base
    with memo():
        preload_expm(flow.X, itertools.chain([0.0], ts, (s + t for s in ts for t in ts)))
        for A in bases:
            idents.append(frob_norm(flow_apply(flow, 0.0, A, tol) - as_matrix(A)))
            comps.append(worst(
                frob_norm(flow_apply(flow, s, flow_apply(flow, t, A, tol), tol)
                          - flow_apply(flow, s + t, A, tol))
                for s in ts for t in ts))
    ident, comp = worst(idents), worst(comps)
    return FlowAxiomsReport(ident <= tol and comp <= tol, ident, comp, tol)


def flow_line(flow: Flow, A, grid, tol: float = 1e-9) -> FlowLine:
    """Sample the orbit of A; the sample at t = 0 always comes first."""
    A = base_point(flow, A, tol)
    samples = [(0.0, A.copy())]
    for t in grid:
        t = float(t)
        if t == 0.0:
            continue
        samples.append((t, A @ expm(t * flow.X)))
    return FlowLine(A, tuple(samples))


def _nodes(h: float, horizon: float, direction: float, per_block: int):
    # node k at direction * min(k h, horizon), up to the first node within
    # min(1e-12, 1e-9 h) of the horizon (a margin that scales with a tiny h),
    # yielded a block of per_block steps at a time: an array holding the
    # previous block's last node and the block's new ones
    margin = min(1e-12, 1e-9 * h)
    last, k = 0.0, 0
    while direction * last < horizon - margin:
        m = np.minimum(np.arange(k + 1, k + 1 + per_block) * h, horizon)
        short = m < horizon - margin
        if not short.all():
            m = m[:np.argmin(short) + 1]
        block = np.concatenate(([last], direction * m))
        yield block
        last, k = block[-1], k + len(m)


def march(fun, A0: np.ndarray, h: float, horizon: float, direction: float):
    """Classical 4th-order steps of A' = A fun(t) from (0, A0) out to the horizon.

    Node k sits at direction * min(k h, horizon), so the nodes carry no
    accumulated rounding and the final, possibly short, step lands exactly
    on the horizon.  The steps are taken a block of CHUNK_ENTRIES / (3 n^2)
    at a time, the block's node times computed as one array when the march
    reaches it.  The generator is tabulated at the block's times into an
    array table (`_stepper.tabulate`), each distinct time once (a time
    shared with the previous block is not evaluated again).  One stacked
    `rk4_step` call from the identity gives the block's propagators P_k,
    each of its four generator calls one gather from the table, and the
    block is folded in one BLAS call a node, A_{k+1} = A_k.dot(P_k) written
    into the block's output: the gemm of the `@` that `rk4_step` ends with,
    without `np.matmul`'s ufunc dispatch (which doubled a 2000-node fold at
    n = 2-4).  A run of steps whose values differ in dtype from the previous
    step's is stacked on its own, so no value is upcast by its neighbours'.

    The nodes are those of one `rk4_step` call a step, bit for bit: I @ P_k
    adds only zeros to a finite P_k.  A column of P_k that overflows turns
    to NaN in I @ P_k, so the same node entries are non-finite, NaN where
    the per-step loop may hold an infinity.  Returns the node times and
    matrices; the first node is (0, a copy of A0).
    """
    n = A0.shape[0]
    per_block = max(1, _stepper.CHUNK_ENTRIES // (3 * n * n))
    ts, ms, A, X = [0.0], [A0.copy()], A0, None
    I = np.eye(n)
    for nodes in _nodes(h, horizon, direction, per_block):
        t, nxt = nodes[:-1, None, None], nodes[1:, None, None]  # (k, 1, 1) each: every step's ends
        dt = nxt - t
        # the times `rk4_step` passes to its generator, in call order, one row a step
        times = np.concatenate((t, t + 0.5 * dt, t + dt), axis=1)
        X = tabulate(fun, n, times, X)
        runs = [len(t)]  # one run while every value has one dtype
        if isinstance(X.values, list):
            kinds = [X.values[i].dtype for i in X.find(times.ravel()).tolist()]
            runs = [len(list(run)) for _, run in
                    itertools.groupby(zip(kinds[::3], kinds[1::3], kinds[2::3]))]
        stop = 0
        for size in runs:
            start, stop = stop, stop + size
            P = rk4_step(I, t[start:stop], dt[start:stop], X)
            out = np.empty(P.shape, np.result_type(A, P))
            for Pk, Ak in zip(P, out):
                A = A.dot(Pk, Ak)
            ms.extend(out)
        ts.extend(nodes[1:].tolist())
    return ts, ms


def integrate_right(Xfun: Callable, A0, cfg: IntegratorConfig) -> FlowLine:
    """Solve A' = A X(t), A(0) = A0 with fixed classical 4th-order steps.

    Samples every h up to the horizon (see `march`).  For constant X the
    global error against A0 exp(T X) is O(h^4).
    """
    A0 = as_matrix(A0, name="A0")
    ts, ms = march(Xfun, A0, cfg.h, cfg.horizon, 1.0)
    return FlowLine(A0, tuple(zip(ts, ms)))


def _simpson_matrix(fun, n: int, t: float, nodes: int) -> np.ndarray:
    # composite Simpson rule with an odd number of equispaced nodes, a block
    # of CHUNK_ENTRIES / n^2 nodes at a time: the block is weighted at once,
    # then its rows are added to the running sum in node order, in place (a
    # cumulative sum; numpy's sum along an axis may add pairwise)
    xs = np.linspace(0.0, t, nodes)
    h = (t - 0.0) / (nodes - 1)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    per_block = max(1, _stepper.CHUNK_ENTRIES // (n * n))
    acc = None
    for start in range(0, nodes, per_block):
        block = slice(start, start + per_block)
        wX = w[block, None, None] * _stepper._evaluate(fun, n, xs[block])
        if acc is not None:
            wX = wX.astype(np.result_type(wX, acc), copy=False)
            wX[0] += acc
        acc = np.add.accumulate(wX, axis=0, out=wX)[-1]
    return (h / 3.0) * acc


def commuting_magnus(Xfun: Callable, A0, t: float, tol: float = 1e-8) -> np.ndarray:
    """A0 exp(integral_0^t X) when X(t) commutes with its integral.

    The integral is a composite Simpson rule starting from 129 nodes,
    doubling the resolution until the quadrature changes by at most 1e-11
    (capped at 8193 nodes).  If the commutator of X(t) with the integral
    exceeds tol relative to the factor norms, the closed form does not
    apply and CommutatorTooLarge is raised; higher-order corrections are
    deliberately not attempted.
    """
    A0 = as_matrix(A0, name="A0")
    n = A0.shape[0]
    nodes = 129
    omega = _simpson_matrix(Xfun, n, t, nodes)
    while nodes < 8193:
        nodes = 2 * nodes - 1
        refined = _simpson_matrix(Xfun, n, t, nodes)
        done = frob_norm(refined - omega) <= 1e-11
        omega = refined
        if done:
            break
    Xt = _stepper._evaluate(Xfun, n, [t])[0]
    defect = frob_norm(Xt @ omega - omega @ Xt)
    if defect > tol * frob_norm(Xt) * frob_norm(omega):
        raise CommutatorTooLarge(
            f"generator does not commute with its integral (defect {defect:.3e})",
            defect,
        )
    return A0 @ expm(omega)
