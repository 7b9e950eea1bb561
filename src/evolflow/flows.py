"""Global flows Phi(t, A) = A exp(t X) on matrix Lie groups.

A Flow pairs a generator X with a declared ambient group whose Lie
algebra must contain X; its flow lines are the orbits of base points,
each one a structure-matrix curve staying in the base point's connected
component.  The module also owns fixed-step integration of the
time-dependent problem A' = A X(t): `march` is the one classical
4th-order marching loop, used by `integrate_right` and by the Numeric
curve's trajectory table.  Finally it evaluates the closed-form solution
A0 exp(integral of X) available when X(t) commutes with its integral.

Both `march` and the Simpson rule of `commuting_magnus` read the generator
from a `_stepper.GeneratorTable`: each distinct time is evaluated once, in
chunks of bounded size, and checked as `checked_generator` checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ._stepper import GeneratorTable, checked_generator, rk4_step
from .errors import CommutatorTooLarge, NotInAlgebra, NotInGroup
from .lie import Group, algebra_of, in_algebra, in_group
from .matcore import as_matrix, expm, frob_norm, memo, worst


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


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step one-step method configuration: step h over [0, horizon]."""

    h: float
    horizon: float

    def __post_init__(self):
        if not 0.0 < self.h <= self.horizon:
            raise ValueError("need 0 < h <= horizon")


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
    exponential and base-point membership is computed once.
    """
    ts = [float(t) for t in grid]
    idents, comps = [], []  # one worst residual per base
    with memo():
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


def _nodes(h: float, horizon: float, direction: float):
    # node k at direction * min(k h, horizon), yielded one at a time
    t, k = 0.0, 0
    yield t
    while direction * t < horizon - 1e-12:
        k += 1
        t = direction * min(k * h, horizon)
        yield t


def march(fun, A0: np.ndarray, h: float, horizon: float, direction: float):
    """Classical 4th-order steps of A' = A fun(t) from (0, A0) out to the horizon.

    Node k sits at direction * min(k h, horizon), so the nodes carry no
    accumulated rounding and the final, possibly short, step lands exactly
    on the horizon.  The generator is read from a `GeneratorTable` over the
    times the steps use, so each distinct time is evaluated once; the table
    reads at most one chunk of steps ahead.  Returns the node times and the
    matrices there; the first node is (0, a copy of A0).
    """
    steps, ahead = itertools.tee(itertools.pairwise(_nodes(h, horizon, direction)))
    # the times `rk4_step` passes to its generator, in call order
    times = (s for t, nxt in ahead for s in (t, t + 0.5 * (nxt - t), t + (nxt - t)))
    gen = GeneratorTable(fun, A0.shape[0], times).__getitem__
    ts, ms, A = [0.0], [A0.copy()], A0
    for t, nxt in steps:
        A = rk4_step(A, t, nxt - t, gen)
        ts.append(nxt)
        ms.append(A)
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
    # composite Simpson rule with an odd number of equispaced nodes
    # a list of node objects: the table finds a node again by identity,
    # even a NaN one (from t = NaN)
    xs = list(np.linspace(0.0, t, nodes))
    h = (t - 0.0) / (nodes - 1)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    gen = GeneratorTable(fun, n, xs).__getitem__
    acc = w[0] * gen(xs[0])
    for i in range(1, nodes):
        acc = acc + w[i] * gen(xs[i])
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
    Xt = checked_generator(Xfun, n)(t)
    defect = frob_norm(Xt @ omega - omega @ Xt)
    if defect > tol * frob_norm(Xt) * frob_norm(omega):
        raise CommutatorTooLarge(
            f"generator does not commute with its integral (defect {defect:.3e})",
            defect,
        )
    return A0 @ expm(omega)
