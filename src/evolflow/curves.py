"""Differentiable structure-matrix curves t -> A(t).

Each curve is one continuous evolution algebra: freezing it at a time t
gives the structure matrix of that slice.  Closed-form variants carry
exact analytic derivatives; the Numeric variant integrates A' = A X(t)
once at construction and pays with finite-difference derivatives.
`Curve.values` evaluates a grid of times in one call, each matrix bit for
bit the `value` of its time.

Scalar coefficients of the closed-form variants come from a fixed catalog
(polynomials, and sin/cos/exp/cosh/sinh of an affine argument) so that
their derivatives are exact rather than numerical.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _stepper, lie, matcore
from ._stepper import rk4_step, tabulate
from .errors import DimensionMismatch, HorizonExceeded, WrongVariant
from .evoalg import EvolutionAlgebra, is_perfect
from .flows import IntegratorConfig, march
from .matcore import (
    as_matrix,
    expm,
    expm_times,
    frob_norm,
    frob_residuals,
    inv,
    memo,
    nonempty,
    spectral_radius_estimate,
    stacked,
    worst,
)

# ---------------------------------------------------------------------------
# scalar-function catalog

AFFINE_ARG_KINDS = ("sin", "cos", "exp", "cosh", "sinh")

_VALUE = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "cosh": math.cosh,
    "sinh": math.sinh,
}
# d/du of each kind, evaluated at the affine argument u = scale*t + shift
_SLOPE = {
    "sin": math.cos,
    "cos": lambda u: -math.sin(u),
    "exp": math.exp,
    "cosh": math.sinh,
    "sinh": math.cosh,
}


class ScalarFunction:
    """A differentiable scalar coefficient from the fixed catalog."""

    def value(self, t: float) -> float:
        raise NotImplementedError

    def derivative(self, t: float) -> float:
        raise NotImplementedError

    def __call__(self, t: float) -> float:
        return self.value(t)


@dataclass(frozen=True)
class Poly(ScalarFunction):
    """Polynomial c0 + c1*t + c2*t**2 + ..."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def value(self, t: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self, t: float) -> float:
        acc = 0.0
        for k in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * t + k * self.coeffs[k]
        return acc


@dataclass(frozen=True)
class AffineArg(ScalarFunction):
    """kind(scale*t + shift) for kind in sin/cos/exp/cosh/sinh."""

    kind: str
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if self.kind not in AFFINE_ARG_KINDS:
            raise ValueError(f"unknown scalar function kind {self.kind!r}")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "shift", float(self.shift))

    def value(self, t: float) -> float:
        return _VALUE[self.kind](self.scale * t + self.shift)

    def derivative(self, t: float) -> float:
        return self.scale * _SLOPE[self.kind](self.scale * t + self.shift)


def as_scalar_function(f) -> ScalarFunction:
    """Coerce a catalog function or a plain number to a ScalarFunction."""
    if isinstance(f, ScalarFunction):
        return f
    if isinstance(f, (int, float)):
        return Poly((float(f),))
    raise TypeError(f"not a scalar function or number: {f!r}")


class MatrixFunction:
    """Time-dependent generator of the form sum_k f_k(t) * M_k.

    The f_k come from the scalar catalog, so the function is exactly
    differentiable and JSON-serializable.  Instances are callable, and
    `at` evaluates a whole array of times at once.
    """

    def __init__(self, terms: Sequence[tuple]):
        parsed = []
        n = None
        for f, M in nonempty(terms, "matrix function needs at least one term"):
            M = as_matrix(M, name="matrix function term")
            if n is None:
                n = M.shape[0]
            elif M.shape[0] != n:
                raise ValueError("matrix function terms have inconsistent dimensions")
            parsed.append((as_scalar_function(f), M))
        self.terms = tuple(parsed)
        self.n = n

    def __call__(self, t: float) -> np.ndarray:
        return self.at([t])[0]

    def at(self, ts) -> np.ndarray:
        """The values at each time of ts, stacked with shape (len(ts), n, n).

        A row does not depend on the other times, so it is bit-identical to
        calling the function at its time: each coefficient is the float
        `f.value(t)` gives, and the terms are added in term order.  A
        catalog coefficient is computed for all of ts at once: its
        constants are read once, its float arithmetic (the affine argument,
        Horner's rule) runs on the whole array in the order `value` runs
        it, and sin/cos/exp/cosh/sinh stay one scalar `math` call per
        time, since numpy's vectorised ones may round differently and
        `math.exp` raises OverflowError where numpy would give inf.
        """
        ts = np.asarray(ts, dtype=float)
        with np.errstate(all="ignore"):  # float arithmetic overflows silently, as in Python
            (c, M), *rest = [(_coefficients(f, ts), M) for f, M in self.terms]
        acc = c * M
        for c, M in rest:
            acc = acc + c * M
        return acc


def _coefficients(f: ScalarFunction, ts: np.ndarray) -> np.ndarray:
    # f.value at each time of ts, bit for bit, shaped to scale a stack of matrices
    if type(f) is AffineArg:
        u = (f.scale * ts + f.shift).tolist()
        c = np.fromiter(map(_VALUE[f.kind], u), float, len(u))
    elif type(f) is Poly:
        c = np.zeros(len(ts))
        for coeff in reversed(f.coeffs):
            c = c * ts + coeff
    else:
        c = np.array([f.value(t) for t in ts.tolist()], dtype=float)
    return c.reshape(-1, 1, 1)


# ---------------------------------------------------------------------------
# curve variants


class Curve:
    """Base class: a differentiable curve of square structure matrices."""

    @property
    def n(self) -> int:
        raise NotImplementedError

    def value(self, t: float) -> np.ndarray:
        """Structure matrix A(t)."""
        raise NotImplementedError

    def values(self, ts) -> list:
        """A(t) for each t of ts, in order, each bit-identical to `value(t)` and the caller's own.

        The first time whose `value` raises makes this raise, with the same
        type and message.  Here one `value` call a time: the closed forms
        keep their scalar `math` calls, which numpy's vectorised ones may
        round differently.
        """
        return [self.value(t) for t in ts]

    def _stack(self, ts):
        """`values(ts)` for a stacked residual stage: here the list `values` gives; a variant that
        forms them as one C-contiguous (len(ts), n, n) stack hands over that stack, not its views."""
        return self.values(ts)

    def derivative(self, t: float) -> np.ndarray:
        """dA/dt at time t."""
        raise NotImplementedError

    def velocity_at_origin(self) -> np.ndarray:
        """The velocity vector A'(0)."""
        return self.derivative(0.0)


@dataclass(frozen=True)
class _OneMatrixCurve(Curve):
    """Base of the curves given by a single square matrix A."""

    A: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "A", as_matrix(self.A))

    @property
    def n(self):
        return self.A.shape[0]


@dataclass(frozen=True)
class Constant(_OneMatrixCurve):
    """A(t) = A for all t (a time-invariant algebra)."""

    def value(self, t):
        return self.A.copy()

    def derivative(self, t):
        return np.zeros_like(self.A)


@dataclass(frozen=True)
class AffineLine(_OneMatrixCurve):
    """A(t) = I + t*A."""

    def value(self, t):
        return np.eye(self.n, dtype=self.A.dtype) + t * self.A

    def values(self, ts):
        """I + t A for each t of ts, `value(t)`'s bits: real times (ints and floats) as one broadcast,
        others, and all times of a broadcast that raises, one `value` call a time, so the first failing
        time raises as its own call does (an int's product t * A is its float's)."""
        return list(self._stack(ts))

    def _stack(self, ts):
        # the broadcast itself where `values` takes one
        ts = list(ts)
        with contextlib.suppress(Exception):  # then taken again one call a time
            if all(isinstance(t, (int, float)) for t in ts):
                return np.eye(self.n, dtype=self.A.dtype) + np.array(ts, float)[:, None, None] * self.A
        return super().values(ts)

    def derivative(self, t):
        return self.A.copy()


@dataclass(frozen=True)
class ExpLine(Curve):
    """A(t) = A0 exp(t X): the solution of A' = A X with A(0) = A0."""

    A0: np.ndarray = field(repr=False)
    X: np.ndarray = field(repr=False)

    def __post_init__(self):
        A0 = as_matrix(self.A0, name="A0")
        X = as_matrix(self.X, name="X")
        if A0.shape != X.shape:
            raise DimensionMismatch("A0 and X must have the same dimension")
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "_reach", matcore._reach(X))  # `matcore._times`' overflow bound on t

    @property
    def n(self):
        return self.A0.shape[0]

    def value(self, t):
        """A0 exp(t X) from one `expm` call, so single times stay cheap; t X as in `flows.flow_apply`: a
        memo scope's preloaded row where it has one, and one that overflows raises NonFiniteInput unwarned."""
        return self._left(expm(matcore._times(self.X, t, self._reach)))

    def values(self, ts):
        """A0 exp(t X) for each t of ts, the exponentials from one `matcore.expm_times` call.

        Real times (ints and floats) share each distinct exponential, and
        each is multiplied by A0 as `value` multiplies it, so every matrix
        is `value(t)`'s bit for bit.  An overflowing time raises
        NonFiniteInput as `value` does, without numpy's overflow warning.
        Times of other types (a complex time would share its equal real
        time's key) go one `value` call a time.
        """
        ts = list(ts)
        if not all(isinstance(t, (int, float)) for t in ts):
            return super().values(ts)
        ts = [float(t) for t in ts]  # an int's product t * X is the float's
        E = dict(expm_times(self.X, ts))
        return [self._left(E[t]) for t in ts]

    def _left(self, E):
        # A0 @ E for a C-contiguous E, by `matcore._matmul`'s rule inline, as in `flows.flow_apply`
        return self.A0.dot(E) if self.A0.flags.forc and len(self.A0) > 1 else self.A0 @ E

    def derivative(self, t):
        return self.A0 @ expm(matcore._times(self.X, t, self._reach)) @ self.X


@dataclass(frozen=True, init=False)
class TangentInduced(ExpLine):
    """Curve through a tangent vector: A(t) = B exp(t X) with X = B^{-1} V.

    Then A(0) = B and A'(0) = V, realizing the tangent-bundle element
    (B, V) as a curve in the connected component of B.  It is the ExpLine
    with A0 = B.
    """

    def __init__(self, B, V):
        B = as_matrix(B, name="B")
        V = as_matrix(V, name="V")
        if B.shape != V.shape:
            raise DimensionMismatch("B and V must have the same dimension")
        super().__init__(B, inv(B) @ V)
        object.__setattr__(self, "V", V)

    @property
    def B(self):
        return self.A0


@dataclass(frozen=True)
class So2(Curve):
    """The rotation one-parameter subgroup [[cos t, sin t], [-sin t, cos t]]."""

    n = 2

    def value(self, t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, s], [-s, c]])

    def derivative(self, t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[-s, c], [-c, -s]])


@dataclass(frozen=True)
class Lorentz11(Curve):
    """A_i exp(t X) with X = [[0,1],[1,0]]: one curve per O(1,1) component.

    i = 1 is the Lorentz boost [[cosh t, sinh t], [sinh t, cosh t]] itself;
    i = 2, 3, 4 prepend the reflections -I, diag(1,-1), diag(-1,1).
    """

    i: int = 1

    def __post_init__(self):
        lie.o11_factor(self.i)  # raises unless i is in 1..4

    n = 2

    def value(self, t):
        return lie.o11_element(self.i, t)

    def derivative(self, t):
        c, s = math.cosh(t), math.sinh(t)
        return lie.o11_factor(self.i) @ np.array([[s, c], [c, s]])


class _ScalarCoefficientCurve(Curve):
    """Base of the curves whose every field is a catalog scalar function."""

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, as_scalar_function(getattr(self, f.name)))


@dataclass(frozen=True)
class Heisenberg(_ScalarCoefficientCurve):
    """Upper unitriangular curve [[1, a(t), b(t)], [0, 1, d(t)], [0, 0, 1]]."""

    alpha: ScalarFunction
    beta: ScalarFunction
    delta: ScalarFunction

    n = 3

    def value(self, t):
        a, b, d = self.alpha.value(t), self.beta.value(t), self.delta.value(t)
        return np.array([[1.0, a, b], [0.0, 1.0, d], [0.0, 0.0, 1.0]])

    def derivative(self, t):
        D = np.zeros((3, 3))
        D[0, 1] = self.alpha.derivative(t)
        D[0, 2] = self.beta.derivative(t)
        D[1, 2] = self.delta.derivative(t)
        return D


@dataclass(frozen=True)
class HeisenbergExp(_ScalarCoefficientCurve):
    """exp of the strictly-upper generator path: A(a(t), b(t) + a(t)c(t)/2, c(t))."""

    a: ScalarFunction
    b: ScalarFunction
    c: ScalarFunction

    n = 3

    def value(self, t):
        return lie.heisenberg_exp(self.a.value(t), self.b.value(t), self.c.value(t))

    def derivative(self, t):
        a, c = self.a.value(t), self.c.value(t)
        da, db, dc = self.a.derivative(t), self.b.derivative(t), self.c.derivative(t)
        D = np.zeros((3, 3))
        D[0, 1] = da
        D[0, 2] = db + 0.5 * (da * c + a * dc)
        D[1, 2] = dc
        return D


@dataclass(frozen=True)
class Sl2Iwasawa(_ScalarCoefficientCurve):
    """Iwasawa-factorized SL2(R) curve: rotation(a(t)) diag(e^b, e^-b) shear(d(t))."""

    alpha: ScalarFunction
    beta: ScalarFunction
    delta: ScalarFunction

    n = 2

    def value(self, t):
        return lie.sl2_iwasawa(self.alpha.value(t), self.beta.value(t), self.delta.value(t))

    def derivative(self, t):
        a, b, d = self.alpha.value(t), self.beta.value(t), self.delta.value(t)
        da, db, dd = self.alpha.derivative(t), self.beta.derivative(t), self.delta.derivative(t)
        ca, sa = math.cos(a), math.sin(a)
        R = np.array([[ca, -sa], [sa, ca]])
        Rdot = da * np.array([[-sa, -ca], [ca, -sa]])
        D = np.diag([math.exp(b), math.exp(-b)])
        Ddot = db * np.diag([math.exp(b), -math.exp(-b)])
        N = np.array([[1.0, d], [0.0, 1.0]])
        Ndot = dd * np.array([[0.0, 1.0], [0.0, 0.0]])
        return Rdot @ D @ N + R @ Ddot @ N + R @ D @ Ndot


@dataclass(frozen=True)
class FlipFlop(Curve):
    """Transition semigroup of the two-state flip-flop with intensity lam.

    A(t) has entries (1 +- exp(-2 lam t))/2; its velocity at the origin is
    the rate matrix [[-lam, lam], [lam, -lam]].  Entries leave [0, 1] for
    t < 0 although the curve itself extends to all of R.
    """

    lam: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError("flip-flop intensity must be positive")
        object.__setattr__(self, "lam", float(self.lam))

    n = 2

    def value(self, t):
        e = math.exp(-2.0 * self.lam * t)
        p, q = 0.5 * (1.0 + e), 0.5 * (1.0 - e)
        return np.array([[p, q], [q, p]])

    def derivative(self, t):
        g = self.lam * math.exp(-2.0 * self.lam * t)
        return np.array([[-g, g], [g, -g]])


# Step of the central differences behind `Numeric.derivative`.
_FD_STEP = 1e-5


@dataclass(frozen=True, eq=False)
class Numeric(Curve):
    """Curve defined by A' = A X(t), A(0) = A0, on the horizon [-T, T].

    A dense trajectory table with nodes at +-k*h is integrated once at
    construction (`flows.march` in both time directions) and is read-only
    afterwards: one stack from the marches' stacks, or the list of nodes
    when their dtypes differ.  `values` takes one partial RK4 step off the
    stored node at or below each time: every node from one `searchsorted`,
    the generator values of all the partial steps from one
    `_stepper.tabulate` call and the steps from one stacked `rk4_step`;
    `value(t)` is `values([t])[0]`.
    Derivatives are central differences with step _FD_STEP (1e-5).
    Evaluation outside the horizon, or at NaN, raises HorizonExceeded.
    """

    A0: np.ndarray = field(repr=False)
    generator: Callable = field(repr=False)
    h: float = 1e-3
    horizon: float = 2.0

    def __post_init__(self):
        A0 = as_matrix(self.A0, name="A0")
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "horizon", float(self.horizon))
        IntegratorConfig(self.h, self.horizon)  # validates h and the horizon
        fwd_t, fwd = march(self.generator, A0, self.h, self.horizon, +1.0)
        bwd_t, bwd = march(self.generator, A0, self.h, self.horizon, -1.0)
        object.__setattr__(self, "_ts", np.array(bwd_t[::-1] + fwd_t[1:]))
        stacks = [S[::-1] for S in bwd.stacks[::-1]] + [fwd.stacks[0][1:], *fwd.stacks[1:]]  # A0 once
        table = np.concatenate(stacks) if len({S.dtype for S in stacks}) == 1 else [*itertools.chain(*stacks)]
        object.__setattr__(self, "_table", table)

    @property
    def n(self):
        return self.A0.shape[0]

    def value(self, t):
        return self.values([t])[0]

    def values(self, ts):
        """A(t) for each t of ts (taken as float64): a copy of the node at t, else one RK4 step
        from the node below.

        The first time outside the horizon raises before any step.  Each
        step is the one `rk4_step(A_k, t_k, t - t_k, gen)` call would take,
        bit for bit: the stacked step's slices equal their own calls' where
        the nodes and the generator values each share one dtype, and
        otherwise the steps go one at a time.  A failing generator value
        raises at the first failing time, in order.
        """
        ts = list(ts)
        at = np.array(ts, dtype=float)
        outside = ~(np.abs(at) <= self.horizon + 1e-12)  # NaN is outside too
        if outside.any():
            t = ts[outside.argmax()]
            raise HorizonExceeded(f"t={t} outside integrated horizon [-{self.horizon}, {self.horizon}]")
        idx = np.clip(self._ts.searchsorted(at, side="right") - 1, 0, len(self._ts) - 1)
        t0 = self._ts[idx]
        dt = at - t0
        out = [self._table[i].copy() if d == 0.0 else None for i, d in zip(idx.tolist(), dt.tolist())]
        off = np.flatnonzero(dt != 0.0)
        if off.size:
            t0, dt = t0[off, None, None], dt[off, None, None]
            # the times rk4_step asks for, one row a step
            X = tabulate(self.generator, self.n, np.concatenate((t0, t0 + 0.5 * dt, t0 + dt), axis=1))
            A = stacked([self._table[i] for i in idx[off].tolist()])
            if type(A) is np.ndarray and type(X.values) is np.ndarray:
                steps = rk4_step(A, t0, dt, X)
            else:
                steps = [rk4_step(a, s, h, X) for a, s, h in zip(A, t0.ravel().tolist(), dt.ravel().tolist())]
            for i, S in zip(off.tolist(), steps):
                out[i] = S
        return out

    def derivative(self, t):
        if abs(t) + _FD_STEP > self.horizon + 1e-12:
            raise HorizonExceeded(f"central difference at t={t} leaves the horizon")
        ahead, behind = self.values([t + _FD_STEP, t - _FD_STEP])
        return (ahead - behind) / (2.0 * _FD_STEP)


# ---------------------------------------------------------------------------
# curve checks


class SubgroupReport(NamedTuple):
    passed: bool
    identity_residual: float
    homomorphism_residual: float
    tol: float


def check_one_parameter_subgroup(curve: Curve, grid, tol: float = 1e-9) -> SubgroupReport:
    """Verify A(0) = I and A(s+t) = A(s) A(t) over all grid pairs.

    An `ExpLine` (and so a `TangentInduced`) is checked in one
    `matcore.memo(X, grid)` scope, so each distinct exponential is computed
    once, all from one `expm_times` run, and `value` takes each time's t X
    row from the preload (+-0.0 the one zero row), whose exponential
    `expm` finds by the row's identity; the other variants open no scope
    and take each chunk of sums A(s + t), `_stepper.CHUNK_ENTRIES` entries,
    from one `values` call (through `_stack`, so an `AffineLine` hands over
    its broadcast as one stack).  A chunk goes into one stacked stage
    S - V[s] @ V[t], V the grid values, bit for bit the per-pair residuals
    (`matcore.frob_residuals`); others go pair by pair.
    """
    grid = [float(t) for t in nonempty(grid)]
    # an ExpLine's sums one `value` call a time, not `values`: perfbench's self-test
    # counts the G^2 + G + 1 `expm` calls of its check (1723 on 41 points)
    exp_line = isinstance(curve, ExpLine)
    with memo(curve.X, grid) if exp_line else contextlib.nullcontext():
        id_res = frob_norm(curve.value(0.0) - np.eye(curve.n))
        V = list(map({t: curve.value(t) for t in grid}.get, grid))  # equal times (+-0.0 too) share one
        V = stacked(V)  # C, as its rows: a product's bits follow its operands' layout
        G, sums, hom = len(grid), (s + t for s in grid for t in grid), 0.0
        for start in range(0, G * G, per_chunk := max(1, _stepper.CHUNK_ENTRIES // V[0].size)):
            chunk = list(itertools.islice(sums, per_chunk))
            S = [curve.value(u) for u in chunk] if exp_line else curve._stack(chunk)
            s, t = np.divmod(np.arange(start, start + len(S)), G)
            P = V[s] @ V[t] if type(V) is np.ndarray else [V[i] @ V[j] for i, j in zip(s, t)]
            hom = worst([hom, *frob_residuals(S, P)])  # the worst residual so far, NaN once one is
    return SubgroupReport(id_res <= tol and hom <= tol, id_res, hom, tol)


class OdeReport(NamedTuple):
    passed: bool
    max_residual: float
    tol: float


def check_ode(curve: Curve, X, grid, tol: float = 1e-9) -> OdeReport:
    """Residual of A'(t) = A(t) X over the grid; X must be curve.n x curve.n."""
    X = as_matrix(X, name="X")
    if X.shape[0] != curve.n:
        raise DimensionMismatch(f"generator is {X.shape[0]}x{X.shape[0]}, curve has n={curve.n}")
    res = worst(frob_norm(curve.derivative(t) - curve.value(t) @ X) for t in nonempty(grid))
    return OdeReport(res <= tol, res, tol)


class PerfectnessSample(NamedTuple):
    t: float
    scaled_abs_det: float
    sign: int | None  # sign of det for real values; None for complex


class PerfectnessProfile(NamedTuple):
    samples: tuple
    all_perfect: bool
    sign_constant: bool | None
    passed: bool


def slices(curve: Curve, grid):
    """Yield (t, A(t)) for each t of the grid, in order, from `Curve.values`.

    The grid goes `_stepper.CHUNK_ENTRIES` / n^2 times a call, so a caller
    that keeps only scalars of each slice holds one chunk's matrices and,
    beyond them, about 4-5 MB at n = 2-5: `expm_times`' block-sized stacks
    and two Python arrays a time (see `CHUNK_ENTRIES`).  A call that raises
    is taken again one `value` call a time, so the first failing time
    raises only once the slices before it have reached the caller, as in a
    loop over `value`.
    """
    per_chunk = max(1, _stepper.CHUNK_ENTRIES // curve.n**2)
    for start in range(0, len(grid), per_chunk):
        part = grid[start:start + per_chunk]
        try:
            values = curve.values(part)
        except Exception:
            values = map(curve.value, part)
        yield from zip(part, values)
        del values  # not held while the next chunk is computed


def perfectness_profile(curve: Curve, grid) -> PerfectnessProfile:
    """`evoalg.is_perfect` of each slice along the grid.

    Each sample carries the slice's scaled |det| and sign as the
    singularity gauge reports them.  For real curves the report also says
    whether the determinant sign is constant (it must be along any real
    curve of nonsingular matrices).  The slices come from `slices`, a
    chunk of the grid a `Curve.values` call, bit for bit the `value` of
    each time.
    """
    samples, all_perfect = [], True
    for t, A in slices(curve, nonempty(grid)):
        rep = is_perfect(EvolutionAlgebra(A))
        all_perfect = all_perfect and rep.perfect
        samples.append(PerfectnessSample(float(t), rep.scaled_abs_det, rep.sign))
    signs = {s.sign for s in samples}
    sign_constant = None if None in signs else len(signs) == 1 and 0 not in signs
    passed = all_perfect and sign_constant is not False
    return PerfectnessProfile(tuple(samples), all_perfect, sign_constant, passed)


def nonsingularity_interval(curve: Curve) -> float:
    """Radius r with I + t*A invertible for |t| < r, for an AffineLine curve.

    Returns inf when the spectral-radius estimate is zero (nilpotent A).
    Raises WrongVariant for any other curve variant.
    """
    if not isinstance(curve, AffineLine):
        raise WrongVariant("nonsingularity_interval applies to AffineLine curves only")
    rho = spectral_radius_estimate(curve.A)
    if rho <= 1e-12:
        return math.inf
    return 1.0 / rho
