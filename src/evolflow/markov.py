"""Continuous-time Markov semigroups seen as structure-matrix curves.

A validated rate matrix Q (nonnegative off-diagonal, zero row sums) is the
velocity vector of the curve t -> exp(t Q).  For t >= 0 these are Markov
matrices; negative times are computed as well but flagged, since the
inverse of a Markov matrix need not be nonnegative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    NegativeOffDiagonal,
    RowSumNonzero,
    SubsetTooSmall,
)
from .matcore import (_block_rows, as_matrix, expm, expm_times, frob_norm, frob_residuals, is_real,
                      nonempty, stacked, worst)

# expm rounding can leave entries this far below zero without disqualifying
# a matrix from being considered Markov.
NONNEG_TOL = 1e-12


@dataclass(frozen=True)
class RateMatrix:
    """A validated Markov generator."""

    Q: np.ndarray = field(repr=False)
    tol: float = 1e-9

    def __post_init__(self):
        Q = as_matrix(self.Q, name="rate matrix")
        if not is_real(Q, 0.0):
            raise ValueError("rate matrices are real")
        Q = Q.real.astype(np.float64, copy=True)
        off = Q - np.diag(np.diag(Q))
        bad = np.argwhere(off < -self.tol)
        if bad.size:
            defects = [(int(i), int(j), float(Q[i, j])) for i, j in bad]
            raise NegativeOffDiagonal(
                f"negative off-diagonal entries at {[(i, j) for i, j, _ in defects]}",
                defects,
            )
        sums = Q.sum(axis=1)
        bad_rows = np.nonzero(np.abs(sums) > self.tol)[0]
        if bad_rows.size:
            defects = [(int(i), float(sums[i])) for i in bad_rows]
            raise RowSumNonzero(f"rows {list(bad_rows)} do not sum to zero", defects)
        object.__setattr__(self, "Q", Q)

    @property
    def n(self) -> int:
        return self.Q.shape[0]


def validate_rate(Q, tol: float = 1e-9) -> RateMatrix:
    """Validate a would-be Markov generator.

    Raises NegativeOffDiagonal or RowSumNonzero with the offending entries
    attached as `.defects`.
    """
    return RateMatrix(Q, tol)


def flip_flop_rate(lam: float) -> RateMatrix:
    """Rate matrix of the two-state flip-flop with intensity lam > 0."""
    if not lam > 0.0:
        raise ValueError("intensity must be positive")
    return RateMatrix(np.array([[-lam, lam], [lam, -lam]]))


def birth_death_rate(births, deaths) -> RateMatrix:
    """Tridiagonal generator: births[i] is the rate i -> i+1, deaths[i] is i+1 -> i."""
    births = np.asarray(births, dtype=np.float64)
    deaths = np.asarray(deaths, dtype=np.float64)
    if births.shape != deaths.shape or births.ndim != 1:
        raise ValueError("births and deaths must be equal-length vectors")
    n = births.size + 1
    Q = np.zeros((n, n))
    for i in range(n - 1):
        Q[i, i + 1] = births[i]
        Q[i + 1, i] = deaths[i]
    np.fill_diagonal(Q, -(Q.sum(axis=1) - np.diag(Q)))
    return RateMatrix(Q)


def random_rate_matrix(n: int, rng=None) -> RateMatrix:
    """Seedable random generator: off-diagonals uniform on [0, 1]."""
    rng = np.random.default_rng(rng)
    Q = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return RateMatrix(Q)


class SemigroupSample(NamedTuple):
    t: float
    matrix: np.ndarray
    non_markov_range: bool  # t < 0: entries may leave [0, 1]
    min_entry: float
    row_sum_defect: float


def semigroup_at(rate: RateMatrix, t: float) -> SemigroupSample:
    """exp(t Q) with Markov diagnostics.

    For t >= 0 the result is a Markov matrix up to rounding (entries above
    -NONNEG_TOL, row sums 1).  Negative t is computed but flagged
    non_markov_range.
    """
    A = expm(t * rate.Q)
    return SemigroupSample(
        t=float(t),
        matrix=A,
        non_markov_range=t < 0.0,
        min_entry=float(A.min()),
        row_sum_defect=float(np.max(np.abs(A.sum(axis=1) - 1.0))),
    )


class AxiomsReport(NamedTuple):
    passed: bool
    nonneg_defect: float        # (i) how far entries dip below zero
    row_sum_defect: float       # (i) row-stochasticity
    identity_defect: float      # (ii) ||A(0) - I||
    chapman_defect: float       # (iii) semigroup property on grid pairs
    continuity_ok: bool         # (iv) ||A(2^-k) - I|| -> 0 monotonically
    continuity_defects: tuple
    tol: float


def axioms_report(rate: RateMatrix, grid, tol: float = 1e-9) -> AxiomsReport:
    """Check the four standard stochastic semigroup axioms.

    (i) each A(t) is Markov, (ii) A(0) = I, (iii) Chapman-Kolmogorov on
    all grid pairs, (iv) A(t) -> I componentwise as t -> 0+, checked along
    t = 2^-k for k = 1..20 against the rigorous bound e^||tQ|| - 1 and for
    monotone decrease.
    """
    ts = [float(t) for t in nonempty(grid)]
    if any(t < 0.0 for t in ts):
        raise ValueError("axiom grid must lie in [0, infinity)")
    Q = rate.Q
    eye = np.eye(rate.n)
    pairs = {}  # s + t -> the grid pairs (s, t) with that sum
    for s in ts:
        for t in ts:
            pairs.setdefault(s + t, []).append((s, t))
    grid = set(ts)
    # exp(tQ) for the grid, A(0) and the Chapman-Kolmogorov sums from one
    # call, each distinct t once.  A sum's exponential is held only until the
    # whole grid's are here, so the report does not hold every sum's at once;
    # `worst` gives the same value for the residuals in any order.
    A, sums, residuals = {}, [], []
    for u, E in expm_times(Q, itertools.chain(ts, [0.0], pairs)):
        if u == 0.0:
            identity = frob_norm(E - eye)
        if u in grid:
            A[u] = E
        if u in pairs:
            sums.append((u, E))
        if len(A) == len(grid):
            held = ((S, A[s], A[t]) for v, S in sums for s, t in pairs[v])
            while chunk := list(itertools.islice(held, _block_rows(rate.n))):  # stacked below n = 32
                S, L, R = map(stacked, zip(*chunk))
                P = L @ R if type(L) is type(R) is np.ndarray else [a @ b for a, b in zip(L, R)]
                residuals.extend(frob_residuals(S, P))
            sums.clear()
    nonneg = worst(-float(A[t].min()) for t in ts)
    row_sum = worst(float(np.max(np.abs(A[t].sum(axis=1) - 1.0))) for t in ts)
    chapman = worst(residuals)
    del A  # not held through the sweep below, which keeps only norms

    tks = [2.0**-k for k in range(1, 21)]
    by_t = {t: frob_norm(E - eye) for t, E in expm_times(Q, tks)}
    defects = [by_t[tk] for tk in tks]
    qnorm = frob_norm(Q)
    # each test reads `d <= bound`, so a NaN defect fails it
    mono = all(d <= prev * (1.0 + 1e-9) for prev, d in zip(defects, defects[1:]))
    # e^x - 1 overflows to inf above x = 709.78 (||Q|| above 1419.6 at t = 1/2):
    # an infinite bound, which every defect but NaN meets
    with np.errstate(over="ignore"):
        bounded = all(d <= np.expm1(tk * qnorm) + NONNEG_TOL for tk, d in zip(tks, defects))
    continuity_ok = mono and bounded

    passed = (
        nonneg <= NONNEG_TOL
        and row_sum <= tol
        and identity <= tol
        and chapman <= tol
        and continuity_ok
    )
    return AxiomsReport(
        passed, nonneg, row_sum, identity, chapman, continuity_ok, tuple(defects), tol
    )


class KolmogorovResiduals(NamedTuple):
    backward: float   # ||A'(t) - Q A(t)|| with A'(t) = Q exp(tQ)
    forward: float    # ||A'(t) - A(t) Q||, i.e. the commutation defect
    initial: float    # ||A'(0) - Q||


def kolmogorov_residuals(rate: RateMatrix, grid) -> KolmogorovResiduals:
    """Residuals of the Backward and Forward equations along the grid.

    The analytic derivative Q exp(tQ) satisfies the Backward form by
    construction; the Forward residual measures how far exp(tQ) drifts
    from commuting with Q in floating point.  The exponentials, at each
    distinct grid time and at t = 0, come from one `expm_times` call, one
    at a time; from n = `matcore._PARALLEL_MIN_N` on, under a one-thread
    BLAS, that call computes two at a time on two threads.
    """
    Q = rate.Q
    ts = [float(t) for t in nonempty(grid)]
    pairs = {}  # (backward, forward) per distinct time
    for t, A in expm_times(Q, [*ts, 0.0]):
        D = Q @ A
        pairs[t] = (frob_norm(D - Q @ A), frob_norm(D - A @ Q))
        if t == 0.0:
            initial = frob_norm(D - Q)
    on_grid = [pairs[t] for t in ts]
    return KolmogorovResiduals(worst(b for b, _ in on_grid), worst(f for _, f in on_grid), initial)


def det_trace_identity(rate: RateMatrix, grid) -> float:
    """Max relative defect of det(exp(tQ)) = e^{t tr Q} over the grid."""
    Q = rate.Q
    tr = float(np.trace(Q))

    def defect(t):
        lhs = float(np.linalg.det(expm(float(t) * Q)))
        rhs = float(np.exp(t * tr))
        return abs(lhs - rhs) / rhs

    return worst(defect(t) for t in nonempty(grid))


@dataclass(frozen=True)
class StationaryDistribution:
    """A probability vector: nonnegative entries summing to one."""

    pi: np.ndarray = field(repr=False)
    tol: float = 1e-9

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.float64)
        if pi.ndim != 1:
            raise ValueError("a distribution is a one-dimensional vector")
        if not np.all(np.isfinite(pi)):
            raise ValueError("distribution has non-finite entries")
        if pi.min() < -self.tol:
            raise ValueError(f"negative probability {pi.min()}")
        if abs(pi.sum() - 1.0) > self.tol:
            raise ValueError(f"probabilities sum to {pi.sum()}, not 1")
        object.__setattr__(self, "pi", pi)

    @property
    def n(self) -> int:
        return self.pi.shape[0]

    def restrict(self, states) -> "StationaryDistribution":
        """Restriction to a subset of states, renormalized."""
        sub = self.pi[list(states)]
        total = sub.sum()
        if total <= 0.0:
            raise ValueError("restricted distribution has zero mass")
        return StationaryDistribution(sub / total, self.tol)


class BalanceReport(NamedTuple):
    passed: bool
    defect: float
    tol: float


def detailed_balance(rate: RateMatrix, pi: StationaryDistribution, tol: float = 1e-9) -> BalanceReport:
    """Check pi_i q_ij = pi_j q_ji for all pairs i != j."""
    if pi.n != rate.n:
        raise ValueError("distribution and rate matrix dimensions differ")
    flow = pi.pi[:, None] * rate.Q
    defect = float(np.max(np.abs(flow - flow.T)))
    return BalanceReport(defect <= tol, defect, tol)


def truncate_reversible(rate: RateMatrix, states) -> RateMatrix:
    """Restrict the chain to a subset of states.

    Off-diagonal rates inside the subset are kept; every diagonal entry is
    reset to minus its new row sum.  Detailed balance with respect to the
    renormalized restricted distribution survives truncation because it is
    a pairwise condition.
    """
    states = list(states)
    if len(states) < 2:
        raise SubsetTooSmall("truncation needs at least two states")
    if len(set(states)) != len(states):
        raise ValueError("truncation states must be distinct")
    if min(states) < 0 or max(states) >= rate.n:
        raise ValueError("truncation states out of range")
    sub = rate.Q[np.ix_(states, states)].copy()
    np.fill_diagonal(sub, 0.0)
    np.fill_diagonal(sub, -sub.sum(axis=1))
    return RateMatrix(sub)
