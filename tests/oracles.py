"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's own code paths: the exponential is
a scaled truncated Taylor sum, the determinant is a cofactor expansion,
the algebra product expands bilinearity over all basis pairs, and matrix
validation is written with numpy's generic predicates.  The RK4 march is
the exception: it reuses `rk4_step`, but evaluates the generator
through `checked_generator` at every one of its four calls a step, with
no table of values in between.  `reference_magnus` likewise sums its
Simpson nodes one checked call at a time, in node order.
`a_form_rk4_step` is the step as it was before it took the propagator
form, A + h/6 (k1 + 2 k2 + 2 k3 + k4) with k1 = A X(t),
k2 = (A + h/2 k1) X(t + h/2) and so on: the same method, rounded
differently, kept as the reference for that rounding change.
`per_call_axioms_report` is the other exception: `markov.axioms_report`
as it was when it took one `expm` per distinct time, kept verbatim as the
reference for its results and its peak memory.  So is
`per_call_kolmogorov_residuals`, `markov.kolmogorov_residuals` as it was
with one `expm` call per grid point.
"""

import numpy as np

from evolflow._stepper import checked_generator, rk4_step
from evolflow.errors import DimensionMismatch, NonFiniteInput
from evolflow.markov import NONNEG_TOL, AxiomsReport, KolmogorovResiduals
from evolflow.matcore import expm, frob_norm, worst


def taylor_expm(M, terms=60):
    """Truncated-series exponential, scaled so the Frobenius norm is <= 0.5."""
    M = np.asarray(M)
    n = M.shape[0]
    k = 0
    norm = np.linalg.norm(M)
    while norm / 2.0**k > 0.5:
        k += 1
    A = M / 2.0**k
    acc = np.eye(n, dtype=A.dtype)
    term = np.eye(n, dtype=A.dtype)
    for m in range(1, terms):
        term = term @ A / m
        acc = acc + term
    for _ in range(k):
        acc = acc @ acc
    return acc


def cofactor_det(M):
    """Determinant by recursive cofactor expansion along the first row."""
    M = np.asarray(M)
    n = M.shape[0]
    if n == 1:
        return M[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total = total + (-1.0) ** j * M[0, j] * cofactor_det(minor)
    return total


def brute_evo_mul(A, x, y):
    """Expand the product over all basis pairs; only diagonal pairs survive."""
    A = np.asarray(A)
    n = A.shape[0]
    out = np.zeros(n, dtype=np.result_type(A, x, y))
    for i in range(n):
        for j in range(n):
            if i == j:
                out = out + x[i] * y[j] * A[i]
    return out


def a_form_rk4_step(A, t, h, gen):
    """One classical Runge-Kutta step of size h from (t, A), in the A form."""
    k1 = A @ gen(t)
    k2 = (A + 0.5 * h * k1) @ gen(t + 0.5 * h)
    k3 = (A + 0.5 * h * k2) @ gen(t + 0.5 * h)
    k4 = (A + h * k3) @ gen(t + h)
    return A + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def per_step_march(fun, A0, h, horizon, direction, step=rk4_step):
    """RK4 nodes (ts, ms) calling the checked generator four times a step.

    Node k sits at direction * min(k h, horizon); the march stops at the
    first node within min(1e-12, 1e-9 h) of the horizon.
    """
    gen = checked_generator(fun, A0.shape[0])
    ts, ms = [0.0], [A0.copy()]
    t, A = 0.0, A0
    k = 0
    while direction * t < horizon - min(1e-12, 1e-9 * h):
        k += 1
        nxt = direction * min(k * h, horizon)
        A = step(A, t, nxt - t, gen)
        t = nxt
        ts.append(t)
        ms.append(A)
    return ts, ms


def reference_simpson(gen, t, nodes):
    """Composite Simpson rule of gen over [0, t], one node at a time in node order."""
    xs = np.linspace(0.0, t, nodes)
    h = (t - 0.0) / (nodes - 1)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    acc = w[0] * gen(xs[0])
    for i in range(1, nodes):
        acc = acc + w[i] * gen(xs[i])
    return (h / 3.0) * acc


def reference_magnus(fun, A0, t):
    """`flows.commuting_magnus` without its commutator check, one checked call a node."""
    gen = checked_generator(fun, A0.shape[0])
    nodes = 129
    omega = reference_simpson(gen, t, nodes)
    while nodes < 8193:
        nodes = 2 * nodes - 1
        refined = reference_simpson(gen, t, nodes)
        done = frob_norm(refined - omega) <= 1e-11
        omega = refined
        if done:
            break
    return A0 @ expm(omega)


def reference_as_matrix(a, name="matrix"):
    """`matcore.as_matrix` through `np.iscomplexobj` and `np.all(np.isfinite(...))`."""
    M = np.asarray(a)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    M = M.astype(np.complex128 if np.iscomplexobj(M) else np.float64, copy=False)
    if not np.all(np.isfinite(M)):
        raise NonFiniteInput(f"{name} has non-finite entries")
    return M


def per_call_axioms_report(rate, grid, tol=1e-9):
    """Check the four standard stochastic semigroup axioms.

    (i) each A(t) is Markov, (ii) A(0) = I, (iii) Chapman-Kolmogorov on
    all grid pairs, (iv) A(t) -> I componentwise as t -> 0+, checked along
    t = 2^-k for k = 1..20 against the rigorous bound e^||tQ|| - 1 and for
    monotone decrease.
    """
    ts = [float(t) for t in grid]
    if any(t < 0.0 for t in ts):
        raise ValueError("axiom grid must lie in [0, infinity)")
    Q = rate.Q
    eye = np.eye(rate.n)
    memo = {}  # t -> exp(tQ) for the grid, A(0) and the Chapman-Kolmogorov sums

    def A(t: float) -> np.ndarray:
        if t not in memo:
            memo[t] = expm(t * Q)
        return memo[t]

    nonneg = worst(-float(A(t).min()) for t in ts)
    row_sum = worst(float(np.max(np.abs(A(t).sum(axis=1) - 1.0))) for t in ts)
    identity = frob_norm(A(0.0) - eye)
    chapman = worst(frob_norm(A(s + t) - A(s) @ A(t)) for s in ts for t in ts)

    tks = [2.0**-k for k in range(1, 21)]
    defects = [frob_norm(expm(tk * Q) - eye) for tk in tks]
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


def per_call_kolmogorov_residuals(rate, grid):
    """Residuals of the Backward and Forward equations along the grid."""
    Q = rate.Q
    pairs = []  # (backward, forward) per grid point
    for t in grid:
        A = expm(float(t) * Q)
        D = Q @ A
        pairs.append((frob_norm(D - Q @ A), frob_norm(D - A @ Q)))
    initial = frob_norm(Q @ expm(0.0 * Q) - Q)
    return KolmogorovResiduals(worst(b for b, _ in pairs), worst(f for _, f in pairs), initial)
