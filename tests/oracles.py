"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's own code paths: the exponential is
a scaled truncated Taylor sum, the determinant is a cofactor expansion,
the algebra product expands bilinearity over all basis pairs, and matrix
validation is written with numpy's generic predicates.  The RK4 march is
the exception: it reuses `rk4_step`, but evaluates the generator
through `checked_generator` at every one of its four calls a step, with
no table of values in between.
"""

import numpy as np

from evolflow._stepper import checked_generator, rk4_step
from evolflow.errors import DimensionMismatch, NonFiniteInput


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


def per_step_march(fun, A0, h, horizon, direction):
    """RK4 nodes (ts, ms) calling the checked generator four times a step."""
    gen = checked_generator(fun, A0.shape[0])
    ts, ms = [0.0], [A0.copy()]
    t, A = 0.0, A0
    k = 0
    while direction * t < horizon - 1e-12:
        k += 1
        nxt = direction * min(k * h, horizon)
        A = rk4_step(A, t, nxt - t, gen)
        t = nxt
        ts.append(t)
        ms.append(A)
    return ts, ms


def reference_as_matrix(a, name="matrix"):
    """`matcore.as_matrix` through `np.iscomplexobj` and `np.all(np.isfinite(...))`."""
    M = np.asarray(a)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    M = M.astype(np.complex128 if np.iscomplexobj(M) else np.float64, copy=False)
    if not np.all(np.isfinite(M)):
        raise NonFiniteInput(f"{name} has non-finite entries")
    return M
