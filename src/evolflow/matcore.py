"""Dense real/complex matrix kernel.

Matrices throughout the library are plain numpy arrays, square, with finite
entries, dtype float64 for real data and complex128 otherwise.  Ordinary
arithmetic (products, sums, scaling, transposes, traces) is numpy's own;
this module adds the pieces everything else is built on: validation, the
matrix exponential, the determinant gauge behind every nonsingularity
and determinant-sign decision, a guaranteed upper estimate of the
spectral radius, the per-check memo that lets a grid check compute
each distinct exponential and membership once, and `worst`, the one
reduction of a grid check's residuals.

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, SingularMatrix

# A matrix counts as numerically singular when the determinant of its
# entry-normalized copy (largest |entry| scaled to 1) falls at or below this.
SINGULAR_TOL = 1e-12

# Order-13 diagonal Pade approximant of exp.  _PADE13_THETA is the largest
# 1-norm for which the approximant alone stays at double-precision accuracy;
# larger inputs are halved k times first and the result squared k times.
_PADE13_THETA = 5.371920351148152
_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)


# The table of the innermost open `memo()` block, None outside every block.
_MEMO: ContextVar[dict | None] = ContextVar("evolflow_memo", default=None)


@contextmanager
def memo():
    """Scope in which memoized kernels compute each distinct argument once.

    The outermost block creates the table, nested blocks share it, and it
    is dropped when the outermost block exits, also on an exception; no
    result outlives the block.  Each entry holds the argument's bytes and
    the result: two matrices per distinct exponential, one per distinct
    membership.
    """
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def memoized(fn):
    """Decorate a kernel f(M, *args) to look its result up inside `memo()`.

    The key is the exact raw input (`np.asarray(M)`'s dtype, shape, strides
    and bytes) with the remaining arguments, taken before validation: the
    same bytes passed validation before, and a call that raises stores
    nothing.  Array results are handed out as copies, so callers own them.
    Outside a block, and for a matrix passed by keyword, of a non-numeric
    dtype or with an unhashable argument, the function runs as if
    undecorated.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        table = _MEMO.get()
        if table is None or not args:
            return fn(*args, **kwargs)
        M = np.asarray(args[0])
        if M.dtype.kind not in "biufc":
            return fn(*args, **kwargs)
        key = (fn, M.dtype.str, M.shape, M.strides, M.tobytes(), args[1:], tuple(kwargs.items()))
        try:
            hit = key in table
        except TypeError:  # an unhashable argument: no lookup
            return fn(*args, **kwargs)
        if not hit:
            table[key] = fn(*args, **kwargs)
        result = table[key]
        return result.copy() if isinstance(result, np.ndarray) else result

    return wrapper


def worst(residuals) -> float:
    """Largest residual, 0.0 for none, NaN when any residual is NaN.

    Every grid check reduces its residuals here, consuming them lazily.
    Finite residuals give the float `max(0.0, r1, r2, ...)` gives, so a
    check `residual <= tol` fails exactly on a large, infinite or NaN one.
    """
    acc = 0.0
    for r in residuals:
        if r > acc or r != r:  # once acc is NaN, neither test holds for a number
            acc = r
    return float(acc)


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    # complex128 for complex data, float64 otherwise; every entry finite
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput(f"{name} has non-finite entries")
    return a


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and coerce `a` to a square float64/complex128 array.

    Raises DimensionMismatch for non-square input and NonFiniteInput when
    any entry is NaN or infinite.
    """
    M = np.asarray(a)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    return _finite(M, name)


def as_vector(a, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate a length-n coordinate vector (float64 or complex128)."""
    x = np.asarray(a)
    if x.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {x.shape}")
    if n is not None and x.shape[0] != n:
        raise DimensionMismatch(f"{name} has length {x.shape[0]}, expected {n}")
    return _finite(x, name)


def is_real(M, tol: float = 0.0) -> bool:
    """True when every imaginary part is at most `tol` in magnitude."""
    M = np.asarray(M)
    if not np.iscomplexobj(M):
        return True
    return bool(np.max(np.abs(M.imag)) <= tol)


def frob_norm(M) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(M)))


def one_norm(M) -> float:
    """Induced 1-norm (maximum absolute column sum)."""
    return float(np.abs(np.asarray(M)).sum(axis=0).max())


@memoized
def expm(X) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Pade(13,13) core.

    The input 1-norm decides the number k of halvings so that
    ||X / 2**k|| <= _PADE13_THETA; the approximant is then squared k times.
    Relative accuracy against the truncated-series oracle is ~1e-15 on
    well-conditioned inputs.  Inside `memo()` each distinct X is computed once.
    """
    X = as_matrix(X)
    n = X.shape[0]
    eye = np.eye(n, dtype=X.dtype)
    nrm = one_norm(X)
    if nrm == 0.0:
        return eye.copy()
    squarings = 0
    if nrm > _PADE13_THETA:
        squarings = int(np.ceil(np.log2(nrm / _PADE13_THETA)))
    A = X / (2.0**squarings)
    b = _PADE13_B
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        E = E @ E
    return E


def det(M):
    """Determinant via pivoted LU elimination.

    Returns a float for real input, complex otherwise.
    """
    M = as_matrix(M)
    d = np.linalg.det(M)
    return complex(d) if np.iscomplexobj(M) else float(d)


class DetGauge(NamedTuple):
    nonsingular: bool  # entry-normalized |det| above the tolerance
    sign: int | None   # real: +-1 when nonsingular, else 0; None when complex


def det_gauge(M, tol: float = SINGULAR_TOL) -> DetGauge:
    """Decide invertibility and the determinant sign from one LU.

    The determinant is taken of the entry-normalized copy (largest |entry|
    scaled to 1), so neither verdict is spoiled by an unscaled determinant
    that underflows or overflows.  Near-singular matrices (scaled |det| <=
    tol) are classified singular.  This is the library's one singularity
    gauge and its one source of determinant signs: membership, component
    signs, perfectness and inversion all decide through it.
    """
    M = as_matrix(M)
    scale = np.max(np.abs(M))  # |det| of M / scale is scale-invariant
    d = np.linalg.det(M / scale) if scale != 0.0 else 0.0
    nonsingular = float(abs(d)) > tol
    if not is_real(M, 0.0):
        return DetGauge(nonsingular, None)
    return DetGauge(nonsingular, int(np.sign(d.real)) if nonsingular else 0)


def is_nonsingular(M, tol: float = SINGULAR_TOL) -> bool:
    """Invertibility by the singularity gauge of `det_gauge`."""
    return det_gauge(M, tol).nonsingular


def inv(M) -> np.ndarray:
    """Inverse of a matrix that passes `is_nonsingular`.

    Raises SingularMatrix otherwise.  Satisfies M @ inv(M) = I to ~1e-10
    on reasonably conditioned inputs.
    """
    M = as_matrix(M)
    if not is_nonsingular(M):
        raise SingularMatrix("matrix is singular or too close to singular to invert")
    return np.linalg.solve(M, np.eye(M.shape[0], dtype=M.dtype))


def spectral_radius_estimate(M, squarings: int = 8) -> float:
    """Upper estimate of the spectral radius via repeated squaring.

    Returns ||M**(2**k)||**(1/2**k) in the 1-norm after k squarings
    (default 8, i.e. the 256th power, renormalized in log space to avoid
    overflow).  The value always lies between rho(M) and ||M||, so 1 over
    it is a safe nonsingularity radius for I + t*M.
    """
    M = as_matrix(M)
    nu = one_norm(M)
    if nu == 0.0:
        return 0.0
    B = M / nu
    log_scale = float(np.log(nu))  # log ||M**(2**k)||, maintained per squaring
    for k in range(1, squarings + 1):
        B = B @ B
        c = one_norm(B)
        if c == 0.0:
            return 0.0
        B = B / c
        log_scale = 2.0 * log_scale + float(np.log(c))
        # invariant: M**(2**k) = exp(log_scale) * B with ||B|| = 1
    return float(np.exp(log_scale / 2.0**squarings))
