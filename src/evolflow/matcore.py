"""Dense real/complex matrix kernel.

Matrices throughout the library are plain numpy arrays, square, with finite
entries, dtype float64 for real data and complex128 otherwise.  Ordinary
arithmetic (products, sums, scaling, transposes, traces) is numpy's own;
this module adds the pieces everything else is built on: validation, the
matrix exponential (also at many times, one Pade approximant per distinct
scaled argument), the determinant gauge behind every nonsingularity
and determinant-sign decision, a guaranteed upper estimate of the
spectral radius, the per-check memo that lets a grid check compute
each distinct exponential and membership once, and `worst`, the one
reduction of a grid check's residuals.

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, SingularMatrix

# A matrix counts as numerically singular when the determinant of its
# entry-normalized copy (largest |entry| scaled to 1) falls at or below this.
SINGULAR_TOL = 1e-12

# Squarings behind `spectral_radius_estimate`: it bounds rho(M) by the
# 256th root of ||M**256||.
_SPECTRAL_SQUARINGS = 8

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
_ABSENT = object()  # a key not in the memo table


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
        # the dtype object, not its `.str`: for numeric dtypes the two are equal
        # exactly together (byte order included), and the object costs no string
        key = (fn, M.dtype, M.shape, M.strides, M.tobytes(), args[1:])
        if kwargs:  # one element longer, so never equal to a key without kwargs
            key += (tuple(kwargs.items()),)
        try:
            result = table.get(key, _ABSENT)  # the one hash of the key
        except TypeError:  # an unhashable argument: no lookup
            return fn(*args, **kwargs)
        if result is _ABSENT:
            result = table[key] = fn(*args, **kwargs)
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
    a = a.astype(np.complex128 if a.dtype.kind == "c" else np.float64, copy=False)
    if np.count_nonzero(np.isfinite(a)) != a.size:  # `.all()` costs twice as much
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
    """Frobenius norm, by numpy's own formula without `np.linalg.norm`'s dispatch.

    As in `np.linalg.norm(M)`: integers and booleans are cast to float64,
    the entries are taken in memory order (`ravel("K")`), and the result is
    sqrt(x . x), or sqrt(re . re + im . im) for complex input, so the two
    agree bit for bit.
    """
    x = np.asarray(M)
    if x.dtype.kind not in "fcO":
        x = x.astype(float)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        sq = x.real.dot(x.real) + x.imag.dot(x.imag)
    else:
        sq = x.dot(x)
    return float(np.sqrt(sq))


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
    nrm = one_norm(X)
    if nrm == 0.0:
        return np.eye(X.shape[0], dtype=X.dtype)
    squarings = _squarings(nrm)
    A = X / (2.0**squarings)
    return _square(_pade13(A, *_powers(A)), squarings)


def _squarings(nrm: float) -> int:
    # the fewest halvings that bring a 1-norm to at most _PADE13_THETA
    if nrm > _PADE13_THETA:
        return int(np.ceil(np.log2(nrm / _PADE13_THETA)))
    return 0


def _powers(A):
    A2 = A @ A
    A4 = A2 @ A2
    return A2, A4, A4 @ A2


def _pade13(A, A2, A4, A6) -> np.ndarray:
    # the approximant r13(A) from A and its powers: one linear solve
    b = _PADE13_B
    eye = np.eye(A.shape[0], dtype=A.dtype)
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    return np.linalg.solve(V - U, V + U)


def _square(E, squarings: int) -> np.ndarray:
    for _ in range(squarings):
        E = E @ E
    return E


# A matrix product whose nonzero factors all have magnitudes a, b with
# a * b >= _EXACT_SCALE_FLOOR has only intermediates of magnitude 2**-1022 or
# more (each is a multiple of a quantum above a * b * 2**-106), so it rounds
# exactly as the product of the factors scaled up by powers of two: the
# scaled product is the product, scaled, bit for bit.
_EXACT_SCALE_FLOOR = math.ldexp(1.0, -914)

# Sharing powers costs a few elementwise passes and about 30 us of calls;
# computing them costs three products.  The two break even near n = 80
# (2-core x86-64 host, one OpenBLAS thread); below it the powers are computed.
# On the dense_large benchmark sharing adds 6% to checks_per_s.
_SHARE_POWERS_MIN_N = 80


def _min_nonzero(M) -> float:
    # smallest nonzero |component|; real and imaginary parts count apart
    a = np.abs(M.view(np.float64) if M.dtype.kind == "c" else M)
    return float(np.min(a, initial=np.inf, where=a > 0.0))


def _scales_exactly(A, A2, A4, d: int) -> bool:
    """True when the powers of 2**d A (d >= 1) are A2, A4, A6 scaled, bit for bit.

    The products A @ A, A2 @ A2 and A4 @ A2 must keep _EXACT_SCALE_FLOOR
    (scaled up, they keep it too), and 2**(6d) must be a float: where A2
    is zero, no magnitude bounds d.
    """
    if 6 * d > 1023:
        return False
    a, a2, a4 = _min_nonzero(A), _min_nonzero(A2), _min_nonzero(A4)
    return min(a * a, a2 * a2, a4 * a2) >= _EXACT_SCALE_FLOOR


def expm_times(X, ts):
    """Yield (t, expm(t * X)) for each distinct t of ts, bit for bit.

    Times are deduplicated as dict keys are (0.0 and -0.0 are one time, the
    first is kept) and yielded grouped by their scaled argument t*X / 2**s,
    with s chosen exactly as `expm` chooses it.  Each distinct scaled
    argument costs one Pade approximant: the times that share it (2t beside
    t above the scaling threshold, 2**-k for k up to s + 1) take their
    values from one squaring chain.  Scaled arguments that are power-of-two
    multiples of one another (one mantissa of t) share A**2, A**4 and A**6,
    scaled, when n is at least _SHARE_POWERS_MIN_N and `_scales_exactly`
    guarantees that the scaled powers are the computed ones; otherwise they
    compute them.  Both kinds of sharing are confirmed with `np.array_equal`,
    so no result differs from `expm(t * X)` in any bit.  Each yielded matrix
    is the caller's own.

    Every time is validated before the first yield: a non-finite or
    overflowing t * X raises `NonFiniteInput` as `expm` does.  The generator
    holds at most one squaring chain and the powers of one family, and
    keeps the powers only while another scaled argument of that family is
    still to come.
    """
    X = np.asarray(X)
    zeros, families = _plan(X, ts)
    for t, dtype in zeros:
        yield t, np.eye(X.shape[0], dtype=dtype)
    for family in families.values():
        shared = None  # (offset, A, A2, A4, A6) while the family has more to come
        offsets = sorted(family)
        for i, offset in enumerate(offsets):
            members = sorted(family[offset])
            s, t = members[0]
            A = as_matrix(t * X) / (2.0**s)
            powers = None
            if shared is not None:  # offsets ascend, so A is 2**d >= 2 times the last one
                last, B, B2, B4, B6 = shared
                shared = None
                if _scales_exactly(B, B2, B4, offset - last):
                    c = math.ldexp(1.0, offset - last)
                    if np.array_equal(A, c * B):
                        c2 = c * c
                        powers = (c2 * B2, c2 * c2 * B4, c2 * c2 * c2 * B6)
                del B, B2, B4, B6
            if powers is None:
                powers = _powers(A)
            E = _pade13(A, *powers)
            if i + 1 < len(offsets) and A.shape[0] >= _SHARE_POWERS_MIN_N:
                shared = (offset, A, *powers)
            del powers
            yield from _chain(X, A, E, members)


def _plan(X, ts):
    # validate every distinct time; sort the nonzero ones into families (one
    # mantissa of t) of groups (one exponent of t minus s), holding one t * X at a time
    zeros = []
    families = {}  # mantissa -> {exponent - s -> [(s, t)]}
    for t in dict.fromkeys(ts):
        Y = as_matrix(t * X)
        nrm = one_norm(Y)
        if nrm == 0.0:
            zeros.append((t, Y.dtype))
            continue
        s = _squarings(nrm)
        mantissa, exponent = math.frexp(t)
        families.setdefault(mantissa, {}).setdefault(exponent - s, []).append((s, t))
    return zeros, families


def _chain(X, A, E, members):
    # E = r13(A); members (s, t) by ascending s, which differ within a group.
    # A member whose t*X / 2**s is A takes E squared s times; any other is
    # computed on its own.
    done = 0
    for j, (s, t) in enumerate(members):
        if j:
            At = as_matrix(t * X) / (2.0**s)
            if not np.array_equal(At, A):
                yield t, _square(_pade13(At, *_powers(At)), s)
                continue
            del At
        E = _square(E, s - done)
        done = s
        yield t, E


def det(M):
    """Determinant via pivoted LU elimination.

    Returns a float for real input, complex otherwise.
    """
    M = as_matrix(M)
    d = np.linalg.det(M)
    return complex(d) if np.iscomplexobj(M) else float(d)


class DetGauge(NamedTuple):
    nonsingular: bool      # scaled_abs_det above SINGULAR_TOL
    scaled_abs_det: float  # |det(M / max|m_ij|)|, 0.0 for the zero matrix
    sign: int | None       # real: +-1 when nonsingular, else 0; None when complex


def det_gauge(M) -> DetGauge:
    """Decide invertibility and the determinant sign from one LU.

    The determinant is taken of the entry-normalized copy (largest |entry|
    scaled to 1), so neither verdict, nor the magnitude `scaled_abs_det`,
    is spoiled by an unscaled determinant that underflows or overflows.
    Near-singular matrices (scaled |det| <= SINGULAR_TOL) are singular.
    This is the library's one singularity gauge and its one source of
    determinant signs: membership, component signs, perfectness and
    inversion all decide through it.
    """
    M = as_matrix(M)
    scale = np.max(np.abs(M))  # |det| of M / scale is scale-invariant
    d = np.linalg.det(M / scale) if scale != 0.0 else 0.0
    scaled_abs_det = float(abs(d))
    nonsingular = scaled_abs_det > SINGULAR_TOL
    if not is_real(M, 0.0):
        return DetGauge(nonsingular, scaled_abs_det, None)
    return DetGauge(nonsingular, scaled_abs_det, int(np.sign(d.real)) if nonsingular else 0)


def is_nonsingular(M) -> bool:
    """Invertibility by the singularity gauge of `det_gauge`."""
    return det_gauge(M).nonsingular


def inv(M) -> np.ndarray:
    """Inverse of a matrix that passes `is_nonsingular`.

    Raises SingularMatrix otherwise.  Satisfies M @ inv(M) = I to ~1e-10
    on reasonably conditioned inputs.
    """
    M = as_matrix(M)
    if not is_nonsingular(M):
        raise SingularMatrix("matrix is singular or too close to singular to invert")
    return np.linalg.solve(M, np.eye(M.shape[0], dtype=M.dtype))


def spectral_radius_estimate(M) -> float:
    """Upper estimate of the spectral radius via repeated squaring.

    Returns ||M**(2**k)||**(1/2**k) in the 1-norm after k =
    _SPECTRAL_SQUARINGS squarings (the 256th power, renormalized in log
    space to avoid overflow).  The value always lies between rho(M) and
    ||M||, so 1 over it is a safe nonsingularity radius for I + t*M.
    """
    M = as_matrix(M)
    nu = one_norm(M)
    if nu == 0.0:
        return 0.0
    B = M / nu
    log_scale = float(np.log(nu))  # log ||M**(2**k)||, maintained per squaring
    for k in range(1, _SPECTRAL_SQUARINGS + 1):
        B = B @ B
        c = one_norm(B)
        if c == 0.0:
            return 0.0
        B = B / c
        log_scale = 2.0 * log_scale + float(np.log(c))
        # invariant: M**(2**k) = exp(log_scale) * B with ||B|| = 1
    return float(np.exp(log_scale / 2.0**_SPECTRAL_SQUARINGS))
