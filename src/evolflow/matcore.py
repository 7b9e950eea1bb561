"""Dense real/complex matrix kernel.

Matrices throughout the library are plain numpy arrays, square, with finite
entries, dtype float64 for real data and complex128 otherwise.  Ordinary
arithmetic (products, sums, scaling, transposes, traces) is numpy's own;
this module adds the pieces everything else is built on: validation, the
matrix exponential (also at many times, one Pade approximant per distinct
scaled argument, taken a stacked block at a time at small n and, at large
n under a one-thread BLAS, two at a time on two threads), the
determinant gauge behind every nonsingularity and determinant-sign
decision, a guaranteed upper estimate of the spectral radius, the
per-check memo that lets a grid check compute each distinct exponential
and membership once (and take its exponentials from one `expm_times`
call, preloaded), and `worst`, the one reduction of a grid check's
residuals.

The Pade helpers `_powers`, `_pade13` and `_square` take one matrix or a
(k, n, n) stack; each slice of a stacked result equals the unstacked
call's result bit for bit (one gemm and one LAPACK solve per slice).

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import functools
import math
import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple

import numpy as np

from ._stepper import CHUNK_ENTRIES
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
    membership.  `preload_expm` fills it with exponentials taken from one
    `expm_times` call, ahead of the `expm` calls that read them.
    """
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def preload_expm(X, ts) -> None:
    """Store expm(t * X) for every t of ts in the open `memo()` table.

    The values come from one `expm_times(X, ts)` call, so they are the
    bytes `expm` computes, with the distinct approximants taken a block at
    a time.  Each goes in under the key a call `expm(t * X)` builds, keyed
    on this module's kernel, so that call is a hit whichever module's
    binding of `expm` it goes through; a key already in the table keeps its
    value.  Outside a block nothing is stored.  It never raises: when any
    time fails, because `expm_times` rejects it or because a floating-point
    event occurs that numpy's error settings would report, nothing is
    stored, and each `expm` call computes, warns and raises as without it.
    """
    table = _MEMO.get()
    if table is None:
        return
    X = np.asarray(X)
    strict = {kind: "ignore" if how == "ignore" else "raise" for kind, how in np.geterr().items()}
    try:
        with np.errstate(**strict):
            # -0.0 is a time of its own to the memo: its t * X has other bytes
            entries = [(_memo_key(_expm_kernel, (u * X,), {}), E)
                       for t, E in expm_times(X, ts) for u in ((t, -t) if t == 0 else (t,))]
    except Exception:  # the calls themselves raise or warn as they would have
        return
    for key, E in entries:
        if key is not None:  # None: a dtype `memoized` does not look up
            table.setdefault(key, E)


def _memo_key(fn, args, kwargs):
    # the table key of fn(*args, **kwargs), None when the call is not looked up:
    # the dtype object, not its `.str`, since for numeric dtypes the two are
    # equal exactly together (byte order included) and the object costs no string
    M = np.asarray(args[0])
    if M.dtype.kind not in "biufc":
        return None
    key = (fn, M.dtype, M.shape, M.strides, M.tobytes(), args[1:])
    if kwargs:  # one element longer, so never equal to a key without kwargs
        key += (tuple(kwargs.items()),)
    return key


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
        key = _memo_key(fn, args, kwargs)
        if key is None:
            return fn(*args, **kwargs)
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


def _as_float(a: np.ndarray) -> np.ndarray:
    # complex128 for complex data, float64 otherwise
    return a.astype(np.complex128 if a.dtype.kind == "c" else np.float64, copy=False)


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    # `_as_float` with every entry finite
    a = _as_float(a)
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
    with np.errstate(over="ignore"):  # an overflowing 1-norm raises below instead
        nrm = _scaling_norm(X)
    if nrm == 0.0:
        return np.eye(X.shape[0], dtype=X.dtype)
    squarings = _squarings(nrm)
    A = X / (2.0**squarings)
    return _square(_pade13(A, *_powers(A)), squarings)


# the kernel that `memoized` wraps into `expm`: the function in the memo keys
# of its calls, through whatever module binding they reach it
_expm_kernel = expm.__wrapped__


def _scaling_norm(M) -> float:
    # the 1-norm that sets the squarings of a finite matrix, which can still
    # overflow: that raises (callers keep numpy's overflow warning off)
    nrm = one_norm(M)
    if nrm == math.inf:
        raise NonFiniteInput("matrix 1-norm overflows")
    return nrm


def _squarings(nrm: float) -> int:
    # the fewest halvings that bring a 1-norm to at most _PADE13_THETA
    if nrm > _PADE13_THETA:
        return int(np.ceil(np.log2(nrm / _PADE13_THETA)))
    return 0


def _powers(A):
    # A**2, A**4 and A**6 of a matrix or of each slice of a stack
    A2 = A @ A
    A4 = A2 @ A2
    return A2, A4, A4 @ A2


def _pade13(A, A2, A4, A6) -> np.ndarray:
    """The approximant r13(A) from A and its powers: one linear solve.

    A may be a (k, n, n) stack of scaled arguments with their stacked
    powers: one call then takes k approximants, each slice the one its own
    call gives, bit for bit, for any mix of squaring counts among them.
    """
    b = _PADE13_B
    eye = np.eye(A.shape[-1], dtype=A.dtype)
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    del eye
    P = V - U
    V += U  # V + U in V's place: one matrix fewer held through the solve
    del U
    return np.linalg.solve(P, V)


def _square(E, squarings: int) -> np.ndarray:
    # E squared `squarings` times, slice by slice for a stack
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
    with s chosen exactly as `expm` chooses it.  A group is one distinct
    scaled argument with its squaring chain: it costs one Pade approximant,
    and the times that share it (2t beside t above the scaling threshold,
    2**-k for k up to s + 1) take their values from the chain.  Below
    n = _STACK_BELOW_N the approximants are taken a block at a time, one
    stacked `_powers` and `_pade13` call for up to CHUNK_ENTRIES / n**2
    scaled arguments; each slice of a stacked call is the unstacked call's
    result, bit for bit.  From there on they are taken one at a time, and
    scaled arguments that are power-of-two multiples of one another (one
    mantissa of t) share A**2, A**4 and A**6, scaled, when n is at least
    _SHARE_POWERS_MIN_N and `_scales_exactly` guarantees that the scaled
    powers are the computed ones; otherwise they compute them.  Both kinds
    of sharing are confirmed with `np.array_equal`, so no result differs
    from `expm(t * X)` in any bit.  Each yielded matrix is the caller's own.

    From n = _PARALLEL_MIN_N on, a call with more than one group takes the
    groups two at a time when `_helper_engages` (one BLAS thread, a second
    usable CPU): the earlier group on the calling thread, the later on one
    helper thread, started for the call and joined when the generator
    finishes or is closed.  The helper runs under the caller's numpy error
    settings, and what it raises is raised here.  The values and their
    order are unchanged.

    Every time is validated before the first yield: a non-finite t * X, or
    one that overflows in its entries or its 1-norm, raises `NonFiniteInput`
    as `expm` does, without numpy's overflow warning.  One group at a time,
    the generator holds at most one squaring chain and either one block of
    approximants or the powers of one family, and keeps the powers only
    while another scaled argument of that family is still to come; two at
    a time, it also holds the later group's values and powers.
    """
    X = np.asarray(X)
    zeros, families = _plan(X, ts)
    for t, dtype in zeros:
        yield t, np.eye(X.shape[0], dtype=dtype)
    # (mantissa, offset, members) in the order their approximants are taken
    groups = [(mantissa, offset, sorted(family[offset]))
              for mantissa, family in families.items() for offset in sorted(family)]
    if len(groups) > 1 and X.shape[0] >= _PARALLEL_MIN_N and _helper_engages():
        # imported here: 4 ms and 0.6 MB that calls below the threshold never need
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(1, thread_name_prefix="evolflow-expm_times") as helper:
            yield from _pairs(X, groups, helper)
        return
    for A, E, members in _approximants(X, groups):
        yield from _chain(X, A, E, members)
        del A, E  # not held while the next approximant is taken


# Stacking a block of approximants into one call saves numpy's per-call
# overhead, about 30 us an approximant at n = 2-5, where it costs most of
# the approximant.  With the products it stops paying: stacked blocks of
# CHUNK_ENTRIES entries took 1/6.5 of the one-at-a-time time at n = 8,
# 1/2.4 at n = 16, 1/1.2 at n = 31 and 1/0.97 at n = 40 (2-core x86-64
# host, one OpenBLAS thread), so from n = 32 on they are taken one at a time.
_STACK_BELOW_N = 32

# Two groups at a time pay once a group's products outweigh starting and
# joining a thread and the two threads' contention for memory.  With the
# helper forced on at every n, `axioms_report` on random rate matrices (four
# times in (0, 1.6], their sums and the 2**-k sweep; mean over 3 matrices of
# the best of 3-5 runs, two passes; 2-core x86-64 host, one OpenBLAS
# thread) went, one at a time -> two at a time, in ms:
#   n = 100: 25-32 -> 38-39      n = 150: 61-86 -> 59-106
#   n = 175: 120-133 -> 92-93    n = 200: 139-176 -> 104-129
#   n = 250: 264-268 -> 200-211  n = 300: 450-521 -> 339-347
# The crossover lies between 150 and 175; the threshold keeps a margin above it.
_PARALLEL_MIN_N = 200

# The variables OpenBLAS reads its thread count from, in its order: the
# first set to a positive integer decides.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _helper_engages() -> bool:
    """True when `expm_times` may hand every other group to a helper thread.

    That is when the BLAS runs one thread, as its environment variables
    set it, and the process may use at least two CPUs.  With more BLAS
    threads (OpenBLAS starts one per CPU when none is set) each product
    already uses the cores, and a helper only oversubscribes them: at two
    BLAS threads on two cores, `axioms_report` at n = 200 and 300 took 1.2
    to 1.6 times as long with the helper forced on.
    """
    for name in _BLAS_THREAD_VARIABLES:
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            break
    else:
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return threads == 1 and cpus >= 2


def _block_rows(n: int) -> int:
    # scaled arguments whose approximants one stacked call takes; sharing
    # powers takes them one at a time
    if n >= _STACK_BELOW_N or n >= _SHARE_POWERS_MIN_N:
        return 1
    return CHUNK_ENTRIES // (n * n)


def _scaled(X, s, t):
    # t*X / 2**s for a time `_plan` validated: coerced as `as_matrix`
    # coerces it, to the same bits, without validating it again
    return _as_float(t * X) / (2.0**s)


def _follows(groups, i, n) -> bool:
    # whether group i's powers may serve the next group: n shares powers,
    # and the next group is of the same family
    return n >= _SHARE_POWERS_MIN_N and i + 1 < len(groups) and groups[i + 1][0] == groups[i][0]


def _approximants(X, groups):
    # (A, r13(A), members) for each group, in order, with A = t*X / 2**s of
    # its first member: a block of `_block_rows` at a time, or one at a
    # time, with powers shared along a family
    n = X.shape[0]
    rows = _block_rows(n)
    shared = None  # (offset, A, A2, A4, A6) while its family has more to come
    for start in range(0, len(groups), rows):
        block = groups[start:start + rows]
        scaled = [_scaled(X, *members[0]) for _, _, members in block]
        if rows > 1 and len({A.dtype for A in scaled}) == 1:  # else none is upcast
            S = np.stack(scaled)
            approximants = [E.copy() for E in _pade13(S, *_powers(S))]
            del S
            for A, E, (_, _, members) in zip(scaled, approximants, block):
                yield A, E, members
            continue
        for i, ((_, offset, members), A) in enumerate(zip(block, scaled), start):
            powers = _shared_powers(shared, offset, A)
            shared = None
            if powers is None:
                powers = _powers(A)
            E = _pade13(A, *powers)
            if _follows(groups, i, n):
                shared = (offset, A, *powers)
            del powers
            yield A, E, members


def _pairs(X, groups, helper):
    # the values of the groups two at a time, in group order: the earlier
    # group of a pair on this thread, the later on `helper`.  Powers are
    # shared as `_approximants` shares them, except that the later group
    # shares only powers its partner was given: powers the partner computes
    # are not there yet when the helper starts.
    n = X.shape[0]
    shared = None  # (offset, A, A2, A4, A6) while its family has more to come
    for i in range(0, len(groups), 2):
        _, offset, members = groups[i]
        A = _scaled(X, *members[0])
        powers = _shared_powers(shared, offset, A)
        shared = (offset, A, *powers) if powers is not None and _follows(groups, i, n) else None
        later = None
        if i + 1 < len(groups):
            _, later_offset, later_members = groups[i + 1]
            B = _scaled(X, *later_members[0])
            # a new thread starts from numpy's default error settings (numpy 2
            # keeps them in a context variable, numpy 1 per thread): the helper
            # takes this thread's, so an overflow warns or raises as it would here
            errors = {**np.geterr(), "call": np.geterrcall()}
            later = helper.submit(_values, X, B, _shared_powers(shared, later_offset, B),
                                  later_members, errors)
        shared = None
        if powers is None:
            powers = _powers(A)
        E = _pade13(A, *powers)
        del powers
        yield from _chain(X, A, E, members)
        del A, E
        if later is not None:
            values, powers = later.result()
            if _follows(groups, i + 1, n):
                shared = (later_offset, B, *powers)
            del B, powers
            yield from values
            del values


def _values(X, A, powers, members, errors):
    # one group's values in order, and A's powers (those given, or computed),
    # under the numpy error settings `errors`
    with np.errstate(**errors):
        if powers is None:
            powers = _powers(A)
        return list(_chain(X, A, _pade13(A, *powers), members)), powers


def _shared_powers(shared, offset, A):
    # A**2, A**4 and A**6 as the family's last scaled argument's powers
    # scaled, when A is that argument times 2**d (offsets ascend within a
    # family, so d >= 1) and the scaling is exact; else None
    if shared is None:
        return None
    last, B, B2, B4, B6 = shared
    if not _scales_exactly(B, B2, B4, offset - last):
        return None
    c = math.ldexp(1.0, offset - last)
    if not np.array_equal(A, c * B):
        return None
    c2 = c * c
    return c2 * B2, c2 * c2 * B4, c2 * c2 * c2 * B6


def _plan(X, ts):
    # validate every distinct time; sort the nonzero ones into families (one
    # mantissa of t) of groups (one exponent of t minus s), holding one t * X at a time
    zeros = []
    families = {}  # mantissa -> {exponent - s -> [(s, t)]}
    with np.errstate(over="ignore"):  # an overflowing t * X or 1-norm raises instead
        for t in dict.fromkeys(ts):
            Y = as_matrix(t * X)
            nrm = _scaling_norm(Y)
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
            At = _scaled(X, s, t)
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
