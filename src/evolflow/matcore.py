"""Dense real/complex matrix kernel.

Matrices throughout the library are plain numpy arrays, square, with
finite entries, dtype float64 for real data and complex128 otherwise.
Ordinary arithmetic (products, sums, scaling, transposes, traces) is
numpy's own; this module adds the pieces everything else is built on:
validation, the matrix exponential (its Pade degree and halvings chosen
from the norms of the powers it forms, after Al-Mohy & Higham; also at
many times: below n = 32 a stacked block of times as arrays, one row a
time from the 1-norms to the squarings, where the Python that shares work
between times costs more than the work; from n = 32 on, and for times
that do not stack, the times of one scaled argument sharing its powers
and, with one degree and halving count, one Pade approximant, one group at
a time, and at large n under a one-thread BLAS every other group on a
second thread), the determinant gauge behind every nonsingularity and
determinant-sign decision, a guaranteed upper estimate of the spectral
radius, `memo(X, grid)`, the scope of a grid check on t -> exp(t X) in
which each distinct exponential and membership is computed once, with one
lookup per kernel (`expm` finds an exponential, preloaded from one
`expm_times` run, by the identity of the t X row the scope hands out;
`memoized` finds a membership by its bytes), and `worst`, the one
reduction of a grid check's residuals (`nonempty` refuses none;
`frob_residuals` takes a chunk of them from one stacked stage below
n = 32, only for the subgroup check and `flow_axioms`).

The Pade helpers `_Powers`, `_pade` and `_square` take one matrix or a
(k, n, n) stack; each slice of a stacked result equals the unstacked
call's result bit for bit (one gemm and one LAPACK gesv per slice, the
solve by numpy's gufunc without its Python wrapper).  Products of one
matrix go through `_matmul`: `ndarray.dot` where it rounds as `@`, n >= 2.
One matrix below n = 32 takes r_13 from one stack of its powers and one
multiply and reduction (`_pade`), to the bits of the term-by-term chain.

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

from . import _stepper
from .errors import DimensionMismatch, NonFiniteInput, SingularMatrix

# A matrix counts as numerically singular when the determinant of its
# entry-normalized copy (largest |entry| scaled to 1) falls at or below this.
SINGULAR_TOL = 1e-12

# Squarings behind `spectral_radius_estimate`: it bounds rho(M) by the
# 256th root of ||M**256||.
_SPECTRAL_SQUARINGS = 8

# The diagonal Pade approximants r_m of exp that `expm` chooses among, by
# their coefficients b_0..b_m (Higham, SIAM J. Matrix Anal. Appl. 26, 2005),
# and theta_m: r_m(A) has backward error at most u = 2**-53 while ||A||_1, or
# Al-Mohy & Higham's eta from the 1-norms of powers of A, is at most theta_m
# (SIAM J. Matrix Anal. Appl. 31, 2009, Table 3.1).
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
         129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
         40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068, 13: 5.371920351148152}
# h of the even powers A**2, ..., A**(2h) that r_m takes
_EVEN_POWERS = {3: 1, 5: 2, 7: 3, 9: 4, 13: 3}
# b_2, ..., b_13 as r_13's [outer, inner sum][A**2, A**4, A**6][v, u] coefficients, to broadcast over
# the (3, 1, n, n) stack of the powers: v = (b_2 A**2 + b_4 A**4 + b_6 A**6) + A**6 @ (b_8 A**2 + ...) + b_0 I
_PADE13_TERMS = np.reshape(_PADE_B[13][2:], (2, 3, 2, 1, 1))
# theta_13**k, the bounds on ||A**k||_1 of the halvings, as `_halvings` limits
_THETA13_LIMITS = {k: math.frexp(_THETA[13] ** k) for k in (1, 4, 6, 8, 10)}
# the powers k and limits of eta's four `_halvings` (d_4, d_8's (||A**6|| ||A**2||)**(1/8), d_6, d_10), as
# columns: a stack's are one `_halvings_of` call
_ETA_POWERS = np.array([[4], [8], [6], [10]])
_ETA_LIMITS = tuple(np.array([[_THETA13_LIMITS[k][i]] for k in (4, 8, 6, 10)]) for i in (0, 1))
# u / |c_27|, c_27 the leading coefficient of r_13's backward error series:
# ell(A, 13) adds halvings while ||(|A|)**27||_1 |c_27| / ||A||_1 exceeds u;
# its 26th root bounds the ||A||_1 with ell = 0, as a `_halvings` limit
_ELL_UC = 2.0**-53 * 113250775606021113483283660800000000.0
_ELL_ROOT = math.frexp(_ELL_UC ** (1.0 / 26.0))


class _Scope(NamedTuple):
    # an open `memo` scope: X and its bytes at entry; its preload's read-only rows {t: t * X} and their
    # exponentials {id(t * X): expm(t * X)}, both empty when it failed; and the memoized kernels' table
    X: np.ndarray | None
    data: bytes | None
    rows: dict
    exponentials: dict
    table: dict


_SCOPE: ContextVar[_Scope | None] = ContextVar("evolflow_memo", default=None)  # the innermost open one
_ABSENT = object()  # a key not in the memo table
_FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.complex128))  # the dtypes `_as_float` keeps


@contextmanager
def memo(X, grid):
    """Scope of a grid check on t -> exp(t X), in which each distinct exponential and membership is
    computed once.

    It preloads expm(t * X) for each distinct t of the grid and its sums
    s + t, zero included, from one `expm_times` run, and keeps each Python
    float's row: t * X bit for bit, a slice of one read-only stack.
    `_times` hands the rows out, and `expm` on a row, through any binding,
    finds its exponential by the row's identity (+-0.0 share the zero
    row); any other argument is computed.  The table of the `memoized`
    kernels (`lie.in_group`) is keyed by bytes.  A nested scope has its
    own; each goes when its scope exits, also on an exception.  The
    preload never raises: when a time fails (`expm_times` rejects it, or
    a floating-point event numpy's error settings would report), no rows
    are kept, and each `expm` call acts as outside a scope.
    """
    strict = {kind: "ignore" if how == "ignore" else "raise" for kind, how in np.geterr().items()}
    try:
        X, grid = np.asarray(X), list(grid)
        with np.errstate(**strict):
            ts = list(dict.fromkeys([*grid, *np.add.outer(grid, grid).ravel().tolist()]))
            floats = [t for t in ts if type(t) is float]
            P = np.multiply.outer(floats, X)  # each slice t * X, bit for bit
            P.flags.writeable = False  # and so each row
            rows = dict(zip(floats, P))
            exponentials = {id(rows[t]): E for t, E in expm_times(X, ts) if t in rows}
        scope = _Scope(X, X.tobytes(), rows, exponentials, {})
    except Exception:  # the calls themselves raise or warn as they would have
        scope = _Scope(None, None, {}, {}, {})
    token = _SCOPE.set(scope)
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _times(X, t, reach):
    # t * X: the open scope's row when X is its array, with the bytes it preloaded, and t a float it
    # preloaded (+-0.0 the zero row); else a new product, unwarned for |t| > reach (`_reach`)
    scope = _SCOPE.get()
    if (scope is not None and X is scope.X and type(t) is float and (row := scope.rows.get(t)) is not None
            and X.tobytes() == scope.data):
        return row
    if abs(t) <= reach:
        return t * X
    with np.errstate(over="ignore"):  # `expm` raises NonFiniteInput on an overflowed product
        return t * X


def _reach(X) -> np.float64:
    # the |t| up to which t * X of a finite X stays finite: each real and imaginary part of a product
    # is at most |t| max|x_ij| <= 2**1023, rounding included (a float64: a float32 |t| is not cast)
    top = float(_MAX(np.abs(X), axis=None))
    return np.float64(2.0**1023 / top if top else math.inf)


def memoized(fn):
    """Decorate a kernel f(M, *args) to look its result up inside a `memo` scope.

    A call is keyed on the exact raw input (`np.asarray(M)`'s dtype, shape,
    strides and bytes) with the remaining arguments, taken before
    validation: the same bytes passed validation before, and a call that
    raises stores nothing.  Results of type ndarray are handed out as
    copies, so callers own them.  Outside a scope, and for a call with a
    keyword argument, a matrix of a non-numeric dtype or an unhashable
    argument, the function runs as if undecorated; the dtype is tested
    only on a miss, since no other dtype is stored.  It decorates
    `lie.in_group`; `expm` finds its preloaded rows itself.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        scope = _SCOPE.get()
        if scope is None or not args or kwargs:
            return fn(*args, **kwargs)
        M = args[0] if type(args[0]) is np.ndarray else np.asarray(args[0])
        key = (fn, M.dtype, M.shape, M.strides, M.tobytes(), args[1:])
        try:
            result = scope.table.get(key, _ABSENT)  # the one hash of the key
        except TypeError:  # an unhashable argument: no lookup
            return fn(*args, **kwargs)
        if result is _ABSENT:
            result = fn(*args, **kwargs)
            if M.dtype.kind in "biufc":  # no other dtype is stored, so none can hit
                scope.table[key] = result
        return result.copy() if type(result) is np.ndarray else result

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


def nonempty(points, message: str = "grid must be nonempty") -> list:
    """The points as a list; ValueError for none, where a check would pass vacuously."""
    if not (points := list(points)):
        raise ValueError(message)
    return points


def _as_float(a: np.ndarray) -> np.ndarray:
    # complex128 for complex data, float64 otherwise
    return a.astype(np.complex128 if a.dtype.kind == "c" else np.float64, copy=False)


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    # a float64 or complex128 array, with every entry finite
    if np.count_nonzero(np.isfinite(a)) != a.size:  # `.all()` costs twice as much
        raise NonFiniteInput(f"{name} has non-finite entries")
    return a


def _square_float(a, name: str = "matrix") -> np.ndarray:
    # `as_matrix` without its finiteness check
    M = np.asarray(a)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    return _as_float(M)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and coerce `a` to a square float64/complex128 array.

    Raises DimensionMismatch for non-square input and NonFiniteInput when
    any entry is NaN or infinite.
    """
    return _finite(_square_float(a, name), name)


def as_vector(a, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate a length-n coordinate vector (float64 or complex128)."""
    x = np.asarray(a)
    if x.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {x.shape}")
    if n is not None and x.shape[0] != n:
        raise DimensionMismatch(f"{name} has length {x.shape[0]}, expected {n}")
    return _finite(_as_float(x), name)


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


def frob_norms(M) -> np.ndarray:
    """`frob_norm` of each slice of a float or complex (k, n, n) stack, bit for bit: each
    x . x is a (1, n^2) @ (n^2, 1) matmul on `frob_norm`'s dot kernel, over the entries in
    memory order, complex ones as strided real and imaginary views, as `frob_norm` takes them."""
    x = np.asarray(M)
    k, size = len(x), math.prod(x.shape[1:])
    if not x.flags.c_contiguous:  # a slice's memory order need not be C order
        x = np.array([s.ravel(order="K") for s in x])
    x = x.reshape(k, 1, size)
    sq = sum(p @ p.swapaxes(1, 2) for p in ((x.real, x.imag) if x.dtype.kind == "c" else (x,)))
    return np.sqrt(sq.reshape(k))


def stacked(matrices):
    """Several C-contiguous matrices of one dtype and shape as one stack (a C-contiguous one as it is),
    others as a list: only then has each slice of a stacked product or difference their own bits."""
    if type(matrices) is np.ndarray and matrices.flags.c_contiguous:
        return matrices
    alike = len({(M.dtype, M.shape, M.flags.c_contiguous) for M in matrices}) == 1 < len(matrices)
    return np.array(matrices) if alike and matrices[0].flags.c_contiguous else list(matrices)


def frob_residuals(left, right) -> list:
    """`frob_norm(l - r)` of each pair of two chunks of matrices, bit for bit: a stacked difference
    normed by `frob_norms` when both chunks stack (`stacked`) alike below n = 32, else pair by pair."""
    if len(left) and len(left[0]) < _STACK_BELOW_N:
        L, R = stacked(left), stacked(right)
        if type(L) is type(R) is np.ndarray and L.dtype == R.dtype and L.shape == R.shape:
            return frob_norms(L - R).tolist()
    return [frob_norm(a - b) for a, b in zip(left, right)]


def one_norm(M) -> float:
    """Induced 1-norm (maximum absolute column sum)."""
    return float(np.abs(np.asarray(M)).sum(axis=0).max())


def expm(X) -> np.ndarray:
    """Matrix exponential by scaling and squaring, its Pade degree chosen.

    The degree m and the halvings s follow Al-Mohy & Higham (SIAM J. Matrix
    Anal. Appl. 31, 2009; `_degree`): degree 13, with s from the norms of
    X**2, X**4 and X**6 and their ell correction for a non-normal X, unless
    ||X||_1 is at most theta_m of a lower degree m (from n = 32 on).  No
    product is formed beyond those the degree takes: 2, 3, 4, 5 for m = 3 to
    9, 6 for m = 13, plus s squarings.  Relative accuracy against a 50-digit
    oracle is ~1e-15 on well-conditioned inputs, also on [[1, b], [0, -1]]
    for large b, which halving by ||X||_1 alone loses digits to.  Inside a
    `memo` scope a row of its preload takes a copy of its preloaded
    exponential; any other X is computed.
    """
    if (scope := _SCOPE.get()) is not None and (E := scope.exponentials.get(id(X))) is not None:
        return E.copy()  # a row the scope holds alive, so no other array has its id, and read-only
    X = _square_float(X)  # validated in one pass with its 1-norm
    with np.errstate(over="ignore"):  # an overflowing 1-norm raises below instead
        nrm = float(_MAX(_SUM(np.abs(X), axis=0)))  # `one_norm`: finite exactly when every entry
        if not nrm < math.inf:  # is and no column sum overflows; else raise as the two checks do
            _scaling_norm(as_matrix(X))
    if nrm == 0.0:
        return np.eye(X.shape[0], dtype=X.dtype)
    squarings = _squarings(nrm)
    # X itself when unhalved (no copy), unless strided: products of a strided X round otherwise
    return _exponential(X if not squarings and X.flags.forc else X / 2.0**squarings, nrm, squarings)


def _exponential(A, nrm, squarings):
    # exp(Y) from A = Y / 2**squarings, ||Y||_1 = nrm
    if not squarings and len(A) < _STACK_BELOW_N:  # (m, s) is (13, 0): A**2, A**4, A**6 in one stack
        E = np.empty((3, *A.shape), A.dtype)
        A2, A4, A6 = E
        _matmul(A, A, A2)
        _matmul(A2, A2, A4)
        _matmul(A2, A4, A6)
        return _pade(A, E, 13)
    powers = _Powers(A)
    m, s = _degree(powers, nrm, squarings)
    return _square(_approximant(powers.arguments(m, release=True), m, squarings - s), s)


def _scaling_norm(M) -> float:
    # the 1-norm that sets the squarings of a finite matrix, which can still
    # overflow: that raises (callers keep numpy's overflow warning off)
    nrm = one_norm(M)
    if nrm == math.inf:
        raise NonFiniteInput("matrix 1-norm overflows")
    return nrm


# `_halvings` of a zero quantity: any number of halvings will do
_ANY = -(1 << 40)


def _halvings(q, k, e, limit) -> int:
    # the fewest halvings s (_ANY for q = 0) of a matrix Y with A = Y / 2**e and a quantity q of
    # A that scales as ||A||**k, after which q * 2**(k*(e - s)) is at most limit = (mantissa,
    # exponent): decided on the mantissas and exponents, exactly
    if not q:
        return _ANY
    mantissa, exponent = math.frexp(q)
    return (exponent + k * e - limit[1] + (mantissa > limit[0]) + k - 1) // k


def _squarings(nrm: float) -> int:
    # the fewest halvings that bring a 1-norm to at most theta_13
    return 0 if nrm <= _THETA[13] else _halvings(nrm, 1, 0, _THETA13_LIMITS[1])


# the reductions of `one_norm`, without the method wrappers; LAPACK's gesv gufunc, `_pade`'s solve
_SUM, _MAX, _gesv = np.add.reduce, np.maximum.reduce, np.linalg._umath_linalg.solve


def _matmul(a, b, out=None) -> np.ndarray:
    """a @ b, by `ndarray.dot`'s gemm without `np.matmul`'s dispatch where the two round alike:
    C- or F-contiguous matrices, a with n >= 2 columns (a 1 x 1 `dot` keeps a -0.0 product); into
    `out`, a C-contiguous array, when given."""
    if a.flags.forc and b.flags.forc and a.ndim == b.ndim == 2 and a.shape[1] > 1:
        return a.dot(b, out=out)
    return np.matmul(a, b, out=out)


class _Powers:
    """A matrix A, or a (k, n, n) stack of them, and its even powers, each formed when first asked
    for.

    A is Y / 2**squarings (`_squarings`), so that ||A||_1 <= theta_13 and no
    power of A overflows.  W holds A, A**2, A**4, ... as formed, each for
    all slices in one product; each slice, its powers' 1-norms and the norm
    of |A|**27 are what the one-matrix call gives, bit for bit.
    """

    __slots__ = ("A", "W")

    def __init__(self, A):
        self.A, self.W = A, [A]

    def even(self, h):
        """[A**2, ..., A**(2h)], for h up to 4, each formed with the ones before it."""
        W = self.W
        for k in range(len(W), h + 1):  # A**(2k) = A A, A**2 A**2, A**2 A**4, A**4 A**4
            W.append(_matmul(W[k // 2], W[k - k // 2]) if k > 1 else _matmul(W[0], W[0]))
        return W[1:h + 1]

    def norms(self):
        """[||A**2||_1, ||A**4||_1, ||A**6||_1]: floats for one matrix, (k,) arrays for a stack, each
        power's for all slices from one reduction."""
        norms = [_MAX(_SUM(np.abs(P), axis=-2), axis=-1) for P in self.even(3)]  # `one_norm`s
        return norms if self.A.ndim == 3 else [float(p) for p in norms]

    def arguments(self, m, release=False):
        """[A, A**2, ..., A**(2h)], as r_m takes them; with `release` no longer held here, so that
        `_approximant` can drop each as it scales it."""
        h = _EVEN_POWERS[m]
        self.even(h)
        W = self.W[:h + 1]
        if release:
            self.A = self.W = None
        return W

    def abs_norm(self):
        """||(|A|)**27||_1: a float for one matrix, a (k,) array for a stack, all slices' from the same
        27 vector products 1^T |A|**k."""
        B = np.abs(self.A)
        v = np.ones((*B.shape[:-2], 1, B.shape[-1]))
        for _ in range(27):
            v = _matmul(v, B)
        v = _MAX(v, axis=-1).reshape(-1)
        return v if B.ndim == 3 else float(v[0])


def _degree(powers, nrm, squarings) -> tuple[int, int]:
    """(m, s) for Y with ||Y||_1 = nrm, whose Y / 2**squarings is the matrix of `powers`.

    From n = _STACK_BELOW_N on the smallest of degrees 3 to 9 with nrm <=
    theta_m, where Al-Mohy & Higham's d_j = ||Y**j||_1**(1/j) <= nrm and
    ell(Y, m) = 0 follow; below it always degree 13, as a product there
    costs less than the call that takes it and a stacked block stays one
    degree.  Degree 13 halves their eta_5 = min(max(d_6, d_8), max(d_8,
    d_10)) to at most theta_13, d_8 <= min(d_4, (||Y**6|| ||Y**2||)**(1/8))
    and d_10 <= (||Y**4|| ||Y**6||)**(1/10) from the powers it forms anyway,
    then adds ell(Y / 2**s, 13), the fewest extra halvings that bring
    ||(|A|)**27||_1 |c_27| / ||A||_1 to at most u for A = Y / 2**s: none at
    no cost when ||A||_1**26 |c_27| <= u, else from the exact norm
    (`_Powers.abs_norm`).  Their d_j tests of the degrees below 13 are left
    out: with their ell they cost more than the products they save (a 2 x 2
    upper triangular matrix of 1-norm 4.2 took 60 us with them, at degree
    7, against 34 us at degree 13; 2-core x86-64 host, one OpenBLAS thread).
    Every comparison is exact (`_halvings`), so the choice depends on the
    matrix and nrm alone; `_row_halvings` makes the same comparisons for
    each slice of a stack.
    """
    if powers.A.shape[-1] >= _STACK_BELOW_N:
        for m in (3, 5, 7, 9):
            if nrm <= _THETA[m]:
                return m, 0
    if nrm <= _THETA[13]:  # then eta_5 <= nrm and ell(Y, 13) = 0
        return 13, 0
    (p2, p4, p6), limits = powers.norms(), _THETA13_LIMITS
    d8 = min(_halvings(p4, 4, squarings, limits[4]), _halvings(p6 * p2, 8, squarings, limits[8]))
    eta3 = max(_halvings(p6, 6, squarings, limits[6]), d8)
    eta4 = max(d8, _halvings(p4 * p6, 10, squarings, limits[10]))
    s = max(min(eta3, eta4), 0)
    if _halvings(nrm, 1, 0, _ELL_ROOT) <= s:  # ||Y / 2**s||_1 is at most the 26th root of u / |c_27|
        return 13, s
    mantissa, exponent = math.frexp(nrm)
    mantissa, shift = math.frexp(_ELL_UC * mantissa)  # u / |c_27| ||Y||_1
    return 13, max(s, _halvings(powers.abs_norm(), 26, squarings, (mantissa, shift + exponent - squarings)))


def _halvings_of(q, k, e, limit) -> np.ndarray:
    # `_halvings` of each entry of a float array q, on int64 arrays: k, e and limit's mantissa and
    # exponent may be arrays that broadcast against q
    mantissa, exponent = np.frexp(q)
    s = (exponent.astype(np.int64) + k * e - limit[1] + (mantissa > limit[0]) + k - 1) // k
    return np.where(q != 0.0, s, _ANY)


def _row_halvings(powers, nrm, squarings) -> np.ndarray:
    # `_degree`'s s of each slice of a (k, n, n) stack below n = _STACK_BELOW_N, every degree 13: the
    # slices Y / 2**squarings with ||Y||_1 = nrm, nrm and squarings (k,) arrays; the same
    # comparisons, exact on each slice's mantissas and exponents
    halved = squarings > 0  # exactly where nrm > theta_13
    if not halved.any():
        return np.zeros_like(squarings)
    p2, p4, p6 = powers.norms()
    h4, h8, h6, h10 = _halvings_of(np.array([p4, p6 * p2, p6, p4 * p6]), _ETA_POWERS, squarings, _ETA_LIMITS)
    d8 = np.minimum(h4, h8)
    s = np.where(halved, np.maximum(np.minimum(np.maximum(h6, d8), np.maximum(d8, h10)), 0), 0)
    ell = np.flatnonzero(halved & (_halvings_of(nrm, 1, 0, _ELL_ROOT) > s))  # the exact norm's rows
    if len(ell):
        mantissa, exponent = np.frexp(nrm[ell])
        mantissa, shift = np.frexp(_ELL_UC * mantissa)
        limit = (mantissa, shift.astype(np.int64) + exponent - squarings[ell])
        s[ell] = np.maximum(s[ell], _halvings_of(_Powers(powers.A[ell]).abs_norm(), 26, squarings[ell], limit))
    return s


def _approximant(W, m, a) -> np.ndarray:
    # r_m(2**a A) from W = `_Powers.arguments(m)` of one matrix, or of a (k, n, n) stack with an
    # array a, one each.  The scaled argument and its powers are A's times exact powers of two
    # (none for a = 0), each put in W's place
    if a.any() if isinstance(a, np.ndarray) else a:
        if isinstance(a, np.ndarray):  # numpy's ldexp takes int64 exponents 15 times slower
            a = a.astype(np.int32)[:, None, None]
        for j, power in enumerate((1, 2, 4, 6, 8)[:len(W)]):
            W[j] = _scale(W[j], power * a)
    return _pade(W[0], W[1:], m)


def _scale(M, k):
    # M * 2**k (k an integer, or an integer array that broadcasts) as a new C-contiguous float64
    # or complex128 array, exactly for every entry that stays in the normal range
    if M.dtype.kind != "c":
        return np.ldexp(M, k, order="C")
    out = np.array(M, order="C")
    V = out.view(np.float64)  # the real and imaginary parts, each scaled alike
    np.ldexp(V, k, out=V)
    return out


def _pade(A, powers, m) -> np.ndarray:
    """The diagonal Pade approximant r_m(A) of exp: one linear solve.

    `powers` are A**2, ..., A**(2h), as the degree takes them
    (`_EVEN_POWERS`).  With U = A u(A**2) and V = v(A**2) from the odd and
    even coefficients, r_m = (V - U)^-1 (V + U); degree 13 takes A**8 to
    A**12 as A**6 @ (b13 A**6 + b11 A**4 + b9 A**2).  One matrix below
    n = _STACK_BELOW_N, always degree 13 (`_degree`), takes v's and u's
    sums from one broadcast multiply of its powers' (3, n, n) stack and one
    reduction (`_PADE13_TERMS`), then adds A**6 @ inner and b_0 I, b_1 I,
    each sum as the term-by-term chain rounds it; others form u, then v.  A
    may be a (k, n, n) stack with its powers' stacks: each slice is then
    what its own call gives, bit for bit.  The solve is `np.linalg.solve`'s
    gufunc (`_gesv`: the loop it names for float64 or complex128 operands of
    one dtype) without the wrapper's Python and errstate, which only makes a
    singular matrix's invalid flag LinAlgError (the gufunc clears the other
    flags): q_m(A) with ||A||_1 <= theta_m is well conditioned (Higham 2005).
    """
    if m == 13 and A.ndim == 2 and A.shape[-1] < _STACK_BELOW_N:
        E = np.asarray(powers)
        # the terms added in order to -0.0, the exact identity (numpy's +0.0 would turn -0.0 sums +0.0)
        outer, inner = _SUM(_PADE13_TERMS * E[:, None], axis=1, initial=-0j if E.dtype.kind == "c" else -0.0)
        outer += E[2] @ inner
        outer += _pade13_identity(len(A), E.dtype)  # every entry, as the chain: -0.0 + 0.0 is +0.0
        V, u = outer
        U = _matmul(A, u)
    else:
        U = _matmul(A, _parts(_PADE_B[m][1::2], powers))
        V = _parts(_PADE_B[m][0::2], powers)
    P = V - U
    V += U  # V + U in V's place: one matrix fewer held through the solve
    del U
    return _gesv(P, V)


@functools.cache
def _pade13_identity(n, dtype) -> np.ndarray:
    # b_0 I and b_1 I, r_13's identity terms of v and u, as one read-only (2, n, n) array
    eye = np.multiply.outer(_PADE_B[13][:2], np.eye(n, dtype=dtype))
    eye.flags.writeable = False
    return eye


def _parts(b, powers):
    # v or u of r_m term by term (a stack, or a matrix from n = 32 on), from its coefficients b
    # (`_PADE_B[m]`'s even or odd ones), b_0 I last as b_0 np.eye(n)
    h = len(powers)
    acc = b[1] * powers[0]
    for c, P in zip(b[2:h + 1], powers[1:]):
        acc += c * P
    if len(b) > h + 1:
        inner = b[h + 1] * powers[0]
        for c, P in zip(b[h + 2:], powers[1:]):
            inner += c * P
        acc += _matmul(powers[-1], inner)
    acc += b[0] * np.eye(acc.shape[-1], dtype=acc.dtype)
    return acc


def _square(E, squarings: int) -> np.ndarray:
    # E squared `squarings` times, slice by slice for a stack
    for _ in range(squarings):
        E = _matmul(E, E)
    return E


def expm_times(X, ts):
    """Yield (t, expm(t * X)) for each distinct t of ts, bit for bit.

    Times are deduplicated as dict keys are (0.0 and -0.0 are one time, the
    first is kept); each yielded matrix is the caller's own.  Below
    n = _STACK_BELOW_N a block of two to `_block_rows(n)` Python-float
    times, for a C-contiguous float64 or complex128 X, is computed as
    arrays, one row a time (`_rows`): the 1-norms, halvings k, scaled
    arguments t*X / 2**k, their powers, degree-13 halvings s
    (`_row_halvings`: `_degree`'s exact comparisons) and approximants
    r_13(2**(k - s) A) each from one stacked call, then the squarings level
    by level; such a block yields its times in order, first.  2t beside t
    above theta_13 takes a row of its own: at n = 2-5 finding them cost
    more Python a time than the approximant they would share (at n = 20-31
    with many such times, rows cost more).

    The other times (from n = 32 on, an F-ordered or strided X, other types
    of time, numpy reporting underflow) are grouped by their scaled argument,
    exactly as `expm` forms it.  The times that share one (2t beside t above
    theta_13, 2**-k for k up to k + 1), each confirmed with
    `np.array_equal`, share its powers, and those with one degree and one
    power of two 2**a of their approximant's argument (`_degree`) share one
    Pade approximant, read off one squaring chain; there a product costs
    more than the Python that shares it (a four-time `axioms_report` grid
    and its sums at n = 100 take 10-11 approximants for 14 times).  The
    groups go one at a time (`_group`).  From n = _PARALLEL_MIN_N on, a
    call with more than one group takes every other group on one helper
    thread when `_helper_engages` (one BLAS thread, a second usable CPU).
    The helper is started for the call and joined when the generator
    finishes or is closed; it runs under the caller's numpy error settings,
    and what it raises is raised here.  The values and their order are the
    same either way.

    Every time is validated before the first yield: a non-finite t * X, or
    one that overflows in its entries or its 1-norm, raises `NonFiniteInput`
    as `expm` does, without numpy's overflow warning.  The generator holds
    one stacked block's arrays and values, or one group's powers and one
    squaring chain; two at a time, it also holds the later group's values
    and the helper's work in progress.
    """
    X = np.asarray(X)
    yield from _exponentials(X, *_plan(X, ts))


def _exponentials(X, stacks, zeros, families):
    # the values of a `_plan`, in `expm_times`' order
    for block, nrm in stacks:
        yield from _rows(X, block, nrm)
    for t, dtype in zeros:
        yield t, np.eye(X.shape[0], dtype=dtype)
    # each group's members (k, t, ||t X||_1), in the order their approximants are taken
    groups = [sorted(family[offset]) for family in families.values() for offset in sorted(family)]
    if len(groups) < 2 or X.shape[0] < _PARALLEL_MIN_N or not _helper_engages():
        for members in groups:
            yield from _group(X, members)
        return
    # imported here: 4 ms and 0.6 MB that calls below the threshold never need
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="evolflow-expm_times") as helper:
        for i in range(0, len(groups), 2):
            # a new thread starts from numpy's default error settings (numpy 2
            # keeps them in a context variable, numpy 1 per thread): the helper
            # takes this thread's, so an overflow warns or raises as it would here
            errors = {**np.geterr(), "call": np.geterrcall()}
            later = helper.submit(_listed, _group(X, groups[i + 1]), errors) if i + 1 < len(groups) else None
            yield from _group(X, groups[i])
            if later is not None:
                yield from later.result()
                del later  # its values are not held while the next pair is taken


def _listed(values, errors):
    # a group's values as a list, taken under the numpy error settings `errors`
    with np.errstate(**errors):
        return list(values)


# Stacking a block of approximants into one call saves numpy's per-call
# overhead, most of an approximant's cost at n = 2-5.  With the products it
# stops paying: stacked approximants took 1/5.9 of the one-group time at n = 8,
# 1/2.1-2.4 at 16, 1/1.0-1.1 at 31 and 1/0.92-1.0 at 40 (2-core x86-64 host,
# one OpenBLAS thread), so from n = 32 on they are taken one at a time.
_STACK_BELOW_N = 32

# Two groups at a time pay once a group's products outweigh starting and
# joining a thread and the two threads' contention for memory: with the
# helper forced on at every n, `axioms_report` lost at n = 100, was mixed at
# 150 and won from 175 on (2-core host, one OpenBLAS thread; `BENCH_pr15.json`
# has the benchmark pairs); the threshold keeps a margin above the crossover.
_PARALLEL_MIN_N = 200

# The variables OpenBLAS reads its thread count from, in its order: the
# first set to a positive integer decides.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _helper_engages() -> bool:
    """True when `expm_times` may hand every other group to a helper thread.

    That is when the BLAS runs one thread, as its environment variables
    set it, and the process may use at least two CPUs.  With more BLAS
    threads (OpenBLAS starts one per CPU when none is set) each product
    already uses the cores, and a helper only oversubscribes them: at the
    default thread count on a 2-core host, a forced helper made
    `axioms_report` at n = 200 and 300 take 1.2-1.6 times as long.
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
    # the times of one stacked `expm_times` block (`_rows`)
    if n >= _STACK_BELOW_N:
        return 1
    return _stepper.CHUNK_ENTRIES // (n * n)


def _scaled(X, squarings, t):
    # t*X / 2**squarings for a time `_plan` validated: coerced as `as_matrix`
    # coerces it, to the same bits, without validating it again
    return _as_float(t * X) / (2.0**squarings)


def _group(X, members):
    # the values of a group's members (k, t, ||t X||_1), sorted: those whose t*X / 2**k is the first's,
    # A, share A's powers and, with one (m, a = k - s) of `_degree`, the approximant r_m(2**a A) and
    # its chain of squarings, in order of s; any other is computed on its own and yielded at once
    powers, chains = _Powers(_scaled(X, *members[0][:2])), {}
    for j, (k, t, nrm) in enumerate(members):
        if j:
            At = _scaled(X, k, t)
            if not np.array_equal(At, powers.A):
                yield t, _exponential(At, nrm, k)
                continue
            del At
        m, s = _degree(powers, nrm, k)
        chains.setdefault((m, k - s), []).append((s, t))
    for j, ((m, a), chain) in enumerate(chains.items(), 1):  # the last releases the powers
        E = _approximant(powers.arguments(m, release=j == len(chains)), m, a)
        done = 0
        for s, t in sorted(chain):
            E = _square(E, s - done)
            done = s
            yield t, E


def _rows(X, block, nrm):
    # the values of a stacked block of times (`_plan`), in order: each nonzero time one row, as
    # `expm` takes it (every degree 13 below _STACK_BELOW_N), each step for every row in one call;
    # sorted by their halvings s, the rows still to square are a prefix of the stack
    live = nrm > 0.0
    if live.any():
        nrm = nrm[live]
        k = np.maximum(_halvings_of(nrm, 1, 0, _THETA13_LIMITS[1]), 0)  # `_squarings`
        powers = _Powers(np.array(block)[live, None, None] * X / np.ldexp(1.0, k)[:, None, None])
        s = _row_halvings(powers, nrm, k)
        E = _approximant(powers.arguments(13, release=True), 13, k - s)
        if s.any():
            order = np.argsort(-s)
            S, s = E[order], s[order]
            for j in range(int(s[0])):
                rows = np.count_nonzero(s > j)
                S[:rows] = _matmul(S[:rows], S[:rows])
            E[order] = S  # back in the times' order
        E = iter(E)
    for t, nonzero in zip(block, live.tolist()):
        yield t, next(E).copy() if nonzero else np.eye(len(X), dtype=X.dtype)  # each the caller's own


def _plan(X, ts):
    # validate every distinct time, `_block_rows(n)` at a time.  A block of several Python-float times
    # whose 1-norms are finite goes to `stacks` as (times, 1-norms), from one stacked t * X (a slice is
    # t * X, bit for bit), while numpy ignores underflow, which a stacked t * X does not report (one time
    # is cheaper on `expm`'s own path), for a C-contiguous X only: an F-ordered X's stacked t * X is
    # C-ordered, and at n = 17 every exponential from it differed in its last bits.  The other times are
    # validated one t * X a time, so the first failing one raises as `expm` does, and sorted into zeros
    # and families (one mantissa of t) of groups (one exponent of t minus k, the halvings of ||t X||_1)
    # of (k, t, ||t X||_1)
    stacks, zeros, families, times = [], [], {}, list(dict.fromkeys(ts))  # mantissa -> {exponent - k -> [...]}
    per_block = (_block_rows(len(X)) if X.dtype in _FLOAT_DTYPES and X.ndim == 2 and 0 < len(X) == X.shape[1]
                 and X.flags.c_contiguous and np.geterr()["under"] == "ignore" else 1)
    for start in range(0, len(times), per_block):
        block = times[start:start + per_block]
        if len(block) > 1 and all(type(t) is float for t in block):
            with np.errstate(all="ignore"):
                P = np.array(block)[:, None, None] * X
                nrm = _MAX(_SUM(np.abs(P), axis=1), axis=1)  # `one_norm` of each slice
            if np.isfinite(nrm).all():  # then so is every entry
                stacks.append((block, nrm))
                continue
        for t in block:
            with np.errstate(over="ignore"):  # an overflowing t * X or 1-norm raises instead
                Y = t * X
                nrm = _scaling_norm(as_matrix(Y))
            if not nrm:
                zeros.append((t, _as_float(Y).dtype))
                continue
            k = _squarings(nrm)
            mantissa, exponent = math.frexp(t)
            families.setdefault(mantissa, {}).setdefault(exponent - k, []).append((k, t, nrm))
    return stacks, zeros, families


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
    scale = _MAX(np.abs(M), axis=None)  # `np.max` without its wrapper: |det| of M / scale is scale-invariant
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
