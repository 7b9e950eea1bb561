"""Matrix Lie group and Lie algebra membership, with closed-form charts.

Membership is tolerance-based: every predicate returns the norm of a
defect (orthogonality defect, |det - 1|, row-sum defect, ...) together
with the boolean decision `residual <= tol`, and, for real nonsingular
input, the connected-component sign of the determinant, read from the
singularity gauge `matcore.det_gauge`.

Real-only groups and algebras fold any imaginary mass into the defect, so
complex matrices are rejected with an informative residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotStochastic, SingularMatrix
from .matcore import as_matrix, det_gauge, frob_norm, is_nonsingular, is_real, memoized


def _imag_mass(M: np.ndarray) -> float:
    return frob_norm(M.imag) if np.iscomplexobj(M) else 0.0


def _orth_defect(M) -> float:
    return frob_norm(M.real.T @ M.real - np.eye(M.shape[0]))


def _unitary_defect(M) -> float:
    return frob_norm(M.conj().T @ M - np.eye(M.shape[0]))


def _det_defect(M) -> float:
    return float(abs(np.linalg.det(M) - 1.0))


def _sum_defect(M, axis, target) -> float:
    return float(np.max(np.abs(M.real.sum(axis=axis) - target)))


def _lorentz11_defect(M, group) -> float:
    A = M.real
    return max(
        float(abs(A[0, 0] - A[1, 1])),
        float(abs(A[0, 1] - A[1, 0])),
        float(abs(A[0, 0] ** 2 - A[0, 1] ** 2 - 1.0)),
        max(0.0, 1.0 - float(A[0, 0])),
    )


def _affine_defect(M, group) -> float:
    n = group.n
    last = np.zeros(n, dtype=M.dtype)
    last[-1] = 1.0
    defect = frob_norm(M[:, -1] - last)
    if n > 1 and not is_nonsingular(M[: n - 1, : n - 1]):
        return math.inf
    return defect


def _rate_defect(X, algebra) -> float:
    A = X.real
    off = A - np.diag(np.diag(A))
    return max(max(0.0, -float(off.min())), _sum_defect(X, 1, 0.0))


def _lor11_defect(X, algebra) -> float:
    A = X.real
    return max(float(abs(A[0, 0])), float(abs(A[1, 1])), float(abs(A[0, 1] - A[1, 0])))


_J11 = np.diag([1.0, -1.0])  # the form preserved by O(1,1)


class _Kind(NamedTuple):
    dim: int | None          # fixed dimension, or None when any n >= 1 is allowed
    real_only: bool          # imaginary mass is folded into the defect
    defect: Callable         # (matrix, Group or Algebra) -> defect norm
    algebra: str | None = None  # groups only: the catalog Lie algebra
    invertible: bool = False    # groups only: a gauge-singular matrix is not a member


_GROUPS = {
    "gl": _Kind(None, False, lambda M, g: 0.0, "gl", invertible=True),
    "sl": _Kind(None, False, lambda M, g: _det_defect(M), "sl"),
    "o": _Kind(None, True, lambda M, g: _orth_defect(M), "so"),
    "so": _Kind(None, True, lambda M, g: max(_orth_defect(M), _det_defect(M.real)), "so"),
    "u": _Kind(None, False, lambda M, g: _unitary_defect(M), "u"),
    "su": _Kind(None, False, lambda M, g: max(_unitary_defect(M), _det_defect(M)), "su"),
    "stochastic": _Kind(None, True, lambda M, g: _sum_defect(M, 1, 1.0), "rate", invertible=True),
    "gds": _Kind(None, True, lambda M, g: max(_sum_defect(M, 1, g.s), _sum_defect(M, 0, g.s)),
                 "omega0", invertible=True),
    "lorentz11": _Kind(2, True, _lorentz11_defect, "lor11"),
    "o11": _Kind(2, True, lambda M, g: frob_norm(M.real.T @ _J11 @ M.real - _J11), "lor11"),
    "heis3": _Kind(3, True, lambda M, g: frob_norm(M.real - (np.triu(M.real, 1) + np.eye(3))), "heis3"),
    "affine": _Kind(None, False, _affine_defect),
}

_ALGEBRAS = {
    "gl": _Kind(None, False, lambda X, a: 0.0),
    "sl": _Kind(None, False, lambda X, a: float(abs(np.trace(X)))),
    "so": _Kind(None, True, lambda X, a: frob_norm(X.real + X.real.T)),
    "u": _Kind(None, False, lambda X, a: frob_norm(X + X.conj().T)),
    "su": _Kind(None, False, lambda X, a: max(frob_norm(X + X.conj().T), float(abs(np.trace(X))))),
    "rate": _Kind(None, True, _rate_defect),
    "omega0": _Kind(None, True, lambda X, a: max(_sum_defect(X, 1, 0.0), _sum_defect(X, 0, 0.0))),
    "heis3": _Kind(3, True, lambda X, a: frob_norm(X.real - np.triu(X.real, 1))),
    "lor11": _Kind(2, True, _lor11_defect),
}


def _validate(ident, table: dict, what: str) -> None:
    row = table.get(ident.kind)
    if row is None:
        raise ValueError(f"unknown {what} kind {ident.kind!r}")
    if row.dim is not None and ident.n != row.dim:
        raise ValueError(f"{what} {ident.kind} has fixed dimension {row.dim}")
    if ident.n < 1:
        raise ValueError(f"{what} dimension must be positive")


def _named_dim(table: dict, name: str, n: int) -> int:
    # the fixed dimension of a catalog kind overrides the requested n
    row = table.get(name)
    return n if row is None or row.dim is None else row.dim


@dataclass(frozen=True)
class Group:
    """Identifier of a matrix Lie group; `s` is the row/column sum for gds."""

    kind: str
    n: int
    s: float = 1.0

    def __post_init__(self):
        _validate(self, _GROUPS, "group")
        object.__setattr__(self, "_hash", hash((self.kind, self.n, self.s)))  # the dataclass hash

    def __hash__(self):  # taken once: every memoized membership hashes its group
        return self._hash

    def __reduce__(self):  # a copy or an unpickled group hashes afresh in its process
        return type(self), (self.kind, self.n, self.s)

    @classmethod
    def gl(cls, n):
        return cls("gl", n)

    @classmethod
    def sl(cls, n):
        return cls("sl", n)

    @classmethod
    def o(cls, n):
        return cls("o", n)

    @classmethod
    def so(cls, n):
        return cls("so", n)

    @classmethod
    def u(cls, n):
        return cls("u", n)

    @classmethod
    def su(cls, n):
        return cls("su", n)

    @classmethod
    def stochastic(cls, n):
        return cls("stochastic", n)

    @classmethod
    def gen_doubly_stochastic(cls, n, s=1.0):
        return cls("gds", n, float(s))

    @classmethod
    def lorentz11(cls):
        return cls("lorentz11", 2)

    @classmethod
    def o11(cls):
        return cls("o11", 2)

    @classmethod
    def heisenberg3(cls):
        return cls("heis3", 3)

    @classmethod
    def affine(cls, n):
        return cls("affine", n)

    @classmethod
    def from_name(cls, name, n, s=1.0):
        name = name.lower()
        if name == "gds":
            return cls.gen_doubly_stochastic(n, s)
        return cls(name, _named_dim(_GROUPS, name, n))


@dataclass(frozen=True)
class Algebra:
    """Identifier of a Lie (sub)algebra from the catalog."""

    kind: str
    n: int

    def __post_init__(self):
        _validate(self, _ALGEBRAS, "algebra")

    @classmethod
    def gl(cls, n):
        return cls("gl", n)

    @classmethod
    def sl(cls, n):
        return cls("sl", n)

    @classmethod
    def so(cls, n):
        return cls("so", n)

    @classmethod
    def u(cls, n):
        return cls("u", n)

    @classmethod
    def su(cls, n):
        return cls("su", n)

    @classmethod
    def rate(cls, n):
        return cls("rate", n)

    @classmethod
    def omega0(cls, n):
        return cls("omega0", n)

    @classmethod
    def heis3(cls):
        return cls("heis3", 3)

    @classmethod
    def lor11(cls):
        return cls("lor11", 2)

    @classmethod
    def from_name(cls, name, n):
        name = name.lower()
        return cls(name, _named_dim(_ALGEBRAS, name, n))


@dataclass(frozen=True)
class MembershipReport:
    belongs: bool
    residual: float
    component: int | None = None


def algebra_of(group: Group) -> Algebra:
    """The catalog Lie algebra whose exponentials land in `group`."""
    if group.kind == "gds" and group.s != 1.0:
        raise ValueError("only the s=1 generalized doubly stochastic group has a catalog algebra")
    algebra = _GROUPS[group.kind].algebra
    if algebra is None:
        raise ValueError(f"no catalog algebra for group kind {group.kind!r}")
    return Algebra(algebra, group.n)


def _residual(M, ident, table: dict, what: str):
    # the validated matrix and its defect norm for a Group or an Algebra
    M = as_matrix(M)
    if M.shape[0] != ident.n:
        raise DimensionMismatch(f"matrix is {M.shape[0]}x{M.shape[0]}, {what} fixes n={ident.n}")
    row = table[ident.kind]
    defect = row.defect(M, ident)
    return M, (max(_imag_mass(M), defect) if row.real_only else defect)


@memoized
def in_group(M, group: Group, tol: float = 1e-9) -> MembershipReport:
    """Membership of M in the group, with the defect norm as residual.

    The singularity gauge runs at most once: when the group needs an
    invertible matrix or M is real, where it also gives the component sign.
    Inside `matcore.memo()` each distinct (M, group, tol) is decided once.
    """
    M, residual = _residual(M, group, _GROUPS, "group")
    invertible = _GROUPS[group.kind].invertible
    gauge = det_gauge(M) if invertible or is_real(M, 0.0) else None
    if invertible and not gauge.nonsingular:
        residual = math.inf
    component = None if gauge is None else gauge.sign or None
    return MembershipReport(bool(residual <= tol), float(residual), component)


def in_algebra(X, algebra: Algebra, tol: float = 1e-9) -> MembershipReport:
    """Membership of X in the Lie algebra, with the defect norm as residual."""
    _, residual = _residual(X, algebra, _ALGEBRAS, "algebra")
    return MembershipReport(bool(residual <= tol), float(residual))


def connected_component_sign(M) -> int:
    """Sign of det(M) for real nonsingular M: which GL_n(R) component it is in."""
    sign = det_gauge(M).sign
    if sign is None:
        raise ValueError("connected components by determinant sign need a real matrix")
    if sign == 0:
        raise SingularMatrix("determinant too close to zero to classify a component")
    return sign


def heisenberg_exp(a: float, b: float, c: float) -> np.ndarray:
    """Exponential of the Heisenberg generator [[0,a,b],[0,0,c],[0,0,0]].

    The generator is nilpotent of index 3, so the series terminates and the
    result is the unitriangular matrix with entries (a, b + a*c/2, c).
    """
    return np.array([
        [1.0, a, b + 0.5 * a * c],
        [0.0, 1.0, c],
        [0.0, 0.0, 1.0],
    ])


def sl2_iwasawa(alpha: float, beta: float, delta: float) -> np.ndarray:
    """Iwasawa-factorized SL2(R) element: rotation, diagonal, unipotent shear.

    The factors are the exponentials of the basis E21 - E12, E11 - E22 and
    E12; the determinant is 1 for every parameter triple.
    """
    ca, sa = math.cos(alpha), math.sin(alpha)
    R = np.array([[ca, -sa], [sa, ca]])
    D = np.diag([math.exp(beta), math.exp(-beta)])
    N = np.array([[1.0, delta], [0.0, 1.0]])
    return R @ D @ N


_O11_FACTORS = {
    1: np.eye(2),
    2: -np.eye(2),
    3: np.diag([1.0, -1.0]),
    4: np.diag([-1.0, 1.0]),
}


def o11_factor(i: int) -> np.ndarray:
    """Coset representative A_i of the i-th connected component of O(1,1)."""
    if i not in _O11_FACTORS:
        raise ValueError("component index must be in 1..4")
    return _O11_FACTORS[i].copy()


def o11_element(i: int, t: float) -> np.ndarray:
    """A_i times the boost [[cosh t, sinh t], [sinh t, cosh t]].

    The four curves occupy the four components of O(1,1), classified by
    the pair (sign of det, sign of the (1,1) entry).
    """
    c, s = math.cosh(t), math.sinh(t)
    return o11_factor(i) @ np.array([[c, s], [s, c]])


def stochastic_affine_embed(M, tol: float = 1e-9) -> np.ndarray:
    """Conjugate a stochastic-group element to its affine normal form.

    Uses the basis (e_1, ..., e_{n-1}, ones): since M maps the all-ones
    vector to itself, the conjugate Q^{-1} M Q has last column e_n.  The
    map is multiplicative, realizing S(n, R) inside the affine pattern.
    Raises NotStochastic when M fails the S(n, R) membership check.
    """
    M = as_matrix(M)
    n = M.shape[0]
    rep = in_group(M, Group.stochastic(n), tol)
    if not rep.belongs:
        raise NotStochastic(f"not in the stochastic group (residual {rep.residual:.3e})")
    Q = np.eye(n)
    Q[:, -1] = 1.0
    return np.linalg.solve(Q, M.real @ Q)
