import math
import tracemalloc

import numpy as np
import pytest

from evolflow import _stepper, curves, lie, matcore
from evolflow.curves import (
    AffineArg,
    AffineLine,
    Constant,
    ExpLine,
    FlipFlop,
    Heisenberg,
    HeisenbergExp,
    Lorentz11,
    MatrixFunction,
    Numeric,
    Poly,
    Sl2Iwasawa,
    So2,
    TangentInduced,
    as_scalar_function,
    check_ode,
    check_one_parameter_subgroup,
    nonsingularity_interval,
    perfectness_profile,
)
from evolflow.errors import DimensionMismatch, HorizonExceeded, NonFiniteInput, SingularMatrix, WrongVariant
from evolflow.matcore import expm, frob_norm
from oracles import per_pair_subgroup_report, taylor_expm

GRID = [-2.0, -1.0, -0.3, 0.0, 0.4, 1.0, 2.0]


def central_diff(curve, t, h=1e-6):
    return (curve.value(t + h) - curve.value(t - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# scalar-function catalog


def test_poly_value_and_derivative():
    f = Poly((1.0, -2.0, 3.0))  # 1 - 2t + 3t^2
    assert f.value(2.0) == 1.0 - 4.0 + 12.0
    assert f.derivative(2.0) == -2.0 + 12.0


@pytest.mark.parametrize("kind,fn", [
    ("sin", math.sin), ("cos", math.cos), ("exp", math.exp),
    ("cosh", math.cosh), ("sinh", math.sinh),
])
def test_affine_arg_values(kind, fn):
    f = AffineArg(kind, scale=0.7, shift=-0.2)
    for t in (-1.0, 0.0, 2.5):
        assert f.value(t) == pytest.approx(fn(0.7 * t - 0.2), rel=1e-15)
        h = 1e-6
        fd = (f.value(t + h) - f.value(t - h)) / (2 * h)
        assert f.derivative(t) == pytest.approx(fd, abs=1e-8)


def test_scalar_coercion():
    assert as_scalar_function(2.5).value(10.0) == 2.5
    with pytest.raises(TypeError):
        as_scalar_function("nope")


# ---------------------------------------------------------------------------
# variant evaluation and derivatives


def test_constant_curve():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    c = Constant(A)
    for t in GRID:
        assert np.array_equal(c.value(t), A)
        assert np.array_equal(c.derivative(t), np.zeros((2, 2)))


def test_affine_line():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    c = AffineLine(A)
    assert np.array_equal(c.value(2.0), np.array([[1.0, 2.0], [0.0, 1.0]]))
    for t in GRID:
        assert np.array_equal(c.derivative(t), A)


def test_exp_line_derivative_identity():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(3, 3))
    c = ExpLine(np.eye(3), X)
    for t in (-1.0, 0.5, 2.0):
        assert frob_norm(c.derivative(t) - expm(t * X) @ X) <= 1e-12


def test_velocity_at_origin():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(4, 4))
    assert np.allclose(ExpLine(np.eye(4), X).velocity_at_origin(), X, atol=1e-14)
    lam = 0.8
    assert np.allclose(
        FlipFlop(lam).velocity_at_origin(),
        np.array([[-lam, lam], [lam, -lam]]),
        atol=1e-15,
    )
    assert np.array_equal(So2().velocity_at_origin(), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_so2_quarter_turn():
    assert np.allclose(So2().value(math.pi / 2), np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-12)


def test_so2_matches_exponential():
    X = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for t in GRID:
        assert frob_norm(So2().value(t) - expm(t * X)) <= 1e-13


def test_lorentz_boost_value():
    c = Lorentz11(1)
    for t in (0.0, -1.2, 2.0):
        b = np.array([[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]])
        assert np.allclose(c.value(t), b, atol=1e-14)


def test_flip_flop_closed_form_at_one():
    A = FlipFlop(1.0).value(1.0)
    e2 = math.exp(-2.0)
    expected = 0.5 * np.array([[1.0 + e2, 1.0 - e2], [1.0 - e2, 1.0 + e2]])
    assert np.allclose(A, expected, atol=1e-15)
    assert A[0, 0] == pytest.approx(0.5676676416183064)
    assert A[0, 1] == pytest.approx(0.43233235838169365)


def test_derivatives_match_central_differences():
    rng = np.random.default_rng(43)
    cs = [
        ExpLine(np.eye(3) + 0.2 * rng.normal(size=(3, 3)), 0.7 * rng.normal(size=(3, 3))),
        So2(),
        Lorentz11(3),
        FlipFlop(1.3),
        Heisenberg(AffineArg("sin"), Poly((0.0, 1.0, 0.5)), AffineArg("cosh", 0.5)),
        HeisenbergExp(Poly((1.0, 2.0)), AffineArg("exp", 0.3), Poly((0.5, 0.0, 1.0))),
        Sl2Iwasawa(AffineArg("sin", 0.8), Poly((0.0, 0.4)), AffineArg("cos")),
    ]
    for c in cs:
        for t in (-1.1, 0.0, 0.9):
            assert frob_norm(c.derivative(t) - central_diff(c, t)) <= 1e-7


def test_heisenberg_exp_equals_shifted_heisenberg():
    # constant parameters: exp-coordinates equal group coordinates with b + ac/2
    a, b, c = 1.3, -0.4, 2.2
    lhs = HeisenbergExp(a, b, c)
    rhs = Heisenberg(a, b + 0.5 * a * c, c)
    for t in GRID:
        assert np.array_equal(lhs.value(t), rhs.value(t))


def test_tangent_induced_contract():
    rng = np.random.default_rng(44)
    B = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
    V = rng.normal(size=(3, 3))
    c = TangentInduced(B, V)
    assert np.array_equal(c.value(0.0), B)
    assert frob_norm(c.derivative(0.0) - V) <= 1e-10
    with pytest.raises(SingularMatrix):
        TangentInduced(np.ones((2, 2)), V[:2, :2])


def test_tangent_induced_is_the_exp_line_through_b():
    rng = np.random.default_rng(49)
    B = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
    V = rng.normal(size=(2, 2))
    c = TangentInduced(B, V)
    assert isinstance(c, ExpLine)
    assert np.array_equal(c.B, B) and np.array_equal(c.V, V)
    line = ExpLine(B, np.linalg.solve(B, np.eye(2)) @ V)
    for t in GRID:
        assert np.array_equal(c.value(t), line.value(t))
        assert np.array_equal(c.derivative(t), line.derivative(t))


def test_exp_line_group_action():
    rng = np.random.default_rng(45)
    A0 = np.eye(3) + 0.4 * rng.normal(size=(3, 3))
    X = rng.normal(size=(3, 3))
    c = ExpLine(A0, X)
    for s in (-1.0, 0.3, 1.2):
        for t in (-0.7, 0.5, 1.5):
            assert frob_norm(c.value(s + t) - c.value(s) @ expm(t * X)) <= 1e-9


# ---------------------------------------------------------------------------
# nonsingularity interval


def test_nonsingularity_interval_nilpotent():
    assert nonsingularity_interval(AffineLine(np.array([[0.0, 1.0], [0.0, 0.0]]))) == math.inf


def test_nonsingularity_interval_diagonal():
    r = nonsingularity_interval(AffineLine(np.diag([2.0, -1.0])))
    assert r == pytest.approx(0.5, abs=1e-5)
    assert nonsingularity_interval(AffineLine(np.eye(3))) == pytest.approx(1.0, abs=1e-12)


def test_nonsingularity_interval_wrong_variant():
    with pytest.raises(WrongVariant):
        nonsingularity_interval(So2())


# ---------------------------------------------------------------------------
# curve checks


def test_subgroup_check_passes_for_exp_line():
    rng = np.random.default_rng(46)
    X = rng.normal(size=(3, 3))
    rep = check_one_parameter_subgroup(ExpLine(np.eye(3), X), [-2.0, -1.0, 0.5, 1.0, 2.0])
    assert rep.passed
    assert rep.homomorphism_residual <= 1e-9


def _plain_subgroup_report(curve, grid, tol=1e-9):
    # the check's formula, evaluated call by call outside any memo
    id_res = frob_norm(curve.value(0.0) - np.eye(curve.n))
    hom = max(frob_norm(curve.value(s + t) - curve.value(s) @ curve.value(t))
              for s in grid for t in grid)
    return (id_res <= tol and hom <= tol, id_res, hom, tol)


@pytest.mark.parametrize("curve", [
    ExpLine(np.eye(3), 0.5 * np.random.default_rng(47).normal(size=(3, 3))),
    ExpLine(np.eye(2), np.array([[0.2 + 0.3j, -0.5j], [0.4, -0.1 + 0.2j]])),
    TangentInduced(np.array([[1.0, 0.2], [-0.1, 0.9]]), np.array([[0.3, 1.0], [-0.4, 0.2]])),
    AffineLine(np.array([[0.0, 1.0], [-1.0, 0.0]])),
], ids=["real", "complex", "tangent", "affine"])
def test_subgroup_report_equals_a_plain_loop(curve):
    grid = [float(t) for t in np.linspace(-2.0, 2.0, 9)] + [0.5, -0.0]
    assert tuple(check_one_parameter_subgroup(curve, grid)) == _plain_subgroup_report(curve, grid)


def test_subgroup_check_solves_once_per_distinct_argument(monkeypatch, pade):
    # the call structure stays G^2 + G + 1 expm calls; one Padé approximant
    # row is computed per distinct nonzero argument t X (||t X|| <= 4 needs
    # no scaling), whether stacked or not
    expm_args = []

    def counted_expm(X):
        expm_args.append(np.array(X))
        return expm(X)

    monkeypatch.setattr("evolflow.curves.expm", counted_expm)
    grid = np.linspace(-2.0, 2.0, 41)
    rep = check_one_parameter_subgroup(ExpLine(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])), grid)
    assert rep.passed
    G = len(grid)
    assert len(expm_args) == G * G + G + 1
    distinct = {X.tobytes() for X in expm_args if np.any(X != 0.0)}
    assert len(distinct) < G * G / 5
    assert len(pade) == len(distinct)
    assert set(pade) == distinct


@pytest.mark.parametrize("curve", [
    ExpLine(np.eye(3), 3.0 * np.random.default_rng(48).normal(size=(3, 3))),
    ExpLine(np.eye(2), np.array([[0.2 + 0.3j, -0.5j], [0.4, -0.1 + 0.2j]])),
    TangentInduced(np.array([[1.0, 0.2], [-0.1, 0.9]]), np.array([[0.3, 1.0], [-0.4, 0.2]])),
], ids=["real", "complex", "tangent"])
def test_subgroup_check_computes_no_approximant_after_the_preload(monkeypatch, pade, curve):
    # every pinned expm call is a memo hit on a preloaded value, also through
    # a binding of `curves.expm` that wraps the memoized expm
    rows_after_preload, calls = [], []

    def preload(X, ts):
        matcore.preload_expm(X, ts)
        rows_after_preload.append(len(pade))

    def wrapped(X):
        calls.append(1)
        return expm(X)

    monkeypatch.setattr("evolflow.curves.preload_expm", preload)
    monkeypatch.setattr("evolflow.curves.expm", wrapped)
    grid = [float(t) for t in np.linspace(-2.0, 2.0, 9)] + [0.5, -0.0]
    rep = check_one_parameter_subgroup(curve, grid)
    G = len(grid)
    assert len(calls) == G * G + G + 1
    assert len(rows_after_preload) == 1 and len(pade) == rows_after_preload[0] > 0
    monkeypatch.undo()
    assert tuple(rep) == _plain_subgroup_report(curve, grid)


@pytest.mark.parametrize("quiet", [False, True], ids=["pytest-errors", "errstate-ignore"])
def test_subgroup_check_raises_as_a_plain_loop_on_an_overflowing_time(quiet):
    curve = ExpLine(np.eye(2), np.array([[0.0, 1e10], [2.0, 0.0]]))
    grid = [0.5, 1e300, 1.0]
    with np.errstate(all="ignore") if quiet else np.errstate():
        with pytest.raises(Exception) as want:
            _plain_subgroup_report(curve, grid)
        with pytest.raises(want.type) as got:
            check_one_parameter_subgroup(curve, grid)
    assert str(got.value) == str(want.value)
    assert want.type is (NonFiniteInput if quiet else RuntimeWarning)


# exp(2X) overflows to [[inf, 0], [nan, 0]]: a NaN residual must fail, not vanish
OVERFLOW_GEN = np.diag([500.0, -500.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_subgroup_check_fails_on_a_nan_residual():
    rep = check_one_parameter_subgroup(ExpLine(np.eye(2), OVERFLOW_GEN), [0.0, 1.0])
    assert not rep.passed
    assert math.isnan(rep.homomorphism_residual)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ode_check_fails_on_a_nan_residual():
    rep = check_ode(ExpLine(np.eye(2), OVERFLOW_GEN), OVERFLOW_GEN, [0.0, 2.0])
    assert not rep.passed
    assert math.isnan(rep.max_residual)


def test_subgroup_check_fails_off_identity_start():
    A0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = check_one_parameter_subgroup(ExpLine(A0, np.eye(2)), [0.5, 1.0])
    assert not rep.passed
    assert rep.identity_residual == pytest.approx(2.0)


def test_subgroup_check_fails_for_affine_line():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # A^2 = -I != 0
    rep = check_one_parameter_subgroup(AffineLine(A), [0.5, 1.0])
    assert not rep.passed
    # the defect of (I+sA)(I+tA) against I+(s+t)A is exactly st*A^2
    assert rep.homomorphism_residual == pytest.approx(frob_norm(np.eye(2)), rel=1e-12)


class _Recorded(curves.Curve):
    # a curve whose values `fn(t)` gives, recording the times it is asked for
    def __init__(self, fn, n):
        self.fn, self._n, self.times = fn, n, []

    @property
    def n(self):
        return self._n

    def value(self, t):
        self.times.append(t)
        return self.fn(t)


def _rotation_or(other, at):
    # So2's value, or other(value) at the times of `at`
    return lambda t: other(So2().value(t)) if t in at else So2().value(t)


_X24 = np.random.default_rng(49).normal(size=(24, 24)) / 24.0
# sums of these points repeat and hit 1.0 and 2.5; the grid has 0.0 and -0.0
_SUBGROUP_GRID = [0.5, -0.0, 1.25, 0.0, 0.5, -1.0, 1.0, 2.0]
_SUBGROUP_CURVES = {
    "exp": lambda: ExpLine(np.eye(3), 0.5 * np.random.default_rng(47).normal(size=(3, 3))),
    "exp-complex": lambda: ExpLine(np.eye(2), np.array([[0.2 + 0.3j, -0.5j], [0.4, -0.1 + 0.2j]])),
    "exp-24": lambda: ExpLine(np.eye(24), _X24),
    "tangent": lambda: TangentInduced(np.array([[1.0, 0.2], [-0.1, 0.9]]), np.array([[0.3, 1.0], [-0.4, 0.2]])),
    "affine": lambda: AffineLine(np.array([[0.0, 1.0], [-1.0, 0.0]])),
    "so2": So2,
    "numeric": lambda: Numeric(np.eye(2), lambda t: math.cos(t) * np.array([[0.0, 1.0], [-1.0, 0.0]]),
                               h=0.01, horizon=4.0),
    # a value of another dtype: the chunk that holds it goes pair by pair
    "complex-sum": lambda: _Recorded(_rotation_or(lambda A: A + 0j, {2.5}), 2),
    # a grid value of another dtype: the grid values are multiplied pair by pair
    "complex-grid-value": lambda: _Recorded(_rotation_or(lambda A: A + 0j, {1.25}), 2),
    # values in column order, for which a C-ordered stack's products round apart
    "fortran-24": lambda: _Recorded(lambda t: np.asfortranarray(expm(t * _X24)), 24),
    "nan-sum": lambda: _Recorded(_rotation_or(lambda A: A * np.nan, {1.0}), 2),
    # equal grid times share the value computed last: here -0.0 takes A(0.0)
    "signed-zero": lambda: _Recorded(lambda t: So2().value(t) + 1e-3 * (str(t) == "-0.0"), 2),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("chunk", [None, 1, 7], ids=["one-chunk", "pair-chunks", "seven-pair-chunks"])
@pytest.mark.parametrize("name", sorted(_SUBGROUP_CURVES))
def test_stacked_subgroup_stage_equals_the_per_pair_reference(monkeypatch, name, chunk):
    make = _SUBGROUP_CURVES[name]
    want, got = make(), make()
    ref = per_pair_subgroup_report(want, _SUBGROUP_GRID)
    if chunk is not None:  # chunks of 1 and 7 pairs, which cut across the grid's rows
        monkeypatch.setattr(_stepper, "CHUNK_ENTRIES", chunk * got.n ** 2)
    rep = check_one_parameter_subgroup(got, _SUBGROUP_GRID)
    assert repr(rep) == repr(ref)
    # the tangent curve starts at B != I; the numeric curve's generator varies in time
    assert rep.passed is (name in ("exp", "exp-complex", "exp-24", "so2", "complex-sum",
                                   "complex-grid-value", "fortran-24"))
    if isinstance(got, _Recorded):  # the same value calls in the same order
        assert got.times == want.times
    if name == "nan-sum":
        assert math.isnan(rep.homomorphism_residual)


def test_subgroup_stage_stacks_only_values_of_one_dtype_and_layout(monkeypatch):
    stacks = []
    norms = matcore.frob_norms

    def counted(M):
        stacks.append(M.shape[0])
        return norms(M)

    monkeypatch.setattr(matcore, "frob_norms", counted)  # the stage `frob_residuals` takes
    G = len(_SUBGROUP_GRID)
    check_one_parameter_subgroup(So2(), _SUBGROUP_GRID)
    assert stacks == [G * G]  # one chunk
    monkeypatch.setattr(_stepper, "CHUNK_ENTRIES", 7 * 4)
    stacks.clear()
    check_one_parameter_subgroup(So2(), _SUBGROUP_GRID)
    assert G * G % 7 == 1 and stacks == [7] * (G * G // 7)  # the last pair alone has nothing to stack
    stacks.clear()
    check_one_parameter_subgroup(_SUBGROUP_CURVES["complex-sum"](), _SUBGROUP_GRID)
    # 0.5 + 2.0 and 1.25 + 1.25 give 2.5 in row 0 and 2: those chunks go pair by pair
    sums = [s + t for s in _SUBGROUP_GRID for t in _SUBGROUP_GRID]
    mixed = {i // 7 for i, u in enumerate(sums) if u == 2.5}
    assert len(stacks) == G * G // 7 - len(mixed) and len(mixed) >= 2 and G * G // 7 not in mixed
    stacks.clear()
    check_one_parameter_subgroup(_SUBGROUP_CURVES["complex-grid-value"](), _SUBGROUP_GRID)
    # the grid is multiplied pair by pair; a chunk of several pairs that all
    # avoid the complex value at 1.25 (index 2) has real products and sums, and stacks
    pairs = [divmod(i, G) for i in range(G * G)]
    real = [len(chunk) for chunk in (pairs[k:k + 7] for k in range(0, G * G, 7))
            if len(chunk) > 1 and all(2 not in pair for pair in chunk)]
    assert stacks == real == [7]
    stacks.clear()
    check_one_parameter_subgroup(_SUBGROUP_CURVES["fortran-24"](), _SUBGROUP_GRID)
    assert stacks == []  # values in column order never stack


def test_subgroup_stage_holds_a_chunk_at_a_time():
    # unchunked, the 1681 pairs of 64 x 64 values would take 55 MB a stack; the
    # check holds the grid values' stack and a few chunk buffers beyond what a
    # pair-by-pair fold of the same memo and preload holds
    curve = ExpLine(np.eye(64), np.random.default_rng(50).normal(size=(64, 64)) / 64.0)
    grid = np.linspace(-2.0, 2.0, 41)
    peaks = []
    for check in (per_pair_subgroup_report, check_one_parameter_subgroup):
        tracemalloc.start()
        try:
            rep = check(curve, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rep.passed
    chunk_bytes = _stepper.CHUNK_ENTRIES * 8
    assert peaks[1] <= peaks[0] + 6 * chunk_bytes
    assert peaks[1] - peaks[0] < len(grid) ** 2 * 64 * 64 * 8 / 10


def test_ode_check():
    rng = np.random.default_rng(47)
    X = rng.normal(size=(2, 2))
    assert check_ode(ExpLine(np.eye(2) + 0.1 * rng.normal(size=(2, 2)), X), X, GRID).passed
    lam = 0.9
    Q = np.array([[-lam, lam], [lam, -lam]])
    rep = check_ode(FlipFlop(lam), Q, GRID)
    assert rep.passed and rep.max_residual <= 1e-9
    bad = check_ode(Constant(np.eye(2)), np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0])
    assert not bad.passed


def test_ode_check_rejects_generator_of_another_size():
    with pytest.raises(DimensionMismatch):
        check_ode(So2(), np.eye(3), GRID)


@pytest.mark.parametrize("check", [
    lambda grid: check_ode(So2(), np.array([[0.0, 1.0], [-1.0, 0.0]]), grid),
    lambda grid: perfectness_profile(So2(), grid),
    lambda grid: check_one_parameter_subgroup(So2(), grid),
], ids=["ode", "perfectness", "subgroup"])
@pytest.mark.parametrize("grid", [[], iter(())], ids=["list", "iterator"])
def test_curve_checks_refuse_an_empty_grid(check, grid):
    # over no points the ODE check passed and the profile called its signs not constant
    with pytest.raises(ValueError, match="grid must be nonempty"):
        check(grid)


def test_perfectness_profile_signs():
    rng = np.random.default_rng(48)
    X = 0.5 * rng.normal(size=(3, 3))
    grid = np.linspace(-2.0, 2.0, 21)
    pos = perfectness_profile(ExpLine(np.eye(3), X), grid)
    assert pos.passed and pos.sign_constant
    assert all(s.sign == 1 for s in pos.samples)
    flip = perfectness_profile(ExpLine(np.array([[0.0, 1.0], [1.0, 0.0]]), X[:2, :2]), grid)
    assert flip.all_perfect and all(s.sign == -1 for s in flip.samples)
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    degenerate = perfectness_profile(ExpLine(singular, X[:2, :2]), grid)
    assert not degenerate.all_perfect and not degenerate.passed
    assert all(s.scaled_abs_det <= 1e-10 and s.sign == 0 for s in degenerate.samples)


@pytest.mark.parametrize("M, sign", [
    (0.01 * np.eye(200), 1),
    (1e-110 * np.eye(3), 1),
    (-1e-110 * np.eye(3), -1),
])
def test_perfectness_sign_of_slices_whose_determinant_underflows(M, sign):
    prof = perfectness_profile(Constant(M), [0.0, 1.0])
    assert prof.all_perfect and prof.sign_constant and prof.passed
    assert all(s.sign == sign for s in prof.samples)


def test_perfectness_sign_is_none_for_complex_slices():
    prof = perfectness_profile(Constant(np.eye(2) * 1j), [0.0])
    assert prof.samples[0].sign is None and prof.sign_constant is None and prof.passed


# ---------------------------------------------------------------------------
# numeric curves


def flip_flop_gen(lam=1.0):
    Q = np.array([[-lam, lam], [lam, -lam]])
    return MatrixFunction([(1.0, Q)]), Q


def test_numeric_constant_generator_matches_exponential():
    mf, Q = flip_flop_gen()
    c = Numeric(np.eye(2), mf, h=1e-3, horizon=2.0)
    for t in (-2.0, -0.37, 0.0, 0.51, 1.0, 2.0):
        assert frob_norm(c.value(t) - taylor_expm(t * Q)) <= 1e-10


def test_numeric_time_dependent_generator():
    _, Q = flip_flop_gen()
    mf = MatrixFunction([(AffineArg("cos"), Q)])
    c = Numeric(np.eye(2), mf, h=1e-3, horizon=2.0)
    # X(t) commutes with its integral sin(t) Q, so A(t) = exp(sin(t) Q)
    for t in (-1.5, 0.7, 2.0):
        assert frob_norm(c.value(t) - taylor_expm(math.sin(t) * Q)) <= 1e-8


def test_numeric_derivative_is_central_difference():
    mf, Q = flip_flop_gen()
    c = Numeric(np.eye(2), mf, h=1e-3, horizon=2.0)
    for t in (-1.0, 0.25, 1.4):
        assert frob_norm(c.derivative(t) - c.value(t) @ Q) <= 1e-8


@pytest.mark.parametrize("h, horizon", [(1e-3, 2.0), (0.03, 1.0), (0.3, 1.0)])
def test_numeric_nodes_sit_exactly_at_multiples_of_h(h, horizon):
    mf, _ = flip_flop_gen()
    ts = Numeric(np.eye(2), mf, h=h, horizon=horizon)._ts
    assert ts[0] == -horizon and ts[-1] == horizon
    assert np.array_equal(ts, -ts[::-1])
    for t in ts[1:-1]:
        k = round(abs(t) / h)
        assert t == math.copysign(k * h, t)
    assert np.all(np.diff(ts) <= h * (1.0 + 1e-12))


def test_numeric_horizon_errors():
    mf, _ = flip_flop_gen()
    c = Numeric(np.eye(2), mf, h=1e-2, horizon=1.0)
    with pytest.raises(HorizonExceeded):
        c.value(1.5)
    with pytest.raises(HorizonExceeded):
        c.derivative(1.0)  # t + fd step leaves the horizon


@pytest.mark.parametrize("generator", [lambda t: np.zeros((2, 2)), flip_flop_gen()[0]])
def test_numeric_value_at_nan_is_outside_the_horizon(generator):
    c = Numeric(np.eye(2), generator, h=1e-2, horizon=1.0)
    with pytest.raises(HorizonExceeded, match=r"^t=nan outside"):
        c.value(math.nan)


def test_sl2_iwasawa_curve_hits_lie_chart():
    c = Sl2Iwasawa(AffineArg("sin"), Poly((0.0, 1.0)), Poly((0.0, 0.0, 1.0)))
    for t in (-1.0, 0.3, 2.0):
        expected = lie.sl2_iwasawa(math.sin(t), t, t * t)
        assert np.array_equal(c.value(t), expected)
        assert abs(np.linalg.det(c.value(t)) - 1.0) <= 1e-12


def test_lorentz_component_curves_match_lie_elements():
    for i in (1, 2, 3, 4):
        c = Lorentz11(i)
        for t in (-2.0, 0.0, 1.5):
            assert np.array_equal(c.value(t), lie.o11_element(i, t))
