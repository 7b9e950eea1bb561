import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from evolflow.curves import ExpLine
from evolflow import _stepper, matcore
from evolflow.errors import (
    CommutatorTooLarge,
    DimensionMismatch,
    NonFiniteGenerator,
    NonFiniteInput,
    NotInAlgebra,
    NotInGroup,
)
from evolflow.flows import (
    Flow,
    MAX_STEPS,
    IntegratorConfig,
    base_point,
    commuting_magnus,
    flow_apply,
    flow_axioms,
    flow_line,
    integrate_right,
    march,
)
from evolflow.lie import Group, in_group
from evolflow.markov import flip_flop_rate, random_rate_matrix
from evolflow.matcore import expm, frob_norm
from oracles import per_pair_flow_axioms, per_step_march

SO2_GEN = np.array([[0.0, 1.0], [-1.0, 0.0]])


def so3_generator(rng, scale=1.0):
    S = rng.normal(size=(3, 3))
    return scale * 0.5 * (S - S.T)


# ---------------------------------------------------------------------------
# flows


def test_flow_requires_generator_in_algebra():
    Flow(SO2_GEN, Group.so(2))
    with pytest.raises(NotInAlgebra):
        Flow(np.eye(2), Group.so(2))


def test_flow_apply_at_zero_is_base():
    f = Flow(SO2_GEN, Group.so(2))
    A = expm(0.3 * SO2_GEN)
    assert np.array_equal(flow_apply(f, 0.0, A), A)


def test_flow_apply_rotation():
    f = Flow(SO2_GEN, Group.so(2))
    out = flow_apply(f, math.pi / 2, np.eye(2))
    assert np.allclose(out, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-12)


def test_flow_apply_rejects_outside_base():
    f = Flow(SO2_GEN, Group.so(2))
    with pytest.raises(NotInGroup):
        flow_apply(f, 1.0, 2.0 * np.eye(2))


def test_flow_on_o11_stays_in_component():
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = Flow(X, Group.o11())
    A = np.diag([-1.0, 1.0])
    for t in np.linspace(-3.0, 3.0, 13):
        M = flow_apply(f, t, A)
        assert np.linalg.det(M) == pytest.approx(-1.0, abs=1e-10)
        assert M[0, 0] < 0.0


def test_flow_axioms_pass():
    rng = np.random.default_rng(71)
    f = Flow(so3_generator(rng), Group.so(3))
    bases = [expm(so3_generator(rng)) for _ in range(3)]
    rep = flow_axioms(f, bases, [-1.5, -0.5, 0.0, 0.7, 1.3])
    assert rep.passed
    assert rep.identity_residual == 0.0
    assert rep.composition_residual <= 1e-9


def _plain_flow_axioms(flow, bases, grid, tol=1e-9):
    # the check's formula, one flow_apply after another outside any memo
    ident = max(frob_norm(flow_apply(flow, 0.0, A, tol) - A) for A in bases)
    comp = max(frob_norm(flow_apply(flow, s, flow_apply(flow, t, A, tol), tol)
                         - flow_apply(flow, s + t, A, tol))
               for A in bases for s in grid for t in grid)
    return (ident <= tol and comp <= tol, ident, comp, tol)


def _unitary(rng, n):
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return Q * (np.diag(R) / abs(np.diag(R)))


def test_flow_axioms_report_equals_a_plain_loop():
    rng = np.random.default_rng(72)
    grid = [float(t) for t in np.linspace(-1.5, 1.5, 7)] + [0.25]
    H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    cases = [
        (Flow(so3_generator(rng), Group.so(3)), [expm(so3_generator(rng)) for _ in range(2)]),
        (Flow(0.3 * (H - H.conj().T), Group.u(2)), [_unitary(rng, 2), _unitary(rng, 2)]),
        (Flow(random_rate_matrix(3, 5).Q, Group.stochastic(3)), [np.eye(3), expm(random_rate_matrix(3, 6).Q)]),
    ]
    for flow, bases in cases:
        assert tuple(flow_axioms(flow, bases, grid)) == _plain_flow_axioms(flow, bases, grid)


def _outcome(fn):
    # the result's dtype, shape, strides and bytes, or the error's type and message
    try:
        M = fn()
    except Exception as exc:  # the comparison covers whatever is raised
        return type(exc), str(exc)
    return M.dtype, M.shape, M.strides, M.tobytes()


_ROT2 = Flow(SO2_GEN, Group.so(2))
_BAD_BASES = {
    "non-square": (np.ones((2, 3)), DimensionMismatch, "base point must be square, got shape (2, 3)"),
    "vector": (np.ones(2), DimensionMismatch, "base point must be square, got shape (2,)"),
    "nan": (np.array([[np.nan, 0.0], [0.0, 1.0]]), NonFiniteInput, "base point has non-finite entries"),
    "inf": (np.array([[1.0, 0.0], [0.0, -np.inf]]), NonFiniteInput, "base point has non-finite entries"),
    "wrong-n": (np.eye(3), DimensionMismatch, "matrix is 3x3, group fixes n=2"),
    "non-member": (2.0 * np.eye(2), NotInGroup,
                   f"base point fails so membership (residual {in_group(2.0 * np.eye(2), Group.so(2)).residual:.3e})"),
}
_BASE_USES = {
    "base_point": lambda A: base_point(_ROT2, A),
    "flow_apply": lambda A: flow_apply(_ROT2, 0.5, A),
    "flow_line": lambda A: flow_line(_ROT2, A, [0.5]),
    "flow_axioms": lambda A: flow_axioms(_ROT2, [A], [0.5]),
}


@pytest.mark.parametrize("use", sorted(_BASE_USES))
@pytest.mark.parametrize("bad", sorted(_BAD_BASES))
def test_base_point_errors_name_the_base_point_in_and_out_of_a_memo(bad, use):
    # the membership probe validates a base point first; its errors are still the base point's
    A, kind, message = _BAD_BASES[bad]
    with pytest.raises(kind) as got:
        _BASE_USES[use](A)
    assert str(got.value) == message
    with matcore.memo(_ROT2.X, [0.5]):
        flow_apply(_ROT2, 0.5, np.eye(2))  # a table with entries in it
        for _ in range(2):  # a failed probe stores nothing, so the second fails alike
            with pytest.raises(kind) as got:
                _BASE_USES[use](A)
            assert str(got.value) == message


@pytest.mark.parametrize("A", [
    np.eye(2, dtype=int), [[1.0, 0.0], [0.0, 1.0]], np.asfortranarray(expm(0.3 * SO2_GEN)),
    expm(0.3 * SO2_GEN).T, np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32),
    np.eye(2) + 0j, np.zeros((4, 4))[::2, ::2] + np.eye(2), np.full((2, 2), -0.0) + np.eye(2),
], ids=["int", "list", "fortran", "transposed", "float32", "complex", "strided", "signed-zeros"])
def test_base_point_coerces_as_as_matrix_does(A):
    want = _outcome(lambda: matcore.as_matrix(A, name="base point"))
    f = Flow(SO2_GEN, Group.gl(2))
    assert _outcome(lambda: base_point(f, A)) == want
    with matcore.memo(f.X, []):
        for _ in range(2):  # a miss, then a hit on the probe
            assert _outcome(lambda: base_point(f, A)) == want


def test_flow_apply_is_the_product_at_operator_for_every_layout():
    # ndarray.dot rounds as @ on C- and F-contiguous operands; a transposed
    # sub-block (neither) takes @, which rounds differently from n = 20 or so
    rng = np.random.default_rng(73)
    for n, X in ((n, c * rng.normal(size=(n, n)) / n) for n in (20, 33) for c in (1.0, 1.0 + 0.5j)):
        f = Flow(X, Group.gl(n))
        big = np.eye(2 * n) + 0.1 * rng.normal(size=(2 * n, 2 * n))
        for A in (big[:n, :n], np.ascontiguousarray(big[:n, :n]), np.asfortranarray(big[:n, :n]),
                  big[:n, :n].T, big[::2, ::2], big[::-2, ::2]):
            want = matcore.as_matrix(A) @ expm(0.7 * X)
            assert flow_apply(f, 0.7, A).tobytes() == want.tobytes()
            assert ExpLine(A, X).value(0.7).tobytes() == want.tobytes()



# 1 x 1 entries and generators whose products have a signed zero or underflow
_TINY = [-0.0, 0.0, -5e-324, 5e-324, -1e-200, 1e-200, -1.0, 2.0]
_ONE_BY_ONE_X = [-0.0, 1.0, -460.0, 0.25]


@pytest.mark.parametrize("a", _TINY)
@pytest.mark.parametrize("x", _ONE_BY_ONE_X)
def test_one_by_one_products_are_the_product_at_operator(a, x):
    # a 1 x 1 `ndarray.dot` is a scalar product, which keeps a -0.0 that `@`'s gemm sums to +0.0
    # (-0.0 * 1.0, or -1e-200 * 1e-200 underflowing): flow_apply, ExpLine.value and march's fold
    # take `@`'s bits there
    A0, X = np.array([[a]]), np.array([[x]])
    for t in (0.5, 1.0):
        want = A0 @ expm(t * X)
        assert ExpLine(A0, X).value(t).tobytes() == want.tobytes()
        if a != 0.0:  # a base point of GL(1)
            assert flow_apply(Flow(X, Group.gl(1)), t, A0).tobytes() == want.tobytes()
    fun = lambda t: X  # noqa: E731
    ts, ms = march(fun, A0, 0.1, 0.3, 1.0)
    want_ts, want_ms = per_step_march(fun, A0, 0.1, 0.3, 1.0)
    assert ts == want_ts
    assert np.stack(ms).tobytes() == np.stack(want_ms).tobytes()


def test_a_one_by_one_unitary_flow_is_the_product_at_operator():
    # (-0.0 + 1j) (1 + 0j) is -0.0 + 1j as a scalar product, 0.0 + 1j from `@`
    f, A = Flow(np.array([[0.5j]]), Group.u(1)), np.array([[complex(-0.0, 1.0)]])
    for t in (0.0, 0.5):
        want = A @ expm(t * f.X)
        assert flow_apply(f, t, A).tobytes() == want.tobytes()
        assert ExpLine(A, f.X).value(t).tobytes() == want.tobytes()
    assert str(flow_apply(f, 0.0, A)[0, 0]) == "1j"

def _sl2(rng):
    M = rng.normal(size=(2, 2))
    M[0] *= np.sign(np.linalg.det(M))
    return M / math.sqrt(np.linalg.det(M))


def _flow_cases():
    # the benchmark's so/rate/sl2/heis3 mix, with several bases a flow (C,
    # transposed and F-ordered ones among them), a complex base, and one
    # base whose residual is NaN: 1e308 exp(tI) is finite at t <= 1/2, and
    # exp(I / 2) (1e308 exp(I / 2)) and 1e308 exp(I) overflow alike to inf
    rng = np.random.default_rng(75)
    sl = 0.5 * rng.normal(size=(2, 2))
    grid = [float(t) for t in np.linspace(-1.5, 1.5, 7)] + [0.25, -0.0]
    return {
        "so": (Flow(so3_generator(rng), Group.so(3)), [expm(so3_generator(rng)), expm(so3_generator(rng)).T], grid),
        "rate": (Flow(0.25 * random_rate_matrix(4, 8).Q, Group.stochastic(4)),
                 [np.eye(4), expm(random_rate_matrix(4, 9).Q)], grid),
        "sl2": (Flow(sl - np.trace(sl) / 2.0 * np.eye(2), Group.sl(2)),
                [_sl2(rng), np.asfortranarray(_sl2(rng))], grid),
        "heis3": (Flow(np.triu(rng.normal(size=(3, 3)), 1), Group.heisenberg3()),
                  [np.eye(3) + np.triu(rng.normal(size=(3, 3)), 1)], grid),
        "gl-complex-base": (Flow(0.3 * rng.normal(size=(3, 3)), Group.gl(3)),
                            [np.eye(3) + 0.2 * rng.normal(size=(3, 3)),
                             expm(0.2 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))))], grid),
        "nan": (Flow(np.eye(2), Group.gl(2)), [np.eye(2), 1e308 * np.eye(2)], [-0.5, 0.25, 0.5]),
    }


_FLOW_CASES = _flow_cases()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("chunk", [None, 1, 7], ids=["one-chunk", "pair-chunks", "seven-pair-chunks"])
@pytest.mark.parametrize("case", sorted(_FLOW_CASES))
def test_flow_axioms_equal_the_per_pair_reference(monkeypatch, case, chunk):
    flow, bases, grid = _FLOW_CASES[case]
    want = per_pair_flow_axioms(flow, bases, grid)
    if chunk is not None:  # chunks of 1 and 7 pairs, which cut across the grid's rows
        monkeypatch.setattr(_stepper, "CHUNK_ENTRIES", chunk * flow.n**2)
    got = flow_axioms(flow, bases, grid)
    assert repr(got) == repr(want)
    assert got.passed is (case != "nan") and math.isnan(got.composition_residual) is (case == "nan")


def test_flow_axioms_hold_a_chunk_of_pairs_at_a_time():
    # unchunked, the 1681 pairs of 24 x 24 applications would hold 15 MB of
    # them; the check holds a few chunk buffers beyond what the per-pair
    # fold of the same memo and preload holds
    S = np.random.default_rng(76).normal(size=(24, 24)) / 24.0
    flow = Flow(S - S.T, Group.so(24))
    grid = np.linspace(-2.0, 2.0, 41)
    peaks = []
    for check in (per_pair_flow_axioms, flow_axioms):
        tracemalloc.start()
        try:
            rep = check(flow, [expm(0.3 * flow.X)], grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rep.passed
    chunk_bytes = _stepper.CHUNK_ENTRIES * 8
    assert peaks[1] <= peaks[0] + 6 * chunk_bytes
    assert peaks[1] - peaks[0] < len(grid) ** 2 * 2 * 24 * 24 * 8 / 4


@pytest.mark.parametrize("bases, grid, message", [
    ([np.eye(2)], [], "grid must be nonempty"),
    ([], [0.5], "no base points"),
    (iter(()), iter([0.5]), "no base points"),
    ([], [], "grid must be nonempty"),
])
def test_flow_axioms_refuse_to_pass_vacuously(bases, grid, message):
    with pytest.raises(ValueError, match=message):
        flow_axioms(_ROT2, bases, grid)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_flow_axioms_fail_on_a_nan_residual():
    # exp(2X) overflows to [[inf, 0], [nan, 0]] on sl(2)
    rep = flow_axioms(Flow(np.diag([500.0, -500.0]), Group.sl(2)), [np.eye(2)], [0.0, 1.0])
    assert not rep.passed
    assert rep.identity_residual == 0.0
    assert math.isnan(rep.composition_residual)


def test_flow_axioms_take_a_one_shot_iterable_of_bases():
    rng = np.random.default_rng(73)
    flow = Flow(so3_generator(rng), Group.so(3))
    bases = [expm(so3_generator(rng)) for _ in range(2)]
    grid = [-0.5, 0.0, 0.8]
    assert flow_axioms(flow, iter(bases), grid) == flow_axioms(flow, bases, grid)


def test_flow_axioms_solves_once_per_distinct_exponential(pade):
    # one Padé approximant row per distinct nonzero t X (||t X|| <= 4 needs
    # no scaling), whether stacked or not
    grid = np.linspace(-2.0, 2.0, 41)
    assert flow_axioms(Flow(SO2_GEN, Group.so(2)), [np.eye(2)], grid).passed
    ts = {0.0} | {float(t) for t in grid} | {float(s + t) for s in grid for t in grid}
    distinct = {(t * SO2_GEN).tobytes() for t in ts if t != 0.0}
    assert len(pade) == len(distinct)
    assert set(pade) == distinct


def test_flow_axioms_compute_no_approximant_after_the_preload(monkeypatch, pade):
    # every pinned expm call of the check is a memo hit on a preloaded value
    rows_after_preload = []

    @contextlib.contextmanager
    def scope(X, grid):
        with matcore.memo(X, grid):
            rows_after_preload.append(len(pade))
            yield

    monkeypatch.setattr("evolflow.flows.memo", scope)
    rng = np.random.default_rng(74)
    grid = [float(t) for t in np.linspace(-1.5, 1.5, 7)] + [0.25, -0.0]
    H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    cases = [
        (Flow(so3_generator(rng, 3.0), Group.so(3)), [expm(so3_generator(rng)) for _ in range(2)]),
        (Flow(0.3 * (H - H.conj().T), Group.u(2)), [_unitary(rng, 2)]),
        (Flow(random_rate_matrix(5, 7).Q, Group.stochastic(5)), [np.eye(5)]),
    ]
    for flow, bases in cases:
        rows_after_preload.clear()
        pade.clear()
        assert tuple(flow_axioms(flow, bases, grid)) == _plain_flow_axioms(flow, bases, grid)
        assert len(rows_after_preload) == 1 and rows_after_preload[0] > 0
        pade.clear()
        flow_axioms(flow, bases, grid)
        assert len(pade) == rows_after_preload[-1]


@pytest.mark.parametrize("in_group", [True, False], ids=["member", "non-member"])
@pytest.mark.parametrize("quiet", [False, True], ids=["pytest-errors", "errstate-ignore"])
def test_flow_axioms_raise_as_a_plain_loop_on_an_overflowing_time(in_group, quiet):
    # 1e300 t X overflows: the preload stores nothing, and the check raises
    # what its calls raise (NotInGroup for the base first, when it is outside):
    # NonFiniteInput, without numpy's overflow warning, also where warnings are errors
    flow = Flow(1e10 * SO2_GEN, Group.so(2))
    bases = [np.eye(2) if in_group else 2.0 * np.eye(2)]
    grid = [1e-10, 1e300, 2e-10]
    with np.errstate(all="ignore") if quiet else np.errstate():
        with pytest.raises(Exception) as want:
            _plain_flow_axioms(flow, bases, grid)
        with pytest.raises(want.type) as got:
            flow_axioms(flow, bases, grid)
    assert str(got.value) == str(want.value)
    assert want.type is (NonFiniteInput if in_group else NotInGroup)


# times a caller may pass inside `flow_axioms`' scope: the grid's and its sums, signed zeros, ints,
# bools, numpy scalars, complex ones (1 + 0j must not take 1.0's real row) and a time not preloaded
SCOPE_GRID = [0.5, -0.25, 1.5, 0.0, -0.0]
SCOPE_TIMES = [0.5, -0.25, 1.5, 0.0, -0.0, 1.0, 0.25, 3.0, 1, True, np.float64(0.5), np.float32(0.5),
               1 + 0j, 0.5 + 0j, 0.3]


def _scope_flows():
    rng = np.random.default_rng(28)
    H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    X = so3_generator(rng)
    return {
        "so3": (Flow(X, Group.so(3)), expm(so3_generator(rng))),
        "complex": (Flow(0.3 * (H - H.conj().T), Group.u(2)), _unitary(rng, 2)),
        "fortran": (Flow(np.asfortranarray(X), Group.so(3)), expm(so3_generator(rng))),
        "n=31": (Flow(rng.normal(size=(31, 31)) / 31, Group.gl(31)), np.eye(31)),
        "n=32": (Flow(rng.normal(size=(32, 32)) / 32, Group.gl(32)), np.eye(32)),
    }


@pytest.mark.parametrize("case", sorted(_scope_flows()))
def test_flow_apply_in_a_memo_scope_is_flow_apply_outside(case):
    flow, A = _scope_flows()[case]
    assert flow.X.flags.f_contiguous == (case == "fortran")
    want = [_outcome(lambda: flow_apply(flow, t, A)) for t in SCOPE_TIMES]
    with matcore.memo(flow.X, SCOPE_GRID):
        # the preloaded row stands in for 0.5 X at every n and order
        assert matcore._times(flow.X, 0.5, flow._reach) is matcore._SCOPE.get().rows[0.5]
        assert [_outcome(lambda: flow_apply(flow, t, A)) for t in SCOPE_TIMES] == want
        # an equal copy of the generator is not the scope's: its products are new, with the same bits
        copy = Flow(flow.X.copy(), flow.group)
        assert [_outcome(lambda: flow_apply(copy, t, A)) for t in SCOPE_TIMES] == want
    assert matcore._SCOPE.get() is None


def test_flow_apply_sees_a_generator_mutated_in_its_scope():
    flow, A = _scope_flows()["so3"]
    X = flow.X
    with matcore.memo(X, SCOPE_GRID):
        before = flow_apply(flow, 0.5, A)
        X[0, 1], X[1, 0] = X[0, 1] + 0.5, X[1, 0] - 0.5  # still skew: a new generator of so(3)
        after = flow_apply(flow, 0.5, A)
    assert not np.array_equal(before, after)
    assert _outcome(lambda: after) == _outcome(lambda: flow_apply(flow, 0.5, A))


@pytest.mark.parametrize("bases, generator", [("complex", "real"), ("complex", "complex"), ("real", "complex")])
def test_flow_axioms_stack_complex_applications_as_complex(bases, generator):
    rng = np.random.default_rng(29)
    H = rng.normal(size=(2, 2)) + (1j * rng.normal(size=(2, 2)) if generator == "complex" else 0.0)
    flow = Flow(0.4 * (H - H.conj().T), Group.u(2))
    Q = [_unitary(rng, 2) for _ in range(2)]
    base = [Q[0], Q[1]] if bases == "complex" else [np.linalg.qr(rng.normal(size=(2, 2)))[0]]
    assert np.iscomplexobj(flow.X) == (generator == "complex")
    grid = [float(t) for t in np.linspace(-1.5, 1.5, 7)]
    report = flow_axioms(flow, base, grid)
    assert tuple(report) == _plain_flow_axioms(flow, base, grid)
    assert report.passed and report.composition_residual > 0.0


@pytest.mark.parametrize("t", [1e308, -1e308, np.float64(1e308), 1e308 + 0j])
def test_flow_apply_at_an_overflowing_time_raises_without_a_warning(t):
    # pytest turns RuntimeWarning into an error, and no errstate wraps the call
    flow = Flow(1e10 * SO2_GEN, Group.so(2))
    with pytest.raises(NonFiniteInput, match="^matrix has non-finite entries$"):
        flow_apply(flow, t, np.eye(2))
    with np.errstate(over="raise"):
        with pytest.raises(NonFiniteInput, match="^matrix has non-finite entries$"):
            flow_apply(flow, t, np.eye(2))


def test_broken_flow_fails_composition():
    # replacing A exp(tX) by A (I + tX) leaves a composition defect of st X^2
    X = SO2_GEN

    def broken(t, A):
        return A @ (np.eye(2) + t * X)

    A = np.eye(2)
    s, t = 1.0, 1.0
    residual = frob_norm(broken(s, broken(t, A)) - broken(s + t, A))
    assert residual == pytest.approx(s * t * frob_norm(X @ X), rel=1e-12)
    assert residual > 1e-9


def test_flow_line_matches_exp_line_exactly():
    rng = np.random.default_rng(72)
    X = so3_generator(rng)
    f = Flow(X, Group.so(3))
    A = expm(so3_generator(rng))
    grid = [-2.0, -0.5, 0.8, 2.0]
    line = flow_line(f, A, grid)
    curve = ExpLine(A, X)
    assert line.samples[0][0] == 0.0
    assert np.array_equal(line.samples[0][1], A)
    for t, M in line.samples[1:]:
        assert np.array_equal(M, curve.value(t))  # identical formula, identical bits


def test_flow_line_single_point_grid():
    f = Flow(SO2_GEN, Group.so(2))
    line = flow_line(f, np.eye(2), [0.0])
    assert len(line.samples) == 1
    assert np.array_equal(line.samples[0][1], np.eye(2))


def test_flow_line_orbit_closure():
    rng = np.random.default_rng(73)
    cases = [
        (so3_generator(rng), Group.so(3), expm(so3_generator(rng))),
        (flip_flop_rate(1.0).Q, Group.stochastic(2), expm(0.5 * flip_flop_rate(1.0).Q)),
    ]
    for X, g, A in cases:
        line = flow_line(Flow(X, g), A, np.linspace(-2.0, 2.0, 11))
        for _, M in line.samples:
            assert in_group(M, g, 1e-9).belongs


def test_flow_line_derivative_at_origin():
    rng = np.random.default_rng(74)
    X = so3_generator(rng)
    f = Flow(X, Group.so(3))
    A = expm(so3_generator(rng))
    h = 1e-3
    line = flow_line(f, A, [-h, h])
    (_, minus), (_, plus) = line.samples[1], line.samples[2]
    fd = (plus - minus) / (2.0 * h)
    assert frob_norm(fd - A @ X) <= 1e-4 * frob_norm(A @ X)


# ---------------------------------------------------------------------------
# fixed-step integration


def test_integrator_config_invariant():
    with pytest.raises(ValueError):
        IntegratorConfig(h=2.0, horizon=1.0)


@pytest.mark.parametrize("h, horizon", [
    (0.0, 1.0), (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf),
    (math.inf, math.inf), (1e-300, 1.0), (1e-6, 1.000001),
])
def test_integrator_config_bounds_the_march(h, horizon):
    with pytest.raises(ValueError):
        IntegratorConfig(h=h, horizon=horizon)


def test_integrator_config_allows_max_steps():
    assert 1.0 / 1e-6 == MAX_STEPS
    IntegratorConfig(1e-6, 1.0)


@pytest.mark.parametrize("n", [5, 13, 20, 33])
def test_march_folds_a_strided_first_node_as_the_per_step_loop(n):
    # a transposed or strided sub-block A0 is neither C- nor F-contiguous:
    # ndarray.dot copies it and, from n = 20 or so, rounds apart from the
    # A0 @ P of a per-step loop
    rng = np.random.default_rng(n)
    M = rng.normal(size=(n + 3, n + 3))
    B1, B2 = rng.normal(size=(2, n, n)) / n
    fun = lambda t: np.cos(3.0 * t) * B1 + t * B2  # noqa: E731
    for A0 in (M[:n, :n].T, M[::-1, ::-1][:n, :n], M[:n, :n], np.asfortranarray(M[:n, :n])):
        ts, ms = march(fun, A0, 0.1, 1.0, 1.0)
        want_ts, want_ms = per_step_march(fun, A0, 0.1, 1.0, 1.0)
        assert ts == want_ts
        assert np.stack(ms).tobytes() == np.stack(want_ms).tobytes()


def test_integrate_zero_generator():
    A0 = np.array([[2.0, 1.0], [0.0, 1.0]])
    line = integrate_right(lambda t: np.zeros((2, 2)), A0, IntegratorConfig(0.1, 1.0))
    for _, M in line.samples:
        assert np.array_equal(M, A0)


def test_integrate_constant_generator_matches_exponential():
    Q = flip_flop_rate(1.0).Q
    line = integrate_right(lambda t: Q, np.eye(2), IntegratorConfig(1e-3, 1.0))
    t_end, A_end = line.samples[-1]
    assert t_end == pytest.approx(1.0, abs=1e-12)
    assert frob_norm(A_end - expm(Q)) <= 1e-10


def test_integrate_order_four():
    Q = flip_flop_rate(1.0).Q
    exact = expm(Q)

    def err(h):
        line = integrate_right(lambda t: Q, np.eye(2), IntegratorConfig(h, 1.0))
        return frob_norm(line.final() - exact)

    ratio = err(1e-2) / err(5e-3)
    assert 12.0 <= ratio <= 20.0


def test_integrate_orthogonality_drift():
    rng = np.random.default_rng(75)
    X = so3_generator(rng)
    X /= frob_norm(X)
    h, T = 1e-2, 10.0
    line = integrate_right(lambda t: X, np.eye(3), IntegratorConfig(h, T))
    for t, M in line.samples:
        drift = frob_norm(M.T @ M - np.eye(3))
        assert drift <= max(h**4 * max(t, h), 1e-14)


def test_integrate_rejects_non_finite_generator():
    with pytest.raises(NonFiniteGenerator):
        integrate_right(
            lambda t: np.full((2, 2), np.nan), np.eye(2), IntegratorConfig(0.1, 1.0)
        )


# ---------------------------------------------------------------------------
# commuting-case closed form


def test_magnus_constant_generator():
    rng = np.random.default_rng(76)
    X = rng.normal(size=(3, 3))
    A0 = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
    for t in (-1.0, 0.0, 2.0):
        out = commuting_magnus(lambda tau: X, A0, t)
        assert frob_norm(out - A0 @ expm(t * X)) <= 1e-10


def test_magnus_cosine_flip_flop():
    Q = flip_flop_rate(1.0).Q
    out = commuting_magnus(lambda tau: math.cos(tau) * Q, np.eye(2), math.pi / 2)
    # integral of cos over [0, pi/2] is exactly 1
    assert frob_norm(out - expm(Q)) <= 1e-8


def test_magnus_scalar_modulated_family():
    rng = np.random.default_rng(77)
    X0 = rng.normal(size=(3, 3))
    A0 = np.eye(3)
    t = 1.7
    out = commuting_magnus(lambda tau: math.sin(tau) * X0, A0, t)
    F = 1.0 - math.cos(t)  # exact antiderivative of sin
    assert frob_norm(out - A0 @ expm(F * X0)) <= 1e-8


def test_magnus_rejects_non_commuting_family():
    X1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    X2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(CommutatorTooLarge):
        commuting_magnus(lambda tau: X1 + tau * X2, np.eye(2), 1.0)


def test_magnus_agrees_with_integrator_on_commuting_family():
    Q = flip_flop_rate(1.0).Q
    h = 1e-3
    fun = lambda tau: math.cos(tau) * Q
    line = integrate_right(fun, np.eye(2), IntegratorConfig(h, 1.0))
    out = commuting_magnus(fun, np.eye(2), 1.0)
    assert frob_norm(out - line.final()) <= max(1e-7, 10.0 * h**4)
