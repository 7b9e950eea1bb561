import math

import numpy as np
import pytest

from evolflow.curves import ExpLine
from evolflow import matcore
from evolflow.errors import (
    CommutatorTooLarge,
    NonFiniteGenerator,
    NonFiniteInput,
    NotInAlgebra,
    NotInGroup,
)
from evolflow.flows import (
    Flow,
    MAX_STEPS,
    IntegratorConfig,
    commuting_magnus,
    flow_apply,
    flow_axioms,
    flow_line,
    integrate_right,
)
from evolflow.lie import Group, in_group
from evolflow.markov import flip_flop_rate, random_rate_matrix
from evolflow.matcore import expm, frob_norm

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

    def preload(X, ts):
        matcore.preload_expm(X, ts)
        rows_after_preload.append(len(pade))

    monkeypatch.setattr("evolflow.flows.preload_expm", preload)
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
    # what its calls raise (NotInGroup for the base first, when it is outside)
    flow = Flow(1e10 * SO2_GEN, Group.so(2))
    bases = [np.eye(2) if in_group else 2.0 * np.eye(2)]
    grid = [1e-10, 1e300, 2e-10]
    with np.errstate(all="ignore") if quiet else np.errstate():
        with pytest.raises(Exception) as want:
            _plain_flow_axioms(flow, bases, grid)
        with pytest.raises(want.type) as got:
            flow_axioms(flow, bases, grid)
    assert str(got.value) == str(want.value)
    assert want.type is {(True, False): RuntimeWarning, (True, True): NonFiniteInput}.get((in_group, quiet), NotInGroup)


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
