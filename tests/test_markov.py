import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from evolflow import matcore
from evolflow.curves import ExpLine, FlipFlop, check_one_parameter_subgroup
from evolflow.errors import NegativeOffDiagonal, RowSumNonzero, SubsetTooSmall
from evolflow.lie import Algebra, Group, in_algebra, in_group
from evolflow.markov import (
    StationaryDistribution,
    axioms_report,
    birth_death_rate,
    det_trace_identity,
    detailed_balance,
    flip_flop_rate,
    kolmogorov_residuals,
    random_rate_matrix,
    semigroup_at,
    truncate_reversible,
    validate_rate,
)
from evolflow.matcore import expm, expm_times, frob_norm
from oracles import per_call_axioms_report, per_call_kolmogorov_residuals

GRID = [0.0, 0.3, 0.7, 1.1]


def three_cycle():
    Q = np.zeros((3, 3))
    Q[0, 1] = Q[1, 2] = Q[2, 0] = 1.0
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return validate_rate(Q)


# ---------------------------------------------------------------------------
# validation


def test_flip_flop_rate_is_valid():
    rate = flip_flop_rate(1.0)
    assert np.array_equal(rate.Q, np.array([[-1.0, 1.0], [1.0, -1.0]]))


def test_zero_generator_is_valid():
    rate = validate_rate(np.zeros((3, 3)))
    s = semigroup_at(rate, 5.0)
    assert np.array_equal(s.matrix, np.eye(3))


def test_negative_off_diagonal_rejected():
    with pytest.raises(NegativeOffDiagonal) as err:
        validate_rate(np.array([[1.0, -1.0], [0.0, 0.0]]))
    assert err.value.defects == [(0, 1, -1.0)]


def test_row_sum_rejected():
    with pytest.raises(RowSumNonzero) as err:
        validate_rate(np.array([[-1.0, 2.0], [0.0, 0.0]]))
    assert err.value.defects[0][0] == 0


def test_complex_rate_rejected():
    with pytest.raises(ValueError):
        validate_rate(np.array([[-1.0 + 1j, 1.0 - 1j], [1.0, -1.0]]))


# ---------------------------------------------------------------------------
# semigroup values


def test_semigroup_at_zero_is_identity():
    rate = flip_flop_rate(0.7)
    s = semigroup_at(rate, 0.0)
    assert np.array_equal(s.matrix, np.eye(2))
    assert not s.non_markov_range


def test_semigroup_matches_flip_flop_closed_form():
    for lam in (0.5, 1.0, 2.0):
        rate = flip_flop_rate(lam)
        for t in (0.0, 0.25, 1.0, 4.0):
            closed = FlipFlop(lam).value(t)
            assert frob_norm(semigroup_at(rate, t).matrix - closed) <= 1e-10


def test_negative_time_is_flagged_and_non_markov():
    s = semigroup_at(flip_flop_rate(1.0), -1.0)
    assert s.non_markov_range
    off = 0.5 * (1.0 - math.e**2)
    assert s.matrix[0, 1] == pytest.approx(off, rel=1e-12)
    assert off == pytest.approx(-3.194528049465325)
    assert s.min_entry < -3.0
    # ...yet the curve through it is still a one-parameter subgroup
    rep = check_one_parameter_subgroup(
        ExpLine(np.eye(2), flip_flop_rate(1.0).Q), [-2.0, -1.0, 0.5, 1.0, 2.0]
    )
    assert rep.passed


def test_markov_window_for_nonnegative_time():
    rng = np.random.default_rng(61)
    for _ in range(10):
        rate = random_rate_matrix(int(rng.integers(2, 7)), rng)
        for t in (0.0, 0.2, 1.0, 3.5):
            s = semigroup_at(rate, t)
            assert s.min_entry >= -1e-12
            assert s.row_sum_defect <= 1e-10


# ---------------------------------------------------------------------------
# axioms


def test_axioms_flip_flop():
    for lam in (0.5, 1.0, 3.0):
        rep = axioms_report(flip_flop_rate(lam), GRID)
        assert rep.passed, rep
        assert rep.chapman_defect <= 1e-9


def test_axioms_zero_generator():
    rep = axioms_report(validate_rate(np.zeros((4, 4))), GRID)
    assert rep.passed
    assert rep.chapman_defect == 0.0


def test_axioms_random_five_state():
    rep = axioms_report(random_rate_matrix(5, 99), GRID)
    assert rep.passed
    assert rep.identity_defect == 0.0
    d = rep.continuity_defects
    assert all(d[k + 1] <= d[k] * (1.0 + 1e-9) for k in range(len(d) - 1))


def test_axioms_continuity_bound_overflows_without_a_warning():
    # ||Q|| = 4000, so e^{||Q||/2} - 1 and e^{||Q||/4} - 1 overflow to inf: bounds every defect meets
    rate = flip_flop_rate(2000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = axioms_report(rate, [0.0, 0.001, 0.5])
    assert rep.passed and rep.continuity_ok
    eye = np.eye(2)
    assert rep.continuity_defects == tuple(frob_norm(expm(2.0**-k * rate.Q) - eye) for k in range(1, 21))


def test_axioms_share_one_exponential_memo(monkeypatch, pade):
    calls = []

    def recorded(X, ts):
        calls.append((X, list(ts)))
        return expm_times(X, calls[-1][1])

    monkeypatch.setattr("evolflow.markov.expm_times", recorded)
    rate = random_rate_matrix(3, 9)
    grid = np.linspace(0.0, 2.0, 21)
    rep = axioms_report(rate, grid)
    assert rep.passed
    sums = {float(s + t) for s in grid for t in grid}
    assert sums >= {float(t) for t in grid} | {0.0} and len(sums) == 61
    # one call for the grid, A(0) and the sums, one for A(2^-k), k = 1..20
    assert len(calls) == 2
    assert all(X is rate.Q for X, _ in calls)
    assert set(calls[0][1]) == sums
    assert calls[1][1] == [2.0**-k for k in range(1, 21)]
    # one approximant per distinct scaled argument: the 60 nonzero distinct
    # times of the grid and sums have 42 (2t beside t shares one above the
    # scaling threshold), the 20 sweep times have 20 (||Q|| is below it)
    assert len(pade) == 42 + 20
    pade.clear()
    assert repr(per_call_axioms_report(rate, grid)) == repr(rep)
    assert len(pade) == 60 + 20  # one per distinct time


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("grid", [[0.29, 0.61, 0.93, 1.38], [0.0, 0.25, 0.5, 0.5, 1.0, 1.5]])
def test_axioms_hold_no_more_memory_than_one_exponential_per_time(grid):
    rate = random_rate_matrix(100, 21)
    got, peak = traced_peak(axioms_report, rate, grid)
    want, per_call_peak = traced_peak(per_call_axioms_report, rate, grid)
    assert repr(got) == repr(want)
    assert peak <= per_call_peak


def test_axioms_hold_each_sums_exponential_only_until_the_grid_is_complete(monkeypatch):
    # 15 distinct times: the four grid values stay to the end, and besides
    # them at most the last value yielded and the last sum taken
    alive = []

    def tracked(X, ts):
        refs = []
        for t, E in expm_times(X, ts):
            refs.append(weakref.ref(E))
            yield t, E
        alive.append(sum(ref() is not None for ref in refs))

    monkeypatch.setattr("evolflow.markov.expm_times", tracked)
    rate = random_rate_matrix(6, 5)
    grid = [0.29, 0.61, 0.93, 1.38]
    assert repr(axioms_report(rate, grid)) == repr(per_call_axioms_report(rate, grid))
    assert alive[0] <= len(grid) + 2


def nan_exponential_at(T, Q):
    """`expm` that returns all NaN at exp(T Q) and the true value elsewhere."""
    def patched(X):
        E = expm(X)
        return np.full_like(E, np.nan) if np.array_equal(X, T * Q) else E
    return patched


def nan_exponentials_at(T, Q):
    """`expm_times` that yields all NaN for exp(T Q) and the true values elsewhere."""
    def patched(X, ts):
        for t, E in expm_times(X, ts):
            yield t, (np.full_like(E, np.nan) if np.array_equal(t * X, T * Q) else E)
    return patched


@pytest.mark.parametrize("T", [0.3, 1.1])
def test_axioms_fail_on_a_nan_exponential_at_a_grid_time(monkeypatch, T):
    rate = random_rate_matrix(3, 11)
    monkeypatch.setattr("evolflow.markov.expm_times", nan_exponentials_at(T, rate.Q))
    rep = axioms_report(rate, GRID)
    assert not rep.passed
    assert math.isnan(rep.nonneg_defect)
    assert math.isnan(rep.row_sum_defect)
    assert math.isnan(rep.chapman_defect)
    assert rep.identity_defect == 0.0 and rep.continuity_ok


def test_axioms_continuity_fails_on_a_nan_defect(monkeypatch):
    rate = flip_flop_rate(1.0)
    monkeypatch.setattr("evolflow.markov.expm_times", nan_exponentials_at(2.0**-5, rate.Q))
    rep = axioms_report(rate, GRID)
    assert math.isnan(rep.continuity_defects[4])
    assert not rep.continuity_ok
    assert not rep.passed


def test_axioms_reject_negative_grid():
    with pytest.raises(ValueError):
        axioms_report(flip_flop_rate(1.0), [-0.5, 1.0])


# ---------------------------------------------------------------------------
# Kolmogorov equations and determinant identity


def test_kolmogorov_residuals_flip_flop():
    res = kolmogorov_residuals(flip_flop_rate(1.0), GRID)
    assert res.backward <= 1e-9
    assert res.forward <= 1e-9
    assert res.initial == 0.0


def test_kolmogorov_residuals_random():
    rng = np.random.default_rng(62)
    for _ in range(10):
        rate = random_rate_matrix(int(rng.integers(2, 7)), rng)
        res = kolmogorov_residuals(rate, GRID)
        assert res.backward <= 1e-8
        assert res.forward <= 1e-8


def test_kolmogorov_residuals_keep_a_nan_exponential(monkeypatch):
    rate = random_rate_matrix(3, 12)
    monkeypatch.setattr("evolflow.markov.expm_times", nan_exponentials_at(0.7, rate.Q))
    res = kolmogorov_residuals(rate, GRID)
    assert math.isnan(res.backward)
    assert math.isnan(res.forward)
    assert res.initial == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_det_trace_identity_keeps_a_nan_exponential(monkeypatch):
    rate = random_rate_matrix(3, 13)
    monkeypatch.setattr("evolflow.markov.expm", nan_exponential_at(0.3, rate.Q))
    assert math.isnan(det_trace_identity(rate, GRID))


def test_kolmogorov_and_det_trace_take_one_exponential_per_grid_point(monkeypatch):
    calls = []

    def counted(X):
        calls.append(1)
        return expm(X)

    def recorded(X, ts):
        calls.append(list(ts))
        return expm_times(X, calls[-1])

    monkeypatch.setattr("evolflow.markov.expm", counted)
    monkeypatch.setattr("evolflow.markov.expm_times", recorded)
    rate = random_rate_matrix(3, 14)
    kolmogorov_residuals(rate, iter(GRID))
    # one expm_times call for the grid and exp(0 Q) of the initial residual
    assert calls == [[*GRID, 0.0]]
    calls.clear()
    det_trace_identity(rate, iter(GRID))
    assert len(calls) == len(GRID)


KOLMOGOROV_GRIDS = [
    [float(t) for t in np.linspace(-2.0, 2.0, 41)],
    [0.0, 0.3, -0.0, 0.3, 1.1, 2.2, 4.4, 0.15],  # 0.0 and -0.0, a repeat, 2t beside t
    [-0.0, 2.0**-30, 7.5, -3.25],
    [0.7],
]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 40, 80])
@pytest.mark.parametrize("grid", KOLMOGOROV_GRIDS, ids=["linspace", "zeros", "wide", "one"])
def test_kolmogorov_residuals_equal_a_per_call_loop(n, grid):
    # ||Q|| from about 1 to 40 n: no squaring up to many, so the stacked
    # approximants (n < 32) and the one-at-a-time ones both run; the larger
    # rates at t >= 0 only, where exp(tQ) stays stochastic
    for seed, scale, ts in ((n, 1.0, grid), (n + 100, 40.0, [t for t in grid if t >= 0.0])):
        rate = validate_rate(scale * random_rate_matrix(n, seed).Q)
        assert repr(kolmogorov_residuals(rate, ts)) == repr(per_call_kolmogorov_residuals(rate, ts))


def test_kolmogorov_residuals_equal_a_per_call_loop_on_a_nan_exponential(monkeypatch):
    rate = random_rate_matrix(3, 12)
    monkeypatch.setattr("evolflow.markov.expm_times", nan_exponentials_at(0.7, rate.Q))
    monkeypatch.setattr("oracles.expm", nan_exponential_at(0.7, rate.Q))
    grid = [0.0, 0.7, 1.1]
    assert repr(kolmogorov_residuals(rate, grid)) == repr(per_call_kolmogorov_residuals(rate, grid))


@pytest.mark.parametrize("engages", [False, True], ids=["one-at-a-time", "two-at-a-time"])
def test_axioms_and_kolmogorov_at_the_helper_threshold_equal_per_call_loops(monkeypatch, engages):
    # from _PARALLEL_MIN_N on, with the helper thread forced on or off
    monkeypatch.setattr(matcore, "_helper_engages", lambda: engages)
    rate = random_rate_matrix(matcore._PARALLEL_MIN_N, 31)
    grid = [0.0, 0.29, 0.61, 0.61, 1.22, 1.38]
    assert repr(axioms_report(rate, grid)) == repr(per_call_axioms_report(rate, grid))
    assert repr(kolmogorov_residuals(rate, grid)) == repr(per_call_kolmogorov_residuals(rate, grid))


def test_det_trace_identity_flip_flop():
    rate = flip_flop_rate(1.0)
    assert det_trace_identity(rate, [1.0]) <= 1e-10
    A = semigroup_at(rate, 1.0).matrix
    assert np.linalg.det(A) == pytest.approx(math.exp(-2.0), abs=1e-9)
    assert det_trace_identity(rate, [0.0]) <= 1e-15


def test_det_trace_identity_random():
    rng = np.random.default_rng(63)
    for _ in range(10):
        rate = random_rate_matrix(int(rng.integers(2, 7)), rng)
        assert det_trace_identity(rate, np.linspace(0.0, 4.0, 9)) <= 1e-8


def test_semigroup_always_nonsingular():
    # CT-Markov curves are perfect: det exp(tQ) = e^{t tr Q} > 0
    rng = np.random.default_rng(64)
    for _ in range(5):
        rate = random_rate_matrix(4, rng)
        for t in (0.0, 0.5, 2.0, 10.0):
            d = np.linalg.det(semigroup_at(rate, t).matrix)
            assert d > 0.0
            assert d == pytest.approx(math.exp(t * np.trace(rate.Q)), rel=1e-8)


def test_omega_group_membership():
    rate = flip_flop_rate(1.0)
    assert in_algebra(rate.Q, Algebra.omega0(2)).belongs
    for t in (0.1, 1.0, 2.5):
        A = semigroup_at(rate, t).matrix
        assert in_group(A, Group.gen_doubly_stochastic(2, 1.0)).belongs


def test_probability_vector_preservation():
    rng = np.random.default_rng(65)
    rate = random_rate_matrix(5, rng)
    p = rng.uniform(0.0, 1.0, size=5)
    p /= p.sum()
    for t in (0.3, 1.0, 4.0):
        q = p @ semigroup_at(rate, t).matrix
        assert q.min() >= -1e-12
        assert abs(q.sum() - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# detailed balance and truncation


def test_detailed_balance_flip_flop():
    rep = detailed_balance(flip_flop_rate(1.0), StationaryDistribution([0.5, 0.5]))
    assert rep.passed
    assert rep.defect == 0.0


def birth_death_with_stationary(births, deaths):
    rate = birth_death_rate(births, deaths)
    pi = np.ones(len(births) + 1)
    for i in range(len(births)):
        pi[i + 1] = pi[i] * births[i] / deaths[i]
    pi /= pi.sum()
    return rate, StationaryDistribution(pi)


def test_detailed_balance_birth_death():
    rate, pi = birth_death_with_stationary([1.0, 2.0, 0.5], [0.7, 1.1, 2.0])
    rep = detailed_balance(rate, pi, 1e-12)
    assert rep.passed


def test_detailed_balance_fails_for_cycle():
    rep = detailed_balance(three_cycle(), StationaryDistribution(np.ones(3) / 3.0))
    assert not rep.passed
    assert rep.defect == pytest.approx(1.0 / 3.0)


def test_truncation_preserves_reversibility():
    rate, pi = birth_death_with_stationary([1.0, 2.0, 0.5, 1.5], [0.7, 1.1, 2.0, 0.9])
    states = [0, 1, 2]
    sub = truncate_reversible(rate, states)
    sub_pi = pi.restrict(states)
    assert detailed_balance(sub, sub_pi, 1e-12).passed


def test_truncation_to_full_set_is_identity():
    rate = birth_death_rate([1.0, 2.0], [0.5, 0.5])
    sub = truncate_reversible(rate, [0, 1, 2])
    assert np.array_equal(sub.Q, rate.Q)


def test_truncation_of_cycle_is_still_a_rate_matrix():
    sub = truncate_reversible(three_cycle(), [0, 1])
    assert np.array_equal(sub.Q, np.array([[-1.0, 1.0], [0.0, 0.0]]))


def test_truncation_needs_two_states():
    with pytest.raises(SubsetTooSmall):
        truncate_reversible(flip_flop_rate(1.0), [0])


def test_stationary_distribution_validation():
    with pytest.raises(ValueError):
        StationaryDistribution([0.5, 0.6])
    with pytest.raises(ValueError):
        StationaryDistribution([1.5, -0.5])
