"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines on a green run (pytest shows captured output for failures anyway).
"""

import math
import time

import numpy as np
import pytest

from evolflow.curves import ExpLine, FlipFlop, Lorentz11, So2, perfectness_profile
from evolflow.errors import CommutatorTooLarge
from evolflow.flows import Flow, IntegratorConfig, commuting_magnus, flow_axioms, integrate_right
from evolflow.lie import Algebra, Group, heisenberg_exp, o11_element, sl2_iwasawa
from evolflow.markov import flip_flop_rate, random_rate_matrix, semigroup_at
from evolflow.matcore import expm, frob_norm

SEED = 20260809


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def rate_battery(count=100, max_n=6):
    rng = np.random.default_rng(SEED)
    return [random_rate_matrix(2 + k % (max_n - 1), rng) for k in range(count)]


def test_criterion_01_flip_flop_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        rate = flip_flop_rate(lam)
        closed = FlipFlop(lam)
        for t in (0.0, 0.25, 1.0, 4.0):
            worst = max(worst, frob_norm(expm(t * rate.Q) - closed.value(t)))
    elapsed = time.perf_counter() - start
    report(1, "flip-flop semigroup reproduction", worst <= 1e-10 and elapsed < 1.0,
           f"max defect {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_chapman_kolmogorov():
    start = time.perf_counter()
    grid = (0.0, 0.3, 0.7, 1.1)
    worst = 0.0
    for rate in rate_battery():
        values = {t: expm(t * rate.Q) for t in grid}
        sums = {}
        for s in grid:
            for t in grid:
                if s + t not in sums:
                    sums[s + t] = expm((s + t) * rate.Q)
                worst = max(worst, frob_norm(sums[s + t] - values[s] @ values[t]))
    elapsed = time.perf_counter() - start
    report(2, "Chapman-Kolmogorov on 100 random generators", worst <= 1e-8 and elapsed < 5.0,
           f"max defect {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_det_trace_identity():
    grid = (0.0, 0.3, 0.7, 1.1)
    worst = 0.0
    for rate in rate_battery():
        tr = float(np.trace(rate.Q))
        for t in grid:
            rhs = math.exp(t * tr)
            worst = max(worst, abs(float(np.linalg.det(expm(t * rate.Q))) - rhs) / rhs)
    ff = float(np.linalg.det(expm(flip_flop_rate(1.0).Q)))
    ff_ok = abs(ff - math.exp(-2.0)) <= 1e-9
    report(3, "determinant-trace identity", worst <= 1e-8 and ff_ok,
           f"max rel defect {worst:.2e}, flip-flop det {ff:.6f}")


def test_criterion_04_closed_forms_vs_series():
    rng = np.random.default_rng(SEED + 4)
    X_rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    X_boost = np.array([[0.0, 1.0], [1.0, 0.0]])
    worst_rot = worst_boost = worst_heis = 0.0
    for _ in range(200):
        t = rng.uniform(-3.0, 3.0)
        worst_rot = max(worst_rot, frob_norm(So2().value(t) - expm(t * X_rot)))
        worst_boost = max(worst_boost, frob_norm(Lorentz11(1).value(t) - expm(t * X_boost)))
        a, b, c = rng.uniform(-3.0, 3.0, size=3)
        X = np.array([[0.0, a, b], [0.0, 0.0, c], [0.0, 0.0, 0.0]])
        worst_heis = max(worst_heis, frob_norm(heisenberg_exp(a, b, c) - expm(X)))
    ok = worst_rot <= 1e-10 and worst_boost <= 1e-10 and worst_heis <= 1e-13
    report(4, "closed-form exponentials vs expm", ok,
           f"so2 {worst_rot:.2e}, lorentz {worst_boost:.2e}, heisenberg {worst_heis:.2e}")


def test_criterion_05_heisenberg_identity():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(100):
        a, b, c = rng.uniform(-3.0, 3.0, size=3)
        X = np.array([[0.0, a, b], [0.0, 0.0, c], [0.0, 0.0, 0.0]])
        shifted = np.array([[1.0, a, b + 0.5 * a * c], [0.0, 1.0, c], [0.0, 0.0, 1.0]])
        worst = max(worst, frob_norm(expm(X) - shifted))
    report(5, "Heisenberg exp identity", worst <= 1e-13, f"max defect {worst:.2e}")


def test_criterion_06_sl2_iwasawa_determinant():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for _ in range(200):
        a, b, d = rng.uniform(-3.0, 3.0, size=3)
        worst = max(worst, abs(float(np.linalg.det(sl2_iwasawa(a, b, d))) - 1.0))
    report(6, "SL2 Iwasawa determinant", worst <= 1e-12, f"max defect {worst:.2e}")


def test_criterion_07_integrator_order():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 7)
    S = rng.normal(size=(3, 3))
    generators = [flip_flop_rate(1.0).Q, 0.5 * (S - S.T)]
    ratios = []
    for X in generators:
        exact = expm(X)

        def err(h, X=X):
            cfg = IntegratorConfig(h, 1.0)
            return frob_norm(integrate_right(lambda t: X, np.eye(X.shape[0]), cfg).final() - exact)

        ratios.append(err(1e-2) / err(5e-3))
    elapsed = time.perf_counter() - start
    ok = all(12.0 <= r <= 20.0 for r in ratios) and elapsed < 2.0
    report(7, "one-step integrator is order four", ok,
           f"ratios {[f'{r:.1f}' for r in ratios]}, {elapsed:.2f}s")


def test_criterion_08_commuting_magnus():
    Q = flip_flop_rate(1.0).Q
    out = commuting_magnus(lambda tau: math.cos(tau) * Q, np.eye(2), math.pi / 2)
    defect = frob_norm(out - expm(Q))
    X1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    X2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    raised = False
    try:
        commuting_magnus(lambda tau: X1 + tau * X2, np.eye(2), 1.0)
    except CommutatorTooLarge:
        raised = True
    report(8, "commuting-case closed form", defect <= 1e-8 and raised,
           f"defect {defect:.2e}, non-commuting raised={raised}")


def flow_case(i, rng):
    kind = ("so", "rate", "sl2", "heis3")[i % 4]
    if kind == "so":
        n = 2 + i % 3
        S = rng.normal(size=(n, n))
        X = 0.5 * (S - S.T)
        group = Group.so(n)
        base_gen = lambda: 0.5 * (lambda T: T - T.T)(rng.normal(size=(n, n)))
    elif kind == "rate":
        n = 2 + i % 4
        X = random_rate_matrix(n, rng).Q
        group = Group.stochastic(n)
        base_gen = lambda: random_rate_matrix(n, rng).Q
    elif kind == "sl2":
        X = rng.normal(size=(2, 2))
        X -= np.trace(X) / 2.0 * np.eye(2)
        group = Group.sl(2)
        base_gen = lambda: (lambda M: M - np.trace(M) / 2.0 * np.eye(2))(rng.normal(size=(2, 2)))
    else:
        a, b, c = rng.normal(size=3)
        X = np.array([[0.0, a, b], [0.0, 0.0, c], [0.0, 0.0, 0.0]])
        group = Group.heisenberg3()
        base_gen = lambda: np.triu(rng.normal(size=(3, 3)), 1)
    base = expm(base_gen())
    return Flow(X, group), base


def test_criterion_09_flow_axioms():
    rng = np.random.default_rng(SEED + 9)
    grid = [-1.2, -0.4, 0.0, 0.5, 1.1]
    worst_id = worst_comp = 0.0
    for i in range(20):
        flow, base = flow_case(i, rng)
        rep = flow_axioms(flow, [base], grid, tol=1e-9)
        worst_id = max(worst_id, rep.identity_residual)
        worst_comp = max(worst_comp, rep.composition_residual)
    ok = worst_id == 0.0 and worst_comp <= 1e-9
    report(9, "flow axioms over so(n)/rate/sl2/heis3", ok,
           f"identity {worst_id:.1e}, composition {worst_comp:.2e}")


def test_criterion_10_negative_time_markov_failure():
    sample = semigroup_at(flip_flop_rate(1.0), -1.0)
    expected_off = 0.5 * (1.0 - math.e**2)
    off_ok = abs(sample.matrix[0, 1] - expected_off) <= 1e-10
    value_ok = expected_off == pytest.approx(-3.194528049465325, abs=1e-9)
    from evolflow.curves import check_one_parameter_subgroup

    subgroup = check_one_parameter_subgroup(
        ExpLine(np.eye(2), flip_flop_rate(1.0).Q), [-2.0, -1.0, 0.5, 1.0, 2.0], tol=1e-9
    )
    ok = sample.non_markov_range and off_ok and value_ok and subgroup.passed
    report(10, "negative time flagged yet still a subgroup", ok,
           f"off-diagonal {sample.matrix[0, 1]:.6f}, flagged={sample.non_markov_range}")


def test_criterion_11_determinant_sign_constancy():
    rng = np.random.default_rng(SEED + 11)
    grid = np.linspace(-2.0, 2.0, 41)
    ok = True
    for k in range(30):
        n = 2 + k % 4
        A0 = rng.normal(size=(n, n))
        X = 0.5 * rng.normal(size=(n, n))
        prof = perfectness_profile(ExpLine(A0, X), grid)
        expected = 1 if np.linalg.det(A0) > 0 else -1
        ok = ok and prof.sign_constant and all(s.sign == expected for s in prof.samples)
    worst_singular = 0.0
    for k in range(10):
        n = 3 + k % 3
        A0 = rng.normal(size=(n, n))
        A0[-1] = A0[0]  # exactly rank-deficient
        X = 0.5 * rng.normal(size=(n, n))
        prof = perfectness_profile(ExpLine(A0, X), grid)
        worst_singular = max(worst_singular, max(s.scaled_abs_det for s in prof.samples))
        # every slice, not just one, is gauge-singular
        ok = ok and not prof.all_perfect and all(s.sign == 0 for s in prof.samples)
    ok = ok and worst_singular <= 1e-10
    report(11, "determinant sign constant along exp lines", ok,
           f"singular max scaled |det| {worst_singular:.2e}")


def test_criterion_12_o11_component_separation():
    ts = np.linspace(-3.0, 3.0, 25)
    classes = set()
    constant = True
    for i in (1, 2, 3, 4):
        keys = {
            (int(np.sign(np.linalg.det(o11_element(i, t)))),
             int(np.sign(o11_element(i, t)[0, 0])))
            for t in ts
        }
        constant = constant and len(keys) == 1
        classes |= keys
    ok = constant and len(classes) == 4
    report(12, "O(1,1) component separation", ok, f"classes {sorted(classes)}")
