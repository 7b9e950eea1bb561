import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from evolflow.curves import Constant, FlipFlop, perfectness_profile
from evolflow.errors import DimensionMismatch, NotStochastic, SingularMatrix
from evolflow.lie import (
    Algebra,
    Group,
    algebra_of,
    connected_component_sign,
    heisenberg_exp,
    in_algebra,
    in_group,
    o11_element,
    sl2_iwasawa,
    stochastic_affine_embed,
)
from evolflow.matcore import expm, frob_norm
from oracles import taylor_expm


def random_in_algebra(alg, rng):
    n = alg.n
    if alg.kind == "gl":
        return rng.normal(size=(n, n))
    if alg.kind == "sl":
        X = rng.normal(size=(n, n))
        return X - np.trace(X) / n * np.eye(n)
    if alg.kind == "so":
        S = rng.normal(size=(n, n))
        return 0.5 * (S - S.T)
    if alg.kind == "u":
        S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return 0.5 * (S - S.conj().T)
    if alg.kind == "su":
        X = random_in_algebra(Algebra.u(n), rng)
        return X - np.trace(X) / n * np.eye(n)
    if alg.kind == "rate":
        Q = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        return Q
    if alg.kind == "omega0":
        # flip-flop style symmetric generator has zero row and column sums
        Q = rng.uniform(0.0, 1.0, size=(n, n))
        Q = 0.5 * (Q + Q.T)
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        return Q
    if alg.kind == "heis3":
        a, b, c = rng.normal(size=3)
        return np.array([[0.0, a, b], [0.0, 0.0, c], [0.0, 0.0, 0.0]])
    if alg.kind == "lor11":
        c = rng.normal()
        return np.array([[0.0, c], [c, 0.0]])
    raise AssertionError(alg.kind)


# ---------------------------------------------------------------------------
# membership


def test_exp_of_skew_is_special_orthogonal():
    rng = np.random.default_rng(51)
    for n in (2, 3, 5):
        X = random_in_algebra(Algebra.so(n), rng)
        for t in (-2.0, 0.5, 1.7):
            rep = in_group(expm(t * X), Group.so(n))
            assert rep.belongs and rep.residual <= 1e-10
            assert rep.component == 1


def test_flip_family_not_in_sl2():
    for alpha in (-1.0, 0.0, 3.0):
        rep = in_group(np.array([[0.0, 1.0], [1.0, alpha]]), Group.sl(2))
        assert not rep.belongs
        assert rep.residual == pytest.approx(2.0)
        assert rep.component == -1


def test_flip_flop_is_generalized_doubly_stochastic():
    for t in (0.0, 0.5, 2.0, -1.0):
        rep = in_group(FlipFlop(1.0).value(t), Group.gen_doubly_stochastic(2, 1.0))
        assert rep.belongs


def test_unitary_membership():
    rng = np.random.default_rng(52)
    X = random_in_algebra(Algebra.u(3), rng)
    rep = in_group(expm(X), Group.u(3))
    assert rep.belongs and rep.residual <= 1e-10
    Xs = random_in_algebra(Algebra.su(3), rng)
    assert in_group(expm(Xs), Group.su(3)).belongs


def test_real_groups_reject_complex_matrices():
    M = np.eye(2) + 0.5j * np.array([[0.0, 1.0], [1.0, 0.0]])
    for g in (Group.o(2), Group.so(2), Group.stochastic(2)):
        rep = in_group(M, g)
        assert not rep.belongs
        assert rep.residual == float(np.linalg.norm(M.imag))  # M.real = I is a member


def test_stochastic_group_needs_invertibility():
    M = np.array([[0.5, 0.5], [0.5, 0.5]])
    rep = in_group(M, Group.stochastic(2))
    assert not rep.belongs
    assert rep.residual == math.inf


def test_heisenberg_group_membership():
    assert in_group(heisenberg_exp(1.0, -2.0, 0.5), Group.heisenberg3()).belongs
    bad = np.eye(3)
    bad[2, 0] = 0.1
    assert not in_group(bad, Group.heisenberg3()).belongs


def test_affine_pattern_membership():
    A = np.array([[2.0, 1.0, 0.0], [0.5, 1.0, 0.0], [3.0, -1.0, 1.0]])
    assert in_group(A, Group.affine(3)).belongs
    assert not in_group(np.diag([1.0, 1.0, 2.0]), Group.affine(3)).belongs


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        in_group(np.eye(3), Group.so(2))


def test_algebra_membership_examples():
    assert in_algebra(np.array([[0.0, 1.0], [-1.0, 0.0]]), Algebra.so(2)).belongs
    for lam in (0.1, 1.0, 10.0):
        Q = np.array([[-lam, lam], [lam, -lam]])
        assert in_algebra(Q, Algebra.rate(2)).belongs
        assert in_algebra(Q, Algebra.omega0(2)).belongs
    rep = in_algebra(np.eye(2), Algebra.sl(2))
    assert not rep.belongs
    assert rep.residual == pytest.approx(2.0)


def test_exponential_closure_for_all_catalog_pairs():
    rng = np.random.default_rng(53)
    pairs = [
        (Algebra.gl(3), Group.gl(3)),
        (Algebra.sl(3), Group.sl(3)),
        (Algebra.so(4), Group.so(4)),
        (Algebra.so(3), Group.o(3)),
        (Algebra.u(2), Group.u(2)),
        (Algebra.su(2), Group.su(2)),
        (Algebra.rate(4), Group.stochastic(4)),
        (Algebra.omega0(3), Group.gen_doubly_stochastic(3, 1.0)),
        (Algebra.heis3(), Group.heisenberg3()),
        (Algebra.lor11(), Group.lorentz11()),
        (Algebra.lor11(), Group.o11()),
    ]
    for alg, grp in pairs:
        for _ in range(3):
            X = random_in_algebra(alg, rng)
            assert in_algebra(X, alg).belongs
            for t in (-2.0, -1.0, 0.5, 1.0, 2.0):
                rep = in_group(expm(t * X), grp, 1e-9)
                assert rep.belongs, (alg.kind, grp.kind, t, rep.residual)


def test_algebra_of_mapping():
    assert algebra_of(Group.so(5)) == Algebra.so(5)
    assert algebra_of(Group.stochastic(3)) == Algebra.rate(3)
    assert algebra_of(Group.gen_doubly_stochastic(2, 1.0)) == Algebra.omega0(2)
    with pytest.raises(ValueError):
        algebra_of(Group.gen_doubly_stochastic(2, 2.0))
    with pytest.raises(ValueError):
        algebra_of(Group.affine(3))


# ---------------------------------------------------------------------------
# component classification


def test_component_signs():
    assert connected_component_sign(np.eye(3)) == 1
    assert connected_component_sign(np.diag([-1.0, 1.0])) == -1
    rng = np.random.default_rng(54)
    for _ in range(10):
        X = rng.normal(size=(3, 3))
        assert connected_component_sign(expm(X)) == 1
    with pytest.raises(SingularMatrix):
        connected_component_sign(np.ones((2, 2)))
    with pytest.raises(ValueError):
        connected_component_sign(np.eye(2) * (1.0 + 1j))


@pytest.mark.parametrize("M, sign", [
    (0.01 * np.eye(200), 1),
    (1e-110 * np.eye(3), 1),
    (-1e-110 * np.eye(3), -1),
])
def test_component_sign_of_matrices_whose_determinant_underflows(M, sign):
    rep = in_group(M, Group.gl(M.shape[0]))
    assert rep.belongs and rep.component == sign
    assert connected_component_sign(M) == sign


GROUPS = [
    Group.gl(3), Group.sl(3), Group.o(3), Group.so(3), Group.u(3), Group.su(3),
    Group.stochastic(3), Group.gen_doubly_stochastic(3), Group.lorentz11(),
    Group.o11(), Group.heisenberg3(), Group.affine(3),
]

# LUs one in_group call takes on a real member-shaped input: the gauge once,
# plus the |det - 1| defect for sl/so/su and the linear block for affine
LU_COUNTS = {
    "gl": 1, "sl": 2, "o": 1, "so": 2, "u": 1, "su": 2, "stochastic": 1,
    "gds": 1, "lorentz11": 1, "o11": 1, "heis3": 1, "affine": 2,
}


def test_in_group_takes_the_gauge_once(monkeypatch):
    calls = []
    det = np.linalg.det

    def counted(*args, **kwargs):
        calls.append(1)
        return det(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "det", counted)
    assert set(LU_COUNTS) == {g.kind for g in GROUPS}
    for group in GROUPS:
        calls.clear()
        rep = in_group(np.eye(group.n), group)
        assert rep.component == 1
        assert len(calls) == LU_COUNTS[group.kind], group
        # a complex input takes the gauge only where invertibility is part of membership
        calls.clear()
        in_group(np.eye(group.n) + 1e-3j, group)
        gauge = 1 if group.kind in ("gl", "stochastic", "gds") else 0
        assert len(calls) == LU_COUNTS[group.kind] - 1 + gauge, group


def test_component_signs_agree_across_the_library():
    rng = np.random.default_rng(57)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        M = 10.0 ** rng.uniform(-130.0, 40.0) * rng.normal(size=(n, n))
        if rng.uniform() < 0.2:
            M[-1] = M[0]  # singular (n = 1 stays regular)
        component = in_group(M, Group.gl(n)).component
        profile = perfectness_profile(Constant(M), [0.0])
        sign = profile.samples[0].sign
        if component is None:
            assert sign == 0 and not profile.passed
            with pytest.raises(SingularMatrix):
                connected_component_sign(M)
            continue
        sign_ref, _ = np.linalg.slogdet(M)
        assert component == sign == connected_component_sign(M) == int(sign_ref)
        assert profile.passed


# ---------------------------------------------------------------------------
# closed-form charts


def test_heisenberg_exp_examples():
    assert np.array_equal(heisenberg_exp(0.0, 0.0, 0.0), np.eye(3))
    expected = np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(heisenberg_exp(1.0, 0.0, 1.0), expected)


def test_heisenberg_exp_matches_series():
    rng = np.random.default_rng(55)
    for _ in range(100):
        a, b, c = rng.uniform(-3.0, 3.0, size=3)
        X = np.array([[0.0, a, b], [0.0, 0.0, c], [0.0, 0.0, 0.0]])
        assert frob_norm(heisenberg_exp(a, b, c) - taylor_expm(X)) <= 1e-13


def test_heisenberg_exp_round_trip():
    rng = np.random.default_rng(56)
    for _ in range(100):
        a, b, c = rng.uniform(-3.0, 3.0, size=3)
        A = heisenberg_exp(a, b, c)
        a2, c2 = A[0, 1], A[1, 2]
        b2 = A[0, 2] - 0.5 * a2 * c2
        assert max(abs(a2 - a), abs(b2 - b), abs(c2 - c)) <= 1e-13


def test_sl2_iwasawa_examples():
    assert np.allclose(sl2_iwasawa(0.0, 0.0, 0.0), np.eye(2), atol=0.0)
    delta = -1.7
    assert np.allclose(sl2_iwasawa(0.0, 0.0, delta), np.array([[1.0, delta], [0.0, 1.0]]), atol=0.0)
    quarter = sl2_iwasawa(math.pi / 2, 0.0, 0.0)
    assert np.allclose(quarter, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-12)


def test_sl2_iwasawa_determinant():
    rng = np.random.default_rng(57)
    for _ in range(200):
        a, b, d = rng.uniform(-3.0, 3.0, size=3)
        assert abs(np.linalg.det(sl2_iwasawa(a, b, d)) - 1.0) <= 1e-12


def test_sl2_iwasawa_factors_are_exponentials():
    # the three factors are exp(alpha E1), exp(beta E2), exp(delta E3)
    E1 = np.array([[0.0, -1.0], [1.0, 0.0]])
    E2 = np.diag([1.0, -1.0])
    E3 = np.array([[0.0, 1.0], [0.0, 0.0]])
    rng = np.random.default_rng(58)
    for _ in range(20):
        a, b, d = rng.uniform(-2.0, 2.0, size=3)
        product = taylor_expm(a * E1) @ taylor_expm(b * E2) @ taylor_expm(d * E3)
        assert frob_norm(sl2_iwasawa(a, b, d) - product) <= 1e-12


def test_o11_elements():
    assert np.array_equal(o11_element(1, 0.0), np.eye(2))
    t = 1.3
    boost = np.array([[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]])
    assert np.allclose(o11_element(2, t), -boost, atol=0.0)
    assert np.linalg.det(o11_element(2, t)) == pytest.approx(1.0, abs=1e-12)
    for t in (-3.0, 0.1, 2.0):
        assert np.linalg.det(o11_element(3, t)) == pytest.approx(-1.0, abs=1e-10)
    with pytest.raises(ValueError):
        o11_element(5, 0.0)


def test_o11_component_classes_are_distinct_and_constant():
    ts = np.linspace(-3.0, 3.0, 13)
    classes = set()
    for i in (1, 2, 3, 4):
        keys = {
            (int(np.sign(np.linalg.det(o11_element(i, t)))),
             int(np.sign(o11_element(i, t)[0, 0])))
            for t in ts
        }
        assert len(keys) == 1  # constant along the curve
        classes |= keys
    assert len(classes) == 4


def test_lorentz_curve_stays_in_identity_component():
    for t in np.linspace(-3.0, 3.0, 13):
        A = o11_element(1, t)
        assert np.linalg.det(A) == pytest.approx(1.0, abs=1e-10)
        assert A[0, 0] >= 1.0
        assert in_group(A, Group.lorentz11()).belongs


# ---------------------------------------------------------------------------
# stochastic-affine embedding


def test_embed_identity():
    assert np.allclose(stochastic_affine_embed(np.eye(4)), np.eye(4), atol=0.0)


def test_embed_flip_flop_pattern():
    A = FlipFlop(1.0).value(0.7)
    E = stochastic_affine_embed(A)
    assert np.max(np.abs(E[:, -1] - np.array([0.0, 1.0]))) <= 1e-12


def test_embed_is_multiplicative():
    rng = np.random.default_rng(59)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        M1 = rng.uniform(0.1, 1.0, size=(n, n))
        M1 /= M1.sum(axis=1, keepdims=True)
        M2 = rng.uniform(0.1, 1.0, size=(n, n))
        M2 /= M2.sum(axis=1, keepdims=True)
        lhs = stochastic_affine_embed(M1 @ M2)
        rhs = stochastic_affine_embed(M1) @ stochastic_affine_embed(M2)
        assert frob_norm(lhs - rhs) <= 1e-9


def test_embed_lands_in_affine_pattern():
    A = FlipFlop(2.0).value(1.1)
    assert in_group(stochastic_affine_embed(A), Group.affine(2), 1e-9).belongs


def test_embed_rejects_non_stochastic():
    with pytest.raises(NotStochastic):
        stochastic_affine_embed(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_group_hash_is_the_dataclass_hash_taken_once():
    # the hash a frozen dataclass of these fields gives; a copy, a replaced and
    # an unpickled group hash as an equal new one, the last with no hash of its own
    Plain = dataclasses.make_dataclass("Plain", ["kind", "n", "s"], frozen=True)
    for g in (Group.so(3), Group.gen_doubly_stochastic(4, 2.5), Group.heisenberg3()):
        assert hash(g) == hash(Plain(g.kind, g.n, g.s)) == hash((g.kind, g.n, g.s))
        for other in (copy.copy(g), copy.deepcopy(g), dataclasses.replace(g), pickle.loads(pickle.dumps(g))):
            assert other == g and hash(other) == hash(g) and {g: 1}[other] == 1
        assert b"_hash" not in pickle.dumps(g)
    assert Group.so(3) != Group.o(3) and len({Group.so(3), Group.so(3), Group.so(4)}) == 2
