"""The three workloads: seeded rounds of checks with known verdicts.

A check is one call into evolflow that verifies one law on one input; its
expected verdict is fixed by how the input was built, and `verify` judges
the output without evolflow (closed forms from `closed_forms`, numpy residuals,
the CLI's JSON and CSV files).  Every round of a workload has the same
composition, with fresh inputs drawn from the round's generator, so a
cache that outlives one check cannot serve the next round.

Checks whose failure is a documented defect carry a `Defect`: the failure
still counts in `failed`, but it does not make the run incorrect as long
as it fails in the documented way.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

import closed_forms
import reference

GRID = [float(t) for t in np.linspace(-2.0, 2.0, 41)]
GRID_NONNEG = [t for t in GRID if t >= 0.0]
CLI_GRID = "-2:2:0.1"
DENSE_SIZES = (50, 100, 200, 300)
CLI_SIZES = (2, 3, 4)
OVERSCALED_SUM_SEED = 2202

ORACLE_TOL = 1e-12   # closed-form exponentials: expm claims ~1e-15 relative
STEP_TOL = 1e-9      # RK4 marching (h = 1e-3) and Simpson quadrature
LAW_TOL = 1e-9       # the library's default residual tolerance


class Defect(NamedTuple):
    """A documented defect: how the check fails today."""

    name: str
    raises: str | None  # exception class name, or None for a wrong verdict


DET_TRACE_UNDERFLOW = Defect("det_trace_underflow", "ZeroDivisionError")
STOCHASTIC_GAUGE = Defect("stochastic_gauge", None)
EXPM_OVERSCALING = Defect("expm_overscaling", None)
MAGNUS_SILENT = Defect("magnus_silent_nonconvergence", None)

DEFECTS = {
    DET_TRACE_UNDERFLOW.name: "det_trace_identity divides by e^{t tr Q}, which underflows "
                              "to 0 for random rates at n >= 50",
    STOCHASTIC_GAUGE.name: "the entry-normalized determinant gauge calls exp(0.5 Q) "
                           "singular at n >= 50, so in_group(stochastic) says no",
    EXPM_OVERSCALING.name: "expm picks squarings from the 1-norm alone and loses about "
                           "7 digits on [[1, 1e8], [0, -1]], alone or in a direct sum",
    MAGNUS_SILENT.name: "commuting_magnus stops at its 8193-node cap without saying so "
                        "on sin(2000 t) Q and exits 0 with a wrong result",
}


@dataclass
class Check:
    kind: str
    n: int
    call: Callable[[], Any]
    verify: Callable[[Any], tuple]  # output -> (verdict, oracle relative error or None)
    expect: bool = True
    defect: Defect | None = None


class CliResult(NamedTuple):
    code: int
    stdout: str
    files: tuple  # output files the invocation was asked to write


def _verdict(flag):
    return bool(flag), None


# ---------------------------------------------------------------------------
# input generators (numpy only)


def rate_matrix(rng, n, scale=1.0):
    """Off-diagonal rates uniform on [0, scale], rows summing to zero."""
    Q = rng.uniform(0.0, scale, size=(n, n))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def orthogonal(rng, n):
    """Haar-like orthogonal matrix with determinant +1."""
    Qm, R = np.linalg.qr(rng.normal(size=(n, n)))
    Qm = Qm * np.sign(np.diag(R))
    if np.linalg.det(Qm) < 0.0:
        Qm[:, 0] = -Qm[:, 0]
    return Qm


def ones_fixing_orthogonal(rng, n):
    """Product of two reflections whose normals are orthogonal to the ones vector.

    Rows and columns sum to 1, the determinant is +1 and the entries are
    at most 1 in size: a member of the generalized doubly stochastic group.
    """
    M = np.eye(n)
    for _ in range(2):
        v = rng.normal(size=n)
        v -= v.mean()
        M = M @ (np.eye(n) - 2.0 * np.outer(v, v) / (v @ v))
    return M


def perturbed(rng, M, size=1e-3):
    E = rng.normal(size=M.shape)
    return M + size * E / np.linalg.norm(E)


def direct_sum(rng, n, kinds=("triangular", "rotation", "boost", "flip_flop")):
    blocks = []
    for i in range(n // 2):
        kind = kinds[i % len(kinds)]
        if kind == "triangular":
            params = (rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(-1, 1))
        elif kind == "rotation":
            params = (rng.uniform(0.5, 1.5),)
        elif kind == "boost":
            params = (rng.uniform(0.2, 0.8),)
        else:
            params = (rng.uniform(0.5, 1.5),)
        blocks.append((kind, params))
    return closed_forms.DirectSum(blocks, rng.permutation(n))


def sl2_element(rng):
    """Iwasawa product rotation(a) diag(e^b, e^-b) shear(d): determinant 1."""
    a, b, d = rng.uniform(-1.0, 1.0, size=3)
    R = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    return R @ np.diag([math.exp(b), math.exp(-b)]) @ np.array([[1.0, d], [0.0, 1.0]])


def seeded_times(rng, count=4, t_max=1.6):
    """One time in each of `count` equal strata of (0, t_max]: irregular but spread."""
    width = t_max / count
    return [float((k + rng.uniform(0.1, 0.9)) * width) for k in range(count)]


def _curve_err(values, exact_at):
    return max(closed_forms.rel_err(V, exact_at(t)) for t, V in zip(GRID, values))


# ---------------------------------------------------------------------------
# grid_small: n = 2-5, the 41-point grid on [-2, 2]


def _flow_case(lib, kind, n, rng):
    """The acceptance suite's so/rate/sl2/heis3 mix, with a base in the group.

    Rates are drawn on [0, 0.25] and sl(2) generators halved so that
    exp(tX) stays O(10) over |t| <= 4: the composition residual is an
    absolute norm and the stochastic membership of Phi(t, A) is re-checked
    at tolerance 1e-9 on every application.
    """
    G = lib.lie.Group
    if kind == "so":
        S = rng.normal(size=(n, n))
        X, base, group = 0.5 * (S - S.T), orthogonal(rng, n), lambda: G.so(n)
    elif kind == "rate":
        R = rng.uniform(0.0, 1.0, size=(n, n))
        R /= R.sum(axis=1, keepdims=True)
        X, base, group = rate_matrix(rng, n, 0.25), 0.6 * np.eye(n) + 0.4 * R, lambda: G.stochastic(n)
    elif kind == "sl2":
        X = 0.5 * rng.normal(size=(2, 2))
        X -= np.trace(X) / 2.0 * np.eye(2)
        base, group = sl2_element(rng), lambda: G.sl(2)
    else:
        X = np.triu(rng.normal(size=(3, 3)), 1)
        base, group = np.eye(3) + np.triu(rng.normal(size=(3, 3)), 1), G.heisenberg3
    return lambda: lib.flows.flow_axioms(lib.flows.Flow(X, group()), [base], GRID)


def _expline_oracle(lib, kind, X, exact_at, defect=None):
    n = X.shape[0]

    def call():
        curve = lib.curves.ExpLine(np.eye(n), X)
        return [curve.value(t) for t in GRID]

    def verify(values):
        err = _curve_err(values, exact_at)
        return err <= ORACLE_TOL, err

    return Check("oracle." + kind, n, call, verify, defect=defect)


def _field(name):
    """verify() for a check whose verdict is one boolean field of the report."""
    return lambda report: _verdict(getattr(report, name))


# (kind, n) of the flow_axioms checks in a round
FLOW_CASES = (("so", 2), ("so", 4), ("rate", 3), ("rate", 5), ("sl2", 2), ("heis3", 3))


def grid_small_round(lib, ctx, rng, r):
    # Every round has the same checks at the same sizes; the seed and the
    # round index change entries only.  The mix places p90 inside the
    # flow_axioms checks and p50 inside the 2-6 ms oracle, kolmogorov and
    # perfectness checks, away from the gaps between bands.
    c, m, ev, lie = lib.curves, lib.markov, lib.evoalg, lib.lie
    size = 4
    checks = []

    for kind, n in FLOW_CASES:
        checks.append(Check("flow_axioms." + kind, n, _flow_case(lib, kind, n, rng), _field("passed")))

    for n in (3, 5):
        curve = c.ExpLine(np.eye(n), 0.5 * rng.normal(size=(n, n)))
        checks.append(Check("subgroup.exp_line", n,
                            lambda curve=curve: c.check_one_parameter_subgroup(curve, GRID),
                            _field("passed")))
    curve = c.AffineLine(rng.normal(size=(size, size)))
    checks.append(Check("subgroup.affine_line", size,
                        lambda curve=curve: c.check_one_parameter_subgroup(curve, GRID),
                        _field("passed"), expect=False))

    checks.append(Check("axioms_report", size,
                        lambda Q=rate_matrix(rng, size): m.axioms_report(m.validate_rate(Q), GRID_NONNEG),
                        _field("passed")))

    # closed-form oracles along the grid
    a, b, cc = rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(-1, 1)
    checks.append(_expline_oracle(lib, "triangular", np.array([[a, b], [0.0, cc]]),
                                  lambda t: closed_forms.triangular(t * a, t * b, t * cc)))
    checks.append(_expline_oracle(lib, "triangular_b1e8", np.array([[1.0, 1e8], [0.0, -1.0]]),
                                  lambda t: closed_forms.triangular(t, t * 1e8, -t),
                                  defect=EXPM_OVERSCALING))
    th = rng.uniform(0.5, 1.5)
    checks.append(_expline_oracle(lib, "rotation", th * np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                  lambda t: closed_forms.rotation(t * th)))
    ph = rng.uniform(0.2, 0.8)
    checks.append(_expline_oracle(lib, "boost", ph * np.array([[0.0, 1.0], [1.0, 0.0]]),
                                  lambda t: closed_forms.boost(t * ph)))
    ha, hb, hc = rng.uniform(-1, 1, size=3)
    checks.append(_expline_oracle(lib, "heisenberg",
                                  np.array([[0.0, ha, hb], [0.0, 0.0, hc], [0.0, 0.0, 0.0]]),
                                  lambda t: closed_forms.heisenberg(t * ha, t * hb, t * hc)))
    checks.append(_flip_flop_oracle(lib, rng.uniform(0.5, 1.5)))

    for n in (3, 5):
        checks.append(Check(
            "kolmogorov", n,
            lambda Q=rate_matrix(rng, n, 0.5): m.kolmogorov_residuals(m.validate_rate(Q), GRID),
            lambda res: _verdict(max(res) <= LAW_TOL)))

    for singular, n in ((False, 5), (True, 3)):
        A0 = rng.normal(size=(n, n))
        if singular:
            A0[-1] = A0[0]
        curve = c.ExpLine(A0, 0.5 * rng.normal(size=(n, n)))
        checks.append(Check("perfectness" + (".singular" if singular else ""), n,
                            lambda curve=curve: c.perfectness_profile(curve, GRID),
                            _field("passed"), expect=not singular))

    checks.extend(_slice_checks(lib, rng, 3))

    n = 5
    O = orthogonal(rng, n)
    for M, expect in ((O, True), (perturbed(rng, O), False)):
        checks.append(Check("in_group.so" + ("" if expect else ".perturbed"), n,
                            lambda M=M, n=n: lie.in_group(M, lie.Group.so(n)),
                            _field("belongs"), expect=expect))
    return checks


def _flip_flop_oracle(lib, lam):
    m = lib.markov

    def verify(values):
        err = _curve_err(values, lambda t: closed_forms.flip_flop(lam, t))
        return err <= ORACLE_TOL, err

    return Check("oracle.flip_flop", 2,
                 lambda: [m.semigroup_at(m.flip_flop_rate(lam), t).matrix for t in GRID], verify)


def _slice_checks(lib, rng, n):
    """Evolution-algebra laws on slices of a curve frozen at one grid time."""
    c, ev = lib.curves, lib.evoalg
    curve = c.ExpLine(rng.normal(size=(n, n)), 0.5 * rng.normal(size=(n, n)))
    t = float(rng.choice(GRID))
    x, y, z = rng.normal(size=(3, n))
    alpha, beta = rng.normal(size=2)

    def mul_laws():
        alg = ev.EvolutionAlgebra(curve.value(t))
        return (ev.evo_mul(alg, x, y), ev.evo_mul(alg, y, x),
                ev.evo_mul(alg, alpha * x + beta * z, y),
                alpha * ev.evo_mul(alg, x, y) + beta * ev.evo_mul(alg, z, y))

    def mul_verify(out):
        xy, yx, lhs, rhs = out
        scale = max(1.0, float(np.abs(xy).max()))
        return bool(np.abs(xy - yx).max() <= 1e-12 * scale
                    and np.abs(lhs - rhs).max() <= 1e-12 * scale * (abs(alpha) + abs(beta))), None

    def operator_law():
        alg = ev.EvolutionAlgebra(curve.value(t))
        return ev.evolution_operator(alg) @ x, ev.evo_mul(alg, alg.evolution_element(), x)

    def operator_verify(out):
        return _verdict(np.abs(out[0] - out[1]).max() <= 1e-12 * max(1.0, float(np.abs(out[1]).max())))

    checks = [Check("evoalg.mul_laws", n, mul_laws, mul_verify),
              Check("evoalg.operator", n, operator_law, operator_verify)]
    for singular in (False, True):
        B = rng.normal(size=(n, n))
        if singular:
            B[-1] = B[0]
        sliced = c.ExpLine(B, curve.X)
        checks.append(Check("evoalg.is_perfect" + (".singular" if singular else ""), n,
                            lambda sliced=sliced: ev.is_perfect(ev.EvolutionAlgebra(sliced.value(t))),
                            _field("perfect"), expect=not singular))
    flip_flop = c.FlipFlop(rng.uniform(0.5, 1.5))
    for s in (rng.uniform(0.2, 2.0), -rng.uniform(0.2, 2.0)):
        checks.append(Check("evoalg.is_markov" + ("" if s > 0 else ".negative_t"), 2,
                            lambda s=s: ev.is_markov_algebra(ev.EvolutionAlgebra(flip_flop.value(s))),
                            _verdict, expect=s > 0))
    return checks


def grid_small_warmup(lib, ctx):
    lib.curves.ExpLine(np.eye(2), np.eye(2)).value(0.5)
    lib.flows.flow_apply(lib.flows.Flow(np.zeros((2, 2)), lib.lie.Group.so(2)), 0.5, np.eye(2))
    lib.markov.kolmogorov_residuals(lib.markov.flip_flop_rate(1.0), [0.0, 1.0])
    lib.evoalg.is_perfect(lib.evoalg.EvolutionAlgebra(np.eye(3)))


# ---------------------------------------------------------------------------
# dense_large: n in {50, 100, 200, 300}, distinct seeded times


def _markov_verify(sample):
    A = sample.matrix
    return bool(A.min() >= -1e-12 and np.abs(A.sum(axis=1) - 1.0).max() <= 1e-10), None


def _direct_sum_verify(D, t):
    def verify(E):
        err = closed_forms.rel_err(E, D.exp(t))
        return err <= ORACLE_TOL, err
    return verify


def dense_large_round(lib, ctx, rng, r):
    checks = []
    for n in DENSE_SIZES:
        checks.extend(_dense_checks(lib, rng, n))
    return checks


def _dense_checks(lib, rng, n):
    m, lie, ev, c = lib.markov, lib.lie, lib.evoalg, lib.curves
    Q = rate_matrix(rng, n)
    ts = seeded_times(rng)
    checks = [
        Check("axioms_report", n, lambda: m.axioms_report(m.validate_rate(Q), ts), _field("passed")),
        Check("det_trace_identity", n, lambda: m.det_trace_identity(m.validate_rate(Q), ts),
              lambda worst: _verdict(worst <= 1e-8), defect=DET_TRACE_UNDERFLOW),
        Check("semigroup_at", n, lambda: m.semigroup_at(m.validate_rate(Q), ts[1]), _markov_verify),
    ]

    O = orthogonal(rng, n)
    P = lib.matcore.expm(0.5 * Q)
    bad_P = P.copy()
    bad_P[0] *= 1.01
    H = ones_fixing_orthogonal(rng, n)
    cases = [
        ("so", O, lie.Group.so, True, None),
        ("so.perturbed", perturbed(rng, O), lie.Group.so, False, None),
        ("stochastic", P, lie.Group.stochastic, True, STOCHASTIC_GAUGE),
        ("stochastic.perturbed", bad_P, lie.Group.stochastic, False, None),
        ("gds", H, lie.Group.gen_doubly_stochastic, True, None),
        ("gds.perturbed", perturbed(rng, H), lie.Group.gen_doubly_stochastic, False, None),
    ]
    for kind, M, group, expect, defect in cases:
        checks.append(Check("in_group." + kind, n, lambda M=M, group=group: lie.in_group(M, group(n)),
                            _field("belongs"), expect=expect, defect=defect))

    checks.append(Check("is_perfect", n, lambda: ev.is_perfect(ev.EvolutionAlgebra(O)),
                        _field("perfect")))
    checks.append(Check("is_perfect.rate", n, lambda: ev.is_perfect(ev.EvolutionAlgebra(Q)),
                        _field("perfect"), expect=False))
    curve = c.ExpLine(O, 0.5 * rng.normal(size=(n, n)) / math.sqrt(n))
    checks.append(Check("perfectness", n, lambda: c.perfectness_profile(curve, ts[:3]),
                        _field("passed")))

    D = direct_sum(rng, n)
    generator = D.generator()
    checks.append(Check("oracle.direct_sum", n, lambda: lib.matcore.expm(ts[2] * generator),
                        _direct_sum_verify(D, ts[2])))
    if n == DENSE_SIZES[-1]:
        # A sum with one [[1, 1e8], [0, -1]] block, so every block is squared
        # as often as that one needs.  Its error depends on the other blocks
        # and the permutation (from 3e-12 to 1.3e-2 over seeded sums), so
        # this input is fixed.
        D = direct_sum(np.random.default_rng(OVERSCALED_SUM_SEED), n)
        D.blocks[0] = ("triangular", (1.0, 1e8, -1.0))
        big = D.generator()
        checks.append(Check("oracle.direct_sum_b1e8", n, lambda: lib.matcore.expm(big),
                            _direct_sum_verify(D, 1.0), defect=EXPM_OVERSCALING))
    return checks


def dense_large_warmup(lib, ctx):
    for n in DENSE_SIZES:
        lib.matcore.expm(np.eye(n) * 0.01)
        lib.lie.in_group(np.eye(n), lib.lie.Group.so(n))


# ---------------------------------------------------------------------------
# cli_march: in-process `cli.run` on files written during set-up, n = 2-4


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _matrix_json(M):
    M = np.asarray(M, dtype=float)
    return {"n": M.shape[0], "real": M.tolist()}


def _gen_json(terms):
    """Matrix function: terms are (kind, scale, matrix) with fun = kind(scale t)."""
    return {"terms": [{"fun": {"kind": k, "scale": s, "shift": 0.0}, "matrix": _matrix_json(M)}
                      for k, s, M in terms]}


def _commuting_generator(rng, n):
    """(M, F -> exp(F M)) for a generator whose exponential has a closed form."""
    if n == 3:
        a, b, c = rng.uniform(-1.0, 1.0, size=3)
        M = np.array([[0.0, a, b], [0.0, 0.0, c], [0.0, 0.0, 0.0]])
        return M, lambda F: closed_forms.heisenberg(F * a, F * b, F * c)
    D = direct_sum(rng, n, kinds=("rotation", "boost"))
    return D.generator(), D.exp


def cli_march_prepare(rng, workdir):
    """Write every input file; returns the paths and the closed forms to check against."""
    p = lambda name: os.path.join(workdir, name)  # noqa: E731
    ctx = {"dir": workdir}

    # ode-solve and a numeric curve for n = 2, 3, 4: X(t) = cos(w t) M with
    # M commuting with itself, so A(T) = A0 exp(sin(w T) / w M) in closed form
    for n in CLI_SIZES:
        M, exp_of = _commuting_generator(rng, n)
        w = rng.uniform(0.5, 2.0)
        A0 = rng.normal(size=(n, n))
        _write_json(p(f"ode_gen_{n}.json"), _gen_json([("cos", w, M)]))
        _write_json(p(f"ode_a0_{n}.json"), _matrix_json(A0))
        E = exp_of(math.sin(2.0 * w) / w)
        ctx[f"ode_right_{n}"], ctx[f"ode_left_{n}"] = A0 @ E, E @ A0

        M, exp_of = _commuting_generator(rng, n)
        v = rng.uniform(0.5, 2.0)
        B0 = rng.normal(size=(n, n))
        _write_json(p(f"numeric_{n}.json"), {"variant": "numeric", "A0": _matrix_json(B0),
                                             "generator": _gen_json([("cos", v, M)]),
                                             "h": 1e-3, "horizon": 2.0})
        ctx[f"numeric_{n}"] = lambda t, B0=B0, v=v, exp_of=exp_of: B0 @ exp_of(math.sin(v * t) / v)

    # magnus: commuting cos(t) Q, non-commuting, and the high-frequency
    # sin(2000 t) Q.  Inputs are fixed: the quadrature refines until it
    # converges, so its cost would otherwise depend on the seed.
    _write_json(p("magnus_commuting.json"),
                _gen_json([("cos", 1.0, np.array([[-1.0, 1.0], [1.0, -1.0]]))]))
    ctx["magnus_commuting"] = closed_forms.flip_flop(1.0, math.sin(0.5))
    E12, E21 = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])
    _write_json(p("magnus_noncommuting.json"), _gen_json([("cos", 1.0, E12), ("sin", 1.0, E21)]))
    _write_json(p("magnus_highfreq.json"),
                _gen_json([("sin", 2000.0, np.array([[-1.0, 1.0], [1.0, -1.0]]))]))
    ctx["magnus_highfreq"] = closed_forms.flip_flop(1.0, (1.0 - math.cos(4000.0)) / 2000.0)
    _write_json(p("eye2.json"), _matrix_json(np.eye(2)))

    # markov-semigroup on a permuted sum of two flip-flops
    S = direct_sum(rng, 4, kinds=("flip_flop",))
    _write_json(p("rate4.json"), _matrix_json(S.generator()))
    ctx["semigroup"] = S.exp

    # flow-orbit on SO(4): X a permuted sum of two rotation generators
    R = direct_sum(rng, 4, kinds=("rotation",))
    O4 = orthogonal(rng, 4)
    _write_json(p("so4_gen.json"), _matrix_json(R.generator()))
    _write_json(p("so4_base.json"), _matrix_json(O4))
    ctx["orbit"] = lambda t: O4 @ R.exp(t)

    # membership commands: one member and one non-member each
    O3 = orthogonal(rng, 3)
    Q3 = rate_matrix(rng, 3)
    Q3_bad = Q3.copy()
    Q3_bad[0, 1] = -0.5
    for name, M in (("so", O3), ("so_bad", perturbed(rng, O3)), ("rate", Q3), ("rate_bad", Q3_bad)):
        _write_json(p(f"member_{name}.json"), _matrix_json(M))
    return ctx


def _cli(lib, argv, files=()):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lib.cli.run(argv)
    return CliResult(code, out.getvalue(), tuple(files))


def _report(res: CliResult):
    """(passed, report): exit 0 with status pass, or exit 1 with status fail.

    Anything else (a usage or input error, exit 2) raises, so an expected
    "fail" verdict cannot be met by an error.
    """
    doc = json.loads(res.stdout)
    if (res.code, doc["status"]) not in ((0, "pass"), (1, "fail")):
        raise ValueError(f"cli exit {res.code} with status {doc['status']!r}")
    return res.code == 0, doc


def _json_matrix(obj):
    return np.asarray(obj["real"], dtype=float)


def cli_march_round(lib, ctx, rng, r):
    p = lambda name: os.path.join(ctx["dir"], name)  # noqa: E731
    checks = []

    def cli_check(kind, n, argv, verify, files=(), expect=True, defect=None):
        checks.append(Check("cli." + kind, n, lambda: _cli(lib, argv, files), verify,
                            expect=expect, defect=defect))

    def final_matrix(exact):
        def verify(res):
            passed, doc = _report(res)
            err = closed_forms.rel_err(_json_matrix(doc["payload"]["final"]), exact)
            return passed and doc["payload"]["n_steps"] == 2000 and err <= STEP_TOL, err
        return verify

    def curve_verify(n):
        def verify(res):
            passed, doc = _report(res)
            samples = doc["payload"]["samples"]
            err = max(closed_forms.rel_err(_json_matrix(s["matrix"]), ctx[f"numeric_{n}"](s["t"]))
                      for s in samples)
            return passed and len(samples) == 41 and err <= STEP_TOL, err
        return verify

    def csv_final(n, path):
        def verify(res):
            passed, _ = _report(res)
            rows = _csv_rows(path)
            final = np.array(rows[-1][1:1 + n * n], dtype=float).reshape(n, n)
            err = closed_forms.rel_err(final, ctx[f"ode_right_{n}"])
            return passed and len(rows) == 2001 and err <= STEP_TOL, err
        return verify

    for n in CLI_SIZES:
        ode = ["ode-solve", "--gen-spec", p(f"ode_gen_{n}.json"), "--a0", p(f"ode_a0_{n}.json"),
               "--T", "2", "--h", "1e-3"]
        for side in ("right", "left"):
            cli_check("ode_solve." + side, n, ode + ["--side", side], final_matrix(ctx[f"ode_{side}_{n}"]))
        out = p(f"ode_{n}.csv")
        cli_check("ode_solve.csv", n, ode + ["--out", out], csv_final(n, out), files=(out,))
        cli_check("curve_eval.numeric", n, ["curve-eval", "--curve", p(f"numeric_{n}.json"), "--t", CLI_GRID],
                  curve_verify(n))

    def result_matrix(exact, tol):
        def verify(res):
            passed, doc = _report(res)
            err = closed_forms.rel_err(_json_matrix(doc["payload"]["result"]), exact)
            return passed and err <= tol, err
        return verify

    cli_check("magnus.commuting", 2,
              ["magnus", "--gen-spec", p("magnus_commuting.json"), "--a0", p("eye2.json"), "--t", "0.5"],
              result_matrix(ctx["magnus_commuting"], STEP_TOL))
    cli_check("magnus.noncommuting", 2,
              ["magnus", "--gen-spec", p("magnus_noncommuting.json"), "--a0", p("eye2.json"), "--t", "1.0"],
              lambda res: (_report(res)[0], None), expect=False)

    def highfreq_verify(res):
        # the report is right either as an accurate result or as a failure
        passed, doc = _report(res)
        if not passed:
            return True, None
        err = closed_forms.rel_err(_json_matrix(doc["payload"]["result"]), ctx["magnus_highfreq"])
        return err <= STEP_TOL, err

    cli_check("magnus.high_frequency", 2,
              ["magnus", "--gen-spec", p("magnus_highfreq.json"), "--a0", p("eye2.json"), "--t", "2.0"],
              highfreq_verify, defect=MAGNUS_SILENT)

    def semigroup_verify(res):
        passed, doc = _report(res)
        samples = doc["payload"]["samples"]
        err = max(closed_forms.rel_err(_json_matrix(s["matrix"]), ctx["semigroup"](s["t"])) for s in samples)
        return (passed and len(samples) == 17 and len(_csv_rows(p("semigroup.csv"))) == 17
                and err <= ORACLE_TOL), err

    cli_check("markov_semigroup", 4,
              ["markov-semigroup", "--rate", p("rate4.json"), "--t", "0:4:0.25", "--out", p("semigroup.csv")],
              semigroup_verify, files=(p("semigroup.csv"),))

    def orbit_verify(res):
        passed, _ = _report(res)
        rows = _csv_rows(p("orbit.csv"))
        err = max(closed_forms.rel_err(np.array(row[1:17], dtype=float).reshape(4, 4), ctx["orbit"](float(row[0])))
                  for row in rows)
        return passed and len(rows) == 41 and err <= ORACLE_TOL, err

    cli_check("flow_orbit", 4,
              ["flow-orbit", "--generator", p("so4_gen.json"), "--base", p("so4_base.json"),
               "--group", "so", "--grid", CLI_GRID, "--out", p("orbit.csv")],
              orbit_verify, files=(p("orbit.csv"),))

    membership = lambda res: (_report(res)[0], None)  # noqa: E731
    for command, flag, kind in (("group-check", "--group", "so"), ("algebra-check", "--algebra", "rate")):
        for suffix, expect in (("", True), ("_bad", False)):
            cli_check(f"{command}.{kind}{suffix}", 3, [command, p(f"member_{kind}{suffix}.json"), flag, kind],
                      membership, expect=expect)
    return checks


def _csv_rows(path):
    """Data rows of a CSV file, header dropped."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def cli_march_warmup(lib, ctx):
    _cli(lib, ["group-check", os.path.join(ctx["dir"], "member_so.json"), "--group", "so"])


class Workload(NamedTuple):
    prepare: Callable   # (rng, workdir) -> context shared by every round
    build_round: Callable  # (lib, context, rng, round index) -> [Check]
    warmup: Callable    # (lib, context) -> None
    reference: tuple    # reference kernels with the workload's kind of work
    reference_s: float  # their time together at the host's fast speed (2-vCPU KVM host)


def _no_files(rng, workdir):
    return {}


WORKLOADS = {
    "grid_small": Workload(_no_files, grid_small_round, grid_small_warmup,
                           (reference.small_matrix,), 0.009),
    "dense_large": Workload(_no_files, dense_large_round, dense_large_warmup,
                            (reference.dense,), 0.019),
    "cli_march": Workload(cli_march_prepare, cli_march_round, cli_march_warmup,
                          (reference.small_matrix, reference.text), 0.014),
}
