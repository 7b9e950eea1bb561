"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's own code paths: the exponential is
a scaled truncated Taylor sum, the determinant is a cofactor expansion,
the algebra product expands bilinearity over all basis pairs, and matrix
validation is written with numpy's generic predicates.  The RK4 march is
the exception: it reuses `rk4_step`, but evaluates the generator
through `checked_generator` at every one of its four calls a step, with
no table of values in between.  `reference_magnus` likewise sums its
Simpson nodes one checked call at a time, in node order.
`a_form_rk4_step` is the step as it was before it took the propagator
form, A + h/6 (k1 + 2 k2 + 2 k3 + k4) with k1 = A X(t),
k2 = (A + h/2 k1) X(t + h/2) and so on: the same method, rounded
differently, kept as the reference for that rounding change.
`expression_rk4_step` is `rk4_step` as it was before its stage sums went
in place: one expression a stage, a fresh array for each operation, the
reference for the in-place step's bits and dtypes.
`per_call_axioms_report` is the other exception: `markov.axioms_report`
as it was when it took one `expm` per distinct time, kept verbatim as the
reference for its results and its peak memory.  So is
`per_call_kolmogorov_residuals`, `markov.kolmogorov_residuals` as it was
with one `expm` call per grid point.  `per_pair_subgroup_report` is
`curves.check_one_parameter_subgroup` as it was with one residual a grid
pair, the reference for the stacked stage's results and peak memory.
`per_pair_flow_axioms` is `flows.flow_axioms` as it was with one residual
a grid pair, and `per_time_plan` is `matcore._plan` as it was with one
t * X a time: the references for the stacked residual stage and the
stacked plan.  `reference_expm` is `matcore.expm` as it was before its
one-matrix path took `ndarray.dot` and formed the Pade parts v and u
together, from one stack of its powers:
the helper chain `ReferencePowers` -> `reference_degree` ->
`reference_approximant` -> `reference_pade` (v and u one at a time) ->
`reference_square`, every product an `@`, kept as the reference for those
changes' bits.  `per_time_perfectness_profile` and the CLI handlers
`per_time_curve_eval`, `per_time_markov_semigroup` and `per_time_flow_orbit`
are `curves.perfectness_profile` and `cli`'s `curve-eval`, `markov-semigroup`
and `flow-orbit` as they were with one `value`, `semigroup_at` or `expm` call
a time: the references for `Curve.values` and its consumers' reports, CSVs
and peak memory.  `per_row_samples_csv` is `cli._write_samples_csv` as it
was before float64 rows took their text from `_csvtext.rows_text`: every
field's str, one row at a time, the reference for the CSV bytes, which
the three `per_time_*` handlers write.  `jsonable` and `reference_report_json`
are `cli.Report.to_json` as it was before it wrote its text in one pass:
the document made JSON-ready by `jsonable`, then `json.dumps(...,
indent=2, sort_keys=True)`, the reference for every report's bytes.
"""

import contextlib
import json
import math

import numpy as np

from evolflow import _stepper, cli, flows, jsonio, lie, markov
from evolflow._stepper import checked_generator, rk4_step
from evolflow.errors import DimensionMismatch, NonFiniteInput
from evolflow.curves import ExpLine, PerfectnessProfile, PerfectnessSample, SubgroupReport
from evolflow.evoalg import EvolutionAlgebra, is_perfect
from evolflow.flows import FlowAxiomsReport, flow_apply
from evolflow.markov import NONNEG_TOL, AxiomsReport, KolmogorovResiduals
from evolflow.matcore import (_ELL_ROOT, _ELL_UC, _EVEN_POWERS, _STACK_BELOW_N, _THETA, _THETA13_LIMITS,
                              _halvings, _scale, _scaling_norm, _squarings, as_matrix, expm, frob_norm, memo,
                              nonempty, worst)


def taylor_expm(M, terms=60):
    """Truncated-series exponential, scaled so the Frobenius norm is <= 0.5."""
    M = np.asarray(M)
    n = M.shape[0]
    k = 0
    norm = np.linalg.norm(M)
    while norm / 2.0**k > 0.5:
        k += 1
    A = M / 2.0**k
    acc = np.eye(n, dtype=A.dtype)
    term = np.eye(n, dtype=A.dtype)
    for m in range(1, terms):
        term = term @ A / m
        acc = acc + term
    for _ in range(k):
        acc = acc @ acc
    return acc


def cofactor_det(M):
    """Determinant by recursive cofactor expansion along the first row."""
    M = np.asarray(M)
    n = M.shape[0]
    if n == 1:
        return M[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total = total + (-1.0) ** j * M[0, j] * cofactor_det(minor)
    return total


def brute_evo_mul(A, x, y):
    """Expand the product over all basis pairs; only diagonal pairs survive."""
    A = np.asarray(A)
    n = A.shape[0]
    out = np.zeros(n, dtype=np.result_type(A, x, y))
    for i in range(n):
        for j in range(n):
            if i == j:
                out = out + x[i] * y[j] * A[i]
    return out


def a_form_rk4_step(A, t, h, gen):
    """One classical Runge-Kutta step of size h from (t, A), in the A form."""
    k1 = A @ gen(t)
    k2 = (A + 0.5 * h * k1) @ gen(t + 0.5 * h)
    k3 = (A + 0.5 * h * k2) @ gen(t + 0.5 * h)
    k4 = (A + h * k3) @ gen(t + h)
    return A + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def expression_rk4_step(A, t, h, gen):
    """One classical Runge-Kutta step of size h from (t, A) in the propagator form, an expression a stage."""
    I = np.eye(A.shape[-1])
    w = np.float64(h)
    k1 = gen(t)
    k2 = (I + 0.5 * w * k1) @ gen(t + 0.5 * h)
    k3 = (I + 0.5 * w * k2) @ gen(t + 0.5 * h)
    k4 = (I + w * k3) @ gen(t + h)
    return A @ (I + (w / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def per_step_march(fun, A0, h, horizon, direction, step=rk4_step):
    """RK4 nodes (ts, ms) calling the checked generator four times a step.

    Node k sits at direction * min(k h, horizon); the march stops at the
    first node within min(1e-12, 1e-9 h) of the horizon.
    """
    gen = checked_generator(fun, A0.shape[0])
    ts, ms = [0.0], [A0.copy()]
    t, A = 0.0, A0
    k = 0
    while direction * t < horizon - min(1e-12, 1e-9 * h):
        k += 1
        nxt = direction * min(k * h, horizon)
        A = step(A, t, nxt - t, gen)
        t = nxt
        ts.append(t)
        ms.append(A)
    return ts, ms


def reference_simpson(gen, t, nodes):
    """Composite Simpson rule of gen over [0, t], one node at a time in node order."""
    xs = np.linspace(0.0, t, nodes)
    h = (t - 0.0) / (nodes - 1)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    acc = w[0] * gen(xs[0])
    for i in range(1, nodes):
        acc = acc + w[i] * gen(xs[i])
    return (h / 3.0) * acc


def reference_magnus(fun, A0, t):
    """`flows.commuting_magnus` without its commutator check, one checked call a node."""
    gen = checked_generator(fun, A0.shape[0])
    nodes = 129
    omega = reference_simpson(gen, t, nodes)
    while nodes < 8193:
        nodes = 2 * nodes - 1
        refined = reference_simpson(gen, t, nodes)
        done = frob_norm(refined - omega) <= 1e-11
        omega = refined
        if done:
            break
    return A0 @ expm(omega)


def reference_as_matrix(a, name="matrix"):
    """`matcore.as_matrix` through `np.iscomplexobj` and `np.all(np.isfinite(...))`."""
    M = np.asarray(a)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    M = M.astype(np.complex128 if np.iscomplexobj(M) else np.float64, copy=False)
    if not np.all(np.isfinite(M)):
        raise NonFiniteInput(f"{name} has non-finite entries")
    return M


def per_call_axioms_report(rate, grid, tol=1e-9):
    """Check the four standard stochastic semigroup axioms.

    (i) each A(t) is Markov, (ii) A(0) = I, (iii) Chapman-Kolmogorov on
    all grid pairs, (iv) A(t) -> I componentwise as t -> 0+, checked along
    t = 2^-k for k = 1..20 against the rigorous bound e^||tQ|| - 1 and for
    monotone decrease.
    """
    ts = [float(t) for t in grid]
    if any(t < 0.0 for t in ts):
        raise ValueError("axiom grid must lie in [0, infinity)")
    Q = rate.Q
    eye = np.eye(rate.n)
    memo = {}  # t -> exp(tQ) for the grid, A(0) and the Chapman-Kolmogorov sums

    def A(t: float) -> np.ndarray:
        if t not in memo:
            memo[t] = expm(t * Q)
        return memo[t]

    nonneg = worst(-float(A(t).min()) for t in ts)
    row_sum = worst(float(np.max(np.abs(A(t).sum(axis=1) - 1.0))) for t in ts)
    identity = frob_norm(A(0.0) - eye)
    chapman = worst(frob_norm(A(s + t) - A(s) @ A(t)) for s in ts for t in ts)

    tks = [2.0**-k for k in range(1, 21)]
    defects = [frob_norm(expm(tk * Q) - eye) for tk in tks]
    qnorm = frob_norm(Q)
    # each test reads `d <= bound`, so a NaN defect fails it
    mono = all(d <= prev * (1.0 + 1e-9) for prev, d in zip(defects, defects[1:]))
    # e^x - 1 overflows to inf above x = 709.78 (||Q|| above 1419.6 at t = 1/2):
    # an infinite bound, which every defect but NaN meets
    with np.errstate(over="ignore"):
        bounded = all(d <= np.expm1(tk * qnorm) + NONNEG_TOL for tk, d in zip(tks, defects))
    continuity_ok = mono and bounded

    passed = (
        nonneg <= NONNEG_TOL
        and row_sum <= tol
        and identity <= tol
        and chapman <= tol
        and continuity_ok
    )
    return AxiomsReport(
        passed, nonneg, row_sum, identity, chapman, continuity_ok, tuple(defects), tol
    )


def per_call_kolmogorov_residuals(rate, grid):
    """Residuals of the Backward and Forward equations along the grid."""
    Q = rate.Q
    pairs = []  # (backward, forward) per grid point
    for t in grid:
        A = expm(float(t) * Q)
        D = Q @ A
        pairs.append((frob_norm(D - Q @ A), frob_norm(D - A @ Q)))
    initial = frob_norm(Q @ expm(0.0 * Q) - Q)
    return KolmogorovResiduals(worst(b for b, _ in pairs), worst(f for _, f in pairs), initial)


def per_pair_subgroup_report(curve, grid, tol=1e-9):
    """Verify A(0) = I and A(s+t) = A(s) A(t) over all grid pairs, one pair at a time."""
    grid = [float(t) for t in grid]
    if not grid:
        raise ValueError("grid must be nonempty")
    with memo(curve.X, grid) if isinstance(curve, ExpLine) else contextlib.nullcontext():
        id_res = frob_norm(curve.value(0.0) - np.eye(curve.n))
        values = {t: curve.value(t) for t in grid}
        hom = worst(frob_norm(curve.value(s + t) - values[s] @ values[t])
                    for s in grid for t in grid)
    return SubgroupReport(id_res <= tol and hom <= tol, id_res, hom, tol)


def per_pair_flow_axioms(flow, bases, grid, tol=1e-9):
    """Check Phi(0, A) = A and Phi(s, Phi(t, A)) = Phi(s+t, A) on the grid.

    The check runs in one `matcore.memo(X, grid)` scope, so each distinct
    exponential and base-point membership is computed once, the
    exponentials all from one `expm_times` run.
    """
    ts = [float(t) for t in nonempty(grid)]
    bases = nonempty(bases, "no base points")
    idents, comps = [], []  # one worst residual per base
    with memo(flow.X, ts):
        for A in bases:
            idents.append(frob_norm(flow_apply(flow, 0.0, A, tol) - as_matrix(A)))
            comps.append(worst(
                frob_norm(flow_apply(flow, s, flow_apply(flow, t, A, tol), tol)
                          - flow_apply(flow, s + t, A, tol))
                for s in ts for t in ts))
    ident, comp = worst(idents), worst(comps)
    return FlowAxiomsReport(ident <= tol and comp <= tol, ident, comp, tol)


def per_time_plan(X, ts):
    # validate every distinct time; sort the nonzero ones into families (one mantissa of t) of
    # groups (one exponent of t minus k, the halvings of ||t X||_1) of (k, t, ||t X||_1), holding
    # one t * X at a time
    zeros = []
    families = {}  # mantissa -> {exponent - k -> [(k, t, ||t X||_1)]}
    with np.errstate(over="ignore"):  # an overflowing t * X or 1-norm raises instead
        for t in dict.fromkeys(ts):
            Y = as_matrix(t * X)
            nrm = _scaling_norm(Y)
            if nrm == 0.0:
                zeros.append((t, Y.dtype))
                continue
            k = _squarings(nrm)
            mantissa, exponent = math.frexp(t)
            families.setdefault(mantissa, {}).setdefault(exponent - k, []).append((k, t, nrm))
    return zeros, families


# b_0, ..., b_m of the diagonal Pade approximants r_m (Higham, SIAM J. Matrix Anal. Appl. 26, 2005),
# the reference's own copy
REFERENCE_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
         129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
         40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}


def reference_expm(X):
    """exp(X) by the Al-Mohy & Higham degree and halvings, through the reference helper chain."""
    X = reference_as_matrix(X)
    with np.errstate(over="ignore"):  # an overflowing 1-norm raises below instead
        nrm = float(np.abs(X).sum(axis=0).max())
    if nrm == math.inf:
        raise NonFiniteInput("matrix 1-norm overflows")
    if nrm == 0.0:
        return np.eye(X.shape[0], dtype=X.dtype)
    k = _squarings(nrm)
    powers = ReferencePowers(X / (2.0**k))
    m, s = reference_degree(powers, 0, nrm, k)
    return reference_square(reference_approximant(powers.arguments(m), m, k - s), s)


class ReferencePowers:
    """A matrix A or a (k, n, n) stack, its even powers as formed, their 1-norms and ||(|A|)**27||_1."""

    def __init__(self, A):
        self.A, self.W = A, [A]

    def even(self, h):
        W = self.W
        for k in range(len(W), h + 1):
            W.append(W[k // 2] @ W[k - k // 2] if k > 1 else W[0] @ W[0])
        return W[1:h + 1]

    def norms(self, i):
        norms = [np.abs(P).sum(axis=-2).max(axis=-1) for P in self.even(3)]
        return np.array(norms).T.reshape(-1, 3).tolist()[i]

    def arguments(self, m):
        h = _EVEN_POWERS[m]
        self.even(h)
        return self.W[:h + 1]

    def abs_norm(self, i):
        B = np.abs(self.A)
        v = np.ones((*B.shape[:-2], 1, B.shape[-1]))
        for _ in range(27):
            v = v @ B
        return v.max(axis=-1).reshape(-1).tolist()[i]


def reference_degree(powers, i, nrm, squarings):
    """(m, s) for Y with ||Y||_1 = nrm, whose Y / 2**squarings is slice i of `powers`."""
    if powers.A.shape[-1] >= _STACK_BELOW_N:
        for m in (3, 5, 7, 9):
            if nrm <= _THETA[m]:
                return m, 0
    if nrm <= _THETA[13]:
        return 13, 0
    (p2, p4, p6), limits = powers.norms(i), _THETA13_LIMITS
    d8 = min(_halvings(p4, 4, squarings, limits[4]), _halvings(p6 * p2, 8, squarings, limits[8]))
    eta3 = max(_halvings(p6, 6, squarings, limits[6]), d8)
    eta4 = max(d8, _halvings(p4 * p6, 10, squarings, limits[10]))
    s = max(min(eta3, eta4), 0)
    if _halvings(nrm, 1, 0, _ELL_ROOT) <= s:
        return 13, s
    mantissa, exponent = math.frexp(nrm)
    mantissa, shift = math.frexp(_ELL_UC * mantissa)
    return 13, max(s, _halvings(powers.abs_norm(i), 26, squarings, (mantissa, shift + exponent - squarings)))


def reference_approximant(W, m, a):
    """r_m(2**a A) from W = [A, A**2, ..., A**(2h)]: each power times its exact power of two."""
    if a:
        W = [_scale(P, power * a) for P, power in zip(W, (1, 2, 4, 6, 8))]
    return reference_pade(W[0], W[1:], m)


def reference_pade(A, powers, m):
    """r_m(A) = (V - U)^-1 (V + U), its parts V = v(A**2) and U = A u(A**2) formed one at a time."""
    eye = np.eye(A.shape[-1], dtype=A.dtype)
    U = A @ _reference_part(powers, m, 1, eye)
    V = _reference_part(powers, m, 0, eye)
    return np.linalg.solve(V - U, V + U)


def _reference_part(powers, m, odd, eye):
    # v(A**2) (odd 0) or u(A**2) (odd 1): the terms up to A**(2h), then degree 13's A**(2h) @ (...),
    # the identity's term last
    b, h = REFERENCE_PADE_B[m], _EVEN_POWERS[m]
    coefficients = b[2 + odd::2]
    acc = coefficients[0] * powers[0]
    for c, P in zip(coefficients[1:h], powers[1:]):
        acc += c * P
    if len(coefficients) > h:
        inner = coefficients[h] * powers[0]
        for c, P in zip(coefficients[h + 1:], powers[1:]):
            inner += c * P
        acc += powers[-1] @ inner
    acc += b[odd] * eye
    return acc


def reference_square(E, squarings):
    """E squared `squarings` times, slice by slice for a stack."""
    for _ in range(squarings):
        E = E @ E
    return E


def per_time_perfectness_profile(curve, grid):
    """`evoalg.is_perfect` of each slice along the grid, one `value` call a time."""
    samples, all_perfect = [], True
    for t in nonempty(grid):
        rep = is_perfect(EvolutionAlgebra(curve.value(t)))
        all_perfect = all_perfect and rep.perfect
        samples.append(PerfectnessSample(float(t), rep.scaled_abs_det, rep.sign))
    signs = {s.sign for s in samples}
    sign_constant = None if None in signs else len(signs) == 1 and 0 not in signs
    passed = all_perfect and sign_constant is not False
    return PerfectnessProfile(tuple(samples), all_perfect, sign_constant, passed)


def per_row_samples_csv(path, times, mats, columns: dict):
    """`cli._write_samples_csv` with every field's str joined one row at a time."""
    n = mats[0].shape[0]
    step = max(1, _stepper.CHUNK_ENTRIES // (n * n))
    header = ["t", *(f"a_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)), *columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(times), step):
            part = slice(start, start + step)
            if isinstance(mats, np.ndarray):
                entries = mats[part].reshape(-1, n * n).tolist()
            else:
                entries = [M.reshape(-1).tolist() for M in mats[part]]
            rows = zip(times[part], entries, *(v[part] for v in columns.values()))
            fh.write("".join([",".join(map(str, (t, *e, *vals))) + "\r\n" for t, e, *vals in rows]))


def per_time_curve_eval(args):
    """The `curve-eval` handler with one `value` call a time."""
    c = jsonio.load_curve(args.curve)
    grid = cli.parse_grid(args.t)
    samples, values = [], []
    for t in grid:
        A = c.value(t)
        samples.append({"t": t, "matrix": jsonio.matrix_to_json(A)})
        values.append(A)
    payload = {"samples": samples}
    if args.out:
        mats = _stepper._stacked(values, c.n)
        per_row_samples_csv(args.out, grid, mats, {"det": cli._sample_dets(mats)})
        payload["csv"] = args.out
    return "pass", {}, payload


def per_time_markov_semigroup(args):
    """The `markov-semigroup` handler with one `semigroup_at` call a time."""
    rate = cli._load_rate(args)
    if args.t_grid:
        with open(args.t_grid, "r", encoding="utf-8") as fh:
            grid = cli.parse_grid(fh.read())
    else:
        grid = cli.parse_grid(args.t)
    tr = float(np.trace(rate.Q))
    sems = [markov.semigroup_at(rate, t) for t in grid]
    mats = _stepper._stacked([s.matrix for s in sems], rate.n)
    dets = cli._sample_dets(mats)
    samples, exps = [], []
    for s, d in zip(sems, dets):
        try:
            e = math.exp(s.t * tr)
        except OverflowError:
            e = math.inf
        samples.append({"t": s.t, "matrix": jsonio.matrix_layout(s.matrix),
                        "non_markov_range": s.non_markov_range, "det": d, "exp_trace": e})
        exps.append(e)
    worst_row = worst(s.row_sum_defect for s in sems)
    worst_neg = worst(-s.min_entry for s in sems if not s.non_markov_range)
    payload = {"samples": samples}
    if args.out:
        columns = {"row_sum_defect": [s.row_sum_defect for s in sems], "det": dets, "exp_t_trace": exps}
        per_row_samples_csv(args.out, [s.t for s in sems], mats, columns)
        payload["csv"] = args.out
    ok = worst_row <= 1e-10 and worst_neg <= markov.NONNEG_TOL
    residuals = {"max_row_sum_defect": worst_row, "max_negative_entry": worst_neg}
    return ("pass" if ok else "fail"), residuals, payload


def per_time_flow_orbit(args):
    """The `flow-orbit` handler with one `expm` call a time, on either side."""
    X = jsonio.load_matrix(args.generator)
    A = jsonio.load_matrix(args.base)
    group = lie.Group.from_name(args.group, X.shape[0], args.s)
    grid = sorted(cli.parse_grid(args.grid))
    fl = flows.Flow(X, group)
    A = flows.base_point(fl, A, args.tol)
    times = [0.0, *(t for t in grid if t != 0.0)]
    if args.side == "right":
        samples = [(0.0, A.copy()), *((t, A @ expm(t * fl.X)) for t in times[1:])]
    else:
        samples = [(t, expm(t * X) @ A) for t in times]
    samples = sorted(samples, key=lambda p: p[0])
    residuals = [lie.in_group(M, group, args.tol).residual
                 if np.isfinite(M).all() else math.nan for _, M in samples]
    payload = {"n_samples": len(samples)}
    if args.out:
        times, mats = zip(*samples)
        mats = _stepper._stacked(mats, X.shape[0])
        columns = {"group_residual": residuals, "det": cli._sample_dets(mats)}
        per_row_samples_csv(args.out, times, mats, columns)
        payload["csv"] = args.out
    top = worst(residuals)
    return ("pass" if top <= args.tol else "fail"), {"max_group_residual": top}, payload


def jsonable(obj):
    """`obj` with its floats, numpy scalars, tuples and arrays as `json.dumps` takes them."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return jsonio.matrix_to_json(obj)
    return obj


def reference_report_json(report):
    """The text of `cli.Report.to_json` through `jsonable` and `json.dumps`."""
    doc = {
        "subcommand": report.subcommand,
        "status": report.status,
        "residuals": jsonable(report.residuals),
        "payload": jsonable(report.payload),
    }
    if report.seed is not None:
        doc["seed"] = report.seed
    return json.dumps(doc, indent=2, sort_keys=True)
