"""Property tests of laws the fixed cases pin on a few inputs.

`markov.axioms_report` must give the report of `oracles.per_call_axioms_report`
on drawn rate matrices and grids; the evolution operator must be the
transpose of the structure matrix and `evo_mul` commutative, both bit for
bit; every closed group kind must hold the products and inverses of its
members; every curve variant must survive its JSON round trip with
bit-identical values; and every variant's `values(ts)` and `curves.slices`
must be its `value(t)` at each time, bit for bit, or raise as the first
failing `value` call does; `_csvtext.rows_text` must give each drawn
float's `repr`; and `cli.Report.to_json` must give the text of
`oracles.reference_report_json` on drawn report documents.  Skipped when
hypothesis is not installed.
"""

import json
import math

import numpy as np
import pytest

from evolflow import _csvtext, _stepper, cli, jsonio
from evolflow.curves import (AFFINE_ARG_KINDS, AffineArg, AffineLine, Constant, ExpLine, FlipFlop,
                             Heisenberg, HeisenbergExp, Lorentz11, MatrixFunction, Numeric, Poly,
                             Sl2Iwasawa, So2, TangentInduced, slices)
from evolflow.evoalg import EvolutionAlgebra, evo_mul, evolution_operator
from evolflow.lie import Group, in_group
from evolflow.markov import RateMatrix, axioms_report
from evolflow.matcore import expm, inv
from oracles import per_call_axioms_report, reference_report_json

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

bounded = st.floats(-1.0, 1.0, allow_nan=False)
scalar_functions = st.one_of(
    st.builds(AffineArg, st.sampled_from(AFFINE_ARG_KINDS), bounded, bounded),
    st.builds(Poly, st.lists(bounded, min_size=1, max_size=3).map(tuple)),
)


@st.composite
def matrices(draw, n=None, complex_=None):
    """A seeded normal matrix, complex with nonzero imaginary parts when drawn so."""
    n = draw(st.integers(1, 4)) if n is None else n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.normal(size=(n, n))
    if draw(st.booleans()) if complex_ is None else complex_:
        M = M + 1j * rng.uniform(0.5, 1.0, size=(n, n))
    return M


# ---------------------------------------------------------------------------
# Chapman-Kolmogorov residuals pair by pair


@st.composite
def rate_matrices(draw):
    n = draw(st.integers(1, 6))
    off = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=n * n, max_size=n * n))
    Q = np.array(off).reshape(n, n)
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return RateMatrix(Q)


times = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 3.0))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    rate=rate_matrices(),
    grid=st.lists(times, min_size=1, max_size=8).flatmap(
        lambda ts: st.lists(st.sampled_from(ts), min_size=len(ts), max_size=8)),
)
def test_axioms_report_equals_the_per_call_reference(rate, grid):
    # the grid drawn from its own points, so times repeat
    assert repr(axioms_report(rate, grid)) == repr(per_call_axioms_report(rate, grid))


# ---------------------------------------------------------------------------
# closure of the closed group kinds under product and inverse


def _algebra_element(kind, rng, n):
    # a random element of the kind's Lie algebra, Frobenius norm at most about 1.5
    S = rng.normal(size=(n, n)) / n
    if kind in ("gl", "sl"):
        X = S
    elif kind in ("o", "so"):
        X = S - S.T
    elif kind in ("u", "su"):
        X = S + 1j * rng.normal(size=(n, n)) / n
        X = X - X.conj().T
    elif kind == "stochastic":  # a rate matrix: nonnegative off the diagonal, rows summing to 0
        X = np.abs(S)
        np.fill_diagonal(X, 0.0)
        np.fill_diagonal(X, -X.sum(axis=1))
    elif kind == "gds":  # rows and columns summing to 0
        X = S - S.mean(axis=0) - S.mean(axis=1)[:, None] + S.mean()
    elif kind in ("lorentz11", "o11"):
        X = S[0, 0] * np.array([[0.0, 1.0], [1.0, 0.0]])
    elif kind == "heis3":
        X = np.triu(S, 1)
    if kind in ("sl", "su"):
        X = X - np.trace(X) / n * np.eye(n)
    return X


def _member(kind, rng, n):
    # a well-conditioned member of the kind's group: expm of an algebra element, an affine one directly
    if kind != "affine":
        return expm(_algebra_element(kind, rng, n))
    M = np.eye(n) + rng.normal(size=(n, n)) / (2 * n)  # the linear block stays well conditioned
    M[:, -1] = 0.0
    M[-1, -1] = 1.0
    return M


CLOSED_KINDS = {"gl": None, "sl": None, "o": None, "so": None, "u": None, "su": None, "stochastic": None,
                "gds": None, "lorentz11": 2, "o11": 2, "heis3": 3, "affine": None}


@pytest.mark.parametrize("kind", sorted(CLOSED_KINDS))
def test_closed_groups_hold_products_and_inverses(kind):
    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
    def closed(seed, n):
        n = CLOSED_KINDS[kind] or n
        group = Group.gen_doubly_stochastic(n) if kind == "gds" else Group.from_name(kind, n)
        rng = np.random.default_rng(seed)
        M1, M2 = _member(kind, rng, n), _member(kind, rng, n)
        assert in_group(M1, group).belongs and in_group(M2, group).belongs
        assert in_group(M1 @ M2, group).belongs
        assert in_group(inv(M1), group).belongs

    closed()


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
                  s=st.one_of(st.floats(0.5, 0.9), st.floats(1.1, 2.0)))
def test_gds_off_one_holds_no_product(seed, n, s):
    # s times a gds(1) member has row and column sums s, its product with another s^2
    group, rng = Group.gen_doubly_stochastic(n, s), np.random.default_rng(seed)
    M1, M2 = s * _member("gds", rng, n), s * _member("gds", rng, n)
    assert in_group(M1, group).belongs and in_group(M2, group).belongs
    assert not in_group(M1 @ M2, group).belongs


# ---------------------------------------------------------------------------
# evolution algebras


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(A=matrices())
def test_evolution_operator_is_the_transpose(A):
    alg = EvolutionAlgebra(A)
    L = evolution_operator(alg)
    assert L.dtype == alg.A.dtype
    assert L.tobytes() == alg.A.T.tobytes()


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(data=st.data(), A=matrices())
def test_evo_mul_is_commutative(data, A):
    n = len(A)
    entries = st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n)
    x, y = (np.array(data.draw(entries)) for _ in range(2))
    if data.draw(st.booleans()):
        x = x + 1j * np.array(data.draw(entries))
    alg = EvolutionAlgebra(A)
    xy, yx = evo_mul(alg, x, y), evo_mul(alg, y, x)
    assert xy.dtype == yx.dtype
    assert xy.tobytes() == yx.tobytes()


# ---------------------------------------------------------------------------
# JSON round trip of every curve variant


@st.composite
def curves(draw, variant, complex_terms=False):
    """A curve of the variant; a numeric one's generator terms are complex when `complex_terms` is
    true (drawn when it is None)."""
    n = draw(st.integers(1, 3))
    complex_terms = draw(st.booleans()) if complex_terms is None else complex_terms
    M = lambda: draw(matrices(n=n))  # noqa: E731
    near_identity = lambda: np.eye(n) + draw(matrices(n=n, complex_=False)) / (4 * n)  # noqa: E731
    three = lambda: [draw(scalar_functions) for _ in range(3)]  # noqa: E731
    build = {
        "constant": lambda: Constant(M()),
        "affine_line": lambda: AffineLine(M()),
        "exp_line": lambda: ExpLine(M(), M()),
        "tangent_induced": lambda: TangentInduced(near_identity(), M()),  # B invertible
        "so2": So2,
        "lorentz11": lambda: Lorentz11(draw(st.integers(1, 4))),
        "heisenberg": lambda: Heisenberg(*three()),
        "heisenberg_exp": lambda: HeisenbergExp(*three()),
        "sl2_iwasawa": lambda: Sl2Iwasawa(*three()),
        "flip_flop": lambda: FlipFlop(draw(st.floats(0.01, 5.0))),
        "numeric": lambda: Numeric(
            near_identity(),
            MatrixFunction(draw(st.lists(st.tuples(scalar_functions, matrices(n=n, complex_=complex_terms)),
                                         min_size=1, max_size=3))),
            h=draw(st.floats(0.05, 0.25)), horizon=draw(st.floats(0.5, 1.0))),
    }
    return build[variant]()


@pytest.mark.parametrize("variant", sorted(jsonio.CURVE_VARIANTS))
def test_curve_json_round_trip_keeps_every_value(variant):
    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(c=curves(variant), ts=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4))
    def round_trip(c, ts):
        again = jsonio.curve_from_json(json.loads(json.dumps(jsonio.curve_to_json(c))))
        assert type(again) is type(c)
        for t in ts:
            want, got = c.value(t), again.value(t)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    round_trip()


# ---------------------------------------------------------------------------
# a curve at a grid of times


def outcome(evaluate):
    """Each matrix's dtype and bytes, or the type and message of what raised."""
    try:
        return [(A.dtype, A.shape, A.tobytes()) for A in evaluate()]
    except Exception as exc:
        return type(exc), str(exc)


# times a curve may fail at: outside a numeric curve's horizon, NaN or infinite
# everywhere, and +-1e308 overflows an ExpLine's t X when an entry of X exceeds 1.8
FAILING_TIMES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 3.0]


@pytest.mark.parametrize("variant", sorted(jsonio.CURVE_VARIANTS))
def test_values_are_value_at_each_time_bit_for_bit(variant):
    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(data=st.data(), c=curves(variant, complex_terms=None))
    def values_at_times(data, c):
        points = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.5, 0.5))
        if isinstance(c, Numeric):  # nodes, and times a node apart
            points = st.one_of(points, st.integers(-5, 5).map(lambda k: k * c.h))
        ts = data.draw(st.lists(points, min_size=1, max_size=10).flatmap(
            lambda ts: st.lists(st.sampled_from(ts), min_size=len(ts), max_size=12)))
        if data.draw(st.booleans()):  # one or two failing times anywhere in the grid
            for bad in data.draw(st.lists(st.sampled_from(FAILING_TIMES), min_size=1, max_size=2)):
                ts.insert(data.draw(st.integers(0, len(ts))), bad)
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
            # expm_times blocks and `slices` chunks of one to five times
            mp.setattr(_stepper, "CHUNK_ENTRIES", data.draw(st.integers(1, 5)) * c.n**2)
            want = outcome(lambda: [c.value(t) for t in ts])
            assert outcome(lambda: c.values(ts)) == want
            assert outcome(lambda: [A for _, A in slices(c, ts)]) == want

    values_at_times()


# ---------------------------------------------------------------------------
# CSV text of float64 rows


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(fields=st.lists(st.floats(width=64), min_size=1, max_size=60), columns=st.integers(1, 6))
def test_rows_text_is_the_repr_of_every_drawn_float(fields, columns):
    columns = min(columns, len(fields))
    table = np.array(fields[: len(fields) // columns * columns]).reshape(-1, columns)
    assert _csvtext.rows_text(table) == "".join(",".join(map(repr, row)) + "\r\n" for row in table.tolist())


# ---------------------------------------------------------------------------
# report text


report_leaves = st.one_of(
    st.floats(),  # NaN, +-inf, +-0.0 and subnormals among them
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-2**70, 2**70),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.none(),
    st.text(max_size=8),  # non-ASCII and control characters among them
    st.integers(1, 3).flatmap(lambda n: st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                                 min_size=n * n, max_size=n * n)
                              .map(lambda xs, n=n: np.array(xs).reshape(n, n))),
)
report_values = st.recursive(
    report_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.floats(), max_size=6),  # a row: finite floats join in one pass, others do not
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
    ),
    max_leaves=30,
)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(residuals=st.dictionaries(st.text(max_size=6), report_values, max_size=4),
                  payload=st.dictionaries(st.text(max_size=6), report_values, max_size=6),
                  status=st.sampled_from(["pass", "fail", "error"]),
                  seed=st.one_of(st.none(), st.integers(-2**40, 2**40)))
def test_report_text_is_that_of_the_reference_encoder(residuals, payload, status, seed):
    report = cli.Report("ode-solve", status, residuals, payload, seed)
    assert report.to_json() == reference_report_json(report)
