import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from evolflow import _stepper, cli, jsonio
from evolflow.cli import parse_grid, run
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
)
from evolflow.errors import BadGrid
from evolflow.flows import IntegratorConfig
from evolflow.matcore import expm, expm_times, frob_norm
from oracles import per_step_march, per_time_curve_eval, per_time_flow_orbit, per_time_markov_semigroup


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


# ---------------------------------------------------------------------------
# grid parsing


def test_parse_grid_simple():
    assert parse_grid("0:1:0.5") == [0.0, 0.5, 1.0]


def test_parse_grid_degenerate():
    assert parse_grid("0:0:1") == [0.0]


def test_parse_grid_default_count():
    assert len(parse_grid("-2:2:0.1")) == 41


def test_parse_grid_short_last_interval():
    assert parse_grid("0:1:0.3") == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])


def test_parse_grid_json_forms():
    assert parse_grid("[0, 0.5, 2]") == [0.0, 0.5, 2.0]
    assert parse_grid("1.25") == [1.25]


@pytest.mark.parametrize("bad", [
    "1:0:0.5", "0:1:0", "0:1:-2", "a:b:c", "[]", "0:1", '["x"]',
    # non-finite or oversized: rejected before a single point is built
    "0:inf:1", "-inf:0:1", "nan:1:0.5", "0:1:nan", "0:1:inf", "0:1:1e-300",
    "-1e308:1e308:1", "[0, NaN]", "[Infinity]", "NaN", "1e999",
])
def test_parse_grid_rejects(bad):
    with pytest.raises(BadGrid):
        parse_grid(bad)


@pytest.mark.parametrize("bad", ['["0.5", true]', '["0.5"]', "[true]", "[0, false]", "[[0.5]]", "[null]"])
def test_a_grid_list_takes_json_numbers_only(tmp_path, capsys, bad):
    with pytest.raises(BadGrid):
        parse_grid(bad)
    curve = write(tmp_path / "c.json", {"variant": "so2"})
    code, report, err = invoke(capsys, "curve-eval", "--curve", curve, "--t", bad)
    assert code == 2
    assert report["status"] == "error"
    assert err.splitlines() == [f"evolflow curve-eval: BadGrid: {report['payload']['message']}"]


def test_a_grid_list_keeps_integers_and_floats():
    assert parse_grid("[0, 1, -2, 0.5, 1e3]") == [0.0, 1.0, -2.0, 0.5, 1000.0]
    assert parse_grid("3") == [3.0]


def test_parse_grid_range_points_are_exact():
    assert parse_grid("0:4:0.25") == [0.25 * k for k in range(17)]
    assert parse_grid("-2:2:0.1") == [min(-2.0 + k * 0.1, 2.0) for k in range(41)]
    assert parse_grid("0:1:0.3") == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
    assert parse_grid("0:0:1") == [0.0]


def test_parse_grid_caps_the_point_count(monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 10)
    assert len(parse_grid("0:9:1")) == 10
    assert len(parse_grid(json.dumps(list(range(10))))) == 10
    with pytest.raises(BadGrid):
        parse_grid("0:10:1")
    with pytest.raises(BadGrid):
        parse_grid(json.dumps(list(range(11))))


# ---------------------------------------------------------------------------
# JSON round trips


def test_matrix_json_round_trip_exact():
    rng = np.random.default_rng(81)
    M = rng.normal(size=(3, 3))
    again = jsonio.matrix_from_json(json.loads(json.dumps(jsonio.matrix_to_json(M))))
    assert np.array_equal(M, again)
    Z = M + 1j * rng.normal(size=(3, 3))
    again = jsonio.matrix_from_json(json.loads(json.dumps(jsonio.matrix_to_json(Z))))
    assert np.array_equal(Z, again)


def test_element_json_round_trip():
    x = np.array([0.1, -2.0, 3.5])
    assert np.array_equal(jsonio.element_from_json(jsonio.element_to_json(x)), x)
    z = x + 1j * np.array([1.0, 0.0, -1.0])
    assert np.array_equal(jsonio.element_from_json(jsonio.element_to_json(z)), z)


def test_curve_json_round_trip():
    rng = np.random.default_rng(82)
    A0 = np.eye(2) + 0.1 * rng.normal(size=(2, 2))
    X = rng.normal(size=(2, 2))
    mf = MatrixFunction([(Poly((1.0,)), X)])
    specimens = [
        ExpLine(A0, X),
        FlipFlop(0.7),
        Heisenberg(1.0, Poly((0.0, 1.0)), 2.0),
        Numeric(A0, mf, h=0.01, horizon=1.0),
    ]
    for c in specimens:
        again = jsonio.curve_from_json(json.loads(json.dumps(jsonio.curve_to_json(c))))
        for t in (-0.5, 0.0, 0.9):
            assert np.allclose(c.value(t), again.value(t), atol=0.0)


def test_every_curve_variant_round_trips():
    rng = np.random.default_rng(83)
    A0 = np.eye(2) + 0.1 * rng.normal(size=(2, 2))
    X = rng.normal(size=(2, 2))
    mf = MatrixFunction([(AffineArg("cos", 1.3), X), (Poly((0.5, -1.0)), np.eye(2))])
    specimens = {
        "constant": Constant(A0),
        "affine_line": AffineLine(X),
        "exp_line": ExpLine(A0, X),
        "tangent_induced": TangentInduced(A0, X),
        "so2": So2(),
        "lorentz11": Lorentz11(3),
        "heisenberg": Heisenberg(1.0, Poly((0.0, 1.0)), AffineArg("sin", 2.0, 0.1)),
        "heisenberg_exp": HeisenbergExp(AffineArg("exp", 0.5), 2.0, Poly((1.0, -1.0))),
        "sl2_iwasawa": Sl2Iwasawa(AffineArg("cos"), Poly((0.1, 0.2)), AffineArg("sinh", -1.0)),
        "flip_flop": FlipFlop(0.7),
        "numeric": Numeric(A0, mf, h=0.01, horizon=1.0),
    }
    assert set(specimens) == set(jsonio.CURVE_VARIANTS)
    for variant, c in specimens.items():
        doc = json.loads(json.dumps(jsonio.curve_to_json(c)))
        assert doc["variant"] == variant
        again = jsonio.curve_from_json(doc)
        assert type(again) is type(c)
        for t in (-0.5, 0.0, 0.37, 0.9):
            assert np.array_equal(c.value(t), again.value(t))


def test_curve_json_optional_keys_and_errors():
    eye = jsonio.matrix_to_json(np.eye(2))
    gen = jsonio.matrix_function_to_json(MatrixFunction([(1.0, np.zeros((2, 2)))]))
    # an absent optional key leaves the constructor's default
    assert jsonio.curve_from_json({"variant": "lorentz11"}) == Lorentz11()
    c = jsonio.curve_from_json({"variant": "numeric", "A0": eye, "generator": gen})
    default = Numeric(np.eye(2), c.generator)
    assert (c.h, c.horizon) == (default.h, default.horizon) == (1e-3, 2.0)
    # a present one is still type-checked
    for doc, field in (({"variant": "numeric", "A0": eye, "generator": gen, "h": "0.1"}, "numeric h"),
                       ({"variant": "lorentz11", "i": 1.5}, "lorentz11 i")):
        with pytest.raises(ValueError, match=field):
            jsonio.curve_from_json(doc)
    with pytest.raises(KeyError):
        jsonio.curve_from_json({"variant": "exp_line", "A0": eye})
    with pytest.raises(ValueError, match="unknown curve variant"):
        jsonio.curve_from_json({"variant": "bogus"})


@pytest.mark.parametrize("doc, stray", [
    ({"variant": "so2", "omega": "x"}, "omega"),
    ({"variant": "flip_flop", "lambda": 1.0, "lam": 2.0}, "lam"),
    ({"variant": "heisenberg", "alpha": {"kind": "sin", "scal": 2.0},
      "beta": {"kind": "poly", "coeffs": [1.0]}, "delta": {"kind": "cos"}}, "scal"),
])
def test_curve_json_rejects_unknown_keys(doc, stray):
    with pytest.raises(ValueError, match=stray):
        jsonio.curve_from_json(doc)


def test_scalar_function_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="scal"):
        jsonio.scalar_function_from_json({"kind": "sin", "scal": 2})
    with pytest.raises(ValueError, match="scale"):
        jsonio.scalar_function_from_json({"kind": "poly", "coeffs": [1.0], "scale": 2.0})
    assert jsonio.scalar_function_from_json({"kind": "sin", "scale": 2}) == AffineArg("sin", 2.0)
    assert jsonio.scalar_function_from_json({"kind": "poly", "coeffs": [1, 2]}) == Poly((1.0, 2.0))


def test_matrix_and_element_json_reject_unknown_keys():
    with pytest.raises(ValueError, match="imga"):
        jsonio.matrix_from_json({"n": 1, "real": [[1.0]], "imga": [[2.0]]})
    with pytest.raises(ValueError, match="coords_imga"):
        jsonio.element_from_json({"coords_real": [1.0], "coords_imga": [2.0]})
    assert jsonio.matrix_from_json({"n": 1, "real": [[1.0]], "imag": None}) == 1.0


def test_matrix_function_json_rejects_unknown_keys():
    term = {"fun": {"kind": "poly", "coeffs": [1.0]}, "matrix": {"n": 1, "real": [[1.0]]}}
    assert jsonio.matrix_function_from_json({"terms": [term]})(0.5) == 1.0
    with pytest.raises(ValueError, match="scale"):
        jsonio.matrix_function_from_json({"terms": [{**term, "scale": 3}]})
    with pytest.raises(ValueError, match="term"):
        jsonio.matrix_function_from_json({"terms": [term], "term": []})


def test_cli_rejects_a_matrix_file_with_an_unknown_key(tmp_path, capsys):
    m = write(tmp_path / "m.json", {"n": 1, "real": [[1.0]], "imga": [[2.0]]})
    code, report, err = invoke(capsys, "expm", m)
    assert code == 2
    assert "imga" in report["payload"]["message"]
    assert "Traceback" not in err


def test_curve_eval_rejects_an_unknown_key(tmp_path, capsys):
    curve = write(tmp_path / "c.json", {"variant": "so2", "omega": "x"})
    code, report, err = invoke(capsys, "curve-eval", "--curve", curve, "--t", "0:1:0.5")
    assert code == 2
    assert report["status"] == "error"
    assert "omega" in report["payload"]["message"]
    assert "Traceback" not in err


def _generator_doc(fun):
    return {"terms": [{"fun": fun, "matrix": {"n": 2, "real": [[0.0, 1.0], [-1.0, 0.0]]}}]}


# (subcommand, file flag, wrongly typed document, the field the message names)
WRONGLY_TYPED = {
    "coeffs_int": ("magnus", "--gen-spec", _generator_doc({"kind": "poly", "coeffs": 5}), "coeffs"),
    "terms_int": ("magnus", "--gen-spec", {"terms": 5}, "terms"),
    "curve_list": ("curve-eval", "--curve", [{"variant": "so2"}], "curve"),
    "coeffs_str": ("magnus", "--gen-spec", _generator_doc({"kind": "poly", "coeffs": "12"}), "coeffs"),
    "n_fraction": ("expm", None, {"n": 2.7, "real": [[1.0, 0.0], [0.0, 1.0]]}, "n"),
    "lorentz_i_fraction": ("curve-eval", "--curve", {"variant": "lorentz11", "i": 2.9}, "i"),
    "lambda_str": ("curve-eval", "--curve", {"variant": "flip_flop", "lambda": "2"}, "lambda"),
    "scale_bool": ("magnus", "--gen-spec", _generator_doc({"kind": "sin", "scale": True}), "scale"),
    "entry_str": ("expm", None, {"n": 1, "real": [["5"]]}, "real"),
    "entry_bool": ("expm", None, {"n": 1, "real": [[True]]}, "real"),
}


@pytest.mark.parametrize("case", sorted(WRONGLY_TYPED))
def test_cli_rejects_a_wrongly_typed_field(tmp_path, capsys, case):
    subcommand, flag, doc, field = WRONGLY_TYPED[case]
    path = write(tmp_path / "doc.json", doc)
    argv = [subcommand, path] if flag is None else [subcommand, flag, path]
    if subcommand == "magnus":
        argv += ["--a0", write(tmp_path / "a0.json", jsonio.matrix_to_json(np.eye(2))), "--t", "1"]
    elif subcommand == "curve-eval":
        argv += ["--t", "0:1:0.5"]
    code, report, err = invoke(capsys, *argv)
    assert code == 2
    assert report["status"] == "error"
    assert field in report["payload"]["message"]
    assert len(err.splitlines()) == 1


def test_typed_json_decoding_keeps_valid_documents():
    # ints stand for floats, an integral float is an integer, and "imag" may be null
    assert jsonio.matrix_from_json({"n": 2.0, "real": [[1, 0], [0, 1]], "imag": None}).dtype == float
    assert jsonio.scalar_function_from_json({"kind": "cos", "scale": 2, "shift": -1}) == AffineArg(
        "cos", 2.0, -1.0)
    assert jsonio.curve_from_json({"variant": "lorentz11", "i": 3.0}).i == 3
    assert jsonio.curve_from_json({"variant": "flip_flop", "lambda": 2}).lam == 2.0
    with pytest.raises(ValueError, match="coords_real"):
        jsonio.element_from_json({"coords_real": [1.0, "2"]})
    with pytest.raises(ValueError, match="matrix function term"):
        jsonio.matrix_function_from_json({"terms": [[1.0]]})


def test_bare_callable_numeric_curve_is_not_serializable():
    c = Numeric(np.eye(2), lambda t: np.zeros((2, 2)), h=0.1, horizon=1.0)
    with pytest.raises(ValueError):
        jsonio.curve_to_json(c)


# ---------------------------------------------------------------------------
# subcommands


def test_markov_semigroup_flip_flop(capsys):
    code, report, _ = invoke(capsys, "markov-semigroup", "--lambda", "1", "--t", "1")
    assert code == 0
    assert report["status"] == "pass"
    sample = report["payload"]["samples"][0]
    M = jsonio.matrix_from_json(sample["matrix"])
    assert frob_norm(M - FlipFlop(1.0).value(1.0)) <= 1e-10
    assert sample["det"] == pytest.approx(math.exp(-2.0))


def test_markov_semigroup_negative_time_flag(capsys):
    code, report, _ = invoke(capsys, "markov-semigroup", "--lambda", "1", "--t", "-1")
    assert code == 0  # computing negative times is allowed, only flagged
    assert report["payload"]["samples"][0]["non_markov_range"] is True


@pytest.mark.parametrize("Q, t", [
    # tr(Q) = -1800: exp(t tr(Q)) overflows at t = -2, and exp(-2 Q) with it
    (np.full((4, 4), 150.0) - 600.0 * np.eye(4), -2.0),
    # the flip-flop with lambda = 1: exp(-400 tr(Q)) = exp(800)
    (np.array([[-1.0, 1.0], [1.0, -1.0]]), -400.0),
], ids=["fast-chain", "flip-flop"])
def test_markov_semigroup_reports_an_overflowing_exp_trace_as_inf(tmp_path, capsys, Q, t):
    rate = write(tmp_path / "q.json", {"n": len(Q), "real": Q.tolist()})
    out = tmp_path / "s.csv"
    with np.errstate(all="ignore"):
        code, report, err = invoke(capsys, "markov-semigroup", "--rate", rate, "--t", f"[{t}, 0, 1]",
                                   "--out", str(out))
    # the row-sum check fails on exp(t Q)'s non-finite entries: a full report, exit 1
    assert code == 1 and report["status"] == "fail" and "error" not in err
    assert report["residuals"]["max_row_sum_defect"] in ("nan", "inf")
    tr = float(np.trace(Q))
    samples = report["payload"]["samples"]
    assert [s["exp_trace"] for s in samples] == ["inf", 1.0, math.exp(tr)]
    rows = list(csv.reader(out.read_text().splitlines()))
    assert [row[-1] for row in rows] == ["exp_t_trace", "inf", "1.0", repr(math.exp(tr))]
    # without the negative time nothing overflows, and the chain passes
    code, report, _ = invoke(capsys, "markov-semigroup", "--rate", rate, "--t", "[0, 1]")
    assert code == 0 and report["status"] == "pass"


def test_markov_semigroup_needs_exactly_one_source(capsys):
    code, report, _ = invoke(capsys, "markov-semigroup", "--t", "1")
    assert code == 2
    assert report["status"] == "error"


def test_markov_semigroup_t_grid_file(tmp_path, capsys):
    rate = write(tmp_path / "q.json", {"n": 2, "real": [[-1.0, 1.0], [1.0, -1.0]]})
    grid = write(tmp_path / "grid.json", [0.0, 0.5, 1.0])
    code, report, _ = invoke(capsys, "markov-semigroup", "--rate", rate, "--t-grid", grid)
    assert code == 0
    assert [s["t"] for s in report["payload"]["samples"]] == [0.0, 0.5, 1.0]


def test_markov_semigroup_t_grid_file_takes_the_t_syntax(tmp_path, capsys):
    rate = write(tmp_path / "q.json", {"n": 2, "real": [[-1.0, 1.0], [1.0, -1.0]]})
    for spec in ("5", "0:1:0.5"):
        grid = tmp_path / "grid.txt"
        grid.write_text(spec + "\n")
        from_file = invoke(capsys, "markov-semigroup", "--rate", rate, "--t-grid", str(grid))
        from_flag = invoke(capsys, "markov-semigroup", "--rate", rate, "--t", spec)
        assert from_file[0] == 0
        assert from_file[:2] == from_flag[:2]


@pytest.mark.parametrize("content", ["[]", "[\"a\"]", "{}", ""])
def test_markov_semigroup_rejects_a_bad_t_grid_file(tmp_path, capsys, content):
    rate = write(tmp_path / "q.json", {"n": 2, "real": [[-1.0, 1.0], [1.0, -1.0]]})
    grid = tmp_path / "grid.json"
    grid.write_text(content)
    code, report, err = invoke(capsys, "markov-semigroup", "--rate", rate, "--t-grid", str(grid))
    assert code == 2
    assert report["status"] == "error"
    assert "BadGrid" in err


def test_group_check_detects_wrong_determinant(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"n": 2, "real": [[0.0, 1.0], [1.0, 0.5]]})
    code, report, _ = invoke(capsys, "group-check", "--group", "sl", "--tol", "1e-9", bad)
    assert code == 1
    assert report["status"] == "fail"
    assert report["residuals"]["defect"] == pytest.approx(2.0)
    assert report["payload"]["component"] == -1


def test_group_check_pass(tmp_path, capsys):
    M = expm(0.4 * np.array([[0.0, 1.0], [-1.0, 0.0]]))
    good = write(tmp_path / "good.json", jsonio.matrix_to_json(M))
    code, report, _ = invoke(capsys, "group-check", "--group", "so", good)
    assert code == 0
    assert report["payload"]["belongs"] is True


def test_algebra_check(tmp_path, capsys):
    Q = write(tmp_path / "q.json", {"n": 2, "real": [[-2.0, 2.0], [1.0, -1.0]]})
    code, report, _ = invoke(capsys, "algebra-check", "--algebra", "rate", Q)
    assert code == 0 and report["status"] == "pass"


def test_group_check_generalized_doubly_stochastic(tmp_path, capsys):
    M = write(tmp_path / "m.json", {"n": 2, "real": [[1.5, 0.5], [0.5, 1.5]]})
    code, report, _ = invoke(capsys, "group-check", "--group", "gds", "--s", "2", M)
    assert code == 0 and report["payload"]["belongs"] is True
    code, report, _ = invoke(capsys, "group-check", "--group", "gds", "--s", "1", M)
    assert code == 1


def test_expm_missing_file(capsys):
    code, report, _ = invoke(capsys, "expm", "/nonexistent/m.json")
    assert code == 2
    assert report["status"] == "error"


def test_expm_computes(tmp_path, capsys):
    m = write(tmp_path / "m.json", {"n": 2, "real": [[0.0, 1.0], [-1.0, 0.0]]})
    code, report, _ = invoke(capsys, "expm", m, "--t", str(math.pi / 2))
    assert code == 0
    E = jsonio.matrix_from_json(report["payload"]["result"])
    assert np.allclose(E, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)


def test_expm_of_a_matrix_whose_1_norm_overflows_is_an_input_error(tmp_path, capsys):
    m = write(tmp_path / "big.json", {"n": 2, "real": [[1e308, 1e308], [1e308, 1e308]]})
    code, report, err = invoke(capsys, "expm", m, "--t", "1")
    assert code == 2
    assert report["payload"]["message"] == "matrix 1-norm overflows"
    assert err == "evolflow expm: NonFiniteInput: matrix 1-norm overflows\n"


def test_usage_error_exit_code(capsys):
    assert run([]) == 2
    assert run(["not-a-subcommand"]) == 2


def test_curve_check_subgroup(tmp_path, capsys):
    X = np.array([[0.0, 1.0], [-1.0, 0.0]])
    good = write(tmp_path / "c.json", {
        "variant": "exp_line",
        "A0": {"n": 2, "real": [[1.0, 0.0], [0.0, 1.0]]},
        "X": jsonio.matrix_to_json(X),
    })
    code, report, _ = invoke(capsys, "curve-check", "--curve", good, "--check", "subgroup")
    assert code == 0 and report["status"] == "pass"
    bad = write(tmp_path / "a.json", {"variant": "affine_line", "A": jsonio.matrix_to_json(X)})
    code, report, _ = invoke(capsys, "curve-check", "--curve", bad, "--check", "subgroup")
    assert code == 1 and report["status"] == "fail"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("check, grid, key", [
    ("subgroup", "[0, 1]", "homomorphism"),
    ("ode", "[0, 2]", "ode"),
])
def test_curve_check_fails_on_a_nan_residual(tmp_path, capsys, check, grid, key):
    # exp(2X) overflows to [[inf, 0], [nan, 0]]
    X = jsonio.matrix_to_json(np.diag([500.0, -500.0]))
    curve = write(tmp_path / "c.json", {"variant": "exp_line", "A0": jsonio.matrix_to_json(np.eye(2)), "X": X})
    gen = write(tmp_path / "x.json", X)
    code, report, _ = invoke(
        capsys, "curve-check", "--curve", curve, "--check", check, "--generator", gen, "--grid", grid,
    )
    assert code == 1 and report["status"] == "fail"
    assert report["residuals"][key] == "nan"


def nan_exponentials_at(T, Q):
    """`expm_times` that yields all NaN for exp(T Q) and the true values elsewhere."""
    def patched(X, ts):
        for t, E in expm_times(X, ts):
            yield t, (np.full_like(E, np.nan) if np.array_equal(t * X, T * Q) else E)
    return patched


def test_markov_semigroup_does_not_pass_a_nan_exponential(monkeypatch, tmp_path, capsys):
    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    monkeypatch.setattr("evolflow.markov.expm_times", nan_exponentials_at(0.5, Q))
    out = tmp_path / "semigroup.csv"
    code, report, err = invoke(capsys, "markov-semigroup", "--lambda", "1", "--t", "0:1:0.25",
                               "--out", str(out))
    # a failed check with a NaN residual, not an input error
    assert code == 1 and report["status"] == "fail"
    assert report["residuals"] == {"max_row_sum_defect": "nan", "max_negative_entry": "nan"}
    assert err.count("\n") == 1 and "fail" in err
    samples = report["payload"]["samples"]
    assert [s["t"] for s in samples] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert samples[2]["matrix"] == {"n": 2, "real": [["nan", "nan"], ["nan", "nan"]]}
    assert samples[2]["det"] == "nan"
    assert samples[1]["matrix"] == jsonio.matrix_to_json(expm(0.25 * Q))
    rows = list(csv.reader(out.open()))
    assert rows[3][:5] == ["0.5", "nan", "nan", "nan", "nan"]


@pytest.mark.parametrize("side, binding", [("right", "evolflow.flows.expm_times"),
                                           ("left", "evolflow.cli.expm_times")])
def test_flow_orbit_does_not_pass_a_nan_orbit_point(monkeypatch, tmp_path, capsys, side, binding):
    X = np.array([[0.0, 1.0], [-1.0, 0.0]])
    gen = write(tmp_path / "x.json", jsonio.matrix_to_json(X))
    base = write(tmp_path / "a.json", {"n": 2, "real": [[1.0, 0.0], [0.0, 1.0]]})
    monkeypatch.setattr(binding, nan_exponentials_at(0.5, X))
    out = tmp_path / "orbit.csv"
    code, report, err = invoke(
        capsys, "flow-orbit", "--generator", gen, "--base", base, "--group", "so",
        "--grid", "-1:1:0.5", "--side", side, "--out", str(out),
    )
    assert code == 1 and report["status"] == "fail"
    assert report["residuals"] == {"max_group_residual": "nan"}
    assert err.count("\n") == 1
    rows = list(csv.reader(out.open()))
    assert [r[0] for r in rows[1:]] == ["-1.0", "-0.5", "0.0", "0.5", "1.0"]
    assert rows[4][1:] == ["nan"] * 6  # the entries, the group residual and det
    assert all(float(r[5]) <= 1e-9 for i, r in enumerate(rows[1:]) if i != 3)


def test_curve_check_ode_and_perfectness(tmp_path, capsys):
    curve = write(tmp_path / "ff.json", {"variant": "flip_flop", "lambda": 1.0})
    gen = write(tmp_path / "q.json", {"n": 2, "real": [[-1.0, 1.0], [1.0, -1.0]]})
    code, report, _ = invoke(
        capsys, "curve-check", "--curve", curve, "--check", "ode", "--generator", gen
    )
    assert code == 0
    assert report["residuals"]["ode"] <= 1e-9
    code, report, _ = invoke(capsys, "curve-check", "--curve", curve, "--check", "perfectness")
    assert code == 0
    assert report["payload"]["sign_constant"] is True


def test_curve_eval_csv(tmp_path, capsys):
    curve = write(tmp_path / "so2.json", {"variant": "so2"})
    out = tmp_path / "samples.csv"
    code, report, _ = invoke(
        capsys, "curve-eval", "--curve", curve, "--t", "0:1:0.5", "--out", str(out)
    )
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["t", "a_1_1", "a_1_2", "a_2_1", "a_2_2", "det"]
    assert len(rows) == 4


def test_markov_validate(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"n": 2, "real": [[1.0, -1.0], [0.0, 0.0]]})
    code, report, _ = invoke(capsys, "markov-validate", bad)
    assert code == 1
    assert report["payload"]["error"] == "NegativeOffDiagonal"
    good = write(tmp_path / "good.json", {"n": 2, "real": [[-1.0, 1.0], [1.0, -1.0]]})
    code, report, _ = invoke(capsys, "markov-validate", good)
    assert code == 0


def test_markov_balance(tmp_path, capsys):
    rate = write(tmp_path / "q.json", {"n": 2, "real": [[-1.0, 1.0], [1.0, -1.0]]})
    pi = write(tmp_path / "pi.json", [0.5, 0.5])
    code, report, _ = invoke(capsys, "markov-balance", "--rate", rate, "--pi", pi)
    assert code == 0
    assert report["residuals"]["balance"] == 0.0


@pytest.mark.parametrize("bad", [{"a": 1}, ["0.5", "0.5"], [0.5, True], "0.5", 0.5, [[0.5, 0.5]]])
def test_markov_balance_takes_a_list_of_json_numbers(tmp_path, capsys, bad):
    rate = write(tmp_path / "q.json", {"n": 2, "real": [[-1.0, 1.0], [1.0, -1.0]]})
    pi = write(tmp_path / "pi.json", bad)
    code, report, err = invoke(capsys, "markov-balance", "--rate", rate, "--pi", pi)
    assert code == 2
    assert report["status"] == "error"
    assert "stationary distribution" in report["payload"]["message"]
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_flow_orbit_csv(tmp_path, capsys):
    gen = write(tmp_path / "x.json", {"n": 2, "real": [[0.0, 1.0], [-1.0, 0.0]]})
    base = write(tmp_path / "a.json", {"n": 2, "real": [[1.0, 0.0], [0.0, 1.0]]})
    out = tmp_path / "orbit.csv"
    code, report, _ = invoke(
        capsys, "flow-orbit", "--generator", gen, "--base", base,
        "--group", "so", "--grid", "-1:1:0.5", "--out", str(out),
    )
    assert code == 0
    assert report["residuals"]["max_group_residual"] <= 1e-9
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["t", "a_1_1", "a_1_2", "a_2_1", "a_2_2", "group_residual", "det"]
    ts = [float(r[0]) for r in rows[1:]]
    assert ts == sorted(ts)
    assert len(ts) == 5


def test_flow_orbit_left_side(tmp_path, capsys):
    gen = write(tmp_path / "x.json", {"n": 2, "real": [[0.0, 1.0], [-1.0, 0.0]]})
    base = write(tmp_path / "a.json", {"n": 2, "real": [[1.0, 0.0], [0.0, 1.0]]})
    code, report, _ = invoke(
        capsys, "flow-orbit", "--generator", gen, "--base", base,
        "--group", "so", "--grid", "0:1:0.5", "--side", "left",
    )
    assert code == 0


@pytest.mark.parametrize("grid", ["[0.5, 0.5, 1]", "[1, -0.0, 0.5, 0.5, 0, -1]"])
def test_flow_orbit_sides_sample_the_same_times(tmp_path, capsys, grid):
    gen = write(tmp_path / "x.json", {"n": 2, "real": [[0.0, 1.0], [-1.0, 0.0]]})
    base = write(tmp_path / "a.json", {"n": 2, "real": [[1.0, 0.0], [0.0, 1.0]]})
    times = {}
    for side in ("right", "left"):
        out = tmp_path / f"{side}.csv"
        code, report, _ = invoke(
            capsys, "flow-orbit", "--generator", gen, "--base", base, "--group", "so",
            "--grid", grid, "--side", side, "--out", str(out),
        )
        assert code == 0
        times[side] = [r[0] for r in list(csv.reader(out.open()))[1:]]
        assert report["payload"]["n_samples"] == len(times[side])
    # t = 0 once, then every nonzero grid point, duplicates kept
    nonzero = [t for t in json.loads(grid) if t != 0.0]
    assert times["left"] == times["right"] == [repr(float(t)) for t in sorted([0.0, *nonzero])]


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("bad, error", [("generator", "NotInAlgebra"), ("base", "NotInGroup")])
def test_flow_orbit_rejects_bad_input_on_both_sides(tmp_path, capsys, side, bad, error):
    eye = {"n": 2, "real": [[1.0, 0.0], [0.0, 1.0]]}
    rot = {"n": 2, "real": [[0.0, 1.0], [-1.0, 0.0]]}
    gen = write(tmp_path / "x.json", eye if bad == "generator" else rot)
    base = write(tmp_path / "a.json", {"n": 2, "real": [[2.0, 0.0], [0.0, 2.0]]} if bad == "base" else eye)
    code, report, err = invoke(
        capsys, "flow-orbit", "--generator", gen, "--base", base, "--group", "so", "--side", side,
    )
    assert code == 2
    assert report["status"] == "error"
    assert error in err


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("base, message", [
    ({"n": 3, "real": np.eye(3).tolist()}, "DimensionMismatch: matrix is 3x3, group fixes n=2"),
    ({"n": 2, "real": [[2.0, 0.0], [0.0, 2.0]]},
     "NotInGroup: base point fails so membership (residual 4.243e+00)"),
    ('{"n": 2, "real": [[NaN, 0.0], [0.0, 1.0]]}', "NonFiniteInput: matrix has non-finite entries"),
    ({"n": 2, "real": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
     "DimensionMismatch: matrix JSON says n=2 but real part has shape (2, 3)"),
], ids=["wrong-n", "non-member", "nan", "non-square"])
def test_flow_orbit_base_errors_on_both_sides(tmp_path, capsys, side, base, message):
    gen = write(tmp_path / "x.json", {"n": 2, "real": [[0.0, 1.0], [-1.0, 0.0]]})
    path = tmp_path / "a.json"
    path.write_text(base if isinstance(base, str) else json.dumps(base))
    code, report, err = invoke(
        capsys, "flow-orbit", "--generator", gen, "--base", str(path), "--group", "so", "--side", side,
    )
    assert code == 2 and report["status"] == "error"
    assert err == f"evolflow flow-orbit: {message}\n"


def gen_spec(Q):
    return {"terms": [{"fun": {"kind": "poly", "coeffs": [1.0]}, "matrix": jsonio.matrix_to_json(Q)}]}


def test_ode_solve(tmp_path, capsys):
    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    spec = write(tmp_path / "gen.json", gen_spec(Q))
    a0 = write(tmp_path / "a0.json", jsonio.matrix_to_json(np.eye(2)))
    out = tmp_path / "traj.csv"
    code, report, _ = invoke(
        capsys, "ode-solve", "--gen-spec", spec, "--a0", a0,
        "--T", "1", "--h", "1e-2", "--out", str(out),
    )
    assert code == 0
    final = jsonio.matrix_from_json(report["payload"]["final"])
    assert frob_norm(final - expm(Q)) <= 1e-7
    assert report["payload"]["n_steps"] == 100
    rows = list(csv.reader(out.open()))
    assert len(rows) == 102


def test_ode_solve_left_side(tmp_path, capsys):
    Q = np.array([[-1.0, 1.0], [0.5, -0.5]])
    spec = write(tmp_path / "gen.json", gen_spec(Q))
    a0 = write(tmp_path / "a0.json", jsonio.matrix_to_json(np.eye(2) + 0.1))
    code, report, _ = invoke(
        capsys, "ode-solve", "--gen-spec", spec, "--a0", a0,
        "--T", "1", "--h", "1e-2", "--side", "left",
    )
    assert code == 0
    final = jsonio.matrix_from_json(report["payload"]["final"])
    A0 = np.eye(2) + 0.1
    assert frob_norm(final - expm(Q) @ A0) <= 1e-7


def per_row_csv(header, samples, *columns):
    # one det and one entry list per row, as the handlers once built them
    rows = []
    for (t, M), *vals in zip(samples, *columns):
        flat = M.reshape(-1)
        entries = [repr(complex(z)) for z in flat] if np.iscomplexobj(flat) else [float(x) for x in flat]
        rows.append([t, *entries, *vals, float(np.linalg.det(M).real)])
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def three_term_spec(rng, n):
    return {"terms": [
        {"fun": {"kind": "cos", "scale": 1.7, "shift": 0.2}, "matrix": jsonio.matrix_to_json(rng.normal(size=(n, n)))},
        {"fun": {"kind": "exp", "scale": -0.6, "shift": 0.0}, "matrix": jsonio.matrix_to_json(rng.normal(size=(n, n)))},
        {"fun": {"kind": "poly", "coeffs": [0.3, -1.1]}, "matrix": jsonio.matrix_to_json(rng.normal(size=(n, n)))},
    ]}


def test_ode_solve_left_csv_is_the_transposed_march_byte_for_byte(tmp_path, capsys):
    rng = np.random.default_rng(8)
    spec = three_term_spec(rng, 3)
    A0 = rng.normal(size=(3, 3))
    out = tmp_path / "left.csv"
    code, report, _ = invoke(
        capsys, "ode-solve", "--gen-spec", write(tmp_path / "gen.json", spec),
        "--a0", write(tmp_path / "a0.json", jsonio.matrix_to_json(A0)),
        "--T", "1.37", "--h", "0.03", "--side", "left", "--out", str(out),
    )
    assert code == 0
    mf = jsonio.matrix_function_from_json(spec)
    ts, ms = per_step_march(lambda t: mf(t).T, A0.T, 0.03, 1.37, 1.0)
    samples = [(t, M.T) for t, M in zip(ts, ms)]
    header = ["t", *(f"a_{i}_{j}" for i in (1, 2, 3) for j in (1, 2, 3)), "det"]
    assert out.read_bytes() == per_row_csv(header, samples).encode()
    assert report["payload"]["final"] == jsonio.matrix_to_json(samples[-1][1])


@pytest.mark.parametrize("side", ["right", "left"])
def test_ode_solve_that_overflows_fails_its_check_and_writes_its_csv(tmp_path, capsys, side):
    # X(t) = 300 I grows like e^{300 t}: the march passes 1e308 near t = 2.4
    # and ends non-finite; the inputs are valid, so it is a failed check (exit
    # 1) with the final matrix as markov-semigroup writes a sample, not an input error
    spec = {"terms": [{"fun": {"kind": "poly", "coeffs": [300.0]}, "matrix": jsonio.matrix_to_json(np.eye(2))}]}
    out = tmp_path / "F.csv"
    code, report, err = invoke(
        capsys, "ode-solve", "--gen-spec", write(tmp_path / "gen.json", spec),
        "--a0", write(tmp_path / "a0.json", jsonio.matrix_to_json(np.eye(2))),
        "--T", "3", "--h", "0.01", "--side", side, "--out", str(out),
    )
    assert (code, report["status"], err) == (1, "fail", "evolflow ode-solve: fail\n")
    mf = jsonio.matrix_function_from_json(spec)
    with np.errstate(all="ignore"):
        ts, ms = per_step_march(mf, np.eye(2), 0.01, 3.0, 1.0)
        samples = list(zip(ts, ms))
        assert not np.isfinite(ms[-1]).any()
        header = ["t", "a_1_1", "a_1_2", "a_2_1", "a_2_2", "det"]
        assert out.read_bytes() == per_row_csv(header, samples).encode()
    final = {"n": 2, "real": [["nan", "nan"], ["nan", "nan"]]}  # as `_jsonable` writes a NaN
    assert report["payload"] == {"final": final, "n_steps": 300, "csv": str(out)}
    assert cli._jsonable(jsonio.matrix_layout(ms[-1])) == final


def test_curve_eval_csv_keeps_a_real_row_among_complex_ones(tmp_path, capsys):
    # a numeric curve with a real A0 and a complex generator: the node at
    # t = 0 is real, every other sample complex; a real det is not the real
    # part of the complex det bit for bit, so the t = 0 row keeps its own
    rng = np.random.default_rng(16)  # an A0 whose complex det differs in the last bit
    A0 = rng.normal(size=(3, 3))
    curve = {"variant": "numeric", "A0": jsonio.matrix_to_json(A0),
             "generator": gen_spec(1j * rng.normal(size=(3, 3))), "h": 0.1, "horizon": 1.0}
    out = tmp_path / "c.csv"
    grid = [-0.45, 0.0, 0.3, 1.0]
    code, _, _ = invoke(capsys, "curve-eval", "--curve", write(tmp_path / "c.json", curve),
                        "--t", json.dumps(grid), "--out", str(out))
    assert code == 0
    c = jsonio.curve_from_json(curve)
    header = ["t", *(f"a_{i}_{j}" for i in (1, 2, 3) for j in (1, 2, 3)), "det"]
    want = per_row_csv(header, [(t, c.value(t)) for t in grid])
    assert f"\r\n0.0,{float(A0[0, 0])!r}," in want
    assert out.read_bytes() == want.encode()


# floats that csv.writer writes in every notation float repr has
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-5, 1e16, 1e22, -0.1]


@pytest.mark.parametrize("chunk", [_stepper.CHUNK_ENTRIES, 20], ids=["one-batch", "batches-of-2-rows"])
@pytest.mark.parametrize("kind", ["real", "complex", "real_among_complex"])
def test_the_sample_csv_has_the_bytes_of_csv_writer(tmp_path, monkeypatch, kind, chunk):
    monkeypatch.setattr(_stepper, "CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(13)
    parts = lambda: rng.permutation(SPECIAL).reshape(3, 3)  # noqa: E731
    mats = [parts() for _ in SPECIAL]
    if kind != "real":
        for i, R in enumerate(mats):
            Z = np.empty((3, 3), complex)
            Z.real, Z.imag = R, parts()
            Z[0, 0], Z[0, 1], Z[0, 2] = complex(math.nan, -0.0), complex(-0.0, math.nan), complex(-0.0, -0.0)
            mats[i] = Z
    if kind == "real_among_complex":
        mats[4] = mats[4].real.copy()
    extra = {name: rng.permutation(SPECIAL).tolist() for name in ("row_sum_defect", "exp_t_trace", "group_residual")}
    header = ["t", *(f"a_{i}_{j}" for i in (1, 2, 3) for j in (1, 2, 3)), *extra, "det"]
    out = tmp_path / "s.csv"
    with np.errstate(all="ignore"):
        stack = _stepper._stacked(mats, 3)
        assert isinstance(stack, list) == (kind == "real_among_complex")
        cli._write_samples_csv(out, SPECIAL, stack, {**extra, "det": cli._sample_dets(stack)})
        want = per_row_csv(header, list(zip(SPECIAL, mats)), *extra.values())
    assert out.read_bytes() == want.encode()


def csv_argv(tmp_path, case):
    rng = np.random.default_rng(21)
    eye = write(tmp_path / "eye.json", jsonio.matrix_to_json(np.eye(2)))
    rot = write(tmp_path / "rot.json", {"n": 2, "real": [[0.0, 1.0], [-1.0, 0.0]]})
    spec = write(tmp_path / "gen.json", three_term_spec(rng, 2))
    numeric = {"variant": "numeric", "A0": jsonio.matrix_to_json(rng.normal(size=(2, 2))),
               "generator": gen_spec(1j * rng.normal(size=(2, 2))), "h": 0.1, "horizon": 1.0}
    return {
        "ode-solve": ["ode-solve", "--gen-spec", spec, "--a0", eye, "--T", "1", "--h", "0.1"],
        "ode-solve-left": ["ode-solve", "--gen-spec", spec, "--a0", eye, "--T", "1", "--h", "0.1", "--side", "left"],
        "curve-eval": ["curve-eval", "--curve", write(tmp_path / "so2.json", {"variant": "so2"}), "--t", "-1:1:0.5"],
        "curve-eval-complex": ["curve-eval", "--curve", write(tmp_path / "num.json", numeric), "--t", "[-0.45, 0, 0.3]"],
        "flow-orbit": ["flow-orbit", "--generator", rot, "--base", eye, "--group", "so", "--grid", "-1:1:0.5"],
        "flow-orbit-left": ["flow-orbit", "--generator", rot, "--base", eye, "--group", "so", "--grid", "[1, -0.0, 0.5]",
                            "--side", "left"],
        "markov-semigroup": ["markov-semigroup", "--lambda", "0.7", "--t", "-1:1:0.5"],
    }[case]


@pytest.mark.parametrize("case", ["ode-solve", "ode-solve-left", "curve-eval", "curve-eval-complex",
                                  "flow-orbit", "flow-orbit-left", "markov-semigroup"])
def test_handlers_hand_the_csv_writer_python_floats_only(tmp_path, capsys, monkeypatch, case):
    # every time and column value is a Python float, so its field is the
    # float's repr, as csv.writer writes it, whatever numpy type computed it
    seen = []
    write_csv = cli._write_samples_csv
    monkeypatch.setattr(cli, "_write_samples_csv", lambda *a: seen.append(a) or write_csv(*a))
    out = tmp_path / "rows.csv"
    assert invoke(capsys, *csv_argv(tmp_path, case), "--out", str(out))[0] == 0
    [(_, times, _, columns)] = seen
    assert all(type(name) is str for name in columns)
    for column in (times, *columns.values()):
        assert all(type(v) is float for v in column)
    rows = list(csv.reader(out.open()))
    assert len(rows) == len(times) + 1
    for row in rows[1:]:
        assert all(complex(field) is not None for field in row)  # every field a float or complex repr


@pytest.mark.parametrize("command", ["ode-solve", "curve-eval"])
def test_csv_rows_are_built_once_and_only_with_out(tmp_path, capsys, monkeypatch, command):
    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    if command == "ode-solve":
        argv = ["ode-solve", "--gen-spec", write(tmp_path / "gen.json", gen_spec(Q)),
                "--a0", write(tmp_path / "a0.json", jsonio.matrix_to_json(np.eye(2))), "--T", "1", "--h", "0.01"]
    else:
        curve = {"variant": "numeric", "A0": jsonio.matrix_to_json(np.eye(2)), "generator": gen_spec(Q),
                 "h": 0.01, "horizon": 1.0}
        argv = ["curve-eval", "--curve", write(tmp_path / "c.json", curve), "--t", "-1:1:0.1"]
    det_calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda M: det_calls.append(np.shape(M)) or det(M))
    assert invoke(capsys, *argv)[0] == 0
    assert det_calls == []
    assert invoke(capsys, *argv, "--out", str(tmp_path / "rows.csv"))[0] == 0
    assert len(det_calls) == 1 and len(det_calls[0]) == 3


def test_markov_semigroup_dets_agree_between_the_report_and_the_csv(capsys, tmp_path):
    out = tmp_path / "s.csv"
    code, report, _ = invoke(capsys, "markov-semigroup", "--lambda", "0.7", "--t", "-1:2:0.25", "--out", str(out))
    assert code == 0
    rows = list(csv.reader(out.open()))[1:]
    samples = report["payload"]["samples"]
    assert [float(r[-2]) for r in rows] == [s["det"] for s in samples]
    for s in samples:
        assert s["det"] == float(np.linalg.det(jsonio.matrix_from_json(s["matrix"])))


@pytest.mark.parametrize("argv", [
    ["ode-solve", "--gen-spec", "{exp400}", "--a0", "{eye}", "--T", "2"],
    ["ode-solve", "--gen-spec", "{exp400}", "--a0", "{eye}", "--T", "2", "--side", "left"],
    ["magnus", "--gen-spec", "{exp400}", "--a0", "{eye}", "--t", "2"],
    ["curve-eval", "--curve", "{numeric400}", "--t", "0.5"],
], ids=["ode-solve", "ode-solve-left", "magnus", "curve-eval"])
def test_an_overflowing_input_exits_2_with_an_error_report(tmp_path, capsys, argv):
    # math.exp(800) overflows: exp(400 t) in the generator at t = 2
    exp400 = {"terms": [{"fun": {"kind": "exp", "scale": 400, "shift": 0.0},
                         "matrix": {"n": 2, "real": [[0.0, 1.0], [-1.0, 0.0]]}}]}
    files = {
        "exp400": write(tmp_path / "exp400.json", exp400),
        "eye": write(tmp_path / "eye.json", {"n": 2, "real": [[1.0, 0.0], [0.0, 1.0]]}),
        "numeric400": write(tmp_path / "num.json", {"variant": "numeric", "A0": {"n": 2, "real": [[1.0, 0.0], [0.0, 1.0]]},
                                                    "generator": exp400, "h": 0.01, "horizon": 2.0}),
    }
    with np.errstate(all="ignore"):
        code, report, err = invoke(capsys, *[a.format(**files) for a in argv])
    assert code == 2
    assert report["status"] == "error"
    assert report["payload"]["message"] == "math range error"
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["ode-solve", "--gen-spec", "{gen}", "--a0", "{eye}", "--T", "inf", "--h", "1"],
    ["ode-solve", "--gen-spec", "{gen}", "--a0", "{eye}", "--T", "1", "--h", "1e-300"],
    ["curve-eval", "--curve", "{endless}", "--t", "0.5"],
], ids=["infinite-horizon", "tiny-step", "numeric-infinite-horizon"])
def test_a_march_past_the_step_bound_exits_2_with_an_error_report(tmp_path, capsys, argv):
    # each of these used to march without end
    gen = gen_spec(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    eye = jsonio.matrix_to_json(np.eye(2))
    files = {
        "gen": write(tmp_path / "gen.json", gen),
        "eye": write(tmp_path / "eye.json", eye),
        "endless": write(tmp_path / "c.json", {"variant": "numeric", "A0": eye, "generator": gen,
                                               "h": 0.01, "horizon": math.inf}),
    }
    code, report, err = invoke(capsys, *[a.format(**files) for a in argv])
    assert code == 2
    assert report["status"] == "error"
    assert report["payload"]["message"] == "need a finite horizon of at most 1000000 steps of h"
    assert "Traceback" not in err


@pytest.mark.parametrize("T, steps", [("1e-13", 1), ("5e-13", 5)])
def test_a_horizon_below_1e12_takes_its_steps(tmp_path, capsys, T, steps):
    # the march used to stop 1e-12 short of the horizon, so a horizon
    # below 1e-12 took no step and reported A0 as the final matrix
    spec = gen_spec(1e11 * np.array([[0.3, 1.0], [-1.0, 0.2]]))
    A0 = np.array([[1.0, 0.5], [0.25, 2.0]])
    code, report, _ = invoke(
        capsys, "ode-solve", "--gen-spec", write(tmp_path / "gen.json", spec),
        "--a0", write(tmp_path / "a0.json", jsonio.matrix_to_json(A0)), "--T", T, "--h", "1e-13",
    )
    assert code == 0
    assert report["payload"]["n_steps"] == steps
    ts, ms = per_step_march(jsonio.matrix_function_from_json(spec), A0, 1e-13, float(T), 1.0)
    assert len(ts) == steps + 1 and ts[-1] == float(T)
    assert report["payload"]["final"] == jsonio.matrix_to_json(ms[-1])
    assert report["payload"]["final"] != jsonio.matrix_to_json(A0)


def test_magnus_commuting(tmp_path, capsys):
    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    spec = write(tmp_path / "gen.json", {
        "terms": [{"fun": {"kind": "cos", "scale": 1.0, "shift": 0.0},
                   "matrix": jsonio.matrix_to_json(Q)}]
    })
    a0 = write(tmp_path / "a0.json", jsonio.matrix_to_json(np.eye(2)))
    code, report, _ = invoke(
        capsys, "magnus", "--gen-spec", spec, "--a0", a0, "--t", str(math.pi / 2)
    )
    assert code == 0
    result = jsonio.matrix_from_json(report["payload"]["result"])
    assert frob_norm(result - expm(Q)) <= 1e-8


def test_magnus_non_commuting_fails(tmp_path, capsys):
    X1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    X2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    spec = write(tmp_path / "gen.json", {
        "terms": [
            {"fun": {"kind": "poly", "coeffs": [1.0]}, "matrix": jsonio.matrix_to_json(X1)},
            {"fun": {"kind": "poly", "coeffs": [0.0, 1.0]}, "matrix": jsonio.matrix_to_json(X2)},
        ]
    })
    a0 = write(tmp_path / "a0.json", jsonio.matrix_to_json(np.eye(2)))
    code, report, _ = invoke(capsys, "magnus", "--gen-spec", spec, "--a0", a0, "--t", "1")
    assert code == 1
    assert report["payload"]["error"] == "CommutatorTooLarge"


def test_reports_are_deterministic(tmp_path, capsys):
    m = write(tmp_path / "m.json", {"n": 2, "real": [[0.0, 0.3], [-0.3, 0.0]]})
    _, _, _ = invoke(capsys, "expm", m)
    first = run(["expm", m])
    out1 = capsys.readouterr().out
    second = run(["expm", m])
    out2 = capsys.readouterr().out
    assert first == second == 0
    assert out1 == out2


def test_seed_is_echoed(tmp_path, capsys, monkeypatch):
    m = write(tmp_path / "m.json", {"n": 1, "real": [[0.0]]})
    code, report, _ = invoke(capsys, "--seed", "42", "expm", m)
    assert code == 0 and report["seed"] == 42
    monkeypatch.setenv("EVOLFLOW_SEED", "7")
    code, report, _ = invoke(capsys, "expm", m)
    assert report["seed"] == 7


@pytest.mark.parametrize("argv", [
    ["group-check", "{eye}", "--group", "bogus"],
    ["algebra-check", "{eye}", "--algebra", "bogus"],
    ["curve-eval", "--curve", "{bogus_curve}"],
    ["ode-solve", "--gen-spec", "{gen}", "--a0", "{eye}", "--T", "1", "--h", "0"],
    ["ode-solve", "--gen-spec", "{gen}", "--a0", "{eye}", "--T", "1", "--h", "2"],
    ["markov-semigroup", "--lambda", "-1"],
    ["curve-check", "--curve", "{so2}", "--check", "ode", "--generator", "{eye3}"],
], ids=["group", "algebra", "variant", "h-zero", "h-above-T", "lambda", "ode-shape"])
def test_bad_input_exits_2_with_error_report(tmp_path, capsys, argv):
    files = {
        "eye": write(tmp_path / "eye.json", {"n": 2, "real": [[1.0, 0.0], [0.0, 1.0]]}),
        "eye3": write(tmp_path / "eye3.json", jsonio.matrix_to_json(np.eye(3))),
        "bogus_curve": write(tmp_path / "bogus.json", {"variant": "bogus"}),
        "so2": write(tmp_path / "so2.json", {"variant": "so2"}),
        "gen": write(tmp_path / "gen.json", gen_spec(np.zeros((2, 2)))),
    }
    code, report, err = invoke(capsys, *[a.format(**files) for a in argv])
    assert code == 2
    assert report["status"] == "error"
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# one parser per process


def test_the_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_a_shared_parser_reports_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    m = write(tmp_path / "m.json", {"n": 2, "real": [[0.0, 0.3], [-0.3, 0.0]]})
    steps = [
        [], ["not-a-subcommand"], ["expm", m, "--t"], ["--seed", "x", "expm", m],
        ["--seed", "42", "expm", m], ["expm", m, "--t", "-1.5"], ["expm", m],
        "EVOLFLOW_SEED=7", ["expm", m], ["--seed", "3", "expm", m], [],
        ["group-check", m, "--group", "so"], ["curve-check", "--curve", m, "--check", "bogus"],
        "EVOLFLOW_SEED=junk", ["expm", m], ["--seed", "5", "group-check", m, "--group", "so"],
    ]

    def transcript():
        monkeypatch.delenv("EVOLFLOW_SEED", raising=False)
        seen = []
        for step in steps:
            if isinstance(step, str):
                monkeypatch.setenv(*step.split("="))
                continue
            code = run(step)
            out = capsys.readouterr()
            seen.append((code, out.out, out.err))
        return seen

    shared = transcript()
    assert [code for code, _, _ in shared] == [2, 2, 2, 2, 0, 0, 0, 0, 0, 2, 1, 2, 0, 1]
    assert json.loads(shared[4][1])["seed"] == 42 and "seed" not in json.loads(shared[6][1])
    assert json.loads(shared[7][1])["seed"] == 7 and json.loads(shared[8][1])["seed"] == 3
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per run
    assert transcript() == shared


# ---------------------------------------------------------------------------
# stderr holds the one summary line

_ROTATION = {"n": 2, "real": [[0.0, 1.0], [-1.0, 0.0]]}
_STDERR_CASES = {
    # RK4 overflows to inf, then NaN: the march's check fails on the non-finite final matrix
    "ode-solve": (["ode-solve", "--gen-spec", "{gen}", "--a0", "{eye}", "--T", "1", "--h", "0.01"],
                  {"kind": "poly", "coeffs": [0, 0, 0, 1e308]}),
    # the Simpson integral of exp(400 t) overflows its commutator and its exponential
    "magnus": (["magnus", "--gen-spec", "{gen}", "--a0", "{eye}", "--t", "1"],
               {"kind": "exp", "scale": 400, "shift": 0.0}),
}


def _stderr_case(tmp_path, name):
    argv, fun = _STDERR_CASES[name]
    files = {
        "gen": write(tmp_path / "gen.json", {"terms": [{"fun": fun, "matrix": _ROTATION}]}),
        "eye": write(tmp_path / "eye.json", jsonio.matrix_to_json(np.eye(2))),
    }
    return [a.format(**files) for a in argv]


def _expected_outcome(name):
    # (exit code, report, stderr): ode-solve's march fails its check with a
    # NaN final matrix (every entry: inf * 0 reaches each one), magnus
    # rejects its non-finite result as an input error
    if name == "ode-solve":
        final = {"n": 2, "real": [["nan", "nan"], ["nan", "nan"]]}
        return (1, {"payload": {"final": final, "n_steps": 100}, "residuals": {},
                    "status": "fail", "subcommand": name}, f"evolflow {name}: fail\n")
    return (2, {"payload": {"message": "matrix has non-finite entries"}, "residuals": {},
                "status": "error", "subcommand": name},
            f"evolflow {name}: NonFiniteInput: matrix has non-finite entries\n")


@pytest.mark.parametrize("name", sorted(_STDERR_CASES))
def test_numpy_warnings_stay_off_stderr(tmp_path, capsys, name):
    argv = _stderr_case(tmp_path, name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would raise out of run
        code, report, err = invoke(capsys, *argv)
    assert (code, report, err) == _expected_outcome(name)


@pytest.mark.parametrize("name", sorted(_STDERR_CASES))
def test_the_cli_process_writes_one_stderr_line(tmp_path, name):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "evolflow.cli", *_stderr_case(tmp_path, name)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, json.loads(proc.stdout), proc.stderr) == _expected_outcome(name)


# ---------------------------------------------------------------------------
# grid commands against their per-time references, byte for byte

REPEATS = "[-1.0, 0.5, -0.0, 0.25, 0.5, 0.0, 1.0, -0.5, 0.25]"


def corpus_files(tmp_path):
    """The curve, matrix and rate files of the byte-identity corpus, by name."""
    rng = np.random.default_rng(31)
    curves_ = {
        "exp3": ExpLine(np.eye(3) + 0.1 * rng.normal(size=(3, 3)), 0.5 * rng.normal(size=(3, 3))),
        "exp2c": ExpLine(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))),
        "exp17": ExpLine(rng.normal(size=(17, 17)), rng.normal(size=(17, 17)) / 4.0),
        "exp_big": ExpLine(np.eye(2), 10.0 * rng.normal(size=(2, 2))),  # 1e308 t X overflows
        "tangent": TangentInduced(np.eye(2) + 0.1 * rng.normal(size=(2, 2)), rng.normal(size=(2, 2))),
        "numeric": Numeric(np.eye(3), MatrixFunction([(AffineArg("sin", 1.3, 0.2), rng.normal(size=(3, 3))),
                                                      (Poly((0.1, 0.5)), rng.normal(size=(3, 3)))]), 0.07, 1.5),
        "numeric_c": Numeric(np.eye(2), MatrixFunction([(AffineArg("cos"), rng.normal(size=(2, 2)) * 1j)]), 0.1, 1.2),
        "so2": So2(),
        "flip_flop": FlipFlop(0.7),
        "heisenberg_exp": HeisenbergExp(AffineArg("sin"), Poly((0.0, 1.0)), 2.0),
    }
    files = {name: write(tmp_path / f"{name}.json", jsonio.curve_to_json(c)) for name, c in curves_.items()}
    Q = rng.uniform(0.0, 1.0, size=(4, 4))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    files["rate4"] = write(tmp_path / "rate4.json", jsonio.matrix_to_json(Q))
    S = rng.normal(size=(3, 3))
    files["so3_gen"] = write(tmp_path / "so3_gen.json", jsonio.matrix_to_json(S - S.T))
    files["so3_base"] = write(tmp_path / "so3_base.json", jsonio.matrix_to_json(expm(0.3 * (S.T - S))))
    files["so3_big"] = write(tmp_path / "so3_big.json", jsonio.matrix_to_json(10.0 * (S - S.T)))
    files["eye3"] = write(tmp_path / "eye3.json", jsonio.matrix_to_json(np.eye(3)))
    (tmp_path / "grid.txt").write_text("-0.5:1:0.25")
    files["grid_txt"] = str(tmp_path / "grid.txt")
    return files


GRID_COMMANDS = {
    # name: (subcommand, its per-time reference, argv with {file} placeholders, exit code)
    **{f"curve-eval-{c}-{g}": ("curve-eval", per_time_curve_eval, ["--curve", f"{{{c}}}", "--t", grid, "--out"], 0)
       for c in ("exp3", "exp2c", "exp17", "tangent", "numeric", "numeric_c", "so2", "flip_flop", "heisenberg_exp")
       for g, grid in (("range", "-1:1:0.125"), ("repeats", REPEATS))},
    "curve-eval-numeric-beyond-horizon": ("curve-eval", per_time_curve_eval,
                                          ["--curve", "{numeric}", "--t", "[0.5, 2.0, 0.7]"], 2),
    "curve-eval-exp-overflow": ("curve-eval", per_time_curve_eval,
                                ["--curve", "{exp_big}", "--t", "[0.5, 1e308, 1e307]"], 2),
    "markov-semigroup-lambda": ("markov-semigroup", per_time_markov_semigroup,
                                ["--lambda", "1.5", "--t", "-1:2:0.25", "--out"], 0),
    "markov-semigroup-rate-repeats": ("markov-semigroup", per_time_markov_semigroup,
                                      ["--rate", "{rate4}", "--t", REPEATS, "--out"], 0),
    "markov-semigroup-grid-file": ("markov-semigroup", per_time_markov_semigroup,
                                   ["--rate", "{rate4}", "--t-grid", "{grid_txt}", "--out"], 0),
    "markov-semigroup-exp-trace-overflow": ("markov-semigroup", per_time_markov_semigroup,
                                            ["--lambda", "1", "--t", "[-1000, 0, 1]", "--out"], 1),
    "markov-semigroup-overflow": ("markov-semigroup", per_time_markov_semigroup,
                                  ["--lambda", "10", "--t", "[0.5, 1e308, 1e307]"], 2),
    **{f"flow-orbit-{side}-{g}": ("flow-orbit", per_time_flow_orbit,
                                  ["--generator", "{so3_gen}", "--base", "{so3_base}", "--group", "so",
                                   "--grid", grid, "--side", side, "--out"], 0)
       for side in ("right", "left") for g, grid in (("range", "-2:2:0.1"), ("repeats", REPEATS))},
    **{f"flow-orbit-{side}-overflow": ("flow-orbit", per_time_flow_orbit,
                                       ["--generator", "{so3_big}", "--base", "{eye3}", "--group", "so",
                                        "--grid", "[0.5, 1e308]", "--side", side], 2)
       for side in ("right", "left")},
}


@pytest.mark.parametrize("name", sorted(GRID_COMMANDS))
def test_grid_commands_equal_their_per_time_references_byte_for_byte(monkeypatch, tmp_path, capsys, name):
    command, reference, template, code = GRID_COMMANDS[name]
    files = corpus_files(tmp_path)
    out = tmp_path / "samples.csv"
    argv = [command, *(a.format(**files) for a in template)]
    if argv[-1] == "--out":
        argv.append(str(out))

    def outputs():
        code = run(argv)
        captured = capsys.readouterr()
        csv_bytes = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, captured.out, captured.err, csv_bytes

    got = outputs()
    monkeypatch.setitem(cli._HANDLERS, command, reference)
    assert got == outputs()
    assert got[0] == code
