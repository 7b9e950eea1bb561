"""Command-line front end.

Every invocation runs exactly one subcommand, prints a JSON report to
stdout and a one-line summary to stderr, and exits 0 when all checks
pass, 1 when a tolerance check fails, 2 on usage or input errors.
Handlers run with numpy's floating-point warnings off: an overflow or a
NaN is caught by the explicit finiteness checks, so stderr keeps its one
line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import curves, flows, jsonio, lie, markov
from .errors import BadGrid, CommutatorTooLarge, EvolflowError, RateMatrixError
from .matcore import expm, worst

DEFAULT_GRID = "-2:2:0.1"  # 41 equispaced points

# Most points a grid may hold; an "a:b:step" range is counted before a
# point is built, so a tiny step cannot exhaust time or memory.
MAX_GRID_POINTS = 10**6


def parse_grid(spec: str) -> list:
    """Parse "a:b:step" (inclusive, step > 0) or a JSON list/number.

    Every value must be finite, a list entry a JSON number (not a string
    or a boolean), and the grid at most MAX_GRID_POINTS long.
    """
    s = spec.strip()
    try:
        val = json.loads(s)
    except json.JSONDecodeError:
        val = None
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        val = [val]
    if isinstance(val, list):
        # JSON numbers only, as in the file formats: no strings or booleans
        if not all(map(jsonio._is_number, val)):
            raise BadGrid(f"grid list has non-numeric entries: {spec!r}")
        out = [float(x) for x in val]
        if not 0 < len(out) <= MAX_GRID_POINTS or not all(map(math.isfinite, out)):
            raise BadGrid(f"a grid list needs 1 to {MAX_GRID_POINTS} finite entries")
        return out
    parts = s.split(":")
    if len(parts) != 3:
        raise BadGrid(f"expected a:b:step or a JSON list, got {spec!r}")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError as exc:
        raise BadGrid(f"non-numeric grid bounds in {spec!r}") from exc
    if not all(map(math.isfinite, (a, b, step))):
        raise BadGrid(f"grid bounds and step must be finite in {spec!r}")
    if step <= 0.0:
        raise BadGrid("grid step must be positive")
    if a > b:
        raise BadGrid("grid start must not exceed grid end")
    if (b - a) / step + 1.0 > MAX_GRID_POINTS:
        raise BadGrid(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    eps = step * 1e-9
    pts = []
    k = 0
    while True:
        t = a + k * step
        if t > b + eps:
            break
        pts.append(min(t, b))
        k += 1
    if pts[-1] < b - eps:
        pts.append(b)  # short final interval
    return pts


@dataclass
class Report:
    subcommand: str
    status: str                      # pass | fail | error
    residuals: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)
    seed: int | None = None

    def to_json(self) -> str:
        doc = {
            "subcommand": self.subcommand,
            "status": self.status,
            "residuals": _jsonable(self.residuals),
            "payload": _jsonable(self.payload),
        }
        if self.seed is not None:
            doc["seed"] = self.seed
        return json.dumps(doc, indent=2, sort_keys=True)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
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


def _entry_headers(n):
    return [f"a_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]


def _entry_values(M):
    flat = np.asarray(M).reshape(-1)
    if np.iscomplexobj(flat):
        return [repr(complex(z)) for z in flat]
    return [float(x) for x in flat]


def _sample_dets(mats) -> list:
    # one stacked det when the matrices share a dtype; a real matrix beside
    # complex ones (a numeric curve's real A0 among complex nodes) goes row
    # by row, as a real det is not the real part of a complex one bit for bit
    if len({M.dtype for M in mats}) > 1:
        return [float(np.linalg.det(M).real) for M in mats]
    return np.linalg.det(np.stack(mats)).real.tolist()


def _write_samples_csv(path, times, mats, columns: dict):
    """One row per sample: t, the entries of its matrix, then each column's value."""
    stack = np.stack(mats)
    if np.iscomplexobj(stack):
        entries = [_entry_values(M) for M in mats]
    else:
        entries = stack.reshape(len(mats), -1).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", *_entry_headers(stack.shape[1]), *columns])
        w.writerows([t, *e, *vals] for t, e, *vals in zip(times, entries, *columns.values()))


# ---------------------------------------------------------------------------
# handlers: each returns (status, residuals, payload)


def _cmd_expm(args):
    M = jsonio.load_matrix(args.matrix)
    E = expm(args.t * M)
    return "pass", {}, {"result": jsonio.matrix_to_json(E)}


def _cmd_curve_eval(args):
    c = jsonio.load_curve(args.curve)
    grid = parse_grid(args.t)
    samples, values = [], []
    for t in grid:
        A = c.value(t)
        samples.append({"t": t, "matrix": jsonio.matrix_to_json(A)})
        values.append(A)
    payload = {"samples": samples}
    if args.out:
        _write_samples_csv(args.out, grid, values, {"det": _sample_dets(values)})
        payload["csv"] = args.out
    return "pass", {}, payload


def _cmd_curve_check(args):
    c = jsonio.load_curve(args.curve)
    grid = parse_grid(args.grid)
    if args.check == "subgroup":
        rep = curves.check_one_parameter_subgroup(c, grid, args.tol)
        residuals = {
            "identity": rep.identity_residual,
            "homomorphism": rep.homomorphism_residual,
        }
        return ("pass" if rep.passed else "fail"), residuals, {"tol": args.tol}
    if args.check == "ode":
        if not args.generator:
            raise BadGrid("--generator FILE is required for the ode check")
        X = jsonio.load_matrix(args.generator)
        rep = curves.check_ode(c, X, grid, args.tol)
        return ("pass" if rep.passed else "fail"), {"ode": rep.max_residual}, {"tol": args.tol}
    prof = curves.perfectness_profile(c, grid)
    payload = {
        "samples": [s._asdict() for s in prof.samples],  # t, scaled_abs_det, sign
        "sign_constant": prof.sign_constant,
        "all_perfect": prof.all_perfect,
    }
    min_det = min(s.scaled_abs_det for s in prof.samples)
    return ("pass" if prof.passed else "fail"), {"min_scaled_abs_det": min_det}, payload


def _cmd_group_check(args):
    M = jsonio.load_matrix(args.matrix)
    g = lie.Group.from_name(args.group, M.shape[0], args.s)
    rep = lie.in_group(M, g, args.tol)
    payload = {"belongs": rep.belongs, "component": rep.component, "group": g.kind, "n": g.n}
    return ("pass" if rep.belongs else "fail"), {"defect": rep.residual}, payload


def _cmd_algebra_check(args):
    X = jsonio.load_matrix(args.matrix)
    a = lie.Algebra.from_name(args.algebra, X.shape[0])
    rep = lie.in_algebra(X, a, args.tol)
    payload = {"belongs": rep.belongs, "algebra": a.kind, "n": a.n}
    return ("pass" if rep.belongs else "fail"), {"defect": rep.residual}, payload


def _load_rate(args):
    if (args.lam is None) == (args.rate is None):
        raise BadGrid("give exactly one of --lambda or --rate FILE")
    if args.lam is not None:
        return markov.flip_flop_rate(args.lam)
    return markov.validate_rate(jsonio.load_matrix(args.rate))


def _cmd_markov_semigroup(args):
    rate = _load_rate(args)
    if args.t_grid:
        with open(args.t_grid, "r", encoding="utf-8") as fh:
            grid = parse_grid(fh.read())
    else:
        grid = parse_grid(args.t)
    tr = float(np.trace(rate.Q))
    sems = [markov.semigroup_at(rate, t) for t in grid]
    mats = [s.matrix for s in sems]
    dets = _sample_dets(mats)
    samples, exps = [], []
    for s, d in zip(sems, dets):
        e = math.exp(s.t * tr)
        samples.append({"t": s.t, "matrix": jsonio.matrix_layout(s.matrix),
                        "non_markov_range": s.non_markov_range, "det": d, "exp_trace": e})
        exps.append(e)
    worst_row = worst(s.row_sum_defect for s in sems)
    worst_neg = worst(-s.min_entry for s in sems if not s.non_markov_range)
    payload = {"samples": samples}
    if args.out:
        columns = {"row_sum_defect": [s.row_sum_defect for s in sems], "det": dets, "exp_t_trace": exps}
        _write_samples_csv(args.out, [s.t for s in sems], mats, columns)
        payload["csv"] = args.out
    ok = worst_row <= 1e-10 and worst_neg <= markov.NONNEG_TOL
    residuals = {"max_row_sum_defect": worst_row, "max_negative_entry": worst_neg}
    return ("pass" if ok else "fail"), residuals, payload


def _cmd_markov_validate(args):
    M = jsonio.load_matrix(args.matrix)
    try:
        rate = markov.validate_rate(M, args.tol)
    except RateMatrixError as exc:
        payload = {"error": type(exc).__name__, "defects": _jsonable(exc.defects)}
        return "fail", {"defect_count": float(len(exc.defects))}, payload
    return "pass", {}, {"n": rate.n}


def _cmd_markov_balance(args):
    rate = markov.validate_rate(jsonio.load_matrix(args.rate))
    with open(args.pi, "r", encoding="utf-8") as fh:
        probs = jsonio._numbers(json.load(fh), "stationary distribution")
    rep = markov.detailed_balance(rate, markov.StationaryDistribution(probs), args.tol)
    return ("pass" if rep.passed else "fail"), {"balance": rep.defect}, {"tol": args.tol}


def _cmd_flow_orbit(args):
    X = jsonio.load_matrix(args.generator)
    A = jsonio.load_matrix(args.base)
    group = lie.Group.from_name(args.group, X.shape[0], args.s)
    grid = sorted(parse_grid(args.grid))
    fl = flows.Flow(X, group)
    if args.side == "right":
        samples = flows.flow_line(fl, A, grid, args.tol).samples
    else:
        # the times of `flows.flow_line`: t = 0 first, then every nonzero grid point
        A = flows.base_point(fl, A, args.tol)
        times = [0.0, *(t for t in grid if t != 0.0)]
        samples = [(t, expm(t * X) @ A) for t in times]
    samples = sorted(samples, key=lambda p: p[0])
    # a non-finite sample is outside every group: its residual is NaN, and the check fails
    residuals = [lie.in_group(M, group, args.tol).residual
                 if np.isfinite(M).all() else math.nan for _, M in samples]
    payload = {"n_samples": len(samples)}
    if args.out:
        times, mats = zip(*samples)
        columns = {"group_residual": residuals, "det": _sample_dets(mats)}
        _write_samples_csv(args.out, times, mats, columns)
        payload["csv"] = args.out
    top = worst(residuals)
    return ("pass" if top <= args.tol else "fail"), {"max_group_residual": top}, payload


def _cmd_ode_solve(args):
    mf = jsonio.load_matrix_function(args.gen_spec)
    A0 = jsonio.load_matrix(args.a0)
    cfg = flows.IntegratorConfig(h=args.h, horizon=args.T)
    if args.side == "right":
        samples = flows.integrate_right(mf, A0, cfg).samples
    else:
        # A' = X A is the transpose of the right-sided problem
        transposed = curves.MatrixFunction([(f, M.T) for f, M in mf.terms])
        line = flows.integrate_right(transposed, A0.T, cfg)
        samples = tuple((t, M.T) for t, M in line.samples)
    payload = {"final": jsonio.matrix_to_json(samples[-1][1]), "n_steps": len(samples) - 1}
    if args.out:
        times, mats = zip(*samples)
        _write_samples_csv(args.out, times, mats, {"det": _sample_dets(mats)})
        payload["csv"] = args.out
    return "pass", {}, payload


def _cmd_magnus(args):
    mf = jsonio.load_matrix_function(args.gen_spec)
    A0 = jsonio.load_matrix(args.a0)
    try:
        result = flows.commuting_magnus(mf, A0, args.t, args.tol)
    except CommutatorTooLarge as exc:
        return "fail", {"commutator_defect": exc.defect}, {"error": "CommutatorTooLarge"}
    return "pass", {}, {"result": jsonio.matrix_to_json(result)}


_HANDLERS = {
    "expm": _cmd_expm,
    "curve-eval": _cmd_curve_eval,
    "curve-check": _cmd_curve_check,
    "group-check": _cmd_group_check,
    "algebra-check": _cmd_algebra_check,
    "markov-semigroup": _cmd_markov_semigroup,
    "markov-validate": _cmd_markov_validate,
    "markov-balance": _cmd_markov_balance,
    "flow-orbit": _cmd_flow_orbit,
    "ode-solve": _cmd_ode_solve,
    "magnus": _cmd_magnus,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="evolflow")
    p.add_argument("--seed", type=int, default=None,
                   help="seed echoed into the report (EVOLFLOW_SEED is the fallback)")
    sub = p.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("expm", help="matrix exponential of t * M")
    s.add_argument("matrix")
    s.add_argument("--t", type=float, default=1.0)

    s = sub.add_parser("curve-eval", help="evaluate a curve on a grid")
    s.add_argument("--curve", required=True)
    s.add_argument("--t", default="0")
    s.add_argument("--out")

    s = sub.add_parser("curve-check", help="subgroup / ode / perfectness checks")
    s.add_argument("--curve", required=True)
    s.add_argument("--check", choices=("subgroup", "ode", "perfectness"), required=True)
    s.add_argument("--grid", default=DEFAULT_GRID)
    s.add_argument("--tol", type=float, default=1e-9)
    s.add_argument("--generator", help="generator matrix file (ode check)")

    s = sub.add_parser("group-check", help="matrix Lie group membership")
    s.add_argument("matrix")
    s.add_argument("--group", required=True)
    s.add_argument("--s", type=float, default=1.0, help="row/column sum for --group gds")
    s.add_argument("--tol", type=float, default=1e-9)

    s = sub.add_parser("algebra-check", help="Lie algebra membership")
    s.add_argument("matrix")
    s.add_argument("--algebra", required=True)
    s.add_argument("--tol", type=float, default=1e-9)

    s = sub.add_parser("markov-semigroup", help="exp(tQ) with Markov diagnostics")
    s.add_argument("--lambda", dest="lam", type=float, help="flip-flop intensity")
    s.add_argument("--rate", help="rate matrix JSON file")
    s.add_argument("--t", default="0:4:0.25")
    s.add_argument("--t-grid", help="file holding a grid in --t syntax")
    s.add_argument("--out")

    s = sub.add_parser("markov-validate", help="validate a rate matrix")
    s.add_argument("matrix")
    s.add_argument("--tol", type=float, default=1e-9)

    s = sub.add_parser("markov-balance", help="detailed-balance check")
    s.add_argument("--rate", required=True)
    s.add_argument("--pi", required=True, help="JSON file with the distribution")
    s.add_argument("--tol", type=float, default=1e-9)

    s = sub.add_parser("flow-orbit", help="sample a flow line on a group")
    s.add_argument("--generator", required=True)
    s.add_argument("--base", required=True)
    s.add_argument("--group", required=True)
    s.add_argument("--s", type=float, default=1.0)
    s.add_argument("--grid", default=DEFAULT_GRID)
    s.add_argument("--tol", type=float, default=1e-9)
    s.add_argument("--side", choices=("right", "left"), default="right")
    s.add_argument("--out")

    s = sub.add_parser("ode-solve", help="integrate A' = A X(t)")
    s.add_argument("--gen-spec", required=True, dest="gen_spec")
    s.add_argument("--a0", required=True)
    s.add_argument("--T", type=float, required=True)
    s.add_argument("--h", type=float, default=1e-3)
    s.add_argument("--side", choices=("right", "left"), default="right")
    s.add_argument("--out")

    s = sub.add_parser("magnus", help="commuting-case closed-form solution")
    s.add_argument("--gen-spec", required=True, dest="gen_spec")
    s.add_argument("--a0", required=True)
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--tol", type=float, default=1e-8, help="relative commutator tolerance")

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves a parser unchanged, and each
    # parse starts from a fresh namespace
    return build_parser()


# flags whose values (grids, times) may start with a minus sign, which
# argparse would otherwise read as an option
_DASH_VALUE_FLAGS = ("--grid", "--t", "--T")


def _fuse_dash_values(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _DASH_VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(_fuse_dash_values(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    seed = args.seed
    if seed is None and os.environ.get("EVOLFLOW_SEED"):
        try:
            seed = int(os.environ["EVOLFLOW_SEED"])
        except ValueError:
            seed = None

    try:
        with np.errstate(all="ignore"):  # finiteness is checked explicitly
            status, residuals, payload = _HANDLERS[args.subcommand](args)
    except (EvolflowError, OSError, ValueError, KeyError, OverflowError) as exc:
        # plain ValueErrors (json.JSONDecodeError among them) are bad input
        # too, and so is an input whose math.exp overflows
        kind = type(exc).__name__ if isinstance(exc, EvolflowError) else "input error"
        print(f"evolflow {args.subcommand}: {kind}: {exc}", file=sys.stderr)
        print(Report(args.subcommand, "error", {}, {"message": str(exc)}, seed).to_json())
        return 2

    report = Report(args.subcommand, status, residuals, payload, seed)
    print(report.to_json())
    shown = ", ".join(f"{k}={_jsonable(v)}" for k, v in sorted(residuals.items()))
    print(f"evolflow {args.subcommand}: {status}" + (f" ({shown})" if shown else ""), file=sys.stderr)
    return 0 if status == "pass" else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
