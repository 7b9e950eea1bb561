"""Spans and counters around evolflow's public functions, installed from outside.

`install` replaces each function in `TABLE` with a wrapper that opens a
span, and it does so in every evolflow module that binds the function:
`from .matcore import expm` gives `curves`, `flows`, `markov` and `cli`
their own binding of `expm`, and a wrapper on `matcore.expm` alone would
miss all of them.  Curve methods are wrapped on their classes, and
`numpy.linalg.det` / `numpy.linalg.solve` are counted while an evolflow
span is open.

Spans are aggregated as they close (calls, total and self seconds per
name) instead of being kept one by one: a traced grid_small round closes
about 10^5 spans.  Self time is a span's duration minus the durations of
its direct children.  Work done by hooks (argument hashing, norms, file
sizes) runs with the tracer's clock paused, so it is charged to no span.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# Largest 1-norm the Pade(13,13) approximant takes without scaling (Higham
# 2005); `matcore.expm` halves its argument until the norm is below it.
PADE13_THETA = 5.371920351148152


class Tracer:
    """Open-span stack plus per-name aggregates and free-form counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.on = False
        self.spans = {}                 # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.seen = defaultdict(set)    # name -> distinct argument keys
        self._stack = []                # open frames: [name, start, child_s]
        self._paused = 0.0

    def now(self) -> float:
        return self.clock() - self._paused

    @property
    def inside(self) -> bool:
        return bool(self._stack)

    def enter(self, name: str) -> list:
        frame = [name, self.now(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.now()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        dur = end - frame[1]
        agg = self.spans.setdefault(frame[0], [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def paused(self):
        start = self.clock()
        try:
            yield
        finally:
            self._paused += self.clock() - start

    # -- aggregate readers -------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0,))[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0))[1]

    def self_s(self, prefix: str) -> float:
        """Self seconds of the span `prefix` and every span named `prefix.*`."""
        return sum(v[2] for k, v in self.spans.items()
                   if k == prefix or k.startswith(prefix + "."))

    def layer_calls(self, prefix: str) -> int:
        return sum(v[0] for k, v in self.spans.items() if k.startswith(prefix + "."))

    def distinct_ratio(self, name: str) -> float:
        calls = self.calls(name)
        return len(self.seen[name]) / calls if calls else 0.0


def _array_key(M) -> tuple:
    M = np.ascontiguousarray(M)
    return (M.shape, M.dtype.str, hashlib.blake2b(M.tobytes(), digest_size=16).digest())


def expm_matmuls(X) -> int:
    """Matrix products `matcore.expm` spends on X: 6 for the Pade core plus one per squaring."""
    X = np.asarray(X)
    nrm = float(np.abs(X).sum(axis=0).max()) if X.size else 0.0
    if nrm == 0.0:
        return 0
    squarings = math.ceil(math.log2(nrm / PADE13_THETA)) if nrm > PADE13_THETA else 0
    return 6 + squarings


def _expm_hook(tracer, args, kwargs, result):
    X = args[0] if args else kwargs["X"]
    tracer.seen["matcore.expm"].add(_array_key(X))
    tracer.counts["matcore.expm.matmuls"] += expm_matmuls(X)


def _in_group_hook(tracer, args, kwargs, result):
    M = args[0] if args else kwargs["M"]
    group = args[1] if len(args) > 1 else kwargs["group"]
    tracer.seen["lie.in_group"].add((_array_key(M), group))


def _file_bytes_hook(tracer, args, kwargs, result):
    # runs after the call, so a written file already has its final size
    tracer.counts["jsonio.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


# (module, attribute, span name, hook).  The layers reported as a whole
# (markov, evoalg, jsonio) have every public function wrapped, so their self
# time does not leak into callers; elsewhere only the reported functions are.
TABLE = [
    ("evolflow.matcore", "expm", "matcore.expm", _expm_hook),
    ("evolflow.matcore", "is_nonsingular", "matcore.is_nonsingular", None),
    ("evolflow.lie", "in_group", "lie.in_group", _in_group_hook),
    ("evolflow.lie", "in_algebra", "lie.in_algebra", None),
    ("evolflow.curves", "check_one_parameter_subgroup", "curves.check", None),
    ("evolflow.curves", "check_ode", "curves.check", None),
    ("evolflow.curves", "perfectness_profile", "curves.check", None),
    ("evolflow.curves", "nonsingularity_interval", "curves.check", None),
    ("evolflow.markov", "semigroup_at", "markov.semigroup_at", None),
    ("evolflow.markov", "axioms_report", "markov.axioms_report", None),
    ("evolflow.markov", "kolmogorov_residuals", "markov.kolmogorov_residuals", None),
    ("evolflow.markov", "det_trace_identity", "markov.det_trace_identity", None),
    ("evolflow.markov", "detailed_balance", "markov.detailed_balance", None),
    ("evolflow.markov", "validate_rate", "markov.validate_rate", None),
    ("evolflow.markov", "truncate_reversible", "markov.truncate_reversible", None),
    ("evolflow.markov", "random_rate_matrix", "markov.random_rate_matrix", None),
    ("evolflow.markov", "flip_flop_rate", "markov.flip_flop_rate", None),
    ("evolflow.markov", "birth_death_rate", "markov.birth_death_rate", None),
    ("evolflow.flows", "flow_apply", "flows.flow_apply", None),
    ("evolflow.flows", "flow_axioms", "flows.check", None),
    ("evolflow.flows", "integrate_right", "flows.integrate", None),
    ("evolflow.flows", "commuting_magnus", "flows.integrate", None),
    ("evolflow.evoalg", "evo_mul", "evoalg.evo_mul", None),
    ("evolflow.evoalg", "evolution_operator", "evoalg.evolution_operator", None),
    ("evolflow.evoalg", "is_perfect", "evoalg.is_perfect", None),
    ("evolflow.evoalg", "is_markov_algebra", "evoalg.is_markov_algebra", None),
    ("evolflow.jsonio", "matrix_to_json", "jsonio.matrix_to_json", None),
    ("evolflow.jsonio", "matrix_from_json", "jsonio.matrix_from_json", None),
    ("evolflow.jsonio", "element_to_json", "jsonio.element_to_json", None),
    ("evolflow.jsonio", "element_from_json", "jsonio.element_from_json", None),
    ("evolflow.jsonio", "load_matrix", "jsonio.load_matrix", _file_bytes_hook),
    ("evolflow.jsonio", "save_matrix", "jsonio.save_matrix", _file_bytes_hook),
    ("evolflow.jsonio", "scalar_function_to_json", "jsonio.scalar_function_to_json", None),
    ("evolflow.jsonio", "scalar_function_from_json", "jsonio.scalar_function_from_json", None),
    ("evolflow.jsonio", "matrix_function_to_json", "jsonio.matrix_function_to_json", None),
    ("evolflow.jsonio", "matrix_function_from_json", "jsonio.matrix_function_from_json", None),
    ("evolflow.jsonio", "load_matrix_function", "jsonio.load_matrix_function", _file_bytes_hook),
    ("evolflow.jsonio", "curve_to_json", "jsonio.curve_to_json", None),
    ("evolflow.jsonio", "curve_from_json", "jsonio.curve_from_json", None),
    ("evolflow.jsonio", "load_curve", "jsonio.load_curve", _file_bytes_hook),
    ("evolflow.cli", "run", "cli.run", None),
]

# (class name, or None for every Curve variant that defines the method;
# method; span name)
METHODS = [
    (None, "value", "curves.value"),
    ("Numeric", "__post_init__", "curves.Numeric.build"),
    ("MatrixFunction", "__call__", "curves.MatrixFunction"),
]


def _span(tracer, fn, name, hook=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                with tracer.paused():
                    hook(tracer, args, kwargs, result)
            return result
        finally:
            tracer.exit(frame)
    return wrapper


def _rk4_span(tracer, fn):
    # counts the generator evaluations each step makes
    @functools.wraps(fn)
    def wrapper(A, t, h, gen):
        if not tracer.on:
            return fn(A, t, h, gen)

        def counted(s):
            tracer.counts["stepper.gen_calls"] += 1
            return gen(s)

        frame = tracer.enter("stepper.rk4_step")
        try:
            return fn(A, t, h, counted)
        finally:
            tracer.exit(frame)
    return wrapper


def _lu_counter(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.on and tracer.inside:
            tracer.counts["matcore.lu.calls"] += 1
        return fn(*args, **kwargs)
    return wrapper


def _evolflow_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "evolflow" or k.startswith("evolflow."))]


def install(tracer: Tracer, only=None):
    """Wrap evolflow in place; returns (bindings, uninstall).

    `bindings` maps each span name to the modules whose bindings were
    replaced.  `only`, a set of span names, limits the wrapping to those.
    """
    import evolflow  # noqa: F401  (loads every submodule)

    modules = _evolflow_modules()
    patches = []  # (owner, attribute, original)
    bindings = defaultdict(set)

    def rebind(original, wrapper, span):
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                patches.append((mod, key, original))
                setattr(mod, key, wrapper)
                bindings[span].add(mod.__name__)

    for module_name, attr, span, hook in TABLE:
        if only is None or span in only:
            original = getattr(sys.modules[module_name], attr)
            rebind(original, _span(tracer, original, span, hook), span)

    if only is None or "stepper.rk4_step" in only:
        original = sys.modules["evolflow._stepper"].rk4_step
        rebind(original, _rk4_span(tracer, original), "stepper.rk4_step")

    curves = sys.modules["evolflow.curves"]
    classes = [c for c in vars(curves).values() if isinstance(c, type)
               and (issubclass(c, curves.Curve) or c is curves.MatrixFunction)]
    for cls in classes:
        for owner, attr, span in METHODS:
            if owner not in (None, cls.__name__):
                continue
            if (only is None or span in only) and attr in vars(cls):
                original = vars(cls)[attr]
                patches.append((cls, attr, original))
                setattr(cls, attr, _span(tracer, original, span))
                bindings[span].add(f"{curves.__name__}.{cls.__name__}")

    if only is None or "matcore.lu" in only:
        for attr in ("det", "solve"):
            original = getattr(np.linalg, attr)
            patches.append((np.linalg, attr, original))
            setattr(np.linalg, attr, _lu_counter(tracer, original))
        bindings["matcore.lu"].add("numpy.linalg")

    def uninstall():
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)

    return dict(bindings), uninstall


# name -> unit, in report order; `layer_metrics` fills every one of them
LAYER_UNITS = {
    "matcore.expm.calls": "count",
    "matcore.expm.self_s": "s",
    "matcore.expm.distinct_ratio": "1",
    "matcore.expm.matmuls": "count",
    "matcore.lu.calls": "count",
    "matcore.is_nonsingular.calls": "count",
    "lie.in_group.calls": "count",
    "lie.in_group.self_s": "s",
    "lie.in_group.distinct_ratio": "1",
    "lie.in_algebra.self_s": "s",
    "curves.value.calls": "count",
    "curves.value.self_s": "s",
    "curves.check.self_s": "s",
    "curves.Numeric.build_s": "s",
    "curves.MatrixFunction.calls": "count",
    "markov.semigroup_at.calls": "count",
    "markov.self_s": "s",
    "flows.flow_apply.calls": "count",
    "flows.flow_apply.self_s": "s",
    "flows.check.self_s": "s",
    "flows.integrate.self_s": "s",
    "stepper.rk4_step.calls": "count",
    "stepper.rk4_step.self_s": "s",
    "stepper.gen_calls_per_step": "1",
    "evoalg.calls": "count",
    "evoalg.self_s": "s",
    "jsonio.self_s": "s",
    "jsonio.bytes": "B",
    "cli.run.self_s": "s",
    "cli.out_bytes": "B",
    "trace_overhead": "1",
}


def layer_metrics(tracer: Tracer, trace_overhead: float) -> dict:
    """Every per-layer metric, zero where the layer did no work."""
    t = tracer
    steps = t.calls("stepper.rk4_step")
    values = {
        "matcore.expm.calls": t.calls("matcore.expm"),
        "matcore.expm.self_s": t.self_s("matcore.expm"),
        "matcore.expm.distinct_ratio": t.distinct_ratio("matcore.expm"),
        "matcore.expm.matmuls": t.counts["matcore.expm.matmuls"],
        "matcore.lu.calls": t.counts["matcore.lu.calls"],
        "matcore.is_nonsingular.calls": t.calls("matcore.is_nonsingular"),
        "lie.in_group.calls": t.calls("lie.in_group"),
        "lie.in_group.self_s": t.self_s("lie.in_group"),
        "lie.in_group.distinct_ratio": t.distinct_ratio("lie.in_group"),
        "lie.in_algebra.self_s": t.self_s("lie.in_algebra"),
        "curves.value.calls": t.calls("curves.value"),
        "curves.value.self_s": t.self_s("curves.value"),
        "curves.check.self_s": t.self_s("curves.check"),
        "curves.Numeric.build_s": t.total_s("curves.Numeric.build"),
        "curves.MatrixFunction.calls": t.calls("curves.MatrixFunction"),
        "markov.semigroup_at.calls": t.calls("markov.semigroup_at"),
        "markov.self_s": t.self_s("markov"),
        "flows.flow_apply.calls": t.calls("flows.flow_apply"),
        "flows.flow_apply.self_s": t.self_s("flows.flow_apply"),
        "flows.check.self_s": t.self_s("flows.check"),
        "flows.integrate.self_s": t.self_s("flows.integrate"),
        "stepper.rk4_step.calls": steps,
        "stepper.rk4_step.self_s": t.self_s("stepper.rk4_step"),
        "stepper.gen_calls_per_step": t.counts["stepper.gen_calls"] / steps if steps else 0.0,
        "evoalg.calls": t.layer_calls("evoalg"),
        "evoalg.self_s": t.self_s("evoalg"),
        "jsonio.self_s": t.self_s("jsonio"),
        "jsonio.bytes": t.counts["jsonio.bytes"],
        "cli.run.self_s": t.self_s("cli.run"),
        "cli.out_bytes": t.counts["cli.out_bytes"],
        "trace_overhead": trace_overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


# every module that must have its binding replaced, per span
REQUIRED_BINDINGS = {
    "matcore.expm": {"evolflow.matcore", "evolflow.curves", "evolflow.flows",
                     "evolflow.markov", "evolflow.cli"},
    "lie.in_group": {"evolflow.lie", "evolflow.flows"},
    "matcore.is_nonsingular": {"evolflow.matcore", "evolflow.lie"},
    "stepper.rk4_step": {"evolflow._stepper", "evolflow.curves", "evolflow.flows"},
}


def selftest(lib, grid) -> dict:
    """Exact call counts on two checks whose counts follow from the grid size G.

    A subgroup check on an ExpLine evaluates A(0), the G grid values and
    the G^2 sums: G^2 + G + 1 expm calls (1723 for G = 41).  flow_axioms
    with one base applies the flow once for the identity and three times
    per grid pair: 3 G^2 + 1 applications (5044), each one in_group and
    one expm.
    """
    G = len(grid)
    tracer = Tracer()
    bindings, uninstall = install(tracer)
    try:
        tracer.on = True
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        lib.curves.check_one_parameter_subgroup(lib.curves.ExpLine(np.eye(2), rot), grid)
        subgroup_expm = tracer.calls("matcore.expm")
        lib.flows.flow_axioms(lib.flows.Flow(rot, lib.lie.Group.so(2)), [np.eye(2)], grid)
    finally:
        tracer.on = False
        uninstall()
    counts = {
        "subgroup.expm": (subgroup_expm, G * G + G + 1),
        "flow_axioms.flow_apply": (tracer.calls("flows.flow_apply"), 3 * G * G + 1),
        "flow_axioms.in_group": (tracer.calls("lie.in_group"), 3 * G * G + 1),
        "flow_axioms.expm": (tracer.calls("matcore.expm") - subgroup_expm, 3 * G * G + 1),
    }
    missing = {span: sorted(need - bindings.get(span, set()))
               for span, need in REQUIRED_BINDINGS.items() if need - bindings.get(span, set())}
    return {
        "ok": all(got == want for got, want in counts.values()) and not missing,
        "counts": {k: {"got": got, "want": want} for k, (got, want) in counts.items()},
        "missing_bindings": missing,
    }
