"""evolflow benchmark.

    python3 perfbench/run.py --workload grid_small --seed 1 --seconds 30 --trace 0

Runs one workload in this process as a closed loop with one caller: each
check is issued when the previous one has returned.  Inputs come from
--seed alone; evolflow sees only the matrices and files built from it.
The untraced run (--trace 0) measures for --seconds and prints every
end-to-end metric, each timing scaled to the host speed measured around
it (`reference.py`); the traced run (--trace 1) wraps evolflow's layers
from outside, runs a fixed number of rounds and prints every per-layer
metric.  The last line of stdout is the result object; the line before
it records the environment, the failures and the sample counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7     # set-ups per run, spread over it; the median is reported
REFERENCE_EVERY_S = 0.1  # a reference slice between checks at most this often
TRACE_ROUNDS = 2      # rounds in each phase of a traced run
P90_MIN_ABOVE = 10    # samples that must lie above the p90 rank
ORACLE_ROUNDS = 2     # oracle_rel_err_max covers these rounds, which every run completes
HARD_CAP_S = 150.0    # stop measuring past this, so the process exits within 180 s
END_TO_END_UNITS = {
    "checks_per_s": "1/s",        # checks / seconds spent inside check calls
    "check_s_p50": "s",           # timings are at the nominal host speed
    "check_s_p90": "s",
    "fail_ratio": "1",            # raised or wrong verdict, over attempted
    "oracle_rel_err_max": "1",    # relative Frobenius error against closed forms
    "setup_s": "s",               # median of SETUP_REPEATS set-ups
    "peak_rss_mb": "MB",
}
LAYERS = ("curves", "evoalg", "flows", "lie", "markov", "matcore", "cli")


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def rng_for(seed, *keys):
    import numpy as np

    return np.random.default_rng([seed, *keys])


def fresh_import():
    """Import evolflow from this checkout's src/, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "evolflow" or k.startswith("evolflow.")]:
        del sys.modules[name]
    importlib.import_module("evolflow")
    importlib.import_module("evolflow.cli")
    lib = SimpleNamespace(**{name: sys.modules["evolflow." + name] for name in LAYERS})
    if not Path(lib.matcore.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"evolflow was imported from {lib.matcore.__file__}, not {SRC}")
    return lib


class Tally:
    """Latencies and failures of one phase."""

    def __init__(self):
        self.latencies = []
        self.starts = []
        self.rounds = 0
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures = {}       # (kind, n, how, defect) -> count
        self.oracle_err = 0.0

    def add(self, check, start, seconds, how, known, err):
        self.starts.append(start)
        self.latencies.append(seconds)
        self.busy_s += seconds
        self.attempted += 1
        if err is not None and self.rounds < ORACLE_ROUNDS:
            self.oracle_err = max(self.oracle_err, err)
        if how is not None:
            self.failed += 1
            self.unexpected += not known
            defect = check.defect.name if known else None
            key = (check.kind, check.n, how, defect)
            self.failures[key] = self.failures.get(key, 0) + 1

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        for key, count in other.failures.items():
            self.failures[key] = self.failures.get(key, 0) + count

    def failure_log(self):
        return [{"check": k, "n": n, "how": how, "known_defect": d, "count": c}
                for (k, n, how, d), c in sorted(self.failures.items(), key=str)]


def judge(check, out, error):
    """(failure description or None, failure is the documented defect, oracle error)."""
    if error is not None:
        name = type(error).__name__
        return f"raised {name}", check.defect is not None and check.defect.raises == name, None
    try:
        verdict, err = check.verify(out)
    except Exception as exc:  # a malformed output is a failure of the check
        return f"unverifiable output: {type(exc).__name__}: {exc}", False, None
    if verdict != check.expect:
        known = check.defect is not None and check.defect.raises is None
        return f"verdict {verdict}, expected {check.expect}", known, err
    return None, False, err


def run_check(check, tracer=None):
    from workloads import CliResult

    if tracer is not None:
        tracer.on = True
    start = time.perf_counter()
    try:
        out, error = check.call(), None
    except Exception as exc:  # the check's outcome, judged below
        out, error = None, exc
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.on = False
        if isinstance(out, CliResult):
            tracer.counts["cli.out_bytes"] += (len(out.stdout.encode())
                                               + sum(os.path.getsize(f) for f in out.files))
    return seconds, judge(check, out, error)


def run_round(wl, lib, ctx, seed, r, tally, tracer=None, deck=None, host=None):
    """Round r: its deck is built untimed, then run in a seeded order."""
    if deck is None:
        deck = wl.build_round(lib, ctx, rng_for(seed, 1, r), r)
    for i in rng_for(seed, 2, r).permutation(len(deck)):
        start = time.perf_counter()
        seconds, (how, known, err) = run_check(deck[i], tracer)
        tally.add(deck[i], start, seconds, how, known, err)
        if host is not None:
            host.maybe_sample()
    tally.rounds += 1


def run_rounds(wl, lib, ctx, seed, stop, first_deck=None, tracer=None, host=None):
    """Rounds 0, 1, ... until `stop(rounds_done, tally)`."""
    tally = Tally()
    r = 0
    while True:
        run_round(wl, lib, ctx, seed, r, tally, tracer, first_deck if r == 0 else None, host)
        r += 1
        if stop(r, tally):
            return tally


def timed_setup(wl, seed, workdir):
    """Import, input generation, file writing and warm-up, timed as one."""
    start = time.perf_counter()
    lib = fresh_import()
    ctx = wl.prepare(rng_for(seed, 0), str(workdir))
    deck = wl.build_round(lib, ctx, rng_for(seed, 1, 0), 0)
    wl.warmup(lib, ctx)
    return (start, time.perf_counter() - start), lib, ctx, deck


def measure_untraced(wl, args, lib, ctx, deck, setups, workdir, t_start):
    import measure
    import reference
    import tracing

    need = measure.min_samples(0.9, P90_MIN_ABOVE)
    host = reference.HostSpeed(wl.reference, wl.reference_s, REFERENCE_EVERY_S)
    for kernel in wl.reference:  # a kernel's first call pays for lazy set-up
        kernel()
    host.sample()
    loop_start = time.perf_counter()
    latest = (lib, ctx)

    def setup_again():
        nonlocal latest
        timed, new_lib, new_ctx, _ = timed_setup(wl, args.seed, workdir)
        setups.append(timed)
        latest = (new_lib, new_ctx)
        host.sample()

    def stop(rounds, tally):
        # Set-ups are spread over the run between rounds: the host's speed
        # drifts over seconds, and set-ups timed back to back all see one state.
        now = time.perf_counter()
        if len(setups) < SETUP_REPEATS and now - loop_start >= len(setups) * args.seconds / SETUP_REPEATS:
            setup_again()
        if now - t_start > HARD_CAP_S:
            return True
        return now - loop_start >= args.seconds and len(tally.latencies) >= need

    tally = run_rounds(wl, lib, ctx, args.seed, stop, first_deck=deck, host=host)
    host.sample()
    while len(setups) < SETUP_REPEATS:
        setup_again()

    # census: how often expm sees an argument twice in round 0, on the
    # latest import (the one install() patches)
    census = tracing.Tracer()
    _, uninstall = tracing.install(census, only={"matcore.expm"})
    try:
        run_rounds(wl, *latest, args.seed, lambda r, t: True, tracer=census)
    finally:
        uninstall()

    latencies = [host.scaled(*t) for t in zip(tally.starts, tally.latencies)]
    p90, above = measure.percentile(latencies, 0.9, P90_MIN_ABOVE)
    values = {
        "checks_per_s": tally.attempted / sum(latencies),
        "check_s_p50": statistics.median(latencies),
        "check_s_p90": p90,
        "fail_ratio": tally.failed / tally.attempted,
        "oracle_rel_err_max": tally.oracle_err,
        "setup_s": statistics.median(host.scaled(*t) for t in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "rounds": tally.rounds,
        "samples": len(tally.latencies),
        "p90_samples_above": above,
        "busy_s": tally.busy_s,
        "host_factor_mean": host.factor(),
        "reference_slices": len(host.slices),
        "reference_s": sum(host.slices),
        "unscaled": {
            "checks_per_s": tally.attempted / tally.busy_s,
            "check_s_p50": statistics.median(tally.latencies),
            "check_s_p90": measure.percentile(tally.latencies, 0.9, P90_MIN_ABOVE)[0],
            "setup_s": statistics.median(seconds for _, seconds in setups),
        },
        "expm_distinct_ratio": census.distinct_ratio("matcore.expm"),
        "expm_calls_per_round": census.calls("matcore.expm"),
    }
    return tally, {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}, info


def measure_traced(wl, args, lib, ctx, deck):
    import tracing
    import workloads

    selftest = tracing.selftest(lib, workloads.GRID)
    # each round runs plainly, then traced: host speed drifts over seconds,
    # and alternating keeps the drift out of trace_overhead
    plain, traced, tracer = Tally(), Tally(), tracing.Tracer()
    for r in range(TRACE_ROUNDS):
        run_round(wl, lib, ctx, args.seed, r, plain, deck=deck if r == 0 else None)
        bindings, uninstall = tracing.install(tracer)
        try:
            run_round(wl, lib, ctx, args.seed, r, traced, tracer)
        finally:
            uninstall()
    overhead = traced.busy_s / plain.busy_s - 1.0
    info = {
        "rounds": TRACE_ROUNDS,
        "checks_per_s_untraced": plain.attempted / plain.busy_s,
        "checks_per_s_traced": traced.attempted / traced.busy_s,
        "selftest": selftest,
        "bindings": {k: sorted(v) for k, v in sorted(bindings.items())},
    }
    tally = Tally()
    tally.merge(plain)
    tally.merge(traced)
    if not selftest["ok"]:
        tally.unexpected += 1
    return tally, tracing.layer_metrics(tracer, overhead), info


def main(argv=None) -> int:
    t_start = time.perf_counter()
    # One BLAS thread unless the caller says otherwise: at n <= 300 a second
    # thread saved little, and waking it made dense latencies jitter.  Set
    # before the first numpy import.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "evolflow" / "__init__.py").is_file():
        print(f"perfbench: evolflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import measure
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        timed, lib, ctx, deck = timed_setup(wl, args.seed, workdir)
        setups = [timed]
        if args.trace:
            while len(setups) < SETUP_REPEATS:
                timed, lib, ctx, deck = timed_setup(wl, args.seed, workdir)
                setups.append(timed)
            tally, metrics, info = measure_traced(wl, args, lib, ctx, deck)
        else:
            tally, metrics, info = measure_untraced(wl, args, lib, ctx, deck,
                                                    setups, workdir, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    grid = workloads.GRID
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": measure.environment(np),
        "setup_runs_s": [seconds for _, seconds in setups],
        "grid_distinct_sums": f"{len({s + t for s in grid for t in grid})} of {len(grid) ** 2}",
        **info,
        "failures": tally.failure_log(),
        "known_defects": {d: workloads.DEFECTS[d] for d in
                          sorted({k[3] for k in tally.failures if k[3] is not None})},
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
