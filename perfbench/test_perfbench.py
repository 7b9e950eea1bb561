"""Tests of the benchmark's own arithmetic, tracing and workload verdicts.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import random
import sys
from pathlib import Path

import pytest

import measure
import reference
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

ROOT = Path(__file__).resolve().parent.parent

# layers a workload never touches report exactly zero
IDLE = {
    "grid_small": ["stepper.rk4_step.calls", "curves.Numeric.build_s", "curves.MatrixFunction.calls",
                   "jsonio.bytes", "cli.out_bytes", "flows.integrate.self_s"],
    "dense_large": ["stepper.rk4_step.calls", "flows.flow_apply.calls", "curves.Numeric.build_s",
                    "jsonio.bytes", "cli.out_bytes", "flows.check.self_s", "flows.integrate.self_s"],
    "cli_march": ["flows.flow_apply.calls", "flows.check.self_s", "evoalg.calls", "curves.check.self_s"],
}


@pytest.fixture
def lib():
    # tracing.install patches the modules in sys.modules, so each test
    # works on the import it installs into
    return run.fresh_import()


# -- percentiles -------------------------------------------------------------


def test_p90_of_100_samples_leaves_ten_above():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert measure.percentile(values, 0.9) == (90, 10)


def test_p90_refuses_fewer_than_ten_above():
    with pytest.raises(ValueError):
        measure.percentile(range(99), 0.9)


def test_min_samples_is_the_smallest_sufficient_count():
    for q in (0.5, 0.9, 0.95, 0.99):
        n = measure.min_samples(q)
        measure.percentile(range(n), q)
        with pytest.raises(ValueError):
            measure.percentile(range(n - 1), q)
    assert measure.min_samples(0.9) == 100


def test_percentile_with_ties_counts_ranks_not_values():
    values = [1.0] * 95 + [2.0] * 10
    assert measure.percentile(values, 0.9) == (1.0, 10)


# -- host speed ----------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_each_interval_is_scaled_by_the_slices_around_it():
    clock = FakeClock()
    durations = iter([1.0, 3.0, 2.0])

    def kernel():
        clock.t += next(durations)

    host = reference.HostSpeed((kernel,), nominal_s=0.5, every_s=10.0, clock=clock)
    host.maybe_sample()             # too soon after creation: no slice
    assert host.slices == []
    clock.t = 10.0
    host.maybe_sample()             # [10, 11]
    clock.t = 20.0
    host.sample()                   # [20, 23]
    host.maybe_sample()             # 0 s since the last slice ended: none
    clock.t = 30.0
    host.sample()                   # [30, 32]
    assert host.starts == [10.0, 20.0, 30.0] and host.slices == [1.0, 3.0, 2.0]
    assert host.factor() == 4.0                     # mean 2 s over nominal 0.5 s
    assert host.factor_at(12.0, 15.0) == 4.0        # (1 + 3) / 2 / 0.5
    assert host.factor_at(24.0, 29.0) == 5.0        # (3 + 2) / 2 / 0.5
    assert host.factor_at(12.0, 25.0) == 3.0        # spans a slice: (1 + 2) / 2 / 0.5
    assert host.factor_at(0.0, 5.0) == 2.0          # before the first slice: 1 / 0.5
    assert host.factor_at(40.0, 41.0) == 4.0        # after the last: 2 / 0.5
    assert host.scaled(24.0, 5.0) == 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_nominal_matches_its_kernels(name):
    # within a factor of 10 either way on any host the benchmark is meant for
    wl = workloads.WORKLOADS[name]
    host = reference.HostSpeed(wl.reference, wl.reference_s, every_s=0.0)
    for _ in range(3):
        host.maybe_sample()
    assert len(host.slices) == 3
    assert 0.1 < host.factor() < 10.0


# -- spans -------------------------------------------------------------------


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    axioms = tr.enter("flows.check")              # t = 0
    clock.t = 1.0
    apply1 = tr.enter("flows.flow_apply")
    clock.t = 2.0
    member = tr.enter("lie.in_group")
    clock.t = 4.0
    tr.exit(member)                               # in_group: 2 s
    clock.t = 6.0
    tr.exit(apply1)                               # flow_apply: 5 s, 3 s self
    clock.t = 7.0
    apply2 = tr.enter("flows.flow_apply")
    clock.t = 9.0
    tr.exit(apply2)                               # flow_apply: 2 s, all self
    clock.t = 10.0
    tr.exit(axioms)                               # flow_axioms: 10 s, 3 s self
    assert tr.spans["lie.in_group"] == [1, 2.0, 2.0]
    assert tr.spans["flows.flow_apply"] == [2, 7.0, 5.0]
    assert tr.spans["flows.check"] == [1, 10.0, 3.0]
    assert tr.self_s("flows") == pytest.approx(8.0)
    assert not tr.inside


def test_paused_time_is_charged_to_no_span():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    outer = tr.enter("a")
    clock.t = 1.0
    with tr.paused():
        clock.t = 5.0
    clock.t = 6.0
    tr.exit(outer)
    assert tr.spans["a"] == [1, 2.0, 2.0]


def test_spans_must_close_in_order():
    tr = tracing.Tracer(FakeClock())
    outer = tr.enter("a")
    tr.enter("b")
    with pytest.raises(RuntimeError):
        tr.exit(outer)


def test_expm_matmuls_follow_the_one_norm():
    import numpy as np

    assert tracing.expm_matmuls(np.zeros((3, 3))) == 0
    assert tracing.expm_matmuls(np.eye(2)) == 6
    assert tracing.expm_matmuls(8.0 * np.eye(2)) == 7       # 8 / theta13 < 2
    assert tracing.expm_matmuls(np.array([[1.0, 1e8], [0.0, -1.0]])) == 6 + 25


# -- wrapper table -------------------------------------------------------------


def test_exact_counts_and_bindings(lib):
    result = tracing.selftest(lib, workloads.GRID)
    counts = {k: v["got"] for k, v in result["counts"].items()}
    assert counts == {"subgroup.expm": 1723, "flow_axioms.flow_apply": 5044,
                      "flow_axioms.in_group": 5044, "flow_axioms.expm": 5044}
    assert result["missing_bindings"] == {}
    assert result["ok"]


def test_install_replaces_every_binding_and_uninstall_restores(lib):
    original = lib.matcore.expm
    holders = [m for m in tracing._evolflow_modules() if getattr(m, "expm", None) is original]
    assert {m.__name__ for m in holders} >= tracing.REQUIRED_BINDINGS["matcore.expm"]
    bindings, uninstall = tracing.install(tracing.Tracer())
    try:
        assert not any(v is original for m in tracing._evolflow_modules() for v in vars(m).values())
        assert set(bindings["matcore.expm"]) == {m.__name__ for m in holders}
    finally:
        uninstall()
    assert all(m.expm is original for m in holders)


# -- metrics -----------------------------------------------------------------


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_idle_tracer_reports_every_layer_metric_as_zero():
    metrics = tracing.layer_metrics(tracing.Tracer(), 0.0)
    assert list(metrics) == list(tracing.LAYER_UNITS)
    assert all(m["value"] == 0 for m in metrics.values())


def test_benchmark_json_lists_what_the_runner_prints():
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_UNITS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_round_reports_every_layer_metric(name, lib, tmp_path):
    wl = workloads.WORKLOADS[name]
    ctx = wl.prepare(run.rng_for(5, 0), str(tmp_path))
    tracer = tracing.Tracer()
    _, uninstall = tracing.install(tracer)
    try:
        tally = run.run_rounds(wl, lib, ctx, 5, lambda r, t: True, tracer=tracer)
    finally:
        uninstall()
    assert tally.unexpected == 0, tally.failure_log()
    metrics = tracing.layer_metrics(tracer, 0.1)
    assert {k: v["unit"] for k, v in metrics.items()} == tracing.LAYER_UNITS
    for idle in IDLE[name]:
        assert metrics[idle]["value"] == 0, idle
    assert metrics["matcore.expm.calls"]["value"] > 0
    if name == "cli_march":
        assert metrics["stepper.gen_calls_per_step"]["value"] == 4.0


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    code = run.main(["--workload", "cli_march", "--seed", "3", "--seconds", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 100
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["p90_samples_above"] >= 10
    assert record["reference_slices"] >= 2 and record["host_factor_mean"] > 0
    assert set(record["unscaled"]) == {"checks_per_s", "check_s_p50", "check_s_p90", "setup_s"}
    assert record["env"]["nproc"] >= 1
    assert not (ROOT / ".perfbench_work" / f"cli_march-{os.getpid()}").exists()


# -- verdicts ----------------------------------------------------------------


def test_known_defects_fail_as_documented(lib):
    checks = {c.kind: c for c in workloads._dense_checks(lib, run.rng_for(7, 1, 0), 50)}
    for kind, defect in (("det_trace_identity", workloads.DET_TRACE_UNDERFLOW),
                         ("in_group.stochastic", workloads.STOCHASTIC_GAUGE)):
        _, (how, known, _) = run.run_check(checks[kind])
        assert how is not None and known, (kind, how)
        assert checks[kind].defect == defect


def test_a_failure_other_than_the_documented_one_is_unexpected():
    check = workloads.Check("k", 2, lambda: 1 / 0, workloads._verdict,
                            defect=workloads.STOCHASTIC_GAUGE)
    _, (how, known, _) = run.run_check(check)
    assert how == "raised ZeroDivisionError" and not known


def test_grid_small_rounds_differ_in_entries_only(lib):
    shape = lambda r: [(c.kind, c.n, c.expect) for c in  # noqa: E731
                       workloads.grid_small_round(lib, {}, run.rng_for(4, 1, r), r)]
    assert shape(0) == shape(1) == shape(7)
    sizes = {n for _, n, _ in shape(0)}
    assert sizes == {2, 3, 4, 5}


def test_expected_fail_verdicts_hold(lib):
    checks = workloads.grid_small_round(lib, {}, run.rng_for(9, 1, 0), 0)
    fails = [c for c in checks if not c.expect]
    assert len(fails) >= 4
    for check in fails:
        _, (how, _, _) = run.run_check(check)
        assert how is None, (check.kind, how)


def test_direct_sum_oracle_is_exact():
    import numpy as np

    D = workloads.direct_sum(np.random.default_rng(0), 300)
    assert D.n == 300
    assert np.array_equal(D.exp(0.0), np.eye(300))
    assert math.isclose(np.linalg.det(D.exp(0.7)) / math.exp(0.7 * np.trace(D.generator())), 1.0,
                        rel_tol=1e-10)
