"""Self-tests of the benchmark harness.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
They run the real ops at a small size, so no pinned digest applies.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the checkout's src/ on the path)
import tracer  # noqa: E402
import workloads  # noqa: E402

import confoundsim.glm  # noqa: E402
import confoundsim.logs  # noqa: E402

SMALL = 5_000  # rows per day: every check still applies, and a pass is quick


def small_ops(workload):
    ops = workloads.make_ops(workload, 0, samples_per_day=SMALL)
    return ops[:1] if workload == "policy_search" else ops


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_give_identical_digests(workload):
    ops = small_ops(workload)
    plain = run.run_pass(ops, {}, {}, parse_lines=True)
    with tracer.Tracer() as t:
        traced = run.run_pass(ops, {}, {}, t, parse_lines=True)
    assert t.spans
    for r in plain + traced:
        assert not r["out"].problems, r["out"].problems
    assert [r["out"].digest for r in plain] == [r["out"].digest for r in traced]


def test_tracer_restores_every_lookup_site():
    originals = {
        mod: vars(mod)["prediction_table"]
        for mod in (confoundsim.glm, confoundsim.policy, confoundsim.scenarios, confoundsim.policy_search, confoundsim)
    }
    concat = confoundsim.logs.Log.__dict__["concat"]
    with tracer.Tracer():
        for mod, fn in originals.items():
            assert vars(mod)["prediction_table"].__wrapped__ is fn
    for mod, fn in originals.items():
        assert vars(mod)["prediction_table"] is fn
    assert confoundsim.logs.Log.__dict__["concat"] is concat


@pytest.mark.parametrize("workload", ["day_loop", "log_export"])
def test_self_times_of_an_op_fit_in_its_wall_time(workload):
    with tracer.Tracer() as t:
        records = run.run_pass(small_ops(workload), {}, {}, t)
    selfs = tracer.self_times(t.spans)
    assert min(selfs) > -1e-9
    for op, r in enumerate(records):
        total = sum(s for span, s in zip(t.spans, selfs) if span[4] == op)
        assert 0 < total <= r["wall"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_seed_changes_the_inputs(workload):
    assert workloads.make_ops(workload, 0) == workloads.make_ops(workload, 0)
    assert workloads.make_ops(workload, 0) != workloads.make_ops(workload, 1)


def test_wrong_digest_counts_as_failed_op():
    ops = small_ops("day_loop")[:2]
    right = {r["op"]: r["out"].digest for r in run.run_pass(ops, {}, {})}
    pins = dict(right, **{ops[0].name: "0" * 64})
    records = run.run_pass(ops, pins, {})
    assert [bool(r["out"].problems) for r in records] == [True, False]


def test_pinned_digests_cover_every_default_op():
    for workload in workloads.WORKLOADS:
        pins = workloads.pinned_digests(workload, workloads.DEFAULT_SEED)
        assert sorted(pins) == sorted(op.name for op in workloads.make_ops(workload, workloads.DEFAULT_SEED))


def test_run_without_library_source_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(run.BENCH, bench, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "day_loop", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
