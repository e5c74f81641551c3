"""confoundsim benchmark: one workload, closed loop, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload day_loop --seed 0 --seconds 30 --trace 0

One client runs the workload's ops back to back in this process, with no
worker threads or pools, repeating whole passes over the ops until
``--seconds`` have elapsed.  Every op's output is checked (see
``workloads.py``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced pass and then traced passes, and reports
the per-layer metrics from the spans (see ``tracer.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give every metric by name and unit, the machine, and the output digest.
The library is imported from ``src/`` of the checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
MB = 1024 * 1024

# One thread per process: BLAS pools would add workers and noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Without the checkout's src/ these imports fail, and the run exits nonzero.
sys.path[:0] = [str(SRC), str(BENCH)]
import confoundsim  # noqa: E402
import numpy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

# A fresh interpreter that imports the library and builds the workload's
# inputs, then says so; the time until it does is one set-up sample.
PROBE = (
    "import sys, workloads; workloads.make_ops(sys.argv[1], int(sys.argv[2])); "
    "print('ready', flush=True)"
)


def machine() -> dict:
    """What the numbers were measured on."""
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    llc = ""
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    if caches:
        top = max(caches, key=lambda p: int((p / "level").read_text()))
        llc = f"L{(top / 'level').read_text().strip()} {(top / 'size').read_text().strip()}"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from interpreter start until the first op could start, per probe."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", PROBE, workload, str(seed)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return times


def run_pass(ops, pins: dict, first: dict, active=None, parse_lines=False, deadline=None) -> list:
    """Run the ops in order, once each; returns one record per op run.

    ``first`` maps op name to the digest of its first run in this process
    and is filled on the way; a later digest that differs is a failure,
    as is one that differs from ``pins``.  No op starts after ``deadline``.
    """
    records = []
    for index, op in enumerate(ops):
        if deadline is not None and perf_counter() >= deadline:
            break
        op_dir = OUT / "op"
        workloads.clear(op_dir)
        if active is not None:
            active.op = index
        try:
            wall, out = workloads.run_op(op, op_dir, parse_lines=parse_lines)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            wall, out = 0.0, workloads.Outcome(problems=[f"raised {type(exc).__name__}: {exc}"])
        workloads.clear(op_dir)
        if not out.problems:
            expected = pins.get(op.name, "none pinned") if pins else first.setdefault(op.name, out.digest)
            if out.digest != expected:
                out.problems.append(f"digest {out.digest[:16]} != expected {expected[:16]}")
        records.append({"op": op.name, "wall": wall, "out": out})
    return records


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Passes over the workload's ops until ``seconds`` elapse.

    Returns one ``{"records", "tracer", "complete"}`` dict per pass.  No op
    starts after the deadline, so the last pass may be partial; the first
    pass (and, with ``trace``, the second) always completes.  With
    ``trace``, passes alternate untraced and traced, each traced pass
    under its own :class:`tracer.Tracer`, so drift in machine speed during
    the run reaches both sides alike.
    """
    ops = workloads.make_ops(workload, seed)
    pins = workloads.pinned_digests(workload, seed)
    first, passes = {}, []
    guaranteed = 2 if trace else 1
    deadline = perf_counter() + seconds
    try:
        while len(passes) < guaranteed or perf_counter() < deadline:
            stop = deadline if len(passes) >= guaranteed else None
            active = tracer.Tracer() if trace and len(passes) % 2 == 1 else None
            if active is None:
                records = run_pass(ops, pins, first, parse_lines=not passes, deadline=stop)
            else:
                with active:
                    records = run_pass(ops, pins, first, active, deadline=stop)
            if records:
                passes.append({"records": records, "tracer": active, "complete": len(records) == len(ops)})
    finally:
        workloads.clear(OUT / "op")
    return passes


def pass_seconds(p) -> float:
    return sum(r["wall"] for r in p["records"])


def median_pass(passes) -> float:
    return statistics.median(pass_seconds(p) for p in passes if p["complete"])


def end_to_end(passes, setup_times) -> tuple:
    """End-to-end metrics, and extra lines for figures the JSON leaves out."""
    walls = sorted(r["wall"] for p in passes for r in p["records"])
    study = median_pass(passes)
    per_pass = passes[0]["records"]
    rows = sum(r["out"].rows for r in per_pass)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "study_s": (study, "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "rows_per_s": (rows / study, "rows/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    n = len(walls)
    complete = sum(p["complete"] for p in passes)
    extra = [f"study_s: median of {complete} complete passes; op_p50_s: n={n} ops"]
    if n - 10 >= n / 2:
        rank = n - 10
        extra.append(f"op_tail_s = {walls[rank - 1]!r} s (p{100 * rank / n:.1f}, n={n}, 10 beyond)")
    else:
        extra.append(f"op_tail_s omitted: {n} ops leave fewer than 10 beyond any percentile above p50")
    iterations = sum(r["out"].iterations for r in per_pass)
    written = sum(r["out"].bytes_written for r in per_pass)
    if iterations:
        extra.append(f"iters_per_s = {iterations / study!r} 1/s")
    if written:
        extra.append(f"export_mb_per_s = {written / MB / study!r} MB/s")
    return metrics, extra


def per_layer(passes) -> dict:
    """Per-layer metrics from the traced passes; rates from the untraced ones.

    Times are seconds per complete traced pass: ``busy_s`` is a function's
    inclusive time, ``self_s`` its time minus its children's.
    """
    traced = [p for p in passes if p["tracer"] is not None]
    untraced = [p for p in passes if p["tracer"] is None]
    complete = [p for p in traced if p["complete"]]
    busy, selfs, layer_self = Counter(), Counter(), dict.fromkeys(tracer.LAYERS, 0.0)
    for t in (p["tracer"] for p in complete):
        busy.update(tracer.busy_times(t.spans))
        for span, value in zip(t.spans, tracer.self_times(t.spans)):
            selfs[span[0]] += value
            layer_self[span[0].split(".", 1)[0]] += value
    # Counts come from the first traced pass, which is always complete.
    t0 = traced[0]["tracer"]
    calls = Counter(span[0] for span in t0.spans)
    keys = t0.run_day_keys
    rows = t0.rows
    metrics = {}

    def add(name, value, unit):
        metrics[name] = (value, unit)

    def seconds(name, total):
        add(name, total / len(complete), "s")

    for span, kind in (
        ("streams.uniforms", "busy"), ("scenarios.run_day", "self"),
        ("logs.validate", "busy"), ("logs.concat", "busy"), ("glm.fit", "busy"),
        ("glm.prediction_table", "busy"), ("features.encode", "busy"),
        ("policy.epsilon_greedy", "busy"), ("policy.factored_validate", "busy"),
        ("policy_search.estimate_gradient", "self"),
        ("environment.make_default_ground_truth", "busy"),
        ("environment.expected_policy_ctr", "busy"), ("environment.oracle_policy", "busy"),
    ):
        add(f"{span}.calls", calls[span], "count")
        if span in ("streams.uniforms", "scenarios.run_day", "logs.validate", "logs.concat"):
            add(f"{span}.rows", rows[span], "rows")
        if span == "glm.fit":
            add("glm.fit.rows_scanned", rows[span], "rows")
        seconds(f"{span}.{kind}_s", (busy if kind == "busy" else selfs)[span])
    add("scenarios.run_day.repeat_ratio", (len(keys) - len(set(keys))) / len(keys) if keys else 0.0, "ratio")
    simulated = rows["scenarios.run_day"]
    add("logs.copy_ratio", rows["logs.concat"] / simulated if simulated else 0.0, "ratio")
    retained = max(r["out"].retained_bytes for r in traced[0]["records"])
    add("logs.retained_bytes", max(retained, t0.exported_nbytes), "bytes")
    add("logs.to_ndjson.rows", rows["logs.to_ndjson"], "rows")
    add("logs.to_ndjson.bytes", t0.ndjson_bytes, "bytes")
    seconds("logs.to_ndjson.busy_s", busy["logs.to_ndjson"])
    seconds("policy_search.reinforce_optimize.busy_s", busy["policy_search.reinforce_optimize"])
    add("policy_search.exact_objective.calls", calls["policy_search.exact_objective"], "count")
    gaps = calls["environment.confounding_gap"]
    add("environment.gt_accept_ratio", calls["environment.make_default_ground_truth"] / gaps if gaps else 0.0, "ratio")
    seconds("cli.main.self_s", selfs["cli.main"])
    for layer in tracer.LAYERS:
        seconds(f"{layer}.self_s", layer_self[layer])
    # The first pass of a process runs cold; leave it out when another untraced pass completed.
    plain = median_pass([p for p in untraced[1:] if p["complete"]] or untraced)
    iterations = sum(r["out"].iterations for r in untraced[0]["records"])
    written = sum(r["out"].bytes_written for r in untraced[0]["records"])
    add("policy_search.iters_per_s", iterations / plain, "1/s")
    add("logs.export_mb_per_s", written / MB / plain, "MB/s")
    study = median_pass(traced)
    add("trace.study_s", study, "s")
    add("trace.overhead_s", study - plain, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(confoundsim.__file__).resolve().parent != SRC / "confoundsim":
        print(f"perfbench: confoundsim imported from {confoundsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    passes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    records = [r for p in passes for r in p["records"]]
    failed = [r for r in records if r["out"].problems]
    for r in failed:
        print(f"FAILED {r['op']}: {'; '.join(r['out'].problems)}", file=sys.stderr)
    digest = workloads.combined_digest(r["out"].digest for r in passes[0]["records"])
    print(f"workload {args.workload} seed {args.seed}: ops {[r['op'] for r in passes[0]['records']]}")
    print(f"digest {digest}")
    print(f"machine {json.dumps(machine(), sort_keys=True)}")
    print(f"failed_ratio = {len(failed) / len(records)!r} ({len(failed)} of {len(records)} ops)")
    if args.trace:
        metrics = per_layer(passes)
        spans = OUT / f"spans_{args.workload}.csv"
        tracer.write_spans(spans, [p["tracer"] for p in passes if p["tracer"] is not None])
        print(f"spans written to {spans.relative_to(ROOT)}")
        value = {name: v for name, (v, _) in metrics.items()}
        per_pass = statistics.fmean(pass_seconds(p) for p in passes if p["tracer"] is not None and p["complete"])

        def share(*names):
            return 100.0 * sum(value[n] for n in names) / per_pass

        print(
            "traced study time in streams.uniforms + scenarios.run_day self + logs: "
            f"{share('streams.uniforms.busy_s', 'scenarios.run_day.self_s', 'logs.self_s'):.1f}%; "
            "in policy_search + glm.prediction_table: "
            f"{share('policy_search.self_s', 'glm.prediction_table.busy_s'):.1f}%; "
            f"in logs.to_ndjson: {share('logs.to_ndjson.busy_s'):.1f}%"
        )
    else:
        metrics, extra = end_to_end(passes, setup_times)
        print("\n".join(extra))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
