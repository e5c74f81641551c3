"""Record the benchmark's pinned digests and its baseline.

``python3 perfbench/record.py pins`` runs one untraced pass of every
workload at the default seed and writes each op's output digest to
``digests.json``.  Run it only on a commit whose artifacts are known to
be right: every later run at the default seed is checked against it.

``python3 perfbench/record.py baseline`` runs ``run.py`` once per seed
(1 .. RUNS) on every workload, untraced, then once traced at
the default seed.  It writes the medians, quartiles and spreads of the
end-to-end metrics, the per-layer metrics, the default-seed digest and
the machine to ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
import workloads

BENCHMARK = run.ROOT / "BENCHMARK.json"
RUNS = 10  # seeds per workload in a baseline


def record_pins():
    pins = {}
    for name in workloads.WORKLOADS:
        ops = workloads.make_ops(name, workloads.DEFAULT_SEED)
        records = run.run_pass(ops, {}, {}, parse_lines=True)
        for r in records:
            if r["out"].problems:
                raise SystemExit(f"{name} {r['op']}: {'; '.join(r['out'].problems)}")
        pins[name] = {r["op"]: r["out"].digest for r in records}
    workloads.PINNED_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One run of run.py; returns its metrics and its output digest."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops\n{proc.stderr}")
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return result["metrics"], digest


def summary(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def record_baseline():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"machine": run.machine(), "run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    for name in workloads.WORKLOADS:
        samples = [bench(name, seed, spec["run_seconds"], 0)[0] for seed in range(1, RUNS + 1)]
        end = {}
        for metric, bound in bounds.items():
            s = summary([m[metric]["value"] for m in samples])
            s["unit"] = samples[0][metric]["unit"]
            end[metric] = s
            print(f"{name} {metric}: median {s['median']:.6g} spread {s['spread']:.4f} (bound {bound})", flush=True)
        layers, digest = bench(name, workloads.DEFAULT_SEED, spec["run_seconds"], 1)
        out["workloads"][name] = {"end_to_end": end, "per_layer": layers, "default_seed_digest": digest}
    (run.BENCH / "baseline.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("pins", "baseline"))
    args = parser.parse_args()
    if args.what == "pins":
        record_pins()
    else:
        record_baseline()


if __name__ == "__main__":
    main()
