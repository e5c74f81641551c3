"""Benchmark workloads: inputs generated from a seed, ops, and output checks.

An op is one call into a public entry point of confoundsim: one
``scenario_*`` call, or one ``confoundsim.cli.main`` invocation.  Entry
points are looked up on their module at call time, so the tracer's
wrappers are the ones called while a trace is installed.

Every op is checked.  An op fails if it raises, exits nonzero, breaks an
invariant that holds for any seed, or produces a digest that differs from
the pinned one (at the default seed and size) or from an earlier pass of
the same run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import confoundsim.cli
import confoundsim.scenarios
from confoundsim.fixtures import FIXTURE_SEEDS, TWO_DECISION_SEEDS, TWO_DECISION_SPEC
from confoundsim.scenarios import ScenarioConfig
from tracer import log_nbytes

DEFAULT_SEED = 0
TOL = 1e-12
BLOCK = 1 << 20  # bytes read at a time when hashing an artifact

# Scenario seeds drawn per pass, and rows per simulated day, per workload.
# day_loop and policy_search run at the CLI's default 400k rows/day; the
# export runs at 50k rows/day because NDJSON costs ~40x simulation per row.
SEEDS_PER_PASS = {"day_loop": 2, "policy_search": 2, "log_export": 1}
SAMPLES_PER_DAY = {"day_loop": 400_000, "policy_search": 400_000, "log_export": 50_000}
WORKLOADS = tuple(SEEDS_PER_PASS)

PINNED_PATH = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Op:
    """One call into a public entry point, with everything it needs."""

    name: str
    kind: str
    seed: int
    samples_per_day: int


@dataclass
class Outcome:
    """What one op produced, as the checks and metrics need it."""

    digest: str = ""
    rows: int = 0
    iterations: int = 0
    bytes_written: int = 0
    retained_bytes: int = 0
    problems: list = field(default_factory=list)


def scenario_seeds(workload: str, seed: int) -> list:
    """Scenario seeds for a workload seed: a seeded draw from the frozen lists."""
    pool = TWO_DECISION_SEEDS if workload == "policy_search" else FIXTURE_SEEDS
    rng = np.random.default_rng([0x5EED, WORKLOADS.index(workload), seed])
    picks = rng.choice(len(pool), size=SEEDS_PER_PASS[workload], replace=False)
    return [int(pool[i]) for i in picks]


def make_ops(workload: str, seed: int, samples_per_day: int | None = None) -> list:
    """The ordered ops of one pass of ``workload`` at workload seed ``seed``."""
    if workload not in SEEDS_PER_PASS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    n = SAMPLES_PER_DAY[workload] if samples_per_day is None else samples_per_day
    kinds = {
        "day_loop": ("fe", "blind", "ab_shared", "ab_separate"),
        "policy_search": ("two_decision",),
        "log_export": ("cli_fe", "cli_ab_shared"),
    }[workload]
    return [
        Op(name=f"{kind}:{s}", kind=kind, seed=s, samples_per_day=n)
        for s in scenario_seeds(workload, seed)
        for kind in kinds
    ]


def pinned_digests(workload: str, seed: int) -> dict:
    """Digests of the default-size ops recorded from a known-good library, or {} off the default seed."""
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))[workload]


def combined_digest(digests) -> str:
    """One digest for a pass: the SHA-256 over its ops' digests, in order."""
    return _sha(digests)


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode("utf-8"))
    return h.hexdigest()


def _check_reports(reports, expected_rows: int, out: Outcome):
    out.rows = sum(r.samples for r in reports)
    if out.rows != expected_rows:
        out.problems.append(f"{out.rows} rows simulated, {expected_rows} requested")
    for r in reports:
        if r.expected_ctr > r.oracle_ctr + TOL:
            out.problems.append(f"day {r.day} arm {r.arm!r}: expected_ctr above oracle_ctr")


def _call(op: Op):
    """The one entry-point call an op makes, looked up on its module now."""
    scenarios = confoundsim.scenarios
    if op.kind == "two_decision":
        return scenarios.scenario_two_decision(
            ScenarioConfig(spec=TWO_DECISION_SPEC, seed=op.seed, samples_per_day=op.samples_per_day)
        )
    cfg = ScenarioConfig(seed=op.seed, samples_per_day=op.samples_per_day)
    if op.kind == "fe":
        return scenarios.scenario_feature_engineering(cfg)
    if op.kind == "blind":
        return scenarios.scenario_feature_engineering(cfg, day2_features=("x1",))
    return scenarios.scenario_ab_test(cfg, shared_log=op.kind == "ab_shared")


def _check_day_loop(op: Op, result) -> Outcome:
    out = Outcome(digest=_sha(repr(r) for r in result.reports))
    _check_reports(result.reports, 6 * op.samples_per_day, out)
    if len(result.log) != out.rows:
        out.problems.append(f"log holds {len(result.log)} rows, reports {out.rows}")
    out.retained_bytes = log_nbytes(result.log)
    return out


def _check_two_decision(op: Op, result) -> Outcome:
    params = result.final_params
    out = Outcome(
        digest=_sha(
            [repr(result.log_report), *(repr(e) for e in result.entries),
             params.action_logits.tobytes(), params.decision_logits.tobytes()]
        ),
        iterations=confoundsim.scenarios.default_two_decision_search(op.seed).iterations,
        retained_bytes=log_nbytes(result.log),
    )
    _check_reports([result.log_report], op.samples_per_day, out)
    if len(result.log) != out.rows:
        out.problems.append(f"log holds {len(result.log)} rows, report {out.rows}")
    joint = result.model_value("joint_argmax")
    for e in result.entries:
        if e.model_value > joint + TOL:
            out.problems.append(f"{e.variant} model_value beats the joint argmax")
    return out


def cli_argv(op: Op, out_dir: Path) -> list:
    command = ["feature-engineering"] if op.kind == "cli_fe" else ["ab-test", "--shared-log"]
    return command + [
        "--seed", str(op.seed),
        "--samples-per-day", str(op.samples_per_day),
        "--out", str(out_dir),
        "--dump-log",
    ]


def _tree_digest(root: Path) -> tuple:
    """SHA-256 over every file's relative path and bytes, read in blocks so
    the check adds little to the process's peak memory."""
    h, size = hashlib.sha256(), 0
    for p in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        with open(p, "rb") as fh:
            while block := fh.read(BLOCK):
                h.update(block)
                size += len(block)
        h.update(b"\0")
    return h.hexdigest(), size


def _check_export(root: Path, expected_rows: int, parse_lines: bool, out: Outcome):
    (reports_csv,) = root.glob("*/reports.csv")
    rows = list(csv.DictReader(io.StringIO(reports_csv.read_text(encoding="utf-8"))))
    out.rows = sum(int(r["samples"]) for r in rows)
    if out.rows != expected_rows:
        out.problems.append(f"{out.rows} rows simulated, {expected_rows} requested")
    for r in rows:
        if float(r["expected_ctr"]) > float(r["oracle_ctr"]) + TOL:
            out.problems.append(f"day {r['day']} arm {r['arm']!r}: expected_ctr above oracle_ctr")
    (ndjson,) = root.glob("*/log.ndjson")
    lines = 0
    with open(ndjson, encoding="utf-8") as fh:
        for line in fh:
            if parse_lines:
                json.loads(line)  # raises, failing the op, if the line is not JSON
            lines += 1
    if lines != expected_rows:
        out.problems.append(f"NDJSON holds {lines} lines, {expected_rows} rows simulated")


def run_op(op: Op, out_dir: Path, parse_lines: bool = True) -> tuple:
    """Run one op; returns ``(wall seconds of the call alone, Outcome)``.

    Checks run after the clock stops.  ``out_dir`` must be empty or
    absent; CLI ops write their artifacts there.  ``parse_lines`` parses
    every NDJSON line, which later passes may skip because their digest
    already equals the first pass's.
    """
    if op.kind in ("cli_fe", "cli_ab_shared"):
        argv = cli_argv(op, out_dir)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = perf_counter()
            code = confoundsim.cli.main(argv)
            wall = perf_counter() - t0
        if code != 0:
            return wall, Outcome(problems=[f"exit code {code}: {sink.getvalue().strip()[-200:]}"])
        digest, size = _tree_digest(out_dir)
        out = Outcome(digest=digest, bytes_written=size)
        _check_export(out_dir, 6 * op.samples_per_day, parse_lines, out)
        return wall, out
    t0 = perf_counter()
    result = _call(op)
    wall = perf_counter() - t0
    check = _check_two_decision if op.kind == "two_decision" else _check_day_loop
    return wall, check(op, result)


def clear(path: Path):
    shutil.rmtree(path, ignore_errors=True)
