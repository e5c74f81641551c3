"""Shared fixtures.

The day-loop sweep below is the expensive shared input for the scenario
and acceptance tests: the feature-removal loop and both A/B designs at
full scale for every frozen fixture seed.  It is computed once per
session, in parallel worker processes, and only the per-day reports are
kept (the logs would be gigabytes).
"""

import io
import os
from multiprocessing import Pool

import pytest

from confoundsim import ScenarioConfig, scenario_feature_engineering
from confoundsim.fixtures import FIXTURE_SEEDS
from confoundsim.scenarios import _ab_tests

# Worker processes for the seed sweeps: one per CPU, since each is CPU-bound.
POOL_WORKERS = os.cpu_count() or 1


def _sweep_one(seed: int) -> dict:
    cfg = ScenarioConfig(seed=seed)
    fe = scenario_feature_engineering(cfg)
    blind = scenario_feature_engineering(cfg, day2_features=("x1",))
    # Both A/B regimes share their days up to and including the first split day.
    shared, separate = _ab_tests(cfg, (True, False))
    row = {"seed": seed, "fe": list(fe.reports), "blind": list(blind.reports)}
    for regime, res in (("shared", shared), ("separate", separate)):
        for series, arm in (("common", ""), ("a", "A"), ("b", "B")):
            row[f"{regime}_{series}"] = [r for r in res.reports if r.arm == arm]
    return row


@pytest.fixture(scope="session")
def day_loop_sweep():
    """Per-seed day reports for all fixture seeds at full scale."""
    with Pool(processes=POOL_WORKERS) as pool:
        rows = pool.map(_sweep_one, FIXTURE_SEEDS)
    return {row["seed"]: row for row in rows}


def all_reports(sweep_row: dict):
    """Every DayReport in one sweep row, across schedules and arms."""
    out = []
    for key in (
        "fe",
        "blind",
        "shared_common",
        "shared_a",
        "shared_b",
        "separate_common",
        "separate_a",
        "separate_b",
    ):
        out.extend(sweep_row[key])
    return out


def ndjson_text(log) -> str:
    """The log's NDJSON export as one string."""
    out = io.StringIO()
    log.to_ndjson(out)
    return out.getvalue()
