"""Smoke tests of the fixture seed-scan tool, ``tools/scan_seeds.py``."""

import subprocess
import sys
from pathlib import Path

from confoundsim.fixtures import CLICK_SALE_SEEDS, FIXTURE_SEEDS, SEPARABLE_SEEDS, TWO_DECISION_SEEDS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "scan_seeds.py"


def check(predicate: str, seed: int):
    done = subprocess.run(
        [sys.executable, str(TOOL), predicate, "--check", str(seed)],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(seed), "True"]


def test_frozen_two_decision_seed_passes_its_predicate():
    check("two-decision", TWO_DECISION_SEEDS[0])


def test_frozen_day_loop_seed_passes_its_predicate():
    check("day-loop", FIXTURE_SEEDS[0])


def test_frozen_click_sale_seed_passes_its_predicate():
    check("click-sale", CLICK_SALE_SEEDS[0])


def test_frozen_separable_seed_passes_its_predicate():
    check("separable", SEPARABLE_SEEDS[0])
