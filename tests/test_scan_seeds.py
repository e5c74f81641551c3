"""Smoke test of the fixture seed-scan tool, ``tools/scan_seeds.py``."""

import subprocess
import sys
from pathlib import Path

from confoundsim.fixtures import TWO_DECISION_SEEDS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "scan_seeds.py"


def test_frozen_two_decision_seed_passes_its_predicate():
    seed = TWO_DECISION_SEEDS[0]
    done = subprocess.run(
        [sys.executable, str(TOOL), "two-decision", "--check", str(seed)],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(seed), "True"]
