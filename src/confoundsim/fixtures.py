"""Frozen fixture seed lists and the margins of the scans that produced them.

The headline experiments are deterministic given a seed, so fixture
quality is a property of the sampled environment, not of run-to-run
luck.  Two things vary across environments:

* the size of the confounding gap (controlled by ``min_gap`` rejection
  inside :func:`~confoundsim.environment.make_default_ground_truth`), and
* argmax stability: whether a model refit on a finite epsilon-greedy log
  (400k rows, or 200k per A/B arm) reproduces the clean model's
  per-context argmax.  Low-traffic cells hold a few hundred samples, so
  environments whose top two actions sit within a couple of standard
  errors flip argmaxes and the post-dip curve does not return to
  baseline within the documented tolerances.

The seed lists below were produced by the scans of
``tools/scan_seeds.py``, which try candidate seeds upward from zero with
the predicates encoded there (dip at least 0.0195, return to baseline
within 8e-4, shared-log arm strictly below the separate-log arm by at
least 0.005, and so on; the margins below tighten the documented
tolerances so a pass does not sit on a knife edge).  Rerun a scan to
regenerate a list, e.g.::

    PYTHONPATH=src python3 tools/scan_seeds.py day-loop --count 50

All scans run the real pipelines at full scale; expect a couple of
seconds per candidate seed.
"""

from __future__ import annotations

from .features import CategoricalSpec

__all__ = [
    "ADJUSTMENT_SEEDS",
    "CLICK_SALE_SEEDS",
    "DEFAULT_SPEC",
    "FIXTURE_SEEDS",
    "SEPARABLE_SEEDS",
    "TWO_DECISION_SEEDS",
    "TWO_DECISION_SPEC",
]

DEFAULT_SPEC = CategoricalSpec(k1=5, k2=5, n_actions=10)
TWO_DECISION_SPEC = CategoricalSpec(k1=5, k2=5, n_actions=10, n_decisions=2)

# Stability margins used by the scans of tools/scan_seeds.py.  The
# documented tolerances are a dip of at least min_gap*(1-epsilon) = 0.019,
# recovery within 1e-3, and strict shared-below-separate; the scan demands
# a little extra so small cross-platform float differences cannot flip a
# frozen seed.
DIP_MARGIN = 0.0195
RECOVERY_MARGIN = 8e-4
ENTRENCH_MARGIN = 5e-3
BLIND_AB_MARGIN = 8e-3
CLICK_SALE_MARGIN = 5e-3
TWO_DECISION_MARGIN = 1e-3

# Seeds for the day-loop stories (feature-removal dip and A/B
# entrenchment), scanned at 400k samples/day, six days, ab_start_day 2.
FIXTURE_SEEDS = (
    54, 71, 81, 101, 118, 123, 138, 159, 181, 184,
    197, 203, 235, 246, 256, 270, 288, 304, 314, 353,
    364, 385, 396, 412, 432, 437, 461, 473, 481, 504,
    524, 537, 554, 567, 602, 608, 615, 620, 636, 640,
    653, 657, 669, 688, 692, 698, 703, 764, 765, 825,
)

# Seeds for the click/sale modularization comparison (cross-dependent
# mechanisms; the mismatched product policy must lose strictly).
CLICK_SALE_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)

# Seeds for the separable click/sale sanity case (sale depends on
# (x1, a) only, click on (x2, a) only; mismatched equals full exactly).
SEPARABLE_SEEDS = (4, 5, 6, 14, 17)

# Seeds for the two-decision factored policy search comparison.
TWO_DECISION_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)

# Seeds for the backdoor-adjustment study, simply the first ten admitted
# by min_gap rejection.  The naive-model error clause holds at every
# scanned seed.  The adjusted estimate's precision is set by its
# (x1, x2, a) subcells, which the 0.05-greedy logger leaves at 0 to a few
# rows off the greedy action, so it is judged against its own standard
# error (about 0.008 at best on a 400k day), not a fixed bar.
ADJUSTMENT_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)

