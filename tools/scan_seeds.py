"""Scan candidate seeds for the frozen fixture lists of ``confoundsim.fixtures``.

Each predicate below runs the real pipelines at full scale with the
stability margins of ``fixtures.py``; a scan tries seeds upward from
``--start`` and prints the first ``--count`` that pass.  Usage, from the
root of a checkout::

    python3 tools/scan_seeds.py day-loop --count 50
    python3 tools/scan_seeds.py two-decision --check 0 1 2

``--check`` prints each given seed's verdict instead, and exits nonzero
if one fails.  Expect a couple of seconds per candidate seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from confoundsim.environment import make_separable_ground_truth  # noqa: E402
from confoundsim.fixtures import (  # noqa: E402
    BLIND_AB_MARGIN,
    CLICK_SALE_MARGIN,
    DIP_MARGIN,
    ENTRENCH_MARGIN,
    RECOVERY_MARGIN,
    TWO_DECISION_MARGIN,
    TWO_DECISION_SPEC,
)
from confoundsim.scenarios import (  # noqa: E402
    ScenarioConfig,
    _ab_tests,
    scenario_ab_test,
    scenario_click_sale,
    scenario_feature_engineering,
    scenario_two_decision,
)

# The frozen lists and margins of fixtures.py hold at this day size only.
SAMPLES_PER_DAY = 400_000


def day_loop_seed_ok(seed: int) -> bool:
    """The joint predicate frozen into ``fixtures.FIXTURE_SEEDS``.

    Runs the feature-removal loop (with the x2-aware day 2 and with an
    x1-only day 2) plus three A/B designs at full scale and checks, with
    the margins of ``fixtures.py``:

    * day 2 at least as good as day 1, and the day-3 dip at least
      ``DIP_MARGIN`` (just above the documented ``min_gap*(1-epsilon)``);
    * days 4 and 5 back within ``RECOVERY_MARGIN`` of day 1;
    * with an x1-only day-2 model, days 2-5 mutually level within
      ``RECOVERY_MARGIN`` (no dip at all when no deployed policy ever
      looks at x2);
    * shared-log arm A at least ``ENTRENCH_MARGIN`` below separate-log
      arm A on every post-split day;
    * separate-log arm A back at the day-1 rate one day after the split;
    * with arm B forced to x1-only visibility, shared-log arm A never
      drops a dip-sized amount below day 1 (entrenchment needs an
      x2-aware arm in the mix; only refit noise remains).
    """
    cfg = ScenarioConfig(seed=seed, samples_per_day=SAMPLES_PER_DAY)
    fe = scenario_feature_engineering(cfg)
    rate = {r.day: r.expected_ctr for r in fe.reports}
    if not (
        rate[2] >= rate[1]
        and rate[1] - rate[3] >= DIP_MARGIN
        and abs(rate[4] - rate[1]) <= RECOVERY_MARGIN
        and abs(rate[5] - rate[1]) <= RECOVERY_MARGIN
    ):
        return False
    blind = scenario_feature_engineering(cfg, day2_features=("x1",))
    post = [r.expected_ctr for r in blind.reports if r.day >= 2]
    if max(post) - min(post) > RECOVERY_MARGIN:
        return False
    shared, separate = _ab_tests(cfg, (True, False))
    shared_a = [r.expected_ctr for r in shared.reports if r.arm == "A"]
    separate_a = [r.expected_ctr for r in separate.reports if r.arm == "A"]
    day1 = next(r.expected_ctr for r in separate.reports if r.arm == "" and r.day == 1)
    if not all(
        separate_a[i] - shared_a[i] >= ENTRENCH_MARGIN for i in range(1, len(shared_a))
    ):
        return False
    if abs(separate_a[1] - day1) > RECOVERY_MARGIN:
        return False
    blind_ab = scenario_ab_test(cfg, shared_log=True, arm_b_features=("x1",))
    blind_a = [r.expected_ctr for r in blind_ab.reports if r.arm == "A"]
    return all(day1 - r <= BLIND_AB_MARGIN for r in blind_a)


def click_sale_seed_ok(seed: int) -> bool:
    """Mismatched product policy strictly below the full one, with margin."""
    cfg = ScenarioConfig(seed=seed, samples_per_day=SAMPLES_PER_DAY)
    res = scenario_click_sale(cfg)
    return res.value("full") - res.value("mismatched") >= CLICK_SALE_MARGIN


def separable_seed_ok(seed: int) -> bool:
    """Mismatched equals full when the true mechanisms are separable."""
    cfg = ScenarioConfig(seed=seed, samples_per_day=SAMPLES_PER_DAY)
    gt = make_separable_ground_truth(cfg.spec, seed, min_sep=0.02)
    res = scenario_click_sale(cfg, gt=gt)
    return abs(res.value("full") - res.value("mismatched")) <= 1e-9


def two_decision_seed_ok(seed: int) -> bool:
    """Joint-model policy search beats the independent fit, with margin.

    Compares exact model objectives: the optimised factored policy must
    sit at least ``TWO_DECISION_MARGIN`` above the independent-fit
    product-of-argmaxes policy (the joint-argmax bound holds pointwise,
    so only the lower comparison needs scanning).
    """
    cfg = ScenarioConfig(spec=TWO_DECISION_SPEC, seed=seed, samples_per_day=SAMPLES_PER_DAY)
    res = scenario_two_decision(cfg)
    gain = res.model_value("reinforce_factored") - res.model_value("independent_factored")
    return gain >= TWO_DECISION_MARGIN


# The predicate behind each frozen list, by command-line name.
PREDICATES = {
    "day-loop": day_loop_seed_ok,
    "click-sale": click_sale_seed_ok,
    "separable": separable_seed_ok,
    "two-decision": two_decision_seed_ok,
}


def scan(predicate, count: int, start: int = 0) -> tuple:
    """First ``count`` seeds at or above ``start`` passing ``predicate``."""
    found = []
    seed = start
    while len(found) < count:
        if predicate(seed):
            found.append(seed)
        seed += 1
    return tuple(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("predicate", choices=sorted(PREDICATES))
    parser.add_argument("--count", type=int, default=10, help="seeds to find (default 10)")
    parser.add_argument("--start", type=int, default=0, help="first candidate seed (default 0)")
    parser.add_argument("--check", type=int, nargs="+", metavar="SEED", help="print these seeds' verdicts instead")
    args = parser.parse_args(argv)
    predicate = PREDICATES[args.predicate]
    if args.check:
        verdicts = [predicate(seed) for seed in args.check]
        for seed, ok in zip(args.check, verdicts):
            print(seed, ok)
        return 0 if all(verdicts) else 1
    print(scan(predicate, args.count, args.start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
