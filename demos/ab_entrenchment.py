"""An A/B test on a shared log entrenches the winner's confounding.

Two arms split traffic from day 2: arm A trains on x1 only, arm B also
sees x2.  When both arms log into one shared table, arm A's daily
retrain keeps ingesting rows whose actions were chosen using x2, a
variable A cannot see, so its model stays confounded for the rest of
the test and the experimenter reads a persistent (and misleading) win
for B.  Giving each arm its own log removes the contamination: arm A is
back at its clean plateau one day after the split, and the test now
measures only what it was supposed to, the value of x2 itself.

Run:  python3 demos/ab_entrenchment.py
"""

from confoundsim import ScenarioConfig, scenario_ab_test

cfg = ScenarioConfig(seed=0)
shared = scenario_ab_test(cfg, shared_log=True)
separate = scenario_ab_test(cfg, shared_log=False)


def arm(result, name):
    """The result's reports of arm ``name``, or of the common days for ''."""
    return [r for r in result.reports if r.arm == name]


baseline = arm(shared, "")[-1].expected_ctr
print(f"common day-1 plateau (x1-only model): {baseline:.4f}\n")
print("             arm A expected CTR          arm B expected CTR")
print("day    shared log   separate logs    shared log   separate logs")
rows = zip(arm(shared, "A"), arm(separate, "A"), arm(shared, "B"), arm(separate, "B"))
for sa, pa, sb, pb in rows:
    print(f"{sa.day:>3}    {sa.expected_ctr:>10.4f}   {pa.expected_ctr:>13.4f}"
          f"    {sb.expected_ctr:>10.4f}   {pb.expected_ctr:>13.4f}")

last_shared = arm(shared, "A")[-1].expected_ctr
last_sep = arm(separate, "A")[-1].expected_ctr
print(f"\nfinal day: shared-log arm A trails its separate-log twin by "
      f"{last_sep - last_shared:.4f};")
print("the arms only differ in which log they trained on.")
