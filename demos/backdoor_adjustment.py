"""Recovering interventional CTR from a log a smarter policy wrote.

The log below was produced by an epsilon-greedy policy that chose
actions using both covariates.  A model that only sees x1 reads that
log naively and badly misestimates what each action would do if it
were forced: within a (x1, action) cell, the action was preferentially
played exactly when the hidden x2 favored it.  Summing the full
(x1, x2, action) model over the covariate model's P(x2 | x1) removes
the confounding on average.  The residual adjusted error is sampling
noise, and each estimate reports its own standard error: a busy
(x1, action) cell can still rest on thin (x1, x2, action) subcells,
because where the greedy policy never plays the action for some x2 only
the epsilon slice reaches it, and those subcells hold from zero to a
handful of rows.
A subcell with no rows at an x2 state seen at x1 is a positivity gap; the
estimate there is undefined and the table marks it instead of imputing.

Run:  python3 demos/backdoor_adjustment.py
"""

import numpy as np

from confoundsim import (
    CategoricalSpec, DayStream, FeatureSpec, FittedModel, backdoor_adjust,
    epsilon_greedy, fit, fit_cov_model, make_default_ground_truth,
    marginal_click_prob, prediction_table, run_day,
)

spec = CategoricalSpec(k1=5, k2=5, n_actions=10)
gt = make_default_ground_truth(spec, seed=0, min_gap=0.02)
true_model = FittedModel(
    FeatureSpec(("x1", "x2"), ("a",), spec), gt.click_logit.reshape(-1), "click", (0, 0), 0
)

log, _, _ = run_day(gt, epsilon_greedy(true_model, 0.05), 200_000, 0, DayStream(0, 0))
full = fit(log, FeatureSpec(("x1", "x2"), ("a",), spec))
naive = fit(log, FeatureSpec(("x1",), ("a",), spec))
cov = fit_cov_model(log, spec)

truth = marginal_click_prob(gt)
naive_tab = prediction_table(naive)[:, 0, :]
visits = np.bincount(log.x1 * spec.n_actions + log.a,
                     minlength=spec.k1 * spec.n_actions).reshape(spec.k1, spec.n_actions)

print("busiest (x1, action) cells: interventional CTR vs the two estimates\n")
print(" x1  a   visits    true   naive    adjusted      se")
order = np.dstack(np.unravel_index(np.argsort(visits, axis=None)[::-1], visits.shape))[0]
for i, a in order[:10]:
    est = backdoor_adjust(full, cov, i, a)
    adjusted = f"gap at x2={list(est.gaps)}" if est.gaps else f"{est.value:.4f}  {est.se:.4f}"
    print(f"{i:>3} {a:>2}  {visits[i, a]:>7}  {truth[i, a]:.4f}  {naive_tab[i, a]:.4f}"
          f"    {adjusted}")

worst_naive = worst_adj = worst_z = 0.0
gaps = 0
for i in range(spec.k1):
    for a in range(spec.n_actions):
        if visits[i, a] < 500:
            continue
        worst_naive = max(worst_naive, abs(naive_tab[i, a] - truth[i, a]))
        est = backdoor_adjust(full, cov, i, a)
        if est.gaps:
            gaps += 1
            continue
        worst_adj = max(worst_adj, abs(est.value - truth[i, a]))
        worst_z = max(worst_z, abs(est.value - truth[i, a]) / est.se)
print(f"\ncells with >= 500 visits: naive worst error {worst_naive:.4f};"
      f" adjusted worst error {worst_adj:.4f}, max |error| / se {worst_z:.2f},"
      f" {gaps} positivity gaps left out")
