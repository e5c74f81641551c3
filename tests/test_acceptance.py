"""End-to-end acceptance gate.

Eight numbered criteria cover the package's headline claims: the day-3
CTR dip and its one-day recovery, A/B entrenchment under shared logs,
backdoor adjustment against the naive model, graph verdicts against a
brute-force independence oracle, the saturated-MLE identity, policy
gradient correctness, click/sale modularization, and bit-level
determinism.  Each test prints exactly one PASS/FAIL verdict line to the
terminal before asserting, so a full run reads as a report card.

The expensive inputs (full-scale day-loop sweeps over all fixture
seeds) come from the shared session fixture in conftest; the remaining
criteria run their own worker pools at full scale.
"""

import io
import itertools
import json
import math
import time
from multiprocessing import Pool
from pathlib import Path

import numpy as np
import pytest

import confoundsim.scenarios
from confoundsim import (
    CategoricalSpec,
    DayStream,
    FeatureSpec,
    FittedModel,
    ScenarioConfig,
    backdoor_adjust,
    backdoor_admissible,
    base_click_dag,
    d_separated,
    epsilon_greedy,
    estimate_gradient,
    exact_objective,
    fit,
    fit_cov_model,
    make_default_ground_truth,
    make_separable_ground_truth,
    marginal_click_prob,
    parse_dag,
    prediction_table,
    run_day,
    scenario_click_sale,
    scenario_feature_engineering,
    scenario_two_decision,
)
from confoundsim.cli import main
from confoundsim.fixtures import (
    ADJUSTMENT_SEEDS,
    CLICK_SALE_SEEDS,
    DEFAULT_SPEC,
    FIXTURE_SEEDS,
    SEPARABLE_SEEDS,
    TWO_DECISION_SEEDS,
    TWO_DECISION_SPEC,
)
from confoundsim.policy import FactoredPolicyParams, uniform_policy
from conftest import POOL_WORKERS
from oracles import (
    adjustment_support,
    central_difference,
    conditionally_independent,
    dag_joint_table,
    exact_gradient,
    newton_fit,
    subcell_tallies,
)

MIN_PASSING_SEEDS = 45


def verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def by_day(reports, day: int):
    return next(r for r in reports if r.day == day)


class TestCriterion1DayThreeDip:
    def test_dip_and_recovery_counts(self, capsys, day_loop_sweep):
        """Day 3 drops at least 0.01 below day 1 and days 4-5 return to it."""
        passing = 0
        worst_dip = np.inf
        worst_recovery = 0.0
        for row in day_loop_sweep.values():
            fe = {r.day: r.expected_ctr for r in row["fe"]}
            dip = (fe[1] - 0.01) - fe[3]
            recovery = max(abs(fe[4] - fe[1]), abs(fe[5] - fe[1]))
            worst_dip = min(worst_dip, dip)
            worst_recovery = max(worst_recovery, recovery)
            if dip > 0 and recovery <= 1e-3:
                passing += 1
        ok = passing >= MIN_PASSING_SEEDS
        verdict(
            capsys, 1, ok,
            f"day-3 dip with day-4/5 recovery on {passing}/{len(day_loop_sweep)} seeds "
            f"(need >= {MIN_PASSING_SEEDS}); slimmest dip margin {worst_dip:.4f}, "
            f"worst recovery gap {worst_recovery:.2e}",
        )
        assert ok


class TestCriterion2ABEntrenchment:
    def test_shared_log_arm_stays_below_separate(self, capsys, day_loop_sweep):
        """Shared-log arm A trails separate-log arm A from the day after the
        split onward, and the separate-log arm is back at the day-1 level
        within one day."""
        entrenched = 0
        recovered = 0
        slimmest = np.inf
        worst_recovery = 0.0
        for row in day_loop_sweep.values():
            shared = {r.day: r.expected_ctr for r in row["shared_a"]}
            separate = {r.day: r.expected_ctr for r in row["separate_a"]}
            post_split = [d for d in sorted(shared) if d >= 3]
            margins = [separate[d] - shared[d] for d in post_split]
            if all(m > 0 for m in margins):
                entrenched += 1
                slimmest = min(slimmest, min(margins))
            baseline = by_day(row["separate_common"], 1).expected_ctr
            gap = abs(separate[3] - baseline)
            worst_recovery = max(worst_recovery, gap)
            if gap <= 1e-3:
                recovered += 1
        ok = entrenched >= MIN_PASSING_SEEDS and recovered >= MIN_PASSING_SEEDS
        verdict(
            capsys, 2, ok,
            f"entrenchment on {entrenched}/{len(day_loop_sweep)} seeds, one-day recovery on "
            f"{recovered}/{len(day_loop_sweep)} (need >= {MIN_PASSING_SEEDS}); slimmest "
            f"entrenchment margin {slimmest:.4f}, worst recovery gap {worst_recovery:.2e}",
        )
        assert ok


def _adjustment_probe(seed: int):
    """Full-scale one-day probe over the (x1, a) cells with at least 500
    visits: the library's adjusted estimate, the raw-row oracle's support,
    gaps and standard error, the true interventional CTR and the naive
    x1-only estimate."""
    gt = make_default_ground_truth(DEFAULT_SPEC, seed=seed, min_gap=0.02)
    spec = gt.spec
    true_model = FittedModel(
        FeatureSpec(("x1", "x2"), ("a",), spec), gt.click_logit.reshape(-1), "click", (0, 0), 0
    )
    logger = epsilon_greedy(true_model, 0.05)
    log, _, _ = run_day(gt, logger, 400_000, day=0, stream=DayStream(seed, 0))
    full = fit(log, FeatureSpec(("x1", "x2"), ("a",), spec))
    naive = fit(log, FeatureSpec(("x1",), ("a",), spec))
    cov = fit_cov_model(log, spec)
    tallies = subcell_tallies(log)
    true_tab = marginal_click_prob(gt)
    visits = np.bincount(
        log.x1 * spec.n_actions + log.a, minlength=spec.k1 * spec.n_actions
    ).reshape(spec.k1, spec.n_actions)
    naive_tab = prediction_table(naive)[:, 0, :]
    cells = []
    for i in range(spec.k1):
        for a in range(spec.n_actions):
            if visits[i, a] < 500:
                continue
            cells.append({
                "seed": seed,
                "cell": (i, a),
                "estimate": backdoor_adjust(full, cov, i, a),
                "oracle": adjustment_support(tallies, spec.k2, i, a),
                "true": float(true_tab[i, a]),
                "naive": float(naive_tab[i, a]),
            })
    return cells


def _agrees_with_log(cell) -> bool:
    """Gap flags, support and SE of one estimate match the raw-row oracle,
    and a gap leaves the value undefined."""
    est, ref = cell["estimate"], cell["oracle"]
    if est.gaps != ref["gaps"] or est.support != ref["support"]:
        return False
    if est.gaps:
        return math.isnan(est.value)
    return est.se == pytest.approx(ref["se"], rel=1e-9)


def _where(cells) -> str:
    return ", ".join(f"seed {c['seed']} cell {c['cell']}" for c in cells[:5])


class TestCriterion3BackdoorAdjustment:
    def test_adjusted_beats_naive_on_busy_cells(self, capsys):
        """One 400k day logged by an x2-aware epsilon-greedy policy.  On
        every (x1, a) cell with >= 500 visits the x1-only model misses the
        true interventional CTR by at least 0.03 on every seed, while the
        full-model backdoor adjustment is judged against its own precision:

        1. its positivity-gap flags and per-x2 support match an independent
           count from the raw log rows, and its standard error matches the
           oracle's, so an inflated error bar cannot pass clause 2;
        2. on every supported cell it lands within 4 standard errors of the
           truth;
        3. on each seed's supported cell with the largest naive error, its
           error is the smaller one.

        A fixed 0.01 bar on every busy cell cannot be met by any estimator
        from this log.  Cells qualify on marginal (x1, a) traffic, but the
        adjustment's precision rests on the (x1, x2, a) subcells weighted
        by p(x2 | x1), and under the 0.05-greedy logger the off-greedy
        subcells hold from 0 to a few rows: the smallest standard error
        over the supported busy cells is about 0.008, and seed 5's worst
        cell (x1=4, a=1) has subcell counts [3, 879, 1, 3, 0].  Subcells
        with no row at an x2 state seen at x1 are positivity gaps; the
        estimate is NaN there rather than an imputed one half.
        """
        with Pool(processes=POOL_WORKERS) as pool:
            cells = [c for seed_cells in pool.map(_adjustment_probe, ADJUSTMENT_SEEDS)
                     for c in seed_cells]
        naive_floor = min(
            max(abs(c["naive"] - c["true"]) for c in cells if c["seed"] == seed)
            for seed in ADJUSTMENT_SEEDS
        )
        mismatched = [c for c in cells if not _agrees_with_log(c)]
        supported = [c for c in cells if not c["estimate"].gaps]
        z = [abs(c["estimate"].value - c["true"]) / c["estimate"].se for c in supported]
        beyond = [c for c, zc in zip(supported, z) if not zc <= 4.0]
        reversed_seeds = []
        for seed in ADJUSTMENT_SEEDS:
            worst = max(
                (c for c in supported if c["seed"] == seed),
                key=lambda c: abs(c["naive"] - c["true"]),
                default=None,
            )
            if worst is None or not (
                abs(worst["estimate"].value - worst["true"]) < abs(worst["naive"] - worst["true"])
            ):
                reversed_seeds.append(seed)
        naive_ok = naive_floor >= 0.03
        ok = naive_ok and not mismatched and not beyond and not reversed_seeds
        verdict(
            capsys, 3, ok,
            f"{len(cells)} busy cells over {len(ADJUSTMENT_SEEDS)} seeds, "
            f"{len(cells) - len(supported)} positivity gaps ({len(mismatched)} disagree with the "
            f"log); adjusted on {len(supported)} supported cells: worst error "
            f"{max((abs(c['estimate'].value - c['true']) for c in supported), default=math.nan):.4f}, "
            f"SE floor {min((c['estimate'].se for c in supported), default=math.nan):.4f}, "
            f"max |z| {max(z, default=math.nan):.2f} (need <= 4); "
            f"naive error >= 0.03: smallest {naive_floor:.4f}",
        )
        assert naive_ok, f"naive x1-only error fell below 0.03: {naive_floor:.4f}"
        assert not mismatched, "gaps, support or SE disagree with the raw log at " + _where(mismatched)
        assert not beyond, f"{len(beyond)} supported cells beyond 4 SE: " + _where(beyond)
        assert not reversed_seeds, f"adjusted error not below naive on seeds {reversed_seeds}"


def _ci_graphs():
    rng = np.random.default_rng(12345)
    names = [f"n{i}" for i in range(5)]
    edges = "\n".join(
        f"{names[i]} -> {names[j]}"
        for i in range(5)
        for j in range(i + 1, 5)
        if rng.random() < 0.5
    )
    return {
        "base": base_click_dag(),
        "aware": base_click_dag(x2_to_action=True),
        "chain": parse_dag("a -> b\nb -> c"),
        "collider": parse_dag("a -> b\nc -> b"),
        "mgraph": parse_dag("u -> a\nu -> m\nv -> m\nv -> c"),
        "random5": parse_dag(edges),
    }


class TestCriterion4GraphVerdicts:
    def test_verdicts_and_independence_oracle(self, capsys):
        """The documented separation/admissibility verdicts for the logging
        graph with and without the x2 -> a edge, plus exhaustive agreement
        between d_separated and factorized-joint independence checks."""
        base = base_click_dag()
        aware = base_click_dag(x2_to_action=True)
        checks = [
            d_separated(base, {"x2"}, {"a"}, {"x1"}) is True,
            d_separated(aware, {"x2"}, {"a"}, {"x1"}) is False,
            backdoor_admissible(base, "a", "c", {"x1"}) is True,
            backdoor_admissible(aware, "a", "c", {"x1"}) is False,
            backdoor_admissible(aware, "a", "c", {"x1", "x2"}) is True,
        ]
        queries = 0
        mismatches = []
        for name, g in _ci_graphs().items():
            rng = np.random.default_rng(hash(name) % 2**32)
            joints = [dag_joint_table(g.nodes, g.edges, rng) for _ in range(2)]
            axis = {node: i for i, node in enumerate(g.nodes)}
            for x, y in itertools.combinations(g.nodes, 2):
                rest = [n for n in g.nodes if n not in (x, y)]
                for r in range(len(rest) + 1):
                    for zs in itertools.combinations(rest, r):
                        queries += 1
                        sep = d_separated(g, {x}, {y}, set(zs))
                        zaxes = [axis[z] for z in zs]
                        if sep:
                            agree = all(
                                conditionally_independent(j, [axis[x]], [axis[y]], zaxes)
                                for j in joints
                            )
                        else:
                            agree = not all(
                                conditionally_independent(
                                    j, [axis[x]], [axis[y]], zaxes, tol=1e-9
                                )
                                for j in joints
                            )
                        if not agree:
                            mismatches.append((name, x, y, zs, sep))
        ok = all(checks) and not mismatches
        verdict(
            capsys, 4, ok,
            f"graph verdicts {sum(checks)}/5; oracle agreement on {queries} queries "
            f"across {len(_ci_graphs())} graphs, {len(mismatches)} mismatches",
        )
        assert all(checks)
        assert not mismatches, mismatches[:5]


class TestCriterion5SaturatedIdentity:
    def test_cell_probabilities_and_newton_agreement(self, capsys):
        """Fitted cell probabilities equal empirical cell rates, and the
        closed-form coefficients match an independent Newton solver, on
        both a uniform and a skewed epsilon-greedy 400k log."""
        gt = make_default_ground_truth(DEFAULT_SPEC, seed=0, min_gap=0.02)
        spec = gt.spec
        true_model = FittedModel(
            FeatureSpec(("x1", "x2"), ("a",), spec), gt.click_logit.reshape(-1), "click", (0, 0), 0
        )
        logs = {
            "uniform": run_day(gt, uniform_policy(spec), 400_000, 0, DayStream(0, 0))[0],
            "greedy": run_day(gt, epsilon_greedy(true_model, 0.05), 400_000, 0,
                              DayStream(1, 0))[0],
        }
        worst_prob = 0.0
        worst_coef = 0.0
        for name, log in logs.items():
            model = fit(log, FeatureSpec(("x1", "x2"), ("a",), spec))
            cell = (log.x1 * spec.k2 + log.x2) * spec.n_actions + log.a
            n_cells = spec.k1 * spec.k2 * spec.n_actions
            counts = np.bincount(cell, minlength=n_cells)
            clicks = np.bincount(cell, weights=log.c, minlength=n_cells)
            interior = (clicks > 0) & (clicks < counts)
            rates = np.divide(clicks, counts, out=np.zeros(n_cells), where=counts > 0)
            probs = prediction_table(model).reshape(-1)
            worst_prob = max(worst_prob, np.abs(probs - rates)[interior].max())
            oracle = newton_fit(log, ("x1", "x2"), ("a",))
            beta = model.beta.reshape(spec.k1, spec.k2, spec.n_actions)
            worst_coef = max(
                worst_coef, max(abs(beta[key] - logit) for key, logit in oracle.items())
            )
        ok = worst_prob <= 1e-6 and worst_coef <= 1e-8
        verdict(
            capsys, 5, ok,
            f"fitted vs empirical cell rates within {worst_prob:.2e} (<= 1e-6); "
            f"closed form vs Newton within {worst_coef:.2e} (<= 1e-8)",
        )
        assert worst_prob <= 1e-6
        assert worst_coef <= 1e-8


def _two_decision_values(seed: int):
    cfg = ScenarioConfig(spec=TWO_DECISION_SPEC, seed=seed)
    res = scenario_two_decision(cfg)
    return (
        res.model_value("joint_argmax"),
        res.model_value("independent_factored"),
        res.model_value("reinforce_factored"),
    )


class TestCriterion6PolicyGradient:
    def test_gradients_and_search_ordering(self, capsys):
        """Analytic gradient vs central differences, sampled-gradient
        unbiasedness at a million draws, and the optimized factored policy
        landing between the independent fit and the joint argmax on the
        model objective for every fixture seed."""
        spec = CategoricalSpec(k1=2, k2=2, n_actions=3, n_decisions=2)
        gt = make_default_ground_truth(spec, seed=0)
        model = FittedModel(
            FeatureSpec(("x1", "x2"), ("a", "d"), spec), gt.click_logit.reshape(-1),
            "click", (0, 0), 0,
        )
        rng = np.random.default_rng(0)
        xi = 0.7 * rng.normal(size=(2, 3))
        gamma = 0.7 * rng.normal(size=(2, 2))

        def params_of(vector):
            return FactoredPolicyParams(
                spec, ("x1",), ("x2",), vector[:6].reshape(2, 3), vector[6:].reshape(2, 2)
            )

        flat = np.concatenate([xi.ravel(), gamma.ravel()])
        numeric = central_difference(
            lambda v: exact_objective(model, params_of(v), gt), flat
        )
        g_a, g_d = exact_gradient(model, params_of(flat), gt)
        analytic = np.concatenate([g_a.ravel(), g_d.ravel()])
        rel_err = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(analytic))

        mc_rng = np.random.default_rng(11)
        batches = []
        for _ in range(100):
            e_a, e_d, _ = estimate_gradient(model, params_of(flat), gt, mc_rng, 10_000)
            batches.append(np.concatenate([e_a.ravel(), e_d.ravel()]))
        batches = np.asarray(batches)
        sem = batches.std(axis=0, ddof=1) / np.sqrt(len(batches))
        z_worst = np.max(np.abs(batches.mean(axis=0) - analytic) / (sem + 1e-15))

        with Pool(processes=POOL_WORKERS) as pool:
            values = pool.map(_two_decision_values, TWO_DECISION_SEEDS)
        above_independent = min(r - i for _, i, r in values)
        below_joint = min(j - r for j, _, r in values)
        ordering_ok = above_independent >= 0.0 and below_joint >= -1e-12

        ok = rel_err <= 1e-5 and z_worst <= 4.0 and ordering_ok
        verdict(
            capsys, 6, ok,
            f"gradient vs finite differences rel err {rel_err:.2e} (<= 1e-5); sampled "
            f"estimator worst z {z_worst:.2f} (<= 4) at 1e6 draws; search ordering over "
            f"{len(values)} seeds: above independent fit by >= {above_independent:.4f}, "
            f"below joint argmax by >= {below_joint:.2e}",
        )
        assert rel_err <= 1e-5
        assert z_worst <= 4.0
        assert ordering_ok


def _click_sale_cross(seed: int):
    res = scenario_click_sale(ScenarioConfig(seed=seed))
    return res.value("full") - res.value("mismatched")


def _click_sale_separable(seed: int):
    gt = make_separable_ground_truth(DEFAULT_SPEC, seed=seed, min_sep=0.02)
    res = scenario_click_sale(ScenarioConfig(seed=seed), gt=gt)
    return abs(res.value("full") - res.value("mismatched"))


class TestCriterion7ClickSaleModularization:
    def test_mismatched_views_lose_exactly_when_mechanisms_cross(self, capsys):
        """Splitting covariates across the click and sale sub-models costs
        sale rate whenever the mechanisms cross-depend, and costs exactly
        nothing when each mechanism only reads its own sub-model's view."""
        with Pool(processes=POOL_WORKERS) as pool:
            margins = pool.map(_click_sale_cross, CLICK_SALE_SEEDS)
            gaps = pool.map(_click_sale_separable, SEPARABLE_SEEDS)
        strict_ok = min(margins) > 0.0
        separable_ok = max(gaps) <= 1e-9
        ok = strict_ok and separable_ok
        verdict(
            capsys, 7, ok,
            f"cross-dependent: full beats mismatched by >= {min(margins):.4f} on "
            f"{len(margins)} seeds; separable: views agree within {max(gaps):.2e} "
            f"(<= 1e-9) on {len(gaps)} seeds",
        )
        assert strict_ok
        assert separable_ok


class TestCriterion8Determinism:
    def test_rerun_and_chunk_invariance(self, capsys, tmp_path, monkeypatch):
        """Identical flags reproduce artifacts byte for byte, and a day's
        simulation does not depend on how it is chunked or scheduled."""
        argv = [
            "feature-engineering", "--samples-per-day", "20000", "--dump-log", "--seed", "1",
        ]
        elapsed = []
        for sub in ("first", "second"):
            start = time.perf_counter()
            assert main(argv + ["--out", str(tmp_path / sub)]) == 0
            elapsed.append(time.perf_counter() - start)
        capsys.readouterr()
        trees = []
        for sub in ("first", "second"):
            root = tmp_path / sub
            trees.append(
                {
                    str(p.relative_to(root)): p.read_bytes()
                    for p in sorted(root.rglob("*"))
                    if p.is_file()
                }
            )
        rerun_ok = set(trees[0]) == set(trees[1]) and all(
            trees[0][name] == trees[1][name] for name in trees[0]
        )

        gt = make_default_ground_truth(DEFAULT_SPEC, seed=0, min_gap=0.02)
        policy = uniform_policy(DEFAULT_SPEC)

        def day_ndjson(workers: int) -> str:
            log, _, _ = run_day(gt, policy, 70_000, day=0, stream=DayStream(0, 0), workers=workers)
            buf = io.StringIO()
            log.to_ndjson(buf)
            return buf.getvalue()

        baseline = day_ndjson(workers=1)
        parallel = day_ndjson(workers=4)
        chunks = -(-70_000 // confoundsim.scenarios.CHUNK_ROWS)
        monkeypatch.setattr(confoundsim.scenarios, "CHUNK_ROWS", 9_973)
        rechunked = day_ndjson(workers=3)
        chunk_ok = baseline == parallel == rechunked

        ok = rerun_ok and chunk_ok
        verdict(
            capsys, 8, ok,
            f"rerun of {len(trees[0])} artifacts byte-identical: {rerun_ok}; 70k-row day "
            f"identical across {chunks}-chunk serial, {chunks}-chunk x 4 workers, "
            f"{-(-70_000 // 9_973)}-chunk x 3 workers: "
            f"{chunk_ok} (runs took {elapsed[0]:.1f}s/{elapsed[1]:.1f}s)",
        )
        assert rerun_ok
        assert chunk_ok


class TestScaleBudgets:
    def test_full_and_desk_scale_wall_times(self, capsys):
        """The six-day loop stays under a minute at 400k rows/day and under
        five seconds at 20k rows/day."""
        start = time.perf_counter()
        scenario_feature_engineering(ScenarioConfig(seed=0))
        full = time.perf_counter() - start
        start = time.perf_counter()
        scenario_feature_engineering(ScenarioConfig(seed=0, samples_per_day=20_000))
        desk = time.perf_counter() - start
        ok = full < 60.0 and desk < 5.0
        with capsys.disabled():
            print(
                f"\nSCALE: {'PASS' if ok else 'FAIL'} - six-day loop at 400k/day in "
                f"{full:.1f}s (< 60s), at 20k/day in {desk:.2f}s (< 5s)"
            )
        assert full < 60.0
        assert desk < 5.0
