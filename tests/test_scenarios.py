"""Scenario tests: single-day simulation and the four studies."""

import numpy as np
import pytest

from confoundsim import (
    CHUNK_ROWS,
    CategoricalSpec,
    DayStream,
    GroundTruth,
    ScenarioConfig,
    make_default_ground_truth,
    make_separable_ground_truth,
    run_day,
    scenario_ab_test,
    scenario_click_sale,
    scenario_feature_engineering,
    scenario_two_decision,
    sigmoid,
    uniform_policy,
)
from confoundsim.fixtures import (
    CLICK_SALE_MARGIN,
    CLICK_SALE_SEEDS,
    SEPARABLE_SEEDS,
    TWO_DECISION_MARGIN,
    TWO_DECISION_SEEDS,
    TWO_DECISION_SPEC,
)
from confoundsim.numerics import inverse_cdf
from conftest import all_reports, ndjson_text

SPEC = CategoricalSpec(k1=5, k2=5, n_actions=10)
DESK = ScenarioConfig(samples_per_day=20_000)


def flat_truth():
    return GroundTruth(
        spec=SPEC,
        p_x1=np.full(5, 0.2),
        p_x2_given_x1=np.full((5, 5), 0.2),
        click_logit=np.zeros((5, 5, 10)),
    )


class TestRunDay:
    def test_uniform_on_flat_truth(self):
        gt = flat_truth()
        n = 50_000
        log, report = run_day(gt, uniform_policy(SPEC), n, 0, DayStream(0, 0, 0))
        assert report.expected_ctr == pytest.approx(0.5, abs=1e-15)
        assert report.binomial_se == pytest.approx(np.sqrt(0.25 / n), abs=1e-15)
        assert abs(report.empirical_ctr - 0.5) <= 4 * report.binomial_se
        assert len(log) == n
        np.testing.assert_allclose(log.propensity, 0.1)

    def test_expected_ctr_is_sample_size_free(self):
        gt = make_default_ground_truth(SPEC, seed=0, min_gap=0.02)
        _, small = run_day(gt, uniform_policy(SPEC), 1_000, 0, DayStream(0, 0, 0))
        _, large = run_day(gt, uniform_policy(SPEC), 64_000, 0, DayStream(0, 0, 0))
        assert small.expected_ctr == large.expected_ctr
        assert small.oracle_ctr == large.oracle_ctr

    def test_byte_identical_rerun(self):
        gt = make_default_ground_truth(SPEC, seed=1, min_gap=0.02)
        a, _ = run_day(gt, uniform_policy(SPEC), 30_000, 2, DayStream(1, 2, 0))
        b, _ = run_day(gt, uniform_policy(SPEC), 30_000, 2, DayStream(1, 2, 0))
        assert ndjson_text(a) == ndjson_text(b)

    def test_worker_count_does_not_change_the_log(self):
        gt = make_default_ground_truth(SPEC, seed=1, min_gap=0.02)
        n = CHUNK_ROWS + 1234
        serial, _ = run_day(gt, uniform_policy(SPEC), n, 0, DayStream(1, 0, 0))
        threaded, _ = run_day(gt, uniform_policy(SPEC), n, 0, DayStream(1, 0, 0), workers=4)
        assert ndjson_text(serial) == ndjson_text(threaded)

    def test_report_metadata(self):
        gt = make_default_ground_truth(SPEC, seed=0, min_gap=0.02)
        _, report = run_day(
            gt, uniform_policy(SPEC), 1_000, 3, DayStream(0, 3, 1),
            model_trained_on=(2, 2), arm="B",
        )
        assert report.day == 3
        assert report.arm == "B"
        assert report.samples == 1_000
        assert report.model_trained_on == (2, 2)
        assert report.features_used == ()
        assert report.regret == pytest.approx(report.oracle_ctr - report.expected_ctr)
        assert report.regret >= -1e-12

    def test_inverse_cdf_ties_and_cap(self):
        # The x2 and action-cell draws count the CDF entries strictly below
        # u, so a u on an entry stays in that column, and a last entry that
        # rounds short of 1.0 never sends a draw off the row.
        u = np.array([0.25, 0.2500001, 0.5, 0.75, 1.0 - 2.0**-53])
        cdf = np.tile([0.25, 0.5, 1.0 - 2.0**-52], (len(u), 1))
        assert inverse_cdf(cdf, u).tolist() == [0, 1, 1, 2, 2]

    def test_empty_day_rejected(self):
        gt = make_default_ground_truth(SPEC, seed=0)
        with pytest.raises(ValueError):
            run_day(gt, uniform_policy(SPEC), 0, 0, DayStream(0, 0, 0))


class TestFeatureEngineeringLoop:
    def test_dip_and_recovery_on_every_fixture_seed(self, day_loop_sweep):
        """One x2-aware day confounds exactly one successor day.

        Day 2 (x2-aware) is at least as good as day 1; day 3's blind refit
        on confounded traffic drops by at least min_gap*(1-epsilon); days
        4 and 5 return to the day-1 rate within 1e-3.
        """
        cfg = ScenarioConfig()
        floor = cfg.min_gap * (1.0 - cfg.epsilon)
        for seed, row in day_loop_sweep.items():
            rate = {r.day: r.expected_ctr for r in row["fe"]}
            assert rate[2] >= rate[1], seed
            assert rate[1] - rate[3] >= floor, seed
            assert abs(rate[4] - rate[1]) <= 1e-3, seed
            assert abs(rate[5] - rate[1]) <= 1e-3, seed

    def test_no_dip_without_an_x2_aware_day(self, day_loop_sweep):
        for seed, row in day_loop_sweep.items():
            post = [r.expected_ctr for r in row["blind"] if r.day >= 2]
            assert max(post) - min(post) <= 1e-3, seed

    def test_schedule_metadata(self):
        res = scenario_feature_engineering(DESK)
        by_day = {r.day: r for r in res.reports}
        assert by_day[0].features_used == ()
        assert by_day[0].model_trained_on is None
        assert by_day[2].features_used == ("x1", "x2")
        for day in (1, 3, 4, 5):
            assert by_day[day].features_used == ("x1",)
        for day in range(1, 6):
            assert by_day[day].model_trained_on == (day - 1, day - 1)
        assert all(r.regret >= -1e-12 for r in res.reports)
        assert set(np.unique(res.log.day)) == set(range(6))

    def test_desk_scale_still_shows_the_dip(self):
        res = scenario_feature_engineering(DESK)
        rate = {r.day: r.expected_ctr for r in res.reports}
        assert rate[1] - rate[3] >= DESK.min_gap * (1.0 - DESK.epsilon)


class TestABTest:
    def test_blind_arm_b_makes_arms_identical(self):
        """With both arms fitting x1-only models on a shared log, the two
        arms fit the same training data and deploy the same policy, so
        their exact rates coincide day by day.
        """
        res = scenario_ab_test(DESK, shared_log=True, arm_b_features=("x1",))
        for ra, rb in zip(res.arm_reports["A"], res.arm_reports["B"]):
            assert ra.expected_ctr == rb.expected_ctr
            assert ra.features_used == rb.features_used == ("x1",)

    def test_shared_log_entrenches_on_every_fixture_seed(self, day_loop_sweep):
        for seed, row in day_loop_sweep.items():
            shared_a = [r.expected_ctr for r in row["shared_a"]]
            separate_a = [r.expected_ctr for r in row["separate_a"]]
            for i in range(1, len(shared_a)):
                assert shared_a[i] < separate_a[i], (seed, i)

    def test_separate_log_recovers_in_one_day(self, day_loop_sweep):
        for seed, row in day_loop_sweep.items():
            day1 = row["separate_common"][1].expected_ctr
            assert abs(row["separate_a"][1].expected_ctr - day1) <= 1e-3, seed

    def test_split_bookkeeping(self):
        res = scenario_ab_test(DESK, shared_log=False)
        n = DESK.samples_per_day
        for ra, rb in zip(res.arm_reports["A"], res.arm_reports["B"]):
            assert ra.samples == n // 2
            assert rb.samples == n - n // 2
            assert (ra.arm, rb.arm) == ("A", "B")
        assert [r.day for r in res.common_reports] == [0, 1]
        assert len(res.log.arm_slice("A")) == (DESK.days - DESK.ab_start_day) * (n // 2)
        assert [r.day for r in res.reports[:2]] == [0, 1]

    def test_start_day_validation(self):
        with pytest.raises(ValueError):
            scenario_ab_test(ScenarioConfig(days=3, ab_start_day=3, samples_per_day=1000))
        with pytest.raises(ValueError):
            scenario_ab_test(ScenarioConfig(ab_start_day=0, samples_per_day=1000))


class TestClickSale:
    @pytest.mark.parametrize("seed", CLICK_SALE_SEEDS[:3])
    def test_mismatched_views_lose_on_cross_dependent_mechanisms(self, seed):
        res = scenario_click_sale(ScenarioConfig(seed=seed))
        assert res.value("mismatched") < res.value("full")
        assert res.value("full") - res.value("mismatched") >= CLICK_SALE_MARGIN
        assert res.value("full") <= res.value("oracle") + 1e-12

    def test_full_views_sit_near_the_oracle(self):
        res = scenario_click_sale(ScenarioConfig(seed=0))
        assert res.value("oracle") - res.value("full") <= 0.01

    @pytest.mark.parametrize("seed", SEPARABLE_SEEDS[:2])
    def test_separable_mechanisms_lose_nothing(self, seed):
        cfg = ScenarioConfig(seed=seed)
        gt = make_separable_ground_truth(cfg.spec, seed, min_sep=0.02, with_sales=True)
        res = scenario_click_sale(cfg, gt=gt)
        assert abs(res.value("full") - res.value("mismatched")) <= 1e-9

    def test_equal_views_collapse_to_the_full_variant(self):
        res = scenario_click_sale(
            ScenarioConfig(seed=0, samples_per_day=50_000),
            x_prime=("x1", "x2"),
            x_dprime=("x1", "x2"),
        )
        assert res.value("mismatched") == res.value("full")

    def test_validation(self):
        cfg = ScenarioConfig(seed=0, samples_per_day=1000)
        no_sales = make_default_ground_truth(cfg.spec, 0, cfg.min_gap)
        with pytest.raises(ValueError):
            scenario_click_sale(cfg, gt=no_sales)
        other = make_default_ground_truth(
            CategoricalSpec(k1=3, k2=3, n_actions=4), 0, with_sales=True
        )
        with pytest.raises(ValueError):
            scenario_click_sale(cfg, gt=other)
        two_decisions = CategoricalSpec(k1=2, k2=2, n_actions=3, n_decisions=2)
        with pytest.raises(ValueError, match="single-decision"):
            scenario_click_sale(ScenarioConfig(spec=two_decisions, samples_per_day=1000))


def separable_two_decision_truth():
    """Click logit additive in (a, d): the factored form is sufficient."""
    spec = CategoricalSpec(k1=2, k2=2, n_actions=4, n_decisions=2)
    rng = np.random.default_rng(0)
    f = np.stack([rng.permutation([-1.5, -0.5, 0.5, 1.5]) for _ in range(4)]).reshape(2, 2, 4)
    g = np.stack([rng.permutation([-0.7, 0.7]) for _ in range(4)]).reshape(2, 2, 2)
    return GroundTruth(
        spec=spec,
        p_x1=np.array([0.6, 0.4]),
        p_x2_given_x1=np.array([[0.7, 0.3], [0.2, 0.8]]),
        click_logit=f[..., :, None] + g[..., None, :],
    )


class TestTwoDecision:
    def test_separable_reward_needs_no_joint_policy(self):
        gt = separable_two_decision_truth()
        v_star = float(
            np.einsum("ij,ij->", gt.covariate_weights, sigmoid(gt.click_logit).max(axis=(2, 3)))
        )
        cfg = ScenarioConfig(spec=gt.spec, seed=0)
        res = scenario_two_decision(cfg, x_prime=("x1", "x2"), x_dprime=("x1", "x2"), gt=gt)
        assert res.value("joint_argmax") == pytest.approx(v_star, abs=1e-12)
        assert res.value("independent_factored") == pytest.approx(v_star, abs=1e-12)
        # The softmax search approaches the deterministic optimum without
        # ever saturating; the residual sits well inside 1e-2.
        assert v_star - res.value("reinforce_factored") <= 1e-2
        assert res.value("reinforce_factored") <= v_star + 1e-12

    @pytest.mark.parametrize("seed", TWO_DECISION_SEEDS[:3])
    def test_search_beats_independent_fits_on_fixtures(self, seed):
        cfg = ScenarioConfig(spec=TWO_DECISION_SPEC, seed=seed)
        res = scenario_two_decision(cfg)
        gain = res.model_value("reinforce_factored") - res.model_value("independent_factored")
        assert gain >= TWO_DECISION_MARGIN
        assert res.model_value("joint_argmax") >= res.model_value("reinforce_factored") - 1e-12

    def test_requires_a_decision_axis(self):
        with pytest.raises(ValueError):
            scenario_two_decision(ScenarioConfig(samples_per_day=1000))

    def test_gt_spec_must_match(self):
        cfg = ScenarioConfig(spec=TWO_DECISION_SPEC, samples_per_day=1000)
        with pytest.raises(ValueError):
            scenario_two_decision(cfg, gt=separable_two_decision_truth())


class TestCalibration:
    def test_empirical_rates_track_exact_rates(self, day_loop_sweep):
        """Across the full sweep, at least 99% of day reports land within
        four binomial standard errors of their exact expected rate."""
        hits = total = 0
        for row in day_loop_sweep.values():
            for r in all_reports(row):
                total += 1
                hits += abs(r.empirical_ctr - r.expected_ctr) <= 4 * r.binomial_se
        assert total >= 50 * 6
        assert hits / total >= 0.99
