"""Ground-truth environment tests: construction, gap metric, exact oracles."""

import warnings

import numpy as np
import pytest

from confoundsim import CategoricalSpec, make_default_ground_truth, make_separable_ground_truth
from confoundsim.environment import (
    GroundTruth,
    confounding_gap,
    expected_policy_click_sale_rate,
    expected_policy_ctr,
    oracle_policy,
    policy_value,
)
from confoundsim.policy import Policy, uniform_policy
from oracles import (
    enum_click_sale_rate,
    enum_confounding_gap,
    enum_oracle_policy,
    enum_policy_ctr,
    enum_policy_value,
    sample_action,
    sample_context,
    true_click_prob,
    true_sale_prob,
)

SPEC = CategoricalSpec(k1=5, k2=5, n_actions=10)
SMALL = CategoricalSpec(k1=2, k2=2, n_actions=2)
TWO_DECISION = CategoricalSpec(k1=3, k2=4, n_actions=3, n_decisions=2)

# Frozen hand-instance values (see oracles.py for the computation route).
HAND_GAP = 0.3397460259384324
HAND_CTR = 0.4107082738069113
SIGMA_15 = 0.999999694097773


def hand_gap_truth():
    """k1=2 with all mass on state 0; the active slice flips its argmax.

    For x1=0: action 0 wins on x2=0 (logit 1 vs -1), action 1 wins on
    x2=1 (logit 2 vs -2), and x2 is skewed 0.9/0.1, so the marginal best
    action is 0 while an x2-aware greedy log makes action 1 look better.
    The x1=1 slice is constant in x2 and contributes no gap.
    """
    click = np.zeros((2, 2, 2))
    click[0] = [[1.0, -1.0], [-2.0, 2.0]]
    return GroundTruth(
        spec=SMALL,
        p_x1=np.array([1.0, 0.0]),
        p_x2_given_x1=np.array([[0.9, 0.1], [0.5, 0.5]]),
        click_logit=click,
    )


def hand_ctr_truth():
    click = np.zeros((2, 2, 2))
    click[0] = [[0.5, -1.0], [-0.5, 1.5]]
    return GroundTruth(
        spec=SMALL,
        p_x1=np.array([1.0, 0.0]),
        p_x2_given_x1=np.array([[0.8, 0.2], [0.5, 0.5]]),
        click_logit=click,
    )


class TestConstruction:
    def test_min_gap_zero_accepts_first_draw(self):
        gt = make_default_ground_truth(SPEC, seed=0, min_gap=0.0)
        assert gt.p_x1.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(gt.p_x2_given_x1.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.isfinite(gt.click_logit))
        p = 1.0 / (1.0 + np.exp(-gt.click_logit))
        assert np.all((p > 0.0) & (p < 1.0))

    def test_deterministic(self):
        a = make_default_ground_truth(SPEC, seed=7, min_gap=0.02)
        b = make_default_ground_truth(SPEC, seed=7, min_gap=0.02)
        np.testing.assert_array_equal(a.click_logit, b.click_logit)
        np.testing.assert_array_equal(a.p_x1, b.p_x1)
        np.testing.assert_array_equal(a.p_x2_given_x1, b.p_x2_given_x1)

    def test_fixture_gap_met(self):
        gt = make_default_ground_truth(SPEC, seed=0, min_gap=0.02)
        assert confounding_gap(gt) >= 0.02
        assert gt.gap == pytest.approx(confounding_gap(gt))
        assert gt.min_gap == 0.02

    def test_min_gap_bounds(self):
        with pytest.raises(ValueError):
            make_default_ground_truth(SPEC, seed=0, min_gap=-0.01)
        with pytest.raises(ValueError):
            make_default_ground_truth(SPEC, seed=0, min_gap=0.21)

    def test_rejection_budget_diagnostic(self):
        # Seed 6's first candidate sits at gap 0.189, below the 0.2 bar.
        with pytest.raises(RuntimeError, match="confounding_gap"):
            make_default_ground_truth(SPEC, seed=6, min_gap=0.2, max_rounds=1)

    @pytest.mark.parametrize("make", [make_default_ground_truth, make_separable_ground_truth])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": True}, {"seed": 2.5}, {"seed": -1}, {"seed": 0, "max_rounds": 2.5}, {"seed": 0, "max_rounds": 0},
            {"seed": 0, "bar": "0.1"}, {"seed": 0, "bar": None},
        ],
        ids=["seed-bool", "seed-float", "seed-negative", "rounds-float", "rounds-zero", "bar-string", "bar-none"],
    )
    def test_bad_seed_or_budget_rejected(self, make, kwargs):
        # "bar" stands for the acceptance threshold: min_gap, or min_sep for separable draws.
        bar = "min_gap" if make is make_default_ground_truth else "min_sep"
        kwargs = {bar if key == "bar" else key: value for key, value in kwargs.items()}
        # The last argument given is the bad one, and the error names it.
        with pytest.raises(ValueError, match=f"^{list(kwargs)[-1]} must "):
            make(SPEC, **kwargs)

    def test_sales_optional(self):
        gt = make_default_ground_truth(SPEC, seed=0, with_sales=True)
        assert gt.sale_logit is not None
        assert gt.sale_logit.shape == (5, 5, 10)
        assert make_default_ground_truth(SPEC, seed=0).sale_logit is None

    def test_invalid_tables_rejected(self):
        with pytest.raises(ValueError):
            GroundTruth(
                spec=SMALL,
                p_x1=np.array([0.7, 0.7]),
                p_x2_given_x1=np.full((2, 2), 0.5),
                click_logit=np.zeros((2, 2, 2)),
            )
        with pytest.raises(ValueError, match="p_x1 must be nonnegative and sum to one"):
            GroundTruth(
                spec=SMALL,
                p_x1=np.array([np.nan, np.nan]),
                p_x2_given_x1=np.full((2, 2), 0.5),
                click_logit=np.zeros((2, 2, 2)),
            )
        with pytest.raises(ValueError):
            GroundTruth(
                spec=SMALL,
                p_x1=np.array([0.5, 0.5]),
                p_x2_given_x1=np.full((2, 2), 0.5),
                click_logit=np.full((2, 2, 2), np.inf),
            )


class TestConfoundingGap:
    def test_constant_in_x2_is_zero(self):
        rng = np.random.default_rng(0)
        by_x1_a = rng.uniform(-2, 2, size=(5, 1, 10))
        gt = make_default_ground_truth(SPEC, seed=0)
        flat = GroundTruth(
            spec=SPEC,
            p_x1=gt.p_x1,
            p_x2_given_x1=gt.p_x2_given_x1,
            click_logit=np.broadcast_to(by_x1_a, (5, 5, 10)).copy(),
        )
        assert confounding_gap(flat) == 0.0

    def test_hand_instance(self):
        assert confounding_gap(hand_gap_truth()) == pytest.approx(HAND_GAP, abs=1e-12)

    def test_gap_nonnegative(self):
        for seed in range(5):
            gt = make_default_ground_truth(SPEC, seed=seed)
            assert confounding_gap(gt) >= 0.0

    @pytest.mark.parametrize("spec", [SPEC, SMALL, TWO_DECISION], ids=["default", "small", "two-decision"])
    def test_matches_loop_enumeration(self, spec):
        rng = np.random.default_rng(spec.action_cells)
        for _ in range(40):
            gt = GroundTruth(
                spec=spec,
                p_x1=rng.dirichlet(np.ones(spec.k1)),
                p_x2_given_x1=rng.dirichlet(np.ones(spec.k2), size=spec.k1),
                click_logit=rng.uniform(-2, 2, size=spec.cell_shape),
            )
            assert confounding_gap(gt) == pytest.approx(enum_confounding_gap(gt), abs=1e-12)


class TestSampling:
    def test_point_mass_x1(self):
        gt = hand_ctr_truth()
        rng = np.random.default_rng(0)
        for _ in range(50):
            x1, x2 = sample_context(gt, rng)
            assert x1 == 0

    def test_empirical_marginals(self):
        gt = make_default_ground_truth(SPEC, seed=2)
        rng = np.random.default_rng(3)
        n = 100_000
        x1, x2 = sample_context(gt, rng, size=n)
        for state in range(SPEC.k1):
            p = gt.p_x1[state]
            se = np.sqrt(p * (1 - p) / n)
            assert abs(np.mean(x1 == state) - p) <= 4 * se
        joint = gt.covariate_weights
        for i in range(SPEC.k1):
            for j in range(SPEC.k2):
                p = joint[i, j]
                se = np.sqrt(p * (1 - p) / n)
                assert abs(np.mean((x1 == i) & (x2 == j)) - p) <= 4 * se

    def test_reproducible(self):
        gt = make_default_ground_truth(SPEC, seed=2)
        a = sample_context(gt, np.random.default_rng(9), size=1000)
        b = sample_context(gt, np.random.default_rng(9), size=1000)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_tuple_size_shapes_like_sample_action(self):
        spec = CategoricalSpec(k1=3, k2=4, n_actions=2)
        gt = make_default_ground_truth(spec, seed=0)
        x1, x2 = sample_context(gt, np.random.default_rng(5), size=(2, 3))
        a, propensity = sample_action(uniform_policy(spec), 0, 1, np.random.default_rng(5), size=(2, 3))
        assert x1.shape == x2.shape == a.shape == propensity.shape == (2, 3)

    def test_tuple_size_is_a_reshaped_flat_draw(self):
        gt = make_default_ground_truth(SPEC, seed=2)
        x1, x2 = sample_context(gt, np.random.default_rng(9), size=(2, 3))
        flat1, flat2 = sample_context(gt, np.random.default_rng(9), size=6)
        assert x1.tolist() == flat1.reshape(2, 3).tolist()
        assert x2.tolist() == flat2.reshape(2, 3).tolist()


class TestPointProbabilities:
    def test_zero_logit(self):
        gt = hand_ctr_truth()
        assert true_click_prob(gt, 1, 0, 0) == 0.5

    def test_cap_at_fifteen(self):
        click = np.full((2, 2, 2), 20.0)
        gt = GroundTruth(
            spec=SMALL,
            p_x1=np.array([0.5, 0.5]),
            p_x2_given_x1=np.full((2, 2), 0.5),
            click_logit=click,
        )
        assert true_click_prob(gt, 0, 0, 0) == pytest.approx(SIGMA_15, abs=1e-15)

    def test_matches_bernoulli_draws(self):
        gt = make_default_ground_truth(SPEC, seed=4)
        p = true_click_prob(gt, 1, 2, 3)
        rng = np.random.default_rng(5)
        n = 200_000
        clicks = rng.random(n) < p
        se = np.sqrt(p * (1 - p) / n)
        assert abs(clicks.mean() - p) <= 4 * se

    def test_sale_requires_mechanism(self):
        gt = make_default_ground_truth(SPEC, seed=0)
        with pytest.raises(ValueError):
            true_sale_prob(gt, 0, 0, 0)
        with_sales = make_default_ground_truth(SPEC, seed=0, with_sales=True)
        expected = 1.0 / (1.0 + np.exp(-with_sales.sale_logit[0, 0, 0]))
        assert true_sale_prob(with_sales, 0, 0, 0) == pytest.approx(expected, abs=1e-15)


class TestExpectedCtr:
    def test_uniform_zero_logits_is_half(self):
        gt = GroundTruth(
            spec=SMALL,
            p_x1=np.array([0.5, 0.5]),
            p_x2_given_x1=np.full((2, 2), 0.5),
            click_logit=np.zeros((2, 2, 2)),
        )
        assert expected_policy_ctr(gt, uniform_policy(SMALL)) == pytest.approx(0.5, abs=1e-15)

    def test_hand_instance(self):
        probs = np.full((2, 2, 2), 0.5)
        probs[0, 0] = [0.3, 0.7]
        probs[0, 1] = [0.6, 0.4]
        pol = Policy(spec=SMALL, probs=probs, visibility=("x1", "x2"))
        value = expected_policy_ctr(hand_ctr_truth(), pol)
        assert value == pytest.approx(HAND_CTR, abs=1e-12)

    def test_matches_pure_python_enumeration(self):
        gt = make_default_ground_truth(SPEC, seed=6)
        pol = oracle_policy(gt, ("x1",))
        assert expected_policy_ctr(gt, pol) == pytest.approx(
            enum_policy_ctr(gt, pol.probs), abs=1e-12
        )

    def test_spec_mismatch_rejected(self):
        gt = make_default_ground_truth(SPEC, seed=0)
        with pytest.raises(ValueError):
            expected_policy_ctr(gt, uniform_policy(SMALL))

    def test_policy_value_matches_loop_enumeration(self):
        gt = make_default_ground_truth(TWO_DECISION, seed=3)
        rng = np.random.default_rng(4)
        reward = rng.uniform(-1.0, 1.0, size=TWO_DECISION.cell_shape)
        probs = rng.dirichlet(np.ones(TWO_DECISION.action_cells), size=(3, 4)).reshape(TWO_DECISION.cell_shape)
        pol = Policy(spec=TWO_DECISION, probs=probs, visibility=("x1", "x2"))
        assert policy_value(gt, pol, reward) == pytest.approx(enum_policy_value(gt, probs, reward), abs=1e-12)

    def test_policy_value_rejects_mismatches(self):
        gt = make_default_ground_truth(TWO_DECISION, seed=3)
        with pytest.raises(ValueError, match="spec"):
            policy_value(gt, uniform_policy(SPEC), np.zeros(SPEC.cell_shape))
        with pytest.raises(ValueError, match="reward"):
            policy_value(gt, uniform_policy(TWO_DECISION), np.zeros((3, 4, 6)))

    def test_click_sale_rate_matches_enumeration(self):
        gt = make_default_ground_truth(SPEC, seed=6, with_sales=True)
        pol = uniform_policy(SPEC)
        assert expected_policy_click_sale_rate(gt, pol) == pytest.approx(
            enum_click_sale_rate(gt, pol.probs), abs=1e-12
        )


class TestOraclePolicy:
    def test_constant_in_x2_visibility_equivalence(self):
        rng = np.random.default_rng(1)
        by_x1_a = rng.uniform(-2, 2, size=(5, 1, 10))
        gt = make_default_ground_truth(SPEC, seed=1)
        flat = GroundTruth(
            spec=SPEC,
            p_x1=gt.p_x1,
            p_x2_given_x1=gt.p_x2_given_x1,
            click_logit=np.broadcast_to(by_x1_a, (5, 5, 10)).copy(),
        )
        full = oracle_policy(flat, ("x1", "x2"))
        blind = oracle_policy(flat, ("x1",))
        np.testing.assert_array_equal(full.probs, blind.probs)

    @pytest.mark.parametrize("aware_vis", [("x1", "x2"), ("x2", "x1")], ids=["canonical", "reversed"])
    def test_hand_argmax(self, aware_vis):
        pol = oracle_policy(hand_gap_truth(), ("x1",))
        assert np.argmax(pol.probs[0, 0]) == 0
        aware = oracle_policy(hand_gap_truth(), aware_vis)
        assert aware.visibility == ("x1", "x2")
        assert np.argmax(aware.probs[0, 0]) == 0
        assert np.argmax(aware.probs[0, 1]) == 1

    @pytest.mark.parametrize(
        "p_x2_given_x1",
        [np.full((2, 2), 0.5), np.array([[1.0, 0.0], [1.0, 0.0]])],
        ids=["uniform", "zero-mass-x2"],
    )
    def test_tie_breaks_to_lowest_index(self, p_x2_given_x1):
        gt = GroundTruth(
            spec=SMALL,
            p_x1=np.array([0.5, 0.5]),
            p_x2_given_x1=p_x2_given_x1,
            click_logit=np.zeros((2, 2, 2)),
        )
        for vis in (("x1", "x2"), ("x1",), ("x2",), ()):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pol = oracle_policy(gt, vis)
            np.testing.assert_allclose(pol.probs[..., 0], 1.0)

    @pytest.mark.parametrize("spec", [SPEC, TWO_DECISION], ids=["default", "two-decision"])
    def test_matches_loop_enumeration(self, spec):
        for seed in range(4):
            gt = make_default_ground_truth(spec, seed=seed)
            for vis in (("x1", "x2"), ("x1",), ("x2",), ()):
                pol = oracle_policy(gt, vis)
                assert pol.visibility == vis
                best = np.argmax(pol.cell_probs(), axis=-1)
                assert best.tolist() == enum_oracle_policy(gt, vis)
                np.testing.assert_array_equal(pol.cell_probs().max(axis=-1), 1.0)

    def test_information_ordering(self):
        """More visibility never hurts the exact oracle."""
        for seed in range(5):
            gt = make_default_ground_truth(SPEC, seed=seed)
            full = expected_policy_ctr(gt, oracle_policy(gt, ("x1", "x2")))
            x1_only = expected_policy_ctr(gt, oracle_policy(gt, ("x1",)))
            blind = expected_policy_ctr(gt, oracle_policy(gt, ()))
            uniform = expected_policy_ctr(gt, uniform_policy(SPEC))
            assert full >= x1_only - 1e-12
            assert x1_only >= blind - 1e-12
            assert blind >= uniform - 1e-12

    @pytest.mark.parametrize("vis", [("x3",), ("x1", "x1")], ids=["unknown", "duplicate"])
    def test_unknown_visibility_rejected(self, vis):
        gt = make_default_ground_truth(SPEC, seed=0)
        with pytest.raises(ValueError):
            oracle_policy(gt, vis)


class TestSeparable:
    def test_structure(self):
        gt = make_separable_ground_truth(SPEC, seed=0, min_sep=0.02)
        for i in range(1, SPEC.k1):
            np.testing.assert_array_equal(gt.click_logit[i], gt.click_logit[0])
        for j in range(1, SPEC.k2):
            np.testing.assert_array_equal(gt.sale_logit[:, j, :], gt.sale_logit[:, 0, :])

    def test_min_sep_bounds(self):
        with pytest.raises(ValueError):
            make_separable_ground_truth(SPEC, seed=0, min_sep=0.3)

    def test_decision_specs_rejected(self):
        spec = CategoricalSpec(k1=2, k2=2, n_actions=2, n_decisions=2)
        with pytest.raises(ValueError):
            make_separable_ground_truth(spec, seed=0)


class TestSerialization:
    def test_fingerprint_stable_and_distinct(self):
        a = make_default_ground_truth(SPEC, seed=0)
        b = make_default_ground_truth(SPEC, seed=0)
        c = make_default_ground_truth(SPEC, seed=1)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
