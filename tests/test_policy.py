"""Policy tests: uniform, epsilon-greedy, sampling, factored policies."""

import numpy as np
import pytest

from confoundsim import (
    CategoricalSpec,
    FeatureSpec,
    FittedModel,
    epsilon_greedy,
    make_default_ground_truth,
)
from confoundsim.glm import TARGET_CLICK
from confoundsim.policy import FactoredPolicyParams, Policy, to_joint, uniform_policy
from oracles import enum_policy_ctr, sample_action

SPEC = CategoricalSpec(k1=5, k2=5, n_actions=10)
SMALL = CategoricalSpec(k1=2, k2=2, n_actions=2)

# Frozen softmax products for the single-context 2x2 factored case
# (logits (0.3, -0.2) and (0.5, 0.0)); both rows softmax to the same pair.
SOFTMAX_PAIR = (0.6224593312018546, 0.3775406687981454)
JOINT_2X2 = (
    (0.3874556190002601, 0.2350037122015945),
    (0.2350037122015945, 0.1425369565965509),
)


def model_with(beta, spec=SMALL, included=("x1", "x2")):
    fs = FeatureSpec(included, ("a",), spec)
    return FittedModel(fs, np.asarray(beta, dtype=float), TARGET_CLICK, (0, 0), 1)


class TestUniform:
    def test_entries(self):
        pol = uniform_policy(SPEC)
        assert pol.probs.shape == (5, 5, 10)
        assert np.all(pol.probs == 0.1)
        assert pol.visibility == ()

    def test_rows_sum_to_one(self):
        np.testing.assert_allclose(uniform_policy(SPEC).probs.sum(axis=-1), 1.0)

    def test_expected_ctr_is_unweighted_action_mean(self):
        gt = make_default_ground_truth(SPEC, seed=1)
        value = enum_policy_ctr(gt, uniform_policy(SPEC).probs)
        mean_ctr = enum_policy_ctr(
            gt, np.full((5, 5, 10), 1.0 / 10.0)
        )
        assert value == pytest.approx(mean_ctr, abs=1e-15)


class TestEpsilonGreedy:
    def test_epsilon_one_is_uniform(self):
        model = model_with(np.linspace(-1, 1, 8))
        pol = epsilon_greedy(model, 1.0)
        np.testing.assert_allclose(pol.probs, 0.5)

    def test_pure_argmax(self):
        # predictions (0.3, 0.7) per context: mass 1 on action 1
        beta = np.tile([np.log(0.3 / 0.7), np.log(0.7 / 0.3)], 4)
        pol = epsilon_greedy(model_with(beta), 0.0)
        np.testing.assert_allclose(pol.probs[..., 1], 1.0)
        np.testing.assert_allclose(pol.probs[..., 0], 0.0)

    def test_minimum_entry_is_epsilon_over_actions(self):
        gt = make_default_ground_truth(SPEC, seed=0)
        model = model_with(
            np.zeros(250), spec=SPEC
        )
        pol = epsilon_greedy(model, 0.05)
        assert pol.probs.min() == pytest.approx(0.005, abs=1e-15)
        assert gt.spec.n_actions * pol.probs.min() == pytest.approx(0.05, abs=1e-15)

    def test_argmax_entry_mass(self):
        beta = np.tile([0.0, 1.0], 4)
        pol = epsilon_greedy(model_with(beta), 0.05)
        assert pol.probs[0, 0, 1] == pytest.approx(0.95 + 0.025, abs=1e-15)

    def test_tie_breaks_to_lowest_index(self):
        pol = epsilon_greedy(model_with(np.zeros(8)), 0.0)
        np.testing.assert_allclose(pol.probs[..., 0], 1.0)

    def test_epsilon_out_of_range(self):
        model = model_with(np.zeros(8))
        with pytest.raises(ValueError):
            epsilon_greedy(model, -0.1)
        with pytest.raises(ValueError):
            epsilon_greedy(model, 1.1)

    def test_visibility_copied_from_model(self):
        model = model_with(np.zeros(4), included=("x1",))
        pol = epsilon_greedy(model, 0.05)
        assert pol.visibility == ("x1",)

    def test_visibility_contract(self):
        """x1-only policies are exactly constant across x2."""
        gt = make_default_ground_truth(SPEC, seed=3)
        beta = np.asarray(
            [np.sin(i) for i in range(50)]
        )
        model = model_with(beta, spec=SPEC, included=("x1",))
        pol = epsilon_greedy(model, 0.05)
        for x2 in range(1, SPEC.k2):
            np.testing.assert_array_equal(pol.probs[:, x2, :], pol.probs[:, 0, :])

    def test_argmax_scale_invariance(self):
        beta = np.asarray([0.1, 0.9, -0.4, 0.2, 0.3, 0.05, 0.7, -0.2])
        base = epsilon_greedy(model_with(beta), 0.0)
        # scaling a context's coefficients by a positive constant keeps
        # its argmax (sigmoid is monotone)
        scaled_beta = beta.copy()
        scaled_beta[:2] = scaled_beta[:2] * 3.0
        scaled = epsilon_greedy(model_with(np.clip(scaled_beta, -15, 15)), 0.0)
        np.testing.assert_array_equal(
            np.argmax(base.probs, axis=-1), np.argmax(scaled.probs, axis=-1)
        )


class TestSampling:
    def test_deterministic_policy(self):
        beta = np.tile([0.0, 1.0], 4)
        pol = epsilon_greedy(model_with(beta), 0.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, propensity = sample_action(pol, 0, 1, rng)
            assert a == 1
            assert propensity == 1.0

    def test_epsilon_greedy_argmax_propensity(self):
        beta = np.tile([0.0, 1.0], 4)
        pol = epsilon_greedy(model_with(beta), 0.1)
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(200):
            a, propensity = sample_action(pol, 1, 0, rng)
            assert propensity == pol.probs[1, 0, a]
            assert propensity >= 0.05
            seen.add(a)
        assert seen == {0, 1}

    def test_empirical_frequencies(self):
        gt = make_default_ground_truth(SMALL, seed=5)
        beta = np.asarray([0.4, -0.3, 0.6, 0.1, -0.8, 0.2, 0.0, 0.5])
        pol = epsilon_greedy(model_with(beta), 0.3)
        rng = np.random.default_rng(11)
        n = 200_000
        draws, _ = sample_action(pol, 0, 1, rng, size=n)
        for a in range(2):
            p = pol.probs[0, 1, a]
            se = np.sqrt(p * (1 - p) / n)
            assert abs(np.mean(draws == a) - p) <= 4 * se


class TestFactored:
    def test_zero_logits_uniform(self):
        spec = CategoricalSpec(k1=2, k2=2, n_actions=2, n_decisions=2)
        params = FactoredPolicyParams(spec, ("x1",), ("x2",), np.zeros((2, 2)), np.zeros((2, 2)))
        pol = to_joint(params)
        np.testing.assert_allclose(pol.probs, 0.25)

    def test_rows_sum_to_one(self):
        spec = CategoricalSpec(k1=2, k2=2, n_actions=3, n_decisions=2)
        rng = np.random.default_rng(2)
        params = FactoredPolicyParams(
            spec, ("x1",), ("x1", "x2"), rng.normal(size=(2, 3)), rng.normal(size=(4, 2))
        )
        pol = to_joint(params)
        np.testing.assert_allclose(pol.probs.sum(axis=(-2, -1)), 1.0, atol=1e-12)

    def test_hand_softmax_product(self):
        spec = CategoricalSpec(k1=2, k2=2, n_actions=2, n_decisions=2)
        params = FactoredPolicyParams(
            spec, (), (), np.asarray([[0.3, -0.2]]), np.asarray([[0.5, 0.0]])
        )
        pol = to_joint(params)
        for a in range(2):
            for d in range(2):
                assert pol.probs[0, 0, a, d] == pytest.approx(JOINT_2X2[a][d], abs=1e-12)
        assert pol.probs[0, 0, 0, 0] == pytest.approx(SOFTMAX_PAIR[0] ** 2, abs=1e-12)

    def test_nonfinite_logits_rejected(self):
        spec = CategoricalSpec(k1=2, k2=2, n_actions=2, n_decisions=2)
        with pytest.raises(ValueError):
            FactoredPolicyParams(
                spec, ("x1",), ("x2",), np.full((2, 2), np.inf), np.zeros((2, 2))
            )

    def test_shape_validation(self):
        spec = CategoricalSpec(k1=2, k2=2, n_actions=2, n_decisions=2)
        with pytest.raises(ValueError):
            FactoredPolicyParams(spec, ("x1",), ("x2",), np.zeros((3, 2)), np.zeros((2, 2)))


class TestPolicyInvariants:
    def test_row_normalization_enforced(self):
        probs = np.full((2, 2, 2), 0.4)
        with pytest.raises(ValueError):
            Policy(spec=SMALL, probs=probs, visibility=("x1", "x2"))

    def test_visibility_mismatch_rejected(self):
        # claims x1-only but varies with x2
        probs = np.zeros((2, 2, 2))
        probs[:, 0, 0] = 1.0
        probs[:, 1, 1] = 1.0
        with pytest.raises(ValueError):
            Policy(spec=SMALL, probs=probs, visibility=("x1",))
