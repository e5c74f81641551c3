"""Identification tests: d-separation, backdoor criterion, adjustment."""

import itertools
import math

import numpy as np
import pytest

from confoundsim import (
    CategoricalSpec,
    DayStream,
    FeatureSpec,
    FittedModel,
    backdoor_adjust,
    backdoor_admissible,
    backdoor_paths,
    base_click_dag,
    d_separated,
    epsilon_greedy,
    fit,
    fit_cov_model,
    format_path,
    make_default_ground_truth,
    marginal_click_prob,
    parse_dag,
    run_day,
)
from confoundsim.causal import CovModel, Dag, unblocked_backdoor_path
from confoundsim.glm import predict
from confoundsim.logs import Log
from confoundsim.policy import uniform_policy
from oracles import adjustment_support, conditionally_independent, dag_joint_table, subcell_tallies

SPEC = CategoricalSpec(k1=5, k2=5, n_actions=10)
FULL = FeatureSpec(("x1", "x2"), ("a",), SPEC)


class TestParseDag:
    def test_edges_comments_and_bare_nodes(self):
        g = parse_dag(
            """
            # click graph
            x1 -> a
            x1 -> c   # direct effect
            x1 -> x2
            x2 -> c
            a -> c
            u
            """
        )
        assert set(g.nodes) == {"x1", "x2", "a", "c", "u"}
        assert g.edges == base_click_dag().edges
        assert g.parents("u") == set() and g.children("u") == set()

    def test_round_trip_against_builtin(self):
        g = parse_dag("x1 -> a\nx1 -> c\nx1 -> x2\nx2 -> c\na -> c")
        assert g.edges == base_click_dag().edges
        assert set(g.nodes) == set(base_click_dag().nodes)

    def test_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_dag("a -> b -> c")
        with pytest.raises(ValueError):
            parse_dag("a ->")
        with pytest.raises(ValueError):
            parse_dag("a b")
        with pytest.raises(ValueError):
            parse_dag("   # nothing but a comment")

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            parse_dag("a -> b\nb -> c\nc -> a")
        with pytest.raises(ValueError):
            Dag(("a",), [("a", "a")])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Dag(("a", "b"), [("a", "z")])


class TestDSeparation:
    def test_base_graph_x2_ignorable_given_x1(self):
        assert d_separated(base_click_dag(), {"x2"}, {"a"}, {"x1"}) is True

    def test_x2_aware_logging_breaks_ignorability(self):
        assert d_separated(base_click_dag(x2_to_action=True), {"x2"}, {"a"}, {"x1"}) is False

    def test_chain_blocked_by_middle(self):
        chain = parse_dag("a -> b\nb -> c")
        assert d_separated(chain, {"a"}, {"c"}, {"b"}) is True
        assert d_separated(chain, {"a"}, {"c"}) is False

    def test_collider_blocks_until_conditioned(self):
        collider = parse_dag("a -> b\nc -> b")
        assert d_separated(collider, {"a"}, {"c"}) is True
        assert d_separated(collider, {"a"}, {"c"}, {"b"}) is False

    def test_collider_descendant_also_opens(self):
        g = parse_dag("a -> b\nc -> b\nb -> d")
        assert d_separated(g, {"a"}, {"c"}, {"d"}) is False

    def test_query_validation(self):
        g = base_click_dag()
        with pytest.raises(ValueError):
            d_separated(g, {"zz"}, {"a"})
        with pytest.raises(ValueError):
            d_separated(g, {"a"}, {"a"})
        with pytest.raises(ValueError):
            d_separated(g, set(), {"a"})


def ci_fixture_graphs():
    """Named graphs of at most five nodes spanning chains, forks,
    colliders, and both click graphs, plus a seeded random
    upper-triangular DAG."""
    rng = np.random.default_rng(12345)
    names = [f"n{i}" for i in range(5)]
    random_edges = [
        (names[i], names[j])
        for i in range(5)
        for j in range(i + 1, 5)
        if rng.random() < 0.5
    ]
    return {
        "base": base_click_dag(),
        "aware": base_click_dag(x2_to_action=True),
        "chain": parse_dag("a -> b\nb -> c"),
        "collider": parse_dag("a -> b\nc -> b"),
        "fork": parse_dag("b -> a\nb -> c"),
        "mgraph": parse_dag("u -> a\nu -> m\nv -> m\nv -> c"),
        "diamond": parse_dag("a -> b\na -> c\nb -> d\nc -> d"),
        "collider_tail": parse_dag("a -> b\nc -> b\nb -> d"),
        "random5": Dag(names, random_edges),
    }


class TestBruteForceOracle:
    """d_separated must agree with exact conditional-independence checks.

    For every graph, every singleton pair, and every conditioning subset,
    a d-separation verdict of True must hold as exact independence (to
    1e-12) on every random factorized joint, and a verdict of False must
    show a visible dependence on at least one draw (flat-Dirichlet
    conditionals are faithful outside a measure-zero set).
    """

    @pytest.mark.parametrize("name", sorted(ci_fixture_graphs()))
    def test_agreement(self, name):
        g = ci_fixture_graphs()[name]
        rng = np.random.default_rng(hash(name) % 2**32)
        joints = [dag_joint_table(g.nodes, g.edges, rng) for _ in range(3)]
        axis = {node: i for i, node in enumerate(g.nodes)}
        checked = 0
        for x, y in itertools.combinations(g.nodes, 2):
            rest = [n for n in g.nodes if n not in (x, y)]
            for r in range(len(rest) + 1):
                for zs in itertools.combinations(rest, r):
                    verdict = d_separated(g, {x}, {y}, set(zs))
                    zaxes = [axis[z] for z in zs]
                    ci = [
                        conditionally_independent(j, [axis[x]], [axis[y]], zaxes)
                        for j in joints
                    ]
                    if verdict:
                        assert all(ci), (x, y, zs)
                    else:
                        loose = [
                            conditionally_independent(
                                j, [axis[x]], [axis[y]], zaxes, tol=1e-9
                            )
                            for j in joints
                        ]
                        assert not all(loose), (x, y, zs)
                    checked += 1
        assert checked > 0


class TestBackdoorCriterion:
    def test_base_graph_x1_admissible(self):
        assert backdoor_admissible(base_click_dag(), "a", "c", {"x1"}) is True

    def test_x2_aware_needs_x2_in_the_set(self):
        g = base_click_dag(x2_to_action=True)
        assert backdoor_admissible(g, "a", "c", {"x1"}) is False
        assert backdoor_admissible(g, "a", "c", {"x1", "x2"}) is True
        assert backdoor_admissible(g, "a", "c", set()) is False

    def test_descendants_disqualify(self):
        g = parse_dag("u -> a\nu -> c\na -> m\nm -> c")
        assert backdoor_admissible(g, "a", "c", {"m"}) is False
        assert backdoor_admissible(g, "a", "c", {"u"}) is True
        assert backdoor_admissible(g, "a", "c", {"u", "m"}) is False

    def test_no_backdoor_needs_no_set(self):
        chain = parse_dag("a -> m\nm -> c")
        assert backdoor_admissible(chain, "a", "c", set()) is True

    def test_validation(self):
        g = base_click_dag()
        with pytest.raises(ValueError):
            backdoor_admissible(g, "a", "a", set())
        with pytest.raises(ValueError):
            backdoor_admissible(g, "a", "c", {"a"})
        # The outcome is also a descendant of the treatment here; the
        # exclusion rule is checked first, so including it still raises.
        with pytest.raises(ValueError):
            backdoor_admissible(g, "a", "c", {"c"})
        with pytest.raises(ValueError):
            backdoor_admissible(g, "a", "c", {"zz"})

    def test_witness_path(self):
        g = base_click_dag(x2_to_action=True)
        path = unblocked_backdoor_path(g, "a", "c", {"x1"})
        assert path == ("a", "x2", "c")
        assert format_path(g, path) == "a <- x2 -> c"
        assert unblocked_backdoor_path(g, "a", "c", {"x1", "x2"}) is None
        base = base_click_dag()
        assert unblocked_backdoor_path(base, "a", "c", {"x1"}) is None
        open_path = unblocked_backdoor_path(base, "a", "c", set())
        assert format_path(base, open_path) == "a <- x1 -> c"

    def test_backdoor_paths_sorted_and_complete(self):
        g = base_click_dag(x2_to_action=True)
        paths = backdoor_paths(g, "a", "c")
        assert paths[0] in (("a", "x1", "c"), ("a", "x2", "c"))
        assert len(paths) == len(set(paths))
        for p in paths:
            assert p[0] == "a" and p[-1] == "c"
            assert (p[1], p[0]) in g.edges


def context_log(x1s, x2s):
    n = len(x1s)
    return Log(
        day=np.zeros(n, dtype=np.int64),
        x1=np.asarray(x1s, dtype=np.int64),
        x2=np.asarray(x2s, dtype=np.int64),
        a=np.zeros(n, dtype=np.int64),
        propensity=np.ones(n),
        c=np.zeros(n, dtype=np.int64),
    )


class TestCovModel:
    def test_default_smoothing(self):
        small = CategoricalSpec(k1=2, k2=2, n_actions=2)
        cov = fit_cov_model(context_log([0, 0, 0, 0], [0, 0, 0, 1]), small)
        np.testing.assert_allclose(cov.p_x2_given_x1[0], [3.5 / 5.0, 1.5 / 5.0])
        np.testing.assert_allclose(cov.p_x2_given_x1[1], [0.5, 0.5])
        np.testing.assert_array_equal(cov.counts, [[3, 1], [0, 0]])

    def test_validation(self):
        small = CategoricalSpec(k1=2, k2=2, n_actions=2)
        with pytest.raises(ValueError):
            fit_cov_model(context_log([], []), small)
        with pytest.raises(ValueError):
            CovModel(p_x2_given_x1=np.array([[0.9, 0.3]]), counts=np.array([[1, 1]]))
        with pytest.raises(ValueError):
            CovModel(p_x2_given_x1=np.array([[0.5, 0.5]]), counts=np.array([1, 1]))

    @pytest.mark.parametrize(
        "x1s, x2s, message",
        [
            ([0, 0, 0], [0, 1, 2], r"x2 out of range \[0, 2\)"),
            ([0, 1, 2], [0, 0, 0], r"x1 out of range \[0, 2\)"),
            ([0, 0], [0, -1], r"x2 out of range \[0, 2\)"),
        ],
    )
    def test_out_of_range_covariates_rejected(self, x1s, x2s, message):
        small = CategoricalSpec(k1=2, k2=2, n_actions=2)
        with pytest.raises(ValueError, match=message):
            fit_cov_model(context_log(x1s, x2s), small)

    def test_large_sample_concentration(self):
        gt = make_default_ground_truth(SPEC, seed=3)
        log, _, _ = run_day(gt, uniform_policy(SPEC), 400_000, 1, DayStream(3, 1, 0))
        cov = fit_cov_model(log, SPEC)
        assert np.max(np.abs(cov.p_x2_given_x1 - gt.p_x2_given_x1)) <= 0.01


def true_click_model(gt):
    """Saturated model whose coefficients are the environment's logits."""
    return FittedModel(
        feature_spec=FeatureSpec(("x1", "x2"), ("a",), gt.spec),
        beta=gt.click_logit.reshape(-1),
        target="click",
        training_day_range=(0, 0),
        n_train=0,
    )


def tiny_log():
    """Eight rows at x1=0 and three at x1=1; x1=2 is never seen.

    ====  ==  =  ====  ======
    x1    x2  a  rows  clicks
    ====  ==  =  ====  ======
    0     0   0  4     1
    0     1   0  2     1
    0     1   1  2     0
    1     0   0  3     1
    ====  ==  =  ====  ======
    """
    groups = [(0, 0, 0, 4, 1), (0, 1, 0, 2, 1), (0, 1, 1, 2, 0), (1, 0, 0, 3, 1)]
    x1, x2, a, rows, clicks = (np.array(col) for col in zip(*groups))
    n = int(rows.sum())
    return Log(
        day=np.zeros(n, dtype=np.int32),
        x1=np.repeat(x1, rows).astype(np.int32),
        x2=np.repeat(x2, rows).astype(np.int32),
        a=np.repeat(a, rows).astype(np.int32),
        propensity=np.full(n, 0.5),
        c=np.concatenate([np.arange(r) < k for r, k in zip(rows, clicks)]).astype(np.int8),
    )


TINY = CategoricalSpec(k1=3, k2=2, n_actions=2)


def tiny_fit():
    log = tiny_log()
    return fit(log, FeatureSpec(("x1", "x2"), ("a",), TINY)), fit_cov_model(log, TINY)


class TestBackdoorAdjust:
    def test_point_mass_mixture_degenerates_to_predict(self):
        gt = make_default_ground_truth(SPEC, seed=0)
        model = true_click_model(gt)
        point = np.zeros((SPEC.k1, SPEC.k2))
        point[:, 3] = 1.0
        cov = CovModel(p_x2_given_x1=point, counts=np.ones((SPEC.k1, SPEC.k2), dtype=np.int64))
        for a in range(SPEC.n_actions):
            assert backdoor_adjust(model, cov, 2, a).value == pytest.approx(
                float(predict(model, 2, 3, a)), abs=1e-15
            )

    def test_true_inputs_reproduce_interventional_ctr(self):
        gt = make_default_ground_truth(SPEC, seed=1)
        model = true_click_model(gt)
        cov = CovModel(
            p_x2_given_x1=gt.p_x2_given_x1,
            counts=np.ones((SPEC.k1, SPEC.k2), dtype=np.int64),
        )
        marg = marginal_click_prob(gt)
        for x1 in range(SPEC.k1):
            for a in range(SPEC.n_actions):
                est = backdoor_adjust(model, cov, x1, a)
                assert est.value == pytest.approx(marg[x1, a], abs=1e-12)
                assert est.support is None and est.gaps == () and math.isnan(est.se)

    def test_model_must_include_x2(self):
        gt = make_default_ground_truth(SPEC, seed=0)
        log, _, _ = run_day(gt, uniform_policy(SPEC), 20_000, 1, DayStream(0, 1, 0))
        blind = fit(log, FeatureSpec(("x1",), ("a",), SPEC))
        cov = fit_cov_model(log, SPEC)
        with pytest.raises(ValueError):
            backdoor_adjust(blind, cov, 0, 0)

    def test_cov_shape_must_match(self):
        gt = make_default_ground_truth(SPEC, seed=0)
        model = true_click_model(gt)
        cov = CovModel(p_x2_given_x1=np.full((5, 4), 0.25), counts=np.ones((5, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            backdoor_adjust(model, cov, 0, 0)

    def test_hand_computed_standard_error(self):
        """x1=0, a=0: weights (4.5/9, 4.5/9) = (1/2, 1/2), rates (1/4, 1/2),
        smoothed rates (2/6, 2/4) over n = (4, 2), N_x1 = 8:

        within  = 1/4 * (1/3 * 2/3) / 4 + 1/4 * (1/2 * 1/2) / 2 = 13/288
        between = (1/2 * 1/16 + 1/2 * 1/4 - (3/8)^2) / 8      = 1/512
        """
        model, cov = tiny_fit()
        est = backdoor_adjust(model, cov, 0, 0)
        assert est.value == pytest.approx(0.375, abs=1e-15)
        assert est.support == (4, 2)
        assert est.gaps == ()
        assert est.se == pytest.approx(math.sqrt(13 / 288 + 1 / 512), rel=1e-12)

    def test_gap_is_flagged_not_imputed(self):
        """x2=0 is seen at x1=0 but never with a=1: the adjustment would
        average in the unvisited subcell's default one half."""
        model, cov = tiny_fit()
        est = backdoor_adjust(model, cov, 0, 1)
        assert est.gaps == (0,)
        assert est.support == (0, 2)
        assert math.isnan(est.value) and math.isnan(est.se)

    def test_state_unseen_at_x1_keeps_smoothing_mass(self):
        model, cov = tiny_fit()
        est = backdoor_adjust(model, cov, 1, 0)
        assert est.gaps == ()
        assert est.support == (3, 0)
        assert est.value == pytest.approx(3.5 / 4 * 1 / 3 + 0.5 / 4 * 0.5, abs=1e-15)
        assert math.isfinite(est.se)

    def test_unseen_x1_is_all_gaps(self):
        model, cov = tiny_fit()
        est = backdoor_adjust(model, cov, 2, 0)
        assert est.gaps == (0, 1)
        assert math.isnan(est.value)

    def test_raw_row_oracle_agrees(self):
        model, cov = tiny_fit()
        tallies = subcell_tallies(tiny_log())
        for x1 in range(TINY.k1):
            for a in range(TINY.n_actions):
                est = backdoor_adjust(model, cov, x1, a)
                ref = adjustment_support(tallies, TINY.k2, x1, a)
                assert (est.gaps, est.support) == (ref["gaps"], ref["support"])
                if not est.gaps:
                    assert est.se == pytest.approx(ref["se"], rel=1e-12)


class TestGraphEstimateEquivalence:
    """The two logging graphs produce the estimator behaviour the
    admissibility verdicts predict: with no x2-to-action edge the naive
    per-cell rate and the adjusted estimate agree to sampling noise; with
    it they separate by more than the environment's confounding gap.
    Busy cells with a positivity gap have no adjusted estimate and are
    left out of the comparison, counted rather than averaged in.
    """

    @pytest.mark.parametrize("seed", [0, 1])
    def test_naive_matches_adjusted_only_on_base_graph(self, seed):
        gt = make_default_ground_truth(SPEC, seed=seed, min_gap=0.02)
        day1, _, _ = run_day(gt, uniform_policy(SPEC), 400_000, 1, DayStream(seed, 1, 0))
        results = {}
        for label, included in (("base", ("x1",)), ("aware", ("x1", "x2"))):
            deployed = epsilon_greedy(fit(day1, FeatureSpec(included, ("a",), SPEC)), 0.05)
            assert backdoor_admissible(
                base_click_dag(x2_to_action="x2" in included), "a", "c", {"x1"}
            ) is (label == "base")
            day2, _, _ = run_day(gt, deployed, 400_000, 2, DayStream(seed, 2, 0))
            full = fit(day2, FULL)
            cov = fit_cov_model(day2, SPEC)
            x1 = np.asarray(day2.x1)
            a = np.asarray(day2.a)
            c = np.asarray(day2.c)
            worst_sigmas, worst_abs, compared, gaps = 0.0, 0.0, 0, 0
            for i in range(SPEC.k1):
                for act in range(SPEC.n_actions):
                    mask = (x1 == i) & (a == act)
                    n = int(mask.sum())
                    if n < 500:
                        continue
                    est = backdoor_adjust(full, cov, i, act)
                    if est.gaps:
                        assert math.isnan(est.value)
                        gaps += 1
                        continue
                    naive = float(c[mask].mean())
                    se = np.sqrt(max(naive * (1.0 - naive), 1e-12) / n)
                    worst_sigmas = max(worst_sigmas, abs(naive - est.value) / se)
                    worst_abs = max(worst_abs, abs(naive - est.value))
                    compared += 1
            assert compared > 0
            results[label] = (worst_sigmas, worst_abs, gaps)
        assert results["base"][0] <= 3.0
        assert results["aware"][1] >= gt.gap
