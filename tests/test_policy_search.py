"""Policy-search tests: exact objective/gradient oracles and the ascent loop."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confoundsim import (
    CategoricalSpec,
    FeatureSpec,
    FittedModel,
    ScenarioConfig,
    SearchConfig,
    estimate_gradient,
    exact_objective,
    make_default_ground_truth,
    reinforce_optimize,
    run_day,
)
from confoundsim.environment import GroundTruth
from confoundsim.features import context_count
from confoundsim.fixtures import TWO_DECISION_SEEDS, TWO_DECISION_SPEC
from confoundsim.glm import TARGET_CLICK, fit_counts, prediction_table, tally
from confoundsim.numerics import _guide, softmax_rows
from confoundsim.policy import FactoredPolicyParams, uniform_policy
from confoundsim.policy_search import BASELINES, BLOCK_SAMPLES, _draw_cells, _draw_columns
from confoundsim.scenarios import default_two_decision_search
from confoundsim.streams import DayStream
from oracles import (
    best_deterministic_factored,
    central_difference,
    enum_factored_objective,
    estimate_gradient_reference,
    exact_gradient,
    inverse_cdf,
    reinforce_reference,
)

SPEC = CategoricalSpec(k1=2, k2=2, n_actions=2, n_decisions=2)

# Frozen hand instance: a dense 16-cell model, skewed covariate weights,
# and interior softmax logits (action head on x1, decision head on x2).
BETA = np.array(
    [0.1, -0.3, 0.7, 0.2, -0.5, 0.4, 0.0, 0.9,
     0.6, -0.1, 0.3, -0.7, 0.8, 0.25, -0.4, 0.55]
)
XI = np.array([[0.2, -0.1], [0.0, 0.5]])
GAMMA = np.array([[-0.4, 0.1], [0.3, 0.3]])
HAND_OBJECTIVE = 0.5224478395390816


def hand_model():
    return FittedModel(FeatureSpec(("x1", "x2"), ("a", "d"), SPEC), BETA, "click", (0, 0), 0)


def hand_truth():
    return GroundTruth(
        spec=SPEC,
        p_x1=np.array([0.5, 0.5]),
        p_x2_given_x1=np.array([[0.8, 0.2], [0.4, 0.6]]),
        click_logit=np.zeros((2, 2, 2, 2)),
    )


def hand_params(xi=XI, gamma=GAMMA):
    return FactoredPolicyParams(SPEC, ("x1",), ("x2",), xi, gamma)


def flat_model():
    return FittedModel(
        FeatureSpec(("x1", "x2"), ("a", "d"), SPEC), np.zeros(16), "click", (0, 0), 0
    )


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.learning_rate == 0.1
        assert cfg.iterations == 2000
        assert cfg.batch_size == 1024
        assert cfg.baseline == "running-mean"

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            SearchConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            SearchConfig(iterations=-1)
        SearchConfig(iterations=0)
        with pytest.raises(ValueError):
            SearchConfig(batch_size=0)
        with pytest.raises(ValueError):
            SearchConfig(baseline="median")
        with pytest.raises(ValueError):
            SearchConfig(baseline_decay=1.0)
        with pytest.raises(ValueError):
            SearchConfig(seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("learning_rate", float("-inf")),
            ("iterations", 1.5),
            ("iterations", 2.0),
            ("batch_size", 2.5),
            ("batch_size", 8.0),
            ("seed", 1.5),
            ("learning_rate", "a"),
            ("learning_rate", True),
            ("baseline_decay", "a"),
            ("iterations", True),
            ("batch_size", True),
            ("seed", False),
            ("learning_rate", 0.0),
            ("iterations", -1),
            ("batch_size", 0),
            ("baseline_decay", -0.1),
            ("baseline_decay", 1.0),
            ("baseline_decay", True),
            ("seed", -1),
            ("seed", None),
        ],
    )
    def test_rejects_non_finite_rate_and_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: value})

    def test_accepts_numpy_integer_counts(self):
        cfg = SearchConfig(iterations=np.int64(3), batch_size=np.int32(5))
        assert (cfg.iterations, cfg.batch_size) == (3, 5)


@st.composite
def cdf_draws(draw):
    """Nondecreasing CDF rows (ties included), sample rows, and uniforms
    that are fresh, exactly on an entry of their row, or at or above the
    row's last entry."""
    n_rows = draw(st.integers(1, 4))
    n_cols = draw(st.integers(2, 11))
    batch = draw(st.integers(1, 40))
    entries = draw(st.lists(st.floats(0.0, 1.0), min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    cdf = np.sort(np.array(entries).reshape(n_rows, n_cols), axis=1)
    rows = np.array(draw(st.lists(st.integers(0, n_rows - 1), min_size=batch, max_size=batch)))
    u = np.array([
        draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(cdf[r].tolist()), st.floats(cdf[r, -1], 1.0)))
        for r in rows
    ])
    return cdf, rows, u


class TestDrawColumns:
    """The search's action and decision draws count the entries of the
    CDF rows below each uniform, without the last entry; on nondecreasing
    rows that is ``inverse_cdf``'s capped count."""

    @settings(max_examples=100, deadline=None)
    @given(case=cdf_draws())
    @example(case=(np.array([[0.4, 0.9], [0.0, 0.0]]), np.array([0, 1, 0, 1]), np.array([0.4, 0.0, 0.95, 0.5])))
    @example(case=(np.array([[0.1, 0.6, 0.9]]), np.array([0]), np.array([0.6])))
    def test_matches_inverse_cdf(self, case):
        cdf, rows, u = case
        drawn = _draw_columns(cdf, rows, u)
        expected = inverse_cdf(cdf[rows], u)
        assert drawn.dtype == expected.dtype
        assert drawn.tolist() == expected.tolist()

    def test_ties_and_cap(self):
        cdf = np.array([[0.25, 0.5, 1.0 - 2.0**-52], [0.5, 1.0 - 2.0**-52, 1.0 - 2.0**-52]])
        u = np.array([0.25, 0.2500001, 0.75, 1.0 - 2.0**-53, 0.5, 1.0 - 2.0**-53])
        rows = np.array([0, 0, 0, 0, 1, 1])
        assert _draw_columns(cdf, rows, u).tolist() == [0, 1, 2, 2, 0, 2]


# Largest double below 1.0: the top of numpy's uniform range, K_TOP * 2**-53.
U_TOP = 1.0 - 2.0**-53
K_TOP = 2**53 - 1


def grid_neighbours(u):
    """The integer uniforms next to each double of ``u``: floor and ceil of
    ``u * 2**53``, below 2**53, sorted and without repeats."""
    scaled = np.asarray(u, dtype=np.float64) * 2.0**53
    k = np.unique(np.concatenate([np.floor(scaled), np.ceil(scaled)]))
    return k[k < 2**53].astype(np.int64)


@st.composite
def covariate_draws(draw):
    """Covariate weights with zero-weight cells, as dyadic counts k/256
    (every CDF entry on a guide bucket edge) or as arbitrary shares, and
    integer uniforms next to 0.0, to each CDF entry and its neighbours, to
    U_TOP, and to fresh doubles."""
    cells = draw(st.integers(2, 30))
    counts = np.array(draw(st.lists(st.integers(0, 8), min_size=cells, max_size=cells)), dtype=float)
    if draw(st.booleans()):
        # Counts out of 256: every CDF entry is a guide bucket edge.
        counts[draw(st.integers(0, cells - 1))] += 256.0 - counts.sum()
        weights = counts / 256.0
    else:
        counts[draw(st.integers(0, cells - 1))] += 1.0
        weights = counts / counts.sum()
    cdf = np.cumsum(weights)
    values = {0.0, U_TOP}
    for e in cdf:
        values |= {e, np.nextafter(e, 0.0), np.nextafter(e, 2.0)}
    fresh = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    k = grid_neighbours(sorted(values | set(fresh)))
    return cdf, k[np.random.default_rng(cells).permutation(len(k))]


class TestDrawCells:
    """The search draws each covariate cell through the row sampler's guide
    table; the draw is the capped ``searchsorted(side="right")`` of the
    cumulative covariate weights."""

    @settings(max_examples=100, deadline=None)
    @given(case=covariate_draws())
    @example(case=(np.cumsum([0.25, 0.0, 0.0, 0.5, 0.25]), np.array([0, 2**51, 3 * 2**51, K_TOP, 2**52])))
    def test_matches_searchsorted(self, case):
        cdf, k = case
        cells = len(cdf)
        drawn = _draw_cells(_guide(cdf[None, :-1], inclusive=True), k)
        expected = np.minimum(np.searchsorted(cdf, k * 2.0**-53, side="right"), cells - 1)
        assert drawn.tolist() == expected.tolist()

    def test_block_shape(self):
        cdf = np.cumsum([0.5, 0.0, 0.25, 0.25])
        u = np.array([[0.0, 0.5, 0.75], [U_TOP, 0.4999, 0.25]])
        # 0.4999 lies between two integer uniforms; both draw cell 0.
        for grid in (np.floor, np.ceil):
            k = grid(u * 2.0**53).astype(np.int64)
            assert _draw_cells(_guide(cdf[None, :-1], inclusive=True), k).tolist() == [[0, 2, 3], [3, 0, 0]]


class TestExactObjective:
    def test_flat_model_scores_half_for_any_policy(self):
        assert exact_objective(flat_model(), hand_params(), hand_truth()) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_hand_instance_matches_enumeration(self):
        params = hand_params()
        value = exact_objective(hand_model(), params, hand_truth())
        assert value == pytest.approx(HAND_OBJECTIVE, abs=1e-15)
        grid_a, grid_d = params.context_grids()
        oracle = enum_factored_objective(
            prediction_table(hand_model()),
            hand_truth().covariate_weights,
            softmax_rows(XI),
            softmax_rows(GAMMA),
            grid_a,
            grid_d,
        )
        assert value == pytest.approx(oracle, abs=1e-15)

    def test_near_deterministic_policy_reads_one_cell(self):
        gt = GroundTruth(
            spec=SPEC,
            p_x1=np.array([1.0, 0.0]),
            p_x2_given_x1=np.array([[1.0, 0.0], [0.5, 0.5]]),
            click_logit=np.zeros((2, 2, 2, 2)),
        )
        params = hand_params(
            xi=np.array([[30.0, -30.0], [0.0, 0.0]]),
            gamma=np.array([[-30.0, 30.0], [0.0, 0.0]]),
        )
        model = hand_model()
        expected = float(prediction_table(model)[0, 0, 0, 1])
        assert exact_objective(model, params, gt) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_joint_argmax(self):
        model = hand_model()
        gt = hand_truth()
        table = prediction_table(model)
        joint_best = float(np.einsum("ij,ij->", gt.covariate_weights, table.max(axis=(2, 3))))
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = hand_params(
                xi=rng.normal(size=(2, 2), scale=3.0), gamma=rng.normal(size=(2, 2), scale=3.0)
            )
            assert exact_objective(model, params, gt) <= joint_best + 1e-12

    def test_spec_mismatch_rejected(self):
        other = CategoricalSpec(k1=2, k2=2, n_actions=3, n_decisions=2)
        params = FactoredPolicyParams(other, ("x1",), ("x2",), np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            exact_objective(hand_model(), params, hand_truth())


def pack(params):
    return np.concatenate([params.action_logits.ravel(), params.decision_logits.ravel()])


def unpack(vector):
    return hand_params(xi=vector[:4].reshape(2, 2), gamma=vector[4:].reshape(2, 2))


class TestExactGradient:
    def test_flat_reward_has_zero_gradient(self):
        g_a, g_d = exact_gradient(flat_model(), hand_params(), hand_truth())
        np.testing.assert_allclose(g_a, 0.0, atol=1e-15)
        np.testing.assert_allclose(g_d, 0.0, atol=1e-15)

    def test_matches_central_differences(self):
        model, gt = hand_model(), hand_truth()

        def f(vector):
            return exact_objective(model, unpack(vector), gt)

        numeric = central_difference(f, pack(hand_params()))
        g_a, g_d = exact_gradient(model, hand_params(), gt)
        analytic = np.concatenate([g_a.ravel(), g_d.ravel()])
        assert np.linalg.norm(analytic - numeric) <= 1e-5 * max(1.0, np.linalg.norm(analytic))

    def test_sampled_estimator_is_unbiased(self):
        """Mean of one-batch estimates stays within 4 standard errors of
        the exact gradient per coordinate, at one million total samples,
        with and without a fixed baseline shift."""
        model, gt = hand_model(), hand_truth()
        params = hand_params()
        g_a, g_d = exact_gradient(model, params, gt)
        exact = np.concatenate([g_a.ravel(), g_d.ravel()])
        for baseline in (0.0, 0.3):
            rng = np.random.default_rng(11)
            batches = []
            for _ in range(100):
                e_a, e_d, _ = estimate_gradient(
                    model, params, gt, rng, 10_000, baseline_value=baseline
                )
                batches.append(np.concatenate([e_a.ravel(), e_d.ravel()]))
            batches = np.asarray(batches)
            mean = batches.mean(axis=0)
            sem = batches.std(axis=0, ddof=1) / np.sqrt(len(batches))
            assert np.all(np.abs(mean - exact) <= 4 * sem + 1e-12)

    def test_estimator_validation(self):
        with pytest.raises(ValueError):
            estimate_gradient(
                hand_model(), hand_params(), hand_truth(), np.random.default_rng(0), 0
            )

    @pytest.mark.parametrize("batch_size", [True, 2.5, np.float64(3.0)])
    def test_estimator_rejects_non_integer_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            estimate_gradient(
                hand_model(), hand_params(), hand_truth(), np.random.default_rng(0), batch_size
            )


class TestReinforceOptimize:
    def test_zero_iterations_is_identity(self):
        final = reinforce_optimize(
            hand_model(), hand_params(), SearchConfig(iterations=0), hand_truth()
        )
        np.testing.assert_array_equal(final.action_logits, XI)
        np.testing.assert_array_equal(final.decision_logits, GAMMA)

    def test_converges_to_best_deterministic_factored(self):
        model, gt = hand_model(), hand_truth()
        init = hand_params(xi=np.zeros((2, 2)), gamma=np.zeros((2, 2)))
        grid_a, grid_d = init.context_grids()
        best = best_deterministic_factored(
            prediction_table(model), gt.covariate_weights, grid_a, grid_d, 2, 2
        )
        final = reinforce_optimize(
            model, init, SearchConfig(learning_rate=1.0, iterations=4000, seed=0), gt
        )
        value = exact_objective(model, final, gt)
        assert best - value <= 2e-3
        assert value <= best + 1e-12

    def test_never_ends_below_start(self):
        model, gt = hand_model(), hand_truth()
        for seed in range(3):
            init = hand_params()
            final = reinforce_optimize(
                model, init, SearchConfig(iterations=200, seed=seed), gt
            )
            assert exact_objective(model, final, gt) >= exact_objective(model, init, gt) - 1e-6

    def test_destructive_step_size_raises(self):
        """A one-sample batch at an absurd step size slams the policy onto
        whatever corner that sample favoured; seed 2's corner scores below
        the starting objective, tripping the no-regression guard."""
        with pytest.raises(RuntimeError, match="objective"):
            reinforce_optimize(
                hand_model(),
                hand_params(),
                SearchConfig(
                    learning_rate=1e8, iterations=1, batch_size=1, baseline="none", seed=2
                ),
                hand_truth(),
            )

    def test_trace_is_deterministic(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            reinforce_optimize(
                hand_model(),
                hand_params(),
                SearchConfig(iterations=50, seed=3, trace_path=str(path)),
                hand_truth(),
            )
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        lines = first.decode().splitlines()
        assert lines[0] == "iteration,exact_objective,gradient_norm"
        assert len(lines) == 51
        assert lines[1].startswith("0,")


CONTRACT_SPEC = CategoricalSpec(k1=3, k2=2, n_actions=3, n_decisions=2)
CONTEXTS = [(), ("x1",), ("x2",), ("x1", "x2")]
# Iterations per block of draws at the study's batch size.
BLOCK = BLOCK_SAMPLES // 1024


def contract_instance(action_context, decision_context):
    """A random dense model, skewed covariate weights and interior logits."""
    spec = CONTRACT_SPEC
    rng = np.random.default_rng(7)
    model = FittedModel(
        FeatureSpec(("x1", "x2"), ("a", "d"), spec), rng.normal(size=36), "click", (0, 0), 0
    )
    gt = GroundTruth(
        spec=spec,
        p_x1=rng.dirichlet(np.ones(3)),
        p_x2_given_x1=rng.dirichlet(np.ones(2), size=3),
        click_logit=np.zeros((3, 2, 3, 2)),
    )
    init = FactoredPolicyParams(
        spec,
        action_context,
        decision_context,
        rng.normal(size=(context_count(action_context, spec), 3)),
        rng.normal(size=(context_count(decision_context, spec), 2)),
    )
    return model, init, gt


def search_outcome(search, model, init, config, gt, trace_path):
    """Final logit bytes (or the guard's message) and the trace bytes."""
    try:
        final = search(model, init, config, gt)
        result = (final.action_logits.tobytes(), final.decision_logits.tobytes())
    except RuntimeError as exc:
        result = str(exc)
    return result, trace_path.read_bytes() if trace_path is not None else None


class TestByteContract:
    """The search must reproduce the per-iteration reference loop bit for
    bit: the frozen two-decision verdicts and the benchmark digests rest on
    the final logits."""

    @pytest.mark.parametrize("baseline", BASELINES)
    @pytest.mark.parametrize("decision_context", CONTEXTS)
    @pytest.mark.parametrize("action_context", CONTEXTS)
    def test_final_logits_match_reference(self, tmp_path, action_context, decision_context, baseline):
        model, init, gt = contract_instance(action_context, decision_context)
        for batch_size, iterations, traced in itertools.product((1, 7, 1024), (0, 1, 50), (False, True)):
            outcomes = []
            for name, search in (("search", reinforce_optimize), ("reference", reinforce_reference)):
                path = tmp_path / f"{name}.csv" if traced else None
                config = SearchConfig(
                    iterations=iterations,
                    batch_size=batch_size,
                    baseline=baseline,
                    seed=5,
                    trace_path=None if path is None else str(path),
                )
                outcomes.append(search_outcome(search, model, init, config, gt, path))
            assert outcomes[0] == outcomes[1], (batch_size, iterations, traced)

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize(
        "batch_size,iterations",
        [(1024, n) for n in (BLOCK, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1)] + [(BLOCK_SAMPLES + 1, 3)],
    )
    def test_block_edges_match_reference(self, tmp_path, batch_size, iterations, traced):
        """Searches that end just inside, at, or just past a block of
        draws, and a batch too large to share a block with another."""
        model, init, gt = contract_instance(("x1",), ("x2",))
        outcomes = []
        for name, search in (("search", reinforce_optimize), ("reference", reinforce_reference)):
            path = tmp_path / f"{name}.csv" if traced else None
            config = SearchConfig(
                iterations=iterations,
                batch_size=batch_size,
                seed=11,
                trace_path=None if path is None else str(path),
            )
            outcomes.append(search_outcome(search, model, init, config, gt, path))
        assert isinstance(outcomes[0][0], tuple)
        assert outcomes[0] == outcomes[1]
        if traced:
            rows = outcomes[0][1].decode().splitlines()[1:]
            assert [int(row.split(",")[0]) for row in rows] == list(range(iterations))

    @pytest.mark.parametrize("baseline_value", [0.0, 0.3])
    @pytest.mark.parametrize("contexts", list(itertools.product(CONTEXTS, CONTEXTS)))
    def test_estimate_gradient_matches_reference(self, contexts, baseline_value):
        model, params, gt = contract_instance(*contexts)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        g_a, g_d, mean = estimate_gradient(model, params, gt, rng, 1024, baseline_value)
        r_a, r_d, r_mean = estimate_gradient_reference(model, params, gt, ref_rng, 1024, baseline_value)
        assert (g_a.tobytes(), g_d.tobytes(), mean) == (r_a.tobytes(), r_d.tobytes(), r_mean)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("traced", [False, True])
    def test_two_decision_scale_matches_reference(self, tmp_path, traced):
        """The study's own shapes: ``TWO_DECISION_SPEC`` (a 10-action head),
        the joint model a frozen seed fits on a small uniform day, the
        independent fits as the start, and the study's step size."""
        seed = TWO_DECISION_SEEDS[0]
        spec = TWO_DECISION_SPEC
        gt = make_default_ground_truth(spec, seed, ScenarioConfig().min_gap)
        log, _, _ = run_day(gt, uniform_policy(spec), 20_000, 0, DayStream(seed, 0, 0))
        counts = tally(log, spec)
        model = fit_counts(FeatureSpec(("x1", "x2"), ("a", "d"), spec), counts, target=TARGET_CLICK)
        heads = [
            fit_counts(FeatureSpec(context, (factor,), spec), counts, target=TARGET_CLICK).beta
            for context, factor in ((("x1",), "a"), (("x2",), "d"))
        ]
        init = FactoredPolicyParams(
            spec, ("x1",), ("x2",), heads[0].reshape(spec.k1, spec.n_actions),
            heads[1].reshape(spec.k2, spec.n_decisions),
        )
        outcomes = []
        for name, search in (("search", reinforce_optimize), ("reference", reinforce_reference)):
            path = tmp_path / f"{name}.csv" if traced else None
            config = replace(
                default_two_decision_search(seed, None if path is None else str(path)),
                iterations=100,
                batch_size=1024,
            )
            outcomes.append(search_outcome(search, model, init, config, gt, path))
        assert isinstance(outcomes[0][0], tuple)
        assert outcomes[0] == outcomes[1]
