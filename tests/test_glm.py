"""Logistic-model tests: closed-form MLE, prediction, likelihood, gradient."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confoundsim import (
    CategoricalSpec,
    DayStream,
    FeatureSpec,
    FittedModel,
    fit,
    make_default_ground_truth,
    prediction_table,
    run_day,
)
from confoundsim.glm import (
    TARGET_CLICK,
    TARGET_SALE_GIVEN_CLICK,
    fit_counts,
    predict,
    sum_tallies,
    tally,
)
from confoundsim.logs import Log
from confoundsim.policy import uniform_policy
from oracles import central_difference, fit_reference, gradient, log_likelihood, newton_fit

SPEC = CategoricalSpec(k1=5, k2=5, n_actions=10)
SMALL = CategoricalSpec(k1=2, k2=2, n_actions=2)

# Newton oracle agreement on the 3-of-10 cell, frozen:
LOGIT_3_OF_10 = -0.8472978603872036


def cell_log(clicks, impressions, x1=0, x2=0, a=0, day=0):
    """A log whose rows all hit one cell, with the given click count."""
    c = np.zeros(impressions, dtype=np.int8)
    c[:clicks] = 1
    n = impressions
    return Log(
        day=np.full(n, day, dtype=np.int32),
        x1=np.full(n, x1, dtype=np.int32),
        x2=np.full(n, x2, dtype=np.int32),
        a=np.full(n, a, dtype=np.int32),
        propensity=np.full(n, 0.5),
        c=c,
    )


def simulated_log(n=50_000, seed=0):
    gt = make_default_ground_truth(SPEC, seed=seed)
    log, _, _ = run_day(gt, uniform_policy(SPEC), n, 0, DayStream(seed, 0, 0))
    return gt, log


class TestClosedForm:
    def test_interior_cell_log_odds(self):
        model = fit(cell_log(3, 10), FeatureSpec(("x1",), ("a",), SMALL))
        idx = 0
        assert model.beta[idx] == pytest.approx(math.log(0.3 / 0.7), abs=1e-12)
        assert model.beta[idx] == pytest.approx(LOGIT_3_OF_10, abs=1e-12)

    def test_all_click_cell_clipped_high(self):
        model = fit(cell_log(10, 10), FeatureSpec(("x1",), ("a",), SMALL))
        assert model.beta[0] == 15.0

    def test_no_click_cell_clipped_low(self):
        model = fit(cell_log(0, 10), FeatureSpec(("x1",), ("a",), SMALL))
        assert model.beta[0] == -15.0

    def test_unvisited_cell_neutral(self):
        model = fit(cell_log(3, 10), FeatureSpec(("x1",), ("a",), SMALL))
        assert model.beta[1] == 0.0
        assert predict(model, 0, 0, 1) == 0.5

    def test_training_metadata(self):
        model = fit(cell_log(3, 10, day=4), FeatureSpec(("x1",), ("a",), SMALL))
        assert model.training_day_range == (4, 4)
        assert model.n_train == 10

    def test_empty_slice_rejected(self):
        with pytest.raises(ValueError):
            fit(cell_log(0, 0), FeatureSpec(("x1",), ("a",), SMALL))

    def test_cell_counts_recorded(self):
        model = fit(cell_log(3, 10, a=1), FeatureSpec(("x1",), ("a",), SMALL))
        np.testing.assert_array_equal(model.trials, [0, 10, 0, 0])
        np.testing.assert_array_equal(model.successes, [0, 3, 0, 0])

    def test_cell_counts_validated(self):
        fs = FeatureSpec(("x1",), ("a",), SMALL)
        with pytest.raises(ValueError):
            FittedModel(fs, np.zeros(4), TARGET_CLICK, (0, 0), 1, trials=[1, 0, 0, 0])
        with pytest.raises(ValueError):
            FittedModel(fs, np.zeros(4), TARGET_CLICK, (0, 0), 1, [1, 0, 0, 0], [2, 0, 0, 0])
        hand_built = FittedModel(fs, np.zeros(4), TARGET_CLICK, (0, 0), 0)
        assert hand_built.trials is None and hand_built.successes is None


class TestNewtonAgreement:
    def test_single_cell(self):
        model = fit(cell_log(3, 10), FeatureSpec(("x1",), ("a",), SMALL))
        oracle = newton_fit(cell_log(3, 10), ("x1",), ("a",))
        assert abs(model.beta[0] - oracle[(0, 0)]) <= 1e-8

    def test_simulated_log_every_cell(self):
        """Closed form matches per-cell Newton on a full simulated day."""
        _, log = simulated_log(n=20_000)
        fs = FeatureSpec(("x1", "x2"), ("a",), SPEC)
        model = fit(log, fs)
        oracle = newton_fit(log, ("x1", "x2"), ("a",))
        from confoundsim.features import encode

        for (x1, x2, a), logit in oracle.items():
            assert abs(model.beta[encode(fs, x1, x2, a)] - logit) <= 1e-8


class TestPredict:
    def test_zero_beta_is_half(self):
        fs = FeatureSpec(("x1",), ("a",), SMALL)
        model = FittedModel(fs, np.zeros(4), TARGET_CLICK, (0, 0), 0)
        assert predict(model, 1, 0, 1) == 0.5

    def test_saturated_identity(self):
        """Fitted predictions equal empirical cell rates on interior cells."""
        _, log = simulated_log(n=50_000)
        fs = FeatureSpec(("x1", "x2"), ("a",), SPEC)
        model = fit(log, fs)
        idx = np.asarray(
            [SPEC.k2 * SPEC.n_actions, SPEC.n_actions, 1]
        ) @ np.vstack([log.x1, log.x2, log.a])
        counts = np.bincount(idx, minlength=250)
        clicks = np.bincount(idx, weights=log.c.astype(float), minlength=250)
        table = prediction_table(model).reshape(-1)
        interior = (counts > 0) & (clicks > 0) & (clicks < counts)
        rates = np.divide(clicks, counts, out=np.zeros_like(clicks), where=counts > 0)
        assert np.max(np.abs(table[interior] - rates[interior])) <= 1e-6

    def test_excluded_covariate_invariance(self):
        _, log = simulated_log(n=20_000)
        model = fit(log, FeatureSpec(("x1",), ("a",), SPEC))
        for x2 in range(SPEC.k2):
            assert predict(model, 2, x2, 5) == predict(model, 2, 0, 5)

    def test_monotone_in_clicks(self):
        fs = FeatureSpec(("x1",), ("a",), SMALL)
        low = predict(fit(cell_log(3, 10), fs), 0, 0, 0)
        high = predict(fit(cell_log(4, 10), fs), 0, 0, 0)
        assert high > low

    def test_probabilities_inside_unit_interval(self):
        model = fit(cell_log(10, 10), FeatureSpec(("x1",), ("a",), SMALL))
        p = predict(model, 0, 0, 0)
        assert 0.0 < p < 1.0


class TestSaleTarget:
    def test_click_filtering(self):
        n = 10
        log = Log(
            day=np.zeros(n, dtype=np.int32),
            x1=np.zeros(n, dtype=np.int32),
            x2=np.zeros(n, dtype=np.int32),
            a=np.zeros(n, dtype=np.int32),
            propensity=np.full(n, 0.5),
            c=np.asarray([1, 1, 1, 1, 0, 0, 0, 0, 0, 0], dtype=np.int8),
            s=np.asarray([1, 1, 1, 0, -1, -1, -1, -1, -1, -1], dtype=np.int8),
        )
        model = fit(log, FeatureSpec(("x1",), ("a",), SMALL), target=TARGET_SALE_GIVEN_CLICK)
        assert model.n_train == 4
        assert model.beta[0] == pytest.approx(math.log(3.0), abs=1e-12)

    def test_sales_required(self):
        with pytest.raises(ValueError):
            fit(cell_log(3, 10), FeatureSpec(("x1",), ("a",), SMALL), target=TARGET_SALE_GIVEN_CLICK)


class TestLikelihoodAndGradient:
    def test_single_record_log_half(self):
        fs = FeatureSpec(("x1",), ("a",), SMALL)
        model = FittedModel(fs, np.zeros(4), TARGET_CLICK, (0, 0), 0)
        assert log_likelihood(model, cell_log(1, 1)) == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_gradient_zero_at_fit(self):
        _, log = simulated_log(n=20_000)
        fs = FeatureSpec(("x1", "x2"), ("a",), SPEC)
        model = fit(log, fs)
        g = gradient(model, log)
        interior = (np.abs(model.beta) < 15.0) & (model.beta != 0.0)
        assert np.max(np.abs(g[interior])) <= 1e-8

    def test_gradient_matches_finite_differences(self):
        fs = FeatureSpec(("x1",), ("a",), SMALL)
        rng = np.random.default_rng(7)
        beta = rng.uniform(-1.5, 1.5, size=4)
        log = cell_log(3, 10)
        log = Log.concat([log, cell_log(5, 8, a=1)])
        model = FittedModel(fs, beta, TARGET_CLICK, (0, 0), 18)

        def ll(b):
            return log_likelihood(FittedModel(fs, b, TARGET_CLICK, (0, 0), 18), log)

        numeric = central_difference(ll, beta, step=1e-5)
        analytic = gradient(model, log)
        scale = np.maximum(np.abs(numeric), 1.0)
        assert np.max(np.abs(analytic - numeric) / scale) <= 1e-5

    def test_likelihood_increases_at_fit(self):
        """The fitted model's likelihood is at least any other model's."""
        log = Log.concat([cell_log(3, 10), cell_log(5, 8, a=1)])
        fs = FeatureSpec(("x1",), ("a",), SMALL)
        fitted = fit(log, fs)
        best = log_likelihood(fitted, log)
        rng = np.random.default_rng(0)
        for _ in range(10):
            other = FittedModel(fs, rng.uniform(-2, 2, 4), TARGET_CLICK, (0, 0), 18)
            assert log_likelihood(other, log) <= best + 1e-12


class TestSerialization:
    def test_cap_enforced_on_construction(self):
        fs = FeatureSpec(("x1",), ("a",), SMALL)
        with pytest.raises(ValueError):
            FittedModel(fs, np.full(4, 16.0), TARGET_CLICK, (0, 0), 0)


COUNT_SPECS = (
    SMALL,
    CategoricalSpec(k1=3, k2=4, n_actions=5),
    CategoricalSpec(k1=2, k2=3, n_actions=2, n_decisions=3),
)
COVARIATE_SUBSETS = ((), ("x1",), ("x2",), ("x1", "x2"))


def random_log(spec, day_sizes, with_sales, with_d, seed):
    """A day-ordered log of uniform random rows, ``day_sizes[i]`` rows on day i."""
    rng = np.random.default_rng(seed)
    n = sum(day_sizes)
    c = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int8)
    s = None
    if with_sales:
        s = np.where(c == 1, (rng.random(n) < 0.5).astype(np.int8), np.int8(-1))
    return Log(
        day=np.repeat(np.arange(len(day_sizes), dtype=np.int32), day_sizes),
        x1=rng.integers(0, spec.k1, n, dtype=np.int32),
        x2=rng.integers(0, spec.k2, n, dtype=np.int32),
        a=rng.integers(0, spec.n_actions, n, dtype=np.int32),
        propensity=np.full(n, 0.5),
        c=c,
        d=rng.integers(0, spec.n_decisions, n, dtype=np.int32) if with_d else None,
        s=s,
    )


def outcome(route):
    """What a fit route returns, or the message of the ValueError it raises."""
    try:
        return route()
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same_fit(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert got.beta.tobytes() == want.beta.tobytes()
    np.testing.assert_array_equal(got.trials, want.trials)
    np.testing.assert_array_equal(got.successes, want.successes)
    assert (got.n_train, got.training_day_range) == (want.n_train, want.training_day_range)
    assert (got.feature_spec, got.target) == (want.feature_spec, want.target)


class TestCountRouteMatchesRowRoute:
    """fit (tally, then fit_counts) reproduces the row route of
    ``oracles.fit_reference`` bit for bit, errors included."""

    @settings(max_examples=200, deadline=None)
    @given(
        spec=st.sampled_from(COUNT_SPECS),
        day_sizes=st.lists(st.integers(1, 60), min_size=1, max_size=4),
        with_sales=st.booleans(),
        included=st.sampled_from(COVARIATE_SUBSETS),
        action_factors=st.sampled_from((("a",), ("d",), ("a", "d"))),
        target=st.sampled_from((TARGET_CLICK, TARGET_SALE_GIVEN_CLICK)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_matches_reference(
        self, spec, day_sizes, with_sales, included, action_factors, target, seed
    ):
        with_d = spec.n_decisions is not None
        if not with_d:
            action_factors = ("a",)
        fs = FeatureSpec(included, action_factors, spec)
        log = random_log(spec, day_sizes, with_sales, with_d, seed)
        want = outcome(lambda: fit_reference(log, fs, target))
        assert_same_fit(outcome(lambda: fit(log, fs, target)), want)
        # Tallies of day slices add up to the tally of the whole log.
        days = sum_tallies(tally(log.day_slice(day), spec) for day in range(len(day_sizes)))
        assert_same_fit(outcome(lambda: fit_counts(fs, days, target)), want)

    @pytest.mark.parametrize(
        "make_log,features,target",
        [
            (lambda: cell_log(0, 0), ("x1",), TARGET_CLICK),
            (lambda: cell_log(3, 10), ("x1",), TARGET_SALE_GIVEN_CLICK),
            (lambda: Log(**{**cell_log(0, 10).__dict__, "s": np.full(10, -1, np.int8)}), ("x1",), TARGET_SALE_GIVEN_CLICK),
            (lambda: cell_log(3, 10, x1=2), ("x1",), TARGET_CLICK),
            (lambda: cell_log(3, 10, x2=-1), ("x1", "x2"), TARGET_CLICK),
            (lambda: cell_log(3, 10, a=5), (), TARGET_CLICK),
        ],
        ids=["empty", "no-sales", "no-clicks", "x1-range", "x2-range", "a-range"],
    )
    def test_errors_match_reference(self, make_log, features, target):
        log = make_log()
        fs = FeatureSpec(features, ("a",), SMALL)
        want = outcome(lambda: fit_reference(log, fs, target))
        assert want.startswith("ValueError: ")
        assert outcome(lambda: fit(log, fs, target)) == want

    def test_missing_decision_column_matches_reference(self):
        spec = COUNT_SPECS[2]
        log = random_log(spec, [20], with_sales=False, with_d=False, seed=0)
        fs = FeatureSpec(("x1",), ("a", "d"), spec)
        want = outcome(lambda: fit_reference(log, fs))
        assert want == "ValueError: action factor 'd' is required by this feature spec"
        assert outcome(lambda: fit(log, fs)) == want
