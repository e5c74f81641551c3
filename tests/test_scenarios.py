"""Scenario tests: single-day simulation and the four studies."""

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confoundsim.scenarios
from confoundsim import (
    CategoricalSpec,
    DayStream,
    ScenarioConfig,
    make_default_ground_truth,
    make_separable_ground_truth,
    run_day,
    scenario_ab_test,
    scenario_click_sale,
    scenario_feature_engineering,
    scenario_two_decision,
)
from confoundsim.environment import GroundTruth
from confoundsim.fixtures import (
    CLICK_SALE_MARGIN,
    CLICK_SALE_SEEDS,
    FIXTURE_SEEDS,
    SEPARABLE_SEEDS,
    TWO_DECISION_MARGIN,
    TWO_DECISION_SEEDS,
    TWO_DECISION_SPEC,
)
from confoundsim.features import FeatureSpec, encode
from confoundsim.glm import tally
from confoundsim.logs import Log
from confoundsim.numerics import GUIDE_BUCKETS, _draw, sigmoid
from confoundsim.policy import Policy, greedy_policy, uniform_policy
from confoundsim.scenarios import (
    CHUNK_ROWS,
    LOG_COLUMNS,
    _ab_tests,
    _column_dtypes,
    _day_tables,
    _empty_columns,
    _simulate_chunk,
)
from conftest import all_reports, ndjson_text
from oracles import inverse_cdf, simulate_chunk_reference

SPEC = CategoricalSpec(k1=5, k2=5, n_actions=10)
DESK = ScenarioConfig(samples_per_day=20_000)


def flat_truth():
    return GroundTruth(
        spec=SPEC,
        p_x1=np.full(5, 0.2),
        p_x2_given_x1=np.full((5, 5), 0.2),
        click_logit=np.zeros((5, 5, 10)),
    )


class TestScenarioConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("samples_per_day", True),
            ("samples_per_day", 2000.5),
            ("samples_per_day", 2000.0),
            ("samples_per_day", 0),
            ("days", True),
            ("days", 6.0),
            ("seed", 1.5),
            ("seed", False),
            ("ab_start_day", 2.0),
            ("ab_start_day", True),
            ("epsilon", "a"),
            ("epsilon", True),
            ("epsilon", float("nan")),
            ("epsilon", -0.1),
            ("min_gap", "a"),
            ("min_gap", False),
            ("min_gap", 0.3),
        ],
    )
    def test_rejects_bools_and_non_numbers(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value})

    def test_accepts_numpy_scalars(self):
        cfg = ScenarioConfig(samples_per_day=np.int64(100), days=np.int32(2), epsilon=np.float64(0.1))
        assert (cfg.samples_per_day, cfg.days, cfg.epsilon) == (100, 2, 0.1)


class TestRunDay:
    def test_uniform_on_flat_truth(self):
        gt = flat_truth()
        n = 50_000
        log, report, _ = run_day(gt, uniform_policy(SPEC), n, 0, DayStream(0, 0, 0))
        assert report.expected_ctr == pytest.approx(0.5, abs=1e-15)
        assert report.binomial_se == pytest.approx(np.sqrt(0.25 / n), abs=1e-15)
        assert abs(report.empirical_ctr - 0.5) <= 4 * report.binomial_se
        assert len(log) == n
        np.testing.assert_allclose(log.propensity, 0.1)

    def test_expected_ctr_is_sample_size_free(self):
        gt = make_default_ground_truth(SPEC, seed=0, min_gap=0.02)
        _, small, _ = run_day(gt, uniform_policy(SPEC), 1_000, 0, DayStream(0, 0, 0))
        _, large, _ = run_day(gt, uniform_policy(SPEC), 64_000, 0, DayStream(0, 0, 0))
        assert small.expected_ctr == large.expected_ctr
        assert small.oracle_ctr == large.oracle_ctr

    def test_byte_identical_rerun(self):
        gt = make_default_ground_truth(SPEC, seed=1, min_gap=0.02)
        a, _, _ = run_day(gt, uniform_policy(SPEC), 30_000, 2, DayStream(1, 2, 0))
        b, _, _ = run_day(gt, uniform_policy(SPEC), 30_000, 2, DayStream(1, 2, 0))
        assert ndjson_text(a) == ndjson_text(b)

    def test_worker_count_does_not_change_the_log(self):
        gt = make_default_ground_truth(SPEC, seed=1, min_gap=0.02)
        n = CHUNK_ROWS + 1234
        serial, _, _ = run_day(gt, uniform_policy(SPEC), n, 0, DayStream(1, 0, 0), workers=1)
        threaded, _, _ = run_day(gt, uniform_policy(SPEC), n, 0, DayStream(1, 0, 0), workers=4)
        numpy_count, _, _ = run_day(gt, uniform_policy(SPEC), n, 0, DayStream(1, 0, 0), workers=np.int64(2))
        assert ndjson_text(serial) == ndjson_text(threaded) == ndjson_text(numpy_count)

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True, np.bool_(True), "2"])
    def test_bad_worker_count_rejected(self, workers):
        gt = make_default_ground_truth(SPEC, seed=0)
        with pytest.raises(ValueError, match="workers must be a positive integer or None"):
            run_day(gt, uniform_policy(SPEC), 100, 0, DayStream(0, 0, 0), workers=workers)

    def test_a_one_chunk_day_starts_no_thread(self, monkeypatch):
        def no_thread(thread):
            raise AssertionError("thread started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        gt = make_default_ground_truth(SPEC, seed=1, min_gap=0.02)
        for workers in (None, 4):
            run_day(gt, uniform_policy(SPEC), CHUNK_ROWS, 0, DayStream(1, 0, 0), workers=workers)
        # The patch does catch the helper thread of a two-chunk day.
        with pytest.raises(AssertionError, match="thread started"):
            run_day(gt, uniform_policy(SPEC), CHUNK_ROWS + 1, 0, DayStream(1, 0, 0), workers=2)

    def test_report_metadata(self):
        gt = make_default_ground_truth(SPEC, seed=0, min_gap=0.02)
        _, report, _ = run_day(
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
        # oracles.inverse_cdf (the x2 draw of oracles.sample_context and of
        # simulate_chunk_reference) counts the CDF entries strictly below
        # u, so a u on an entry stays in that column, and a last entry that
        # rounds short of 1.0 never sends a draw off the row.  The row
        # sampler's own tie rules are pinned in TestSamplerByteContract,
        # the REINFORCE search's in test_policy_search.py's TestDrawColumns.
        u = np.array([0.25, 0.2500001, 0.5, 0.75, 1.0 - 2.0**-53])
        cdf = np.tile([0.25, 0.5, 1.0 - 2.0**-52], (len(u), 1))
        assert inverse_cdf(cdf, u).tolist() == [0, 1, 1, 2, 2]

    def test_empty_day_rejected(self):
        gt = make_default_ground_truth(SPEC, seed=0)
        with pytest.raises(ValueError):
            run_day(gt, uniform_policy(SPEC), 0, 0, DayStream(0, 0, 0))

    @pytest.mark.parametrize(
        "n, day, message",
        [
            (True, 0, "n must be a positive integer"),
            (2.5, 0, "n must be a positive integer"),
            ("100", 0, "n must be a positive integer"),
            (-5, 0, "n must be a positive integer"),
            (100, 2.5, "day must be an integer"),
            (100, True, "day must be an integer"),
            (100, None, "day must be an integer"),
        ],
    )
    def test_non_count_size_or_day_rejected(self, n, day, message):
        gt = make_default_ground_truth(SPEC, seed=0)
        with pytest.raises(ValueError, match=message):
            run_day(gt, uniform_policy(SPEC), n, day, DayStream(0, 0, 0))

    @pytest.mark.parametrize("day", [2**31, np.int64(2**31), -1])
    def test_day_outside_the_int32_column_rejected_before_any_draw(self, day, monkeypatch):
        gt = make_default_ground_truth(SPEC, seed=0)
        calls = []
        monkeypatch.setattr(DayStream, "uniforms", lambda self, *args: calls.append(args))
        with pytest.raises(ValueError, match=r"day must be an integer in \[0, 2\*\*31\)"):
            run_day(gt, uniform_policy(SPEC), 10, day, DayStream(0, 0, 0))
        assert calls == []

    def test_stream_of_another_day_rejected_before_any_draw(self, monkeypatch):
        gt = make_default_ground_truth(SPEC, seed=0)
        calls = []
        monkeypatch.setattr(DayStream, "uniforms", lambda self, *args: calls.append(args))
        with pytest.raises(ValueError, match="stream is day 0's, so it cannot draw day 3"):
            run_day(gt, uniform_policy(SPEC), 10, 3, DayStream(0, 0, 0))
        assert calls == []

    @pytest.mark.parametrize("shape", [(5, 5, 4), (4, 5, 10), (5, 5, 5, 2)], ids=["actions", "x1", "decisions"])
    def test_policy_of_another_spec_rejected_before_any_draw(self, shape, monkeypatch):
        gt = make_default_ground_truth(SPEC, seed=0)
        calls = []
        monkeypatch.setattr(DayStream, "uniforms", lambda self, *args: calls.append(args))
        with pytest.raises(ValueError, match="policy spec does not match the environment spec"):
            run_day(gt, uniform_policy(CategoricalSpec(*shape)), 10, 0, DayStream(0, 0, 0))
        assert calls == []

    def test_unknown_arm_rejected_before_any_draw(self, monkeypatch):
        gt = make_default_ground_truth(SPEC, seed=0)

        def fail(self, *args):
            raise AssertionError("uniforms drawn for a day with an unknown arm")

        monkeypatch.setattr(DayStream, "uniforms", fail)
        with pytest.raises(ValueError, match=r"arm must be None or one of \('', 'A', 'B'\), got 'C'"):
            run_day(gt, uniform_policy(SPEC), 10, 0, DayStream(0, 0, 0), arm="C")

    @pytest.mark.parametrize("workers", [1, 3])
    def test_every_row_is_drawn_through_the_stream(self, workers, monkeypatch):
        gt = make_default_ground_truth(SPEC, seed=0)
        counted, uniforms = [], DayStream.uniforms

        def counting(self, start, count, out=None):
            counted.append(count)
            return uniforms(self, start, count, out)

        monkeypatch.setattr(DayStream, "uniforms", counting)
        n = 3 * CHUNK_ROWS + 7
        run_day(gt, uniform_policy(SPEC), n, 0, DayStream(0, 0, 0), workers=workers)
        assert sum(counted) == n

    def test_numpy_integer_size_and_day_accepted(self):
        gt = make_default_ground_truth(SPEC, seed=0)
        log, report, _ = run_day(gt, uniform_policy(SPEC), np.int64(100), np.int32(3), DayStream(0, 3, 0))
        plain, _, _ = run_day(gt, uniform_policy(SPEC), 100, 3, DayStream(0, 3, 0))
        assert ndjson_text(log) == ndjson_text(plain)
        assert report.samples == 100 and report.day == 3

    def test_out_receives_the_day_in_place(self):
        gt = make_default_ground_truth(SPEC, seed=1, min_gap=0.02, with_sales=True)
        fresh, report, _ = run_day(gt, uniform_policy(SPEC), 5_000, 2, DayStream(1, 2, 1), arm="A")
        whole = tuple(None if col is None else np.zeros_like(col) for col in _empty_columns(gt, 6_000, True))
        out = tuple(None if col is None else col[500:5_500] for col in whole)
        log, same, _ = run_day(gt, uniform_policy(SPEC), 5_000, 2, DayStream(1, 2, 1), arm="A", out=out)
        assert same == report
        assert ndjson_text(log) == ndjson_text(fresh)
        for name, col in zip(LOG_COLUMNS, out):
            if col is not None:
                assert np.shares_memory(getattr(log, name), col), name
        assert not whole[1][:500].any() and not whole[1][5_500:].any()

    @pytest.mark.parametrize("fault", ["length", "dtype", "code-dtype", "missing", "extra"])
    def test_out_must_match_the_day(self, fault):
        gt = make_default_ground_truth(SPEC, seed=0)  # no decision axis, no sales
        out = list(_empty_columns(gt, 100, with_arm=False))
        if fault == "length":
            out[LOG_COLUMNS.index("x1")] = np.zeros(99, dtype=np.int16)
        elif fault == "dtype":
            out[LOG_COLUMNS.index("propensity")] = np.zeros(100, dtype=np.float32)
        elif fault == "code-dtype":
            # The default spec's 250 cells make its codes int16.
            out[LOG_COLUMNS.index("a")] = np.zeros(100, dtype=np.int32)
        elif fault == "missing":
            out[LOG_COLUMNS.index("c")] = None
        else:
            out[LOG_COLUMNS.index("s")] = np.zeros(100, dtype=np.int8)
        with pytest.raises(ValueError, match="out must hold"):
            run_day(gt, uniform_policy(SPEC), 100, 0, DayStream(0, 0, 0), out=tuple(out))

    def test_log_too_large_to_allocate_is_a_value_error(self):
        # numpy refuses 10**12 rows at once, before any column is allocated.
        gt = make_default_ground_truth(SPEC, seed=0)
        with pytest.raises(ValueError, match=r"1,000,000,000,000 rows at 19 bytes per row does not fit"):
            run_day(gt, uniform_policy(SPEC), 10**12, 0, DayStream(0, 0, 0))


# Specs on both sides of the int8 code type's 128 cells, and the study specs.
CODE_TYPE_SPECS = (
    (CategoricalSpec(k1=2, k2=2, n_actions=32), np.int8),  # 128 cells
    (CategoricalSpec(k1=2, k2=2, n_actions=33), np.int16),  # 132 cells
    (SPEC, np.int16),  # 250 cells
    (TWO_DECISION_SPEC, np.int16),  # 500 cells
)


def assert_column_types(log, code):
    types = dict.fromkeys(LOG_COLUMNS, np.int8)
    types.update(day=np.int32, x1=code, x2=code, a=code, d=code, propensity=np.float64)
    for name, want in types.items():
        col = getattr(log, name)
        assert col is None or col.dtype == want, (name, col.dtype)


class TestLogColumnTypes:
    """A log's codes x1, x2, a and d take the narrowest signed type that holds the spec's full cell index."""

    @pytest.mark.parametrize("spec, code", CODE_TYPE_SPECS, ids=str)
    def test_run_day_columns(self, spec, code):
        with_sales = spec.n_decisions is None
        gt = make_default_ground_truth(spec, 3, min_gap=0.0, with_sales=with_sales)
        log, _, _ = run_day(gt, uniform_policy(spec), 5_000, 1, DayStream(3, 1, 0), arm="A")
        assert (log.d is None, log.s is None) == (with_sales, not with_sales)
        assert_column_types(log, code)

    @pytest.mark.parametrize("spec, code", CODE_TYPE_SPECS, ids=str)
    def test_each_study_log(self, spec, code):
        cfg = ScenarioConfig(spec=spec, samples_per_day=2_000, min_gap=0.0)
        if spec.n_decisions is None:
            results = [scenario_feature_engineering(cfg), scenario_ab_test(cfg), scenario_click_sale(cfg)]
        else:
            results = [scenario_two_decision(cfg)]
        for res in results:
            assert_column_types(res.log, code)

    @pytest.mark.parametrize("spec, code", CODE_TYPE_SPECS, ids=str)
    def test_full_cell_index_in_the_column_type_equals_encode(self, spec, code):
        # Every cell of the spec, indexed in the columns' own type, as
        # tests/test_acceptance.py indexes a log's cells.
        x1, x2, a, *d = (axis.ravel().astype(code) for axis in np.indices(spec.cell_shape))
        index = (x1 * spec.k2 + x2) * spec.n_actions + a
        if d:
            index = index * spec.n_decisions + d[0]
        assert index.dtype == code
        features = FeatureSpec(("x1", "x2"), ("a", "d") if d else ("a",), spec)
        want = encode(features, x1, x2, a, *d)
        assert want.dtype == np.int64
        np.testing.assert_array_equal(index, want)


COLUMNS = ("x1", "x2", "a", "d", "propensity", "c", "s")
SAMPLER_SPECS = (
    SPEC,
    CategoricalSpec(k1=3, k2=4, n_actions=6),
    CategoricalSpec(k1=2, k2=2, n_actions=3),
    CategoricalSpec(k1=4, k2=4, n_actions=5, n_decisions=4),
    TWO_DECISION_SPEC,
)
# The largest 53-bit uniform: K_TOP * 2**-53 is the largest double below 1.0,
# the top of Philox's uniform range.
K_TOP = 2**53 - 1


def sampler_policy(spec, kind, epsilon, rng):
    """One-hot, epsilon-greedy or dense random policy with zero cells."""
    if kind == "random":
        probs = rng.random((spec.k1, spec.k2, spec.action_cells))
        probs[rng.random(probs.shape) < 0.5] = 0.0
        probs[..., rng.integers(spec.action_cells)] += 0.1
        probs /= probs.sum(axis=-1, keepdims=True)
        return Policy(spec, probs.reshape(spec.cell_shape), ("x1", "x2"))
    best = rng.integers(0, spec.action_cells, size=(spec.k1, spec.k2))
    return greedy_policy(spec, best, ("x1", "x2"), 0.0 if kind == "one-hot" else epsilon)


def simulate_chunk(gt, policy, u):
    """_simulate_chunk's columns for the integer uniforms ``u``, written over
    columns that start out as junk bytes so every byte must come from the sampler."""
    out = _empty_columns(gt, len(u), with_arm=False)[1:8]
    for col in out:
        if col is not None:
            col.view(np.uint8).fill(0x5A)
    tables = _day_tables(gt, policy)
    scratch = (
        np.empty((4, len(u)), dtype=np.int64),
        np.empty((3, len(u)), dtype=np.int32),
        np.empty(len(u), dtype=np.intp),
    )
    _simulate_chunk(tables, u, out, *scratch, np.zeros(3 * tables.propensity.size, dtype=np.int64))
    return out


def reference_columns(gt, policy, u):
    """The reference chunk drawn from the doubles ``u * 2**-53`` of the integer
    uniforms ``u``, with its covariates and actions cast to the log's code
    type, a cast that must keep every value."""
    cols = list(simulate_chunk_reference(gt, policy, u * 2.0**-53))
    code = _column_dtypes(gt, with_arm=False)[LOG_COLUMNS.index("x1")]
    for i in range(4):
        if cols[i] is not None:
            cast = cols[i].astype(code)
            assert np.array_equal(cast, cols[i]), COLUMNS[i]
            cols[i] = cast
    return cols


def assert_same_columns(got, want):
    for name, g, w in zip(COLUMNS, got, want):
        if w is None:
            assert g is None, name
            continue
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        assert g.tobytes() == w.tobytes(), name


class TestSamplerByteContract:
    """The per-day lookup-table sampler draws the reference's exact bytes."""

    @pytest.mark.parametrize("kind", ["one-hot", "epsilon-greedy", "random"])
    @pytest.mark.parametrize("rows", [1, 7, 1000, CHUNK_ROWS])
    @settings(max_examples=10, deadline=None)
    @given(
        spec=st.sampled_from(SAMPLER_SPECS),
        with_sales=st.booleans(),
        epsilon=st.floats(0.01, 0.5),
        seed=st.integers(0, 2**16),
        chunk=st.integers(0, 6),
    )
    def test_chunk_matches_reference(self, kind, rows, spec, with_sales, epsilon, seed, chunk):
        gt = make_default_ground_truth(spec, seed, min_gap=0.0, with_sales=with_sales)
        policy = sampler_policy(spec, kind, epsilon, np.random.default_rng(seed))
        u = DayStream(seed, 1, 0).uniforms(chunk * CHUNK_ROWS, rows)
        assert_same_columns(simulate_chunk(gt, policy, u), reference_columns(gt, policy, u))

    def test_ties_and_cap(self):
        # Every CDF is [0.25, 0.5, 1 - 2**-52]: its last entry rounds short
        # of 1.0.  x1 counts the entries at or below u (searchsorted's
        # side="right"); x2 and the action cell count those strictly below.
        spec = CategoricalSpec(k1=3, k2=3, n_actions=3)
        probs = np.array([0.25, 0.25, 0.5 - 2.0**-52])
        gt = GroundTruth(
            spec=spec,
            p_x1=probs,
            p_x2_given_x1=np.tile(probs, (3, 1)),
            click_logit=np.zeros(spec.cell_shape),
            sale_logit=np.zeros(spec.cell_shape),
        )
        policy = Policy(spec, np.broadcast_to(probs, spec.cell_shape), ())
        # The uniforms 0.25 and 0.5.  np.nextafter(0.25, 1.0) lies between two
        # uniforms k * 2**-53: 0.25 itself and the one above it.
        quarter, half = 2**51, 2**52
        above = quarter + 1
        u = np.zeros((7, 8), dtype=np.int64)
        u[:, :3] = [
            [quarter, quarter, quarter],
            [half, half, half],
            [above, above, above],
            [K_TOP, K_TOP, K_TOP],
            [0, 0, 0],
            [quarter, K_TOP, half],
            [quarter, quarter, quarter],
        ]
        got = simulate_chunk(gt, policy, u)
        assert got[0].tolist() == [1, 2, 1, 2, 0, 1, 1]
        assert got[1].tolist() == [0, 1, 1, 2, 0, 2, 0]
        assert got[2].tolist() == [0, 1, 1, 2, 0, 1, 0]
        assert_same_columns(got, reference_columns(gt, policy, u))

    @pytest.mark.parametrize(
        "spec,with_sales,arm",
        [(SPEC, True, "B"), (TWO_DECISION_SPEC, False, None)],
        ids=["click-sale", "two-decision"],
    )
    def test_run_day_matches_reference_log(self, spec, with_sales, arm):
        gt = make_default_ground_truth(spec, 4, min_gap=0.0, with_sales=with_sales)
        policy = sampler_policy(spec, "epsilon-greedy", 0.05, np.random.default_rng(4))
        n = 2 * CHUNK_ROWS + 1234
        stream = DayStream(4, 3, 2)
        log, _, _ = run_day(gt, policy, n, 3, stream, arm=arm)
        chunks = [
            reference_columns(gt, policy, stream.uniforms(start, min(CHUNK_ROWS, n - start)))
            for start in range(0, n, CHUNK_ROWS)
        ]
        columns = {
            name: None if chunks[0][i] is None else np.concatenate([ch[i] for ch in chunks])
            for i, name in enumerate(COLUMNS)
        }
        arm_col = None if arm is None else np.full(n, 1, dtype=np.int8)
        reference = Log(day=np.full(n, 3, dtype=np.int32), arm=arm_col, **columns)
        assert ndjson_text(log) == ndjson_text(reference)

    @pytest.mark.parametrize(
        "spec,with_sales",
        [(SPEC, True), (TWO_DECISION_SPEC, False)],
        ids=["click-sale", "two-decision"],
    )
    def test_chunking_and_workers_do_not_change_the_log(self, spec, with_sales, monkeypatch):
        gt = make_default_ground_truth(spec, 2, min_gap=0.0, with_sales=with_sales)
        policy = sampler_policy(spec, "epsilon-greedy", 0.1, np.random.default_rng(2))

        def day_ndjson(workers):
            log, _, _ = run_day(gt, policy, 70_000, 1, DayStream(2, 1, 0), workers=workers)
            return ndjson_text(log)

        serial = day_ndjson(workers=1)
        # Threads write disjoint slices of the same columns; a short switch
        # interval makes them interleave as often as possible.  None is the
        # default, one stripe per CPU the process may run on.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert day_ndjson(workers=3) == serial
            assert day_ndjson(workers=None) == serial
            monkeypatch.setattr(confoundsim.scenarios, "CHUNK_ROWS", 9_973)
            assert day_ndjson(workers=3) == serial
            assert day_ndjson(workers=None) == serial
        finally:
            sys.setswitchinterval(interval)


# Probability vectors whose CDFs put entries where a guide table has to
# be exact: on bucket edges k/256, two or three distinct entries in one
# bucket, runs of equal entries (zero cells), kept entries at or above
# 1.0, and an entry in the last bucket.
GUIDE_EDGE_PROBS = {
    "bucket-edges": [1 / 256, 63 / 256, 64 / 256, 128 / 256],
    "two-levels": [0.1, 0.001, 0.002, 0.897],
    "three-levels": [0.1, 0.0005, 0.0005, 0.899],
    "equal-runs": [0.25, 0.0, 0.0, 0.5, 0.25],
    "leading-zeros": [0.0, 0.0, 0.5, 0.5],
    "entries-at-one": [0.25, 0.75, 0.0, 0.0],
    "entry-above-one": [0.5, 0.5 + 2.0**-52, 0.0],
    "last-bucket": [0.5, 0.498, 0.002],
}


def edge_truth(probs, rng, with_sales):
    """An environment and logging policy whose x1, x2 and action-cell CDFs are all ``cumsum(probs)``."""
    k = len(probs)
    spec = CategoricalSpec(k1=k, k2=k, n_actions=k)
    gt = GroundTruth(
        spec=spec,
        p_x1=probs,
        p_x2_given_x1=np.tile(probs, (k, 1)),
        click_logit=rng.normal(size=spec.cell_shape),
        sale_logit=rng.normal(size=spec.cell_shape) if with_sales else None,
    )
    return gt, Policy(spec, np.broadcast_to(probs, spec.cell_shape), ())


def edge_uniforms(cdf, rng):
    """Rows whose first three integer uniforms cover 0, every bucket edge
    b/256, both grid neighbours (floor and ceil of ``v * 2**53``) of every
    CDF entry and of its float neighbours, and K_TOP, in three independent
    orders; the other five uniforms are random."""
    doubles = {b / 256 for b in range(256)}
    for e in cdf:
        doubles |= {e, np.nextafter(e, 0.0), np.nextafter(e, 2.0)}
    scaled = np.array(sorted(doubles)) * 2.0**53
    values = np.unique(np.concatenate([[0.0, K_TOP], np.floor(scaled), np.ceil(scaled)]))
    values = values[values < 2**53].astype(np.int64)
    u = rng.integers(0, 2**53, size=(len(values), 8))
    for col in range(3):
        u[:, col] = rng.permutation(values)
    return u


class TestGuideTableEdges:
    """The guide tables draw the reference's bytes where an entry or a
    uniform sits on a bucket edge, a bucket holds several levels, entries
    repeat, or a kept entry reaches 1.0."""

    @pytest.mark.parametrize("with_sales", [False, True])
    @pytest.mark.parametrize("name", list(GUIDE_EDGE_PROBS))
    def test_chunk_matches_reference(self, name, with_sales):
        probs = np.array(GUIDE_EDGE_PROBS[name])
        rng = np.random.default_rng(len(probs))
        gt, policy = edge_truth(probs, rng, with_sales)
        u = edge_uniforms(np.cumsum(probs), rng)
        assert_same_columns(simulate_chunk(gt, policy, u), reference_columns(gt, policy, u))
        tables = _day_tables(gt, policy)
        levels = {"two-levels": 2, "three-levels": 3}.get(name, 1)
        assert [len(values) - 1 for _, values in tables[:3]] == [levels] * 3


def guide_draws(table, rows, k):
    """_draw's count for integer uniform ``k[i]`` on CDF row ``rows[i]`` of a guide table."""
    out, n = np.empty(len(k), dtype=np.int32), len(k)
    _draw(*table, k, rows * GUIDE_BUCKETS, out, np.empty(n, np.intp), np.empty(n, np.int64), np.empty(n, np.bool_))
    return out


def float_count(cdf, rows, k, rule):
    """Entries ``e`` of CDF row ``rows[i]`` that pass ``rule(e, k[i] * 2**-53)``."""
    return rule(cdf[rows], (k * 2.0**-53)[:, None]).sum(axis=1)


class TestExactThresholds:
    """Every integer threshold K of a day's tables sits where the float rule
    flips on the uniforms k * 2**-53: k = K - 1 fails it and k = K passes, and
    at both, at k = 0 and at K_TOP the integer rule agrees with the float rule
    applied to k * 2**-53."""

    @pytest.mark.parametrize("name", list(GUIDE_EDGE_PROBS))
    def test_guide_levels_and_bucket_edges(self, name):
        probs = np.array(GUIDE_EDGE_PROBS[name])
        gt, policy = edge_truth(probs, np.random.default_rng(len(probs)), with_sales=True)
        tables = _day_tables(gt, policy)
        cell_probs = policy.cell_probs().reshape(gt.spec.k1 * gt.spec.k2, -1)
        sources = (
            (tables.x1, np.cumsum(gt.p_x1)[None, :-1], np.less_equal),
            (tables.x2, np.cumsum(gt.p_x2_given_x1, axis=1)[:, :-1], np.less),
            (tables.cell, np.cumsum(cell_probs, axis=1)[:, :-1], np.less),
        )
        for table, cdf, rule in sources:
            values = table[1]
            assert values.dtype == np.int64
            slot = np.tile(np.arange(values.shape[1]), len(values))
            rows, edge = slot // GUIDE_BUCKETS, (slot % GUIDE_BUCKETS + 1) << 45
            K = values.ravel()
            for k in (K - 1, K, np.zeros_like(K), np.full_like(K, K_TOP)):
                ok = (k >= 0) & (k < 2**53)
                want = float_count(cdf, rows[ok], k[ok], rule)
                assert guide_draws(table, rows[ok], k[ok]).tolist() == want.tolist()
            # A level, unlike an upper edge, is the threshold of some entry: k = K
            # passes it and k = K - 1 does not.
            level = K != edge
            passed = float_count(cdf, rows[level], K[level], rule)
            assert (passed > float_count(cdf, rows[level], K[level] - 1, rule)).all()

    @pytest.mark.parametrize("name", list(GUIDE_EDGE_PROBS))
    def test_click_and_sale_probabilities(self, name):
        probs = np.array(GUIDE_EDGE_PROBS[name])
        gt, policy = edge_truth(probs, np.random.default_rng(len(probs)), with_sales=True)
        # p = 0.5 exactly and p near 1: for p >= 0.5, p * 2**53 is an integer,
        # so a floor-based threshold would click at k = p * 2**53.
        gt.click_logit.flat[::5] = 0.0
        gt.click_logit.flat[1::5] = 15.0
        tables = _day_tables(gt, policy)
        for p, K in ((sigmoid(gt.click_logit), tables.p_click), (sigmoid(gt.sale_logit), tables.p_sale)):
            p = p.ravel()
            assert K.dtype == np.int64
            assert ((K - 1) * 2.0**-53 < p).all()
            assert not (K * 2.0**-53 < p).any()
            for k in (K - 1, K, np.zeros_like(K), np.full_like(K, K_TOP)):
                assert ((k < K) == (k * 2.0**-53 < p)).all()
        assert (sigmoid(gt.click_logit) == 0.5).any()


def same_tally(got, want) -> bool:
    for field in ("impressions", "clicks", "sales"):
        g, w = getattr(got, field), getattr(want, field)
        if (g is None) != (w is None):
            return False
        if w is not None and (g.dtype != w.dtype or g.shape != w.shape or not np.array_equal(g, w)):
            return False
    return got.day_range == want.day_range


class TestDayTally:
    """run_day counts each row as its chunk draws it; the counts equal a
    tally of the day's log, and the empirical CTR is the log's mean click."""

    @pytest.mark.parametrize("with_sales,arm", [(False, None), (True, None), (False, "A"), (True, "B")])
    @pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=str)
    def test_counts_are_the_tally_of_the_log(self, spec, with_sales, arm):
        gt = make_default_ground_truth(spec, 5, min_gap=0.0, with_sales=with_sales)
        policy = sampler_policy(spec, "random", 0.1, np.random.default_rng(5))
        for n in (1, CHUNK_ROWS - 1, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 7):
            for workers in (1, 3):
                log, report, counts = run_day(gt, policy, n, 4, DayStream(5, 4, 0), arm=arm, workers=workers)
                assert same_tally(counts, tally(log, spec)), (n, workers)
                assert report.empirical_ctr == float(log.c.mean()), (n, workers)


def log_nbytes(log) -> int:
    columns = (getattr(log, name) for name in LOG_COLUMNS)
    return sum(col.nbytes for col in columns if col is not None)


def log_bytes_and_peak(study) -> tuple:
    """The bytes of the log of ``study()`` and the peak traced memory of the call."""
    tracemalloc.start()
    try:
        log = study().log
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return log_nbytes(log), peak


class TestFeatureEngineeringLoop:
    def test_peak_memory_stays_near_the_log(self):
        """A row is 19 bytes: int32 day, int16 codes, float64 propensity, int8 click."""
        nbytes, peak = log_bytes_and_peak(lambda: scenario_feature_engineering(ScenarioConfig(seed=0)))
        assert nbytes == 6 * 400_000 * 19
        assert peak <= 1.35 * nbytes, peak / nbytes

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

    def test_one_row_per_day_cannot_split_before_any_day_is_run(self, monkeypatch):
        def no_day(*args, **kwargs):
            raise AssertionError("a day was simulated")

        monkeypatch.setattr(confoundsim.scenarios, "run_day", no_day)
        with pytest.raises(ValueError, match="A/B"):
            scenario_ab_test(ScenarioConfig(samples_per_day=1))

    def test_log_is_one_set_of_columns_in_day_and_arm_order(self):
        res = scenario_ab_test(DESK, shared_log=True)
        n = DESK.samples_per_day
        assert len(res.log) == DESK.days * n
        days = np.repeat(np.arange(DESK.days), n)
        np.testing.assert_array_equal(res.log.day, days)
        arms = np.tile(np.repeat([0, 1], [n // 2, n - n // 2]), DESK.days)
        arms[: DESK.ab_start_day * n] = -1
        np.testing.assert_array_equal(res.log.arm, arms)

    def test_peak_memory_stays_near_the_log(self):
        """Days are written into the scenario's log in place: no day log,
        shared training log or final log is a second copy of the rows.
        A row is 20 bytes: int32 day, int16 codes, float64 propensity,
        int8 click and arm."""
        nbytes, peak = log_bytes_and_peak(lambda: scenario_ab_test(ScenarioConfig(seed=0), shared_log=True))
        assert nbytes == 6 * 400_000 * 20
        assert peak <= 1.35 * nbytes, peak / nbytes


class TestABRegimeSharing:
    """``_ab_tests`` runs the days both A/B regimes share once; separate
    ``scenario_ab_test`` calls, one per regime, are the oracle route."""

    @pytest.mark.parametrize("regimes", [(True, False), (False, True)])
    @pytest.mark.parametrize("seed", FIXTURE_SEEDS[:3])
    @pytest.mark.parametrize(
        "ab_start_day, arm_b_features", [(2, ("x1", "x2")), (5, ("x1", "x2")), (2, ("x1",))]
    )
    def test_sharing_equals_rerunning(self, regimes, seed, ab_start_day, arm_b_features):
        cfg = ScenarioConfig(seed=seed, samples_per_day=5_001, ab_start_day=ab_start_day)
        together = _ab_tests(cfg, regimes, arm_b_features)
        assert [res.shared_log for res in together] == list(regimes)
        for res in together:
            alone = scenario_ab_test(cfg, shared_log=res.shared_log, arm_b_features=arm_b_features)
            assert res.common_reports == alone.common_reports
            assert res.arm_reports == alone.arm_reports
            assert res.reports == alone.reports
            for name in LOG_COLUMNS:
                ours, theirs = getattr(res.log, name), getattr(alone.log, name)
                assert (ours is None) == (theirs is None), name
                if ours is not None:
                    assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name
        assert not np.shares_memory(together[0].log.x1, together[1].log.x1)


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

    def test_bad_environment_rejected_before_the_exploration_day(self, monkeypatch):
        cfg = ScenarioConfig(seed=0, samples_per_day=1000)
        monkeypatch.setattr(confoundsim.scenarios, "run_day", never_run_day)
        with pytest.raises(ValueError, match="sale mechanism"):
            scenario_click_sale(cfg, gt=make_default_ground_truth(cfg.spec, 0, cfg.min_gap))
        other = make_default_ground_truth(CategoricalSpec(k1=3, k2=3, n_actions=4), 0, with_sales=True)
        with pytest.raises(ValueError, match="gt.spec must match"):
            scenario_click_sale(cfg, gt=other)


def never_run_day(*args, **kwargs):
    raise AssertionError("run_day called before the study checked its environment")


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

    def test_log_takes_21_bytes_per_row(self):
        """int32 day, four int16 codes, float64 propensity, int8 click.  The
        one-day log is too small for a peak bound: the day's stripe buffers
        and the search's tables are a large share of the call's memory."""
        log = scenario_two_decision(ScenarioConfig(spec=TWO_DECISION_SPEC, samples_per_day=5_000)).log
        assert log.d is not None and log.s is None and log.arm is None
        assert log_nbytes(log) == 5_000 * 21

    def test_requires_a_decision_axis(self):
        with pytest.raises(ValueError):
            scenario_two_decision(ScenarioConfig(samples_per_day=1000))

    def test_gt_spec_must_match(self):
        cfg = ScenarioConfig(spec=TWO_DECISION_SPEC, samples_per_day=1000)
        with pytest.raises(ValueError):
            scenario_two_decision(cfg, gt=separable_two_decision_truth())

    def test_mismatched_spec_rejected_before_the_exploration_day(self, monkeypatch):
        cfg = ScenarioConfig(spec=TWO_DECISION_SPEC, samples_per_day=1000)
        monkeypatch.setattr(confoundsim.scenarios, "run_day", never_run_day)
        with pytest.raises(ValueError, match="gt.spec must match"):
            scenario_two_decision(cfg, gt=separable_two_decision_truth())


# SHA-256 over the repr of every DayReport of the sweep, seeds in
# FIXTURE_SEEDS order and each seed's reports in conftest.all_reports order.
# Recorded from the library that assembled each scenario log with Log.concat
# and fit every model on rows; the in-place, count-based loop must keep it.
SWEEP_DIGEST = "5760ee2181f7d043645a33588411c61714489d5ffed7922ef8643a3c7f7dabcd"


class TestSweepDigest:
    def test_day_reports_of_the_full_sweep_are_unchanged(self, day_loop_sweep):
        h = hashlib.sha256()
        for seed in FIXTURE_SEEDS:
            for report in all_reports(day_loop_sweep[seed]):
                h.update(repr(report).encode())
        assert h.hexdigest() == SWEEP_DIGEST


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
