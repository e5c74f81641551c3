"""End-to-end scenarios: daily retrain loops and comparison studies.

Each scenario draws a ground-truth environment, simulates interaction
logs day by day, refits models on the previous day's log, and reports
both the empirical click-through rate and the exact expected rate of
every deployed policy (by enumeration), next to the rate of the best
policy at the same covariate visibility.

``scenario_feature_engineering`` reproduces the covariate-removal story:
one day of an x2-aware policy is enough to confound the next day's
covariate-blind refit, and the dip heals once the x2-aware day leaves the
training window.  ``scenario_ab_test`` contrasts shared-log and
separate-log A/B training.  ``scenario_click_sale`` and
``scenario_two_decision`` are single-shot comparison studies of
modularised sub-models and factored policy learning.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .environment import (
    GroundTruth,
    expected_policy_click_sale_rate,
    expected_policy_ctr,
    make_default_ground_truth,
    oracle_policy,
    policy_value,
)
from .features import CategoricalSpec, FeatureSpec, _covariate_union, _subset_text, context_count
from .glm import (
    TARGET_CLICK,
    TARGET_SALE_GIVEN_CLICK,
    _bins_tally,
    fit_counts,
    prediction_table,
    sum_tallies,
)
from .logs import ARM_CODES, Log
from .numerics import GUIDE_BUCKETS, _check_count, _check_rate, _draw, _guide, _is_count, _threshold, sigmoid
from .policy import FactoredPolicyParams, Policy, epsilon_greedy, greedy_policy, to_joint, uniform_policy
from .policy_search import SearchConfig, reinforce_optimize
from .streams import UNIFORMS_PER_ROW, DayStream

__all__ = [
    "ABResult",
    "CHUNK_ROWS",
    "ComparisonEntry",
    "ComparisonResult",
    "DayReport",
    "ScenarioConfig",
    "ScenarioResult",
    "default_two_decision_search",
    "run_day",
    "scenario_ab_test",
    "scenario_click_sale",
    "scenario_feature_engineering",
    "scenario_two_decision",
]

# Fixed simulation chunk size.  Chunk i always covers rows
# [i * CHUNK_ROWS, (i+1) * CHUNK_ROWS) of a day and owns the matching
# counter range of the day's stream, so results never depend on how many
# chunks are processed at once.  A chunk's uniform block is CHUNK_ROWS x 64
# bytes: 1 MiB at 16,384 rows, small enough to stay in a 2 MiB L2 cache.
CHUNK_ROWS = 1 << 14

# The columns of a Log, in the order run_day's ``out`` tuple holds them.
LOG_COLUMNS = ("day", "x1", "x2", "a", "d", "propensity", "c", "s", "arm")


@dataclass
class ScenarioConfig:
    """Shared scenario knobs (defaults follow the headline experiment)."""

    spec: CategoricalSpec = CategoricalSpec(5, 5, 10)
    samples_per_day: int = 400_000
    epsilon: float = 0.05
    seed: int = 0
    min_gap: float = 0.02
    ab_start_day: int = 2
    days: int = 6

    def __post_init__(self):
        _check_count("samples_per_day", self.samples_per_day, 1)
        _check_rate("epsilon", self.epsilon, 0, 1)
        _check_count("days", self.days, 1)
        _check_count("seed", self.seed)
        _check_rate("min_gap", self.min_gap, 0, 0.2)
        if not _is_count(self.ab_start_day):
            raise ValueError(f"ab_start_day must be an integer, got {self.ab_start_day!r}")


@dataclass(frozen=True)
class DayReport:
    """Exact and empirical summary of one simulated day.

    ``binomial_se`` is ``sqrt(p (1 - p) / n)`` at the exact expected rate
    ``p``, the scale against which the empirical rate may fluctuate.
    ``oracle_ctr`` is the exact rate of the best policy with the same
    covariate visibility as the deployed one, and ``regret`` the gap to it.
    """

    day: int
    arm: str
    samples: int
    empirical_ctr: float
    binomial_se: float
    expected_ctr: float
    oracle_ctr: float
    regret: float
    model_trained_on: tuple | None
    features_used: tuple

    def to_dict(self) -> dict:
        payload = dict(self.__dict__)
        payload["model_trained_on"] = None if self.model_trained_on is None else list(self.model_trained_on)
        payload["features_used"] = list(self.features_used)
        return payload


@dataclass(frozen=True)
class ComparisonEntry:
    """One policy variant of a comparison study.

    ``value`` is the exact expected reward under the true mechanism;
    ``model_value`` (when meaningful) is the same integral taken against
    the fitted model the variant was derived from.
    """

    variant: str
    value: float
    model_value: float | None = None
    detail: str = ""


@dataclass
class ScenarioResult:
    gt: GroundTruth
    reports: list
    log: Log


@dataclass
class ABResult:
    gt: GroundTruth
    shared_log: bool
    common_reports: list
    arm_reports: dict
    log: Log

    @property
    def reports(self) -> list:
        ordered = list(self.common_reports)
        for day_pair in zip(self.arm_reports["A"], self.arm_reports["B"]):
            ordered.extend(day_pair)
        return ordered


@dataclass
class ComparisonResult:
    """A comparison study: its environment, covariate views, exploration
    day and one entry per policy variant; ``final_params`` holds the
    two-decision study's searched factored policy."""

    gt: GroundTruth
    x_prime: tuple
    x_dprime: tuple
    log_report: DayReport
    entries: list
    log: Log
    final_params: FactoredPolicyParams | None = None

    def value(self, variant: str) -> float:
        return next(e.value for e in self.entries if e.variant == variant)

    def model_value(self, variant: str) -> float | None:
        return next(e.model_value for e in self.entries if e.variant == variant)


class _DayTables(NamedTuple):
    """Lookup tables of the row sampler, built once per :func:`run_day` call:
    guide tables of the x1 CDF, the x2 CDF of each x1 and the action cell CDF
    of each context ``x1 * k2 + x2``, each without its last entry so a draw is
    capped; ``propensity``, flat over ``(context, cell)``, and the integer
    thresholds ``p_click`` and ``p_sale`` of the click and sale probabilities
    over the same cells: ``k < K`` exactly when ``k * 2**-53 < p``."""

    x1: tuple
    x2: tuple
    cell: tuple
    propensity: np.ndarray
    p_click: np.ndarray
    p_sale: np.ndarray | None
    spec: CategoricalSpec


def _day_tables(gt: GroundTruth, policy: Policy) -> _DayTables:
    spec = gt.spec
    cell_probs = policy.cell_probs().reshape(spec.k1 * spec.k2, -1)
    repeat = spec.action_cells // spec.n_actions
    p_sale = None if gt.sale_logit is None else np.repeat(sigmoid(gt.sale_logit), repeat, axis=-1)
    return _DayTables(
        x1=_guide(np.cumsum(gt.p_x1)[None, :-1], inclusive=True),
        x2=_guide(np.cumsum(gt.p_x2_given_x1, axis=1)[:, :-1], inclusive=False),
        cell=_guide(np.cumsum(cell_probs, axis=1)[:, :-1], inclusive=False),
        propensity=cell_probs.ravel(),
        p_click=_threshold(sigmoid(gt.click_logit).ravel(), inclusive=True),
        p_sale=None if p_sale is None else _threshold(p_sale.ravel(), inclusive=True),
        spec=spec,
    )


def _simulate_chunk(tables: _DayTables, u: np.ndarray, out: tuple, u4, codes, idx, counts) -> None:
    """Inverse-CDF simulation of one chunk of rows from the day's tables.

    ``u`` holds each row's integer uniforms ``k`` (:meth:`DayStream.uniforms`),
    standing for ``k * 2**-53``.  x1 counts the CDF entries at or below its
    uniform (numpy's ``searchsorted(side="right")`` rule); x2 and the action
    cell count the entries strictly below theirs; a row clicks, and a click
    sells, when its uniform is below the probability.  Writes ``(x1, x2, a, d,
    propensity, c, s)`` into the length-``len(u)`` columns of ``out``, of the
    dtypes :func:`_column_dtypes` gives them, with ``d`` or ``s`` None when the
    environment has no decision axis or no sale mechanism.  Adds each row to
    its :func:`glm.tally` bin of int64 ``counts``.  ``u4`` is ``(4, len(u))``
    int64 scratch for a contiguous copy of the uniforms the draws and clicks
    compare, ``codes`` ``(3, len(u))`` int32 scratch for the x1, x2 and action
    cell draws, ``idx`` intp scratch.
    """
    spec = tables.spec
    x1, x2, a, d, propensity, c, s = out
    np.copyto(u4, u[:, :4].T)
    # propensity and c are scratch until their own values are written, and
    # the x1 uniforms' row until the contexts are.
    clicked = c.view(np.bool_)
    thresholds = propensity.view(np.int64)
    scratch = (idx, thresholds, clicked)
    row1, row2, cell = codes
    _draw(*tables.x1, u4[0], 0, row1, *scratch)
    np.multiply(row1, GUIDE_BUCKETS, out=row2)
    _draw(*tables.x2, u4[1], row2, row2, *scratch)
    context = u4[0].view(np.intp)
    np.multiply(row1, spec.k2, out=context)
    context += row2
    np.multiply(context, GUIDE_BUCKETS, out=cell)
    _draw(*tables.cell, u4[2], cell, cell, *scratch)
    np.multiply(context, spec.action_cells, out=idx)
    idx += cell
    # Every index is in range; take's default mode="raise" would buffer its out=.
    np.less(u4[3], tables.p_click.take(idx, out=thresholds, mode="clip"), out=clicked)
    if s is not None:
        np.less(u[:, 4], tables.p_sale.take(idx, out=thresholds, mode="clip"), out=s.view(np.bool_))
        np.copyto(s, np.int8(-1), where=~clicked)
    tables.propensity.take(idx, out=propensity, mode="clip")
    # Each code fits its column, whose type holds the spec's whole cell index.
    np.copyto(x1, row1, casting="same_kind")
    np.copyto(x2, row2, casting="same_kind")
    if d is None:
        np.copyto(a, cell, casting="same_kind")
    else:
        np.divmod(cell, spec.n_decisions, out=(a, d))
    # A row's outcome is c, or s + 1 with sales: s is -1 unless clicked.
    idx *= 3
    if s is None:
        idx += c
    else:
        idx += s
        idx += 1
    counts += np.bincount(idx, minlength=len(counts))


def _column_dtypes(gt: GroundTruth, with_arm: bool) -> tuple:
    """dtype of each of :data:`LOG_COLUMNS` a day of ``gt`` fills, None where absent.

    The codes ``x1``, ``x2``, ``a`` and ``d`` share the narrowest signed type
    that holds the spec's full cell index, so any mixed-radix index of them
    computed in their own type cannot wrap: int8 up to 128 cells, int16 up to
    32,768.  ``day`` is int32, ``propensity`` float64, ``c``, ``s`` and
    ``arm`` int8.
    """
    spec = gt.spec
    code = np.min_scalar_type(-(spec.k1 * spec.k2 * spec.action_cells))
    return (
        np.int32, code, code, code,
        None if spec.n_decisions is None else code,
        np.float64, np.int8,
        None if gt.sale_logit is None else np.int8,
        np.int8 if with_arm else None,
    )


def _empty_columns(gt: GroundTruth, n: int, with_arm: bool) -> tuple:
    """Fresh columns of an ``n``-row log of ``gt``; ``ValueError`` when they do not fit in memory."""
    dtypes = _column_dtypes(gt, with_arm)
    try:
        return tuple(None if dt is None else np.empty(n, dtype=dt) for dt in dtypes)
    except MemoryError:
        row_bytes = sum(np.dtype(dt).itemsize for dt in dtypes if dt is not None)
        raise ValueError(f"a log of {n:,} rows at {row_bytes} bytes per row does not fit in memory") from None


def _rows(columns: tuple, start: int, stop: int) -> tuple:
    """Views of rows ``[start, stop)`` of every present column."""
    return tuple(None if col is None else col[start:stop] for col in columns)


def _worker_count(workers, chunks: int) -> int:
    """Threads for a day of ``chunks`` chunks: ``workers``, or by default
    one per CPU this process may run on, capped at the chunk count."""
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    elif not _is_count(workers) or workers < 1:
        raise ValueError(f"workers must be a positive integer or None, got {workers!r}")
    return min(int(workers), chunks)


def run_day(
    gt: GroundTruth,
    policy: Policy,
    n: int,
    day: int,
    stream: DayStream,
    model_trained_on=None,
    arm: str | None = None,
    workers: int | None = None,
    out: tuple | None = None,
):
    """Simulate day ``day`` of traffic under a fixed policy, drawing from
    ``stream``, whose own ``day`` must be the same.

    The day is generated in fixed-size chunks (:data:`CHUNK_ROWS`), each
    drawing its own counter range of ``stream``, so the log is identical
    whatever ``workers`` is and however the chunks are scheduled.  The CDF
    and probability lookup tables are built once per call from ``gt`` and
    ``policy``, and each chunk writes its own slice of the log columns.

    With ``w`` workers, stripe ``k`` is chunks ``k, k + w, ...``.  The
    calling thread runs stripe 0 and a helper thread each other stripe; a
    day of one chunk starts no thread.  ``workers`` defaults to one per
    CPU the process may run on.  Each stripe refills one uniform block and
    three scratch arrays per chunk and adds its rows to one row of cell
    counts, all allocated here by the calling thread, so a helper thread's
    own allocations stay small.

    ``out`` is the destination, as in numpy's ``out=``: one length-``n``
    array per name in :data:`LOG_COLUMNS`, of the log's dtype, or None
    for a column this day has no values for (``d`` without a decision
    axis, ``s`` without a sale mechanism, ``arm`` when ``arm`` is None).
    The codes ``x1``, ``x2``, ``a`` and ``d`` are of the narrowest signed
    type that holds the spec's cell index (int16 for the default spec);
    :func:`_column_dtypes` gives every column's type.  The returned log is
    a view of ``out``.  By default fresh columns are allocated.

    Returns
    -------
    (Log, DayReport, Tally)
        The tally is the day's cell counts, equal to ``glm.tally(log,
        gt.spec)``, counted by the chunks as they are drawn.
    """
    _check_count("n", n, 1)
    # The log's day column is int32.
    if not _is_count(day) or not 0 <= day < 2**31:
        raise ValueError(f"day must be an integer in [0, 2**31), got {day!r}")
    if stream.day != day:
        raise ValueError(f"stream is day {stream.day}'s, so it cannot draw day {day}")
    if arm not in (None, *ARM_CODES):
        raise ValueError(f"arm must be None or one of {tuple(ARM_CODES)}, got {arm!r}")
    # Exact values first: policy_value rejects a policy of another spec before any draw.
    expected = expected_policy_ctr(gt, policy)
    oracle = expected_policy_ctr(gt, oracle_policy(gt, policy.visibility))
    chunk_rows = CHUNK_ROWS
    starts = range(0, n, chunk_rows)
    stripes = _worker_count(workers, len(starts))
    dtypes = _column_dtypes(gt, arm is not None)
    if out is None:
        out = _empty_columns(gt, n, arm is not None)
    elif len(out) != len(dtypes) or any(
        (col is None) != (dt is None) or (col is not None and (col.dtype != dt or len(col) != n))
        for col, dt in zip(out, dtypes)
    ):
        raise ValueError("out must hold one length-n column of the log's dtype per column the day fills")
    tables = _day_tables(gt, policy)
    # The sampler's (x1, x2, a, d, propensity, c, s), in LOG_COLUMNS order.
    sampled = out[1:8]
    rows = min(chunk_rows, n)
    buffers = [
        (
            np.empty((rows, UNIFORMS_PER_ROW), np.int64),
            np.empty((4, rows), np.int64),
            np.empty((3, rows), np.int32),
            np.empty(rows, np.intp),
        )
        for _ in range(stripes)
    ]
    bins = np.zeros((stripes, 3 * tables.propensity.size), dtype=np.int64)

    def stripe(k):
        u, u4, codes, idx = buffers[k]
        for start in starts[k::stripes]:
            stop = min(start + chunk_rows, n)
            m = stop - start
            uniforms = stream.uniforms(start, m, u[:m])
            _simulate_chunk(tables, uniforms, _rows(sampled, start, stop), u4[:, :m], codes[:, :m], idx[:m], bins[k])

    if stripes == 1:
        stripe(0)
    else:
        with ThreadPoolExecutor(max_workers=stripes - 1) as pool:
            helpers = [pool.submit(stripe, k) for k in range(1, stripes)]
            stripe(0)
            for helper in helpers:
                helper.result()
    out[0][:] = day
    if arm is not None:
        out[8][:] = ARM_CODES[arm]
    log = Log(**dict(zip(LOG_COLUMNS, out)))
    bins = bins.sum(axis=0).reshape(gt.spec.cell_shape + (3,))
    counts = _bins_tally(bins, gt.sale_logit is not None, (int(day), int(day)))
    report = DayReport(
        day=int(day),
        arm=arm or "",
        samples=int(n),
        empirical_ctr=int(counts.clicks.sum()) / int(n),
        binomial_se=float(np.sqrt(expected * (1.0 - expected) / n)),
        expected_ctr=expected,
        oracle_ctr=oracle,
        regret=oracle - expected,
        model_trained_on=model_trained_on,
        features_used=policy.visibility,
    )
    return log, report, counts


def _retrain_day(cfg: ScenarioConfig, gt: GroundTruth, columns: tuple, day: int, arms) -> list:
    """Run day ``day`` of a retraining study into its rows of ``columns``.

    Each ``(arm, features, substream, train)`` of ``arms`` deploys an
    epsilon-greedy policy on the click model of ``features`` fit to the
    tally ``train`` (uniform when it is None) on stream ``(cfg.seed, day,
    substream)``.  One arm fills the day; of two, the first takes ``n // 2``
    rows.  Returns each arm's ``(DayReport, Tally)``.
    """
    n = cfg.samples_per_day
    bounds = (day * n, day * n + n // 2, (day + 1) * n) if len(arms) == 2 else (day * n, (day + 1) * n)
    done = []
    for (arm, features, substream, train), start, stop in zip(arms, bounds, bounds[1:]):
        if train is None:
            policy, trained_on = uniform_policy(cfg.spec), None
        else:
            model = fit_counts(FeatureSpec(tuple(features), ("a",), cfg.spec), train, target=TARGET_CLICK)
            policy, trained_on = epsilon_greedy(model, cfg.epsilon), model.training_day_range
        _, report, counts = run_day(
            gt, policy, stop - start, day, DayStream(cfg.seed, day, substream),
            model_trained_on=trained_on, arm=arm, out=_rows(columns, start, stop),
        )
        done.append((report, counts))
    return done


def scenario_feature_engineering(cfg: ScenarioConfig, day2_features=("x1", "x2")) -> ScenarioResult:
    """Daily retrain loop in which only day 2 deploys an x2-aware model.

    Day 0 explores uniformly.  From day 1 on, each day deploys an
    epsilon-greedy policy on a model fit to the previous day's log; the
    model sees only x1 except on day 2, which sees ``day2_features``.
    Day 3's covariate-blind refit therefore trains on confounded traffic;
    by day 4 the training window is clean again.

    Each day is written into its rows of the scenario's log and tallied
    once; the next day's model is fit from that tally.
    """
    gt = make_default_ground_truth(cfg.spec, cfg.seed, cfg.min_gap)
    columns = _empty_columns(gt, cfg.days * cfg.samples_per_day, with_arm=False)
    reports: list[DayReport] = []
    counts = None
    for day in range(cfg.days):
        features = day2_features if day == 2 else ("x1",)
        [(report, counts)] = _retrain_day(cfg, gt, columns, day, [(None, features, 0, counts)])
        reports.append(report)
    return ScenarioResult(gt=gt, reports=reports, log=Log._prevalidated(**dict(zip(LOG_COLUMNS, columns))))


def scenario_ab_test(
    cfg: ScenarioConfig,
    shared_log: bool = False,
    arm_b_features=("x1", "x2"),
) -> ABResult:
    """A/B test in which arm A fits x1-only models and arm B x2-aware ones.

    Traffic splits 50/50 from ``cfg.ab_start_day``.  Under a shared log
    both arms train on the union of the previous day's arms, so arm A
    keeps retraining on arm B's x2-aware traffic; under separate logs each
    arm trains only on its own previous day.  Both arms of the first split
    day train on the last common day, so a run of both regimes
    (``ab-test --both``) runs the days up to and including it once.

    Each day's rows, arm A's before arm B's, are written into the
    scenario's log and tallied once; a shared training log is the sum of
    the two arms' tallies.
    """
    return _ab_tests(cfg, (shared_log,), arm_b_features)[0]


def _ab_tests(cfg: ScenarioConfig, regimes, arm_b_features=("x1", "x2")) -> list:
    """:func:`scenario_ab_test` for each ``shared_log`` of ``regimes``: the days up to
    and including the first split day run once, and each regime but the last
    continues in a copy of their columns."""
    if not 1 <= cfg.ab_start_day < cfg.days:
        raise ValueError("ab_start_day must lie in [1, days)")
    if cfg.samples_per_day < 2:
        raise ValueError("samples_per_day must be at least 2 to split each A/B day between arms A and B")
    gt = make_default_ground_truth(cfg.spec, cfg.seed, cfg.min_gap)
    columns = _empty_columns(gt, cfg.days * cfg.samples_per_day, with_arm=True)
    common_reports: list[DayReport] = []
    counts = None
    for day in range(cfg.ab_start_day):
        [(report, counts)] = _retrain_day(cfg, gt, columns, day, [("", ("x1",), 0, counts)])
        common_reports.append(report)
    arms = lambda train_a, train_b: [("A", ("x1",), 1, train_a), ("B", arm_b_features, 2, train_b)]
    first = _retrain_day(cfg, gt, columns, cfg.ab_start_day, arms(counts, counts))
    results = []
    for i, shared_log in enumerate(regimes):
        cols = columns if i == len(regimes) - 1 else tuple(None if c is None else c.copy() for c in columns)
        (report_a, train_a), (report_b, train_b) = first
        arm_reports = {"A": [report_a], "B": [report_b]}
        for day in range(cfg.ab_start_day + 1, cfg.days):
            if shared_log:
                train_a = train_b = sum_tallies([train_a, train_b])
            (report_a, train_a), (report_b, train_b) = _retrain_day(cfg, gt, cols, day, arms(train_a, train_b))
            arm_reports["A"].append(report_a)
            arm_reports["B"].append(report_b)
        log = Log._prevalidated(**dict(zip(LOG_COLUMNS, cols)))
        results.append(ABResult(gt, shared_log, list(common_reports), arm_reports, log))
    return results


def _exploration_day(cfg: ScenarioConfig, gt: GroundTruth | None, with_sales: bool = False):
    """The environment of a comparison study and its uniform exploration day.

    ``gt`` is drawn when None and must otherwise match ``cfg.spec``; with
    ``with_sales`` it must carry a sale mechanism.  Both are checked before
    any row is drawn.  Returns ``gt`` and the log, report and tally of day 0.
    """
    if gt is None:
        gt = make_default_ground_truth(cfg.spec, cfg.seed, cfg.min_gap, with_sales=with_sales)
    elif gt.spec != cfg.spec:
        raise ValueError("gt.spec must match cfg.spec")
    if with_sales and gt.sale_logit is None:
        raise ValueError("click/sale study needs an environment with a sale mechanism")
    return (gt, *run_day(gt, uniform_policy(cfg.spec), cfg.samples_per_day, 0, DayStream(cfg.seed, 0, 0)))


def scenario_click_sale(
    cfg: ScenarioConfig,
    x_prime=("x1",),
    x_dprime=("x2",),
    gt: GroundTruth | None = None,
) -> ComparisonResult:
    """Modularised click/sale sub-models with mismatched covariate views.

    One uniform exploration day is logged; a sale-given-click model is fit
    on ``x_prime`` and a click model on ``x_dprime``.  The deployed policy
    maximises their product per context.  The study compares its exact
    click-then-sale rate against the same construction given both
    covariates, and against the true-mechanism optimum.

    ``gt`` overrides the default environment draw, e.g. to study a
    separable mechanism; it must carry a sale mechanism.
    """
    if cfg.spec.n_decisions is not None:
        raise ValueError("click/sale study is defined for single-decision specs")
    gt, log, log_report, counts = _exploration_day(cfg, gt, with_sales=True)

    def product_policy(sale_feats, click_feats):
        sale_model = fit_counts(FeatureSpec(sale_feats, ("a",), cfg.spec), counts, TARGET_SALE_GIVEN_CLICK)
        click_model = fit_counts(FeatureSpec(click_feats, ("a",), cfg.spec), counts, TARGET_CLICK)
        best = np.argmax(prediction_table(sale_model) * prediction_table(click_model), axis=-1)
        return greedy_policy(cfg.spec, best, _covariate_union(sale_feats, click_feats))

    mismatched = product_policy(x_prime, x_dprime)
    full = product_policy(("x1", "x2"), ("x1", "x2"))
    oracle_best = np.argmax(sigmoid(gt.sale_logit) * sigmoid(gt.click_logit), axis=-1)
    oracle = greedy_policy(cfg.spec, oracle_best, ("x1", "x2"))
    entries = [
        ComparisonEntry(variant, expected_policy_click_sale_rate(gt, pol), detail=detail)
        for variant, pol, detail in (
            ("mismatched", mismatched, f"sale:{_subset_text(x_prime)}|click:{_subset_text(x_dprime)}"),
            ("full", full, "sale:x1+x2|click:x1+x2"),
            ("oracle", oracle, "true mechanism"),
        )
    ]
    return ComparisonResult(gt, tuple(x_prime), tuple(x_dprime), log_report, entries, log)


def default_two_decision_search(seed: int, trace_path: str | None = None) -> SearchConfig:
    """Search settings the two-decision study uses when none are given.

    The library default step size (0.1) leaves the softmax heads too
    diffuse to overtake a deterministic product policy within the default
    iteration budget; the study runs the search hot enough to converge.
    """
    return SearchConfig(learning_rate=0.5, seed=seed, trace_path=trace_path)


def scenario_two_decision(
    cfg: ScenarioConfig,
    x_prime=("x1",),
    x_dprime=("x2",),
    search: SearchConfig | None = None,
    gt: GroundTruth | None = None,
) -> ComparisonResult:
    """Two coupled decisions: joint model vs. independent vs. learned factored.

    Requires ``cfg.spec.n_decisions``.  On one uniform exploration day the
    study fits (i) a joint model over both decisions, deployed by joint
    argmax; (ii) two independent sub-models, each seeing its own covariate
    subset and ignoring the other decision, deployed as a product of
    per-factor argmaxes; (iii) a factored softmax policy initialised at the
    independent fits and optimised against the joint model's predicted
    reward by the score-function estimator.  All variants are evaluated by
    exact enumeration, both under the true mechanism (``value``) and under
    the joint model (``model_value``).

    ``gt`` overrides the default environment draw, e.g. to study a
    mechanism additively separable in the two decisions.
    """
    spec = cfg.spec
    if spec.n_decisions is None:
        raise ValueError("two-decision scenario requires a spec with n_decisions")
    gt, log, log_report, counts = _exploration_day(cfg, gt)
    joint_model = fit_counts(FeatureSpec(("x1", "x2"), ("a", "d"), spec), counts, target=TARGET_CLICK)
    joint_pol = epsilon_greedy(joint_model, 0.0)

    action_model = fit_counts(FeatureSpec(x_prime, ("a",), spec), counts, target=TARGET_CLICK)
    decision_model = fit_counts(FeatureSpec(x_dprime, ("d",), spec), counts, target=TARGET_CLICK)
    best_a = np.argmax(prediction_table(action_model)[:, :, :, 0], axis=-1)
    best_d = np.argmax(prediction_table(decision_model)[:, :, 0, :], axis=-1)
    independent_pol = greedy_policy(
        spec, best_a * spec.n_decisions + best_d, _covariate_union(x_prime, x_dprime)
    )

    init = FactoredPolicyParams(
        spec=spec,
        action_context=tuple(x_prime),
        decision_context=tuple(x_dprime),
        action_logits=action_model.beta.reshape(context_count(x_prime, spec), spec.n_actions),
        decision_logits=decision_model.beta.reshape(context_count(x_dprime, spec), spec.n_decisions),
    )
    if search is None:
        search = default_two_decision_search(cfg.seed)
    final_params = reinforce_optimize(joint_model, init, search, gt)
    reinforce_pol = to_joint(final_params)

    table = prediction_table(joint_model)
    entries = [
        ComparisonEntry(variant, expected_policy_ctr(gt, pol), policy_value(gt, pol, table), detail)
        for variant, pol, detail in (
            ("joint_argmax", joint_pol, "joint model over (a, d)"),
            ("independent_factored", independent_pol, f"a:{_subset_text(x_prime)}|d:{_subset_text(x_dprime)}"),
            ("reinforce_factored", reinforce_pol, "optimised against the joint model"),
        )
    ]
    return ComparisonResult(gt, tuple(x_prime), tuple(x_dprime), log_report, entries, log, final_params)
