"""Score-function policy search for factored two-decision policies.

The policy is a product of two independent softmax heads, one per
decision, each conditioned on its own covariate subset
(:class:`~confoundsim.policy.FactoredPolicyParams`).  The reward of a
joint action is the fitted model's predicted click probability, so the
objective is an expectation over contexts and both heads.

Because everything is categorical the objective and its gradient have
closed forms by enumeration (:func:`exact_objective`, and the gradient
oracle of ``tests/oracles.py``); the sampled estimator
(:func:`estimate_gradient`) and the plain stochastic-ascent loop
(:func:`reinforce_optimize`) are checked against them in tests.

Both sampled routes run one batch routine.  Each batch draws three runs
of ``batch_size`` uniforms, for contexts, actions and decisions in that
order, and its results are bit-identical to the per-batch reference in
``tests/oracles.py``: a draw counts the entries of its CDF row, less the
last, that lie strictly below the uniform, which on a nondecreasing row is
the capped count of ``inverse_cdf`` in ``tests/oracles.py``; the
per-row score sums are one ``bincount`` each, which adds every bin's
terms in sample order as ``np.add.at`` does.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .environment import GroundTruth
from .glm import FittedModel, prediction_table
from .policy import FactoredPolicyParams
from .numerics import softmax_rows

__all__ = [
    "SearchConfig",
    "estimate_gradient",
    "exact_objective",
    "reinforce_optimize",
]

BASELINES = ("running-mean", "none")


# bool is an int, so True would pass as a count or a rate of 1.
def _is_count(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class SearchConfig:
    """Stochastic-ascent settings.

    ``baseline`` is ``"running-mean"`` (exponential moving average of the
    batch mean reward, decay :attr:`baseline_decay`, applied before each
    update so the estimator stays unbiased given the past) or ``"none"``.
    """

    learning_rate: float = 0.1
    iterations: int = 2000
    batch_size: int = 1024
    baseline: str = "running-mean"
    baseline_decay: float = 0.9
    seed: int = 0
    trace_path: str | None = None

    def __post_init__(self):
        if not _is_real(self.learning_rate) or not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not _is_count(self.iterations) or self.iterations < 0:
            raise ValueError("iterations must be a nonnegative integer")
        if not _is_count(self.batch_size) or self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if self.baseline not in BASELINES:
            raise ValueError(f"baseline must be one of {BASELINES}")
        if not _is_real(self.baseline_decay) or not 0.0 <= self.baseline_decay < 1.0:
            raise ValueError("baseline_decay must lie in [0, 1)")
        if not _is_count(self.seed) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


# What a search reads besides the logits, fixed while it runs.  table and
# grid_* (k1, k2)-shaped serve the exact objective; the batch routine reads
# the flat reward table, the covariate CDF over flattened (x1, x2) cells
# without its last entry, the flat cell -> head-row maps rows_*, and each
# head's bin table bins_*[r, c] = r * n_cols + c.
_SearchInputs = namedtuple(
    "_SearchInputs", "table weights grid_a grid_d rewards cell_cdf rows_a rows_d bins_a bins_d"
)


def _bins(n_rows: int, n_cols: int) -> np.ndarray:
    return np.arange(n_rows * n_cols).reshape(n_rows, n_cols)


def _search_inputs(model: FittedModel, params: FactoredPolicyParams, gt: GroundTruth) -> _SearchInputs:
    if model.feature_spec.spec != params.spec or gt.spec != params.spec:
        raise ValueError("model, params, and ground truth must share one categorical spec")
    weights = gt.covariate_weights
    table = prediction_table(model)
    grid_a, grid_d = params.context_grids()
    return _SearchInputs(
        table,
        weights,
        grid_a,
        grid_d,
        table.ravel(),
        np.cumsum(weights.ravel())[:-1],
        grid_a.ravel(),
        grid_d.ravel(),
        _bins(*params.action_logits.shape),
        _bins(*params.decision_logits.shape),
    )


def _row_sums(bins: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``out[r, c]`` sums ``values[..., c]`` over every position where ``rows`` is r.

    ``bins`` is the ``(n_rows, n_cols)`` table of flat bin indices.  Each
    ``bincount`` bin adds its values in input order from 0.0, so the sums
    are bit-identical to ``np.add.at`` into zeros.
    """
    index = bins.take(rows, axis=0).ravel()
    return np.bincount(index, weights=values.ravel(), minlength=bins.size).reshape(bins.shape)


def _draw_columns(cdf: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column drawn by each uniform ``u[i]`` from CDF row ``cdf[rows[i]]``.

    Equal to ``inverse_cdf(cdf[rows], u)`` of ``tests/oracles.py``
    whenever each CDF row is nondecreasing: the count of entries strictly
    below ``u`` among all but the last is then the full count capped at
    the last column.
    """
    return (cdf[:, :-1].T.take(rows, axis=1) < u).sum(axis=0)


def _objective(inputs: _SearchInputs, action_logits: np.ndarray, decision_logits: np.ndarray) -> float:
    pi_a = softmax_rows(action_logits)[inputs.grid_a]
    pi_d = softmax_rows(decision_logits)[inputs.grid_d]
    return float(np.einsum("ij,ija,ijd,ijad->", inputs.weights, pi_a, pi_d, inputs.table))


def exact_objective(model: FittedModel, params: FactoredPolicyParams, gt: GroundTruth) -> float:
    """Expected model-predicted reward of the factored policy, by enumeration."""
    return _objective(_search_inputs(model, params, gt), params.action_logits, params.decision_logits)


def _score_sums(
    probs: np.ndarray, bins: np.ndarray, rows: np.ndarray, chosen: np.ndarray, advantage: np.ndarray
) -> np.ndarray:
    """Per-context-row sums of ``advantage * (onehot(chosen) - probs[row])``."""
    score = (-probs).take(rows, axis=0)
    score[np.arange(len(rows)), chosen] += 1.0
    score *= advantage[:, None]
    return _row_sums(bins, rows, score)


def _batch_gradient(inputs, action_logits, decision_logits, rng, batch_size, baseline_value):
    # Uniforms are drawn for contexts, then actions, then decisions; the
    # frozen two-decision seeds rest on this order.  Every CDF below is
    # nondecreasing (covariate weights are nonnegative, and softmax rows of
    # finite logits are finite and nonnegative), so counting against all
    # but its last entry is the draw capped at the last column.
    cells = np.searchsorted(inputs.cell_cdf, rng.random(batch_size), side="right")
    rows_a = inputs.rows_a.take(cells)
    rows_d = inputs.rows_d.take(cells)
    pi_a = softmax_rows(action_logits)
    pi_d = softmax_rows(decision_logits)
    a = _draw_columns(np.cumsum(pi_a, axis=1), rows_a, rng.random(batch_size))
    d = _draw_columns(np.cumsum(pi_d, axis=1), rows_d, rng.random(batch_size))
    n_a, n_d = pi_a.shape[1], pi_d.shape[1]
    rewards = inputs.rewards.take((cells * n_a + a) * n_d + d)
    advantage = rewards - baseline_value
    g_action = _score_sums(pi_a, inputs.bins_a, rows_a, a, advantage)
    g_decision = _score_sums(pi_d, inputs.bins_d, rows_d, d, advantage)
    g_action /= batch_size
    g_decision /= batch_size
    return g_action, g_decision, float(rewards.mean())


def estimate_gradient(
    model: FittedModel,
    params: FactoredPolicyParams,
    gt: GroundTruth,
    rng: np.random.Generator,
    batch_size: int,
    baseline_value: float = 0.0,
):
    """One-batch score-function estimate of the gradient of :func:`exact_objective`.

    Contexts are drawn from the true covariate distribution, actions from
    the two heads; each sample contributes
    ``(reward - baseline_value) * (onehot - pi)`` to its context's logit
    row.  The estimate is unbiased for any ``baseline_value`` fixed before
    the batch.  Returns ``(g_action, g_decision, batch_mean_reward)``.

    Runs the batch routine of every :func:`reinforce_optimize` iteration on
    inputs built for this one call, so equal ``rng`` states give equal bits.
    """
    inputs = _search_inputs(model, params, gt)
    if not _is_count(batch_size) or batch_size < 1:
        raise ValueError("batch_size must be a positive integer")
    return _batch_gradient(
        inputs, params.action_logits, params.decision_logits, rng, batch_size, baseline_value
    )


def reinforce_optimize(
    model: FittedModel,
    init: FactoredPolicyParams,
    config: SearchConfig,
    gt: GroundTruth,
) -> FactoredPolicyParams:
    """Plain stochastic ascent on the factored policy's logits.

    Starts from ``init`` and runs ``config.iterations`` batches.  Raises
    ``RuntimeError`` if the parameters stop being finite or if the final
    exact objective falls more than 1e-6 below the initial one.  When
    ``config.trace_path`` is set, appends one CSV row per iteration with
    the exact objective and the estimated gradient's norm.

    The flat reward table, the covariate CDF, the cell-to-row maps and
    each head's bincount bin table are built once per search; each
    iteration runs :func:`estimate_gradient`'s batch routine on the bare
    logit matrices, which become a :class:`FactoredPolicyParams` at the end.
    Equal settings give final logits and trace bytes equal to the
    per-iteration reference loop in ``tests/oracles.py``.
    """
    inputs = _search_inputs(model, init, gt)
    action = init.action_logits.copy()
    decision = init.decision_logits.copy()
    start = _objective(inputs, action, decision)
    rng = np.random.default_rng(config.seed)
    baseline = 0.0
    have_baseline = False
    trace = None
    if config.trace_path is not None:
        trace = open(config.trace_path, "w", encoding="utf-8")
        trace.write("iteration,exact_objective,gradient_norm\n")
    try:
        for iteration in range(config.iterations):
            use_baseline = baseline if (config.baseline == "running-mean" and have_baseline) else 0.0
            g_action, g_decision, batch_mean = _batch_gradient(
                inputs, action, decision, rng, config.batch_size, use_baseline
            )
            action += config.learning_rate * g_action
            decision += config.learning_rate * g_decision
            if not (np.all(np.isfinite(action)) and np.all(np.isfinite(decision))):
                raise RuntimeError("policy search diverged: non-finite logits")
            if config.baseline == "running-mean":
                if have_baseline:
                    baseline = config.baseline_decay * baseline + (1.0 - config.baseline_decay) * batch_mean
                else:
                    baseline = batch_mean
                    have_baseline = True
            if trace is not None:
                norm = float(np.sqrt((g_action ** 2).sum() + (g_decision ** 2).sum()))
                objective = _objective(inputs, action, decision)
                trace.write(f"{iteration},{objective!r},{norm!r}\n")
    finally:
        if trace is not None:
            trace.close()
    final = _objective(inputs, action, decision)
    if not np.isfinite(final) or final < start - 1e-6:
        raise RuntimeError(
            f"policy search failed to hold its ground: objective {start:.6f} -> {final:.6f}"
        )
    return replace(init, action_logits=action, decision_logits=decision)
