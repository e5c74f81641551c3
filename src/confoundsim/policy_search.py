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

Both sampled routes run one batch routine, bit-identical to the per-batch
reference in ``tests/oracles.py``.  A batch spends three runs of ``batch_size``
uniforms, for contexts, actions and decisions in that order; the search draws
them, the covariate cells and the row maps for a block of batches at once.  A
cell draw is the row sampler's guide-table x1 draw; an action or decision draw
counts the entries of its CDF row, less the last, strictly below the uniform,
which on a nondecreasing row is ``inverse_cdf``'s capped count.  Each head's
per-row score sums are one ``bincount``, which adds every bin's terms in sample
order as ``np.add.at`` does.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .environment import GroundTruth
from .glm import FittedModel, prediction_table
from .policy import FactoredPolicyParams
from .numerics import UNIFORM_BITS, _check_count, _draw, _guide, _is_real, softmax_rows

__all__ = [
    "SearchConfig",
    "estimate_gradient",
    "exact_objective",
    "reinforce_optimize",
]

BASELINES = ("running-mean", "none")


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
        _check_count("iterations", self.iterations)
        _check_count("batch_size", self.batch_size, 1)
        if self.baseline not in BASELINES:
            raise ValueError(f"baseline must be one of {BASELINES}")
        if not _is_real(self.baseline_decay) or not 0.0 <= self.baseline_decay < 1.0:
            raise ValueError("baseline_decay must lie in [0, 1)")
        _check_count("seed", self.seed)


# What a search reads besides the logits, fixed while it runs: the (k1, k2)-
# shaped reward table, covariate weights and head-row maps grid_*, and the
# guide table of the covariate CDF over flattened (x1, x2) cells without its
# last entry.  The batch routine reads table and grid_* by flat index.
_SearchInputs = namedtuple("_SearchInputs", "table weights grid_a grid_d cell_guide")

# Samples per block of draws: a block of max(1, BLOCK_SAMPLES // batch_size)
# iterations keeps its arrays small at any batch size.
BLOCK_SAMPLES = 16384


def _search_inputs(model: FittedModel, params: FactoredPolicyParams, gt: GroundTruth) -> _SearchInputs:
    if model.feature_spec.spec != params.spec or gt.spec != params.spec:
        raise ValueError("model, params, and ground truth must share one categorical spec")
    weights = gt.covariate_weights
    table = prediction_table(model)
    grid_a, grid_d = params.context_grids()
    return _SearchInputs(table, weights, grid_a, grid_d, _guide(np.cumsum(weights.ravel())[None, :-1], inclusive=True))


def _draw_columns(cdf: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column drawn by each uniform ``u[i]`` from CDF row ``cdf[rows[i]]``.

    Equal to ``inverse_cdf(cdf[rows], u)`` of ``tests/oracles.py``
    whenever each CDF row is nondecreasing: the count of entries strictly
    below ``u`` among all but the last is then the full count capped at
    the last column.
    """
    return (cdf[:, :-1].T.take(rows, axis=1) < u).sum(axis=0)


# Not environment.policy_value: multiplying the factors inside one four-operand
# einsum rounds differently from the three-operand one on the joint table, and
# this value reaches the search trace that artifacts record.
def _objective(inputs: _SearchInputs, action_logits: np.ndarray, decision_logits: np.ndarray) -> float:
    pi_a = softmax_rows(action_logits)[inputs.grid_a]
    pi_d = softmax_rows(decision_logits)[inputs.grid_d]
    return float(np.einsum("ij,ija,ijd,ijad->", inputs.weights, pi_a, pi_d, inputs.table))


def exact_objective(model: FittedModel, params: FactoredPolicyParams, gt: GroundTruth) -> float:
    """Expected model-predicted reward of the factored policy, by enumeration."""
    return _objective(_search_inputs(model, params, gt), params.action_logits, params.decision_logits)


def _draw_cells(guide: tuple, k: np.ndarray) -> np.ndarray:
    """Covariate cell of each integer uniform ``k`` (standing for ``k * 2**-53``) by the row
    sampler's x1 rule: the count of entries of the guide's CDF, without its last, at or below
    the uniform, as ``searchsorted(side="right")``."""
    cells, idx = np.empty(k.shape, dtype=np.int32), np.empty(k.shape, dtype=np.intp)
    _draw(*guide, k, 0, cells, idx, np.empty(k.shape, dtype=np.int64), np.empty(k.shape, dtype=np.bool_))
    return cells


def _draw_block(inputs: _SearchInputs, rng: np.random.Generator, iterations: int, batch_size: int):
    """Uniforms, head rows and reward base index ``cell * n_a * n_d`` of each sample of
    ``iterations`` batches.  PCG64 spends one 64-bit output per double, so the C-order fill
    is the stream of three ``rng.random(batch_size)`` calls per batch, in the reference's order.
    A double is ``k * 2**-53``, so ``u * 2**53`` gives the cell draw its exact integer ``k``."""
    u = rng.random((iterations, 3, batch_size))
    cells = _draw_cells(inputs.cell_guide, (u[:, 0] * 2.0**UNIFORM_BITS).astype(np.int64))
    per_cell = inputs.table[0, 0].size
    return u, inputs.grid_a.take(cells), inputs.grid_d.take(cells), np.multiply(cells, per_cell, dtype=np.intp)


def _head_gradient(pi, rows, chosen, advantage):
    """Per-context-row sums of ``advantage * (onehot(chosen) - pi[row])``.

    A score row is row ``row * n + chosen`` of the table ``eye[chosen] - pi[row]``: ``1.0 - pi``
    at ``chosen``, else ``-pi``, or ``+0.0`` for a ``pi`` of 0.0.  Its terms go to the bins
    ``row * n + column``; a ``bincount`` bin adds its terms in sample order from 0.0, so the
    sums are bit-identical to ``np.add.at`` into zeros.
    """
    n = pi.shape[1]
    score = (np.eye(n) - pi[:, None, :]).reshape(-1, n).take(rows * n + chosen, axis=0)
    score *= advantage[:, None]
    index = np.arange(pi.size).reshape(pi.shape).take(rows, axis=0).ravel()
    return np.bincount(index, weights=score.ravel(), minlength=pi.size).reshape(pi.shape)


def _batch_gradient(inputs, action_logits, decision_logits, u, rows_a, rows_d, base, baseline_value):
    # Every CDF below is nondecreasing (softmax rows of finite logits are
    # finite and nonnegative), so counting against all but its last entry
    # is the draw capped at the last column.
    pi_a = softmax_rows(action_logits)
    pi_d = softmax_rows(decision_logits)
    a = _draw_columns(np.cumsum(pi_a, axis=1), rows_a, u[1])
    d = _draw_columns(np.cumsum(pi_d, axis=1), rows_d, u[2])
    rewards = inputs.table.take(base + a * pi_d.shape[1] + d)
    advantage = rewards - baseline_value
    g_action = _head_gradient(pi_a, rows_a, a, advantage)
    g_decision = _head_gradient(pi_d, rows_d, d, advantage)
    g_action /= len(rewards)
    g_decision /= len(rewards)
    return g_action, g_decision, float(rewards.sum() / len(rewards))  # bit for bit rewards.mean()


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

    Draws a block of one batch and runs the batch routine of every
    :func:`reinforce_optimize` iteration on inputs built for this one call,
    so equal ``rng`` states give equal bits and equal states after.
    """
    inputs = _search_inputs(model, params, gt)
    _check_count("batch_size", batch_size, 1)
    draws = (block[0] for block in _draw_block(inputs, rng, 1, batch_size))
    return _batch_gradient(inputs, params.action_logits, params.decision_logits, *draws, baseline_value)


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
    the exact objective and the estimated gradient's norm, creating the
    trace's directory once the search's inputs are built.

    The search's fixed inputs, the covariate guide table among them, are
    built once.  Each block of ``max(1, BLOCK_SAMPLES // batch_size)``
    iterations draws its uniforms, cells and row maps at once; each
    iteration then runs :func:`estimate_gradient`'s batch routine on the
    bare logit matrices, which become a :class:`FactoredPolicyParams` at the
    end.  Equal settings give final logits and trace bytes equal to the
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
        Path(config.trace_path).parent.mkdir(parents=True, exist_ok=True)
        trace = open(config.trace_path, "w", encoding="utf-8")
        trace.write("iteration,exact_objective,gradient_norm\n")
    try:
        block = max(1, BLOCK_SAMPLES // config.batch_size)
        for first in range(0, config.iterations, block):
            draws = _draw_block(inputs, rng, min(block, config.iterations - first), config.batch_size)
            for iteration, draw in enumerate(zip(*draws), first):
                use_baseline = baseline if (config.baseline == "running-mean" and have_baseline) else 0.0
                g_action, g_decision, batch_mean = _batch_gradient(inputs, action, decision, *draw, use_baseline)
                action += config.learning_rate * g_action
                decision += config.learning_rate * g_decision
                if not (np.isfinite(action).all() and np.isfinite(decision).all()):
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
