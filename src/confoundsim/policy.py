"""Stochastic policies over actions, conditioned on categorical contexts.

A :class:`Policy` is a full conditional probability table over actions (or
joint action/decision cells) per ``(x1, x2)`` context, together with the
``visibility`` contract: the set of covariates the table is allowed to
depend on.  :class:`FactoredPolicyParams` holds softmax logits for a pair
of independently parameterised factors, one over actions and one over
decisions, each seeing its own covariate subset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import (CategoricalSpec, _canonical_subset, _covariate_union, COVARIATE_FACTORS,
                       context_count, context_index)
from .glm import FittedModel, prediction_table
from .numerics import PROB_ATOL, _is_real, softmax_rows

__all__ = [
    "FactoredPolicyParams",
    "Policy",
    "epsilon_greedy",
    "to_joint",
    "uniform_policy",
]


@dataclass
class Policy:
    """Conditional action distribution per context.

    Attributes
    ----------
    spec : CategoricalSpec
    probs : ndarray
        ``(k1, k2, n_actions)`` or ``(k1, k2, n_actions, n_decisions)``;
        each context's distribution sums to one.
    visibility : tuple
        Covariates the table may depend on; the table must be constant
        along every covariate not listed.
    """

    spec: CategoricalSpec
    probs: np.ndarray
    visibility: tuple

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        expected = self.spec.cell_shape
        if self.probs.shape != expected:
            raise ValueError(f"probs shape {self.probs.shape} does not match spec {expected}")
        if np.any(self.probs < 0):
            raise ValueError("action probabilities must be nonnegative")
        sums = self.cell_probs().sum(axis=-1)
        if np.any(np.abs(sums - 1.0) > PROB_ATOL):
            raise ValueError("per-context action probabilities must sum to one")
        vis = _canonical_subset(self.visibility, COVARIATE_FACTORS, "covariate")
        object.__setattr__(self, "visibility", vis)
        if "x2" not in vis and not np.allclose(
            self.probs, self.probs[:, :1, ...], rtol=0.0, atol=PROB_ATOL
        ):
            raise ValueError("policy blind to x2 must not vary with x2")
        if "x1" not in vis and not np.allclose(
            self.probs, self.probs[:1, :, ...], rtol=0.0, atol=PROB_ATOL
        ):
            raise ValueError("policy blind to x1 must not vary with x1")

    def cell_probs(self) -> np.ndarray:
        """Probabilities flattened to ``(k1, k2, action_cells)``."""
        return self.probs.reshape(self.spec.k1, self.spec.k2, -1)


def uniform_policy(spec: CategoricalSpec) -> Policy:
    """Uniform exploration over all action cells; sees no covariates."""
    return Policy(
        spec=spec,
        probs=np.full(spec.cell_shape, 1.0 / spec.action_cells),
        visibility=(),
    )


def greedy_policy(spec: CategoricalSpec, best, visibility, epsilon: float = 0.0) -> Policy:
    """Policy favouring one action cell per context.

    ``best`` is a ``(k1, k2)`` array of flat action-cell indices.  Every
    cell gets ``epsilon / cells`` and each context's best cell a further
    ``1 - epsilon``; at the default ``epsilon`` 0 the policy is deterministic.
    """
    cells = spec.action_cells
    probs = np.full((spec.k1, spec.k2, cells), epsilon / cells)
    i, j = np.indices((spec.k1, spec.k2), sparse=True)
    probs[i, j, best] += 1.0 - epsilon
    return Policy(
        spec=spec, probs=probs.reshape(spec.cell_shape), visibility=visibility
    )


def epsilon_greedy(model: FittedModel, epsilon: float) -> Policy:
    """Epsilon-greedy policy on a fitted model's predictions.

    The argmax cell (lowest index on ties) receives mass
    ``1 - epsilon + epsilon / cells``; every other cell ``epsilon / cells``.
    Visibility is inherited from the model's included covariates.
    """
    if not _is_real(epsilon) or not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    spec = model.feature_spec.spec
    best = np.argmax(prediction_table(model).reshape(spec.k1, spec.k2, -1), axis=-1)
    return greedy_policy(spec, best, model.feature_spec.included, epsilon)


@dataclass
class FactoredPolicyParams:
    """Softmax logits of a factored policy ``pi(a|ctx') * pi(d|ctx'')``.

    ``action_logits`` has one row per context of ``action_context`` (a
    covariate subset) and one column per action; ``decision_logits``
    likewise for the decision factor.
    """

    spec: CategoricalSpec
    action_context: tuple
    decision_context: tuple
    action_logits: np.ndarray
    decision_logits: np.ndarray

    def __post_init__(self):
        if self.spec.n_decisions is None:
            raise ValueError("factored policies require a spec with n_decisions")
        ctx_a = _canonical_subset(self.action_context, COVARIATE_FACTORS, "covariate")
        ctx_d = _canonical_subset(self.decision_context, COVARIATE_FACTORS, "covariate")
        object.__setattr__(self, "action_context", ctx_a)
        object.__setattr__(self, "decision_context", ctx_d)
        self.action_logits = np.asarray(self.action_logits, dtype=np.float64)
        self.decision_logits = np.asarray(self.decision_logits, dtype=np.float64)
        shape_a = (context_count(ctx_a, self.spec), self.spec.n_actions)
        shape_d = (context_count(ctx_d, self.spec), self.spec.n_decisions)
        if self.action_logits.shape != shape_a:
            raise ValueError(f"action_logits must have shape {shape_a}")
        if self.decision_logits.shape != shape_d:
            raise ValueError(f"decision_logits must have shape {shape_d}")
        if not (np.all(np.isfinite(self.action_logits)) and np.all(np.isfinite(self.decision_logits))):
            raise ValueError("factored policy logits must be finite")

    def context_grids(self):
        """Context row index per ``(x1, x2)`` for both factors."""
        i, j = np.meshgrid(np.arange(self.spec.k1), np.arange(self.spec.k2), indexing="ij")
        ga = context_index(self.action_context, self.spec, i, j)
        gd = context_index(self.decision_context, self.spec, i, j)
        return np.asarray(ga), np.asarray(gd)


def to_joint(params: FactoredPolicyParams) -> Policy:
    """Expand factored softmax logits into a full joint policy table."""
    pa = softmax_rows(params.action_logits)
    pd = softmax_rows(params.decision_logits)
    ga, gd = params.context_grids()
    probs = pa[ga][:, :, :, None] * pd[gd][:, :, None, :]
    return Policy(
        spec=params.spec,
        probs=probs,
        visibility=_covariate_union(params.action_context, params.decision_context),
    )
