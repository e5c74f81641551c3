"""Ground-truth environment: exact categorical click/sale mechanisms.

The environment is a structural model over two categorical covariates and
a categorical action: ``x1 ~ p_x1``, ``x2 | x1 ~ p_x2_given_x1`` and a
Bernoulli click with probability ``sigmoid(click_logit[x1, x2, a])`` (plus
an optional decision axis, and an optional post-click sale mechanism).
Everything downstream of a policy is small enough to integrate by exact
enumeration, which is the primary evaluation route; sampling is used only
to generate logs.

:func:`confounding_gap` quantifies how far a naive covariate-blind fit on
logs produced by an x2-aware greedy policy would stray from the
interventional optimum, which is what makes an environment a useful
demonstration of confounding.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from .features import COVARIATE_FACTORS, CategoricalSpec, _canonical_subset
from .numerics import _check_count, _check_probs, _check_rate, sigmoid
from .policy import Policy, greedy_policy

__all__ = [
    "GroundTruth",
    "confounding_gap",
    "expected_policy_click_sale_rate",
    "expected_policy_ctr",
    "make_default_ground_truth",
    "make_separable_ground_truth",
    "marginal_click_prob",
    "oracle_policy",
    "policy_value",
]

# Default rejection-sampling budget for make_default_ground_truth.
DEFAULT_MAX_ROUNDS = 1000
# Ground-truth logits are drawn i.i.d. uniform on this interval.
LOGIT_RANGE = (-2.0, 2.0)


@dataclass
class GroundTruth:
    """Exact data-generating mechanism.

    Attributes
    ----------
    spec : CategoricalSpec
    p_x1 : ndarray
        ``(k1,)`` marginal distribution of ``x1``.
    p_x2_given_x1 : ndarray
        ``(k1, k2)`` row-stochastic conditional of ``x2`` given ``x1``.
    click_logit : ndarray
        ``(k1, k2, n_actions)`` or ``(k1, k2, n_actions, n_decisions)``.
    sale_logit : ndarray or None
        Optional ``(k1, k2, n_actions)`` post-click sale mechanism.
    seed, min_gap, gap : metadata recorded by the default constructor; they
        enter the environment's fingerprint.
    """

    spec: CategoricalSpec
    p_x1: np.ndarray
    p_x2_given_x1: np.ndarray
    click_logit: np.ndarray
    sale_logit: np.ndarray | None = None
    seed: int | None = None
    min_gap: float | None = None
    gap: float | None = None

    def __post_init__(self):
        self.p_x1 = np.asarray(self.p_x1, dtype=np.float64)
        self.p_x2_given_x1 = np.asarray(self.p_x2_given_x1, dtype=np.float64)
        self.click_logit = np.asarray(self.click_logit, dtype=np.float64)
        if self.sale_logit is not None:
            self.sale_logit = np.asarray(self.sale_logit, dtype=np.float64)
        spec = self.spec
        if self.p_x1.shape != (spec.k1,):
            raise ValueError("p_x1 must have shape (k1,)")
        if self.p_x2_given_x1.shape != (spec.k1, spec.k2):
            raise ValueError("p_x2_given_x1 must have shape (k1, k2)")
        if self.click_logit.shape != spec.cell_shape:
            raise ValueError(f"click_logit must have shape {spec.cell_shape}")
        if self.sale_logit is not None and self.sale_logit.shape != (spec.k1, spec.k2, spec.n_actions):
            raise ValueError("sale_logit must have shape (k1, k2, n_actions)")
        _check_probs("p_x1", self.p_x1)
        _check_probs("p_x2_given_x1 rows", self.p_x2_given_x1)
        for name in ("click_logit", "sale_logit"):
            t = getattr(self, name)
            if t is not None and not np.all(np.isfinite(t)):
                raise ValueError(f"{name} must be finite")

    @property
    def covariate_weights(self) -> np.ndarray:
        """Joint ``(k1, k2)`` covariate distribution ``p(x1) p(x2|x1)``."""
        return self.p_x1[:, None] * self.p_x2_given_x1

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "p_x1": self.p_x1.tolist(),
            "p_x2_given_x1": self.p_x2_given_x1.tolist(),
            "click_logit": self.click_logit.tolist(),
            "sale_logit": None if self.sale_logit is None else self.sale_logit.tolist(),
            "seed": self.seed,
            "min_gap": self.min_gap,
            "gap": self.gap,
        }

    def fingerprint(self) -> str:
        """SHA-256 of the canonical JSON of :meth:`to_dict`, keys sorted."""
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")).hexdigest()


def _click_cells(gt: GroundTruth) -> np.ndarray:
    """Click probabilities flattened to ``(k1, k2, action_cells)``."""
    sig = sigmoid(gt.click_logit)
    return sig.reshape(gt.spec.k1, gt.spec.k2, -1)


def marginal_click_prob(gt: GroundTruth) -> np.ndarray:
    """Interventional CTR ``P(c=1 | do(cell), x1)``, shape ``(k1, action_cells)``.

    Marginalises x2 with the true conditional ``p(x2 | x1)``; this is the
    backdoor-adjusted quantity a per-x1 decision should rank actions by.
    """
    return np.einsum("ij,ijc->ic", gt.p_x2_given_x1, _click_cells(gt))


def confounding_gap(gt: GroundTruth) -> float:
    """How much CTR a naive x1-only refit would give up, at the worst x1 state.

    For each x1 the oracle action maximises the interventional CTR.  The
    confounded action maximises the naive conditional estimate
    ``E[c | x1, cell]`` that a covariate-blind fit converges to on logs
    produced by an x2-aware greedy policy: cells the greedy policy selects
    for some x2 inherit their own skewed x2 population (the limit of the
    epsilon-greedy logging mix as exploration shrinks), while cells the
    greedy policy never selects are reached only through uniform
    exploration and keep the unskewed ``p(x2 | x1)``.  Both actions are
    evaluated under the true ``p(x2 | x1)``; the x1 state's gap is the CTR
    difference, zero when the two actions coincide.
    """
    cells = _click_cells(gt)
    marginal = marginal_click_prob(gt)
    greedy_onehot = np.argmax(cells, axis=-1)[..., None] == np.arange(cells.shape[-1])
    mass = gt.p_x2_given_x1[..., None] * greedy_onehot
    seen = mass.sum(axis=1)
    naive = np.divide((mass * cells).sum(axis=1), seen, out=marginal.copy(), where=seen > 0)
    a_conf = np.argmax(naive, axis=-1)[:, None]
    return float((marginal.max(axis=-1, keepdims=True) - np.take_along_axis(marginal, a_conf, axis=-1)).max())


def _rejection_draw(seed, max_rounds, propose, bar: float, what: str):
    """First ``(candidate, score)`` of ``propose(rng)`` whose score reaches
    ``bar``, all drawn from one stream seeded by ``seed``; ``RuntimeError``
    after ``max_rounds`` misses, naming ``what`` the score measures."""
    _check_count("seed", seed)
    _check_count("max_rounds", max_rounds, 1)
    rng = np.random.default_rng(seed)
    for _ in range(max_rounds):
        candidate, score = propose(rng)
        if score >= bar:
            return candidate, score
    raise RuntimeError(f"no {what} >= {bar} within {max_rounds} rounds (seed={seed})")


def make_default_ground_truth(
    spec: CategoricalSpec,
    seed: int,
    min_gap: float = 0.0,
    with_sales: bool = False,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> GroundTruth:
    """Draw a random environment, rejection-sampled to a confounding gap.

    Logits are i.i.d. uniform on ``LOGIT_RANGE``; ``p_x1`` and each row of
    ``p_x2_given_x1`` are flat-Dirichlet draws.  Candidates are drawn from
    a single seeded stream until ``confounding_gap >= min_gap``, so the
    result is deterministic given ``(spec, seed, min_gap)``.

    Parameters
    ----------
    spec : CategoricalSpec
    seed : int
    min_gap : float
        Required confounding gap, in [0, 0.2].  Positive values guarantee
        the covariate-blind refit story is visible at realistic sample
        sizes instead of depending on luck.
    with_sales : bool
        Also draw a post-click sale mechanism.
    max_rounds : int
        Rejection budget; exceeding it raises ``RuntimeError``.
    """
    _check_rate("min_gap", min_gap, 0, 0.2)
    lo, hi = LOGIT_RANGE

    def propose(rng):
        candidate = GroundTruth(
            spec=spec,
            p_x1=rng.dirichlet(np.ones(spec.k1)),
            p_x2_given_x1=rng.dirichlet(np.ones(spec.k2), size=spec.k1),
            click_logit=rng.uniform(lo, hi, size=spec.cell_shape),
            sale_logit=rng.uniform(lo, hi, size=(spec.k1, spec.k2, spec.n_actions)) if with_sales else None,
        )
        return candidate, confounding_gap(candidate)

    gt, gap = _rejection_draw(seed, max_rounds, propose, min_gap, "environment reached confounding_gap")
    return replace(gt, seed=int(seed), min_gap=float(min_gap), gap=float(gap))


def make_separable_ground_truth(
    spec: CategoricalSpec,
    seed: int,
    min_sep: float = 0.0,
    with_sales: bool = True,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> GroundTruth:
    """Draw an environment whose click and sale mechanisms are separable.

    The click logit depends only on ``(x2, a)`` and the sale logit only on
    ``(x1, a)``, so sub-models that each see exactly one covariate capture
    their mechanism with nothing to marginalise: the modularised product
    policy built from them coincides with the one built from fully visible
    sub-models.

    ``min_sep`` rejection-samples until, in every context, the best
    click-times-sale product beats the runner-up by at least ``min_sep``;
    finite-sample fits then reproduce the argmaxes instead of sitting on
    ties.  Requires a spec without a decision axis.
    """
    if spec.n_decisions is not None:
        raise ValueError("separable environments are defined for single-decision specs")
    _check_rate("min_sep", min_sep, 0, 0.2)
    lo, hi = LOGIT_RANGE

    def propose(rng):
        click_by_x2 = rng.uniform(lo, hi, size=(spec.k2, spec.n_actions))
        sale_by_x1 = rng.uniform(lo, hi, size=(spec.k1, spec.n_actions))
        candidate = GroundTruth(
            spec=spec,
            p_x1=rng.dirichlet(np.ones(spec.k1)),
            p_x2_given_x1=rng.dirichlet(np.ones(spec.k2), size=spec.k1),
            click_logit=np.broadcast_to(click_by_x2, spec.cell_shape).copy(),
            sale_logit=np.broadcast_to(sale_by_x1[:, None, :], spec.cell_shape).copy() if with_sales else None,
        )
        score = sigmoid(candidate.click_logit)
        if with_sales:
            score = score * sigmoid(candidate.sale_logit)
        top2 = np.sort(score, axis=-1)[..., -2:]
        return candidate, float(np.min(top2[..., 1] - top2[..., 0]))

    gt, _ = _rejection_draw(seed, max_rounds, propose, min_sep, "separable environment reached product separation")
    return replace(gt, seed=int(seed), min_gap=None, gap=None)


def policy_value(gt: GroundTruth, policy: Policy, reward) -> float:
    """Exact expected reward of a policy: ``sum p(x1, x2) pi(cell | x1, x2) reward[x1, x2, cell]``.

    ``reward`` has the spec's cell shape.  Every exact expectation of the
    package is this one enumeration over the covariate distribution.
    """
    spec = gt.spec
    if policy.spec != spec:
        raise ValueError("policy spec does not match the environment spec")
    if np.shape(reward) != spec.cell_shape:
        raise ValueError(f"reward must have shape {spec.cell_shape}")
    cells = np.reshape(reward, (spec.k1, spec.k2, -1))
    return float(np.einsum("ij,ijc,ijc->", gt.covariate_weights, policy.cell_probs(), cells))


def expected_policy_ctr(gt: GroundTruth, policy: Policy) -> float:
    """Exact CTR of a policy, by enumeration over all cells."""
    return policy_value(gt, policy, sigmoid(gt.click_logit))


def expected_policy_click_sale_rate(gt: GroundTruth, policy: Policy) -> float:
    """Exact rate of click-then-sale events under a policy."""
    if gt.sale_logit is None:
        raise ValueError("environment has no sale mechanism")
    if gt.spec.n_decisions is not None:
        raise ValueError("click-then-sale rate is defined for single-decision environments")
    return policy_value(gt, policy, sigmoid(gt.click_logit) * sigmoid(gt.sale_logit))


def oracle_policy(gt: GroundTruth, visibility) -> Policy:
    """Best deterministic policy at a given covariate visibility.

    ``visibility`` is a subset of ``("x1", "x2")``.  The oracle ranks the
    action cells of each visible context by their click mass
    ``sum p(x1, x2) sigmoid(logit)`` over the hidden covariates, which is
    the exact interventional CTR conditioned on that context times its
    probability, and puts all mass on the argmax (lowest index on ties, so
    cell 0 in a context of zero mass).
    """
    vis = _canonical_subset(visibility, COVARIATE_FACTORS, "covariate")
    hidden = tuple(axis for axis, name in enumerate(COVARIATE_FACTORS) if name not in vis)
    mass = (gt.covariate_weights[..., None] * _click_cells(gt)).sum(axis=hidden, keepdims=True)
    best = np.broadcast_to(np.argmax(mass, axis=-1), (gt.spec.k1, gt.spec.k2))
    return greedy_policy(gt.spec, best, vis)
