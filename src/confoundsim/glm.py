"""Logistic regression on one-hot cross features, fit by exact MLE.

Because the design is saturated (one indicator per covariate-action cell,
no intercept), the likelihood decouples per cell and the maximum-likelihood
coefficient for a cell is the empirical log-odds of its outcome rate.  The
closed form is exact; an iterative solver is kept in the test suite only,
as an independent cross-check.

The fit therefore needs only integer cell counts.  :func:`tally` counts a
log once over the full ``(x1, x2, a[, d])`` grid, :func:`sum_tallies`
adds the tallies of several logs, and :func:`fit_counts` sums out the
factors a model does not see before taking the log-odds.  :func:`fit` is
the two steps in a row.

Fitted coefficients are clipped to ``+-LOGIT_CAP``: cells with outcome rate
exactly 0 or 1 get the capped value, and cells never visited keep a zero
coefficient (predicted probability one half).  A fitted model also records
each cell's training trials and successes, so consumers such as the
backdoor adjustment can tell an unvisited cell from a measured one and
attach a sampling error to what they compute from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .features import ACTION_FACTORS, COVARIATE_FACTORS, CategoricalSpec, FeatureSpec, dim, encode
from .logs import Log
from .numerics import LOGIT_CAP, sigmoid

__all__ = [
    "TARGET_CLICK",
    "TARGET_SALE_GIVEN_CLICK",
    "FittedModel",
    "Tally",
    "fit",
    "fit_counts",
    "predict",
    "prediction_table",
    "sum_tallies",
    "tally",
]

TARGET_CLICK = "click"
TARGET_SALE_GIVEN_CLICK = "sale_given_click"
_TARGETS = (TARGET_CLICK, TARGET_SALE_GIVEN_CLICK)


@dataclass
class FittedModel:
    """Coefficients of a fitted one-hot logistic model.

    Attributes
    ----------
    feature_spec : FeatureSpec
        Feature layout the coefficients refer to.
    beta : ndarray
        One coefficient per cross-feature cell, ``|beta| <= LOGIT_CAP``.
    target : str
        ``"click"`` or ``"sale_given_click"``.
    training_day_range : tuple
        ``(first_day, last_day)`` of the training slice.
    n_train : int
        Number of training records (after click filtering for sale models).
    trials, successes : ndarray or None
        Per-cell training records and positive outcomes, as counted by
        :func:`fit`.  ``None`` for models built by hand from known
        coefficients, which carry no sampling information.
    """

    feature_spec: FeatureSpec
    beta: np.ndarray
    target: str
    training_day_range: tuple
    n_train: int
    trials: np.ndarray | None = None
    successes: np.ndarray | None = None

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if self.beta.shape != (dim(self.feature_spec),):
            raise ValueError("beta length does not match the feature dimension")
        if not np.all(np.isfinite(self.beta)) or np.any(np.abs(self.beta) > LOGIT_CAP):
            raise ValueError(f"coefficients must be finite with |beta| <= {LOGIT_CAP}")
        if self.target not in _TARGETS:
            raise ValueError(f"target must be one of {_TARGETS}")
        if (self.trials is None) != (self.successes is None):
            raise ValueError("trials and successes must be given together")
        if self.trials is not None:
            self.trials = np.asarray(self.trials, dtype=np.int64)
            self.successes = np.asarray(self.successes, dtype=np.int64)
            if self.trials.shape != self.beta.shape or self.successes.shape != self.beta.shape:
                raise ValueError("trials and successes need one entry per cell")
            if np.any(self.successes < 0) or np.any(self.successes > self.trials):
                raise ValueError("cell counts must satisfy 0 <= successes <= trials")


class Tally(NamedTuple):
    """Integer cell counts of a log over the full ``(x1, x2, a[, d])`` grid.

    ``impressions``, ``clicks`` and ``sales`` (clicked sales) share one
    shape, with a ``d`` axis only when both the spec and the log have a
    decision factor.  ``sales`` is None for a log without sale outcomes.
    ``day_range`` is ``(first_day, last_day)``, or None for an empty log.
    """

    impressions: np.ndarray
    clicks: np.ndarray
    sales: np.ndarray | None
    day_range: tuple | None


def tally(log: Log, spec: CategoricalSpec) -> Tally:
    """Count impressions, clicks and clicked sales per cell in one ``bincount``.

    Each row lands in bin ``3 * cell + outcome``, with ``cell`` its :func:`encode`
    index over the full grid and outcome 0 for no click, 1 for a click without a
    sale and 2 for a clicked sale.  Every factor of every row must lie in range,
    including factors a model fit on the tally may not see.
    """
    n = len(log)
    if n and (log.c.min() < 0 or log.c.max() > 1):
        raise ValueError("click outcomes must be 0 or 1")
    actions = ACTION_FACTORS if spec.n_decisions is not None and log.d is not None else ("a",)
    idx = encode(FeatureSpec(COVARIATE_FACTORS, actions, spec), log.x1, log.x2, log.a, log.d) * 3 + log.c
    if log.s is not None:
        idx += log.s == 1
    shape = spec.cell_shape[: 2 + len(actions)]
    bins = np.bincount(idx, minlength=3 * math.prod(shape)).reshape(shape + (3,))
    # Rows are day-ordered, so the first and last rows bound the days.
    return _bins_tally(bins, log.s is not None, (int(log.day[0]), int(log.day[-1])) if n else None)


def _bins_tally(bins: np.ndarray, with_sales: bool, day_range: tuple | None) -> Tally:
    """The tally of per-cell outcome counts ``bins[..., outcome]`` laid out as in :func:`tally`."""
    clicks = bins[..., 1] + bins[..., 2]
    return Tally(
        impressions=bins[..., 0] + clicks,
        clicks=clicks,
        sales=bins[..., 2] if with_sales else None,
        day_range=day_range,
    )


def sum_tallies(parts) -> Tally:
    """The tally of the logs behind ``parts`` taken together.

    Sales are counted only if every part counts them.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to sum")
    ranges = [p.day_range for p in parts if p.day_range is not None]
    return Tally(
        impressions=sum(p.impressions for p in parts),
        clicks=sum(p.clicks for p in parts),
        sales=None if any(p.sales is None for p in parts) else sum(p.sales for p in parts),
        day_range=(min(r[0] for r in ranges), max(r[1] for r in ranges)) if ranges else None,
    )


def fit(
    log: Log,
    feature_spec: FeatureSpec,
    target: str = TARGET_CLICK,
) -> FittedModel:
    """Exact maximum-likelihood fit on a log slice: :func:`fit_counts` of its :func:`tally`.

    Parameters
    ----------
    log : Log
        Training slice.  Sale models use only its clicked records.
    feature_spec : FeatureSpec
        Cross-feature layout; covariates outside ``included`` are ignored.
    target : str
        ``"click"`` or ``"sale_given_click"``.

    Returns
    -------
    FittedModel
        Each visited cell's coefficient is the log-odds of its rate ``k / n``
        (the plain MLE, no smoothing), clipped to ``+-LOGIT_CAP``.  Carries
        the per-cell ``trials`` and ``successes`` it was fit on.
    """
    return fit_counts(feature_spec, tally(log, feature_spec.spec), target)


def fit_counts(
    feature_spec: FeatureSpec,
    counts: Tally,
    target: str = TARGET_CLICK,
) -> FittedModel:
    """Exact maximum-likelihood fit on a :class:`Tally`.

    Sums out the factors ``feature_spec`` does not see, then takes the
    log-odds of each visited cell's rate ``successes / trials``.  Click
    models count impressions and clicks, sale models clicks and clicked
    sales.  Arguments are as for :func:`fit`.
    """
    if not counts.impressions.any():
        raise ValueError("cannot fit on an empty log slice")
    if target == TARGET_CLICK:
        trials, successes = counts.impressions, counts.clicks
    elif target == TARGET_SALE_GIVEN_CLICK:
        if counts.sales is None:
            raise ValueError("log has no sale outcomes; cannot fit a sale model")
        if not counts.clicks.any():
            raise ValueError("no clicked records; cannot fit a sale-given-click model")
        trials, successes = counts.clicks, counts.sales
    else:
        raise ValueError(f"target must be one of {_TARGETS}")
    if trials.shape != feature_spec.spec.cell_shape[: trials.ndim]:
        raise ValueError("tally grid does not match the feature spec")
    grid = (COVARIATE_FACTORS + ACTION_FACTORS)[: trials.ndim]
    if "d" in feature_spec.action_factors and "d" not in grid:
        raise ValueError("action factor 'd' is required by this feature spec")
    hidden = tuple(axis for axis, name in enumerate(grid) if name not in feature_spec.factors)
    trials = trials.sum(axis=hidden).ravel()
    successes = successes.sum(axis=hidden).ravel()
    n = trials.astype(np.float64)
    k = successes.astype(np.float64)
    beta = np.zeros(len(n), dtype=np.float64)
    visited = n > 0
    p = k[visited] / n[visited]
    with np.errstate(divide="ignore"):
        beta[visited] = np.clip(np.log(p) - np.log1p(-p), -LOGIT_CAP, LOGIT_CAP)
    return FittedModel(
        feature_spec=feature_spec,
        beta=beta,
        target=target,
        training_day_range=counts.day_range,
        n_train=int(trials.sum()),
        trials=trials,
        successes=successes,
    )


def predict(model: FittedModel, x1, x2, a, d=None):
    """Predicted outcome probability, ``sigmoid(beta[encode(...)])``."""
    idx = encode(model.feature_spec, x1, x2, a, d)
    return sigmoid(model.beta[idx])


def prediction_table(model: FittedModel) -> np.ndarray:
    """Predictions over the full ``(k1, k2, a[, d])`` grid.

    Factors the model does not include are broadcast, so the table is
    constant along them.
    """
    shape = model.feature_spec.spec.cell_shape
    # encode ignores a d grid when the model does not score d.
    out = predict(model, *np.indices(shape, sparse=True))
    return np.broadcast_to(out, shape).copy()
