"""Logistic regression on one-hot cross features, fit by exact MLE.

Because the design is saturated (one indicator per covariate-action cell,
no intercept), the likelihood decouples per cell and the maximum-likelihood
coefficient for a cell is the empirical log-odds of its outcome rate.  The
closed form is exact; an iterative solver is kept in the test suite only,
as an independent cross-check.

Fitted coefficients are clipped to ``+-LOGIT_CAP``: cells with outcome rate
exactly 0 or 1 get the capped value, and cells never visited keep a zero
coefficient (predicted probability one half).  A fitted model also records
each cell's training trials and successes, so consumers such as the
backdoor adjustment can tell an unvisited cell from a measured one and
attach a sampling error to what they compute from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureSpec, dim, encode
from .logs import Log
from .numerics import LOGIT_CAP, sigmoid

__all__ = [
    "TARGET_CLICK",
    "TARGET_SALE_GIVEN_CLICK",
    "FittedModel",
    "fit",
    "gradient",
    "log_likelihood",
    "predict",
    "prediction_table",
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

    def predict(self, x1, x2, a, d=None):
        return predict(self, x1, x2, a, d)

    def to_dict(self) -> dict:
        payload = {
            "feature_spec": self.feature_spec.to_dict(),
            "beta": self.beta.tolist(),
            "target": self.target,
            "training_day_range": list(self.training_day_range),
            "n_train": int(self.n_train),
        }
        if self.trials is not None:
            payload["trials"] = self.trials.tolist()
            payload["successes"] = self.successes.tolist()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FittedModel":
        return cls(
            feature_spec=FeatureSpec.from_dict(payload["feature_spec"]),
            beta=np.asarray(payload["beta"], dtype=np.float64),
            target=payload["target"],
            training_day_range=tuple(payload["training_day_range"]),
            n_train=payload["n_train"],
            trials=payload.get("trials"),
            successes=payload.get("successes"),
        )


def _training_arrays(log: Log, feature_spec: FeatureSpec, target: str):
    if len(log) == 0:
        raise ValueError("cannot fit on an empty log slice")
    if target == TARGET_CLICK:
        rows = log
        outcome = log.c.astype(np.float64)
    elif target == TARGET_SALE_GIVEN_CLICK:
        if log.s is None:
            raise ValueError("log has no sale outcomes; cannot fit a sale model")
        rows = log._take(log.c == 1)
        if len(rows) == 0:
            raise ValueError("no clicked records; cannot fit a sale-given-click model")
        outcome = rows.s.astype(np.float64)
    else:
        raise ValueError(f"target must be one of {_TARGETS}")
    d = rows.d if "d" in feature_spec.action_factors else None
    idx = encode(feature_spec, rows.x1, rows.x2, rows.a, d)
    return np.asarray(idx), outcome


def fit(
    log: Log,
    feature_spec: FeatureSpec,
    target: str = TARGET_CLICK,
    pseudo_count: float = 0.0,
) -> FittedModel:
    """Exact maximum-likelihood fit on a log slice.

    Parameters
    ----------
    log : Log
        Training slice.  Sale models use only its clicked records.
    feature_spec : FeatureSpec
        Cross-feature layout; covariates outside ``included`` are ignored.
    target : str
        ``"click"`` or ``"sale_given_click"``.
    pseudo_count : float
        Optional additive smoothing: cell rate ``(k + a) / (n + 2a)``.
        The default 0 is the plain MLE.

    Returns
    -------
    FittedModel
        Carries the per-cell ``trials`` and ``successes`` it was fit on.
    """
    if pseudo_count < 0:
        raise ValueError("pseudo_count must be nonnegative")
    idx, outcome = _training_arrays(log, feature_spec, target)
    size = dim(feature_spec)
    trials = np.bincount(idx, minlength=size)
    n = trials.astype(np.float64)
    k = np.bincount(idx, weights=outcome, minlength=size)
    beta = np.zeros(size, dtype=np.float64)
    visited = n > 0
    p = (k[visited] + pseudo_count) / (n[visited] + 2.0 * pseudo_count)
    with np.errstate(divide="ignore"):
        beta[visited] = np.clip(np.log(p) - np.log1p(-p), -LOGIT_CAP, LOGIT_CAP)
    return FittedModel(
        feature_spec=feature_spec,
        beta=beta,
        target=target,
        training_day_range=(int(log.day.min()), int(log.day.max())),
        n_train=int(len(outcome)),
        trials=trials,
        successes=k,
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


def log_likelihood(model: FittedModel, log: Log) -> float:
    """Bernoulli log-likelihood of the model's target on a log slice."""
    idx, outcome = _training_arrays(log, model.feature_spec, model.target)
    p = sigmoid(model.beta[idx])
    return float(np.sum(outcome * np.log(p) + (1.0 - outcome) * np.log1p(-p)))


def gradient(model: FittedModel, log: Log) -> np.ndarray:
    """Gradient of :func:`log_likelihood` in ``beta``.

    With one-hot features this is the per-cell sum of ``outcome - p``.
    """
    idx, outcome = _training_arrays(log, model.feature_spec, model.target)
    p = sigmoid(model.beta[idx])
    return np.bincount(idx, weights=outcome - p, minlength=dim(model.feature_spec))
