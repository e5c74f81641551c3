"""Shared numeric helpers: capped sigmoid, softmax, tolerances."""

from __future__ import annotations

import numpy as np

__all__ = [
    "LOGIT_CAP",
    "PROB_ATOL",
    "sigmoid",
    "softmax_rows",
]

# Log-odds are clipped to this magnitude everywhere, keeping every
# probability strictly inside (0, 1) and every fitted coefficient finite.
LOGIT_CAP = 15.0

# Absolute tolerance used when validating that probability rows sum to one.
PROB_ATOL = 1e-12


def sigmoid(logit):
    """Logistic function with log-odds clipped to ``+-LOGIT_CAP``.

    Parameters
    ----------
    logit : float or ndarray
        Log-odds; values beyond the cap saturate instead of reaching 0 or 1.

    Returns
    -------
    float or ndarray
        Probabilities strictly inside (0, 1).
    """
    z = np.clip(logit, -LOGIT_CAP, LOGIT_CAP)
    return 1.0 / (1.0 + np.exp(-z))


def softmax_rows(logits):
    """Row-wise softmax of a 2-d array, shifted for numerical stability."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
