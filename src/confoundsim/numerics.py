"""Shared numeric helpers: capped sigmoid, softmax, guide-table draws, tolerances, type checks."""

from __future__ import annotations

from numbers import Integral, Real

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


# bool is an int, so True would pass as a count or a rate of 1.
def _is_count(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def softmax_rows(logits):
    """Row-wise softmax of a 2-d array, shifted for numerical stability."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# Buckets of a guide table.  A power of two, so ``u * GUIDE_BUCKETS`` and
# every bucket edge ``b / GUIDE_BUCKETS`` are exact in float64.
GUIDE_BUCKETS = 256


def _guide(cdf: np.ndarray) -> tuple:
    """Guide table (Chen & Asau, 1974) over the nondecreasing rows of ``cdf``.

    A uniform in bucket ``b = floor(u * GUIDE_BUCKETS)`` passes every entry
    below the bucket and none at or above its upper edge, so a draw compares
    only the bucket's distinct entry values, its levels.  Returns arrays
    ``(counts, values)``, one row per level and a last row, one column per
    slot ``row * GUIDE_BUCKETS + b``: ``values`` holds the levels, ascending,
    then the upper edge; ``counts`` the row entries below each value, which
    is the draw of a uniform that passes the levels before it."""
    rows = len(cdf)
    bucket = np.floor(cdf * GUIDE_BUCKETS)
    new_value = np.diff(cdf, axis=1, prepend=-1.0) != 0
    # An entry at or above 1.0 lies in no bucket, and no uniform passes it.
    r, j = np.nonzero(new_value & (bucket < GUIDE_BUCKETS))
    slot = r * GUIDE_BUCKETS + bucket[r, j].astype(np.intp)
    level = np.arange(len(slot)) - np.searchsorted(slot, slot)
    levels = int(level.max()) + 1 if len(slot) else 0
    values = np.tile(np.arange(1.0, GUIDE_BUCKETS + 1) / GUIDE_BUCKETS, (levels + 1, rows))
    values[level, slot] = cdf[r, j]
    # Below a level lie the entries before its first; below an edge, those of its bucket or earlier ones.
    keys = np.arange(rows)[:, None] * (GUIDE_BUCKETS + 1) + np.minimum(bucket, GUIDE_BUCKETS).astype(np.intp)
    per_bucket = np.bincount(keys.ravel(), minlength=rows * (GUIDE_BUCKETS + 1)).reshape(rows, -1)[:, :-1]
    counts = np.tile(np.cumsum(per_bucket, axis=1, dtype=np.int32).ravel(), (levels + 1, 1))
    counts[level, slot] = j
    return counts, values


def _draw(counts, values, compare: np.ufunc, u: np.ndarray, rows, out: np.ndarray, idx, fbuf, bbuf) -> None:
    """Write into int32 ``out`` how many entries ``e`` of its row (``rows`` holds row * GUIDE_BUCKETS)
    each uniform passes by ``compare(e, u)``; ``idx``, ``fbuf``, ``bbuf`` are intp, float64, bool scratch."""
    np.multiply(u, GUIDE_BUCKETS, out=idx, casting="unsafe")
    idx += rows
    # Levels ascend, so a uniform passes a prefix of them; each pass moves to the next level's row.
    for _ in range(len(values) - 1):
        compare(values.take(idx, out=fbuf), u, out=bbuf)
        np.add(idx, values.shape[1], out=idx, where=bbuf)
    counts.take(idx, out=out)
