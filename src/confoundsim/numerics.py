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


def _check_count(name: str, value, low: int = 0) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer of at least ``low``."""
    if not _is_count(value) or value < low:
        kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(low, f"an integer >= {low}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def _check_rate(name: str, value, low, high) -> None:
    """Raise ``ValueError`` unless ``value`` is a real number in ``[low, high]``; NaN is not."""
    if not _is_real(value) or not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value!r}")


def _check_probs(name: str, table: np.ndarray) -> None:
    """Raise ``ValueError`` unless every row (last axis) of ``table`` is
    nonnegative and sums to one within ``PROB_ATOL``; NaN fails both."""
    if not (np.all(table >= 0) and np.all(np.abs(table.sum(axis=-1) - 1.0) <= PROB_ATOL)):
        raise ValueError(f"{name} must be nonnegative and sum to one (within {PROB_ATOL:g})")


def softmax_rows(logits):
    """Row-wise softmax of a 2-d array, shifted for numerical stability."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# Philox and PCG64 make a uniform double as k * 2**-53 from the top 53 bits
# k of a 64-bit word.  The sampler compares those integers with integer
# thresholds instead: every float rule below is an integer rule on k.
UNIFORM_BITS = 53
_UNIFORM_SCALE = 2.0**UNIFORM_BITS

# Buckets of a guide table: a power of two, so a bucket is the top 8 bits of k.
GUIDE_BUCKETS = 256
_BUCKET_SHIFT = UNIFORM_BITS - 8


def _threshold(x, inclusive: bool) -> np.ndarray:
    """Int64 thresholds ``K`` of ``x`` on the integer uniforms ``k`` in ``[0, 2**53)``:
    ``K <= k`` exactly when ``x <= k * 2**-53`` (``inclusive``), or ``x < k * 2**-53``.
    ``x * 2**53`` is exact, so ``K`` is its ceiling, or its floor plus one, clipped
    to ``[0, 2**53]``; no ``k`` reaches ``2**53``."""
    scaled = np.asarray(x, dtype=np.float64) * _UNIFORM_SCALE
    bound = np.ceil(scaled) if inclusive else np.floor(scaled) + 1.0
    return np.clip(bound, 0.0, _UNIFORM_SCALE).astype(np.int64)


def _guide(cdf: np.ndarray, inclusive: bool) -> tuple:
    """Guide table (Chen & Asau, 1974) over the nondecreasing rows of ``cdf``.

    A draw counts the entries ``e`` of its row that its uniform passes,
    ``e <= u`` when ``inclusive`` and ``e < u`` otherwise, as integer
    thresholds ``K = _threshold(e, inclusive)`` at or below ``k``.  A ``k``
    in bucket ``b = k >> 45`` passes every threshold below the bucket and
    none at or above its upper edge ``(b + 1) << 45``, so a draw compares
    only the bucket's distinct thresholds, its levels.  Returns arrays
    ``(counts, values)``, one row per level and a last row, one column per
    slot ``row * GUIDE_BUCKETS + b``: ``values`` holds the levels, ascending,
    then the upper edge; ``counts`` the row entries below each value, which
    is the draw of a uniform that passes the levels before it."""
    rows = len(cdf)
    thresholds = _threshold(cdf, inclusive)
    # A threshold of 2**53 (an entry at or above 1.0) lies in no bucket, and no k passes it.
    bucket = thresholds >> _BUCKET_SHIFT
    new_value = np.diff(thresholds, axis=1, prepend=-1) != 0
    r, j = np.nonzero(new_value & (bucket < GUIDE_BUCKETS))
    slot = r * GUIDE_BUCKETS + bucket[r, j]
    level = np.arange(len(slot)) - np.searchsorted(slot, slot)
    levels = int(level.max()) + 1 if len(slot) else 0
    edges = np.arange(1, GUIDE_BUCKETS + 1, dtype=np.int64) << _BUCKET_SHIFT
    values = np.tile(edges, (levels + 1, rows))
    values[level, slot] = thresholds[r, j]
    # Below a level lie the entries before its first; below an edge, those of its bucket or earlier ones.
    keys = np.arange(rows)[:, None] * (GUIDE_BUCKETS + 1) + bucket
    per_bucket = np.bincount(keys.ravel(), minlength=rows * (GUIDE_BUCKETS + 1)).reshape(rows, -1)[:, :-1]
    counts = np.tile(np.cumsum(per_bucket, axis=1, dtype=np.int32).ravel(), (levels + 1, 1))
    counts[level, slot] = j
    return counts, values


def _draw(counts, values, k: np.ndarray, rows, out: np.ndarray, idx, kbuf, bbuf) -> None:
    """Write into int32 ``out`` how many thresholds ``K`` of its row (``rows`` holds row * GUIDE_BUCKETS)
    each integer uniform ``k`` passes, ``K <= k``; ``idx``, ``kbuf``, ``bbuf`` are intp, int64, bool scratch."""
    np.right_shift(k, _BUCKET_SHIFT, out=idx)
    idx += rows
    # Levels ascend, so a uniform passes a prefix of them; each pass moves to the next level's row.
    # Every index is in range; take's default mode="raise" would buffer its out=.
    for _ in range(len(values) - 1):
        np.less_equal(values.take(idx, out=kbuf, mode="clip"), k, out=bbuf)
        np.add(idx, values.shape[1], out=idx, where=bbuf)
    counts.take(idx, out=out, mode="clip")
