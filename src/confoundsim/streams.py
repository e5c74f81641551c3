"""Counter-based random streams for replayable, chunkable simulation.

Every simulated interaction consumes exactly :data:`UNIFORMS_PER_ROW`
64-bit words from a Philox counter-based generator keyed by
``(seed, day, substream)``.  The stream hands out each word's top 53 bits
``k``, the integer behind numpy's uniform double ``k * 2**-53``, and the
row sampler compares those integers with integer thresholds, so no double
is made for a draw.  Because the generator can be advanced to any draw
index in O(1), a day can be simulated in chunks of any size, in any order,
serially or in parallel, and the resulting log is byte-identical.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import UNIFORM_BITS, _check_count

__all__ = ["UNIFORMS_PER_ROW", "DayStream"]

# Fixed per-row budget: x1, x2, action cell, click, sale, plus three spare
# words.  Unused draws are still consumed, though not stored, so row i
# always starts at draw offset i * UNIFORMS_PER_ROW.  The stride is 8
# because Philox advances in blocks of 4 sixty-four-bit outputs; two whole
# blocks per row keep every row start block-aligned.
UNIFORMS_PER_ROW = 8
_DRAWS_PER_BLOCK = 4
# numpy's uniform double from a 64-bit word w is (w >> 11) * 2**-53.
_SHIFT = 64 - UNIFORM_BITS
# Rows per random_raw call while filling a block: one call's raw words
# (64 KiB, all 8 of each row) stay in cache and below glibc's mmap
# threshold, and are shifted straight into the block's word rows, so no
# chunk-sized transient is allocated.
_FILL_ROWS = 1024

# One Philox bit generator per thread.  Every call sets its whole state
# before drawing, so nothing carries over between calls; a fresh
# np.random.Philox(key=...) per call would draw OS entropy for a seed that
# the key then overrides.
_local = threading.local()


@dataclass(frozen=True)
class DayStream:
    """Replayable uniform stream for one simulated day.

    Parameters
    ----------
    seed : int
        Run-level seed, nonnegative.
    day : int
        Day index, nonnegative; distinct days get independent streams.
    substream : int
        Nonnegative tag separating streams that share a (seed, day) pair,
        e.g. concurrent A/B arms.
    """

    seed: int
    day: int
    substream: int = 0

    def __post_init__(self):
        for name in ("seed", "day", "substream"):
            _check_count(name, getattr(self, name))

    @cached_property
    def _state(self) -> dict:
        """The Philox state at the stream's first draw, derived once per
        stream.  It is kept in the instance ``__dict__``, outside the
        dataclass fields, so equality, hashing and repr see only
        ``(seed, day, substream)``."""
        ss = np.random.SeedSequence([int(self.seed), int(self.day), int(self.substream)])
        state = np.random.Philox(0).state  # a zero counter and an empty buffer
        state["state"]["key"] = ss.generate_state(2, np.uint64)
        return state

    def uniforms(self, start: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Draws for rows ``start .. start + count - 1``, as 53-bit integers.

        Returns a word-major ``(w, count)`` int64 array of ``k`` in
        ``[0, 2**53)``, whose row ``j`` holds word ``j`` of every drawn row,
        and which does not depend on how the row range is partitioned into
        calls.  Transposed, ``k * 2**-53`` is bit for bit the ``(count,
        UNIFORMS_PER_ROW)`` block of doubles that
        ``np.random.Generator(np.random.Philox(key)).random`` draws from the
        same position.  ``w`` is :data:`UNIFORMS_PER_ROW` by default.
        ``out``, as in numpy's ``out=``, is a C-contiguous int64 array of
        shape ``(w, count)`` with ``1 <= w <= UNIFORMS_PER_ROW`` to fill with
        each row's first ``w`` words and return instead of a fresh block;
        every row still consumes all its words of the stream.
        """
        _check_count("start", start)
        _check_count("count", count)
        if out is None:
            out = np.empty((UNIFORMS_PER_ROW, count), dtype=np.int64)
        elif (
            out.dtype != np.int64
            or out.ndim != 2
            or not 1 <= out.shape[0] <= UNIFORMS_PER_ROW
            or out.shape[1] != count
            or not out.flags.c_contiguous
        ):
            raise ValueError(
                f"out must be a C-contiguous int64 array of shape (w, {count}), 1 <= w <= {UNIFORMS_PER_ROW}"
            )
        if not hasattr(_local, "bit_generator"):
            _local.bit_generator = np.random.Philox(0)
        bit_generator = _local.bit_generator
        bit_generator.state = self._state
        bit_generator.advance(int(start) * UNIFORMS_PER_ROW // _DRAWS_PER_BLOCK)
        # Every k is below 2**63, so the uint64 view holds the same numbers
        # and the shift runs without a cast.
        words = out.view(np.uint64)
        w = len(words)
        for first in range(0, count, _FILL_ROWS):
            rows = words[:, first : first + _FILL_ROWS]
            raw = bit_generator.random_raw((rows.shape[1], UNIFORMS_PER_ROW))
            np.right_shift(raw[:, :w].T, _SHIFT, out=rows)
        return out
