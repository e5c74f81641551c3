"""Counter-based random streams for replayable, chunkable simulation.

Every simulated interaction consumes exactly :data:`UNIFORMS_PER_ROW`
uniform doubles from a Philox counter-based generator keyed by
``(seed, day, substream)``.  Because the generator can be advanced to any
draw index in O(1), a day can be simulated in chunks of any size, in any
order, serially or in parallel, and the resulting log is byte-identical.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import _is_count

__all__ = ["UNIFORMS_PER_ROW", "DayStream"]

# Fixed per-row budget: x1, x2, action cell, click, sale, plus three spare
# columns.  Unused draws are still consumed so row i always starts at draw
# offset i * UNIFORMS_PER_ROW.  The stride is 8 because Philox advances in
# blocks of 4 sixty-four-bit outputs; two whole blocks per row keep every
# row start block-aligned.
UNIFORMS_PER_ROW = 8
_DRAWS_PER_BLOCK = 4

# One Philox generator per thread.  Every call sets its whole state before
# drawing, so nothing carries over between calls; a fresh
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
            value = getattr(self, name)
            if not _is_count(value) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")

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
        """Uniform draws for rows ``start .. start + count - 1``.

        Returns a ``(count, UNIFORMS_PER_ROW)`` float64 array that does not
        depend on how the row range is partitioned into calls.  ``out``, as
        in numpy's ``out=``, is a C-contiguous float64 array of that shape
        to fill and return instead of a fresh one.
        """
        if start < 0 or count < 0:
            raise ValueError("start and count must be nonnegative")
        # numpy fills an F-ordered out in memory order, which would put
        # each row's draws down a column.
        if out is not None and not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        if not hasattr(_local, "generator"):
            _local.generator = np.random.Generator(np.random.Philox(0))
        gen = _local.generator
        gen.bit_generator.state = self._state
        gen.bit_generator.advance(start * UNIFORMS_PER_ROW // _DRAWS_PER_BLOCK)
        return gen.random((count, UNIFORMS_PER_ROW), out=out)
