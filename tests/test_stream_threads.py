"""Streams drawn from several threads: each thread rewinds its own generator."""

import sys
import threading

import numpy as np
import pytest

from confoundsim.streams import UNIFORMS_PER_ROW, DayStream

CHUNK = 37
CHUNKS = 96

# Two threads, and more threads than a two-CPU machine has, each taking
# every threads-th chunk into a word-major block of w words per row.
@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("w", [4, UNIFORMS_PER_ROW])
def test_threads_drawing_interleaved_chunks_get_the_serial_bytes(threads, w):
    """Threads take interleaved chunks of two streams in lock step, so every
    draw follows one of another thread's or one of another stream's."""
    streams = [DayStream(seed=9, day=3, substream=0), DayStream(seed=9, day=3, substream=1)]
    serial = [s.uniforms(0, CHUNK * CHUNKS) for s in streams]
    # got[stream][chunk] is that chunk's contiguous (w, CHUNK) block.
    got = [np.full((CHUNKS, w, CHUNK), -1, dtype=np.int64) for _ in streams]
    barrier = threading.Barrier(threads)
    errors = []

    def draw(first):
        try:
            for chunk in range(first, CHUNKS, threads):
                for stream, out in zip(streams, got):
                    stream.uniforms(chunk * CHUNK, CHUNK, out[chunk])
                    barrier.wait(timeout=30)
        except Exception as exc:  # surfaced in the main thread below
            errors.append(exc)
            barrier.abort()

    workers = [threading.Thread(target=draw, args=(first,)) for first in range(threads)]
    # Switch threads as often as the interpreter allows, so that one
    # thread's draw can start inside another's.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert not errors
    for blocks, want in zip(got, serial):
        u = np.concatenate(blocks, axis=1)
        assert u.shape == (w, CHUNK * CHUNKS)
        assert u.tobytes() == want[:w].tobytes()
