"""Streams drawn from several threads: each thread rewinds its own generator."""

import sys
import threading

import numpy as np

from confoundsim.streams import UNIFORMS_PER_ROW, DayStream

CHUNK = 37
CHUNKS = 96
# More threads than a two-CPU machine has, each taking every THREADS-th chunk.
THREADS = 3


def test_threads_drawing_interleaved_chunks_get_the_serial_bytes():
    """Threads take interleaved chunks of two streams in lock step, so every
    draw follows one of another thread's or one of another stream's."""
    streams = [DayStream(seed=9, day=3, substream=0), DayStream(seed=9, day=3, substream=1)]
    serial = [s.uniforms(0, CHUNK * CHUNKS) for s in streams]
    got = [np.full_like(u, -1.0) for u in serial]
    barrier = threading.Barrier(THREADS)
    errors = []

    def draw(first):
        try:
            for chunk in range(first, CHUNKS, THREADS):
                for stream, out in zip(streams, got):
                    rows = slice(chunk * CHUNK, (chunk + 1) * CHUNK)
                    stream.uniforms(rows.start, CHUNK, out[rows])
                    barrier.wait(timeout=30)
        except Exception as exc:  # surfaced in the main thread below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=draw, args=(first,)) for first in range(THREADS)]
    # Switch threads as often as the interpreter allows, so that one
    # thread's draw can start inside another's.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for u, want in zip(got, serial):
        assert u.shape == (CHUNK * CHUNKS, UNIFORMS_PER_ROW)
        assert u.tobytes() == want.tobytes()
