"""Counter-based stream tests: determinism, substream independence, chunking."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from confoundsim.streams import UNIFORMS_PER_ROW, DayStream


def test_word_major_shape_and_range():
    k = DayStream(seed=0, day=0, substream=0).uniforms(0, 100)
    assert k.shape == (UNIFORMS_PER_ROW, 100)
    assert k.flags.c_contiguous
    assert k.dtype == np.int64
    assert np.all((k >= 0) & (k < 2**53))


def philox_doubles(seed, day, substream, rows):
    """numpy's own uniform doubles of a stream, row-major: a Generator over Philox keyed as DayStream keys it."""
    key = np.random.SeedSequence([seed, day, substream]).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random((rows, UNIFORMS_PER_ROW))


def row_major_doubles(k):
    """The doubles ``k * 2**-53`` of a word-major block, one row per drawn row."""
    return k.T * 2.0**-53


SPLITS = [
    [(0, 1000)],
    [(0, 1), (1, 999)],
    [(0, 999), (999, 1)],
    [(0, 100), (100, 400), (500, 500)],
    [(0, 7), (7, 13), (20, 480), (500, 500)],
]


@pytest.mark.parametrize("splits", SPLITS)
def test_scaled_draws_are_numpys_philox_doubles(splits):
    """k * 2**-53, transposed, is bit for bit what Generator(Philox).random draws, however
    the rows are split; the last call's 2,500 rows span several of the stream's fill blocks."""
    stream = DayStream(seed=11, day=4, substream=2)
    want = philox_doubles(11, 4, 2, 3500)
    got = np.concatenate([stream.uniforms(start, count) for start, count in splits + [(1000, 2500)]], axis=1)
    assert row_major_doubles(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("start, count", [(0, 1), (37, 1000), (1000, 2500), (4096, 2048)])
def test_scaled_draws_start_at_the_same_row(start, count):
    """A block drawn from row ``start`` is numpy's doubles from draw ``8 * start`` on."""
    want = philox_doubles(11, 4, 2, start + count)[start:]
    got = DayStream(seed=11, day=4, substream=2).uniforms(start, count)
    assert got.shape == (UNIFORMS_PER_ROW, count)
    assert row_major_doubles(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("start, count", [(0, 1000), (24, 1024), (5, 2049), (3000, 7)])
@pytest.mark.parametrize("w", range(1, UNIFORMS_PER_ROW + 1))
def test_out_of_w_rows_takes_the_first_w_words(w, start, count):
    """However few words ``out`` holds, it gets the full block's first ``w``
    rows, over whole and partial fill blocks of the stream alike."""
    stream = DayStream(seed=7, day=1, substream=1)
    full = stream.uniforms(start, count)
    out = np.full((w, count), -1, dtype=np.int64)
    assert stream.uniforms(start, count, out) is out
    np.testing.assert_array_equal(out, full[:w])


@pytest.mark.parametrize("piece", [37, 1100])
@pytest.mark.parametrize("w", [4, UNIFORMS_PER_ROW])
def test_scaled_draws_are_numpys_philox_doubles_across_threads(piece, w):
    """Three threads drawing interleaved pieces of two streams, each piece
    into its own contiguous ``(w, piece)`` block."""
    streams = [DayStream(seed=9, day=3, substream=s) for s in (0, 1)]
    pieces = 12
    got = [np.full((pieces, w, piece), -1, dtype=np.int64) for _ in streams]
    jobs = [(stream, out[i], i * piece) for i in range(pieces) for stream, out in zip(streams, got)]
    with ThreadPoolExecutor(max_workers=3) as pool:
        for done in [pool.submit(s.uniforms, start, piece, out) for s, out, start in jobs]:
            done.result(timeout=60)
    for s, k in zip(streams, got):
        block = np.concatenate(k, axis=1)
        want = philox_doubles(9, 3, s.substream, piece * pieces)[:, :w]
        assert row_major_doubles(block).tobytes() == want.tobytes()


def test_same_coordinates_identical():
    a = DayStream(seed=3, day=2, substream=1).uniforms(10, 50)
    b = DayStream(seed=3, day=2, substream=1).uniforms(10, 50)
    np.testing.assert_array_equal(a, b)


def test_distinct_coordinates_differ():
    base = DayStream(seed=3, day=2, substream=1).uniforms(0, 50)
    for other in (
        DayStream(seed=4, day=2, substream=1),
        DayStream(seed=3, day=3, substream=1),
        DayStream(seed=3, day=2, substream=2),
    ):
        assert not np.array_equal(base, other.uniforms(0, 50))


@pytest.mark.parametrize("splits", SPLITS)
def test_chunking_invariance(splits):
    """Any partition of row indices reproduces the full sequence."""
    stream = DayStream(seed=11, day=4, substream=2)
    full = stream.uniforms(0, 1000)
    got = np.concatenate([stream.uniforms(start, count) for start, count in splits], axis=1)
    np.testing.assert_array_equal(got, full)


def test_out_of_order_retrieval():
    stream = DayStream(seed=5, day=0, substream=0)
    tail = stream.uniforms(900, 100)
    head = stream.uniforms(0, 900)
    full = stream.uniforms(0, 1000)
    np.testing.assert_array_equal(np.concatenate([head, tail], axis=1), full)


def test_rows_are_block_aligned():
    """Row r is the same whether or not earlier rows were ever drawn."""
    stream = DayStream(seed=7, day=1, substream=1)
    full = stream.uniforms(0, 64)
    for row in (0, 1, 31, 63):
        np.testing.assert_array_equal(stream.uniforms(row, 1)[:, 0], full[:, row])


def test_out_is_filled_with_the_same_draws():
    stream = DayStream(seed=7, day=1, substream=1)
    out = np.full((UNIFORMS_PER_ROW, 40), -1, dtype=np.int64)
    assert stream.uniforms(24, 40, out) is out
    np.testing.assert_array_equal(out, stream.uniforms(24, 40))


@pytest.mark.parametrize(
    "out",
    [
        np.empty((UNIFORMS_PER_ROW, 39), dtype=np.int64),
        np.empty((40, UNIFORMS_PER_ROW), dtype=np.int64),
        np.empty((40, UNIFORMS_PER_ROW), dtype=np.int64).T,
        np.empty((UNIFORMS_PER_ROW, 80), dtype=np.int64)[:, ::2],
        np.empty((4, 41), dtype=np.int64)[:, :40],
        np.empty((0, 40), dtype=np.int64),
        np.empty((UNIFORMS_PER_ROW + 1, 40), dtype=np.int64),
        np.empty(40, dtype=np.int64),
        np.empty((UNIFORMS_PER_ROW, 40)),
        np.empty((UNIFORMS_PER_ROW, 40), dtype=np.uint64),
    ],
    ids=["count", "row-major", "F-order", "strided", "sliced", "w=0", "w=9", "1-d", "float64", "uint64"],
)
def test_out_must_be_a_c_ordered_word_major_block(out):
    with pytest.raises(ValueError, match="out must be"):
        DayStream(seed=7, day=1, substream=1).uniforms(0, 40, out)


@pytest.mark.parametrize(
    "start, count, name",
    [
        (True, 2, "start"),
        (2.5, 2, "start"),
        (-1, 2, "start"),
        (np.float64(2.0), 2, "start"),
        (0, False, "count"),
        (0, 2.5, "count"),
        (0, -1, "count"),
        (0, "2", "count"),
    ],
)
def test_non_count_rows_rejected(start, count, name):
    with pytest.raises(ValueError, match=f"{name} must be a nonnegative integer"):
        DayStream(seed=0, day=0).uniforms(start, count)


def test_numpy_integer_rows_accepted():
    stream = DayStream(seed=0, day=0)
    np.testing.assert_array_equal(stream.uniforms(np.int64(3), np.uint8(2)), stream.uniforms(3, 2))


def test_key_is_derived_once_per_stream(monkeypatch):
    seeds = []
    seed_sequence = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence", lambda entropy: seeds.append(entropy) or seed_sequence(entropy))
    stream = DayStream(seed=3, day=2, substream=1)
    stream.uniforms(0, 10)
    stream.uniforms(10, 10)
    assert seeds == [[3, 2, 1]]


def test_cached_key_leaves_equality_hash_and_repr_alone():
    drawn = DayStream(seed=3, day=2, substream=1)
    drawn.uniforms(0, 1)
    fresh = DayStream(seed=3, day=2, substream=1)
    assert drawn == fresh
    assert hash(drawn) == hash(fresh)
    assert repr(drawn) == repr(fresh) == "DayStream(seed=3, day=2, substream=1)"
    assert drawn != DayStream(seed=3, day=2, substream=2)


@pytest.mark.parametrize(
    "args, field",
    [
        ((0, 2.5), "day"),
        ((True, 0), "seed"),
        ((0, 0, 1.9), "substream"),
        ((0, -1), "day"),
        ((-1, 0), "seed"),
        ((0, 0, -2), "substream"),
        ((0, "1"), "day"),
        ((0, np.float64(2.0)), "day"),
    ],
)
def test_non_count_keys_rejected(args, field):
    with pytest.raises(ValueError, match=f"{field} must be a nonnegative integer"):
        DayStream(*args)


def test_numpy_integer_keys_accepted():
    stream = DayStream(np.int64(3), np.int32(2), np.uint8(1))
    np.testing.assert_array_equal(stream.uniforms(0, 5), DayStream(3, 2, 1).uniforms(0, 5))
