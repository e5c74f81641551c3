"""Counter-based stream tests: determinism, substream independence, chunking."""

import numpy as np
import pytest

from confoundsim.streams import UNIFORMS_PER_ROW, DayStream


def test_row_shape_and_range():
    u = DayStream(seed=0, day=0, substream=0).uniforms(0, 100)
    assert u.shape == (100, UNIFORMS_PER_ROW)
    assert np.all((u >= 0.0) & (u < 1.0))


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


@pytest.mark.parametrize(
    "splits",
    [
        [(0, 1000)],
        [(0, 1), (1, 999)],
        [(0, 999), (999, 1)],
        [(0, 100), (100, 400), (500, 500)],
        [(0, 7), (7, 13), (20, 480), (500, 500)],
    ],
)
def test_chunking_invariance(splits):
    """Any partition of row indices reproduces the full sequence."""
    stream = DayStream(seed=11, day=4, substream=2)
    full = stream.uniforms(0, 1000)
    got = np.concatenate([stream.uniforms(start, count) for start, count in splits])
    np.testing.assert_array_equal(got, full)


def test_out_of_order_retrieval():
    stream = DayStream(seed=5, day=0, substream=0)
    tail = stream.uniforms(900, 100)
    head = stream.uniforms(0, 900)
    full = stream.uniforms(0, 1000)
    np.testing.assert_array_equal(np.concatenate([head, tail]), full)


def test_rows_are_block_aligned():
    """Row r is the same whether or not earlier rows were ever drawn."""
    stream = DayStream(seed=7, day=1, substream=1)
    full = stream.uniforms(0, 64)
    for row in (0, 1, 31, 63):
        np.testing.assert_array_equal(stream.uniforms(row, 1)[0], full[row])


def test_out_is_filled_with_the_same_draws():
    stream = DayStream(seed=7, day=1, substream=1)
    out = np.full((40, UNIFORMS_PER_ROW), -1.0)
    assert stream.uniforms(24, 40, out) is out
    np.testing.assert_array_equal(out, stream.uniforms(24, 40))


@pytest.mark.parametrize(
    "out",
    [np.empty((39, UNIFORMS_PER_ROW)), np.empty((UNIFORMS_PER_ROW, 40)).T],
    ids=["shape", "F-order"],
)
def test_out_must_be_a_c_ordered_block_of_the_rows(out):
    with pytest.raises(ValueError):
        DayStream(seed=7, day=1, substream=1).uniforms(0, 40, out)


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
