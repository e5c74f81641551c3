"""Log container tests: ordering, slicing, concatenation, export."""

import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confoundsim import logs
from confoundsim.logs import NDJSON_CHUNK_ROWS, VALIDATE_ROWS, Log
from conftest import ndjson_text
from oracles import Interaction, interaction, ndjson_reference


def small_log(days=(0, 0, 1, 1, 1, 2), with_sales=False, with_arms=False):
    n = len(days)
    day = np.asarray(days, dtype=np.int32)
    c = np.asarray([i % 2 for i in range(n)], dtype=np.int8)
    s = None
    if with_sales:
        s = np.where(c == 1, np.arange(n, dtype=np.int8) % 2, -1).astype(np.int8)
    arm = None
    if with_arms:
        arm = np.asarray([-1, -1, 0, 1, 0, 1][:n], dtype=np.int8)
    return Log(
        day=day,
        x1=np.arange(n, dtype=np.int32) % 3,
        x2=np.arange(n, dtype=np.int32) % 2,
        a=np.arange(n, dtype=np.int32) % 4,
        propensity=np.full(n, 0.25),
        c=c,
        s=s,
        arm=arm,
    )


PROPENSITIES = st.one_of(
    st.floats(min_value=5e-324, max_value=1.0),
    st.sampled_from([1.0, 1 / 3, 0.1 + 0.2, 1e-07]),
)


@st.composite
def random_logs(draw, with_decisions, with_sales, with_arms):
    """Day-ordered logs with the given optional columns; sale and arm
    columns mix -1 (absent) with real values, and the integer columns
    span all of int32.  Each column draws its rows from a pool of at
    most n values, so rows can repeat or differ in one column only."""
    n = draw(st.integers(0, 30))

    def column(values, dtype):
        pool = draw(st.lists(values, min_size=1, max_size=max(n, 1)))
        return np.asarray(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=dtype)

    ints = st.integers(-(2**31), 2**31 - 1)
    c = column(st.integers(0, 1), np.int8)
    s = None
    if with_sales:
        s = np.where(c == 1, column(st.integers(-1, 1), np.int8), -1).astype(np.int8)
    return Log(
        day=np.sort(column(ints, np.int32)),
        x1=column(ints, np.int32),
        x2=column(ints, np.int32),
        a=column(ints, np.int32),
        propensity=column(PROPENSITIES, np.float64),
        c=c,
        d=column(ints, np.int32) if with_decisions else None,
        s=s,
        arm=column(st.integers(-1, 1), np.int8) if with_arms else None,
    )


class TestInvariants:
    def test_days_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            small_log(days=(0, 2, 1))

    def test_day_gaps_wider_than_int32_accepted(self):
        # A gap of 2**32 - 1 between int32 days wraps if subtracted.
        log = small_log(days=(-(2**31), -(2**31), 2**31 - 1))
        assert list(np.unique(log.day)) == [-(2**31), 2**31 - 1]
        with pytest.raises(ValueError, match="nondecreasing day"):
            small_log(days=(2**31 - 1, -(2**31)))

    def test_propensity_in_unit_interval(self):
        log = small_log()
        with pytest.raises(ValueError):
            Log(
                day=log.day,
                x1=log.x1,
                x2=log.x2,
                a=log.a,
                propensity=np.zeros(len(log)),
                c=log.c,
            )

    def test_nan_propensity_rejected(self):
        log = small_log()
        with pytest.raises(ValueError):
            Log(
                day=log.day,
                x1=log.x1,
                x2=log.x2,
                a=log.a,
                propensity=np.full(len(log), np.nan),
                c=log.c,
            )

    def test_sale_forbidden_without_click(self):
        log = small_log()
        bad_s = np.ones(len(log), dtype=np.int8)
        with pytest.raises(ValueError):
            Log(
                day=log.day,
                x1=log.x1,
                x2=log.x2,
                a=log.a,
                propensity=log.propensity,
                c=log.c,
                s=bad_s,
            )

    def test_column_length_mismatch(self):
        log = small_log()
        with pytest.raises(ValueError):
            Log(
                day=log.day,
                x1=log.x1[:-1],
                x2=log.x2,
                a=log.a,
                propensity=log.propensity,
                c=log.c,
            )
        with pytest.raises(ValueError, match="column 'x1' is required, got None"):
            Log(day=log.day, x1=None, x2=log.x2, a=log.a, propensity=log.propensity, c=log.c)

    @pytest.mark.parametrize("row", [VALIDATE_ROWS - 1, VALIDATE_ROWS, 2 * VALIDATE_ROWS])
    def test_day_order_checked_across_validation_blocks(self, row):
        # Rows row - 1 and row straddle a block edge when row is a multiple
        # of VALIDATE_ROWS; the last block holds one row.
        n = 2 * VALIDATE_ROWS + 1
        day = np.ones(n, dtype=np.int32)
        day[row:] = 0
        zeros = np.zeros(n, dtype=np.int32)
        with pytest.raises(ValueError, match="nondecreasing day"):
            Log(day=day, x1=zeros, x2=zeros, a=zeros, propensity=np.ones(n), c=np.zeros(n, dtype=np.int8))

    @pytest.mark.parametrize("column", ["propensity", "s"])
    def test_faults_in_a_later_block_are_caught(self, column):
        n = 2 * VALIDATE_ROWS + 1
        zeros = np.zeros(n, dtype=np.int32)
        propensity, s = np.ones(n), np.full(n, -1, dtype=np.int8)
        {"propensity": propensity, "s": s}[column][n - 1] = 0
        with pytest.raises(ValueError, match="propensities" if column == "propensity" else "sale outcome"):
            Log(day=zeros, x1=zeros, x2=zeros, a=zeros, propensity=propensity, c=np.zeros(n, dtype=np.int8), s=s)


class TestSlicing:
    def test_day_slice_exact(self):
        log = small_log()
        middle = log.day_slice(1)
        assert len(middle) == 3
        assert np.all(middle.day == 1)
        assert len(log.day_slice(0)) == 2
        assert len(log.day_slice(5)) == 0

    def test_day_slice_preserves_row_content(self):
        log = small_log()
        rec = interaction(log.day_slice(2), 0)
        assert rec == interaction(log, 5)

    def test_arm_slice(self):
        log = small_log(with_arms=True)
        a_side = log.arm_slice("A")
        assert len(a_side) == 2
        assert all(interaction(log, i).arm == "A" for i in (2, 4))
        with pytest.raises(ValueError):
            small_log().arm_slice("A")
        with pytest.raises(ValueError, match=r"unknown arm 'C'; expected one of \('', 'A', 'B'\)"):
            log.arm_slice("C")

    def test_concat_round_trip(self):
        log = small_log()
        parts = [log.day_slice(d) for d in (0, 1, 2)]
        whole = Log.concat(parts)
        assert len(whole) == len(log)
        np.testing.assert_array_equal(whole.day, log.day)
        np.testing.assert_array_equal(whole.a, log.a)

    def test_concat_of_int8_and_int16_days_keeps_every_day(self):
        # Study logs size their day column to their last day: int8 up to
        # day 127, int16 beyond.
        early, late = small_log(days=(0, 5, 127)), small_log(days=(127, 128, 300))
        early.day, late.day = early.day.astype(np.int8), late.day.astype(np.int16)
        whole = Log.concat([early, late])
        assert whole.day.dtype == np.int16
        assert whole.day.tolist() == [0, 5, 127, 127, 128, 300]
        assert [len(whole.day_slice(d)) for d in (0, 127, 128, 300)] == [1, 2, 1, 1]

    def test_concat_rejects_mixed_columns(self):
        with pytest.raises(ValueError):
            Log.concat([small_log(), small_log(with_sales=True)])

    def test_concat_must_stay_ordered(self):
        with pytest.raises(ValueError):
            Log.concat([small_log(days=(2, 2)), small_log(days=(0, 1))])


class TestScalarView:
    def test_interaction_fields(self):
        log = small_log(with_sales=True, with_arms=True)
        rec = interaction(log, 3)
        assert isinstance(rec, Interaction)
        assert rec.day == 1
        assert rec.arm == "B"
        assert rec.propensity == 0.25

    def test_sale_hidden_when_unclicked(self):
        log = small_log(with_sales=True)
        for i in range(len(log)):
            rec = interaction(log, i)
            if rec.c == 0:
                assert rec.s is None
            else:
                assert rec.s in (0, 1)


def assert_same_lines(log):
    """The log's export equals ``ndjson_reference`` line by line."""
    got = ndjson_text(log).splitlines(keepends=True)
    want = ndjson_reference(log).splitlines(keepends=True)
    assert len(got) == len(want) == len(log)
    # The first differing row, not a diff of two megabyte strings.
    bad = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert bad is None, (bad, got[bad], want[bad])


def chunk_columns(log, lo):
    """The present columns of the export chunk starting at row ``lo``."""
    cols = (getattr(log, key) for key, _ in logs._NDJSON_FIELDS)
    return [col[lo : lo + NDJSON_CHUNK_ROWS] for col in cols if col is not None]


def count_unique(monkeypatch):
    """A one-item list counting the ``np.unique`` calls from here on."""
    calls, unique = [0], np.unique

    def counted(*args, **kwargs):
        calls[0] += 1
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    return calls


class TestExport:
    def test_ndjson_deterministic(self):
        log = small_log(with_sales=True, with_arms=True)
        out1, out2 = io.StringIO(), io.StringIO()
        log.to_ndjson(out1)
        log.to_ndjson(out2)
        assert out1.getvalue() == out2.getvalue()
        lines = out1.getvalue().splitlines()
        assert len(lines) == len(log)
        assert all(line.startswith("{") for line in lines)

    def test_ndjson_omits_absent_fields(self):
        out = io.StringIO()
        small_log().to_ndjson(out)
        assert '"s"' not in out.getvalue()
        assert '"arm"' not in out.getvalue()

    @pytest.mark.parametrize(
        "with_decisions, with_sales, with_arms", list(itertools.product((False, True), repeat=3))
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ndjson_matches_per_row_reference(self, with_decisions, with_sales, with_arms, data):
        log = data.draw(random_logs(with_decisions, with_sales, with_arms))
        assert ndjson_text(log) == ndjson_reference(log)

    @pytest.mark.parametrize(
        "n", [0, NDJSON_CHUNK_ROWS - 1, NDJSON_CHUNK_ROWS, NDJSON_CHUNK_ROWS + 1]
    )
    def test_ndjson_across_chunk_edges(self, n):
        rng = np.random.default_rng(n)
        c = rng.integers(0, 2, n).astype(np.int8)
        log = Log(
            day=np.sort(rng.integers(0, 6, n)).astype(np.int32),
            x1=rng.integers(0, 5, n).astype(np.int32),
            x2=rng.integers(0, 5, n).astype(np.int32),
            a=rng.integers(0, 10, n).astype(np.int32),
            propensity=rng.choice([0.05 / 9, 0.955, 1 / 3, 1.0], n),
            c=c,
            d=rng.integers(0, 2, n).astype(np.int32),
            s=np.where(c == 1, rng.integers(-1, 2, n), -1).astype(np.int8),
            arm=rng.integers(-1, 2, n).astype(np.int8),
        )
        assert_same_lines(log)

    @pytest.mark.parametrize("n", [NDJSON_CHUNK_ROWS - 1, NDJSON_CHUNK_ROWS, NDJSON_CHUNK_ROWS + 1])
    def test_ndjson_wide_negative_integers(self, n):
        # Each integer column draws from values spread over int32 (a span
        # just under 2**32, so the first adds its offset from the minimum),
        # so the columns' radix product would pass 2**62 and the later ones
        # join the row codes by their np.unique codes inside a full chunk,
        # while rows still repeat.
        rng = np.random.default_rng(n)
        wide = np.array([-(2**31) + 1, -(2**30) - 7, -1, 0, 2**30 + 3, 2**31 - 1], dtype=np.int32)
        c = rng.integers(0, 2, n).astype(np.int8)
        log = Log(
            day=np.sort(rng.choice(wide, n)),
            x1=rng.choice(wide, n),
            x2=rng.choice(wide[:3], n),
            a=rng.choice(wide, n),
            propensity=rng.choice([0.25, 1.0], n),
            c=c,
            d=rng.choice(wide, n),
            s=np.where(c == 1, rng.integers(-1, 2, n), -1).astype(np.int8),
            arm=rng.integers(-1, 2, n).astype(np.int8),
        )
        assert_same_lines(log)

    def test_ndjson_adjacent_propensities(self):
        # Doubles one ulp apart, and 0.1 + 0.2 (0.30000000000000004) beside
        # 0.3, on rows otherwise equal: each keeps its own repr.
        values = [0.3, 0.1 + 0.2, np.nextafter(0.3, 0.0), np.nextafter(0.1 + 0.2, 1.0)]
        values += [5e-324, 1e-323, np.nextafter(1.0, 0.0), 1.0]
        propensity = np.tile(values, 3)
        n = len(propensity)
        zeros = np.zeros(n, dtype=np.int32)
        log = Log(day=zeros, x1=zeros, x2=zeros, a=zeros, propensity=propensity, c=np.zeros(n, dtype=np.int8))
        text = ndjson_text(log)
        assert text == ndjson_reference(log)
        assert len(set(text.splitlines())) == len(values)

    def test_ndjson_all_columns_constant(self, monkeypatch):
        # Every column holds one value, so every column is skipped and each
        # chunk, the short last one too, is one distinct row.
        n = NDJSON_CHUNK_ROWS + 5
        ones = np.ones(n, dtype=np.int32)
        log = Log(
            day=ones * 3, x1=ones, x2=ones * -2, a=ones * 9, propensity=np.full(n, 0.05 / 9),
            c=np.ones(n, dtype=np.int8), d=ones, s=np.ones(n, dtype=np.int8), arm=np.zeros(n, dtype=np.int8),
        )
        assert_same_lines(log)
        unique = count_unique(monkeypatch)
        for lo in (0, NDJSON_CHUNK_ROWS):
            rows, inverse = logs._distinct_rows(chunk_columns(log, lo))
            assert len(rows) == 1 and not inverse.any()
        assert unique == [0]

    @pytest.mark.parametrize("excess", [(0, 1), (1, 0)])
    def test_ndjson_key_span_at_and_above_table_bound(self, excess, monkeypatch):
        # x1 alone varies, so the key spans max(x1) + 1 values: exactly the
        # presence-table bound, or one more, which goes to np.unique; the
        # full first chunk and the short second one each take one route.
        sizes = (NDJSON_CHUNK_ROWS, 100)
        rng = np.random.default_rng(sum(excess))
        x1 = []
        for size, extra in zip(sizes, excess):
            span = logs._TABLE_SPAN_PER_ROW * size + extra
            col = rng.integers(0, span, size)
            col[[0, -1]] = 0, span - 1
            x1.append(col)
        x1 = np.concatenate(x1).astype(np.int32)
        n = len(x1)
        zeros = np.zeros(n, dtype=np.int32)
        log = Log(day=zeros, x1=x1, x2=zeros, a=zeros, propensity=np.full(n, 0.25), c=np.zeros(n, dtype=np.int8))
        assert_same_lines(log)
        unique = count_unique(monkeypatch)
        for lo, extra in zip((0, NDJSON_CHUNK_ROWS), excess):
            before = unique[0]
            rows, inverse = logs._distinct_rows(chunk_columns(log, lo))
            assert unique[0] - before == extra
            chunk = x1[lo : lo + NDJSON_CHUNK_ROWS]
            assert np.array_equal(chunk[rows][inverse], chunk)
            assert len(rows) == len(np.unique(chunk))

    def test_ndjson_full_chunk_of_distinct_propensities(self, monkeypatch):
        # Every propensity of the chunk differs, so the float column is
        # re-coded by np.unique and each row is its own line.
        n = NDJSON_CHUNK_ROWS
        rng = np.random.default_rng(3)
        propensity = rng.permutation(np.linspace(1e-6, 1.0, n))
        c = rng.integers(0, 2, n).astype(np.int8)
        log = Log(
            day=np.sort(rng.integers(0, 3, n)).astype(np.int32),
            x1=rng.integers(0, 5, n).astype(np.int32),
            x2=rng.integers(0, 5, n).astype(np.int32),
            a=rng.integers(0, 10, n).astype(np.int32),
            propensity=propensity,
            c=c,
            s=np.where(c == 1, rng.integers(-1, 2, n), -1).astype(np.int8),
        )
        assert_same_lines(log)
        unique = count_unique(monkeypatch)
        rows, inverse = logs._distinct_rows(chunk_columns(log, 0))
        assert unique[0] >= 1
        assert len(rows) == n and np.array_equal(rows[inverse], np.arange(n))

    def test_propensity_set_by_other_columns_needs_no_sort(self, monkeypatch):
        # As in a simulated log, the propensity is a function of the integer
        # columns, so it adds no distinct rows and no np.unique call.
        n = NDJSON_CHUNK_ROWS
        rng = np.random.default_rng(5)
        a = rng.integers(0, 10, n).astype(np.int32)
        x2 = rng.integers(0, 5, n).astype(np.int32)
        table = np.linspace(0.05, 0.95, 50)
        log = Log(
            day=np.zeros(n, dtype=np.int32), x1=np.zeros(n, dtype=np.int32), x2=x2, a=a,
            propensity=table[a * 5 + x2], c=np.zeros(n, dtype=np.int8),
        )
        assert_same_lines(log)
        unique = count_unique(monkeypatch)
        rows, inverse = logs._distinct_rows(chunk_columns(log, 0))
        assert unique == [0]
        assert len(rows) == len(np.unique(a * 5 + x2))

    def test_each_distinct_line_formatted_once_per_chunk(self, monkeypatch):
        k, chunks = 7, 3
        n = chunks * NDJSON_CHUNK_ROWS
        rows = np.arange(n) % k
        log = Log(
            day=np.zeros(n, dtype=np.int32),
            x1=(rows % 3).astype(np.int32),
            x2=rows.astype(np.int32),
            a=(rows * 5).astype(np.int32),
            propensity=(rows + 1) / k,
            c=(rows % 2).astype(np.int8),
            d=(rows % 4).astype(np.int32),
            s=np.where(rows % 2 == 1, rows % 3 - 1, -1).astype(np.int8),
            arm=(rows % 3 - 1).astype(np.int8),
        )
        # Calls of each field's text, and rows handed to _fragments, which
        # formats one row of each distinct line: chunks * k at most, never
        # one per row.
        calls = dict.fromkeys((key for key, _ in logs._NDJSON_FIELDS), 0)
        formatted_rows = []

        def counted(key, text):
            def wrapper(v):
                calls[key] += 1
                return text(v)

            return wrapper

        def fragments(col, text):
            formatted_rows.append(len(col))
            return fragments_of(col, text)

        fragments_of = logs._fragments
        monkeypatch.setattr(logs, "_fragments", fragments)
        monkeypatch.setattr(
            logs, "_NDJSON_FIELDS", tuple((key, counted(key, text)) for key, text in logs._NDJSON_FIELDS)
        )
        assert ndjson_text(log) == ndjson_reference(log)
        assert all(0 < count <= chunks * k for count in calls.values()), calls
        assert len(formatted_rows) == chunks * len(calls)
        assert all(size <= k for size in formatted_rows), formatted_rows

    def test_ndjson_rejects_unknown_arm_code(self):
        log = small_log(with_arms=True)
        log.arm[2] = 7
        with pytest.raises(KeyError):
            log.to_ndjson(io.StringIO())

