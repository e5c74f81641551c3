"""Columnar interaction logs.

A :class:`Log` stores one simulated impression per row in parallel numpy
arrays (day, covariates, action, behaviour-policy propensity, click and
optional sale outcomes, optional A/B arm).  Rows are ordered by day so a
day slice is a contiguous range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["ARM_LABELS", "Log"]

# Arm codes stored in the log; -1 marks rows logged outside any A/B split.
ARM_LABELS = {-1: "", 0: "A", 1: "B"}
ARM_CODES = {label: code for code, label in ARM_LABELS.items()}

# Rows formatted per write in Log.to_ndjson; bounds the export's extra memory.
NDJSON_CHUNK_ROWS = 8192

# A chunk key spanning at most this many values per row is numbered from a
# presence table in Log.to_ndjson; a wider one is sorted.  On 8,192 keys the
# table is 0.64x the time of np.unique at 8x span when every key differs and
# 1.1x at 10x; with 270 distinct keys it wins to ~64x (2-CPU Xeon, numpy 2.4).
_TABLE_SPAN_PER_ROW = 8

# Rows per block of Log's validity checks; bounds their temporaries.
VALIDATE_ROWS = 1 << 16

# The NDJSON keys in the order json.dumps(sort_keys=True) writes them, each
# with the text it writes for one column value: the key, the value and the
# separator after it, or "" where the key is omitted.  "a" and "x2" are always
# present, so they also open and close the object.
_NDJSON_FIELDS = (
    ("a", lambda v: f'{{"a": {int(v)}, '),
    ("arm", lambda v: f'"arm": {json.dumps(ARM_LABELS[int(v)])}, ' if int(v) != -1 else ""),
    ("c", lambda v: f'"c": {int(v)}, '),
    ("d", lambda v: f'"d": {int(v)}, '),
    ("day", lambda v: f'"day": {int(v)}, '),
    ("propensity", lambda v: f'"propensity": {float(v)!r}, '),
    ("s", lambda v: f'"s": {int(v)}, ' if int(v) != -1 else ""),
    ("x1", lambda v: f'"x1": {int(v)}, '),
    ("x2", lambda v: f'"x2": {int(v)}}}\n'),
)


@dataclass
class Log:
    """Day-ordered collection of interactions, stored column-wise.

    ``d`` is ``None`` outside two-decision environments.  ``s`` is ``None``
    when sales are not simulated; otherwise ``s[i] == -1`` whenever
    ``c[i] == 0`` (a sale is observable only after a click).  ``arm`` holds
    A/B arm codes (-1 outside any split).

    A simulated log stores ``day`` as int32, ``propensity`` as float64 and
    ``c``, ``s`` and ``arm`` as int8.  The codes ``x1``, ``x2``, ``a`` and
    ``d`` share the narrowest signed type that holds the spec's full cell
    index (``scenarios._column_dtypes``): int16 on the default spec, where a
    row takes 19 bytes, 20 with an arm and 21 with a decision.  The class
    itself checks no dtype.
    """

    day: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    a: np.ndarray
    propensity: np.ndarray
    c: np.ndarray
    d: np.ndarray | None = None
    s: np.ndarray | None = None
    arm: np.ndarray | None = None

    def __post_init__(self):
        for f in fields(self):
            col = getattr(self, f.name)
            # A required column has no default; an optional one defaults to None.
            if col is None and f.default is not None:
                raise ValueError(f"column {f.name!r} is required, got None")
            if col is not None and len(col) != len(self.day):
                raise ValueError(f"column {f.name!r} length mismatch")
        n = len(self.day)
        # Each check runs over blocks of VALIDATE_ROWS rows, so its
        # temporaries stay small however long the log is; the day check
        # reads one row past its block to compare across block edges, and
        # compares neighbours rather than subtracting them, which can wrap.
        day = self.day
        if _any_block(n, lambda lo, hi: _descends(day[lo : hi + 1])):
            raise ValueError("rows must be ordered by nondecreasing day")
        p = self.propensity
        if _any_block(n, lambda lo, hi: not np.all((p[lo:hi] > 0) & (p[lo:hi] <= 1))):
            raise ValueError("propensities must lie in (0, 1]")
        c, s = self.c, self.s
        if s is not None and _any_block(n, lambda lo, hi: np.any((c[lo:hi] == 0) & (s[lo:hi] != -1))):
            raise ValueError("sale outcome must be absent (-1) when c == 0")

    @classmethod
    def _prevalidated(cls, **columns) -> "Log":
        """A log over rows that passed these checks in day-ordered logs of their own."""
        log = object.__new__(cls)
        vars(log).update({f.name: None for f in fields(cls)}, **columns)
        return log

    def __len__(self) -> int:
        return len(self.day)

    def _take(self, mask: np.ndarray) -> "Log":
        take = lambda col: None if col is None else col[mask]
        return Log(**{f.name: take(getattr(self, f.name)) for f in fields(self)})

    def day_slice(self, day: int) -> "Log":
        """Rows logged on exactly ``day`` (contiguous because rows are day-ordered)."""
        lo = int(np.searchsorted(self.day, day, side="left"))
        hi = int(np.searchsorted(self.day, day, side="right"))
        return self._take(slice(lo, hi))

    def arm_slice(self, arm: str) -> "Log":
        if arm not in ARM_CODES:
            raise ValueError(f"unknown arm {arm!r}; expected one of {tuple(ARM_CODES)}")
        if self.arm is None:
            raise ValueError("log has no arm column")
        return self._take(self.arm == ARM_CODES[arm])

    @staticmethod
    def concat(parts) -> "Log":
        """Concatenate logs; the result must still be day-ordered."""
        parts = list(parts)
        if not parts:
            raise ValueError("nothing to concatenate")

        def cat(name):
            cols = [getattr(p, name) for p in parts]
            present = [col is not None for col in cols]
            if not any(present):
                return None
            if not all(present):
                raise ValueError(f"column {name!r} present in some parts only")
            return np.concatenate(cols)

        return Log(**{f.name: cat(f.name) for f in fields(Log)})

    def to_ndjson(self, fh) -> None:
        """Write one JSON object per interaction, in log order.

        The bytes are those of ``json.dumps(record, sort_keys=True)`` plus
        ``"\\n"`` for each row: keys in sorted order (``a, arm, c, d, day,
        propensity, s, x1, x2``), the default ``", "`` and ``": "``
        separators, integers in decimal and the propensity as
        ``repr(float)``.  ``"d"`` appears only when the log has a decision
        column, ``"s"`` only on rows whose sale outcome is observed (not
        -1), and ``"arm"`` only on rows inside an A/B split (arm code not
        -1).  Rows are written in chunks of at most ``NDJSON_CHUNK_ROWS``,
        one ``fh.write`` per chunk; each distinct line of a chunk is
        formatted once, from one row that holds it.  :func:`_distinct_rows`
        finds those rows from a presence table over the chunk's row keys,
        sorting only a float or wide integer column that the other columns
        do not already determine.
        """
        columns = [
            (col, text) for key, text in _NDJSON_FIELDS if (col := getattr(self, key)) is not None
        ]
        for lo in range(0, len(self), NDJSON_CHUNK_ROWS):
            chunk = [col[lo : lo + NDJSON_CHUNK_ROWS] for col, _ in columns]
            rows, inverse = _distinct_rows(chunk)
            fields = [_fragments(col[lo + rows], text) for col, text in columns]
            lines = np.array(list(map("".join, zip(*fields))), dtype=object)
            fh.write("".join(lines[inverse].tolist()))


def _any_block(n: int, bad) -> bool:
    """Whether ``bad(lo, hi)`` holds for some block ``[lo, hi)`` of at most
    :data:`VALIDATE_ROWS` rows tiling ``[0, n)``."""
    return any(bad(lo, min(lo + VALIDATE_ROWS, n)) for lo in range(0, n, VALIDATE_ROWS))


def _descends(a: np.ndarray) -> bool:
    """Whether some element of ``a`` is less than the one before it."""
    return bool(np.any(a[1:] < a[:-1]))


def _fragments(col: np.ndarray, text) -> list:
    """``text`` of each element of ``col``, called once per distinct value."""
    values, inverse = np.unique(col, return_inverse=True)
    table = np.array([text(v) for v in values.tolist()], dtype=object)
    return table[inverse].tolist()


def _distinct_rows(cols) -> tuple:
    """``(rows, inverse)`` over the rows of the equal-length columns
    ``cols``: ``rows`` holds the index of one row of each distinct row
    (equal in every column), and ``inverse[i]`` the position in ``rows``
    of row ``i``'s.

    Each column is read as int64, floats by bit pattern, so two values
    whose ``repr`` differs never count as equal.  A column that is constant
    over ``cols`` is skipped.  The narrow columns, those spanning fewer
    than 2**32 values while the radix product stays below 2**62, combine
    into one key per row in mixed radix, each adding its value less its
    minimum, and :func:`_key_codes` finds the key's distinct values.  Each
    wide column is then checked against the distinct rows found so far:
    if it holds one value within each, as a simulated log's propensity
    does, it adds nothing; otherwise the rows' codes are combined with its
    ``np.unique`` codes and found again.
    """
    key, span, wide = np.zeros(len(cols[0]), dtype=np.int64), 1, []
    for col in cols:
        col = col.astype(np.float64).view(np.int64) if col.dtype.kind == "f" else col.astype(np.int64)
        low = int(col.min())
        radix = int(col.max()) - low + 1
        if radix == 1:
            continue
        if radix >= 2**32 or span * radix >= 2**62:
            wide.append(col)
            continue
        key += (col - low) * span
        span *= radix
    rows, inverse = _key_codes(key, span)
    for col in wide:
        if not np.array_equal(col[rows][inverse], col):
            values, code = np.unique(col, return_inverse=True)
            rows, inverse = _key_codes(inverse + code * len(rows), len(rows) * len(values))
    return rows, inverse


def _key_codes(key: np.ndarray, span: int) -> tuple:
    """:func:`_distinct_rows` of the one column ``key``, whose values lie
    in ``[0, span)``; distinct keys are numbered in increasing order.

    Where ``span`` is at most ``_TABLE_SPAN_PER_ROW`` times the row count, a
    presence table of ``span`` flags marks each key and its nonzero
    entries number them, with no sort; wider keys go to ``np.unique``.
    """
    if span <= _TABLE_SPAN_PER_ROW * len(key):
        present = np.zeros(span, dtype=bool)
        present[key] = True
        values = np.flatnonzero(present)
        code = np.empty(span, dtype=np.intp)
        code[values] = np.arange(len(values))
        inverse = code[key]
    else:
        values, inverse = np.unique(key, return_inverse=True)
    rows = np.empty(len(values), dtype=np.intp)
    rows[inverse] = np.arange(len(key))
    return rows, inverse
