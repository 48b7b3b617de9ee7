"""The CSV kernel, ``output.csv_rows``, against the row-by-row formatter it
replaced (``oracles.csv_text``): the same bytes for every float, integer
and bytes column."""

import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclecert import output
from cyclecert.output import csv_rows

from oracles import csv_text


def _kernel(header, columns, const=()):
    return (",".join(header) + "\n").encode() + b"".join(csv_rows(columns, const))


def _oracle(header, columns, const=()):
    rows = [[c[i] for c in columns] + list(const) for i in range(len(columns[0]))]
    rows = [[v.decode() if isinstance(v, bytes) else v for v in row] for row in rows]
    return csv_text(header, rows).encode()


def _bits_to_floats(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


# raw float64 bit patterns (every exponent, subnormals, infinities, NaNs),
# and ordinary values, most of which take the fast path
FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: float(_bits_to_floats([b])[0])),
    st.floats(-1e6, 1e6),
)
INTS = st.integers(-(2**63), 2**63 - 1)
WORDS = st.sampled_from([b"contracting", b"regularized", b"x"])


def _column(kind, n):
    if kind == "float":
        return st.lists(FLOATS, min_size=n, max_size=n).map(np.array)
    if kind == "int":
        return st.lists(INTS, min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64)
        )
    return st.lists(WORDS, min_size=n, max_size=n).map(lambda v: np.array(v, dtype="S"))


KINDS = st.lists(st.sampled_from(["float", "int", "bytes"]), min_size=1, max_size=4)
COLUMNS = st.integers(0, 20).flatmap(
    lambda n: KINDS.flatmap(lambda kinds: st.tuples(*[_column(k, n) for k in kinds]))
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(COLUMNS, st.lists(FLOATS | INTS, max_size=2))
def test_csv_rows_match_the_row_formatter(columns, const):
    # blocks of 7 rows, so that most draws cross a block boundary
    header = [f"c{k}" for k in range(len(columns) + len(const))]
    with mock.patch.object(output, "CSV_ROWS", 7):
        assert _kernel(header, columns, const) == _oracle(header, columns, const)


def _ties():
    """Doubles m 2**-k, m odd and not a multiple of 5, whose decimal
    expansion m 5**k / 10**k has 18 significant digits, the last a 5: exact
    half-way cases of %.17g, the first three m of each k (k <= 25)."""
    ties = []
    for k in range(1, 26):
        m = -(-(10**17) // 5**k) | 1
        for m in [v for v in range(m, m + 8, 2) if v % 5][:3]:
            if m < 2**53 and m * 5**k < 10**18:
                ties.append(math.ldexp(m, -k))
    return ties


TIES = _ties()
POWERS = [float(f"1e{k}") for k in range(-300, 301)]
PINNED = (
    [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]
    + POWERS
    + [math.nextafter(p, 0.0) for p in POWERS]
    + [math.nextafter(p, math.inf) for p in POWERS]
    + TIES
    + [-t for t in TIES]
)


def test_csv_rows_pinned_floats():
    col = np.array(PINNED)
    assert _kernel(["x"], [col]) == _oracle(["x"], [col])
    # each tie is exact, and Python's % rounds ties half-even, both ways
    assert len(TIES) > 60
    for x in TIES:
        e = math.floor(math.log10(x))
        assert (Fraction(x) * Fraction(10) ** (16 - e)).denominator == 2
    assert "%.17g" % 2**-25 == "2.9802322387695312e-08"  # ...2|5 stays 2
    assert "%.17g" % (3 * 2**-25) == "8.9406967163085938e-08"  # ...7|5 goes up
    # the ties, zeros and powers of ten reach the fallback
    slow = output._float_cells(col, np.empty((col.size, 4), np.uint64))
    assert set(range(6)) <= set(slow.tolist())
    assert set(range(len(PINNED) - 2 * len(TIES), len(PINNED))) <= set(slow.tolist())


# doubles whose 17-digit product lies within TIE_MARGIN of a tie, not on one
NEAR_TIES = [3.042451446308502, 11.32477586379258,
             2.3511488418895023, 20.33122009353345]


def test_csv_rows_near_ties_take_the_fallback():
    # the product's error is below 1e-14 of a digit, far inside the margin,
    # yet a value this close to a tie is left to Python's %
    for x in NEAR_TIES:
        f = Fraction(x) * Fraction(10) ** (16 - math.floor(math.log10(x)))
        assert 0 < abs(f - math.floor(f) - Fraction(1, 2)) < output.TIE_MARGIN
    col = np.array(NEAR_TIES)
    slow = output._float_cells(col, np.empty((col.size, 4), np.uint64))
    assert slow.tolist() == list(range(len(NEAR_TIES)))
    assert _kernel(["x"], [col]) == _oracle(["x"], [col])


def test_csv_rows_fast_path_alone():
    # values of the certificate CSVs' magnitudes, every one on the fast path
    rng = np.random.default_rng(5)
    col = np.concatenate(
        [
            rng.uniform(-30.0, 30.0, 3000),
            rng.uniform(0.0, 1e-3, 3000) ** 3,
            1.0 + np.arange(1, 3001) * 1.25e-4,
        ]
    )
    slow = output._float_cells(col, np.empty((col.size, 4), np.uint64))
    assert slow.size == 0
    assert _kernel(["x"], [col]) == _oracle(["x"], [col])


def test_csv_rows_pinned_integers():
    for col in (
        np.array([0, -1, 1, 9, 10, -10, 99, 100, 2**63 - 1, -(2**63)], dtype=np.int64),
        np.array([0, 10**19, 2**64 - 1], dtype=np.uint64),
        np.arange(-1000, 70000, 7),
    ):
        assert _kernel(["i"], [col]) == _oracle(["i"], [col])


@pytest.mark.parametrize(
    "columns,error",
    [
        ([np.zeros(3), np.zeros(4)], ValueError),
        ([np.zeros((3, 2))], ValueError),
        ([np.array(["a", "b"], dtype=object)], TypeError),
        ([np.array([True, False])], TypeError),
    ],
)
def test_csv_rows_refuses_columns_it_cannot_write(columns, error):
    with pytest.raises(error):
        next(csv_rows(columns))
