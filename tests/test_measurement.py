"""The one merge rule of surface.Measurement.

A record merged block by block over any partition of a row equals the
record of the whole row: the bits of its first maximum over the kept
samples (a NaN propagates, and -0.0 and +0.0 count as equal), the number
of kept samples, and the grid index of that first maximum; a row with no
kept sample reads (None, 0, None).  A verify check made from such a row
fails.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruledgeom.surface import Measurement
from ruledgeom.verify import _c

VALUES = st.one_of(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
                   st.floats(-4.0, 4.0, width=16))


@st.composite
def partitioned_rows(draw):
    """A row of values, a kept mask, the block cuts, and per block whether
    its kept samples are passed as a slice (where they are contiguous)."""
    n = draw(st.integers(1, 40))
    row = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))
    kept = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=6))
                  if n > 1 else [])
    as_slice = draw(st.lists(st.booleans(), min_size=len(cuts) + 1,
                             max_size=len(cuts) + 1))
    return row, kept, [0, *cuts, n], as_slice


def contiguous(mask):
    """mask as a slice of its block, or None where its True entries are
    not contiguous."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return slice(0, 0)
    if idx[-1] - idx[0] + 1 != idx.size:
        return None
    return slice(int(idx[0]), int(idx[-1]) + 1)


def reference(row, kept) -> tuple:
    idx = np.flatnonzero(kept)
    if idx.size == 0:
        return None, 0, None
    i = int(np.argmax(row[idx]))
    return float(row[idx[i]]).hex(), int(idx.size), int(idx[i])


@settings(deadline=None, max_examples=300)
@given(case=partitioned_rows())
# a block with every sample excluded between two that compare
@example(case=(np.array([1.0, 3.0, np.nan, 3.0, -0.0]),
               np.array([True, False, False, True, True]), [0, 1, 3, 5],
               [False, False, False]))
# -0.0 first: the first maximum is -0.0 wherever the blocks are cut
@example(case=(np.array([-0.0, 0.0, -0.0, 0.0]), np.ones(4, dtype=bool),
               [0, 1, 2, 4], [True, False, True]))
# a NaN in a later block than the largest number
@example(case=(np.array([5.0, 1.0, np.nan, 9.0]), np.ones(4, dtype=bool),
               [0, 2, 4], [False, False]))
# nothing kept anywhere
@example(case=(np.array([1.0, np.nan]), np.zeros(2, dtype=bool), [0, 1, 2],
               [False, True]))
def test_block_merge_equals_the_whole_row(case):
    row, kept, bounds, as_slice = case
    record = Measurement("row")
    for lo, hi, use_slice in zip(bounds, bounds[1:], as_slice):
        block_kept = kept[lo:hi]
        if use_slice and contiguous(block_kept) is not None:
            block_kept = contiguous(block_kept)
        record = record.merged(row[lo:hi], block_kept, lo)
    got = (None if record.deviation is None else record.deviation.hex(),
           record.n_compared, record.worst)
    assert got == reference(row, kept)
    if record.n_compared:
        want = np.max(row[kept])
        assert record.deviation == want or (np.isnan(record.deviation)
                                            and np.isnan(want))


def test_a_record_is_frozen_and_merging_returns_a_new_one():
    empty = Measurement("x")
    assert (empty.deviation, empty.n_compared, empty.worst) == (None, 0, None)
    merged = empty.merged(np.array([2.0, 7.0, 7.0]), slice(1, 3), 10)
    assert (merged.deviation, merged.n_compared, merged.worst) == (7.0, 2, 11)
    assert empty.merged(np.array([1.0]), np.zeros(1, dtype=bool)) is empty


def test_a_check_of_a_record_that_compared_nothing_fails():
    check = _c("row", Measurement("row").deviation, 1.0)
    assert not check.passed and np.isnan(check.measured)
    assert _c("row", Measurement("row", 0.5, 3, 7).deviation, 1.0).passed
