"""Tests for fixed-size chunk packing (§2.5)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunking import OVERFLOW, pack_ordered


def chunk_fills(sizes, ids):
    fills = {}
    for s, c in zip(sizes, ids):
        fills[c] = fills.get(c, 0) + s
    return fills


class TestSequentialFill:
    def test_exact_fill(self):
        ids, nxt = pack_ordered([5, 5, 5, 5], 10)
        assert ids.tolist() == [0, 0, 1, 1]
        assert nxt >= 2

    def test_empty(self):
        ids, nxt = pack_ordered([], 10)
        assert len(ids) == 0 and nxt == 0

    def test_single_oversize_record_gets_own_chunk(self):
        ids, _ = pack_ordered([25, 3, 3], 10)
        assert ids[0] not in ids[1:]

    def test_start_chunk_offset(self):
        ids, nxt = pack_ordered([5, 5, 5], 10, start_chunk=100)
        assert ids.min() >= 100 and nxt > 100

    def test_never_splits_below_capacity(self):
        # Records of size 3 into C=10: chunks hold 3 records each (9 bytes).
        ids, _ = pack_ordered([3] * 9, 10)
        fills = chunk_fills([3] * 9, ids)
        assert all(f == 9 for f in fills.values())


class TestGroupsAndPartialMerging:
    def test_group_change_starts_new_chunk_before_merge(self):
        # The group change closes record 0's 5-byte partial; records 1-2
        # fill a 10-byte chunk, and a full chunk is never merged.
        ids, _ = pack_ordered([5, 5, 5], 10, group_ids=[0, 1, 1])
        assert ids[1] == ids[2] and ids[0] != ids[1]

    def test_partials_merge_to_bound_total_chunks(self):
        # 10 groups of one 2-byte record, C=10: merging packs them ~5/chunk.
        sizes = [2] * 10
        ids, _ = pack_ordered(sizes, 10, group_ids=list(range(10)))
        assert len(set(ids.tolist())) <= 3

    def test_merge_respects_overflow_limit(self):
        sizes = [7] * 6
        ids, _ = pack_ordered(sizes, 10, group_ids=list(range(6)))
        fills = chunk_fills(sizes, ids)
        assert all(f <= 10 * OVERFLOW for f in fills.values())

    def test_full_chunks_not_merged(self):
        sizes = [10, 1, 1]
        ids, _ = pack_ordered(sizes, 10, group_ids=[0, 1, 2])
        fills = chunk_fills(sizes, ids)
        assert max(fills.values()) <= int(10 * OVERFLOW)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1,
                    max_size=200),
           st.integers(min_value=10, max_value=100))
    def test_every_record_assigned_and_chunks_bounded(self, sizes, C):
        ids, _ = pack_ordered(sizes, C)
        assert len(ids) == len(sizes)
        fills = chunk_fills(sizes, ids)
        maxrec = max(sizes)
        for f in fills.values():
            assert f <= max(C + maxrec, maxrec)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                    max_size=120))
    def test_chunk_count_near_optimal(self, sizes):
        C = 20
        ids, _ = pack_ordered(sizes, C)
        n_chunks = len(set(ids.tolist()))
        lower = -(-sum(sizes) // C)
        assert n_chunks <= 2 * lower + 1
