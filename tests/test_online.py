"""Tests for online partitioning (§4, Fig 13)."""
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bottom_up import bottom_up_partition
from repro.core.chunking import OVERFLOW
from repro.core.online import (online_partition, partition_batch,
                               quality_ratio, _batch_graph)
from repro.versioned.generator import generate
from repro.versioned.graph import VersionGraph, chain, random_tree
from repro.versioned.membership import membership_pd


@pytest.fixture(scope="module")
def gen():
    g = random_tree(60, deepen_prob=0.9, seed=4)
    ds = generate(g, n_base=120, pct_update=10, seed=6)
    mem = membership_pd(g, ds.records, ds.kills)
    return g, ds, mem


class TestBatchGraph:
    def test_forest_wrapping(self, gen):
        g, ds, mem = gen
        bg = _batch_graph(g, 20, 40)
        assert bg.n == 21
        # Batch node b is version 19 + b; a version whose parent is
        # outside the batch hangs under the virtual root 0.
        for b in range(1, bg.n):
            p = g.parent[19 + b]
            assert bg.parent[b] == (p - 19 if p >= 20 else 0)


class TestOnlinePartition:
    def test_all_records_assigned_once(self, gen):
        g, ds, mem = gen
        asg = online_partition(g, ds.records, ds.kills, C=600, batch_size=15)
        assert len(asg) == ds.n_unique
        assert not asg.duplicated(["key", "origin"]).any()

    def test_chunk_ids_disjoint_across_batches(self, gen):
        g, ds, mem = gen
        b1 = partition_batch(g, ds.records, ds.kills, 0, 30, 600, 0)
        b2 = partition_batch(g, ds.records, ds.kills, 30, 60, 600,
                             int(b1["chunk"].max()) + 1)
        assert set(b1["chunk"]).isdisjoint(set(b2["chunk"]))

    def test_snapshots_cover_prefix(self, gen):
        # Placed records never move: the final assignment's rows with
        # origin < t are the layout of the first t versions alone.
        g, ds, mem = gen
        asg = online_partition(g, ds.records, ds.kills, C=600, batch_size=15)
        got = asg[asg["origin"] < 30]
        exp = ds.records[ds.records["origin"] < 30]
        assert len(got) == len(exp)
        prefix = online_partition(VersionGraph(list(g.parent[:30])), exp,
                                  ds.kills[ds.kills["kill_vid"] < 30],
                                  C=600, batch_size=15)
        pd.testing.assert_frame_equal(got, prefix)

    def test_empty_batch_ok(self):
        g = chain(6)
        ds = generate(g, n_base=10, pct_update=10, seed=1)
        # Remove records of versions 2,3 to force an empty batch.
        rec = ds.records[~ds.records["origin"].isin([2, 3])]
        kills = ds.kills[~ds.kills["origin"].isin([2, 3])
                         & ~ds.kills["kill_vid"].isin([2, 3])]
        asg = online_partition(g, rec, kills, C=100, batch_size=2)
        assert len(asg) == len(rec)


def _drawn_input(shape, n, seed, pct_update, frac_delete, record_size):
    if shape == "chain":
        g = chain(n)
    else:
        g = random_tree(n, seed=seed,
                        deepen_prob=0.95 if shape == "deep" else 0.4)
    ds = generate(g, n_base=15, pct_update=pct_update,
                  frac_delete=frac_delete, record_size=record_size,
                  with_payload=False, seed=seed)
    return g, ds.records, ds.kills


_inputs = dict(
    shape=st.sampled_from(["chain", "bushy", "deep"]),
    n=st.integers(2, 40), seed=st.integers(0, 10_000),
    pct_update=st.integers(5, 80), frac_delete=st.sampled_from([0.5, 0.9]),
    record_size=st.tuples(st.integers(1, 100), st.integers(100, 1500)),
    C=st.integers(50, 3000))


class TestOnlineProperties:
    """Online layouts over random trees with delete-heavy deltas."""

    @settings(max_examples=40, deadline=None)
    @given(extra=st.integers(0, 10), **_inputs)
    def test_one_batch_is_offline(self, shape, n, seed, pct_update,
                                  frac_delete, record_size, C, extra):
        g, records, kills = _drawn_input(shape, n, seed, pct_update,
                                         frac_delete, record_size)
        pd.testing.assert_frame_equal(
            online_partition(g, records, kills, C, g.n + extra),
            bottom_up_partition(g, records, kills, C))

    @settings(max_examples=40, deadline=None)
    @given(batch_size=st.integers(1, 15), **_inputs)
    def test_split_batches_keep_the_layout_invariants(
            self, shape, n, seed, pct_update, frac_delete, record_size, C,
            batch_size):
        # Batches smaller than the graph split records from their kills.
        g, records, kills = _drawn_input(shape, n, seed, pct_update,
                                         frac_delete, record_size)
        asg = online_partition(g, records, kills, C, batch_size)
        # Every record is assigned once.
        assert sorted(zip(asg["key"], asg["origin"])) == \
            sorted(zip(records["key"], records["origin"]))
        # A chunk exceeds 1.25·C bytes only when it holds one record.
        per_chunk = asg.groupby("chunk")["size"].agg(["sum", "count"])
        over = per_chunk[per_chunk["sum"] > OVERFLOW * C]
        assert (over["count"] == 1).all(), over
        # No chunk spans two batches.
        batches = (asg["origin"] // batch_size).groupby(asg["chunk"])
        assert (batches.nunique() == 1).all()


class TestQuality:
    def test_ratio_at_least_one_ish(self, gen):
        g, ds, mem = gen
        ratios = quality_ratio(g, ds.records, ds.kills, mem, C=600,
                               batch_sizes=[15], checkpoints=[30, 60])[15]
        for t, r in ratios.items():
            assert r >= 0.9, (t, r)

    def test_larger_batches_do_not_hurt(self, gen):
        # Fig 13: partitioning quality improves with batch size.
        g, ds, mem = gen
        ratios = quality_ratio(g, ds.records, ds.kills, mem, C=600,
                               batch_sizes=[10, 30], checkpoints=[60])
        assert ratios[30][60] <= ratios[10][60] * 1.1

    def test_full_batch_matches_offline(self, gen):
        # batch_size = n reduces to the offline algorithm (ratio == 1).
        g, ds, mem = gen
        ratios = quality_ratio(g, ds.records, ds.kills, mem, C=600,
                               batch_sizes=[g.n], checkpoints=[g.n])[g.n]
        assert ratios[g.n] == pytest.approx(1.0)

    def test_non_boundary_checkpoints_skipped(self, gen):
        g, ds, mem = gen
        ratios = quality_ratio(g, ds.records, ds.kills, mem, C=600,
                               batch_sizes=[25, 30], checkpoints=[30])
        assert ratios[25] == {} and 30 in ratios[30]
