"""Tests for BOTTOM-UP partitioning (§3.2, Algorithm 3, Example 4)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.baselines import random_partition
from repro.core.bottom_up import bottom_up_partition
from repro.core.span import total_version_span_pd
from repro.versioned.generator import generate
from repro.versioned.graph import chain, random_tree
from repro.versioned.membership import membership_pd

from tests.paper_examples import df_kills, df_records, example2


def fig5_chain():
    """Example 4's linear chain in miniature: records with different
    lifespans so the emission order (longest run first) is observable.

    Chain V0..V4. Records: key 0 lives V0..V4 (run 5 from V0); key 1 born
    V1 dies at V3 (lives V1,V2); key 2 born V1 lives to V4 (run 4);
    key 3 born V3 only (killed at V4); key 4 born V4."""
    g = chain(5)
    rec = df_records([(0, 0), (1, 1), (2, 1), (3, 3), (4, 4)])
    kills = df_kills([(1, 1, 3), (3, 3, 4)])
    return g, rec, kills


class TestCorrectness:
    def test_every_record_assigned_exactly_once(self):
        g, rec, kills, _ = example2()
        asg = bottom_up_partition(g, rec, kills, C=2)
        assert len(asg) == len(rec)
        assert not asg.duplicated(["key", "origin"]).any()

    def test_on_generated_tree(self):
        g = random_tree(40, deepen_prob=0.9, seed=5)
        ds = generate(g, n_base=100, pct_update=10, seed=2)
        asg = bottom_up_partition(g, ds.records, ds.kills, C=500)
        assert len(asg) == ds.n_unique
        assert set(zip(asg.key, asg.origin)) == set(zip(ds.records.key,
                                                        ds.records.origin))

    def test_single_version(self):
        g = chain(1)
        rec = df_records([(0, 0), (1, 0)])
        asg = bottom_up_partition(g, rec, df_kills([]), C=2)
        assert len(asg) == 2


class TestEmissionOrder:
    def test_longer_runs_chunked_first(self):
        # Example 4: records serving more consecutive versions are packed
        # before shorter-run records of the same chunking step.
        g, rec, kills = fig5_chain()
        asg = bottom_up_partition(g, rec, kills, C=100)
        # All records fit one chunk here; use C=1-record chunks to see order
        asg1 = bottom_up_partition(g, rec, kills, C=1)
        # key 0 (run 5, root step) and key 2 (run 4) are the longest runs
        # at the root's chunking step; key 0 must be emitted before key 1.
        chunk_of = dict(zip(zip(asg1.key, asg1.origin), asg1.chunk))
        assert chunk_of[(0, 0)] != chunk_of[(1, 1)]

    def test_dead_records_chunked_at_kill_boundary(self):
        # Record (1,1) dies at V3: it is chunked when processing V2's parent
        # and cannot share a chunk with still-live longer-run records when
        # chunks are small.
        g, rec, kills = fig5_chain()
        asg = bottom_up_partition(g, rec, kills, C=2)
        assert len(asg) == 5


class TestQuality:
    @pytest.mark.parametrize("graph_kind", ["chain", "tree"])
    def test_beats_random(self, graph_kind):
        g = chain(40) if graph_kind == "chain" else random_tree(
            40, deepen_prob=0.9, seed=1)
        ds = generate(g, n_base=100, pct_update=15, seed=3)
        mem = membership_pd(g, ds.records, ds.kills)
        C = 800
        bu = total_version_span_pd(mem, bottom_up_partition(
            g, ds.records, ds.kills, C))
        rnd = total_version_span_pd(mem, random_partition(ds.records, C))
        assert bu < rnd

    def test_storage_cost_near_optimal(self):
        g = random_tree(40, deepen_prob=0.9, seed=1)
        ds = generate(g, n_base=100, pct_update=15, seed=3)
        C = 800
        asg = bottom_up_partition(g, ds.records, ds.kills, C)
        lower = -(-int(ds.records["size"].sum()) // C)
        assert asg["chunk"].nunique() <= 1.6 * lower + 1


class TestBeta:
    def test_beta_none_equals_large_beta(self):
        g = chain(30)
        ds = generate(g, n_base=60, pct_update=20, seed=4)
        a = bottom_up_partition(g, ds.records, ds.kills, C=400, beta=None)
        b = bottom_up_partition(g, ds.records, ds.kills, C=400, beta=10_000)
        pd.testing.assert_frame_equal(a, b)

    def test_small_beta_degrades_or_equals_span(self):
        g = random_tree(60, deepen_prob=0.95, seed=8)
        ds = generate(g, n_base=150, pct_update=15, seed=4)
        mem = membership_pd(g, ds.records, ds.kills)
        C = 1200
        full = total_version_span_pd(mem, bottom_up_partition(
            g, ds.records, ds.kills, C, beta=None))
        tiny = total_version_span_pd(mem, bottom_up_partition(
            g, ds.records, ds.kills, C, beta=2))
        assert tiny >= full * 0.95  # β merging should not help much

    def test_beta_still_assigns_everything(self):
        g = random_tree(30, deepen_prob=0.9, seed=8)
        ds = generate(g, n_base=50, pct_update=20, seed=4)
        asg = bottom_up_partition(g, ds.records, ds.kills, C=300, beta=3)
        assert len(asg) == ds.n_unique
