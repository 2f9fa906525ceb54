"""Tests for the §2.2 baseline layouts and the DELTA span evaluator."""
import numpy as np
import pandas as pd
import pytest

from repro.core.baselines import (delta_partition, delta_total_span,
                                  delta_version_spans, random_partition,
                                  single_address_partition,
                                  subchunk_partition)
from repro.core.span import total_version_span_pd, version_spans_pd
from repro.versioned.generator import generate
from repro.versioned.graph import chain, random_tree
from repro.versioned.membership import membership_pd

from tests.paper_examples import example2


@pytest.fixture(scope="module")
def gen():
    g = random_tree(30, deepen_prob=0.85, seed=3)
    ds = generate(g, n_base=80, pct_update=10, seed=2)
    mem = membership_pd(g, ds.records, ds.kills)
    return g, ds, mem


class TestSingleAddress:
    def test_one_chunk_per_record(self, gen):
        g, ds, mem = gen
        asg = single_address_partition(ds.records)
        assert asg["chunk"].nunique() == len(asg)

    def test_version_span_equals_version_size(self, gen):
        g, ds, mem = gen
        asg = single_address_partition(ds.records)
        spans = version_spans_pd(mem, asg)
        counts = mem.groupby("vid").size()
        assert (spans == counts).all()


class TestSubchunkBaseline:
    def test_chunk_per_key(self, gen):
        g, ds, mem = gen
        asg = subchunk_partition(ds.records)
        assert (asg.groupby("key")["chunk"].nunique() == 1).all()

    def test_key_span_is_one(self, gen):
        g, ds, mem = gen
        asg = subchunk_partition(ds.records)
        per_key = asg.groupby("key")["chunk"].nunique()
        assert (per_key == 1).all()

    def test_version_span_equals_distinct_keys(self, gen):
        g, ds, mem = gen
        asg = subchunk_partition(ds.records)
        spans = version_spans_pd(mem, asg)
        keys = mem.groupby("vid")["key"].nunique()
        assert (spans == keys).all()


class TestRandom:
    def test_all_assigned(self, gen):
        g, ds, mem = gen
        asg = random_partition(ds.records, C=500, seed=1)
        assert len(asg) == ds.n_unique

    def test_seed_controls_layout(self, gen):
        g, ds, mem = gen
        a = random_partition(ds.records, C=500, seed=1)
        b = random_partition(ds.records, C=500, seed=2)
        sa = total_version_span_pd(mem, a)
        sb = total_version_span_pd(mem, b)
        # Different shuffles; spans are close but layouts differ.
        assert not a.sort_values(["key", "origin"])["chunk"].reset_index(
            drop=True).equals(
            b.sort_values(["key", "origin"])["chunk"].reset_index(drop=True))
        assert abs(sa - sb) < 0.2 * max(sa, sb)


class TestDelta:
    def test_chunks_never_mix_origins(self, gen):
        g, ds, mem = gen
        asg = delta_partition(g, ds.records, C=500)
        assert (asg.groupby("chunk")["origin"].nunique() == 1).all()

    def test_span_is_path_sum_example2(self):
        g, rec, kills, _ = example2()
        asg = delta_partition(g, rec, C=100)  # each delta = 1 chunk
        spans = delta_version_spans(g, asg)
        # per-version chunks: V0:1, V1:1, V2:1, V3:0 (delete only), V4:1
        assert spans[0] == 1
        assert spans[1] == 2      # V0 + V1
        assert spans[2] == 2      # V0 + V2
        assert spans[3] == 2      # V0 + V1 + (empty V3)
        assert spans[4] == 3      # V0 + V2 + V4

    def test_total_span_grows_with_depth(self):
        g = chain(30)
        ds = generate(g, n_base=50, pct_update=10, seed=2)
        asg = delta_partition(g, ds.records, C=500)
        spans = delta_version_spans(g, asg).to_numpy()
        assert (np.diff(spans) >= 0).all()

    def test_delta_total_span_matches_sum(self, gen):
        g, ds, mem = gen
        asg = delta_partition(g, ds.records, C=500)
        assert delta_total_span(g, asg) == int(
            delta_version_spans(g, asg).sum())

    def test_storage_chunks_at_least_one_per_nonempty_delta(self, gen):
        g, ds, mem = gen
        asg = delta_partition(g, ds.records, C=10**9)
        assert asg["chunk"].nunique() == ds.records["origin"].nunique()
