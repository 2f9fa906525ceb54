"""End-to-end pipeline tests: the evaluation's qualitative claims hold on
small generated datasets (Fig 8's ordering, compression's effect, §2.3)."""
import pytest

from repro.core.baselines import (delta_partition, delta_total_span,
                                  random_partition)
from repro.core.bottom_up import bottom_up_partition
from repro.core.shingle import shingle_pd
from repro.core.span import total_version_span_pd
from repro.core.subchunks import build_subchunks, compress_subchunks, sc_dataset
from repro.core.traversal import bfs_partition, dfs_partition
from repro.kvs.cost import SEC23_MODEL
from repro.versioned.generator import generate
from repro.versioned.graph import random_tree
from repro.versioned.membership import membership_pd


@pytest.fixture(scope="module")
def branched():
    g = random_tree(50, deepen_prob=0.92, seed=51)
    ds = generate(g, n_base=120, pct_update=10, p_d=0.05,
                  with_payload=True, seed=15)
    return g, ds, membership_pd(g, ds.records, ds.kills)


class TestFig8Ordering:
    def test_bottom_up_wins_and_delta_loses(self, spark, branched):
        g, ds, mem_p = branched
        C = 1000
        spans = {
            "bottomup": total_version_span_pd(
                mem_p, bottom_up_partition(g, ds.records, ds.kills, C)),
            "dfs": total_version_span_pd(mem_p, dfs_partition(g, ds.records, C)),
            "bfs": total_version_span_pd(mem_p, bfs_partition(g, ds.records, C)),
            "shingle": total_version_span_pd(
                mem_p, shingle_pd(spark, mem_p, C)),
            "delta": delta_total_span(
                g, delta_partition(g, ds.records, C)),
            "random": total_version_span_pd(
                mem_p, random_partition(ds.records, C)),
        }
        # Fig 8: BOTTOM-UP best; BFS never better than DFS; DELTA beaten
        # by BOTTOM-UP; random worst of the informed layouts.
        assert spans["bottomup"] <= min(spans["dfs"], spans["bfs"],
                                        spans["shingle"], spans["delta"])
        assert spans["bfs"] >= spans["dfs"]
        assert spans["random"] > spans["bottomup"]


class TestCompressionPipeline:
    def test_compression_reduces_chunks_and_span(self, spark, branched):
        # Fig 10: with small P_d, larger sub-chunks compress well enough
        # to reduce the total chunk count; span does not explode.
        g, ds, mem_p = branched
        C = 1000
        base = bottom_up_partition(g, ds.records, ds.kills, C)
        base_span = total_version_span_pd(mem_p, base)
        base_chunks = base["chunk"].nunique()

        sc = build_subchunks(g, ds.records, k=8)
        cs = compress_subchunks(ds.records, sc, g.depths())
        screc, sckill, screg = sc_dataset(g, mem_p, sc, cs)
        asg2 = bottom_up_partition(g, screc, sckill, C)
        comp_chunks = asg2["chunk"].nunique()
        assert comp_chunks < base_chunks

        # Span at the record level: record -> sub-chunk -> chunk.
        rec_asg = (sc.merge(asg2.rename(columns={"key": "sc"})[
            ["sc", "chunk"]], on="sc"))
        rec_asg["size"] = 0
        span = total_version_span_pd(mem_p, rec_asg)
        assert span > 0


class TestSec23Effect:
    def test_larger_chunks_cut_simulated_time(self, branched):
        # §2.3's table: retrieval time falls by orders of magnitude as
        # chunk size grows, despite fetching extra irrelevant data.
        g, ds, mem_p = branched
        times = {}
        for C in (100, 1000, 10_000):
            asg = random_partition(ds.records, C, seed=1)
            joined = mem_p.merge(asg, on=["key", "origin"])
            v = joined[joined.vid == g.n - 1]
            span = v["chunk"].nunique()
            nbytes = int(asg[asg["chunk"].isin(v["chunk"].unique())]
                         .groupby("chunk")["size"].sum().sum())
            times[C] = SEC23_MODEL.retrieval_time(span, nbytes)
        assert times[100] > times[1000] > times[10_000] * 0.999
