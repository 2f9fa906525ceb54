"""End-to-end query-processing tests (§2.4) against the DuckDB oracle."""
import numpy as np
import pytest

from repro.core.bottom_up import bottom_up_partition
from repro.core.indexes import build_indexes, chunk_map_df
from repro.core.query import (QueryEngine, plan_evolution, plan_full_version,
                              plan_range, plan_record)
from repro.core.span import assignment_df
from repro.kvs.cost import CostModel
from repro.kvs.store import ChunkStore
from repro.oracle import assert_equivalent
from repro.versioned.generator import generate
from repro.versioned.graph import random_tree
from repro.versioned.membership import membership_pd, membership_spark


@pytest.fixture(scope="module")
def engine(spark, tmp_path_factory):
    g = random_tree(25, deepen_prob=0.85, seed=41)
    ds = generate(g, n_base=60, pct_update=15, with_payload=True, seed=14)
    rdf = ds.spark_records(spark)
    mem_s = membership_spark(spark, g, rdf, ds.spark_kills(spark)).cache()
    mem_p = membership_pd(g, ds.records, ds.kills)
    asg = bottom_up_partition(g, ds.records, ds.kills, C=600)
    adf = assignment_df(spark, asg)
    idx = build_indexes(mem_s, adf)
    st = ChunkStore(tmp_path_factory.mktemp("qkvs"), n_nodes=2)
    st.write(rdf.join(adf.select("key", "origin", "chunk"), ["key", "origin"]),
             chunk_map_df(mem_s, adf))
    qe = QueryEngine(spark, st, idx)
    return g, ds, mem_p, asg, qe


class TestFullVersion:
    @pytest.mark.parametrize("vid", [0, 7, 24])
    def test_q1_matches_oracle(self, engine, vid):
        g, ds, mem_p, asg, qe = engine
        out, stats = qe.full_version(vid)
        sql = f"""
        SELECT m.key AS key, m.origin AS origin, r."size" AS size,
               r.payload AS payload
        FROM member m JOIN records r
          ON m.key = r.key AND m.origin = r.origin
        WHERE m.vid = {vid}
        """
        assert_equivalent(out, sql, member=mem_p, records=ds.records)

    def test_q1_stats_match_index(self, engine):
        g, ds, mem_p, asg, qe = engine
        out, stats = qe.full_version(5)
        assert stats.span == len(qe.indexes.chunks_for_version(5))
        assert stats.sim_time_s > 0


class TestRange:
    def test_q2_matches_oracle(self, engine):
        g, ds, mem_p, asg, qe = engine
        out, stats = qe.range_query(10, 5, 30)
        sql = """
        SELECT m.key AS key, m.origin AS origin, r."size" AS size,
               r.payload AS payload
        FROM member m JOIN records r
          ON m.key = r.key AND m.origin = r.origin
        WHERE m.vid = 10 AND m.key BETWEEN 5 AND 30
        """
        assert_equivalent(out, sql, member=mem_p, records=ds.records)

    def test_q2_span_no_more_than_q1(self, engine):
        g, ds, mem_p, asg, qe = engine
        _, full = qe.full_version(10)
        _, part = qe.range_query(10, 5, 30)
        assert part.span <= full.span


class TestEvolution:
    @pytest.mark.parametrize("key", [0, 3, 17])
    def test_q3_matches_oracle(self, engine, key):
        g, ds, mem_p, asg, qe = engine
        out, stats = qe.record_evolution(key)
        sql = f"""
        SELECT key, origin, "size" AS size, payload
        FROM records WHERE key = {key}
        """
        assert_equivalent(out, sql, records=ds.records)

    def test_q3_span_matches_key_chunks(self, engine):
        g, ds, mem_p, asg, qe = engine
        _, stats = qe.record_evolution(3)
        assert stats.span == len(qe.indexes.chunks_for_key(3))


class TestPoint:
    def test_point_query_resolves_predecessor_origin(self, engine):
        # A key updated mid-history: the record returned for a later
        # version must carry the origin where it was last modified.
        g, ds, mem_p, asg, qe = engine
        cand = mem_p[mem_p.vid != mem_p.origin]
        row = cand.iloc[0]
        out, stats = qe.record(int(row.key), int(row.vid))
        got = out.toPandas()
        assert len(got) == 1
        assert int(got.origin.iloc[0]) == int(row.origin)

    def test_point_query_missing_key_empty(self, engine):
        g, ds, mem_p, asg, qe = engine
        # Key deleted before this version, or never present.
        dead = set(ds.records.key) - set(mem_p[mem_p.vid == g.n - 1].key)
        if not dead:
            pytest.skip("no deleted keys in generated data")
        out, _ = qe.record(int(sorted(dead)[0]), g.n - 1)
        assert out.count() == 0


class TestPlanner:
    """The one planner: exact for Q1/Q3, a superset for Q2/point."""

    @staticmethod
    def _joined(mem_p, asg):
        return mem_p.merge(asg[["key", "origin", "chunk"]],
                           on=["key", "origin"])

    def test_q1_plan_is_version_projection(self, engine):
        g, ds, mem_p, asg, qe = engine
        cb = asg.groupby("chunk")["size"].sum()
        for vid, grp in self._joined(mem_p, asg).groupby("vid"):
            want = sorted(int(c) for c in grp["chunk"].unique())
            ids, stats = plan_full_version(qe.indexes, vid)
            assert ids == want
            assert stats.span == len(want)
            assert stats.bytes == int(cb.loc[want].sum())

    def test_q3_plan_is_key_projection(self, engine):
        g, ds, mem_p, asg, qe = engine
        for key, grp in asg.groupby("key"):
            ids, _ = plan_evolution(qe.indexes, key)
            assert ids == sorted(int(c) for c in grp["chunk"].unique())

    def test_q2_and_point_plans_cover_matching_chunks(self, engine):
        g, ds, mem_p, asg, qe = engine
        joined = self._joined(mem_p, asg)
        rng = np.random.default_rng(3)
        top = int(asg["key"].max())
        for _ in range(40):
            vid = int(rng.integers(g.n))
            lo = int(rng.integers(0, top))
            hi = lo + int(rng.integers(1, top // 2))
            ids, _ = plan_range(qe.indexes, vid, lo, hi)
            match = joined[(joined.vid == vid) & joined.key.between(lo, hi)]
            assert set(match["chunk"]) <= set(ids)
            assert set(ids) <= set(qe.indexes.chunks_for_version(vid))
            assert ids == sorted(ids)
        for r in joined.sample(n=40, random_state=0).itertuples():
            ids, _ = plan_record(qe.indexes, r.key, r.vid)
            assert r.chunk in ids

    def test_cost_model_is_the_given_one(self, engine):
        *_, qe = engine
        model = CostModel(concurrency=4, process_s_per_chunk=0.5)
        ids, stats = plan_full_version(qe.indexes, 5, model)
        assert stats.sim_time_s == model.retrieval_time(len(ids), stats.bytes)

    def test_engine_stats_equal_plan(self, engine):
        g, ds, mem_p, asg, qe = engine
        key, vid = int(mem_p.key.iloc[0]), int(mem_p.vid.iloc[0])
        pairs = [
            (qe.full_version(vid), plan_full_version(qe.indexes, vid)),
            (qe.range_query(vid, 5, 30), plan_range(qe.indexes, vid, 5, 30)),
            (qe.record_evolution(key), plan_evolution(qe.indexes, key)),
            (qe.record(key, vid), plan_record(qe.indexes, key, vid)),
        ]
        for (_, got), (_, want) in pairs:
            assert got == want
