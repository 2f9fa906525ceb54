"""End-to-end query-processing tests (§2.4) against the DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.core.bottom_up import bottom_up_partition
from repro.core.indexes import IndexSet
from repro.core.query import (COLUMNS, QueryEngine, plan_evolution,
                              plan_full_version, plan_range, plan_record)
from repro.kvs.cost import CostModel
from repro.oracle import assert_equivalent
from repro.pipeline import lay_out
from repro.versioned.generator import generate
from repro.versioned.graph import random_tree
from repro.versioned.membership import membership_pd


@pytest.fixture(scope="module")
def engine(spark, tmp_path_factory):
    g = random_tree(25, deepen_prob=0.85, seed=41)
    ds = generate(g, n_base=60, pct_update=15, with_payload=True, seed=14)
    mem_p = membership_pd(g, ds.records, ds.kills)
    asg = bottom_up_partition(g, ds.records, ds.kills, C=600)
    st = lay_out(spark, ds, asg, tmp_path_factory.mktemp("qkvs"), n_nodes=2)
    qe = QueryEngine(spark, st, st.indexes)
    return g, ds, mem_p, asg, qe


class TestStoreLayout:
    def test_one_file_per_chunk(self, engine):
        g, ds, mem_p, asg, qe = engine
        files = list(qe.store.path.rglob("*.parquet"))
        assert (sorted(int(f.parent.name.split("=")[1]) for f in files)
                == sorted(asg["chunk"].unique()))


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
        assert len(out.toPandas()) == 0


class TestRandomized:
    """Seeded random Q1/Q2/Q3/point queries against a pandas oracle built
    from exact membership ⋈ records."""

    N = 240

    @staticmethod
    def _canon(df):
        out = df[COLUMNS].astype({"key": "int64", "origin": "int64",
                                  "size": "int64"})
        return out.sort_values(["key", "origin"]).reset_index(drop=True)

    def _check(self, out, want):
        got = out.toPandas()
        assert list(got.columns) == COLUMNS
        pd.testing.assert_frame_equal(self._canon(got), self._canon(want))

    def test_random_queries_match_oracle(self, engine):
        g, ds, mem_p, asg, qe = engine
        rec = ds.records[COLUMNS]
        live = mem_p[["vid", "key", "origin"]].merge(rec, on=["key", "origin"])
        top = int(rec["key"].max())
        rng = np.random.default_rng(11)
        kinds = rng.choice(["q1", "q2", "q3", "point"], size=self.N)
        for kind in kinds:
            vid = int(rng.integers(g.n))
            v = live[live.vid == vid]
            if kind == "q1":
                out, _ = qe.full_version(vid)
                want = v
            elif kind == "q2":
                lo = int(rng.integers(0, top + 1))
                hi = lo + int(rng.integers(0, top // 4 + 1))
                out, _ = qe.range_query(vid, lo, hi)
                want = v[v.key.between(lo, hi)]
            elif kind == "q3":
                key = int(rng.integers(0, top + 2))  # top + 1 was never used
                out, _ = qe.record_evolution(key)
                want = rec[rec.key == key]
            else:
                key = int(rng.integers(0, top + 1))  # live in vid or not
                out, _ = qe.record(key, vid)
                want = v[v.key == key]
            self._check(out, want)

    def test_empty_q2_plan_returns_no_rows(self, engine):
        g, ds, mem_p, asg, qe = engine
        top = int(ds.records["key"].max())
        out, stats = qe.range_query(0, top + 1, top + 10)
        assert stats.span == 0
        got = out.toPandas()
        assert len(got) == 0 and list(got.columns) == COLUMNS


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


class TestPlanRangeBisect:
    """Q2 planning bisects the sorted keys; it returns the chunks that a
    scan over every key returns. No Spark needed."""

    @staticmethod
    def scan(idx, vid, lo, hi):
        k_chunks = set()
        for key, chunks in idx.key_to_chunks.items():
            if lo <= key <= hi:
                k_chunks.update(chunks)
        return sorted(set(idx.chunks_for_version(vid)) & k_chunks)

    @pytest.mark.parametrize("seed", range(5))
    def test_same_ids_as_scan(self, seed):
        rng = np.random.default_rng(seed)
        n_keys, n_chunks = int(rng.integers(0, 60)), int(rng.integers(1, 12))
        keys = rng.choice(200, size=n_keys, replace=False) + 10
        idx = IndexSet.from_pairs(
            pd.DataFrame({"vid": rng.integers(0, 5, 80),
                          "chunk": rng.integers(0, n_chunks, 80)}),
            pd.DataFrame({"key": np.repeat(keys, 2),
                          "chunk": rng.integers(0, n_chunks, 2 * n_keys)}),
            {c: 100 for c in range(n_chunks)})
        for _ in range(50):
            vid = int(rng.integers(0, 6))
            lo = int(rng.integers(-20, 240))
            hi = lo + int(rng.integers(-5, 120))  # hi < lo: an empty range
            ids, stats = plan_range(idx, vid, lo, hi)
            assert ids == self.scan(idx, vid, lo, hi)
            assert stats.span == len(ids)
