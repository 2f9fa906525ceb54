"""Tests for BOTTOM-UP partitioning (§3.2, Algorithm 3, Example 4)."""
from collections import defaultdict

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import random_partition
from repro.core.bottom_up import _bucket, bottom_up_partition
from repro.core.chunking import pack_ordered
from repro.core.span import total_version_span_pd
from repro.versioned.generator import generate
from repro.versioned.graph import VersionGraph, chain, dag_to_tree, random_tree
from repro.versioned.membership import membership_pd
from repro.versioned.walker import deltas_by_version, walk

from tests.paper_examples import (df_kills, df_records, example2,
                                  reinsert_deleted)


def reference_bottom_up(graph, records, kills, C, *, beta=None,
                        start_chunk=0):
    """BOTTOM-UP as a per-version rebuild: at every exit, each child's
    π-collection is expanded record by record and π_v is built afresh from
    the live set. Slow, but a direct reading of §3.2; the incremental
    partitioner must match it frame for frame."""
    sizes = {(int(k), int(o)): int(s)
             for k, o, s in zip(records["key"], records["origin"],
                                records["size"])}
    pi = {}
    emitted = []  # (step, run, rec)
    step_counter = [0]

    def _emit(rec_counts):
        step = step_counter[0]
        step_counter[0] += 1
        for rec in sorted(rec_counts, key=lambda r: (-rec_counts[r], r)):
            emitted.append((step, rec_counts[rec], rec))

    def _cap_beta(coll):
        if beta is None or len(coll) <= beta:
            return coll
        while len(coll) > beta:
            runs = sorted(coll, key=lambda r: (len(coll[r]), r))
            victim = runs[0]
            longer = [r for r in sorted(coll) if r > victim]
            target = longer[0] if longer else sorted(coll)[-1]
            if target == victim:
                break
            coll[target] |= coll.pop(victim)
        return coll

    def _exit(v, live):
        merged = defaultdict(int)
        for c in graph.children[v]:
            for run, recs in pi.pop(c).items():
                for rec in recs:
                    merged[rec] += run
        dead = {}
        pi_v = defaultdict(set)
        for rec, run in merged.items():
            if live.get(rec[0]) == rec[1]:
                pi_v[run + 1].add(rec)
            else:
                dead[rec] = run
        if dead:
            _emit(dead)
        fresh = set(live.items()) - set().union(*pi_v.values())
        if fresh:
            pi_v[1] |= fresh
        pi[v] = _cap_beta(dict(pi_v))

    walk(graph, *deltas_by_version(graph.n, records, kills), _exit)
    root_counts = {rec: run for run, recs in pi.pop(0).items() for rec in recs}
    if root_counts:
        _emit(root_counts)
    order = sorted(range(len(emitted)),
                   key=lambda i: (-_bucket(emitted[i][1]), emitted[i][0], i))
    ordered_sizes = np.array([sizes[emitted[i][2]] for i in order],
                             dtype=np.int64)
    groups = [_bucket(emitted[i][1]) for i in order]
    ids, _ = pack_ordered(ordered_sizes, C, group_ids=groups,
                          start_chunk=start_chunk)
    out = pd.DataFrame([emitted[i][2] for i in order],
                       columns=["key", "origin"])
    out["size"] = ordered_sizes
    out["chunk"] = ids
    return out.astype({"key": "int64", "origin": "int64"})


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


def _drawn_input(kind, n, seed, pct_update, frac_delete):
    """A ``(graph, records, kills)`` input of the given kind."""
    if kind == "empty":
        records = df_records([]).astype(
            {"key": "int64", "origin": "int64", "size": "int64"})
        return chain(n), records, df_kills([])
    if kind == "one version":
        g = chain(1)
    elif kind == "chain":
        g = chain(n)
    else:
        g = random_tree(max(n, 2), seed=seed,
                        deepen_prob=0.95 if kind == "deep" else 0.5)
    ds = generate(g, n_base=12, pct_update=pct_update,
                  frac_delete=frac_delete, record_size=(1, 200),
                  with_payload=False, seed=seed)
    records, kills = ds.records, ds.kills
    if kind == "reinserted":
        records = reinsert_deleted(g, records, kills)
    elif kind == "dag" and g.n >= 4:
        # A merge of the last version with a version off its ancestor path.
        v = g.n - 1
        others = [u for u in range(g.n) if u not in g.ancestors(v) and u != v]
        if others:
            dag = VersionGraph(list(g.parent),
                               extra_parents={v: [others[seed % len(others)]]})
            g, records, kills = dag_to_tree(dag, records, kills)
    return g, records, kills


class TestAgainstReference:
    """The incremental recursion equals the per-version rebuild."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["chain", "bushy", "deep", "reinserted",
                                 "dag", "one version", "empty"]),
           n=st.integers(1, 30), seed=st.integers(0, 10_000),
           pct_update=st.integers(1, 80),
           frac_delete=st.sampled_from([0.1, 0.6, 0.9]),
           beta=st.sampled_from([None, 1, 2, 3, 10]),
           C=st.integers(1, 3000), start_chunk=st.integers(0, 50))
    def test_frame_identical(self, kind, n, seed, pct_update, frac_delete,
                             beta, C, start_chunk):
        g, records, kills = _drawn_input(kind, n, seed, pct_update,
                                         frac_delete)
        pd.testing.assert_frame_equal(
            reference_bottom_up(g, records, kills, C, beta=beta,
                                start_chunk=start_chunk),
            bottom_up_partition(g, records, kills, C, beta=beta,
                                start_chunk=start_chunk))
