"""Tests for sub-chunk construction (§3.4, Algorithm 5, Fig 7/Example 6)."""
import hashlib

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bottom_up import bottom_up_partition
from repro.core.subchunks import (_runs, build_subchunks, compress_subchunks,
                                  sc_dataset)
from repro.versioned.datasets import make
from repro.versioned.generator import generate
from repro.versioned.graph import VersionGraph, chain, dag_to_tree, random_tree
from repro.versioned.membership import membership_pd

from tests.paper_examples import fig7, reinsert_deleted


def sc_groups(sc_assign):
    out = {}
    for r in sc_assign.itertuples():
        out.setdefault(r.sc, set()).add((int(r.key), int(r.origin)))
    return set(frozenset(s) for s in out.values())


class TestFig7:
    """The paper's Fig 7(c) sub-chunk list with k=3, reproduced exactly."""

    def test_subchunk_groups_match_paper(self):
        g, rec, kills = fig7()
        sc = build_subchunks(g, rec, k=3)
        got = sc_groups(sc)
        want = set(map(frozenset, [
            {(0, 1), (0, 2), (0, 4)},   # SC0
            {(0, 0)},                   # SC1
            {(1, 0), (1, 1), (1, 3)},   # SC2
            {(2, 1), (2, 2), (2, 4)},   # SC3
            {(2, 0)},                   # SC4
            {(3, 2), (3, 4), (3, 5)},   # SC5
            {(3, 0), (3, 6)},           # SC6
            {(4, 3)},                   # SC7
            {(5, 5)},                   # SC8
        ]))
        assert got == want

    def test_representative_composite_keys(self):
        # Fig 7(c)'s CK column: each sub-chunk's key with its representative
        # origin, the shallowest member (Example 6), as phase 2 uses it.
        g, rec, kills = fig7()
        sc = build_subchunks(g, rec, k=3)
        cs = compress_subchunks(rec, sc, g.depths())
        screc, _, _ = sc_dataset(g, membership_pd(g, rec, kills), sc, cs)
        key_of = sc.groupby("sc")["key"].first()
        rep_cks = set(zip(key_of.loc[screc["key"]].tolist(),
                          screc["origin"].tolist()))
        assert rep_cks == {(0, 1), (0, 0), (1, 0), (2, 1), (2, 0), (3, 2),
                           (3, 0), (4, 3), (5, 5)}


class TestInvariants:
    @pytest.fixture(scope="class")
    def gen(self):
        g = random_tree(40, deepen_prob=0.9, seed=6)
        ds = generate(g, n_base=100, pct_update=15, p_d=0.05,
                      with_payload=True, seed=3)
        return g, ds

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_every_record_in_exactly_one_subchunk(self, gen, k):
        g, ds = gen
        sc = build_subchunks(g, ds.records, k=k)
        assert len(sc) == ds.n_unique
        assert not sc.duplicated(["key", "origin"]).any()

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_subchunk_size_bounded_by_k(self, gen, k):
        g, ds = gen
        sc = build_subchunks(g, ds.records, k=k)
        assert sc.groupby("sc").size().max() <= k

    def test_single_key_per_subchunk(self, gen):
        g, ds = gen
        sc = build_subchunks(g, ds.records, k=5)
        assert (sc.groupby("sc")["key"].nunique() == 1).all()

    def test_k1_is_identity(self, gen):
        g, ds = gen
        sc = build_subchunks(g, ds.records, k=1)
        assert sc["sc"].nunique() == ds.n_unique

    def test_invalid_k(self, gen):
        g, ds = gen
        with pytest.raises(ValueError):
            build_subchunks(g, ds.records, k=0)


class TestCompression:
    @pytest.fixture(scope="class")
    def gen(self):
        g = chain(30)
        ds = generate(g, n_base=60, pct_update=20, record_size=400,
                      p_d=0.02, with_payload=True, seed=4)
        return g, ds

    def test_compression_improves_with_k(self, gen):
        g, ds = gen
        ratios = {}
        for k in (1, 5, 20):
            sc = build_subchunks(g, ds.records, k=k)
            cs = compress_subchunks(ds.records, sc, g.depths())
            ratios[k] = cs.raw_bytes.sum() / cs.comp_bytes.sum()
        assert ratios[5] > ratios[1]
        assert ratios[20] > ratios[5]

    def test_compressed_never_bigger_than_raw(self, gen):
        g, ds = gen
        sc = build_subchunks(g, ds.records, k=10)
        cs = compress_subchunks(ds.records, sc, g.depths())
        assert (cs.comp_bytes <= cs.raw_bytes).all()

    def test_without_payload_ratio_is_one(self):
        g = chain(10)
        ds = generate(g, n_base=30, pct_update=20, with_payload=False, seed=1)
        sc = build_subchunks(g, ds.records, k=5)
        cs = compress_subchunks(ds.records, sc, g.depths())
        assert (cs.comp_bytes == cs.raw_bytes).all()


class TestScDataset:
    @pytest.fixture(scope="class")
    def built(self):
        g = random_tree(35, deepen_prob=0.9, seed=7)
        ds = generate(g, n_base=80, pct_update=15, p_d=0.05,
                      with_payload=True, seed=5)
        mem = membership_pd(g, ds.records, ds.kills)
        sc = build_subchunks(g, ds.records, k=4)
        cs = compress_subchunks(ds.records, sc, g.depths())
        return g, ds, mem, sc, cs

    def test_region_equals_member_membership_union(self, built):
        g, ds, mem, sc, cs = built
        _, _, region = sc_dataset(g, mem, sc, cs)
        exact = (mem.merge(sc, on=["key", "origin"])[["vid", "sc"]]
                 .drop_duplicates())
        assert len(region) == len(exact)
        assert (set(map(tuple, region.to_numpy().tolist()))
                == set(map(tuple, exact.to_numpy().tolist())))

    def test_phase2_inputs_consistent_for_walker(self, built):
        g, ds, mem, sc, cs = built
        screc, sckill, _ = sc_dataset(g, mem, sc, cs)
        # bottom_up runs the walker internally; must not raise.
        asg = bottom_up_partition(g, screc, sckill, C=2000)
        assert len(asg) == len(screc)

    def test_representative_is_shallowest_member(self, built):
        g, ds, mem, sc, cs = built
        screc, _, _ = sc_dataset(g, mem, sc, cs)
        depths = g.depths()
        joined = sc.merge(screc.rename(
            columns={"key": "sc", "origin": "rep"}), on="sc")
        assert (depths[joined["rep"].to_numpy()]
                <= depths[joined["origin"].to_numpy()]).all()

    def test_sizes_are_compressed_bytes(self, built):
        g, ds, mem, sc, cs = built
        screc, _, _ = sc_dataset(g, mem, sc, cs)
        assert screc["size"].sum() == cs["comp_bytes"].sum()


class TestRegionRowsDistinct:
    """A version holds one live record of a key and a sub-chunk holds one
    key, so membership ⋈ sub-chunks has distinct ``(vid, sc)`` rows."""

    @staticmethod
    def check(g, records, kills):
        mem = membership_pd(g, records, kills)
        for k in (2, 5, 25):
            sc = build_subchunks(g, records, k=k)
            m = mem.merge(sc, on=["key", "origin"])
            assert len(m) == len(mem)
            assert not m.duplicated(["vid", "sc"]).any()
            cs = compress_subchunks(records, sc, g.depths())
            assert len(sc_dataset(g, mem, sc, cs)[2]) == len(mem)

    @pytest.mark.parametrize("seed", range(4))
    def test_delete_heavy_with_reinserted_keys(self, seed):
        g = random_tree(40, deepen_prob=0.7, seed=seed)
        ds = generate(g, n_base=30, pct_update=50, frac_delete=0.6,
                      with_payload=False, seed=seed)
        records = reinsert_deleted(g, ds.records, ds.kills)
        assert len(records) > ds.n_unique
        self.check(g, records, ds.kills)

    def test_dag_to_tree_output(self):
        # Merges from another branch rename the records that reach the merge
        # only through the dropped parent: keys inserted again (Fig 4).
        g = random_tree(30, deepen_prob=0.6, seed=9)
        ds = generate(g, n_base=30, pct_update=40, frac_delete=0.6,
                      with_payload=False, seed=9)
        assert 3 not in g.ancestors(20)
        dag = VersionGraph(list(g.parent), extra_parents={20: [3]})
        tree, records, kills = dag_to_tree(dag, ds.records, ds.kills)
        assert len(records) > ds.n_unique
        self.check(tree, records, kills)


def _digest(df: pd.DataFrame) -> str:
    """SHA-256 (first 20 hex digits) of a frame's columns, dtypes, index
    and values in row order."""
    h = hashlib.sha256()
    h.update(repr([(c, str(df[c].dtype)) for c in df.columns]).encode())
    h.update(np.ascontiguousarray(df.index.to_numpy()).tobytes())
    for c in df.columns:
        h.update(np.ascontiguousarray(df[c].to_numpy()).tobytes())
    return h.hexdigest()[:20]


def _pinned_input(name: str):
    if name == "B0s":
        return make("B0s", scale=0.25, with_payload=True)
    g = random_tree(60, deepen_prob=0.6, seed=21)
    return generate(g, n_base=50, pct_update=40, frac_delete=0.5,
                    frac_insert=0.2, record_size=(50, 150), p_d=0.2, seed=8)


# Digests of every output of the sub-chunk pipeline, computed at commit
# e2e6474 (the per-group pandas implementation). The invariant tests
# cannot see sub-chunk ids, but BOTTOM-UP breaks ties on (sc, origin), so a
# renumbering would move spans. ``sc_kills`` is compared sorted: its rows
# come in an unspecified order.
PINNED_MEMBERSHIP = {"B0s": "85770b3fcfaf46e8eb67",
                     "deletes": "2c46a2d48e3f529c44b3"}
PINNED = {
    ("B0s", 1): {"build": "9e5e38cf24c6c23bd791",
                 "compress": "17efacc02d7323f053e3",
                 "sc_records": "4692cda9309b69ac4ee7",
                 "sc_region": "65b437ace3dfa8136dcf",
                 "sc_kills": "af6bab97bc9fb0916be8",
                 "bottom_up": "5363e43bb4ee9a9beb05"},
    ("B0s", 5): {"build": "b1b322bdf36f48bb0cdc",
                 "compress": "36445f27485b838e3382",
                 "sc_records": "14a4cf1a878d6091c222",
                 "sc_region": "17f4281a7e77dc84cd58",
                 "sc_kills": "b763163b413a2f80a4ea",
                 "bottom_up": "b5995fc746fdfbbf5dbc"},
    ("B0s", 20): {"build": "737bced4ff2d4bd81502",
                  "compress": "20b9833bdc6eef441997",
                  "sc_records": "e4559b76662f8ff35930",
                  "sc_region": "cae4a3c4b819647eb224",
                  "sc_kills": "1a5410beb557f8dc051c",
                  "bottom_up": "476e39307bd775952754"},
    ("deletes", 1): {"build": "52fd65b75baefd1f1f57",
                     "compress": "6f1c56e91d1e0f38be61",
                     "sc_records": "a3370b0cbfc45f448994",
                     "sc_region": "b15c2960fa13f01ad8f9",
                     "sc_kills": "05f621a6592f97176069",
                     "bottom_up": "36f3c392b4ead2efe206"},
    ("deletes", 5): {"build": "ea29d8e45e3de96da1e5",
                     "compress": "51082b6a9edadf1dae59",
                     "sc_records": "cdd45b331f331831f451",
                     "sc_region": "226d0a8ddffabcfc1c80",
                     "sc_kills": "23de1bd45dd25ab740fa",
                     "bottom_up": "799f643a1545cdfcb2c1"},
    ("deletes", 20): {"build": "872a514365ed7885ee6c",
                      "compress": "d1bb25343285b2756ec3",
                      "sc_records": "a62ca57384c6d72fa854",
                      "sc_region": "223bb361fa00c1f83344",
                      "sc_kills": "67b92de5a47a1cfefdb5",
                      "bottom_up": "6ffb41b839de8293248b"},
}

# BOTTOM-UP on the raw records (no sub-chunks) at C = 5000, by β, computed
# at commit 35f8f06 (the per-version rebuild of every π-collection).
PINNED_BOTTOM_UP = {("B0s", None): "66e0ffc564d56df416aa",
                    ("B0s", 3): "857bcf2c39a1ed85e704",
                    ("deletes", None): "4df1405b661cea98dd49",
                    ("deletes", 3): "e81ed6e69ba5276b588e"}


class TestPinnedOutputs:
    """Every output is identical, row for row, to the pinned reference."""

    @pytest.fixture(scope="class")
    def inputs(self):
        out = {}
        for name in PINNED_MEMBERSHIP:
            ds = _pinned_input(name)
            out[name] = ds, membership_pd(ds.graph, ds.records, ds.kills)
        return out

    @pytest.mark.parametrize("name", sorted(PINNED_MEMBERSHIP))
    def test_membership(self, inputs, name):
        assert _digest(inputs[name][1]) == PINNED_MEMBERSHIP[name]

    @pytest.mark.parametrize("name,k", sorted(PINNED))
    def test_subchunk_pipeline(self, inputs, name, k):
        ds, mem = inputs[name]
        g = ds.graph
        sc = build_subchunks(g, ds.records, k=k)
        cs = compress_subchunks(ds.records, sc, g.depths())
        screc, sckill, screg = sc_dataset(g, mem, sc, cs)
        got = {"build": sc, "compress": cs, "sc_records": screc,
               "sc_region": screg,
               "sc_kills": sckill.sort_values(["key", "origin", "kill_vid"])
               .reset_index(drop=True),
               "bottom_up": bottom_up_partition(g, screc, sckill, 5000)}
        assert {n: _digest(df) for n, df in got.items()} == PINNED[(name, k)]

    @pytest.mark.parametrize("name,beta", list(PINNED_BOTTOM_UP))
    def test_bottom_up_raw_records(self, inputs, name, beta):
        ds, _ = inputs[name]
        got = bottom_up_partition(ds.graph, ds.records, ds.kills, 5000,
                                  beta=beta)
        assert _digest(got) == PINNED_BOTTOM_UP[(name, beta)]


def _parent_record(g, exists, key, origin):
    """The record of ``key`` at the nearest proper ancestor of ``origin``."""
    u = g.parent[origin]
    while u is not None:
        if (key, u) in exists:
            return key, u
        u = g.parent[u]
    return None


class TestLemma1:
    """Lemma 1: every sub-chunk is a connected group of at most k records
    of one key, linking each record to the record of its key at the
    nearest ancestor origin."""

    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from(["chain", "bushy", "deep"]),
           n=st.integers(2, 40), seed=st.integers(0, 10_000),
           pct_update=st.integers(1, 60), k=st.integers(1, 25))
    def test_subchunks_connected_single_key_bounded(self, shape, n, seed,
                                                    pct_update, k):
        g = (chain(n) if shape == "chain" else
             random_tree(n, deepen_prob=0.5 if shape == "bushy" else 0.95,
                         seed=seed))
        ds = generate(g, n_base=20, pct_update=pct_update, frac_delete=0.3,
                      with_payload=False, seed=seed)
        sc = build_subchunks(g, ds.records, k=k)
        exists = set(zip(sc["key"].tolist(), sc["origin"].tolist()))
        assert len(exists) == len(sc) == ds.n_unique
        for _, grp in sc.groupby("sc"):
            members = set(zip(grp["key"].tolist(), grp["origin"].tolist()))
            assert len(members) <= k
            assert grp["key"].nunique() == 1
            tops = [r for r in members
                    if _parent_record(g, exists, *r) not in members]
            assert len(tops) == 1


class TestEmptyInput:
    """No records: every stage returns empty int64 frames."""

    @pytest.mark.parametrize("k", [1, 5])
    def test_all_stages(self, k):
        g = chain(4)
        records = pd.DataFrame({"key": pd.Series(dtype="int64"),
                                "origin": pd.Series(dtype="int64"),
                                "size": pd.Series(dtype="int64"),
                                "payload": pd.Series(dtype="object")})
        kills = pd.DataFrame({"key": pd.Series(dtype="int64"),
                              "origin": pd.Series(dtype="int64"),
                              "kill_vid": pd.Series(dtype="int64")})
        mem = membership_pd(g, records, kills)
        sc = build_subchunks(g, records, k=k)
        cs = compress_subchunks(records, sc, g.depths())
        screc, sckill, screg = sc_dataset(g, mem, sc, cs)
        for df, cols in [(mem, ["vid", "key", "origin", "size"]),
                         (sc, ["key", "origin", "sc"]),
                         (cs, ["sc", "raw_bytes", "comp_bytes", "n_members"]),
                         (screc, ["key", "origin", "size"]),
                         (sckill, ["key", "origin", "kill_vid"]),
                         (screg, ["vid", "sc"])]:
            assert list(df.columns) == cols
            assert len(df) == 0
            assert (df.dtypes == "int64").all(), df.dtypes


def reference_sc_dataset(graph, membership, sc_assign, sc_sizes):
    """``sc_dataset`` by one merge and a DFS of every sub-chunk's region
    from its representative: a child of the component outside the region
    kills the sub-chunk there. The oracle of the vectorised kills."""
    depths = graph.depths()
    m = membership.merge(sc_assign, on=["key", "origin"])
    sc_region = m[["vid", "sc"]]

    sc_all = m["sc"].to_numpy(np.int64)
    order = np.argsort(sc_all)
    sc = sc_all[order]
    starts, ends = _runs(sc)
    vids = m["vid"].to_numpy(np.int64)[order].tolist()
    origin = m["origin"].to_numpy(np.int64)[order]
    code = depths[origin] * graph.n + origin
    reps = np.minimum.reduceat(code, starts) % graph.n
    ids = sc[starts]
    sizes = sc_sizes.set_index("sc")["comp_bytes"].loc[ids].to_numpy(np.int64)

    kill_rows = []
    for sc_id, root, s, e in zip(ids.tolist(), reps.tolist(), starts.tolist(),
                                 ends.tolist()):
        region = set(vids[s:e])
        stack = [root] if root in region else []
        while stack:
            for c in graph.children[stack.pop()]:
                if c in region:
                    stack.append(c)
                else:
                    kill_rows.append((sc_id, root, c))
    sc_records = pd.DataFrame({"key": ids, "origin": reps, "size": sizes})
    sc_kills = pd.DataFrame(kill_rows, columns=["key", "origin", "kill_vid"]
                            ).astype("int64") if kill_rows else pd.DataFrame(
        {"key": pd.Series(dtype="int64"), "origin": pd.Series(dtype="int64"),
         "kill_vid": pd.Series(dtype="int64")})
    return sc_records, sc_kills, sc_region


def _update_reinserted(g, records, kills, n_original):
    """Kill every re-inserted record ``records[n_original:]`` at the first
    child of its origin, re-adding the key there every other time (an
    update): members outside their representative's component then have
    kills of their own."""
    again = records.iloc[n_original:]
    new_kills, new_records = [], []
    for i, (k, c) in enumerate(zip(again["key"].tolist(),
                                   again["origin"].tolist())):
        if g.children[c]:
            d = g.children[c][0]
            new_kills.append((k, c, d))
            if i % 2:
                new_records.append((k, d, 77, None))
    return (pd.concat([records, pd.DataFrame(new_records,
                                             columns=records.columns)],
                      ignore_index=True),
            pd.concat([kills, pd.DataFrame(new_kills, columns=kills.columns)],
                      ignore_index=True))


def _sorted_kills(kills):
    return kills.sort_values(["key", "origin", "kill_vid"]).reset_index(
        drop=True)


class TestScDatasetAgainstReference:
    """The vectorised kills give the reference's phase-2 inputs, on trees
    of every shape, on delete-heavy inputs whose re-inserted keys make
    disconnected sub-chunks, and on ``dag_to_tree`` outputs."""

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from(["chain", "bushy", "deep", "single"]),
           edit=st.sampled_from(["none", "reinsert", "reinsert_update",
                                 "dag"]),
           n=st.integers(3, 40), seed=st.integers(0, 10_000),
           k=st.integers(1, 20))
    def test_same_outputs_as_reference(self, shape, edit, n, seed, k):
        g = (chain(1) if shape == "single" else chain(n) if shape == "chain"
             else random_tree(n, deepen_prob=0.5 if shape == "bushy" else 0.95,
                              seed=seed))
        ds = generate(g, n_base=20, pct_update=50,
                      frac_delete=0.2 if edit == "none" else 0.6,
                      record_size=(20, 300), with_payload=False, seed=seed)
        records, kills = ds.records, ds.kills
        if edit.startswith("reinsert"):
            records = reinsert_deleted(g, records, kills)
            if edit == "reinsert_update":
                records, kills = _update_reinserted(g, records, kills,
                                                    len(ds.records))
        elif edit == "dag":
            rng = np.random.default_rng(seed)
            v = int(rng.integers(g.n))
            others = [u for u in range(g.n) if u not in g.ancestors(v)
                      and v not in g.ancestors(u)]
            if others:
                dag = VersionGraph(list(g.parent), extra_parents={
                    v: [others[int(rng.integers(len(others)))]]})
                g, records, kills = dag_to_tree(dag, records, kills)
        mem = membership_pd(g, records, kills)
        sc = build_subchunks(g, records, k=k)
        cs = compress_subchunks(records, sc, g.depths())
        got = sc_dataset(g, mem, sc, cs)
        want = reference_sc_dataset(g, mem, sc, cs)
        pd.testing.assert_frame_equal(got[0], want[0])
        pd.testing.assert_frame_equal(got[2], want[2])
        pd.testing.assert_frame_equal(_sorted_kills(got[1]),
                                      _sorted_kills(want[1]))
        pd.testing.assert_frame_equal(
            bottom_up_partition(g, got[0], got[1], 600),
            bottom_up_partition(g, want[0], want[1], 600))


class TestUnknownRecords:
    """A record that the sub-chunk assignment does not hold raises; an
    inner merge would silently drop it."""

    @pytest.fixture
    def built(self):
        g, rec, kills = fig7()
        sc = build_subchunks(g, rec, k=3)
        cs = compress_subchunks(rec, sc, g.depths())
        return g, rec, membership_pd(g, rec, kills), sc, cs

    def test_sc_dataset_raises(self, built):
        g, rec, mem, sc, cs = built
        with pytest.raises(KeyError):
            sc_dataset(g, mem, sc.iloc[1:], cs)

    def test_compress_subchunks_raises(self, built):
        g, rec, mem, sc, cs = built
        with pytest.raises(KeyError):
            compress_subchunks(rec, sc.iloc[1:], g.depths())
