"""Tests for the synthetic versioned-dataset generator (§5.1)."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.versioned.generator import generate
from repro.versioned.graph import chain, random_tree
from repro.versioned.membership import membership_pd
from repro.versioned.walker import deltas_by_version, walk


@pytest.fixture(scope="module")
def small_ds():
    g = random_tree(30, deepen_prob=0.85, seed=2)
    return g, generate(g, n_base=80, pct_update=10, update_type="random",
                       record_size=50, with_payload=True, seed=1)


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        g = chain(10)
        a = generate(g, n_base=20, pct_update=20, seed=5)
        b = generate(g, n_base=20, pct_update=20, seed=5)
        pd.testing.assert_frame_equal(a.records, b.records)
        pd.testing.assert_frame_equal(a.kills, b.kills)

    def test_different_seed_differs(self):
        g = chain(10)
        a = generate(g, n_base=20, pct_update=20, seed=5)
        b = generate(g, n_base=20, pct_update=20, seed=6)
        assert not a.records.equals(b.records)


class TestStructuralInvariants:
    def test_composite_keys_unique(self, small_ds):
        g, ds = small_ds
        assert not ds.records.duplicated(["key", "origin"]).any()

    def test_kills_reference_existing_records(self, small_ds):
        g, ds = small_ds
        recs = set(zip(ds.records["key"], ds.records["origin"]))
        for k, o in zip(ds.kills["key"], ds.kills["origin"]):
            assert (k, o) in recs

    def test_deltas_replay_consistently(self, small_ds):
        g, ds = small_ds
        walk(g, *deltas_by_version(g.n, ds.records, ds.kills),
             lambda v, live: None)  # raises if not

    def test_root_has_n_base_records(self, small_ds):
        g, ds = small_ds
        assert (ds.records["origin"] == 0).sum() == 80

    def test_version_bytes_match_membership(self, small_ds):
        g, ds = small_ds
        mem = membership_pd(g, ds.records, ds.kills)
        vb = mem.groupby("vid")["size"].sum().reindex(range(g.n), fill_value=0)
        assert (vb.to_numpy() == ds.version_bytes).all()

    def test_version_counts_match_membership(self, small_ds):
        g, ds = small_ds
        mem = membership_pd(g, ds.records, ds.kills)
        vc = mem.groupby("vid").size().reindex(range(g.n), fill_value=0)
        assert (vc.to_numpy() == ds.version_counts).all()


class TestUpdateKnobs:
    def test_pct_update_scales_unique_records(self):
        g = chain(20)
        lo = generate(g, n_base=100, pct_update=5, seed=3)
        hi = generate(g, n_base=100, pct_update=30, seed=3)
        assert hi.n_unique > lo.n_unique

    def test_zipf_skews_update_targets(self):
        # Zipf updates concentrate on low-ranked (small) keys, producing
        # fewer distinct updated keys than uniform selection.
        g = chain(40)
        z = generate(g, n_base=200, pct_update=10, update_type="zipf", seed=3)
        r = generate(g, n_base=200, pct_update=10, update_type="random", seed=3)
        z_keys = z.records[z.records.origin > 0]["key"].nunique()
        r_keys = r.records[r.records.origin > 0]["key"].nunique()
        assert z_keys < r_keys

    def test_invalid_update_type_raises(self):
        with pytest.raises(ValueError):
            generate(chain(3), n_base=10, pct_update=5, update_type="bogus")


class TestPayloads:
    def test_payload_lengths_match_size(self, small_ds):
        g, ds = small_ds
        assert (ds.records["payload"].str.len() == ds.records["size"]).all()

    def test_update_changes_bounded_by_p_d(self):
        g = chain(10)
        ds = generate(g, n_base=50, pct_update=20, record_size=200,
                      p_d=0.05, with_payload=True, seed=4)
        # Find an updated record and its parent record; diff must be ≤ ~5%.
        kills = ds.kills
        recs = ds.records.set_index(["key", "origin"])
        checked = 0
        for k, o, kv in zip(kills["key"], kills["origin"], kills["kill_vid"]):
            if (k, kv) in recs.index:  # modification (not delete)
                a = recs.loc[(k, o), "payload"]
                b = recs.loc[(k, kv), "payload"]
                diff = sum(x != y for x, y in zip(a, b))
                assert diff <= int(0.05 * 200) + 1
                checked += 1
        assert checked > 0

    def test_no_payload_mode(self):
        ds = generate(chain(5), n_base=10, pct_update=10, with_payload=False)
        assert ds.records["payload"].isna().all()

    def test_variable_record_size(self):
        ds = generate(chain(5), n_base=30, pct_update=10,
                      record_size=(50, 150), seed=2)
        assert ds.records["size"].between(50, 150).all()
        assert ds.records["size"].nunique() > 1


class TestTotals:
    def test_total_bytes_geq_unique_bytes(self, small_ds):
        g, ds = small_ds
        assert ds.total_bytes >= ds.unique_bytes

    def test_sizes_helper(self, small_ds):
        # A fixed record_size gives every record that size.
        g, ds = small_ds
        assert (ds.records["size"] == 50).all()


def _digest(ds) -> str:
    """SHA-256 (first 20 hex digits) of a dataset's records (key, origin,
    size, payload), kills, version bytes and version counts, in row order."""
    h = hashlib.sha256()
    for df in (ds.records[["key", "origin", "size"]], ds.kills):
        for c in df.columns:
            h.update(f"{c}:{df[c].dtype}".encode())
            h.update(np.ascontiguousarray(df[c].to_numpy()).tobytes())
    h.update("\n".join("-" if p is None else p
                       for p in ds.records["payload"]).encode())
    for a in (ds.version_bytes, ds.version_counts):
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:20]


# Seeded inputs and their digests, computed at commit 09aaf20 (the
# generator's own DFS with an undo log). "deletes" empties 10 versions.
PINNED = {
    "chain": (lambda: generate(chain(40), n_base=60, pct_update=20, seed=3),
              "62d4f49a623f8f228d3c"),
    "zipf_tree": (lambda: generate(
        random_tree(50, deepen_prob=0.7, seed=4), n_base=80, pct_update=15,
        update_type="zipf", p_d=0.2, seed=5), "a73cc59329e841076b8b"),
    "sized": (lambda: generate(
        random_tree(40, deepen_prob=0.8, seed=6), n_base=50, pct_update=20,
        record_size=(20, 300), seed=7), "10bec2d615749a9af561"),
    "no_payload": (lambda: generate(
        random_tree(60, deepen_prob=0.6, seed=8), n_base=70, pct_update=25,
        with_payload=False, seed=9), "027125fedcedd094f4f9"),
    "deletes": (lambda: generate(
        random_tree(60, deepen_prob=0.5, seed=10), n_base=40, pct_update=100,
        frac_delete=0.6, record_size=(30, 90), seed=11),
        "af849d765884eda33b47"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_output(name):
    make, want = PINNED[name]
    assert _digest(make()) == want
