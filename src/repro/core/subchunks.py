"""Sub-chunk construction for record-level compression (§3.4, Alg. 5).

Phase 1 groups records sharing a primary key into *sub-chunks* of at most
``k`` records whose versions form a connected region of the version tree
(siblings are only grouped via a common ancestor record, so delta/zlib
compression against the parent works). The tree is traversed bottom-up;
at each version ``v`` and key ``K``:

- pending groups from children merge with a record of ``K`` originated at
  ``v`` (that record connects them); if the merge would exceed ``k``, the
  largest pending group is emitted as its own sub-chunk and the test
  repeats (Algorithm 5's overflow rule);
- with no record at ``v``, pending groups pass upward unchanged unless
  they already exceed the budget, in which case the largest is emitted.

Groups still pending at the root are emitted. Phase 2 treats sub-chunks
as records: each gets a representative composite key (its shallowest
member, per Example 6), a zlib-compressed size, and add/kill events
derived from the exact union of member membership regions, so the
existing partitioners and the closure-join membership run unchanged.
"""
from __future__ import annotations

import zlib
from collections import defaultdict

import numpy as np
import pandas as pd

from .shingle import shingle_partition


def build_subchunks(graph, records: pd.DataFrame, k: int) -> pd.DataFrame:
    """Phase 1: assign every record to a sub-chunk.

    Returns ``(key, origin, sc)`` with ``sc`` a dense int id. ``k=1``
    degenerates to one record per sub-chunk (no compression, §2.5).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rec_keys = list(zip(records["key"].astype(int), records["origin"].astype(int)))
    if k == 1:
        return pd.DataFrame({
            "key": [r[0] for r in rec_keys],
            "origin": [r[1] for r in rec_keys],
            "sc": np.arange(len(rec_keys), dtype=np.int64)})

    origin_keys: dict[int, list[int]] = defaultdict(list)
    exists = set(rec_keys)
    for key, origin in rec_keys:
        origin_keys[origin].append(key)

    sc_of: dict[tuple[int, int], int] = {}
    next_sc = [0]

    def _emit(key: int, origins) -> None:
        sc = next_sc[0]
        next_sc[0] += 1
        for o in origins:
            sc_of[(key, o)] = sc

    # pending[v]: key -> list of origin-sets awaiting an ancestor record.
    pending: dict[int, dict[int, list[set]]] = {}
    for v in graph.postorder():
        mine: dict[int, list[set]] = defaultdict(list)
        for c in graph.children[v]:
            for key, sets in pending.pop(c).items():
                mine[key].extend(sets)
        for key in origin_keys.get(v, []):
            mine.setdefault(key, [])
        out: dict[int, list[set]] = {}
        for key, csets in mine.items():
            if (key, v) in exists:
                total = sum(len(s) for s in csets) + 1
                while total > k and csets:
                    largest = max(csets, key=len)
                    csets.remove(largest)
                    _emit(key, largest)
                    total -= len(largest)
                merged = set().union(*csets) if csets else set()
                merged.add(v)
                if len(merged) == k:
                    _emit(key, merged)
                else:
                    out[key] = [merged]
            else:
                while sum(len(s) for s in csets) > k - 1 and len(csets) > 1:
                    largest = max(csets, key=len)
                    csets.remove(largest)
                    _emit(key, largest)
                if csets and sum(len(s) for s in csets) > k - 1:
                    _emit(key, csets.pop())
                if csets:
                    out[key] = csets
        pending[v] = out
    for key, sets in pending.pop(0).items():
        for s in sets:
            _emit(key, s)

    rows = [(key, o, sc) for (key, o), sc in sc_of.items()]
    return pd.DataFrame(rows, columns=["key", "origin", "sc"]).astype("int64")


def compress_subchunks(records: pd.DataFrame, sc_assign: pd.DataFrame,
                       depths: np.ndarray) -> pd.DataFrame:
    """Zlib-compress each sub-chunk's members (parents-before-children
    order so the 32 KB window sees the most similar record first).

    Returns per-sub-chunk ``(sc, raw_bytes, comp_bytes, n_members)``.
    Without payloads the compressed size falls back to the raw sum
    (compression ratio 1 — the k=1 semantics).
    """
    df = records.merge(sc_assign, on=["key", "origin"])
    df["_depth"] = depths[df["origin"].to_numpy()]
    df = df.sort_values(["sc", "_depth", "origin"], kind="mergesort")
    out = []
    has_payload = "payload" in df.columns and df["payload"].notna().all()
    for sc, grp in df.groupby("sc", sort=True):
        raw = int(grp["size"].sum())
        if has_payload and len(grp) > 1:
            blob = "".join(grp["payload"].tolist()).encode("ascii")
            comp = min(raw, len(zlib.compress(blob, 6)))
        elif has_payload:
            comp = min(raw, len(zlib.compress(
                grp["payload"].iloc[0].encode("ascii"), 6)))
        else:
            comp = raw
        out.append((int(sc), raw, comp, len(grp)))
    return pd.DataFrame(out, columns=["sc", "raw_bytes", "comp_bytes",
                                      "n_members"])


def sc_dataset(graph, membership: pd.DataFrame, sc_assign: pd.DataFrame,
               sc_sizes: pd.DataFrame):
    """Phase-2 inputs: sub-chunks as records.

    From the exact record-level ``membership`` (pandas) compute each
    sub-chunk's version region (union of member regions), its
    representative origin (shallowest member, Example 6), and a
    consistent add/kill event set for the region's component rooted at
    the representative (rare disconnected leftovers — deleted-then-
    reinserted keys grouped together — only affect placement heuristics,
    never span evaluation, which uses record-level membership).

    Returns ``(sc_records, sc_kills, sc_region)`` where sc_records has
    columns (key=sc, origin, size=comp_bytes) and sc_region is the exact
    ``(vid, sc)`` membership used for SHINGLE and span evaluation.
    """
    depths = graph.depths()
    m = membership.merge(sc_assign, on=["key", "origin"])
    sc_region = m[["vid", "sc"]].drop_duplicates().reset_index(drop=True)

    rep = (m.assign(_d=depths[m["origin"].to_numpy()])
           .sort_values(["_d", "origin"])
           .groupby("sc")["origin"].first())

    region_sets: dict[int, set] = {
        int(sc): set(map(int, grp["vid"])) for sc, grp in sc_region.groupby("sc")}

    rec_rows, kill_rows = [], []
    comp = sc_sizes.set_index("sc")["comp_bytes"]
    for sc, region in region_sets.items():
        root = int(rep.loc[sc])
        # Component of the region reachable from the representative.
        comp_set, stack = set(), [root]
        while stack:
            u = stack.pop()
            if u in comp_set or u not in region:
                continue
            comp_set.add(u)
            stack.extend(graph.children[u])
        rec_rows.append((sc, root, int(comp.loc[sc])))
        for u in comp_set:
            for c in graph.children[u]:
                if c not in comp_set:
                    kill_rows.append((sc, root, c))
    sc_records = pd.DataFrame(rec_rows, columns=["key", "origin", "size"]
                              ).astype("int64")
    sc_kills = pd.DataFrame(kill_rows, columns=["key", "origin", "kill_vid"]
                            ).astype("int64") if kill_rows else pd.DataFrame(
        {"key": pd.Series(dtype="int64"), "origin": pd.Series(dtype="int64"),
         "kill_vid": pd.Series(dtype="int64")})
    return sc_records, sc_kills, sc_region


def shingle_subchunk_partition(spark, sc_records: pd.DataFrame,
                               sc_region: pd.DataFrame, C: int) -> pd.DataFrame:
    """Phase-2 SHINGLE over sub-chunks, shingled on each sub-chunk's exact
    region (:func:`sc_dataset`). Returns ``(key=sc, origin, size, chunk)``."""
    reg = sc_region.merge(sc_records.rename(columns={"key": "sc"})[
        ["sc", "size"]], on="sc").rename(columns={"sc": "key"})
    reg["origin"] = 0
    mem_sc = spark.createDataFrame(reg[["vid", "key", "origin", "size"]])
    return (shingle_partition(mem_sc, C)
            .select("key", "origin", "size", "chunk").toPandas())


def transformed_tree(graph, records: pd.DataFrame, sc_assign: pd.DataFrame):
    """Example 6: representative composite keys + duplicate-version
    removal. BFS the tree; at each version, sub-chunks of records that
    originated there and are still unassigned take ``(key, vid)`` as
    their representative composite key; versions contributing no new
    representative (and not the root) are duplicates and are contracted.

    Returns ``(reps, kept)``: ``reps[sc] = (key, vid)``,
    ``kept`` = surviving version ids.
    """
    sc_of = {(int(r.key), int(r.origin)): int(r.sc)
             for r in sc_assign.itertuples()}
    by_origin: dict[int, list[int]] = defaultdict(list)
    for key, origin in zip(records["key"].astype(int),
                           records["origin"].astype(int)):
        by_origin[origin].append(key)
    reps: dict[int, tuple[int, int]] = {}
    kept = []
    for v in graph.bfs_order():
        new = False
        for key in sorted(by_origin.get(v, [])):
            sc = sc_of[(key, v)]
            if sc not in reps:
                reps[sc] = (key, v)
                new = True
        if new or v == 0:
            kept.append(v)
    return reps, kept
