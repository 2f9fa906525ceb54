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

    Returns ``(key, origin, sc)`` with ``sc`` a dense int id in emission
    order. ``k=1`` degenerates to one record per sub-chunk (no
    compression, §2.5).

    Every pending group list totals at most ``k - 1`` records, so a key
    whose groups arrive from a single child and that has no record at
    ``v`` passes up unchanged. Only the *touched* keys — those with a
    record originated at ``v`` and those arriving from two or more
    children — are examined at ``v``, in the pending dict's order, which
    fixes the order of emissions and so the sub-chunk ids.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    keys = records["key"].to_numpy(np.int64)
    origins = records["origin"].to_numpy(np.int64)
    if k == 1:
        return pd.DataFrame({"key": keys, "origin": origins,
                             "sc": np.arange(len(keys), dtype=np.int64)})

    origin_keys: list[list[int]] = [[] for _ in range(graph.n)]
    for key, origin in zip(keys.tolist(), origins.tolist()):
        origin_keys[origin].append(key)

    # Emitted sub-chunks in id order: their key, size and member origins.
    sc_keys: list[int] = []
    sc_sizes: list[int] = []
    sc_origins: list[int] = []

    def _emit(key: int, group: set) -> None:
        sc_keys.append(key)
        sc_sizes.append(len(group))
        sc_origins.extend(group)

    # pending[v]: key -> list of origin-sets awaiting an ancestor record.
    pending: dict[int, dict[int, list[set]]] = {}
    for v in graph.postorder():
        children = graph.children[v]
        # The first child's dict is reused in place; merging the others
        # appends their new keys in order, as a fresh dict would.
        mine = pending.pop(children[0]) if children else {}
        here = set(origin_keys[v])
        touched = set(here)
        for c in children[1:]:
            for key, sets in pending.pop(c).items():
                have = mine.get(key)
                if have is None:
                    mine[key] = sets
                else:
                    have.extend(sets)
                    touched.add(key)
        for key in origin_keys[v]:
            mine.setdefault(key, [])
        if touched:
            for key in [q for q in mine if q in touched]:
                csets = mine[key]
                if key in here:
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
                        del mine[key]
                    else:
                        mine[key] = [merged]
                else:
                    while sum(len(s) for s in csets) > k - 1 and len(csets) > 1:
                        largest = max(csets, key=len)
                        csets.remove(largest)
                        _emit(key, largest)
                    if csets and sum(len(s) for s in csets) > k - 1:
                        _emit(key, csets.pop())
                    if not csets:
                        del mine[key]
        pending[v] = mine
    for key, sets in pending.pop(0).items():
        for s in sets:
            _emit(key, s)

    return pd.DataFrame({
        "key": np.repeat(np.array(sc_keys, dtype=np.int64), sc_sizes),
        "origin": np.array(sc_origins, dtype=np.int64),
        "sc": np.repeat(np.arange(len(sc_keys), dtype=np.int64), sc_sizes)})


def _runs(sorted_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of each run of equal values in a sorted array.

    An empty array has no runs; ``np.add.reduceat`` rejects the start 0
    that the general formula would give it.
    """
    if not len(sorted_ids):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    return starts, np.r_[starts[1:], len(sorted_ids)]


def compress_subchunks(records: pd.DataFrame, sc_assign: pd.DataFrame,
                       depths: np.ndarray) -> pd.DataFrame:
    """Zlib-compress each sub-chunk's members (parents-before-children
    order so the 32 KB window sees the most similar record first).

    Returns per-sub-chunk ``(sc, raw_bytes, comp_bytes, n_members)`` in
    ``sc`` order. Without payloads the compressed size falls back to the
    raw sum (compression ratio 1 — the k=1 semantics). One stable sort by
    ``(sc, depth, origin)`` lays every sub-chunk out as a slice.
    """
    df = records.merge(sc_assign, on=["key", "origin"])
    origin = df["origin"].to_numpy(np.int64)
    sc = df["sc"].to_numpy(np.int64)
    order = np.lexsort((origin, depths[origin], sc))
    sc = sc[order]
    starts, ends = _runs(sc)
    raw = np.add.reduceat(df["size"].to_numpy(np.int64)[order], starts)
    comp = raw
    if "payload" in df.columns and df["payload"].notna().all():
        payloads = df["payload"].to_numpy()[order].tolist()
        zipped = np.fromiter(
            (len(zlib.compress("".join(payloads[s:e]).encode("ascii"), 6))
             for s, e in zip(starts.tolist(), ends.tolist())),
            dtype=np.int64, count=len(starts))
        comp = np.minimum(raw, zipped)
    return pd.DataFrame({"sc": sc[starts], "raw_bytes": raw,
                         "comp_bytes": comp, "n_members": ends - starts})


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
    columns (key=sc, origin, size=comp_bytes) in ``sc`` order and
    sc_region is the exact ``(vid, sc)`` membership used for SHINGLE and
    span evaluation. One sort of the membership rows by ``sc`` lays
    every region out as a slice.
    """
    depths = graph.depths()
    m = membership.merge(sc_assign, on=["key", "origin"])
    sc_region = m[["vid", "sc"]].drop_duplicates().reset_index(drop=True)

    sc_all = m["sc"].to_numpy(np.int64)
    order = np.argsort(sc_all)
    sc = sc_all[order]
    starts, ends = _runs(sc)
    vids = m["vid"].to_numpy(np.int64)[order].tolist()
    # Representative: the member with the smallest (depth, origin).
    origin = m["origin"].to_numpy(np.int64)[order]
    code = depths[origin] * graph.n + origin
    reps = np.minimum.reduceat(code, starts) % graph.n
    ids = sc[starts]
    sizes = sc_sizes.set_index("sc")["comp_bytes"].loc[ids].to_numpy(np.int64)

    kill_rows = []
    for sc_id, root, s, e in zip(ids.tolist(), reps.tolist(), starts.tolist(),
                                 ends.tolist()):
        region = set(vids[s:e])
        # DFS the region's component from the representative; a child of
        # the component outside the region kills the sub-chunk there.
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
