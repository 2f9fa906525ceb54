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
:func:`two_phase_layouts` runs both phases for every phase-2 partitioner.
"""
from __future__ import annotations

import zlib

import numpy as np
import pandas as pd

from ..versioned.walker import codes_of, rows_of
from .bottom_up import bottom_up_partition
from .shingle import shingle_pd
from .traversal import dfs_partition


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
    ``(sc, depth, origin)`` lays every sub-chunk out as a slice. A record
    that ``sc_assign`` does not hold raises ``KeyError``.
    """
    n = len(depths)
    origin = records["origin"].to_numpy(np.int64)
    sc = sc_assign["sc"].to_numpy(np.int64)[
        rows_of(codes_of(sc_assign, n), codes_of(records, n))]
    order = np.lexsort((origin, depths[origin], sc))
    sc = sc[order]
    starts, ends = _runs(sc)
    raw = np.add.reduceat(records["size"].to_numpy(np.int64)[order], starts)
    comp = raw
    if "payload" in records.columns and records["payload"].notna().all():
        payloads = records["payload"].to_numpy()[order].tolist()
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
    span evaluation, in ``membership``'s row order; its rows are distinct,
    as a version holds one live record of a key and a sub-chunk holds one
    key. A membership row whose record ``sc_assign`` does not hold raises
    ``KeyError``.

    The kills come from record kills, for every membership row at once:
    a child of ``v`` outside the region of a record live at ``v`` kills
    the record there. A kill at the origin of another member of the same
    sub-chunk is internal and links that member to its parent member; the
    component of the representative is the members whose chain of links
    ends at the representative's record, and the sub-chunk's kills are
    their other kills.
    """
    n, depths, R = graph.n, graph.depths(), len(sc_assign)
    sc_code = codes_of(sc_assign, n)
    rec = rows_of(sc_code, codes_of(membership, n))
    sc_of = sc_assign["sc"].to_numpy(np.int64)
    key_of = sc_assign["key"].to_numpy(np.int64)
    origin_of = sc_assign["origin"].to_numpy(np.int64)
    vid = membership["vid"].to_numpy(np.int64)
    sc_region = pd.DataFrame({"vid": vid, "sc": sc_of[rec]})

    # Representative: the member with the smallest (depth, origin) among
    # the records that membership holds; rep_of[r] is that of r's sub-chunk.
    held = np.zeros(R, dtype=bool)
    held[rec] = True
    held = np.flatnonzero(held)
    held = held[np.lexsort((origin_of[held], depths[origin_of[held]],
                            sc_of[held]))]
    starts, ends = _runs(sc_of[held])
    first = held[starts]
    rep_of = np.full(R, -1, dtype=np.int64)
    rep_of[held] = np.repeat(first, ends - starts)
    sizes = sc_sizes["comp_bytes"].to_numpy(np.int64)[
        rows_of(sc_sizes["sc"].to_numpy(np.int64), sc_of[first])]

    # Expand each membership row (v, r) to v's children (CSR arrays); a
    # child outside r's region kills r there.
    fan = np.fromiter(map(len, graph.children), dtype=np.int64, count=n)
    ptr = np.r_[0, np.cumsum(fan)]
    child_of = np.fromiter((c for cs in graph.children for c in cs),
                           dtype=np.int64, count=int(ptr[-1]))
    fan = fan[vid]
    r = np.repeat(rec, fan)
    child = child_of[np.arange(len(r))
                     + np.repeat(ptr[vid] - (np.cumsum(fan) - fan), fan)]
    out = pd.Index(vid * R + rec).get_indexer(child * R + r) < 0
    r, child = r[out], child[out]

    # A kill at the origin of another member of the same sub-chunk is
    # internal: it links that member to r. Pointer jumping finds each
    # member's chain root; the representative's component is the members
    # whose root is the representative.
    j = pd.Index(sc_code).get_indexer(key_of[r] * n + child)
    internal = (j >= 0) & (sc_of[j] == sc_of[r])
    up = np.arange(R)
    up[j[internal]] = r[internal]
    for _ in range(R.bit_length() + 1):
        nxt = up[up]
        if (nxt == up).all():
            break
        up = nxt
    else:
        raise ValueError("membership links sub-chunk members in a cycle")
    keep = ~internal & (up[r] == rep_of[r])
    sc_records = pd.DataFrame({"key": sc_of[first], "origin": origin_of[first],
                               "size": sizes})
    sc_kills = pd.DataFrame({"key": sc_of[r[keep]],
                             "origin": origin_of[rep_of[r[keep]]],
                             "kill_vid": child[keep]})
    return sc_records, sc_kills, sc_region


def two_phase_layouts(spark, graph, records: pd.DataFrame,
                      membership: pd.DataFrame, k: int, C: int):
    """The two-phase layout of §3.4 at max sub-chunk size ``k``.

    Phase 1 builds and compresses the sub-chunks; phase 2 partitions them
    as records into ~``C``-byte chunks with BOTTOMUP, DEPTHFIRST and
    SHINGLE, in that order. SHINGLE shingles each sub-chunk on its exact
    region (:func:`sc_dataset`).

    Returns ``(sc_sizes, layouts)``: the :func:`compress_subchunks` table,
    and per algorithm ``(sc_assignment, record_assignment)`` — the
    phase-2 ``(key=sc, origin, size, chunk)`` rows and the
    ``(key, origin, sc, chunk)`` chunk of every record.
    """
    sc = build_subchunks(graph, records, k=k)
    cs = compress_subchunks(records, sc, graph.depths())
    screc, sckill, screg = sc_dataset(graph, membership, sc, cs)
    reg = screg.merge(screc.rename(columns={"key": "sc"}),
                      on="sc").rename(columns={"sc": "key"})
    asgs = {
        "BOTTOMUP": bottom_up_partition(graph, screc, sckill, C),
        "DEPTHFIRST": dfs_partition(graph, screc, C),
        "SHINGLE": shingle_pd(spark, reg, C),
    }
    return cs, {algo: (asg, sc.merge(asg.rename(columns={"key": "sc"})[
        ["sc", "chunk"]], on="sc")) for algo, asg in asgs.items()}
