"""Online partitioning (§4).

New versions' deltas accumulate in a *delta store*; every ``batch_size``
versions the batch is partitioned and appended — already-placed records
are never repartitioned. Each batch forms a forest grafted onto the
existing tree: we wrap it under a virtual root and run BOTTOM-UP on the
batch alone (kills of pre-batch records are irrelevant to placing the
batch's new records and are filtered out).

Because placed records never move, the online layout at a batch boundary
``t`` is the final assignment's rows with ``origin < t``: one pass over
the batches yields every checkpoint of Fig 13, whose quality metric is the
total version span of that layout over the first ``t`` versions, divided
by the span of an offline BOTTOM-UP run on the same prefix.
"""
from __future__ import annotations

import pandas as pd

from ..versioned.graph import VersionGraph
from .bottom_up import bottom_up_partition
from .span import total_version_span_pd


def _batch_graph(graph: VersionGraph, lo: int, hi: int) -> VersionGraph:
    """Wrap versions [lo, hi) as a forest under a virtual root.

    Batch node 0 is the virtual root and node ``i > 0`` is version
    ``lo + i - 1``: versions are dense and in commit order, so a batch is
    a contiguous id range and the relabelling is a shift.
    """
    return VersionGraph([None] + [
        graph.parent[v] - lo + 1 if v > lo and graph.parent[v] >= lo else 0
        for v in range(lo, hi)])


def partition_batch(graph: VersionGraph, records: pd.DataFrame,
                    kills: pd.DataFrame, lo: int, hi: int, C: int,
                    start_chunk: int) -> pd.DataFrame:
    """BOTTOM-UP over one ingest batch; fresh chunk ids from start_chunk."""
    shift = lo - 1
    br = records[(records["origin"] >= lo) & (records["origin"] < hi)]
    bk = kills[(kills["origin"] >= lo) & (kills["origin"] < hi)
               & (kills["kill_vid"] >= lo) & (kills["kill_vid"] < hi)]
    out = bottom_up_partition(
        _batch_graph(graph, lo, hi),
        br.assign(origin=br["origin"] - shift),
        bk.assign(origin=bk["origin"] - shift,
                  kill_vid=bk["kill_vid"] - shift),
        C, start_chunk=start_chunk)
    out["origin"] += shift
    return out


def online_partition(graph: VersionGraph, records: pd.DataFrame,
                     kills: pd.DataFrame, C: int,
                     batch_size: int) -> pd.DataFrame:
    """Partition the version sequence batch by batch; return the final
    assignment ``(key, origin, size, chunk)``, in batch order."""
    parts: list[pd.DataFrame] = []
    next_chunk = 0
    for lo in range(0, graph.n, batch_size):
        part = partition_batch(graph, records, kills, lo,
                               min(lo + batch_size, graph.n), C, next_chunk)
        if len(part):
            next_chunk = int(part["chunk"].max()) + 1
        parts.append(part)
    return pd.concat(parts, ignore_index=True)


def quality_ratio(graph: VersionGraph, records: pd.DataFrame,
                  kills: pd.DataFrame, membership: pd.DataFrame, C: int,
                  batch_sizes: list[int],
                  checkpoints: list[int]) -> dict[int, dict[int, float]]:
    """Fig 13: ``{batch_size: {t: online span / offline span}}``.

    Checkpoints that are not batch boundaries are skipped (the paper's
    '-' cells); each prefix is laid out offline once, for every batch
    size. ``membership`` is the record-level membership (pandas).
    """
    valid = {bs: [t for t in checkpoints if t % bs == 0 or t == graph.n]
             for bs in batch_sizes}

    def span(t: int, asg: pd.DataFrame) -> int:
        return total_version_span_pd(membership[membership["vid"] < t],
                                     asg[asg["origin"] < t])

    offline = {t: span(t, bottom_up_partition(
        VersionGraph(list(graph.parent[:t])), records[records["origin"] < t],
        kills[kills["kill_vid"] < t], C))
        for t in set().union(*valid.values())}
    out = {}
    for bs, ts in valid.items():
        online = online_partition(graph, records, kills, C, bs)
        out[bs] = {t: span(t, online) / max(1, offline[t]) for t in ts}
    return out
