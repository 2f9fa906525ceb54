"""Fixed-size chunk packing (§2.5 'fixed chunk size assumption').

All chunks are ~``C`` bytes with up to 25% overflow tolerated.
:func:`pack_ordered` is the driver-side sequential fill for an
already-ordered record stream, used by BOTTOM-UP, DFS, BFS and the §2.2
baselines. It supports the BOTTOM-UP discipline of starting a fresh chunk
at every *chunking step* (``group_ids``) and merging the resulting
partial chunks at the end (first-fit decreasing) so total chunk count
stays ≈ Σbytes / C. (SHINGLE's plain byte-sum cut is one line in
:mod:`repro.core.shingle`.)
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

OVERFLOW = 1.25  # chunks may exceed C by up to 25% (§2.5)


def pack_ordered(sizes: Sequence[int], C: int,
                 group_ids: Sequence[int] | None = None,
                 start_chunk: int = 0) -> tuple[np.ndarray, int]:
    """Assign chunk ids to records in the given order.

    A record is appended to the current chunk while the fill stays ≤ C
    (records larger than C get singleton chunks — the ±25% tolerance is
    for small-record spill, not multi-C documents). When ``group_ids``
    changes between consecutive records, the current chunk is closed as a
    *partial* and a fresh one starts; partials are merged afterwards
    (first-fit decreasing, respecting C·1.25) and keep their identity —
    merged partials share a chunk id.

    Returns ``(chunk_id per record, next_free_chunk_id)``.
    """
    n = len(sizes)
    ids = np.empty(n, dtype=np.int64)
    if n == 0:
        return ids, start_chunk
    next_id = start_chunk
    fill = 0
    partials: list[tuple[int, int]] = []  # (chunk_id, fill) of closed partials
    cur = next_id
    next_id += 1
    prev_group = None if group_ids is None else group_ids[0]
    for i in range(n):
        s = int(sizes[i])
        if group_ids is not None and group_ids[i] != prev_group:
            partials.append((cur, fill))
            cur = next_id
            next_id += 1
            fill = 0
            prev_group = group_ids[i]
        if fill > 0 and fill + s > C:
            cur = next_id
            next_id += 1
            fill = 0
        ids[i] = cur
        fill += s
    partials.append((cur, fill))

    if len(partials) > 1:
        # First-fit decreasing over the closed partial chunks; full chunks
        # (fill ≥ C) are left alone. Remap merged ids by one array lookup.
        limit = int(C * OVERFLOW)
        open_bins: list[tuple[int, int]] = []  # (target_chunk, fill)
        remap = np.arange(start_chunk, next_id, dtype=np.int64)
        for cid, fill in sorted(partials, key=lambda t: -t[1]):
            if fill >= C:
                continue
            placed = False
            for j, (tgt, tfill) in enumerate(open_bins):
                if tfill + fill <= limit:
                    open_bins[j] = (tgt, tfill + fill)
                    remap[cid - start_chunk] = tgt
                    placed = True
                    break
            if not placed:
                open_bins.append((cid, fill))
        ids = remap[ids - start_chunk]
    return ids, next_id

