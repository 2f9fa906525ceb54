"""BOTTOM-UP partitioning (§3.2, Algorithm 3).

The version tree is processed children-before-parent (via the delta
walker, so the live set at each exit equals that version's record set).
Each version ``v`` receives from every child a π-collection mapping
*run length* → set of records, where a record with run length ``j``
appears in ``j`` consecutive versions starting at that child (counts are
summed across children for records reachable via several branches, per
§3.2's general-tree rule). At ``v``:

- records present in a child π but **absent from S_v** can never appear
  higher in the tree (membership regions are connected), so they are
  *emitted* for chunking, longest runs first — Example 4's
  red-before-green-before-blue order;
- records of ``S_v`` extend their run (+1); records of ``S_v`` seen in
  no child start a run of 1. Together these form π_v.

**Chunk layout.** The paper's rule — each chunking step fills fresh
chunks, longest-run α-sets first, partials merged at the end "to ensure
access to highly common records during version reconstruction is not
split across multiple chunks" — is realized globally: emitted records
are laid out run-class-major (geometric run buckets, longest class
first) and emission-order-minor, so records serving many consecutive
versions share chunks with each other rather than with short-lived
records that happen to be born at the same version. Within a bucket the
bottom-up emission order keeps neighbouring versions' records adjacent.
Empirically this ordering makes BOTTOM-UP uniformly best across chain,
deep-branched and shallow-branched datasets (Fig 8's claim), where a
strictly per-version layout loses to SHINGLE on skewed deep trees.

``beta`` caps the number of run-length classes per π-collection by
merging the smallest sets into their nearest longer-run neighbour —
the paper's subtree-size reduction (§3.2.1) expressed directly on the
π representation: same speed/quality trade-off, coarser run resolution.

**Incremental π-collections.** A version reuses its first child's
collection in place: ``record → stored run``, ``stored run → records``
(no empty sets) and one offset shared by the whole collection, so
extending every live run by one is ``offset += 1``. A child's live set
differs from its parent's only by the child's delta, so at ``v`` only
these records are touched: the other children's (their runs are added),
the records that originated at a child (dead: removed and emitted), the
first child's kills that no child holds (fresh: run 1), a leaf's live set
(run 1) and the records of β-merged classes. Records are coded
``key · n + origin``, which orders like ``(key, origin)``.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..versioned.walker import deltas_by_version, sizes_by_code, walk
from .chunking import pack_ordered

# Geometric base for run-length classes; see module docstring. Chosen by a
# sweep over the Table-2 dataset families: base 6 makes BOTTOM-UP best (or
# tied) on every family — chains, deep-branched, shallow-branched.
RUN_BUCKET_BASE = 6.0


def _bucket(run: int) -> int:
    return int(math.log(max(run, 1), RUN_BUCKET_BASE))


def _drop(members: dict, rec: int, r: int) -> None:
    """Remove ``rec`` from run class ``r``, deleting the class if emptied."""
    cls = members[r]
    cls.remove(rec)
    if not cls:
        del members[r]


def bottom_up_partition(graph, records: pd.DataFrame, kills: pd.DataFrame,
                        C: int, *, beta: int | None = None,
                        start_chunk: int = 0) -> pd.DataFrame:
    """Return the assignment ``(key, origin, size, chunk)``."""
    n = graph.n
    adds, kls = deltas_by_version(n, records, kills)
    # π-collections awaiting consumption by the parent:
    # v -> (record -> stored run, stored run -> records, offset).
    pi: dict[int, tuple[dict, dict, int]] = {}
    # Emitted records and their runs; each emission is one chunking step.
    em_code: list[int] = []
    em_run: list[int] = []
    step_len: list[int] = []

    def _emit(codes: list, runs: list) -> None:
        em_code.extend(codes)
        em_run.extend(runs)
        step_len.append(len(codes))

    def _exit(v: int, live: dict) -> None:
        children = graph.children[v]
        if not children:
            run_of = {k * n + o: 0 for k, o in live.items()}
            pi[v] = run_of, ({0: set(run_of)} if run_of else {}), 1
            return
        c0 = children[0]
        run_of, members, off = pi.pop(c0)
        dead_code: list[int] = []
        dead_run: list[int] = []
        # Records born at a child end there: they are dead at v.
        for key in adds[c0]:
            rec = key * n + c0
            r = run_of.pop(rec)
            _drop(members, rec, r)
            dead_code.append(rec)
            dead_run.append(r + off)
        for c in children[1:]:
            c_run_of, _, c_off = pi.pop(c)
            for key in adds[c]:
                rec = key * n + c
                dead_code.append(rec)
                dead_run.append(c_run_of.pop(rec) + c_off)
            # Runs of a record held by several children are summed (§3.2).
            for rec, r in c_run_of.items():
                prev = run_of.get(rec)
                if prev is None:
                    r += c_off - off
                else:
                    _drop(members, rec, prev)
                    r += prev + c_off
                run_of[rec] = r
                members.setdefault(r, set()).add(rec)
        # A record of S_v that no child holds is killed at every child, the
        # first included: it starts a run (0 now, 1 after the shift below).
        for key, origin in kls[c0]:
            rec = key * n + origin
            if rec not in run_of:
                run_of[rec] = -off
                members.setdefault(-off, set()).add(rec)
        off += 1
        if dead_code:
            _emit(dead_code, dead_run)
        if beta is not None:
            # Merge the smallest set into the next-longer run class until the
            # collection fits — §3.2.1's quality-for-speed knob. Stored runs
            # share one offset, so they order like the runs.
            while len(members) > beta:
                victim = min(members, key=lambda r: (len(members[r]), r))
                longer = [r for r in members if r > victim]
                if not longer:
                    break
                target = min(longer)
                moved = members.pop(victim)
                for rec in moved:
                    run_of[rec] = target
                members[target] |= moved
        pi[v] = run_of, members, off

    walk(graph, adds, kls, _exit)
    # Root's π: everything still alive at the root's exit.
    run_of, _, off = pi.pop(0)
    if run_of:
        _emit(list(run_of), [r + off for r in run_of.values()])

    # Run-class-major, emission-order-minor layout (module docstring);
    # within a step, longer runs first, then by record.
    code = np.array(em_code, dtype=np.int64)
    run = np.array(em_run, dtype=np.int64)
    runs, run_idx = np.unique(run, return_inverse=True)
    bucket = np.array([_bucket(int(r)) for r in runs],
                      dtype=np.int64)[run_idx]
    step = np.repeat(np.arange(len(step_len)), step_len)
    order = np.lexsort((code, -run, step, -bucket))
    code = code[order]
    sizes = sizes_by_code(records, n, code)
    ids, _ = pack_ordered(sizes, C, group_ids=bucket[order].tolist(),
                          start_chunk=start_chunk)
    return pd.DataFrame({"key": code // n, "origin": code % n,
                         "size": sizes, "chunk": ids})
