"""Delta replay over a version tree with O(total-delta) undo.

The generator, the brute-force membership computation, and the BOTTOM-UP
partitioner all need the *live set* of each version (primary key → origin
version of the live record). Materializing one set per version is
O(n · m'); instead we DFS the tree applying each version's delta on entry
and undoing it on exit, so the cost is proportional to total delta size.

``on_enter(v, live)`` fires *before* ``v``'s delta is applied, so ``live``
is the parent's live set: the generator draws ``v``'s delta from it and
appends it to ``adds[v]`` / ``kls[v]``, which the walk then applies and
checks. ``on_exit(v, live)`` fires when every child of ``v`` has been
processed and ``live`` again equals ``S_v`` — the state the BOTTOM-UP
recursion needs (DESIGN §6). :func:`walk` replays the per-version deltas
of :func:`deltas_by_version`, so a caller that also reads the deltas (as
BOTTOM-UP does) splits the records once.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd


def deltas_by_version(graph_n: int, records: pd.DataFrame, kills: pd.DataFrame):
    """Split the records/kills tables into per-version add / kill lists.

    Returns ``(adds, kls)`` where ``adds[v]`` is the list of keys of the
    records originating at ``v`` and ``kls[v]`` a list of ``(key, origin)``
    records killed at ``v``.
    """
    adds: list[list] = [[] for _ in range(graph_n)]
    for key, origin in zip(records["key"].tolist(),
                           records["origin"].tolist()):
        adds[origin].append(key)
    kls: list[list] = [[] for _ in range(graph_n)]
    for key, origin, kv in zip(kills["key"].tolist(),
                               kills["origin"].tolist(),
                               kills["kill_vid"].tolist()):
        kls[kv].append((key, origin))
    return adds, kls


def codes_of(table: pd.DataFrame, graph_n: int) -> np.ndarray:
    """The code ``key · n + origin`` of each row of a ``(key, origin, …)``
    table; it orders like ``(key, origin)``."""
    return (table["key"].to_numpy(np.int64) * graph_n
            + table["origin"].to_numpy(np.int64))


def rows_of(table_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The row of each of ``codes`` in ``table_codes`` (distinct), by one
    hash lookup; raises ``KeyError`` on a code the table does not hold."""
    rows = pd.Index(table_codes).get_indexer(codes)
    missing = rows < 0
    if missing.any():
        raise KeyError(f"{int(missing.sum())} codes not in the table, "
                       f"first {int(codes[missing][0])}")
    return rows


def sizes_by_code(records: pd.DataFrame, graph_n: int,
                  codes: np.ndarray) -> np.ndarray:
    """The ``size`` of each record given by its code ``key · n + origin``;
    raises ``KeyError`` on a code that is not a record."""
    return records["size"].to_numpy(np.int64)[
        rows_of(codes_of(records, graph_n), codes)]


def walk(graph, adds: list[list], kls: list[list],
         on_exit: Callable[[int, dict], None],
         on_enter: Callable[[int, dict], None] | None = None) -> None:
    """DFS the version tree replaying ``deltas_by_version``'s ``adds`` and
    ``kls``; see module docstring.

    ``live`` maps primary key → origin of the record live at the current
    version. Callbacks must not mutate ``live``; ``on_enter(v, live)`` may
    append to ``adds[v]`` and ``kls[v]``.
    """
    live: dict[int, int] = {}
    # Stack of (version, phase); phase 0 = enter, 1 = exit. An undo log per
    # entered version restores `live` when we leave its subtree.
    undo: dict[int, list] = {}
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        v, phase = stack.pop()
        if phase == 0:
            if on_enter is not None:
                on_enter(v, live)
            log = []
            for key, origin in kls[v]:
                prev = live.pop(key, None)
                if prev != origin:
                    raise ValueError(
                        f"inconsistent delta: kill ({key},{origin}) at {v} "
                        f"but live origin is {prev}")
                log.append((key, origin))
            for key in adds[v]:
                if key in live:
                    raise ValueError(
                        f"inconsistent delta: add key {key} at {v} over a "
                        "live record (must kill first)")
                live[key] = v
                log.append((key, None))
            undo[v] = log
            stack.append((v, 1))
            for c in reversed(graph.children[v]):
                stack.append((c, 0))
        else:
            on_exit(v, live)
            for key, origin in reversed(undo.pop(v)):
                if origin is None:
                    del live[key]
                else:
                    live[key] = origin


def live_sets(graph, records: pd.DataFrame, kills: pd.DataFrame) -> list[dict]:
    """Materialized live map per version — tests and small inputs only."""
    out: list[dict] = [None] * graph.n  # type: ignore[list-item]

    def _exit(v: int, live: dict) -> None:
        out[v] = dict(live)

    walk(graph, *deltas_by_version(graph.n, records, kills), _exit)
    return out
