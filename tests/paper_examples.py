"""Shared fixtures encoding the paper's running examples (Fig 1/Example 2,
Example 3, Fig 6/Example 5, Fig 7/Example 6) as records/kills tables, and
input helpers shared by several test modules.

Keys are ints; composite key = (key, origin). Sizes are 1 byte unless a
test needs otherwise, so chunk capacities are expressed in record counts.
"""
import pandas as pd

from repro.versioned.graph import VersionGraph


def df_records(rows, size=1):
    return pd.DataFrame(
        [(k, o, size, None) for k, o in rows],
        columns=["key", "origin", "size", "payload"])


def df_kills(rows):
    if not rows:
        return pd.DataFrame({"key": pd.Series(dtype="int64"),
                             "origin": pd.Series(dtype="int64"),
                             "kill_vid": pd.Series(dtype="int64")})
    return pd.DataFrame(rows, columns=["key", "origin", "kill_vid"])


def example2():
    """Fig 1: V0 root with K0..K3; V1 mods K3, adds K4; V2 (from V0) mods
    K3, adds K5, deletes K2; V3 (from V1) deletes K2; V4 (from V2) mods K3.

    Returns (graph, records, kills, expected version contents)."""
    graph = VersionGraph([None, 0, 0, 1, 2])
    records = df_records([
        (0, 0), (1, 0), (2, 0), (3, 0),          # V0
        (3, 1), (4, 1),                           # V1
        (3, 2), (5, 2),                           # V2
        (3, 4),                                   # V4
    ])
    kills = df_kills([
        (3, 0, 1),            # V1 modifies K3
        (3, 0, 2), (2, 0, 2),  # V2 modifies K3, deletes K2
        (2, 0, 3),            # V3 deletes K2
        (3, 2, 4),            # V4 modifies K3
    ])
    expected = {
        0: {(0, 0), (1, 0), (2, 0), (3, 0)},
        1: {(0, 0), (1, 0), (2, 0), (3, 1), (4, 1)},
        2: {(0, 0), (1, 0), (3, 2), (5, 2)},
        3: {(0, 0), (1, 0), (3, 1), (4, 1)},
        4: {(0, 0), (1, 0), (3, 4), (5, 2)},
    }
    return graph, records, kills, expected


def example3_partitions():
    """Example 3's two partitionings of the Example 2 records.

    Returns (P0, P1) as assignment DataFrames (key, origin, size, chunk)."""
    def build(chunks):
        rows = []
        for cid, recs in enumerate(chunks):
            for k, o in recs:
                rows.append((k, o, 1, cid))
        return pd.DataFrame(rows, columns=["key", "origin", "size", "chunk"])

    p0 = build([[(0, 0), (1, 0)], [(2, 0), (3, 0)], [(3, 1), (3, 2)],
                [(4, 1), (5, 2)], [(3, 4)]])
    p1 = build([[(0, 0), (1, 0)], [(2, 0), (3, 0)], [(3, 1), (4, 1)],
                [(3, 2), (5, 2)], [(3, 4)]])
    return p0, p1


def example5():
    """Fig 6's version tree for the DFS-vs-BFS discussion: V0 root with 4
    records; V1, V2 children of V0 with 2 records each; V3 child of V1
    with 2 records. Chunk size = 4 records."""
    graph = VersionGraph([None, 0, 0, 1])
    records = df_records(
        [(k, 0) for k in range(4)]
        + [(10, 1), (11, 1)] + [(20, 2), (21, 2)] + [(30, 3), (31, 3)])
    return graph, records, df_kills([])


def fig7():
    """Fig 7(a)'s original version tree and records for the sub-chunk
    example (k=3): a 7-version tree, keys K0..K5."""
    # Tree: V0 root; V1,V2? Fig 7(a) shows V0 with children V1, V3?, ...
    # Reconstructed from the sub-chunk table: records exist at
    # K0: V0,V1,V2,V4 (V4 only via membership, record at V1,V2? SC0 holds
    # <K0,V1>,<K0,V2>,<K0,V4>) — so K0 has records at V0,V1,V2,V4;
    # K1 at V0,V1,V3; K2 at V0,V1,V2,V4; K3 at V0,V2,V4,V5,V6; K4 at V3;
    # K5 at V5. A chain V0→V1→V2→...? Example 6 says V4 duplicates V2 and
    # V6 duplicates V3, which requires a branched tree; we use:
    # V0 → V1, V1 → V2, V2 → V4(dup), V1 → V3, V2 → V5, V3 → V6(dup).
    graph = VersionGraph([None, 0, 1, 1, 2, 2, 3])
    records = df_records([
        (0, 0), (1, 0), (2, 0), (3, 0),
        (0, 1), (2, 1), (1, 1),
        (0, 2), (3, 2), (2, 2),
        (1, 3), (4, 3),
        (0, 4), (2, 4), (3, 4),
        (3, 5), (5, 5),
        (3, 6),
    ])
    kills = df_kills([
        (0, 0, 1), (2, 0, 1), (1, 0, 1),
        (0, 1, 2), (2, 1, 2), (3, 0, 2),
        (1, 1, 3),
        (0, 2, 4), (2, 2, 4), (3, 2, 4),
        (3, 2, 5),
        (3, 0, 6),
    ])
    return graph, records, kills


def reinsert_deleted(g, records: pd.DataFrame, kills: pd.DataFrame):
    """``records`` plus, for every key deleted at a version with children,
    the key inserted again at that version's first child."""
    rec = set(zip(records["key"].tolist(), records["origin"].tolist()))
    again = [(k, g.children[v][0], 100, None)
             for k, v in zip(kills["key"].tolist(), kills["kill_vid"].tolist())
             if (k, v) not in rec and g.children[v]]
    return pd.concat([records, pd.DataFrame(again, columns=records.columns)],
                     ignore_index=True)
