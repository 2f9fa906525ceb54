"""Version graphs and trees (§2.1, Fig 1/4).

A :class:`VersionGraph` is driver-side metadata: one node per version,
``parent[v]`` pointing at the version it was derived from (root has
``None``). Merges (DAG edges) are kept in ``extra_parents`` and removed
by :func:`dag_to_tree` before partitioning, per Fig 4.

Versions are dense ints ``0..n-1`` with ``parent[v] < v`` (commit order),
which every traversal below relies on.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np
import pandas as pd


@dataclass
class VersionGraph:
    """A rooted version tree, optionally with extra (merge) parents."""

    parent: list  # parent[v] is int or None (root only)
    extra_parents: dict = field(default_factory=dict)  # v -> [other parents]

    def __post_init__(self):
        if self.parent[0] is not None:
            raise ValueError("version 0 must be the root (parent None)")
        for v, p in enumerate(self.parent):
            if v > 0 and (p is None or p >= v):
                raise ValueError(f"parent[{v}]={p}: need parent < child")
        self.children: list[list[int]] = [[] for _ in self.parent]
        for v, p in enumerate(self.parent):
            if p is not None:
                self.children[p].append(v)

    @property
    def n(self) -> int:
        return len(self.parent)

    def is_tree(self) -> bool:
        return not self.extra_parents

    # ---- depths ------------------------------------------------------
    def depths(self) -> np.ndarray:
        """Depth of each version (root = 0)."""
        d = np.zeros(self.n, dtype=np.int64)
        for v in range(1, self.n):
            d[v] = d[self.parent[v]] + 1
        return d

    def leaves(self) -> list[int]:
        return [v for v in range(self.n) if not self.children[v]]

    def avg_leaf_depth(self) -> float:
        """Mean root-to-leaf path length in versions (Table 2 'Avg. depth'
        counts versions on the path, so a chain of n versions has depth n)."""
        d = self.depths()
        return float(np.mean([d[v] + 1 for v in self.leaves()]))

    # ---- traversals --------------------------------------------------
    def dfs_order(self) -> list[int]:
        """Pre-order DFS from the root, children in id order."""
        order, stack = [], [0]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(self.children[v]))
        return order

    def bfs_order(self) -> list[int]:
        order, q = [], deque([0])
        while q:
            v = q.popleft()
            order.append(v)
            q.extend(self.children[v])
        return order

    def postorder(self) -> list[int]:
        """Children-before-parent order (iterative, id-ordered children)."""
        out, stack = [], [(0, False)]
        while stack:
            v, done = stack.pop()
            if done:
                out.append(v)
            else:
                stack.append((v, True))
                for c in reversed(self.children[v]):
                    stack.append((c, False))
        return out

    def ancestors(self, v: int) -> list[int]:
        """Path root→v inclusive."""
        path = []
        while v is not None:
            path.append(v)
            v = self.parent[v]
        return path[::-1]

    def descendants_pairs(self) -> pd.DataFrame:
        """Ancestor-closure as a DataFrame ``(anc, vid)``, self-inclusive.

        O(n · depth) rows — metadata scale. This is the join side of the
        membership computation (DESIGN §4).
        """
        anc, vid = [], []
        # Walk each version's root path; cheap because depth is bounded.
        for v in range(self.n):
            u = v
            while u is not None:
                anc.append(u)
                vid.append(v)
                u = self.parent[u]
        return pd.DataFrame({"anc": np.array(anc, dtype=np.int64),
                             "vid": np.array(vid, dtype=np.int64)})


def chain(n: int) -> VersionGraph:
    """Linear chain of ``n`` versions (Table 2 'A' datasets)."""
    return VersionGraph([None] + list(range(n - 1)))


def random_tree(n: int, *, deepen_prob: float = 0.8, seed: int = 0) -> VersionGraph:
    """Random version tree per the generator of [4] as used in §5.1.

    With probability ``deepen_prob`` the new version extends the most
    recently created version (deepening the current branch); otherwise it
    branches off a uniformly random earlier version. Higher ``deepen_prob``
    gives deeper trees (Table 2's 'Avg. depth' knob).
    """
    g = np.random.default_rng(seed)
    parent: list = [None]
    for v in range(1, n):
        if v == 1 or g.random() < deepen_prob:
            parent.append(v - 1)
        else:
            parent.append(int(g.integers(0, v)))
    return VersionGraph(parent)


def dag_to_tree(graph: VersionGraph, records: pd.DataFrame,
                kills: pd.DataFrame) -> tuple[VersionGraph, pd.DataFrame, pd.DataFrame]:
    """Convert a version DAG with merges to a tree (Fig 4).

    For each merge version, one parent edge (the primary ``parent[v]``) is
    retained and the others dropped. Records that reached the merge version
    exclusively through a dropped parent must reappear: the paper renames
    them "to make them appear as newly inserted records". Here that means:
    for every record killed on the retained path but live at a dropped
    parent, emit a renamed copy ``(key, merge_vid)``.

    The conversion is only used for partitioning; queries keep the original
    graph. Our generator emits trees, so this function exists for fidelity
    (tested against a Fig-4-like case) and for external DAG inputs.
    """
    if graph.is_tree():
        return graph, records, kills
    tree = VersionGraph(list(graph.parent))
    new_records = [records]
    new_kills = [kills]
    # Live map per version along the *retained* tree, via delta replay.
    from .walker import live_sets  # local import to avoid cycle

    live = live_sets(tree, records, kills)
    for v, extras in graph.extra_parents.items():
        keep = {(k, o) for k, o in live[v].items()}
        for p in extras:
            for k, o in live[p].items():
                if (k, o) not in keep and k not in live[v]:
                    # Record arrived exclusively via a dropped edge: rename.
                    row = records[(records.key == k) & (records.origin == o)]
                    r = row.iloc[0]
                    new_records.append(pd.DataFrame(
                        {"key": [k], "origin": [v], "size": [r["size"]],
                         "payload": [r.get("payload", "")]}))
    rec = pd.concat(new_records, ignore_index=True)
    return tree, rec, pd.concat(new_kills, ignore_index=True)
