"""Unit tests for repro.versioned.graph (version trees, §2.1/Fig 4)."""
import numpy as np
import pandas as pd
import pytest

from repro.versioned import graph as G


def fig1_graph():
    """The 5-version graph of Fig 1: V1,V2 from V0; V3 from V1; V4 from V2."""
    return G.VersionGraph([None, 0, 0, 1, 2])


class TestVersionGraphBasics:
    def test_root_must_have_no_parent(self):
        with pytest.raises(ValueError):
            G.VersionGraph([0, 0])

    def test_parent_must_precede_child(self):
        with pytest.raises(ValueError):
            G.VersionGraph([None, 2, 1])

    def test_children_lists(self):
        g = fig1_graph()
        assert g.children[0] == [1, 2]
        assert g.children[1] == [3]
        assert g.children[2] == [4]
        assert g.children[3] == []

    def test_n(self):
        assert fig1_graph().n == 5

    def test_is_tree(self):
        assert fig1_graph().is_tree()
        g = G.VersionGraph([None, 0, 0], extra_parents={2: [1]})
        assert not g.is_tree()


class TestDepthsAndLeaves:
    def test_depths_fig1(self):
        assert fig1_graph().depths().tolist() == [0, 1, 1, 2, 2]

    def test_chain_depths(self):
        assert G.chain(4).depths().tolist() == [0, 1, 2, 3]

    def test_leaves(self):
        assert fig1_graph().leaves() == [3, 4]
        assert G.chain(3).leaves() == [2]

    def test_avg_leaf_depth_counts_versions_on_path(self):
        # Table 2 convention: a chain of n versions has depth n.
        assert G.chain(300).avg_leaf_depth() == 300.0
        assert fig1_graph().avg_leaf_depth() == 3.0


class TestTraversals:
    def test_dfs_preorder(self):
        assert fig1_graph().dfs_order() == [0, 1, 3, 2, 4]

    def test_bfs_order(self):
        assert fig1_graph().bfs_order() == [0, 1, 2, 3, 4]

    def test_postorder_children_before_parent(self):
        po = fig1_graph().postorder()
        assert po.index(3) < po.index(1)
        assert po.index(4) < po.index(2)
        assert po[-1] == 0

    def test_chain_orders_coincide(self):
        g = G.chain(6)
        assert g.dfs_order() == g.bfs_order() == list(range(6))

    def test_ancestors_path(self):
        assert fig1_graph().ancestors(4) == [0, 2, 4]
        assert fig1_graph().ancestors(0) == [0]


class TestClosure:
    def test_descendants_pairs_fig1(self):
        pairs = fig1_graph().descendants_pairs()
        got = set(zip(pairs["anc"], pairs["vid"]))
        exp = {(0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
               (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (4, 4)}
        assert got == exp

    def test_closure_row_count_is_sum_of_depths_plus_n(self):
        g = G.random_tree(50, deepen_prob=0.7, seed=3)
        pairs = g.descendants_pairs()
        assert len(pairs) == int(g.depths().sum()) + g.n


class TestRandomTree:
    def test_deterministic(self):
        a = G.random_tree(40, deepen_prob=0.8, seed=9)
        b = G.random_tree(40, deepen_prob=0.8, seed=9)
        assert a.parent == b.parent

    def test_deepen_prob_controls_depth(self):
        deep = G.random_tree(200, deepen_prob=0.98, seed=1)
        shallow = G.random_tree(200, deepen_prob=0.5, seed=1)
        assert deep.avg_leaf_depth() > shallow.avg_leaf_depth()

    def test_chain_limit(self):
        g = G.random_tree(10, deepen_prob=1.0, seed=0)
        assert g.parent == G.chain(10).parent


class TestDagToTree:
    def test_tree_passthrough(self):
        g = fig1_graph()
        rec = pd.DataFrame({"key": [0], "origin": [0], "size": [10],
                            "payload": [None]})
        kills = pd.DataFrame({"key": pd.Series(dtype="int64"),
                              "origin": pd.Series(dtype="int64"),
                              "kill_vid": pd.Series(dtype="int64")})
        t, r, k = G.dag_to_tree(g, rec, kills)
        assert t is g and len(r) == 1

    def test_merge_renames_exclusive_records(self):
        # Fig 4 shape: V3 merges V1 (kept parent) and V2 (dropped). A record
        # added in V2 must be renamed to look newly inserted at V3.
        g = G.VersionGraph([None, 0, 0, 1], extra_parents={3: [2]})
        rec = pd.DataFrame({
            "key": [0, 1, 2], "origin": [0, 1, 2],
            "size": [10, 10, 10], "payload": [None] * 3})
        kills = pd.DataFrame({"key": pd.Series(dtype="int64"),
                              "origin": pd.Series(dtype="int64"),
                              "kill_vid": pd.Series(dtype="int64")})
        t, r, k = G.dag_to_tree(g, rec, kills)
        assert t.is_tree()
        renamed = r[(r.key == 2) & (r.origin == 3)]
        assert len(renamed) == 1
