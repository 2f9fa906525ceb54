"""Tests for the delta-replay walker (live sets with undo)."""
import numpy as np
import pandas as pd
import pytest

from repro.versioned.graph import VersionGraph, chain
from repro.versioned.walker import (deltas_by_version, live_sets, rows_of,
                                    sizes_by_code, walk)

from tests.paper_examples import df_kills, df_records, example2


def deltas(g, rec, kills):
    return deltas_by_version(g.n, rec, kills)


class TestLiveSets:
    def test_example2_contents(self):
        g, rec, kills, expected = example2()
        live = live_sets(g, rec, kills)
        for vid, want in expected.items():
            got = {(k, o) for k, o in live[vid].items()}
            assert got == want, f"version {vid}"

    def test_sibling_isolation(self):
        # V2's delete of K2 must not leak into V1's branch (undo check).
        g, rec, kills, expected = example2()
        live = live_sets(g, rec, kills)
        assert 2 in live[1] and 2 not in live[2]

    def test_chain_growth(self):
        g = chain(3)
        rec = df_records([(0, 0), (1, 1), (2, 2)])
        live = live_sets(g, rec, df_kills([]))
        assert len(live[0]) == 1 and len(live[1]) == 2 and len(live[2]) == 3


class TestWalkCallbacks:
    def test_exit_order_is_postorder(self):
        g, rec, kills, _ = example2()
        seen = []
        walk(g, *deltas(g, rec, kills), lambda v, live: seen.append(v))
        assert seen == g.postorder()

    def test_enter_callback_sees_parent_live_set(self):
        # on_enter fires before v's delta is applied: `live` is S_parent.
        g, rec, kills, expected = example2()
        entered = {}
        walk(g, *deltas(g, rec, kills), lambda v, live: None,
             on_enter=lambda v, live: entered.update({v: set(live.items())}))
        assert entered[0] == set()
        for v in range(1, g.n):
            assert entered[v] == expected[g.parent[v]], f"version {v}"

    @pytest.mark.parametrize("delta", [
        ("kls", (0, 5)),  # kill of a non-live origin
        ("adds", 0),  # add over a live record
    ])
    def test_delta_from_enter_callback_is_checked(self, delta):
        # A delta handed over by on_enter passes the same checks.
        g = chain(2)
        adds, kls = deltas(g, df_records([(0, 0)]), df_kills([]))
        which, item = delta

        def _enter(v, live):
            if v == 1:
                (kls if which == "kls" else adds)[v].append(item)

        with pytest.raises(ValueError, match="inconsistent"):
            walk(g, adds, kls, lambda v, live: None, on_enter=_enter)


class TestConsistencyChecks:
    def test_kill_of_wrong_origin_raises(self):
        g = chain(2)
        rec = df_records([(0, 0)])
        kills = df_kills([(0, 5, 1)])  # live origin is 0, not 5
        with pytest.raises(ValueError, match="inconsistent"):
            walk(g, *deltas(g, rec, kills), lambda v, live: None)

    def test_add_over_live_record_raises(self):
        g = chain(2)
        rec = df_records([(0, 0), (0, 1)])  # re-add without kill
        with pytest.raises(ValueError, match="inconsistent"):
            walk(g, *deltas(g, rec, df_kills([])), lambda v, live: None)


class TestDeltasByVersion:
    def test_split(self):
        g, rec, kills, _ = example2()
        adds, kls = deltas_by_version(g.n, rec, kills)
        assert adds[0] == [0, 1, 2, 3]
        assert adds[1] == [3, 4]
        assert kls[2] == [(3, 0), (2, 0)]
        assert kls[3] == [(2, 0)]


class TestLookups:
    """``(key, origin)`` codes ``key · n + origin`` looked up by hash."""

    def test_sizes_by_code(self):
        rec = pd.DataFrame({"key": [4, 1, 2], "origin": [0, 1, 0],
                            "size": [40, 11, 20], "payload": None})
        codes = np.array([2 * 3, 4 * 3, 1 * 3 + 1, 2 * 3])
        assert sizes_by_code(rec, 3, codes).tolist() == [20, 40, 11, 20]

    @pytest.mark.parametrize("code", [
        3 * 3,       # between two records' codes
        9 * 3 + 2,   # past the last code
        0,           # before the first code
    ])
    def test_unknown_code_raises(self, code):
        # A sorted search would return a neighbouring record's size here.
        rec = pd.DataFrame({"key": [4, 1, 2], "origin": [0, 1, 0],
                            "size": [40, 11, 20], "payload": None})
        with pytest.raises(KeyError):
            sizes_by_code(rec, 3, np.array([2 * 3, code]))

    def test_rows_of_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        assert rows_of(empty, empty).tolist() == []
        with pytest.raises(KeyError):
            rows_of(empty, np.array([5]))
