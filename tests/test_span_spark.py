"""Span evaluation against the DuckDB oracle."""
import pytest

from repro.core.bottom_up import bottom_up_partition
from repro.core.span import version_spans_pd
from repro.oracle import assert_equivalent
from repro.versioned.generator import generate
from repro.versioned.graph import random_tree
from repro.versioned.membership import membership_pd


@pytest.fixture(scope="module")
def built():
    g = random_tree(25, deepen_prob=0.85, seed=13)
    ds = generate(g, n_base=60, pct_update=15, seed=5)
    mem_p = membership_pd(g, ds.records, ds.kills)
    asg = bottom_up_partition(g, ds.records, ds.kills, C=600)
    return mem_p, asg


class TestOracle:
    def test_version_spans_against_duckdb(self, spark, built):
        mem_p, asg = built
        sql = """
        SELECT m.vid AS vid, count(DISTINCT a.chunk) AS span
        FROM member m JOIN assign a ON m.key = a.key AND m.origin = a.origin
        GROUP BY m.vid
        """
        got = version_spans_pd(mem_p, asg).rename("span").reset_index()
        assert_equivalent(spark.createDataFrame(got), sql,
                          member=mem_p, assign=asg)
