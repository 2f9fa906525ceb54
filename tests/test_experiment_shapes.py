"""Shape checks on the kernels and sweeps behind each evaluation table,
on pre-generated scaled datasets (one test per former benchmark target)."""
import pytest

from repro.core.baselines import delta_partition, delta_total_span
from repro.core.bottom_up import bottom_up_partition
from repro.core.online import quality_ratio
from repro.core.shingle import shingle_pd
from repro.core.span import total_version_span_pd
from repro.core.subchunks import build_subchunks, compress_subchunks
from repro.core.traversal import bfs_partition, dfs_partition
from repro.experiments import fig10, fig11, fig12, sec23, table1, table2
from repro.versioned.datasets import make
from repro.versioned.membership import membership_pd

SCALE = 0.4  # ~SF 0.1-equivalent for the scaled datasets
C = 10_000


@pytest.fixture(scope="module")
def b0s():
    ds = make("B0s", scale=SCALE)
    return ds.graph, ds


@pytest.fixture(scope="module")
def b0s_membership(b0s):
    g, ds = b0s
    return membership_pd(g, ds.records, ds.kills)


@pytest.fixture(scope="module")
def c0s_payload():
    ds = make("C0s", scale=SCALE, with_payload=True, p_d=0.05)
    return ds.graph, ds


class TestFig8Partitioners:
    def test_bottom_up(self, b0s, b0s_membership):
        g, ds = b0s
        asg = bottom_up_partition(g, ds.records, ds.kills, C)
        assert total_version_span_pd(b0s_membership, asg) > 0

    def test_dfs(self, b0s):
        g, ds = b0s
        assert len(dfs_partition(g, ds.records, C)) == ds.n_unique

    def test_bfs(self, b0s):
        g, ds = b0s
        assert len(bfs_partition(g, ds.records, C)) == ds.n_unique

    def test_shingle(self, spark, b0s, b0s_membership):
        g, ds = b0s
        assert len(shingle_pd(spark, b0s_membership, C)) == ds.n_unique

    def test_delta(self, b0s):
        g, ds = b0s
        assert delta_total_span(g, delta_partition(g, ds.records, C)) > 0


@pytest.mark.parametrize("beta", [None, 20, 5])
def test_fig9_bottom_up_beta(b0s, beta):
    g, ds = b0s
    asg = bottom_up_partition(g, ds.records, ds.kills, C, beta=beta)
    assert len(asg) == ds.n_unique


@pytest.mark.parametrize("k", [5, 25])
def test_fig10_subchunks_compress(c0s_payload, k):
    g, ds = c0s_payload
    sc = build_subchunks(g, ds.records, k=k)
    cs = compress_subchunks(ds.records, sc, g.depths())
    assert cs["comp_bytes"].sum() < cs["raw_bytes"].sum()


def test_fig10_two_phase_sweep(spark):
    df = fig10.run_dataset(spark, "A2s", scale=0.3, k_values=(1, 5),
                           p_d_values=(0.05,))
    for k in (1, 5):
        assert df[df.k == k]["algorithm"].tolist() == [
            "BOTTOMUP", "DEPTHFIRST", "SHINGLE"]
    assert (df["compression_ratio"] >= 1).all()
    assert (df["total_span"] > 0).all()


def test_fig11_query_sweep(spark):
    df = fig11.run_dataset(spark, "C0s", scale=0.3, k_values=(1, 5))
    sub = df[df.algorithm == "SUBCHUNK"].iloc[0]
    bu = df[(df.algorithm == "BOTTOMUP") & (df.k == 1)].iloc[0]
    assert sub["q1_s"] > bu["q1_s"]      # SUBCHUNK worst at Q1
    assert sub["q3_s"] < bu["q3_s"] * 5  # but competitive at Q3


def test_fig12_weak_scaling():
    df = fig12.run_dataset("G~", base_versions=30, n_base=200,
                           pct_update=10, nodes=(1, 2, 4))
    assert df["avg_version_span"].is_monotonic_increasing


def test_fig13_online_quality(b0s, b0s_membership):
    g, ds = b0s
    ratios = quality_ratio(g, ds.records, ds.kills, b0s_membership,
                           C=10_000, batch_sizes=[25],
                           checkpoints=[50, g.n])[25]
    assert all(r >= 0.9 for r in ratios.values())


def test_sec23_chunk_size_sweep(spark):
    df = sec23.run(spark, n_records=200_000, version_size=20_000,
                   chunk_sizes=(1, 10, 100, 1000))
    assert (df["sim_time_s"].diff().dropna() <= 0).all()


def test_table1_empirical():
    df = table1.empirical(n=40, m_v=200)
    rows = {r["algorithm"]: r for _, r in df.iterrows()}
    assert rows["DELTA"]["point_queries"] > rows["SubChunk"]["point_queries"]


def test_table2_generation():
    df = table2.run(scale=0.3, names=["A0s", "B0s", "C0s"])
    assert len(df) == 3
