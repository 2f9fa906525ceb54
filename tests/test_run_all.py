"""Tests for the table registry of ``jobs/run_all.py``; the §2.3 table and
Figs 8, 10 and 11 are rebuilt with the test session's Spark."""
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN_ALL = ROOT / "jobs" / "run_all.py"
COMPARE = ROOT / "jobs" / "compare_results.py"


def _load_run_all():
    spec = importlib.util.spec_from_file_location("run_all", RUN_ALL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_committed_result_has_one_producer():
    committed = {p.stem for p in (ROOT / "results").glob("*.csv")}
    assert set(_load_run_all().TABLES) == committed


def _env(**extra) -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"), **extra}


def test_unknown_table_exits_2_and_lists_valid_names():
    env = _env()
    res = subprocess.run([sys.executable, str(RUN_ALL), "no_such_table"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 2
    assert "no_such_table" in res.stderr and "fig11_queries" in res.stderr


def test_spark_free_tables_reproduce_committed_results(tmp_path):
    """Rebuilding the tables that need no Spark (table1_analytic,
    table1_empirical, table2_datasets, fig9_beta, fig12_scalability,
    fig13_online) gives the committed CSVs, cell for cell outside
    wall-clock columns."""
    spark_free = [n for n, t in _load_run_all().TABLES.items() if not t.spark]
    built, committed = tmp_path / "built", tmp_path / "committed"
    committed.mkdir()
    for name in spark_free:
        shutil.copy(ROOT / "results" / f"{name}.csv", committed)
    res = subprocess.run(
        [sys.executable, str(RUN_ALL), *spark_free], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
        env=_env(REPRO_RESULTS_DIR=str(built)))
    assert res.returncode == 0, res.stderr
    res = subprocess.run(
        [sys.executable, str(COMPARE), str(committed), str(built)],
        capture_output=True, text=True, env=_env(), timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "no differences" in res.stdout


def _reproduces_committed_result(spark, tmp_path, monkeypatch, name):
    """Build table ``name`` through the registry and ``emit`` with the
    test session, and diff it against the committed CSV."""
    from repro.experiments import common

    table = _load_run_all().TABLES[name]
    built, committed = tmp_path / "built", tmp_path / "committed"
    committed.mkdir()
    shutil.copy(ROOT / "results" / f"{name}.csv", committed)
    monkeypatch.setattr(common, "RESULTS_DIR", built)
    common.emit(name, table.build(spark), table.header)
    res = subprocess.run(
        [sys.executable, str(COMPARE), str(committed), str(built)],
        capture_output=True, text=True, env=_env(), timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "no differences" in res.stdout


def test_sec23_table_reproduces_committed_result(spark, tmp_path,
                                                 monkeypatch):
    """The §2.3 table, built at full size, gives the committed CSV cell
    for cell."""
    _reproduces_committed_result(spark, tmp_path, monkeypatch,
                                 "table_sec23_chunksize")


@pytest.mark.parametrize("name", ["fig8_total_span", "fig10_compression",
                                  "fig11_queries"])
def test_layout_table_reproduces_committed_result(spark, tmp_path,
                                                  monkeypatch, name):
    """Figs 8, 10 and 11, whose SHINGLE layouts hash versions in Spark,
    give the committed CSVs cell for cell."""
    _reproduces_committed_result(spark, tmp_path, monkeypatch, name)


class _Builder:
    """Records the configs a SparkSession builder is given."""

    def __init__(self):
        self.conf = {}

    def appName(self, name):
        return self

    def config(self, key, value):
        self.conf[key] = value
        return self

    def getOrCreate(self):
        return self.conf


def test_get_spark_sizes_driver_from_env(monkeypatch):
    """``get_spark`` sets ``spark.driver.memory`` from ``SPARK_DRIVER_MEM``
    when it is set, and leaves Spark's default otherwise."""
    from repro.experiments import common

    def conf():
        monkeypatch.setattr(common, "SparkSession",
                            SimpleNamespace(builder=_Builder()))
        return common.get_spark("t")

    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert conf()["spark.driver.memory"] == "3g"
    monkeypatch.delenv("SPARK_DRIVER_MEM")
    assert "spark.driver.memory" not in conf()
