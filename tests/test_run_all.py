"""Tests for the table registry of ``jobs/run_all.py``, without Spark."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_ALL = ROOT / "jobs" / "run_all.py"


def _load_run_all():
    spec = importlib.util.spec_from_file_location("run_all", RUN_ALL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_committed_result_has_one_producer():
    committed = {p.stem for p in (ROOT / "results").glob("*.csv")}
    assert set(_load_run_all().TABLES) == committed


def test_unknown_table_exits_2_and_lists_valid_names():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, str(RUN_ALL), "no_such_table"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 2
    assert "no_such_table" in res.stderr and "fig11_queries" in res.stderr
