"""The benchmark still runs against the current ``src/``.

``perfbench/`` imports names from ``repro`` and checks the store and the
indexes. Its self-test lays out a tiny B0s, runs checked queries and
confirms that corrupted outputs are counted as failed, so a change that
breaks a name it imports, or one of its checks, fails here. It starts its
own Spark session with the benchmark's settings, hence the subprocess.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest: ok" in proc.stdout.splitlines()
