"""Tests for ``jobs/compare_results.py`` on temporary results directories."""
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "jobs" / "compare_results.py"

FIG9 = "beta,total_span,partition_time_s\ninf,4953,0.188\n80,5119,0.204\n"
FIG8 = "dataset,algo,total_span\nA0s,BOTTOM-UP,100\nA0s,SHINGLE,120\n"


def run(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


@pytest.fixture
def dirs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "fig9_beta.csv").write_text(FIG9)
        (d / "fig8_total_span.csv").write_text(FIG8)
    return a, b


def test_identical_dirs_pass(dirs):
    out = run(*dirs)
    assert out.returncode == 0, out.stdout
    assert "no differences" in out.stdout


def test_changed_cell_fails_and_is_named(dirs):
    a, b = dirs
    (b / "fig8_total_span.csv").write_text(FIG8.replace("120", "121"))
    out = run(a, b)
    assert out.returncode == 1
    assert "fig8_total_span.csv: row 2 total_span: '120' != '121'" in out.stdout


def test_wall_clock_column_is_skipped(dirs):
    a, b = dirs
    (b / "fig9_beta.csv").write_text(FIG9.replace("0.188", "0.931"))
    assert run(a, b).returncode == 0


def test_other_fig9_column_is_compared(dirs):
    a, b = dirs
    (b / "fig9_beta.csv").write_text(FIG9.replace("5119", "5118"))
    out = run(a, b)
    assert out.returncode == 1 and "total_span" in out.stdout


def test_missing_file_and_extra_row_fail(dirs):
    a, b = dirs
    (b / "fig9_beta.csv").unlink()
    (b / "fig8_total_span.csv").write_text(FIG8 + "B0s,DFS,130\n")
    out = run(a, b)
    assert out.returncode == 1
    assert "fig9_beta.csv: only in" in out.stdout
    assert "2 rows != 3 rows" in out.stdout


def test_no_csv_files_is_an_error(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert run(a, b).returncode == 2
    assert run(a, tmp_path / "missing").returncode == 2
