"""Compare two results directories cell for cell.

Usage: python jobs/compare_results.py DIR_A DIR_B

Every ``*.csv`` file must exist in both directories with the same header,
the same rows and the same cells, compared as the text written. Columns
listed in ``WALL_CLOCK`` hold wall time, which differs from run to run,
and are skipped. Prints each difference. Exits 0 when there is none, 1
when there is one, and 2 when an argument is not a directory or neither
directory holds a CSV file.
"""
from __future__ import annotations

import csv
import sys
from pathlib import Path

# File name → columns that hold wall-clock time.
WALL_CLOCK = {"fig9_beta.csv": {"partition_time_s"}}


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as f:
        return list(csv.reader(f))


def compare_file(name: str, a: list[list[str]], b: list[list[str]]) -> list[str]:
    """Differences between two parsed CSV files called ``name``."""
    if a[:1] != b[:1]:
        return [f"{name}: header {a[:1]} != {b[:1]}"]
    if len(a) != len(b):
        return [f"{name}: {len(a) - 1} rows != {len(b) - 1} rows"]
    header, skip = a[0], WALL_CLOCK.get(name, set())
    diffs = []
    for i, (ra, rb) in enumerate(zip(a[1:], b[1:]), start=1):
        if len(ra) != len(rb):
            diffs.append(f"{name}: row {i} has {len(ra)} != {len(rb)} cells")
            continue
        for col, ca, cb in zip(header, ra, rb):
            if col not in skip and ca != cb:
                diffs.append(f"{name}: row {i} {col}: {ca!r} != {cb!r}")
    return diffs


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """Differences between the CSV files of two directories."""
    names_a = {p.name for p in dir_a.glob("*.csv")}
    names_b = {p.name for p in dir_b.glob("*.csv")}
    diffs = [f"{n}: only in {dir_a}" for n in sorted(names_a - names_b)]
    diffs += [f"{n}: only in {dir_b}" for n in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        diffs += compare_file(name, _rows(dir_a / name), _rows(dir_b / name))
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    dir_a, dir_b = Path(argv[0]), Path(argv[1])
    for d in (dir_a, dir_b):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    if not any(dir_a.glob("*.csv")) and not any(dir_b.glob("*.csv")):
        print(f"no CSV files in {dir_a} or {dir_b}", file=sys.stderr)
        return 2
    diffs = compare(dir_a, dir_b)
    for d in diffs:
        print(d)
    print(f"{len(diffs)} difference(s)" if diffs else "no differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
