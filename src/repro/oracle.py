"""DuckDB correctness oracle.

``assert_equivalent(result, sql, **tables)`` runs ``sql`` in DuckDB
over ``tables`` and asserts the sorted rows match ``result``: any object
with a ``toPandas()`` method, such as a Spark DataFrame or the engine's
:class:`~repro.core.query.Rows`. This catches wrong results from a
rewritten plan or a custom operator — "it ran" is not "it is correct".

``tables`` may be pandas DataFrames or anything with ``toPandas()``
(collected first). Alias every output column identically on both sides
(Spark names ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``)
and project to scalar columns — array/map/struct columns are not
orderable so cannot be compared here.
"""
from typing import Protocol

import duckdb
import pandas as pd


class ToPandas(Protocol):
    """A query result: a Spark DataFrame, the engine's ``Rows``, …"""

    def toPandas(self) -> pd.DataFrame: ...


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def _pandas(t: ToPandas | pd.DataFrame) -> pd.DataFrame:
    return t if isinstance(t, pd.DataFrame) else t.toPandas()


def assert_equivalent(result: ToPandas | pd.DataFrame, sql: str,
                      **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, _pandas(t))
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = _pandas(result)
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )
