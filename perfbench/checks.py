"""Correctness checks made apart from the program under test.

Each check returns None when the program's output is right and a one-line
description of the fault otherwise. The expected side is always computed
with pyarrow or DuckDB from the rows the benchmark generated itself.
"""

from __future__ import annotations

import math

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

COLUMNS = ("doc_id", "tokens", "n_tok", "source")


def _canonical(t: pa.Table, columns) -> pa.Table:
    return t.select(list(columns)).combine_chunks().sort_by("doc_id")


def rows_equal(expected: pa.Table, actual: "pa.Table | None", what: str,
               columns=COLUMNS) -> "str | None":
    """The two tables hold the same rows as a multiset keyed by the unique
    ``doc_id``, every column (token arrays included) bit-identical and of
    the same Arrow type."""
    columns = list(columns)
    if actual is None or actual.num_rows == 0:
        return None if expected.num_rows == 0 else \
            f"{what}: no rows, expected {expected.num_rows}"
    if sorted(actual.column_names) != sorted(columns):
        return f"{what}: columns {actual.column_names}, expected {columns}"
    if actual.num_rows != expected.num_rows:
        return f"{what}: {actual.num_rows} rows, expected {expected.num_rows}"
    a, e = _canonical(actual, columns), _canonical(expected, columns)
    for c in columns:
        if not a[c].equals(e[c]):
            return f"{what}: column {c} differs"
    return None


def doc_ids_equal(expected: pa.Table, actual: "pa.Table | None",
                  what: str) -> "str | None":
    """Row count and doc_id multiset match (the cheap live-set check)."""
    return rows_equal(expected, actual, what, columns=("doc_id",))


def within_parquet(stored_bytes: int, parquet_bytes: int) -> "str | None":
    """The store is no larger than the same rows as Parquet with zstd."""
    if stored_bytes <= parquet_bytes:
        return None
    return f"store {stored_bytes} B exceeds Parquet+zstd {parquet_bytes} B"


def count_matches(reported: int, expected: int, what: str) -> "str | None":
    return None if reported == expected else \
        f"{what}: reported {reported}, expected {expected}"


def oracle(sql: str, tables: dict[str, pa.Table]) -> pd.DataFrame:
    """The same SQL text answered by DuckDB over in-memory Arrow tables."""
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        return con.execute(sql).df()
    finally:
        con.close()


def _same_value(a, b) -> bool:
    a_null = a is None or (isinstance(a, float) and math.isnan(a)) or a is pd.NA
    b_null = b is None or (isinstance(b, float) and math.isnan(b)) or b is pd.NA
    if a_null or b_null:
        return a_null and b_null
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)


def frames_equal(got: pd.DataFrame, want: pd.DataFrame,
                 what: str) -> "str | None":
    """Same column names and the same rows in the same order (every query
    in the benchmark orders its result); floats to 1e-9 relative."""
    if list(got.columns) != list(want.columns):
        return f"{what}: columns {list(got.columns)}, expected {list(want.columns)}"
    if len(got) != len(want):
        return f"{what}: {len(got)} rows, expected {len(want)}"
    for r, (g, w) in enumerate(zip(got.itertuples(index=False),
                                   want.itertuples(index=False))):
        for c, gv, wv in zip(got.columns, g, w):
            if not _same_value(gv, wv):
                return f"{what}: row {r} column {c} is {gv!r}, expected {wv!r}"
    return None


def expected_where(live: pa.Table, column: str, value,
                   columns=COLUMNS) -> pa.Table:
    """Rows of ``live`` where ``column == value``, found by pyarrow."""
    return live.filter(pc.equal(live[column], value)).select(list(columns))
