"""Boolean WHERE/HAVING grammar: OR / parentheses / BETWEEN compiled to
DNF — parser shapes, Kleene-OR evaluation vs DuckDB, zone-union block
pruning over an encoded store, and the Count-only global-aggregate fix."""

import duckdb
import pytest

from howard_ray.fixtures import write_corpus
from howard_ray.pipeline import encode_dataset
from howard_ray.sqlmini import explain_sql, parse, run_sql

SF = "/root/testdata/sf0.001"


def _oracle(sql: str, table: str) -> "object":
    return duckdb.sql(
        sql.replace(f"FROM {table}", f"FROM '{SF}/{table}.parquet'")).df()


# ---------------------------------------------------------------- parser

def test_parse_between_rewrites_to_range_pair():
    p = parse("SELECT COUNT(*) AS n FROM orders "
              "WHERE o_totalprice BETWEEN 10 AND 20")
    assert p["or_branches"] is None
    assert p["conds"] == [
        {"col": "o_totalprice", "op": ">=", "val": 10},
        {"col": "o_totalprice", "op": "<=", "val": 20}]


def test_parse_precedence_and_binds_tighter_than_or():
    p = parse("SELECT COUNT(*) AS n FROM orders "
              "WHERE a = 1 AND b = 2 OR c = 3")
    assert [len(br) for br in p["or_branches"]] == [2, 1]


def test_parse_parenthesized_or_distributes():
    p = parse("SELECT COUNT(*) AS n FROM orders "
              "WHERE (a = 1 OR b = 2) AND (c = 3 OR d = 4)")
    assert len(p["or_branches"]) == 4
    assert all(len(br) == 2 for br in p["or_branches"])


def test_parse_dnf_cap_falls_back_to_expression_mask():
    """A WHERE whose DNF would explode past the cap (2^8 branches here) no
    longer errors: it falls back to the expression boolean grammar — one
    vectorized Kleene mask, no pruning — with conds/or_branches empty so
    no fast path misfires."""
    where = " AND ".join(f"(a{i} = 1 OR b{i} = 2)" for i in range(8))
    p = parse(f"SELECT COUNT(*) AS n FROM orders WHERE {where}")
    assert p["where_expr"] is not None
    assert p["conds"] == [] and p["or_branches"] is None


def test_parse_string_literal_containing_keywords():
    p = parse("SELECT COUNT(*) AS n FROM orders "
              "WHERE o_orderpriority = 'X AND Y OR (Z)'")
    assert p["conds"] == [{"col": "o_orderpriority", "op": "=",
                           "val": "X AND Y OR (Z)"}]


# ------------------------------------------------------- table execution

CASES = [
    ("SELECT o_orderpriority, COUNT(*) AS n, "
     "ROUND(SUM(o_totalprice), 2) AS rev FROM orders "
     "WHERE o_totalprice >= 400000 OR o_orderpriority = '1-URGENT' "
     "GROUP BY o_orderpriority ORDER BY o_orderpriority", "orders"),
    ("SELECT COUNT(*) AS n FROM orders "
     "WHERE (o_orderpriority = '1-URGENT' OR o_orderpriority = '5-LOW') "
     "AND (o_totalprice BETWEEN 100000 AND 200000 "
     "OR o_totalprice > 400000)", "orders"),
    ("SELECT l_returnflag, COUNT(*) AS n FROM lineitem "
     "WHERE l_quantity BETWEEN 10 AND 20 "
     "GROUP BY l_returnflag ORDER BY l_returnflag", "lineitem"),
]


@pytest.mark.parametrize("sql,table", CASES)
def test_or_between_match_duckdb(ray_session, sql, table):
    import pandas as pd
    mine = run_sql(SF, sql).reset_index(drop=True)
    exp = _oracle(sql, table).reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, exp, check_dtype=False, rtol=1e-9)


def test_having_or(ray_session):
    import pandas as pd
    sql = ("SELECT l_returnflag, COUNT(*) AS n, "
           "ROUND(SUM(l_extendedprice), 2) AS rev FROM lineitem "
           "GROUP BY l_returnflag HAVING n >= 10000 OR rev < 100 "
           "ORDER BY l_returnflag")
    mine = run_sql(SF, sql).reset_index(drop=True)
    exp = _oracle(sql, "lineitem").reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, exp, check_dtype=False, rtol=1e-9)


def test_count_only_global_aggregate(ray_session):
    # regression: Ray 2.49's groupby(None).aggregate(Count()) answers 0
    # when Count is the only aggregate — run_sql routes via Dataset.count()
    sql = "SELECT COUNT(*) AS n FROM orders WHERE o_totalprice > 100000"
    assert run_sql(SF, sql)["n"].iloc[0] == \
        _oracle(sql, "orders")["n"].iloc[0] > 0


# -------------------------------------------------------- store OR scan

def test_store_or_zone_union_prunes_and_matches(ray_session, tmp_path):
    """A DNF WHERE over a CLUSTERED store prunes every block no branch can
    match (union-of-branches zone pruning) and still returns the exact
    DuckDB answer."""
    import pandas as pd

    src = str(tmp_path / "c.parquet")
    write_corpus(src, 2000, seed=7)
    st = str(tmp_path / "st")
    encode_dataset(src, st, mode="cluster", target_rows=250)

    sql = ("SELECT source, COUNT(*) AS n FROM store "
           "WHERE source = 'books' OR source = 'code' "
           "GROUP BY source ORDER BY source")
    plan = explain_sql(st, sql)
    assert plan["where_form"] == "dnf"
    assert plan["path"] == "store-scan"
    census = plan["blocks"]
    # cluster mode partitions by source: only the two sources' blocks decode
    assert census["pruned"] > 0
    assert census["decoded"] < census["total"]

    mine = run_sql(st, sql).reset_index(drop=True)
    exp = duckdb.sql(sql.replace("FROM store", f"FROM '{src}'")) \
        .df().reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, exp, check_dtype=False)


def test_store_or_range_branches(ray_session, tmp_path):
    import pandas as pd

    src = str(tmp_path / "c2.parquet")
    write_corpus(src, 1500, seed=11)
    st = str(tmp_path / "st2")
    encode_dataset(src, st, mode="stream", target_rows=300)

    sql = ("SELECT COUNT(*) AS n, SUM(n_tok) AS tok FROM store "
           "WHERE n_tok BETWEEN 100 AND 200 OR n_tok > 900")
    mine = run_sql(st, sql).reset_index(drop=True)
    exp = duckdb.sql(sql.replace("FROM store", f"FROM '{src}'")) \
        .df().reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, exp, check_dtype=False)


# ------------------------------------------- NOT / IS NULL / DISTINCT

def test_parse_not_demorgan():
    p = parse("SELECT COUNT(*) AS n FROM orders WHERE NOT (a = 1 OR b > 2)")
    assert p["conds"] == [{"col": "a", "op": "!=", "val": 1},
                         {"col": "b", "op": "<=", "val": 2}]


def test_parse_not_in_not_between_is_null():
    p = parse("SELECT COUNT(*) AS n FROM orders WHERE x NOT IN (1, 2)")
    assert p["conds"] == [{"col": "x", "op": "!=", "val": 1},
                         {"col": "x", "op": "!=", "val": 2}]
    p = parse("SELECT COUNT(*) AS n FROM orders WHERE q NOT BETWEEN 5 AND 9")
    assert p["or_branches"] == [[{"col": "q", "op": "<", "val": 5}],
                                [{"col": "q", "op": ">", "val": 9}]]
    p = parse("SELECT COUNT(*) AS n FROM orders "
              "WHERE c IS NULL OR d IS NOT NULL")
    assert p["or_branches"] == [[{"col": "c", "op": "ISNULL", "val": None}],
                                [{"col": "d", "op": "NOTNULL", "val": None}]]


NOT_CASES = [
    ("SELECT COUNT(*) AS n, ROUND(SUM(o_totalprice), 2) AS rev FROM orders "
     "WHERE NOT (o_orderpriority = '1-URGENT' OR o_totalprice > 400000)",
     "orders"),
    ("SELECT l_returnflag, COUNT(*) AS n FROM lineitem "
     "WHERE l_linestatus NOT IN ('F') AND l_returnflag NOT LIKE 'A%' "
     "AND l_quantity NOT BETWEEN 20 AND 40 "
     "GROUP BY l_returnflag ORDER BY l_returnflag", "lineitem"),
]


@pytest.mark.parametrize("sql,table", NOT_CASES)
def test_not_matches_duckdb(ray_session, sql, table):
    import pandas as pd
    mine = run_sql(SF, sql).reset_index(drop=True)
    exp = _oracle(sql, table).reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, exp, check_dtype=False, rtol=1e-9)


def test_is_null_over_nullable_parquet(ray_session, tmp_path):
    """IS NULL / IS NOT NULL / NOT over a genuinely nullable column:
    three-valued logic must match DuckDB (NOT(col = v) excludes NULLs)."""
    import pandas as pd

    df = pd.DataFrame({
        "k": list(range(12)),
        "v": [None, 1, 2, None, 3, 1, None, 2, 5, None, 1, 9],
        "s": ["a", None, "b", "a", None, "b", "a", "b", None, "a", "b", "a"],
    })
    df.to_parquet(str(tmp_path / "t.parquet"))
    for sql in [
        "SELECT COUNT(*) AS n FROM t WHERE v IS NULL",
        "SELECT COUNT(*) AS n FROM t WHERE v IS NOT NULL AND s IS NULL",
        "SELECT COUNT(*) AS n FROM t WHERE NOT (v = 1)",
        "SELECT COUNT(*) AS n FROM t WHERE NOT (v = 1 OR s = 'a')",
        "SELECT k FROM t WHERE v IS NULL OR s IS NULL ORDER BY k",
    ]:
        mine = run_sql(str(tmp_path), sql).reset_index(drop=True)
        exp = duckdb.sql(
            sql.replace("FROM t", f"FROM '{tmp_path}/t.parquet'")) \
            .df().reset_index(drop=True)
        pd.testing.assert_frame_equal(mine, exp, check_dtype=False)


def test_having_like_matches_duckdb_across_newlines(ray_session, tmp_path):
    """LIKE matches the whole value, and % and _ match a newline, as in
    DuckDB (a trailing newline the pattern lacks does not match)."""
    import pandas as pd
    df = pd.DataFrame({"s": ["abc\n", "a\nc", "abc", "ab", "x\nabc", None],
                       "v": [1, 2, 3, 4, 5, 6]})
    df.to_parquet(str(tmp_path / "t.parquet"))
    for pat in ("abc", "a%c", "a_c", "%c", "a%", "%b%", "_bc_"):
        for op in ("LIKE", "NOT LIKE"):
            sql = (f"SELECT s, SUM(v) AS n FROM t GROUP BY s "
                   f"HAVING s {op} '{pat}' ORDER BY s")
            mine = run_sql(str(tmp_path), sql).reset_index(drop=True)
            exp = duckdb.sql(
                sql.replace("FROM t", f"FROM '{tmp_path}/t.parquet'")) \
                .df().reset_index(drop=True)
            pd.testing.assert_frame_equal(mine, exp, check_dtype=False,
                                          obj=sql)


def test_select_distinct_matches_duckdb(ray_session):
    import pandas as pd
    sql = ("SELECT DISTINCT lang, source FROM documents "
           "ORDER BY lang, source")
    mine = run_sql(SF, sql).reset_index(drop=True)
    exp = _oracle(sql, "documents").reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, exp, check_dtype=False)
    assert list(mine.columns) == ["lang", "source"]


def test_select_distinct_keeps_null_group(ray_session, tmp_path):
    import pandas as pd
    df = pd.DataFrame({"g": ["x", None, "y", "x", None, "y", "x"],
                       "h": [1, 2, 1, 1, 2, 2, 1]})
    df.to_parquet(str(tmp_path / "t.parquet"))
    sql = "SELECT DISTINCT g, h FROM t ORDER BY g, h"
    mine = run_sql(str(tmp_path), sql).reset_index(drop=True)
    exp = duckdb.sql(sql.replace("FROM t", f"FROM '{tmp_path}/t.parquet'")) \
        .df().reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, exp, check_dtype=False)


def test_select_distinct_over_clustered_store(ray_session, tmp_path):
    import pandas as pd
    src = str(tmp_path / "c.parquet")
    write_corpus(src, 1200, seed=3)
    st = str(tmp_path / "st")
    encode_dataset(src, st, mode="cluster", target_rows=300)
    sql = "SELECT DISTINCT source FROM store ORDER BY source"
    mine = run_sql(st, sql).reset_index(drop=True)
    exp = duckdb.sql(
        sql.replace("FROM store", f"FROM '{src}'")).df() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, exp, check_dtype=False)


def test_not_between_zone_prunes_store(ray_session, tmp_path):
    """NOT BETWEEN over a clustered store: the negated range splits into
    two branches; union-of-branches zone pruning skips mid-range blocks."""
    import pandas as pd
    src = str(tmp_path / "c2.parquet")
    write_corpus(src, 2000, seed=5)
    st = str(tmp_path / "st2")
    encode_dataset(src, st, mode="cluster", target_rows=250)
    from howard_ray.pipeline import recluster_store
    recluster_store(st, ["n_tok"])
    sql = ("SELECT COUNT(*) AS n, SUM(n_tok) AS tok FROM store "
           "WHERE n_tok NOT BETWEEN 150 AND 800")
    plan = explain_sql(st, sql)
    assert plan["where_form"] == "dnf"
    assert plan["blocks"]["pruned"] > 0
    mine = run_sql(st, sql).reset_index(drop=True)
    exp = duckdb.sql(sql.replace("FROM store", f"FROM '{src}'")) \
        .df().reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, exp, check_dtype=False)


def test_empty_match_aggregates_keep_sql_semantics(ray_session):
    """WHERE matching zero rows: grouped aggregate returns a typed EMPTY
    frame (not a schema-less crash); global aggregate returns one row with
    COUNT 0 and NULL sums — DuckDB's exact semantics."""
    import pandas as pd

    g = run_sql(SF, "SELECT o_orderpriority, COUNT(*) AS n FROM orders "
                    "WHERE o_totalprice < 0 OR o_totalprice > 99999999 "
                    "GROUP BY o_orderpriority ORDER BY o_orderpriority")
    assert list(g.columns) == ["o_orderpriority", "n"] and len(g) == 0

    a = run_sql(SF, "SELECT COUNT(*) AS n, SUM(o_totalprice) AS s "
                    "FROM orders WHERE o_totalprice < 0")
    assert len(a) == 1 and a["n"].iloc[0] == 0 and pd.isna(a["s"].iloc[0])
