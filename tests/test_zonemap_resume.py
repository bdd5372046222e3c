"""Zone-map block pruning + stream-mode resume tests."""

import glob
import os

import pyarrow as pa
import pytest

from howard_ray.fixtures import write_corpus
from howard_ray.manifest import load_footer, load_manifest
from howard_ray.pipeline import decode_store, encode_dataset


@pytest.fixture(scope="module")
def store(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("zm")
    src = write_corpus(str(root / "c.parquet"), 4000)
    store = str(root / "store")
    encode_dataset(src, store, mode="cluster", target_rows=500)
    return src, store


def test_zone_filter_prunes_blocks(store):
    _, st = store
    footer = load_footer(st)
    # source zone maps: a filter on one source must keep only its blocks
    total = decode_store(st).count()
    web_only = decode_store(st, zone_filter={"source": ("web", "web")})
    n_web = web_only.count()
    assert 0 < n_web < total
    # every decoded row really is web (pruning is sound, not just lucky)
    import ray
    t = pa.concat_tables(ray.get(web_only.to_arrow_refs()))
    assert set(t["source"].to_pylist()) == {"web"}
    # and the pruned plan reads fewer blocks than the footer holds
    assert len([b for b in footer["blocks"]
                if b["columns"]["source"]["stats"].get("min") == "web"
                and b["columns"]["source"]["stats"].get("max") == "web"]) \
        < footer["n_blocks"]


def test_zone_filter_numeric(store):
    _, st = store
    ds = decode_store(st, zone_filter={"n_tok": (5000, None)})
    # n_tok is clipped at 4096 → every block prunes away
    assert ds.count() == 0


def test_stream_resume(ray_session, tmp_path):
    src = write_corpus(str(tmp_path / "c.parquet"), 3000)
    st = str(tmp_path / "store")
    encode_dataset(src, st, mode="stream", target_rows=1000)
    n1 = len(load_manifest(st))
    victims = sorted(glob.glob(os.path.join(st, "blocks", "*.hrb")))
    os.remove(victims[0])
    os.remove(os.path.join(st, "footer.json"))
    f2 = encode_dataset(src, st, mode="stream", target_rows=1000)
    assert f2["n_rows"] == 3000
    # exactly the deleted block was re-encoded
    assert len(load_manifest(st)) == n1 + 1


def test_ann_recall_vs_exact(ray_session):
    """Both distributed approximate paths (sample-trained IVF, multi-table
    LSH) must recover >= 0.8 of the exact neighbors (measured >= 0.9 on all
    three sf fixtures; 0.8 leaves headroom for seed-sensitivity)."""
    from howard_ray.ops.similarity import ann_recall

    r = ann_recall("/root/testdata/sf0.001").set_index("method")["recall_at_k"]
    assert r["ivf"] >= 0.8, f"IVF recall {r['ivf']:.2f} too low"
    assert r["lsh"] >= 0.8, f"LSH recall {r['lsh']:.2f} too low"
    assert r["pq"] >= 0.8, f"PQ recall {r['pq']:.2f} too low"


def test_ann_lsh_recall_sf01_scale_derived(ray_session):
    """Round-3 verdict item #3: LSH recall holds at the LARGEST fixture
    with fully scale-derived knobs (recall-targeted table count from the
    sampled collision probability + 1-bit multi-probe), and every salted
    bucket stays bounded."""
    import numpy as np
    from howard_ray.ops.similarity import (LSH_BUCKET_CAP, _est_near_p,
                                           _lsh_params, _query_vectors,
                                           ann_recall)
    from howard_ray.ops.util import tbl

    sf = "/root/testdata/sf0.1"
    r = ann_recall(sf).set_index("method")["recall_at_k"]
    assert r["lsh"] >= 0.8, f"LSH recall {r['lsh']:.2f} too low"
    # table count is derived, not the old fixed 8
    n = tbl(sf, "embeddings", ["vec_id"]).count()
    _q, qm = _query_vectors(sf)
    b, L = _lsh_params(n, _est_near_p(sf, qm))
    assert 2 <= L <= 16 and b >= 3
    # deep-corpus params stay bounded: planes capped by the recall algebra,
    # expected per-salt bucket population bounded by the cap
    b9, L9 = _lsh_params(10**9, 0.6)
    assert b9 <= 12 and 2 <= L9 <= 16
    n_salt = max(1, -(-(10**9 >> b9) // LSH_BUCKET_CAP))
    assert (10**9 >> b9) / n_salt <= LSH_BUCKET_CAP


def test_manifest_torn_line_recovery(tmp_path):
    """A killed writer can leave a torn trailing line; load_manifest must
    drop it and resume must still work."""
    import json

    from howard_ray.manifest import append_lineage, init_store, load_manifest

    store = str(tmp_path / "s")
    init_store(store)
    append_lineage(store, {"block_id": "a", "n_rows": 1, "encoded_bytes": 10})
    append_lineage(store, {"block_id": "b", "n_rows": 2, "encoded_bytes": 20})
    with open(f"{store}/manifest.jsonl", "a") as f:
        f.write('{"block_id": "c", "n_ro')  # torn write
    recs = load_manifest(store)
    assert [r["block_id"] for r in recs] == ["a", "b"]


def test_verify_mode_detects_same_size_corruption(ray_session, tmp_path):
    """A same-size corrupted block passes the cheap resume diff but fails
    verify=True (and decode's per-column crc still catches it)."""
    from howard_ray.fixtures import write_corpus
    from howard_ray.manifest import completed_blocks
    from howard_ray.pipeline import encode_dataset

    src = write_corpus(str(tmp_path / "c.parquet"), 1000)
    st = str(tmp_path / "store")
    encode_dataset(src, st, mode="stream", target_rows=500)
    blocks = sorted(glob.glob(os.path.join(st, "blocks", "*.hrb")))
    with open(blocks[0], "r+b") as f:
        f.seek(-5, os.SEEK_END)
        f.write(b"\xff\xff\xff\xff\xff")  # same size, corrupt payload
    cheap = completed_blocks(st)
    strict = completed_blocks(st, verify=True)
    assert len(cheap) == len(strict) + 1


def test_predicate_pushdown_equality(store):
    src, st = store
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    t = pq.read_table(src)
    want = pc.sum(pc.cast(pc.equal(t["source"], "web"), "int64")).as_py()
    got = decode_store(st, predicate=("source", "==", "web"))
    df = got.to_pandas()
    assert len(df) == want
    assert set(df["source"]) == {"web"}


def test_predicate_pushdown_range_and_subset(store):
    src, st = store
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    t = pq.read_table(src)
    want = pc.sum(pc.cast(pc.greater(t["n_tok"], 600), "int64")).as_py()
    df = decode_store(st, columns=["doc_id", "n_tok"],
                      predicate=("n_tok", ">", 600)).to_pandas()
    assert len(df) == want
    assert list(df.columns) == ["doc_id", "n_tok"]
    assert (df["n_tok"] > 600).all()


def test_predicate_pushdown_no_match_prunes(store):
    _, st = store
    # implied zone (zzz, zzz) is outside every source zone map → 0 blocks read
    assert decode_store(st, predicate=("source", "==", "zzz")).count() == 0


def test_predicate_pushdown_in_op(store):
    src, st = store
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    t = pq.read_table(src)
    want = pc.sum(pc.cast(pc.is_in(t["source"], value_set=pa.array(["web", "code"])),
                          "int64")).as_py()
    n = decode_store(st, predicate=("source", "in", ["web", "code"])).count()
    assert n == want


def test_compact_store_merges_tails(ray_session, tmp_path):
    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from howard_ray.pipeline import compact_store

    src = write_corpus(str(tmp_path / "c.parquet"), 6000)
    st = str(tmp_path / "store")
    encode_dataset(src, st, mode="cluster", target_rows=600)
    f0 = load_footer(st)
    orig = decode_store(st).to_pandas().sort_values("doc_id").reset_index(drop=True)

    res = compact_store(st, target_rows=600)
    f1 = load_footer(st)
    assert f1["n_rows"] == f0["n_rows"]
    assert res["n_blocks_after"] <= res["n_blocks_before"]
    if res["merged"]:
        assert res["created"] < res["merged"]
        # merged member files were deleted after the footer swap
        for b in f1["blocks"]:
            assert os.path.exists(os.path.join(st, "blocks", b["block_id"] + ".hrb"))
    after = decode_store(st).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(orig, after[orig.columns.tolist()])
    # second pass is a no-op (idempotent)
    assert compact_store(st, target_rows=600)["merged"] == 0
    # predicate decode still exact over the compacted store
    t = pq.read_table(src)
    want = pc.sum(pc.cast(pc.equal(t["source"], "web"), "int64")).as_py()
    assert decode_store(st, predicate=("source", "==", "web")).count() == want


def test_compact_store_no_op_on_full_blocks(ray_session, tmp_path):
    from howard_ray.pipeline import compact_store

    src = write_corpus(str(tmp_path / "c.parquet"), 2000)
    st = str(tmp_path / "store")
    encode_dataset(src, st, mode="stream", target_rows=1000)
    f0 = load_footer(st)
    res = compact_store(st, target_rows=1000)
    assert res["n_blocks_after"] == f0["n_blocks"]


def test_sharded_footer_roundtrip(ray_session, tmp_path, monkeypatch):
    import json as _json

    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from howard_ray.manifest import load_blocks
    from howard_ray.pipeline import compact_store

    monkeypatch.setenv("HOWARD_FOOTER_SHARD_SIZE", "4")
    src = write_corpus(str(tmp_path / "c.parquet"), 6000)
    st = str(tmp_path / "store")
    encode_dataset(src, st, mode="cluster", target_rows=400)

    raw = _json.load(open(os.path.join(st, "footer.json")))
    assert raw.get("sharded") is True
    assert raw["n_blocks"] == sum(s["n_blocks"] for s in raw["shards"])
    # every shard carries an aggregate zone map for the zoned columns
    assert all("zone" in s for s in raw["shards"])

    # load_footer inflates; load_blocks prunes at shard level first
    f = load_footer(st)
    assert len(f["blocks"]) == f["n_blocks"]
    surv = load_blocks(st, {"source": ("web", "web")})
    assert 0 < len(surv) < f["n_blocks"]
    assert all(b["columns"]["source"]["stats"]["min"] == "web" for b in surv)

    # decode + predicate pushdown are exact over the sharded footer
    t = pq.read_table(src)
    orig = t.to_pandas().sort_values("doc_id").reset_index(drop=True)
    dec = decode_store(st).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(orig, dec[orig.columns.tolist()])
    want = pc.sum(pc.cast(pc.equal(t["source"], "web"), "int64")).as_py()
    assert decode_store(st, predicate=("source", "==", "web")).count() == want

    # compaction preserves content and re-shards
    compact_store(st, target_rows=400)
    dec2 = decode_store(st).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(orig, dec2[orig.columns.tolist()])

    # raising the threshold folds back to a v1 footer and cleans stale shards
    monkeypatch.setenv("HOWARD_FOOTER_SHARD_SIZE", "100000")
    compact_store(st, target_rows=400, min_fill=0.99)
    raw2 = _json.load(open(os.path.join(st, "footer.json")))
    if not raw2.get("sharded"):
        import glob as _glob
        assert _glob.glob(os.path.join(st, "footer_shards", "*")) == []
    dec3 = decode_store(st).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(orig, dec3[orig.columns.tolist()])


def test_decode_predicate_conjunction(ray_session, tmp_path):
    """A LIST of predicates ANDs inside the scan with progressive
    decoding: result equals DuckDB on the raw parquet; an impossible
    first conjunct empties every block without error; a derived-column
    conjunct composes with a base-column one."""
    import duckdb
    import pyarrow.compute as pc

    from howard_ray.fixtures import write_corpus
    from howard_ray.pipeline import (decode_store, derive_column,
                                     encode_dataset)

    src = str(tmp_path / "c.parquet")
    write_corpus(src, 1500, seed=61)
    st = str(tmp_path / "st_conj")
    encode_dataset(src, st, mode="cluster", target_rows=300)

    got = decode_store(st, columns=["doc_id", "n_tok"],
                       predicate=[("source", "==", "web"),
                                  ("n_tok", ">=", 300)]).to_pandas()
    exp = duckdb.sql(f"SELECT COUNT(*) n, SUM(n_tok) s FROM '{src}' "
                     "WHERE source='web' AND n_tok >= 300").df()
    assert len(got) == int(exp["n"].iloc[0])
    assert got["n_tok"].sum() == int(exp["s"].iloc[0])

    assert decode_store(st, predicate=[("n_tok", ">", 10**9),
                                       ("source", "==", "web")]).count() == 0

    derive_column(st, "kb", lambda t: pc.divide(t["n_tok"], 100),
                  input_columns=["n_tok"])
    got2 = decode_store(st, columns=["doc_id", "kb"],
                        predicate=[("kb", ">=", 3),
                                   ("source", "==", "web")]).to_pandas()
    exp2 = duckdb.sql(f"SELECT COUNT(*) n FROM '{src}' "
                      "WHERE n_tok // 100 >= 3 AND source='web'").df()
    assert len(got2) == int(exp2["n"].iloc[0])


def test_recluster_store(ray_session, tmp_path):
    """Recluster: content-identical after the rewrite, zone maps on the
    new cluster key become selective (explain census: most blocks pruned
    for a range predicate), derived sidecars fold physically, snapshots
    across the rewrite expire."""
    import duckdb
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from howard_ray.fixtures import write_corpus
    from howard_ray.pipeline import (decode_store, derive_column,
                                     encode_dataset, recluster_store)
    from howard_ray.sqlmini import explain_sql

    src = str(tmp_path / "c.parquet")
    write_corpus(src, 2000, seed=67)
    st = str(tmp_path / "st_rcl")
    encode_dataset(src, st, mode="cluster", target_rows=400)
    derive_column(st, "kb", lambda t: pc.divide(t["n_tok"], 100),
                  input_columns=["n_tok"])

    r = recluster_store(st, "n_tok", target_rows=400)
    assert r["n_rows"] == 2000

    dec = decode_store(st).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    orig = pq.read_table(src).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    assert dec["doc_id"].tolist() == orig["doc_id"].tolist()
    assert dec["n_tok"].sum() == orig["n_tok"].sum()
    # derived column folded physically and survives
    assert (dec["kb"].to_numpy() ==
            orig["n_tok"].to_numpy() // 100).all()

    e = explain_sql(st, "SELECT COUNT(*) AS n FROM store "
                        "WHERE n_tok >= 2000")
    b = e["blocks"]
    assert b["pruned"] >= b["total"] - 2  # tight disjoint zone maps
    exp = duckdb.sql(f"SELECT COUNT(*) FROM '{src}' "
                     "WHERE n_tok >= 2000").fetchone()[0]
    from howard_ray.sqlmini import run_sql
    assert int(run_sql(st, "SELECT COUNT(*) AS n FROM store "
                           "WHERE n_tok >= 2000")["n"].iloc[0]) == exp


def test_recluster_zorder(ray_session, tmp_path):
    """Z-order recluster: one Morton-key sort over TWO independent int
    columns leaves BOTH columns' zone maps selective — a range predicate
    on either dimension prunes most blocks — while the decoded content
    stays identical to the source."""
    import duckdb
    import pyarrow.parquet as pq

    from howard_ray.fixtures import write_corpus
    from howard_ray.pipeline import (decode_store, derive_column,
                                     encode_dataset, recluster_store)
    from howard_ray.sqlmini import explain_sql, run_sql

    src = str(tmp_path / "c.parquet")
    write_corpus(src, 4000, seed=91)
    st = str(tmp_path / "st_z")
    encode_dataset(src, st, mode="cluster", target_rows=500)

    def hcol(t):
        import zlib

        import numpy as np
        import pyarrow as _pa
        h = np.array([zlib.crc32(x.encode()) % 10007
                      for x in t["doc_id"].to_pylist()], dtype=np.int32)
        return _pa.array(h)

    # second, independent dimension (uncorrelated with n_tok)
    derive_column(st, "h", hcol, input_columns=["doc_id"])

    r = recluster_store(st, ["n_tok", "h"], target_rows=500, zorder=True)
    assert r["n_rows"] == 4000
    assert r["clustered_by"] == {"zorder": ["n_tok", "h"]}

    # content identical (z-key never persisted)
    dec = decode_store(st).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    orig = pq.read_table(src).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    assert "__z" not in dec.columns
    assert dec["doc_id"].tolist() == orig["doc_id"].tolist()
    assert dec["n_tok"].sum() == orig["n_tok"].sum()

    # BOTH dimensions prune: each range predicate touches a corner of the
    # z-curve, so >= half the blocks must be skipped on zone maps alone
    for col, cut in (("n_tok", 3500), ("h", 9500)):
        e = explain_sql(st, f"SELECT COUNT(*) AS n FROM store "
                            f"WHERE {col} >= {cut}")
        b = e["blocks"]
        assert b["pruned"] >= b["total"] // 2, (col, b)

    exp = duckdb.sql(f"SELECT COUNT(*) FROM '{src}' "
                     "WHERE n_tok >= 3500").fetchone()[0]
    assert int(run_sql(st, "SELECT COUNT(*) AS n FROM store "
                           "WHERE n_tok >= 3500")["n"].iloc[0]) == exp

    # single-column list degrades to the plain sort path
    r2 = recluster_store(st, ["n_tok"], target_rows=500)
    assert r2["clustered_by"] == ["n_tok"]


def test_recluster_incremental(ray_session, tmp_path):
    """Partial OPTIMIZE: after a narrow append dirties a clustered store,
    the metadata sweep rewrites ONLY the strictly-overlapping blocks
    (cost ~ disorder); content stays exact; a second pass is a no-op; the
    strict-overlap invariant holds afterwards."""
    import duckdb
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from howard_ray.fixtures import write_corpus
    from howard_ray.manifest import load_footer
    from howard_ray.pipeline import (append_to_store, decode_store,
                                     encode_dataset, recluster_incremental,
                                     recluster_store)

    d1 = str(tmp_path / "d1.parquet")
    raw = str(tmp_path / "raw.parquet")
    d2 = str(tmp_path / "d2.parquet")
    write_corpus(d1, 8000, seed=21)
    write_corpus(raw, 2000, seed=22)
    t2 = pq.read_table(raw)
    t2 = t2.filter(pc.greater_equal(t2["n_tok"], 1500))  # narrow key band
    pq.write_table(t2, d2)
    assert t2.num_rows > 20

    st = str(tmp_path / "st")
    encode_dataset(d1, st, mode="cluster", target_rows=400)
    recluster_store(st, "n_tok", target_rows=400)
    append_to_store(st, d2, mode="stream", target_rows=400)

    r = recluster_incremental(st, "n_tok", target_rows=400)
    # only the tail component rewrites, the ordered bulk is untouched
    assert 0 < r["n_blocks_rewritten"] <= r["n_blocks_before"] // 2, r
    assert r["clustered_by"] == ["n_tok"]

    got = decode_store(st).to_pandas()
    exp = duckdb.sql(
        f"SELECT COUNT(*) AS n, SUM(n_tok) AS s FROM (SELECT * FROM "
        f"'{d1}' UNION ALL SELECT * FROM '{d2}')").df()
    assert len(got) == int(exp["n"].iloc[0])
    assert int(got["n_tok"].sum()) == int(exp["s"].iloc[0])

    # idempotent: the invariant is restored, so a second pass rewrites 0
    assert recluster_incremental(st, "n_tok",
                                 target_rows=400)["n_blocks_rewritten"] == 0

    # no strict overlap between any two blocks' key ranges
    f = load_footer(st)
    iv = sorted((b["columns"]["n_tok"]["stats"]["min"],
                 b["columns"]["n_tok"]["stats"]["max"])
                for b in f["blocks"])
    assert all(iv[i][1] <= iv[i + 1][0] for i in range(len(iv) - 1))


def test_stats_clustering_health(ray_session, tmp_path):
    """stats reports per-cluster-key disorder = fraction of blocks a
    partial OPTIMIZE would rewrite; 0 after recluster, > 0 after a wide
    append, 0 again after recluster_incremental."""
    from howard_ray.fixtures import write_corpus
    from howard_ray.pipeline import (append_to_store, encode_dataset,
                                     recluster_incremental, recluster_store)
    from howard_ray.stats import store_report

    src = str(tmp_path / "c.parquet")
    write_corpus(src, 3000, seed=81)
    st = str(tmp_path / "st")
    encode_dataset(src, st, mode="cluster", target_rows=400)
    assert store_report(st)["clustering"] is None  # no declared key yet

    recluster_store(st, "n_tok", target_rows=400)
    h = store_report(st)["clustering"]
    assert h[0]["key"] == "n_tok" and h[0]["disorder"] == 0.0

    append_to_store(st, src, mode="stream", target_rows=400)
    assert store_report(st)["clustering"][0]["disorder"] > 0.0

    recluster_incremental(st, "n_tok", target_rows=400)
    assert store_report(st)["clustering"][0]["disorder"] == 0.0


def test_export_sorted(ray_session, tmp_path):
    """Globally key-ordered export without a sort: rank-named shards from
    a clustered store read in filename order ARE the sorted dataset;
    tombstones honored; unclustered stores are refused."""
    import os

    import duckdb
    import numpy as np
    import pyarrow.parquet as pq
    import pytest

    from howard_ray.fixtures import write_corpus
    from howard_ray.pipeline import (delete_where, encode_dataset,
                                     export_sorted, recluster_store)

    src = str(tmp_path / "c.parquet")
    write_corpus(src, 5000, seed=31)
    st = str(tmp_path / "st")
    encode_dataset(src, st, mode="cluster", target_rows=500)
    recluster_store(st, "n_tok", target_rows=500)
    delete_where(st, ("source", "==", "forum"))

    out = str(tmp_path / "sorted")
    r = export_sorted(st, "n_tok", out, columns=["doc_id", "n_tok"])
    parts = sorted(f for f in os.listdir(out) if f.endswith(".parquet"))
    assert len(parts) == r["files"]
    vals = np.concatenate([
        np.asarray(pq.read_table(os.path.join(out, f))["n_tok"])
        for f in parts])
    assert (np.diff(vals) >= 0).all()  # globally non-decreasing
    exp = duckdb.sql(f"SELECT COUNT(*) n, SUM(n_tok) s FROM '{src}' "
                     "WHERE source != 'forum'").df()
    assert len(vals) == int(exp["n"].iloc[0]) == r["rows"]
    assert int(vals.sum()) == int(exp["s"].iloc[0])

    st2 = str(tmp_path / "st2")
    encode_dataset(src, st2, mode="stream", target_rows=500)
    with pytest.raises(ValueError, match="not clustered"):
        export_sorted(st2, "n_tok", str(tmp_path / "x"))


def test_export_sorted_without_sort_column(ray_session, tmp_path):
    """``by`` outside ``columns``: the key is decoded for the local sort
    and dropped, so every shard holds exactly the requested columns, in
    global key order."""
    import numpy as np
    import pyarrow.parquet as pq

    from howard_ray.pipeline import export_sorted, recluster_store

    src = str(tmp_path / "c.parquet")
    write_corpus(src, 3000, seed=32)
    st = str(tmp_path / "st")
    encode_dataset(src, st, mode="cluster", target_rows=500)
    recluster_store(st, "n_tok", target_rows=500)

    out = str(tmp_path / "sorted")
    r = export_sorted(st, "n_tok", out, columns=["doc_id", "source"])
    parts = sorted(f for f in os.listdir(out) if f.endswith(".parquet"))
    got = pa.concat_tables(pq.read_table(os.path.join(out, f))
                           for f in parts)
    assert got.column_names == ["doc_id", "source"]
    assert r["rows"] == got.num_rows == 3000
    t = pq.read_table(src)
    n_tok = dict(zip(t["doc_id"].to_pylist(), t["n_tok"].to_pylist()))
    assert (np.diff([n_tok[d] for d in got["doc_id"].to_pylist()]) >= 0).all()


def test_ann_scale_derived_knobs_and_bucket_bounds(ray_session):
    """Round-3: nlist/planes derive from corpus size, and per-bucket task
    sizes stay bounded by the salting discipline at sf0.1."""
    import numpy as np
    import pandas as pd

    from howard_ray.ops.similarity import (_ivf_params, _lsh_params,
                                           IVF_BUCKET_CAP, LSH_BUCKET_CAP)

    # knobs scale with N
    n1, p1 = _ivf_params(500)[0], _lsh_params(500)[0]
    n2, p2 = _ivf_params(500_000)[0], _lsh_params(500_000)[0]
    assert n2 > n1 and p2 > p1
    assert _ivf_params(1_000_000)[0] == 1000          # sqrt(N)
    # expected bucket sizes bounded by the caps
    for n in (10_000, 1_000_000, 100_000_000):
        nlist, _ = _ivf_params(n)
        n_salt = max(1, -(-(n // nlist) // IVF_BUCKET_CAP))
        assert (n // nlist) / n_salt <= IVF_BUCKET_CAP
        planes, _ = _lsh_params(n)
        n_salt = max(1, -(-(n >> planes) // LSH_BUCKET_CAP))
        assert (n >> planes) / n_salt <= LSH_BUCKET_CAP


def test_sharded_footer_cache_no_alias_after_reencode(tmp_path, monkeypatch):
    """ADVICE r4 #2: delete-and-re-encode at the same path within one
    second restarts snapshot_id/ts/generation, so shard filenames can
    repeat — the parsed-shard cache must still serve the NEW store."""
    import shutil

    from howard_ray.manifest import write_footer
    from howard_ray.storeio import makedirs

    monkeypatch.setenv("HOWARD_FOOTER_SHARD_SIZE", "2")
    st = str(tmp_path / "store")

    def mk(tag):
        shutil.rmtree(st, ignore_errors=True)
        makedirs(st)
        recs = [{"block_id": f"b{i}", "n_rows": 10 + i,
                 "encoded_bytes": 100, "payload": tag} for i in range(6)]
        write_footer(st, recs)

    mk("old")
    f1 = load_footer(st)
    assert all(b["payload"] == "old" for b in f1["blocks"])
    mk("new")  # same path, same shard filenames, same snapshot_id, same second
    f2 = load_footer(st)
    assert all(b["payload"] == "new" for b in f2["blocks"]), \
        "stale shard cache served the deleted store's blocks"
    assert f1["nonce"] != f2["nonce"]


def test_all_null_column_stats_safe(tmp_path, monkeypatch):
    """{"min": null} stats (all-null column in a block) must neither
    crash the sharded footer's zone fold nor break zone filtering."""
    from howard_ray.manifest import load_blocks, write_footer
    from howard_ray.storeio import makedirs

    monkeypatch.setenv("HOWARD_FOOTER_SHARD_SIZE", "2")
    st = str(tmp_path / "store")
    makedirs(st)
    recs = []
    for i in range(5):
        stats = ({"min": None, "max": None} if i % 2 == 0
                 else {"min": f"v{i}", "max": f"v{i}"})
        recs.append({"block_id": f"b{i}", "n_rows": 10,
                     "encoded_bytes": 5,
                     "columns": {"c": {"stats": stats}}})
    write_footer(st, recs)  # must not TypeError in _shard_zone
    # zone filter on the mixed column: all-null blocks survive (cannot
    # prune), matching blocks filter exactly, no comparison with None
    out = load_blocks(st, {"c": ("v3", "v3")})
    ids = sorted(b["block_id"] for b in out)
    assert "b3" in ids and all(b in {"b0", "b2", "b3", "b4"} for b in ids)


def test_snapshot_retain_zero_keeps_one(tmp_path, monkeypatch):
    from howard_ray.manifest import list_snapshot_ids, write_footer
    from howard_ray.storeio import makedirs

    monkeypatch.setenv("HOWARD_SNAPSHOT_RETAIN", "0")
    st = str(tmp_path / "store")
    makedirs(st)
    for i in range(4):
        write_footer(st, [{"block_id": f"b{i}", "n_rows": 1,
                           "encoded_bytes": 1}])
    assert len(list_snapshot_ids(st)) == 1  # not unbounded growth
