"""Row-level delete tombstones: lazy apply at decode (incl. predicate
pushdown), survival through compaction, physical purge, idempotence."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from howard_ray.fixtures import write_corpus
from howard_ray.manifest import (
    list_tombstones,
    load_footer,
    load_tombstone,
    write_tombstone,
)
from howard_ray.pipeline import (
    compact_store,
    decode_store,
    delete_where,
    encode_dataset,
    purge_deletes,
    store_total_bytes,
)


@pytest.fixture()
def store(ray_session, tmp_path):
    src = str(tmp_path / "corpus.parquet")
    write_corpus(src, 3000, seed=42)
    st = str(tmp_path / "store")
    encode_dataset(src, st, mode="cluster", target_rows=400)
    return src, st


def _decoded(st, **kw) -> pa.Table:
    from howard_ray.ops.util import to_table
    t = to_table(decode_store(st, **kw))
    return t.take(pc.sort_indices(t["doc_id"])) if t.num_rows else t


def test_delete_hides_rows_and_is_idempotent(store):
    src, st = store
    full = pq.read_table(src)
    n_web = pc.sum(pc.equal(full["source"], "web").cast(pa.int8())).as_py()
    r1 = delete_where(st, ("source", "==", "web"))
    assert r1["n_deleted_new"] == n_web > 0
    # zone maps restricted the scan to blocks that can contain 'web'
    assert r1["n_blocks_scanned"] <= load_footer(st)["n_blocks"]

    dec = _decoded(st)
    assert dec.num_rows == full.num_rows - n_web
    assert pc.sum(pc.equal(dec["source"], "web").cast(pa.int8())).as_py() in (0, None)

    r2 = delete_where(st, ("source", "==", "web"))  # idempotent
    assert r2["n_deleted_new"] == 0
    assert _decoded(st).num_rows == dec.num_rows


def test_delete_respects_predicate_pushdown(store):
    src, st = store
    full = pq.read_table(src)
    delete_where(st, ("n_tok", "<", 100))
    # pushdown decode of a DIFFERENT predicate must still hide deleted rows
    dec = _decoded(st, predicate=("source", "==", "web"))
    exp = full.filter(pc.and_(pc.equal(full["source"], "web"),
                              pc.greater_equal(full["n_tok"], 100)))
    assert dec.num_rows == exp.num_rows
    assert pc.min(dec["n_tok"]).as_py() >= 100


def test_purge_reclaims_rows_and_bytes(store):
    src, st = store
    full = pq.read_table(src)
    delete_where(st, ("source", "==", "web"))
    bytes_before = store_total_bytes(st)
    survivors = _decoded(st)

    res = purge_deletes(st)
    assert res["n_blocks_rewritten"] > 0
    assert res["n_rows_purged"] == full.num_rows - survivors.num_rows
    assert not list_tombstones(st)
    footer = load_footer(st)
    assert footer["n_rows"] == survivors.num_rows  # physical = logical now
    assert store_total_bytes(st) < bytes_before

    dec = _decoded(st).select(survivors.column_names)
    assert dec.cast(survivors.schema).equals(survivors)


def test_full_block_delete_drops_block(ray_session, tmp_path):
    src = str(tmp_path / "c.parquet")
    write_corpus(src, 1000, seed=7)
    st = str(tmp_path / "st")
    encode_dataset(src, st, mode="cluster", target_rows=200)
    delete_where(st, ("source", "==", "web"))  # whole (web, salt) blocks die
    n_before = load_footer(st)["n_blocks"]
    purge_deletes(st)
    footer = load_footer(st)
    assert footer["n_blocks"] < n_before
    t = _decoded(st)
    assert t.num_rows == footer["n_rows"] > 0


def test_compaction_folds_tombstones(store):
    src, st = store
    delete_where(st, ("source", "==", "web"))
    survivors = _decoded(st)
    compact_store(st, target_rows=400)
    assert not list_tombstones(st)  # members' tombstones consumed
    dec = _decoded(st).select(survivors.column_names)
    assert dec.cast(survivors.schema).equals(survivors)


def test_tombstone_roundtrip_and_corruption(tmp_path):
    st = str(tmp_path / "s")
    write_tombstone(st, "blk-1", np.array([5, 2, 2, 9], dtype=np.uint32))
    idx = load_tombstone(st, "blk-1")
    assert idx.tolist() == [2, 5, 9]
    assert load_tombstone(st, "missing") is None
    path = os.path.join(st, "tombstones", "blk-1.tmb")
    data = bytearray(open(path, "rb").read())
    data[-1] ^= 0xFF
    open(path, "wb").write(bytes(data))
    with pytest.raises(ValueError):
        load_tombstone(st, "blk-1")


def test_zero_column_count_after_delete(ray_session, tmp_path):
    """COUNT(*) and a zero-column decode on a tombstoned store (no footer
    fast path) read the live row count, with and without a predicate."""
    from howard_ray.sqlmini import run_sql

    src = str(tmp_path / "corpus.parquet")
    write_corpus(src, 2000, seed=42)
    st = str(tmp_path / "store")
    encode_dataset(src, st, mode="cluster", target_rows=400)
    delete_where(st, ("n_tok", "<", 100))
    full = pq.read_table(src)
    live = full.filter(pc.greater_equal(full["n_tok"], 100))
    assert 0 < live.num_rows < full.num_rows
    assert decode_store(st, columns=[]).count() == live.num_rows
    out = run_sql(st, "SELECT COUNT(*) AS n FROM store")
    assert out["n"].tolist() == [live.num_rows]
    web = live.filter(pc.equal(live["source"], "web")).num_rows
    assert decode_store(st, columns=[],
                        predicate=("source", "==", "web")).count() == web


def test_delete_on_unknown_column_is_rejected(store):
    """A delete naming a column no block has is an error, not a silent
    no-op, and writes no tombstone; on a store with no block left it
    deletes nothing."""
    src, st = store
    with pytest.raises(ValueError, match="'nope' does not exist"):
        delete_where(st, ("nope", "==", 1))
    with pytest.raises(ValueError, match="unsupported predicate op"):
        delete_where(st, ("n_tok", "~", 1))
    assert not list_tombstones(st)
    full = pq.read_table(src)
    assert delete_where(st, ("doc_id", "in", full["doc_id"].to_pylist())
                        )["n_deleted_new"] == full.num_rows
    purge_deletes(st)
    assert load_footer(st)["n_blocks"] == 0
    assert delete_where(st, ("nope", "==", 1)) == {"n_blocks_scanned": 0,
                                                   "n_deleted_new": 0}
