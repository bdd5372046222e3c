"""Per-block Bloom sidecars: primitive correctness (no false negatives,
bounded false positives), point-lookup pruning on a non-clustered key,
maintenance/vacuum lifecycle, alter re-keying."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from howard_ray.bloom import (
    bloom_file_name,
    bloom_path,
    build_filter,
    maybe_contains,
    probe_file,
)
from howard_ray.fixtures import write_corpus
from howard_ray.manifest import load_footer
from howard_ray.pipeline import (
    alter_store,
    build_bloom_index,
    compact_store,
    decode_store,
    encode_dataset,
    vacuum_store,
)


def test_filter_primitives_strings_and_ints():
    keys = [f"doc-{i:05d}" for i in range(0, 5000, 3)]
    f = build_filter(pa.array(keys))
    # no false negatives, ever
    for k in keys[::97]:
        assert maybe_contains(f, [k])
    # false positives bounded: ~0.8% expected at 10 bits/key; allow 5%
    absent = [f"doc-{i:05d}" for i in range(1, 5000, 3)]
    fp = sum(maybe_contains(f, [a]) for a in absent) / len(absent)
    assert fp < 0.05, fp

    ints = pa.array(np.arange(0, 10000, 7, dtype=np.int64))
    fi = build_filter(ints)
    assert maybe_contains(fi, [7007])
    miss = [int(x) for x in range(1, 10000, 700)]  # none divisible by 7
    fp_i = sum(maybe_contains(fi, [m]) for m in miss if m % 7) / len(miss)
    assert fp_i < 0.2
    # multi-value probe: any-hit semantics
    assert maybe_contains(fi, [1, 2, 3, 7 * 13])
    # corrupted bitset detected
    bad = f[:20] + bytes([f[20] ^ 0xFF]) + f[21:]
    with pytest.raises(IOError):
        maybe_contains(bad, ["x"])


@pytest.fixture()
def store(ray_session, tmp_path):
    src = str(tmp_path / "c.parquet")
    write_corpus(src, 2000, seed=21)
    st = str(tmp_path / "st")
    # cluster mode: blocks clustered by source => doc_id zone maps useless
    encode_dataset(src, st, mode="cluster", target_rows=300)
    return src, st


def _decoded(st, **kw) -> pa.Table:
    from howard_ray.ops.util import to_table
    t = to_table(decode_store(st, **kw))
    return t.take(pc.sort_indices(t["doc_id"])) if t.num_rows else t


def test_point_lookup_with_and_without_bloom(store):
    src, st = store
    full = pq.read_table(src)
    targets = full["doc_id"].to_pylist()[::500]  # a few real ids
    before = _decoded(st, predicate=("doc_id", "in", targets))

    r = build_bloom_index(st, "doc_id")
    assert r["n_blocks_indexed"] == load_footer(st)["n_blocks"]
    after = _decoded(st, predicate=("doc_id", "in", targets))
    assert after.equals(before)
    assert after.num_rows == len(targets)

    # a value that exists nowhere: every per-block filter must reject it
    # (deterministically: 'absent!' can't collide with all k probes of all
    # blocks at these sizes — observed fp-free; equality result proves it)
    missing = _decoded(st, predicate=("doc_id", "==", "no-such-doc!"))
    assert missing.num_rows == 0
    f = load_footer(st)
    n_reject = sum(
        not probe_file(bloom_path(st, b["blooms"]["doc_id"]),
                       ["no-such-doc!"])
        for b in f["blocks"])
    assert n_reject >= int(0.9 * f["n_blocks"])  # pruning actually happens

    # idempotent backfill
    assert build_bloom_index(st, "doc_id")["n_blocks_indexed"] == 0
    with pytest.raises(ValueError):
        build_bloom_index(st, "nope")


def test_bloom_lifecycle_alter_compact_vacuum(store):
    src, st = store
    build_bloom_index(st, "doc_id")
    alter_store(st, rename={"doc_id": "id"})
    f = load_footer(st)
    assert all("id" in b["blooms"] for b in f["blocks"])
    from howard_ray.ops.util import to_table
    hit = to_table(decode_store(
        st, predicate=("id", "==",
                       pq.read_table(src)["doc_id"][0].as_py())))
    assert hit.num_rows == 1 and "id" in hit.column_names

    compact_store(st, target_rows=2000)
    f2 = load_footer(st)
    # merged blocks dropped their blooms (files GC'd with the members)...
    on_disk = set(os.listdir(os.path.join(st, "blooms")))
    referenced = {v for b in f2["blocks"]
                  for v in (b.get("blooms") or {}).values()}
    assert referenced <= on_disk
    # ...and backfill re-indexes exactly the un-indexed blocks
    r = build_bloom_index(st, "id")
    assert r["n_blocks_indexed"] == sum(
        1 for b in f2["blocks"] if "id" not in (b.get("blooms") or {}))
    # vacuum with retention=1 clears orphans left by expired snapshots
    os.environ["HOWARD_SNAPSHOT_RETAIN"] = "1"
    try:
        alter_store(st, rename={"id": "doc_id"})
    finally:
        del os.environ["HOWARD_SNAPSHOT_RETAIN"]
    vacuum_store(st)
    on_disk = set(os.listdir(os.path.join(st, "blooms")))
    referenced = {v for b in load_footer(st)["blocks"]
                  for v in (b.get("blooms") or {}).values()}
    assert on_disk == referenced


def test_token_presence_contains(ray_session, tmp_path):
    """'contains' predicate over the list<int> tokens column: Bloom built
    over each block's DISTINCT token ids, zone maps prune by value range,
    the mask is flatten+searchsorted; delete_where composes (GDPR 'remove
    every sequence containing token X')."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from howard_ray.fixtures import write_corpus
    from howard_ray.pipeline import (build_bloom_index, decode_store,
                                     delete_where, encode_dataset)

    src = str(tmp_path / "c.parquet")
    write_corpus(src, 2500, seed=23)
    st = str(tmp_path / "st")
    encode_dataset(src, st, mode="cluster", target_rows=400)
    r = build_bloom_index(st, "tokens")
    assert r["n_blocks_indexed"] > 0

    t = pq.read_table(src)
    arr = t["tokens"].combine_chunks()
    flat = np.asarray(arr.flatten())
    lengths = np.asarray(pc.list_value_length(arr), dtype=np.int64)

    for tok in (49_000, 5, 31_999):
        rows = np.unique(np.searchsorted(np.cumsum(lengths),
                                         np.nonzero(flat == tok)[0],
                                         side="right"))
        truth = set(np.asarray(t["doc_id"])[rows].tolist())
        got = decode_store(st, columns=["doc_id"],
                           predicate=("tokens", "contains", tok)).to_pandas()
        got_ids = set(got["doc_id"]) if len(got) else set()
        assert got_ids == truth, tok

    # conjunction with a scalar predicate
    tok = 5
    rows = np.unique(np.searchsorted(np.cumsum(lengths),
                                     np.nonzero(flat == tok)[0],
                                     side="right"))
    n_tok_v = np.asarray(t["n_tok"])[rows]
    got = decode_store(st, columns=["doc_id"],
                       predicate=[("tokens", "contains", tok),
                                  ("n_tok", ">=", 100)]).to_pandas()
    assert len(got) == int((n_tok_v >= 100).sum())

    # erasure by token containment
    dl = delete_where(st, ("tokens", "contains", 49_000))
    assert decode_store(st, columns=["doc_id"],
                        predicate=("tokens", "contains",
                                   49_000)).count() == 0


def test_bloom_nullable_bigint_no_false_negative():
    """Nulls in the indexed column must not push big ints through float64
    (hash mismatch = false negative = wrongly pruned block)."""
    import pyarrow as pa

    from howard_ray.bloom import build_filter, maybe_contains

    f = build_filter(pa.array([2**53 + 1, 5, None], type=pa.int64()))
    assert maybe_contains(f, [2**53 + 1])
    assert maybe_contains(f, [5])


# ---- driver-side read plan: Bloom probes at plan time, one-block plans
# ---- decoded in the driver process

def _plan_size(st, predicate: tuple) -> int:
    """Blocks a ``decode_store(st, predicate=...)`` read plans to decode."""
    import howard_ray.pipeline as hp
    return len(hp._plan_read(st, None, None, [predicate], None, None)[0])


def _one_block_key(st, keys):
    """The first key whose ``doc_id ==`` read plans exactly one block."""
    return next(k for k in keys if _plan_size(st, ("doc_id", "==", k)) == 1)


def _result(ds):
    """(row count, schema, rows of the non-empty blocks) of a Dataset."""
    import ray
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    return (ds.count(), ds.schema(),
            pa.concat_tables(tables) if tables else None)


def _both_dispatches(monkeypatch, st, **kw):
    """One read decoded in the driver and the same plan run as a Ray task
    per block; asserts the driver path was taken, returns both results."""
    import howard_ray.pipeline as hp
    sizes = []
    in_driver = hp._decode_in_driver

    def spy(items, decode):
        sizes.append(len(items))
        return in_driver(items, decode)

    with monkeypatch.context() as m:
        m.setattr(hp, "_decode_in_driver", spy)
        local = _result(decode_store(st, **kw))
        m.setattr(hp, "_decode_in_driver",
                  lambda items, decode: hp._block_tasks(items, decode, 1))
        remote = _result(decode_store(st, **kw))
    assert sizes == [1]
    return local, remote


def _assert_same_result(a, b):
    assert a[0] == b[0]
    assert (a[1] is None) == (b[1] is None)
    if a[1] is not None:
        assert a[1].base_schema == b[1].base_schema
    assert (a[2] is None) == (b[2] is None)
    if a[2] is not None:
        assert a[2].schema == b[2].schema
        assert a[2].equals(b[2])


def _false_positive_key(st, ids):
    """An absent doc_id that exactly one block admits: inside its zone map
    and a false positive of its Bloom filter."""
    blocks = load_footer(st)["blocks"]
    for k in (f"{i}!" for i in ids):
        hits = 0
        for b in blocks:
            zone = b["columns"]["doc_id"]["stats"]
            hits += (zone["min"] <= k <= zone["max"] and probe_file(
                bloom_path(st, b["blooms"]["doc_id"]), [k]))
        if hits == 1:
            return k
    raise AssertionError("no single-block false positive found")


def test_one_block_plan_matches_ray_dispatch(store, monkeypatch, tmp_path):
    """Every one-block read returns the same table and Arrow schema whether
    it is decoded in the driver or as a Ray task."""
    from howard_ray.manifest import list_tombstones
    from howard_ray.pipeline import (append_to_store, delete_where,
                                     derive_column)
    src, st = store
    build_bloom_index(st, "doc_id")
    full = pq.read_table(src)
    ids = full["doc_id"].to_pylist()
    s0 = load_footer(st)["snapshot_id"]

    # a lookup hit
    key = _one_block_key(st, ids[::37])
    local, remote = _both_dispatches(monkeypatch, st,
                                     predicate=("doc_id", "==", key))
    assert local[0] == 1 and local[2]["doc_id"].to_pylist() == [key]
    _assert_same_result(local, remote)

    # a Bloom false positive: one block planned, no row matches
    fp = _false_positive_key(st, ids)
    local, remote = _both_dispatches(monkeypatch, st,
                                     predicate=("doc_id", "==", fp))
    assert local[0] == 0
    _assert_same_result(local, remote)

    # an absent key every filter rejects: no block planned, and the empty
    # result still carries the store's typed schema
    assert _plan_size(st, ("doc_id", "==", "no-such-doc!")) == 0
    empty = decode_store(st, predicate=("doc_id", "==", "no-such-doc!"))
    assert empty.count() == 0
    assert empty.schema().base_schema == full.schema.remove_metadata()

    # tombstoned blocks: a live row, a deleted row, and COUNT(*)
    delete_where(st, ("n_tok", "<", 100))
    live = full.filter(pc.greater_equal(full["n_tok"], 100))["doc_id"]
    dead = full.filter(pc.less(full["n_tok"], 100))["doc_id"]
    assert list_tombstones(st)
    for k in (_one_block_key(st, live.to_pylist()[::41]),
              _one_block_key(st, dead.to_pylist()[::41])):
        _assert_same_result(*_both_dispatches(
            monkeypatch, st, predicate=("doc_id", "==", k)))
        local, remote = _both_dispatches(
            monkeypatch, st, columns=[], predicate=("doc_id", "==", k))
        assert local[0] == remote[0] == (1 if k in live.to_pylist() else 0)

    # as_of: the snapshot before the delete (tombstones still pierce it)
    _assert_same_result(*_both_dispatches(
        monkeypatch, st, as_of=s0, predicate=("doc_id", "==", key)))

    # renamed and derived columns
    derive_column(st, "tok_bucket", lambda t: pc.divide(
        pc.cast(t["n_tok"], pa.int64()), 64), ["n_tok"])
    alter_store(st, rename={"n_tok": "token_count"})
    for cols in (None, ["tok_bucket", "doc_id", "token_count"]):
        local, remote = _both_dispatches(
            monkeypatch, st, columns=cols, predicate=("doc_id", "==", key))
        assert {"tok_bucket", "token_count"} <= set(local[2].column_names)
        _assert_same_result(local, remote)

    # mixed epochs: a delivery with a new column, its ids inside the old
    # blocks' zone ranges; an old block's row reads it as typed nulls
    d2 = full.slice(0, 200)
    d2 = d2.set_column(d2.schema.get_field_index("doc_id"), "doc_id",
                       pc.binary_join_element_wise(d2["doc_id"], "~new", ""))
    d2 = d2.rename_columns(["token_count" if c == "n_tok" else c
                            for c in d2.column_names])
    d2 = d2.append_column("lang", pa.array(["en"] * d2.num_rows))
    pq.write_table(d2, str(tmp_path / "d2.parquet"))
    append_to_store(st, str(tmp_path / "d2.parquet"), target_rows=300)
    build_bloom_index(st, "doc_id")
    for k, lang in ((_one_block_key(st, ids[50:150:7]), None),
                    (_one_block_key(st, d2["doc_id"].to_pylist()[::13]), "en")):
        local, remote = _both_dispatches(monkeypatch, st,
                                         predicate=("doc_id", "==", k))
        assert local[2].schema.field("lang").type == pa.string()
        assert local[2]["lang"].to_pylist() == [lang]
        _assert_same_result(local, remote)


def test_bloom_pruned_lookup_launches_no_ray_job(store, monkeypatch):
    """A lookup the Bloom probes cut to one block never plans a Ray Data
    job: it answers with ``ray.data.from_items`` unavailable."""
    import ray.data
    src, st = store
    build_bloom_index(st, "doc_id")
    ids = pq.read_table(src)["doc_id"].to_pylist()
    key = _one_block_key(st, ids[::53])
    assert _plan_size(st, ("doc_id", "in", [key])) == 1

    def no_job(*a, **k):
        raise AssertionError("a Ray Data job was planned")

    monkeypatch.setattr(ray.data, "from_items", no_job)
    got = _decoded(st, predicate=("doc_id", "==", key))
    assert got["doc_id"].to_pylist() == [key]


def test_block_decode_opens_no_bloom_file(store, monkeypatch):
    """Bloom probes happen only while planning: decoding the planned blocks
    opens no ``blooms/`` file."""
    import howard_ray.bloom as hbloom
    import howard_ray.pipeline as hp
    import howard_ray.storeio as sio
    src, st = store
    build_bloom_index(st, "doc_id")
    full = pq.read_table(src)
    keys = full["doc_id"].to_pylist()[::250]
    preds = [("doc_id", "in", keys)]
    items, cols, fills = hp._plan_read(st, None, None, preds, None, None)
    assert len(items) > 1

    opened = []
    real_open = sio.sopen

    def spy_open(path, *a, **k):
        opened.append(str(path))
        return real_open(path, *a, **k)

    def no_probe(*a, **k):
        raise AssertionError("Bloom probe during decode")

    monkeypatch.setattr(sio, "sopen", spy_open)
    monkeypatch.setattr(hbloom, "probe_file", no_probe)
    monkeypatch.setattr(hbloom, "maybe_contains", no_probe)
    out = hp._decode_items(st, cols, fills, preds, items)
    assert opened and not any("blooms" in p for p in opened)
    assert sorted(out["doc_id"].to_pylist()) == sorted(keys)


def test_bloom_planned_delete_opens_one_block(store, monkeypatch, tmp_path):
    """``delete_where`` plans its scan like a read: an ``in`` delete of a
    block's smallest and largest ids, a range other blocks' zone maps also
    admit, asks for no other block's column once Bloom-indexed."""
    import howard_ray.pipeline as hp
    from howard_ray.pipeline import delete_where
    src, st = store
    build_bloom_index(st, "doc_id")
    zones = {b["block_id"]: (b["columns"]["doc_id"]["stats"]["min"],
                             b["columns"]["doc_id"]["stats"]["max"])
             for b in load_footer(st)["blocks"]}
    bid, keys = next(
        (bid, [lo, hi]) for bid, (lo, hi) in zones.items()
        if sum(l2 <= hi and lo <= h2 for l2, h2 in zones.values()) > 1
        and _plan_size(st, ("doc_id", "in", [lo, hi])) == 1)

    log = str(tmp_path / "asked.txt")
    real_read = hp._read_logical_block

    def spy(store_dir, block_id, *a, **k):
        with open(log, "a") as f:
            f.write(block_id + "\n")
        return real_read(store_dir, block_id, *a, **k)

    monkeypatch.setattr(hp, "_read_logical_block", spy)
    res = delete_where(st, ("doc_id", "in", keys))
    with open(log) as f:
        asked = set(f.read().split())
    assert asked == {bid}
    ids = pq.read_table(src)["doc_id"].to_pylist()
    assert res == {"n_blocks_scanned": 1,
                   "n_deleted_new": sum(i in keys for i in ids)}
