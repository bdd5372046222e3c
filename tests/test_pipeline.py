"""End-to-end Ray Data pipeline tests: encode → decode → bit-identical;
resume-from-manifest; size gate vs Parquet+zstd.

Reference behaviors mirrored: convert round-trip (tools/convert.py:25-74),
skip-if-done resume (functions/databases.py:2112-2114).
"""

import glob
import io
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from howard_ray.fixtures import make_tokens_corpus, write_corpus
from howard_ray.manifest import load_footer, load_manifest
from howard_ray.pipeline import (
    _batch_mix,
    decode_store,
    encode_dataset,
    stable_hash_u64,
    store_total_bytes,
)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    path = str(root / "tokens_corpus.parquet")
    write_corpus(path, 5000, seed=42)
    return path


def _sorted_by_doc(t: pa.Table) -> pa.Table:
    import pyarrow.compute as pc
    return t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))


def _assert_same(a: pa.Table, b: pa.Table):
    a, b = _sorted_by_doc(a), _sorted_by_doc(b)
    for name in a.column_names:
        assert a[name].combine_chunks().equals(
            b[name].cast(a[name].type).combine_chunks()), f"column {name}"


@pytest.mark.parametrize("mode", ["stream", "cluster"])
def test_encode_decode_roundtrip(ray_session, corpus_file, tmp_path, mode):
    store = str(tmp_path / f"store_{mode}")
    footer = encode_dataset(corpus_file, store, mode=mode, target_rows=1000)
    assert footer["n_rows"] == 5000
    decoded = decode_store(store).to_arrow_refs()
    import ray
    out = pa.concat_tables([ray.get(r) for r in decoded])
    orig = pq.read_table(corpus_file)
    _assert_same(orig, out)


def test_cluster_mode_groups_by_source(ray_session, corpus_file, tmp_path):
    store = str(tmp_path / "store")
    footer = encode_dataset(corpus_file, store, mode="cluster", target_rows=1000)
    # every block holds exactly one source (constant-codec-able)
    for b in footer["blocks"]:
        src = b["block_id"].rsplit("-", 2)[0]
        assert src in {"web", "books", "code", "wiki", "news", "forum", "papers", "legal"}
    # web (55%) must be salted into multiple groups — the skew fix
    web_keys = {b["block_id"].rsplit("-", 1)[0] for b in footer["blocks"]
                if b["block_id"].startswith("web-")}
    assert len(web_keys) > 1


def test_size_not_worse_than_parquet_zstd(ray_session, corpus_file, tmp_path):
    store = str(tmp_path / "store")
    encode_dataset(corpus_file, store, mode="cluster", target_rows=100_000)
    t = pq.read_table(corpus_file)
    buf = io.BytesIO()
    pq.write_table(t, buf, compression="zstd")
    ours = store_total_bytes(store)
    theirs = buf.getbuffer().nbytes
    assert ours <= theirs, f"encoded store {ours} > parquet+zstd {theirs}"


def test_resume_skips_completed_blocks(ray_session, corpus_file, tmp_path):
    store = str(tmp_path / "store")
    footer1 = encode_dataset(corpus_file, store, mode="cluster", target_rows=1000)
    # simulate a crash: delete footer + one block, truncate nothing else
    os.remove(os.path.join(store, "footer.json"))
    victims = sorted(glob.glob(os.path.join(store, "blocks", "*.hrb")))
    os.remove(victims[0])
    n_lineage_before = len(load_manifest(store))
    footer2 = encode_dataset(corpus_file, store, mode="cluster", target_rows=1000)
    assert footer2["n_rows"] == footer1["n_rows"]
    assert {b["block_id"] for b in footer2["blocks"]} == \
           {b["block_id"] for b in footer1["blocks"]}
    # only the deleted block was re-encoded: manifest grew by exactly 1
    assert len(load_manifest(store)) == n_lineage_before + 1
    # decoded content still bit-identical
    import ray
    out = pa.concat_tables([ray.get(r) for r in decode_store(store).to_arrow_refs()])
    _assert_same(pq.read_table(corpus_file), out)


def test_lineage_records_complete(ray_session, corpus_file, tmp_path):
    store = str(tmp_path / "store")
    encode_dataset(corpus_file, store, mode="cluster", target_rows=1000)
    for rec in load_manifest(store):
        assert {"block_id", "n_rows", "raw_bytes", "encoded_bytes",
                "codecs", "crc32", "input"} <= set(rec)
    footer = load_footer(store)
    assert footer["encoded_bytes"] == sum(b["encoded_bytes"] for b in footer["blocks"])
    # footer is ordered by sort_key (ordered write requirement)
    keys = [(b.get("sort_key", ""), b["block_id"]) for b in footer["blocks"]]
    assert keys == sorted(keys)


def test_stable_hash_deterministic():
    import numpy as np
    h1 = stable_hash_u64(np.array(["a", "b", "c"], dtype=object))
    h2 = stable_hash_u64(pa.array(["a", "b", "c"]))
    assert list(h1) == list(h2)
    assert h1.dtype == np.uint64


def test_batch_mix_hashes_nested_string_values():
    """Nested string columns mix their element values, not only their
    lengths; the corpus schema (list<int32> tokens) keeps its hash, so
    existing block ids do not change."""
    assert _batch_mix(pa.table({"x": [["ab", "c"]]})) != \
        _batch_mix(pa.table({"x": [["zz", "q"]]}))
    assert _batch_mix(pa.table({"x": [["ab", None]]})) != \
        _batch_mix(pa.table({"x": [["ab", "c"]]}))
    corpus = pa.table({
        "doc_id": ["d1", "d2", "d3"], "source": ["web", "code", None],
        "tokens": pa.array([[1, 2, 3], [4], []], pa.list_(pa.int32())),
        "n_tok": pa.array([3, 1, 0], pa.int32())})
    assert _batch_mix(corpus) == (15034285739795301248, "d1")


def test_edge_corpus_roundtrip(ray_session, tmp_path):
    path = str(tmp_path / "edge.parquet")
    pq.write_table(make_tokens_corpus(0, variant="edge"), path)
    store = str(tmp_path / "store")
    encode_dataset(path, store, mode="stream", target_rows=3)
    import ray
    out = pa.concat_tables([ray.get(r) for r in decode_store(store).to_arrow_refs()])
    _assert_same(pq.read_table(path), out)


def test_cluster_exchange_roundtrip(ray_session, corpus_file, tmp_path):
    """Compressed-exchange cluster mode: mini-blocks through the shuffle,
    bit-identical result, deterministic block ids/content across runs."""
    import ray

    st1 = str(tmp_path / "s1")
    st2 = str(tmp_path / "s2")
    f1 = encode_dataset(corpus_file, st1, mode="cluster-exchange", target_rows=1000)
    f2 = encode_dataset(corpus_file, st2, mode="cluster-exchange", target_rows=1000,
                        resume=False)
    assert f1["n_rows"] == 5000
    assert {b["block_id"] for b in f1["blocks"]} == \
           {b["block_id"] for b in f2["blocks"]}
    # deterministic content: same crc per block across independent runs
    c1 = {b["block_id"]: b["crc32"] for b in f1["blocks"]}
    c2 = {b["block_id"]: b["crc32"] for b in f2["blocks"]}
    assert c1 == c2
    out = pa.concat_tables(ray.get(decode_store(st1).to_arrow_refs()))
    _assert_same(pq.read_table(corpus_file), out)


def test_null_source_rows_survive_both_cluster_modes(ray_session, tmp_path):
    """Rows with source=NULL must not crash the salted stages (dictionary
    indices would carry nulls); they fold into the '' salt group, round-
    trip unchanged, and both modes write the same blocks."""
    import ray

    t = make_tokens_corpus(200)
    src = t["source"].to_pylist()
    src[3] = None
    src[77] = None
    t = t.set_column(t.schema.get_field_index("source"), "source",
                     pa.array(src, type=pa.string()))
    path = str(tmp_path / "nulls.parquet")
    pq.write_table(t, path)
    crcs = []
    for mode in ("cluster", "cluster-exchange"):
        store = str(tmp_path / f"st_{mode}")
        footer = encode_dataset(path, store, mode=mode, target_rows=64)
        out = pa.concat_tables(ray.get(decode_store(store).to_arrow_refs()))
        _assert_same(t, out)
        crcs.append({b["block_id"]: b["crc32"] for b in footer["blocks"]})
    assert crcs[0] == crcs[1]


def test_cluster_and_exchange_write_identical_blocks(ray_session, corpus_file,
                                                     tmp_path):
    """The two clustered modes differ only in what crosses the shuffle:
    same block ids, same bytes."""
    crcs = []
    for mode in ("cluster", "cluster-exchange"):
        footer = encode_dataset(corpus_file, str(tmp_path / mode), mode=mode,
                                target_rows=1000)
        crcs.append({b["block_id"]: b["crc32"] for b in footer["blocks"]})
    assert len(crcs[0]) > 1
    assert crcs[0] == crcs[1]


def test_pipeline_reads_no_environment():
    """Encode behaviour is set by arguments and derived values only: no
    environment knob may grow back into the pipeline module."""
    import howard_ray.pipeline as hp
    with open(hp.__file__) as f:
        src = f.read()
    assert "os.environ" not in src and "getenv" not in src


def test_per_block_dispatch_is_one_helper():
    """Per-block work has one Ray dispatch: ``ray.data.from_items(`` appears
    in the pipeline only inside the per-block runner and the typed empty
    result, and nowhere in the storage-partitioned join."""
    import ast

    import howard_ray.pipeline as hp
    import howard_ray.spj as spj

    def users(mod) -> tuple[int, set]:
        with open(mod.__file__) as f:
            src = f.read()
        funcs = [n for n in ast.parse(src).body
                 if isinstance(n, ast.FunctionDef)]
        return (src.count("ray.data.from_items("),
                {n.name for n in funcs if "ray.data.from_items("
                 in ast.get_source_segment(src, n)})

    assert users(hp) == (2, {"_block_tasks", "_typed_empty"})
    assert users(spj) == (0, set())


def test_resume_reencodes_on_profile_change(ray_session, corpus_file, tmp_path):
    """resume=True must NOT skip blocks when the encode profile differs —
    a zstd-19 re-encode of a zstd-1 store has to produce new bytes."""
    store = str(tmp_path / "st")
    f1 = encode_dataset(corpus_file, store, mode="stream", target_rows=1000)
    size1 = sum(b["encoded_bytes"] for b in f1["blocks"])
    # same profile resume: everything skipped, nothing re-encoded
    f2 = encode_dataset(corpus_file, store, mode="stream", target_rows=1000)
    assert all(b.get("resumed") for b in f2["blocks"])
    assert f2["raw_bytes_new"] == 0
    # archive profile: every block re-encoded, smaller store
    f3 = encode_dataset(corpus_file, store, mode="stream", target_rows=1000,
                        profile="archive")
    assert not any(b.get("resumed") for b in f3["blocks"])
    assert f3["raw_bytes_new"] > 0
    size3 = sum(b["encoded_bytes"] for b in f3["blocks"])
    assert size3 < size1


def test_sampled_vs_exact_salt_sizing_same_content(ray_session, corpus_file,
                                                   tmp_path, monkeypatch):
    """Salt sizing from the row-group sample and from the exact stats pass
    must yield the same DECODED corpus (group sizing may differ — content
    may not), and the sampled estimate must stay within its documented
    envelope (>= exact count is not required per source, but every source
    must be present or rare)."""
    import ray

    from howard_ray.pipeline import _per_source_counts, \
        _per_source_counts_sampled

    import howard_ray.pipeline as hp

    s1 = str(tmp_path / "store_sampled")
    encode_dataset(corpus_file, s1, mode="cluster", target_rows=1000)
    with monkeypatch.context() as m:
        m.setattr(hp, "_per_source_counts_sampled", _per_source_counts)
        s2 = str(tmp_path / "store_exact")
        encode_dataset(corpus_file, s2, mode="cluster", target_rows=1000)

    a = pa.concat_tables(
        [ray.get(r) for r in decode_store(s1).to_arrow_refs()])
    b = pa.concat_tables(
        [ray.get(r) for r in decode_store(s2).to_arrow_refs()])
    _assert_same(a, b)

    exact = _per_source_counts(corpus_file)
    est = _per_source_counts_sampled(corpus_file)
    # estimates cover every non-trivial source and are sane in scale
    for s, c in exact.items():
        if c >= 500:
            assert s in est
            assert 0.2 * c <= est[s] <= 5 * c


def test_corpus_chunked_construction_identical(monkeypatch):
    """Past 2^31 total tokens the fixture builds its list column in chunks
    (int32 offsets); a lowered limit must produce identical content."""
    import howard_ray.fixtures as F

    t1 = F.make_tokens_corpus(2000, seed=7)
    monkeypatch.setattr(F, "_OFFSET_LIMIT", 50_000)
    t2 = F.make_tokens_corpus(2000, seed=7)
    assert len(t2["tokens"].chunks) > 1
    assert t1.combine_chunks().equals(t2.combine_chunks())


def test_auto_mode_resolves_by_bytes_per_row(ray_session, tmp_path):
    """mode='auto' (the new default): wide token rows -> cluster-exchange
    (volume-priced shuffle), narrow rows -> plain salted cluster."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from howard_ray.fixtures import write_corpus
    from howard_ray.pipeline import encode_dataset

    wide = str(tmp_path / "wide.parquet")
    write_corpus(wide, 1500, seed=3)          # token arrays ~1.4 kB/row
    f = encode_dataset(wide, str(tmp_path / "s1"), target_rows=500)
    assert f["mode"] == "cluster-exchange"
    assert f["mode_requested"] == "auto"

    t = pq.read_table(wide)
    narrow = str(tmp_path / "narrow.parquet")
    pq.write_table(t.select(["doc_id", "source", "n_tok"]), narrow)
    f2 = encode_dataset(narrow, str(tmp_path / "s2"), target_rows=500)
    assert f2["mode"] == "cluster"
    assert f2["mode_requested"] == "auto"

    # explicit modes are never overridden
    f3 = encode_dataset(wide, str(tmp_path / "s3"), mode="cluster",
                        target_rows=500)
    assert f3["mode"] == "cluster" and "mode_requested" not in f3
