"""scrub_store: clean stores pass, targeted corruption is localized to the
damaged block with a reason, shallow mode catches size/missing damage."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from howard_ray.fixtures import write_corpus
from howard_ray.manifest import block_path, load_footer
from howard_ray.pipeline import (
    build_bloom_index,
    derive_column,
    encode_dataset,
    scrub_store,
)

_tok_bucket = lambda t: pc.divide(  # noqa: E731
    pc.cast(t["n_tok"], pa.int64()), pa.scalar(64, type=pa.int64()))


@pytest.fixture()
def store(ray_session, tmp_path):
    src = str(tmp_path / "c.parquet")
    write_corpus(src, 1200, seed=5)
    st = str(tmp_path / "st")
    encode_dataset(src, st, mode="cluster", target_rows=300)
    derive_column(st, "tok_bucket", _tok_bucket, ["n_tok"])
    build_bloom_index(st, "doc_id")
    return st


def _flip_byte(path: str, offset_from_end: int = 40) -> None:
    with open(path, "r+b") as f:
        f.seek(-offset_from_end, os.SEEK_END)
        b = f.read(1)
        f.seek(-offset_from_end, os.SEEK_END)
        f.write(bytes([b[0] ^ 0xFF]))


def test_clean_store_passes(store):
    res = scrub_store(store)
    assert res["n_ok"] == res["n_blocks"] > 0
    assert res["damaged"] == []


def test_corrupt_block_is_localized(store):
    victim = load_footer(store)["blocks"][0]["block_id"]
    _flip_byte(block_path(store, victim))
    res = scrub_store(store)
    assert len(res["damaged"]) == 1
    d = res["damaged"][0]
    assert d["block_id"] == victim
    assert any("decode failed" in e for e in d["errors"])
    assert res["n_ok"] == res["n_blocks"] - 1


def test_corrupt_sidecars_detected(store):
    f = load_footer(store)
    b = f["blocks"][1]
    ext_file = b["ext_files"]["tok_bucket"]
    _flip_byte(os.path.join(store, "blocks", ext_file))
    bloom_file = f["blocks"][2]["blooms"]["doc_id"]
    _flip_byte(os.path.join(store, "blooms", bloom_file), 8)
    res = scrub_store(store)
    ids = {d["block_id"] for d in res["damaged"]}
    assert ids == {b["block_id"], f["blocks"][2]["block_id"]}
    reasons = " | ".join(e for d in res["damaged"] for e in d["errors"])
    assert "decode failed" in reasons and "bloom[doc_id]" in reasons


def test_shallow_catches_missing_and_size(store):
    f = load_footer(store)
    os.remove(block_path(store, f["blocks"][0]["block_id"]))
    with open(block_path(store, f["blocks"][1]["block_id"]), "ab") as g:
        g.write(b"junk")
    res = scrub_store(store, deep=False)
    errs = {d["block_id"]: d["errors"][0] for d in res["damaged"]}
    assert errs[f["blocks"][0]["block_id"]] == "block file missing"
    assert errs[f["blocks"][1]["block_id"]] == "size mismatch vs footer"


def test_meta_damage_is_caught(store):
    """A same-length edit of a codec parameter in a block's meta JSON (the
    tokens values' FOR reference) decodes without error to wrong tokens;
    the deep scrub's whole-file crc32 against the footer names it."""
    victim = load_footer(store)["blocks"][0]["block_id"]
    path = block_path(store, victim)
    with open(path, "rb") as f:
        data = bytearray(f.read())
    meta_end = 8 + int.from_bytes(data[4:8], "little")
    at = data.index(b'"ref":0', data.index(b'"tokens":')) + len(b'"ref":')
    assert at < meta_end
    data[at:at + 1] = b"1"
    with open(path, "wb") as f:
        f.write(data)
    res = scrub_store(store)
    assert [d["block_id"] for d in res["damaged"]] == [victim]
    assert "crc32 mismatch vs footer" in res["damaged"][0]["errors"]
