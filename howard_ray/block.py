"""Encoded block format.

A *block* is the unit of encoded storage: ~100k rows (the reference's Parquet
row-group size for its annotation-store builds,
howard/functions/databases.py:1406,2213) of one table, with every column
independently encoded by a lightweight codec chosen per block by the sampling
selector.

Block file layout (self-contained — decodable without any external state,
so decode never depends on which actor encoded it):

    magic "HRB1" | u32 meta_len | meta JSON | concatenated column payloads

The meta JSON carries, per column: codec id + codec meta (including any
dict/FSST symbol table), payload offset/length, crc32 checksum and min/max
zone-map stats — the analog of the reference's ``.hdr`` sidecar schema
(howard/objects/variants.py:2351-2444) plus its planning min/max query
(howard/objects/variants.py:6290-6306).

Supported column kinds:
- int      (any Arrow integer type)
- str      (string / large_string)
- list_int (list<int*> — offsets and flattened values encoded separately,
            the SURVEY.md §7.4 "hard part": chunk-boundary-safe because we
            re-derive lengths via ``pc.list_value_length`` + ``flatten()``)
- float    (float32/float64 — plain or byte-stream-split planes)
- list_float (list<float*> — same offsets/values split as list_int, values
            through the float codecs; the ``embeddings`` payload)
- other    (fallback: Arrow IPC + zstd, so arbitrary tables still encode)
"""

from __future__ import annotations

import io
import json
import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .codecs import (decode_floats, decode_ints, decode_strings,
                     encode_floats, encode_ints, encode_strings)
from .codecs import zstd as zstd_mod
from .codecs.zstd import zstd_compress, zstd_decompress
from .selector import choose_float_codec, choose_int_codec, choose_str_codec

MAGIC = b"HRB1"
TARGET_ROWS_PER_BLOCK = 100_000  # reference row-group size (databases.py:2213)

ENCODE_PROFILES = {
    # throughput profile: byte-aligned codecs + fast zstd
    "standard": {"zstd_level": 1},
    # archive profile: zstd level 19 per block — ~4% smaller stores at ~200x
    # the compression CPU; compute-dominant, so it is also the scaling probe
    # profile on hosts whose memory bandwidth caps the standard profile
    # (see BASELINE.md)
    "archive": {"zstd_level": 19},
}


def _combine(col) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    return col


def _exact_int_sum(vals: np.ndarray) -> int:
    """Overflow-free zone-map sum: the int64 fast path wraps silently for
    large magnitudes, and the wrapped value would be served as the ANSWER
    by the metadata SUM()/AVG() pushdown — fall back to Python-int
    summation whenever max|v| * n could reach 2^63."""
    n = int(vals.size)
    if n == 0:
        return 0
    bound = max(abs(int(vals.min())), abs(int(vals.max())))
    if bound and n > (2 ** 62) // bound:
        return int(vals.astype(object).sum())
    return int(vals.sum(dtype=np.int64))


def _encode_int_col(arr: pa.Array, codec: str | None) -> tuple[bytes, dict]:
    vals = np.asarray(arr)
    codec = codec or choose_int_codec(vals)
    payload, meta = encode_ints(vals, codec)
    entry = {"kind": "int", "meta": meta,
             "stats": {"min": int(vals.min()), "max": int(vals.max()),
                       "sum": _exact_int_sum(vals)}
             if vals.size else {}}
    return payload, entry


def _encode_str_col(arr: pa.Array, codec: str | None) -> tuple[bytes, dict]:
    codec = codec or choose_str_codec(arr)
    try:
        payload, meta = encode_strings(arr, codec)
    except Exception:
        # the selector picks fsst from a ~1% sample; the FULL column can
        # still lack free code bytes (FsstNotApplicable) — degrade to the
        # always-valid plain codec instead of killing the encode task
        if codec == "plain_str":
            raise
        payload, meta = encode_strings(arr, "plain_str")
    stats = {}
    if len(arr):
        mm = pc.min_max(arr)
        stats = {"min": mm["min"].as_py(), "max": mm["max"].as_py()}
    return payload, {"kind": "str", "meta": meta, "stats": stats}


def _encode_list_int_col(arr: pa.Array, codec: str | None) -> tuple[bytes, dict]:
    if pa.types.is_large_list(arr.type):
        arr = arr.cast(pa.list_(arr.type.value_type))
    lengths = np.asarray(pc.list_value_length(arr), dtype=np.int64)
    values = np.asarray(arr.flatten())
    p_len, m_len = encode_ints(lengths, choose_int_codec(lengths))
    vcodec = codec or choose_int_codec(values)
    p_val, m_val = encode_ints(values, vcodec)
    stats = {"min": int(values.min()), "max": int(values.max()),
             "sum": _exact_int_sum(values),
             "n_values": int(values.size)} if values.size else {"n_values": 0}
    entry = {"kind": "list_int", "len_meta": m_len, "val_meta": m_val,
             "parts": [len(p_len), len(p_val)],
             "value_type": str(arr.type.value_type), "stats": stats}
    return p_len + p_val, entry


def _float_stats(values: np.ndarray) -> dict:
    if not values.size:
        return {}
    lo, hi = float(values.min()), float(values.max())
    # NaN/Inf are not JSON-portable; zone maps are an optimization only
    if not (np.isfinite(lo) and np.isfinite(hi)):
        return {}
    return {"min": lo, "max": hi}


def _encode_float_col(arr: pa.Array, codec: str | None) -> tuple[bytes, dict]:
    vals = np.asarray(arr)
    codec = codec or choose_float_codec(vals)
    payload, meta = encode_floats(vals, codec)
    return payload, {"kind": "float", "meta": meta, "stats": _float_stats(vals)}


def _encode_list_float_col(arr: pa.Array, codec: str | None) -> tuple[bytes, dict]:
    if pa.types.is_large_list(arr.type):
        arr = arr.cast(pa.list_(arr.type.value_type))
    lengths = np.asarray(pc.list_value_length(arr), dtype=np.int64)
    values = np.asarray(arr.flatten())
    p_len, m_len = encode_ints(lengths, choose_int_codec(lengths))
    p_val, m_val = encode_floats(values, codec or choose_float_codec(values))
    stats = _float_stats(values)
    stats["n_values"] = int(values.size)
    entry = {"kind": "list_float", "len_meta": m_len, "val_meta": m_val,
             "parts": [len(p_len), len(p_val)],
             "value_type": str(arr.type.value_type), "stats": stats}
    return p_len + p_val, entry


def _encode_other_col(arr: pa.Array) -> tuple[bytes, dict]:
    sink = io.BytesIO()
    t = pa.table({"c": arr})
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    raw = sink.getvalue()
    payload = zstd_compress(raw)
    return payload, {"kind": "other", "meta": {"raw_len": len(raw)}, "stats": {}}


def encode_column(arr, codec: str | None = None) -> tuple[bytes, dict]:
    """Encode one Arrow column → (payload, column entry dict)."""
    arr = _combine(arr)
    t = arr.type
    if arr.null_count == 0 and pa.types.is_integer(t):
        return _encode_int_col(arr, codec)
    if arr.null_count == 0 and (pa.types.is_string(t) or pa.types.is_large_string(t)):
        if pa.types.is_large_string(t):
            arr = arr.cast(pa.string())
        return _encode_str_col(arr, codec)
    if (arr.null_count == 0 and (pa.types.is_list(t) or pa.types.is_large_list(t))
            and pa.types.is_integer(t.value_type)
            and arr.flatten().null_count == 0):
        try:
            return _encode_list_int_col(arr, codec)
        except pa.lib.ArrowInvalid:
            # large_list with > 2^31-1 flattened values cannot cast to
            # 32-bit offsets — honest fallback, like any unsupported shape
            return _encode_other_col(arr)
    if arr.null_count == 0 and pa.types.is_floating(t) and t.bit_width >= 32:
        return _encode_float_col(arr, codec)
    if (arr.null_count == 0 and (pa.types.is_list(t) or pa.types.is_large_list(t))
            and pa.types.is_floating(t.value_type) and t.value_type.bit_width >= 32
            and arr.flatten().null_count == 0):
        try:
            return _encode_list_float_col(arr, codec)
        except pa.lib.ArrowInvalid:
            return _encode_other_col(arr)
    return _encode_other_col(arr)


def decode_column(payload: bytes, entry: dict) -> pa.Array:
    kind = entry["kind"]
    if kind == "int":
        return pa.array(decode_ints(payload, entry["meta"]))
    if kind == "str":
        return decode_strings(payload, entry["meta"])
    if kind == "list_int":
        n1, _ = entry["parts"]
        lengths = decode_ints(payload[:n1], entry["len_meta"])
        values = decode_ints(payload[n1:], entry["val_meta"])
        vt = pa.type_for_alias(entry["value_type"])
        offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int32)
        return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                        pa.array(values, type=vt))
    if kind == "float":
        return pa.array(decode_floats(payload, entry["meta"]))
    if kind == "list_float":
        n1, _ = entry["parts"]
        lengths = decode_ints(payload[:n1], entry["len_meta"])
        values = decode_floats(payload[n1:], entry["val_meta"])
        vt = pa.type_for_alias(entry["value_type"])
        offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int32)
        return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                        pa.array(values, type=vt))
    if kind == "other":
        raw = zstd_decompress(payload, entry["meta"]["raw_len"])
        with pa.ipc.open_stream(io.BytesIO(raw)) as r:
            return r.read_all()["c"].combine_chunks()
    raise ValueError(f"unknown column kind {kind}")


def encode_block(table: pa.Table, block_id: str,
                 codecs: dict[str, str] | None = None,
                 zstd_level: int = ENCODE_PROFILES["standard"]["zstd_level"]
                 ) -> tuple[bytes, dict]:
    """Encode a table into one self-contained block → (file bytes, block meta).

    ``zstd_level`` holds for this call only: the worker's previous level is
    restored afterwards, so a long-lived worker that once ran the archive
    profile never leaks level 19 into a later encode."""
    prev = zstd_mod.LEVEL
    zstd_mod.set_level(zstd_level)
    try:
        return _encode_block(table, block_id, codecs or {})
    finally:
        zstd_mod.set_level(prev)


def _encode_block(table: pa.Table, block_id: str,
                  codecs: dict[str, str]) -> tuple[bytes, dict]:
    payloads: list[bytes] = []
    columns: dict[str, dict] = {}
    offset = 0
    for name in table.column_names:
        payload, entry = encode_column(table[name], codecs.get(name))
        entry["offset"] = offset
        entry["length"] = len(payload)
        entry["crc32"] = zlib.crc32(payload)
        offset += len(payload)
        payloads.append(payload)
        columns[name] = entry
    body = b"".join(payloads)
    # encoded_bytes is NOT stored in the on-disk meta (it is derivable from
    # len(file) and recorded authoritatively in the lineage manifest); it is
    # only patched into the in-memory return value below.
    meta = {"block_id": block_id, "n_rows": table.num_rows,
            "columns": columns, "body_crc32": zlib.crc32(body)}
    meta_json = json.dumps(meta, separators=(",", ":")).encode()
    file_bytes = MAGIC + len(meta_json).to_bytes(4, "little") + meta_json + body
    meta["encoded_bytes"] = len(file_bytes)
    return file_bytes, meta


def decode_block(data: bytes, columns: list[str] | None = None) -> pa.Table:
    """Decode a block file back to an Arrow table (optionally a column subset)."""
    if data[:4] != MAGIC:
        raise ValueError("bad block magic")
    meta_len = int.from_bytes(data[4:8], "little")
    meta = json.loads(data[8:8 + meta_len])
    body = data[8 + meta_len:]
    names = columns if columns is not None else list(meta["columns"])
    out = {}
    for name in names:
        entry = meta["columns"][name]
        payload = body[entry["offset"]: entry["offset"] + entry["length"]]
        if zlib.crc32(payload) != entry["crc32"]:
            raise IOError(f"crc mismatch on column {name} of block {meta['block_id']}")
        out[name] = decode_column(payload, entry)
    return pa.table(out)


def read_block_meta(data: bytes) -> dict:
    if data[:4] != MAGIC:
        raise ValueError("bad block magic")
    meta_len = int.from_bytes(data[4:8], "little")
    return json.loads(data[8:8 + meta_len])


def write_block_file(path: str, file_bytes: bytes) -> None:
    """Atomic DURABLE write (tmp + fsync + rename): the fsync before the
    rename is what entitles the fast resume path to trust 'a file of the
    right size is a completed write' (manifest.completed_blocks) — without
    it a power loss after the rename could leave a right-sized file of
    unwritten pages that resume would skip forever."""
    from . import storeio as sio
    tmp = path + ".tmp"
    with sio.sopen(tmp, "wb") as f:
        f.write(file_bytes)
        f.flush()
        sio.fsync(f)
    sio.replace(tmp, path)


def read_block_file(path: str, columns: list[str] | None = None) -> pa.Table:
    from . import storeio as sio
    with sio.sopen(path, "rb") as f:
        return decode_block(f.read(), columns)


def read_block_meta_path(path: str) -> dict:
    """Block meta from the file HEADER only (no payload read) — the cheap
    driver-side probe for schema/type discovery."""
    from . import storeio as sio
    with sio.sopen(path, "rb") as f:
        head = f.read(8)
        if head[:4] != MAGIC:
            raise ValueError("bad block magic")
        meta_len = int.from_bytes(head[4:8], "little")
        return json.loads(f.read(meta_len))


def entry_arrow_type(entry: dict) -> "pa.DataType | None":
    """The Arrow type a column entry decodes to — None for the opaque
    'other' kind (whose type is only known by decoding)."""
    kind = entry["kind"]
    if kind == "int":
        return pa.from_numpy_dtype(np.dtype(entry["meta"]["dtype"]))
    if kind == "float":
        return pa.from_numpy_dtype(np.dtype(entry["meta"]["dtype"]))
    if kind == "str":
        return pa.string()
    if kind in ("list_int", "list_float"):
        return pa.list_(pa.type_for_alias(entry["value_type"]))
    return None
