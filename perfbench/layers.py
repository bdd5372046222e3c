"""Per-layer measurements for the traced run.

The in-block layers run inside Ray tasks, where the benchmark cannot time
them from outside. They are replayed here, on the driver, over the blocks
the store holds: each block is read and decoded, then the selector, the
recorded codecs, the zstd post-pass, block encoding, the block write and
the footer publish are timed on exactly those rows.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import defaultdict

import numpy as np
import pyarrow.compute as pc

from howard_ray import block as hblock
from howard_ray import bloom as hbloom
from howard_ray import manifest as hmanifest
from howard_ray import selector as hselector
from howard_ray.codecs import encode_ints, encode_strings
from howard_ray.codecs.zstd import zstd_compress

COLUMNS = ("doc_id", "tokens", "n_tok", "source")
CODECS = ("constant", "plain", "for_bytes", "for_split", "for_bitpack",
          "delta_bitpack", "rle_bitpack", "dict_str", "fsst", "plain_str")
SQL_PATHS = ("metadata", "grouped-metadata", "pushdown-aggregate",
             "order-limit-scan", "store-scan", "table-scan")
SELF_LAYERS = ("bench", "pipeline", "sqlmini", "selector", "codecs", "block",
               "manifest", "bloom")


def names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = ["pipeline.read_s", "pipeline.orchestration_s"]
    out += [f"selector.{c}_s" for c in COLUMNS]
    for c in COLUMNS:
        out += [f"codecs.{c}.encode_s", f"codecs.{c}.decode_s",
                f"codecs.{c}.bytes"]
    out += ["codecs.zstd_post_s"] + [f"codecs.wins.{c}" for c in CODECS]
    out += ["block.encode_s", "block.decode_s", "block.write_s", "block.count",
            "manifest.footer_publish_s", "manifest.footer_load_s",
            "bloom.build_s", "bloom.probe_s",
            "bloom.blocks_decoded_per_lookup", "bloom.blocks_matched_per_lookup",
            "zonemap.blocks_decoded_per_predicate_scan",
            "zonemap.blocks_matched_per_predicate_scan",
            "sqlmini.parse_s"]
    out += [f"sqlmini.path.{p}" for p in SQL_PATHS] + ["sqlmini.path.other"]
    out += ["storeio.bytes_written_per_input_byte"]
    out += [f"self.{layer}_s" for layer in SELF_LAYERS]
    return out


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name == "storeio.bytes_written_per_input_byte":
        return "ratio"
    return "count"


def _parts(arr, entry: dict):
    """(codec meta, encode-without-post) for every payload part of a column."""
    kind = entry["kind"]
    if kind == "int":
        vals = np.asarray(arr)
        return [(entry["meta"],
                 lambda m=entry["meta"]: encode_ints(vals, m["codec"], post_zstd=False))]
    if kind == "str":
        return [(entry["meta"],
                 lambda m=entry["meta"]: encode_strings(arr, m["codec"], post_zstd=False))]
    if kind == "list_int":
        lengths = np.asarray(pc.list_value_length(arr), dtype=np.int64)
        values = np.asarray(arr.flatten())
        return [(entry["len_meta"],
                 lambda m=entry["len_meta"]: encode_ints(lengths, m["codec"], post_zstd=False)),
                (entry["val_meta"],
                 lambda m=entry["val_meta"]: encode_ints(values, m["codec"], post_zstd=False))]
    raise ValueError(f"column kind {kind} is not in the benchmark schema")


def _select(arr, kind: str) -> None:
    if kind == "int":
        hselector.choose_int_codec(np.asarray(arr))
    elif kind == "str":
        hselector.choose_str_codec(arr)
    else:
        hselector.choose_int_codec(np.asarray(pc.list_value_length(arr), dtype=np.int64))
        hselector.choose_int_codec(np.asarray(arr.flatten()))


def _encode_recorded(arr, entry: dict) -> None:
    kind = entry["kind"]
    if kind == "int":
        encode_ints(np.asarray(arr), entry["meta"]["codec"])
    elif kind == "str":
        encode_strings(arr, entry["meta"]["codec"])
    else:
        encode_ints(np.asarray(pc.list_value_length(arr), dtype=np.int64),
                    entry["len_meta"]["codec"])
        encode_ints(np.asarray(arr.flatten()), entry["val_meta"]["codec"])


def replay_blocks(store: str, block_ids: set, scratch: str, tracer) -> dict:
    """Replay the in-block layers over ``block_ids`` of ``store``; returns
    summed seconds, bytes and codec-win counts under their metric names."""
    m: dict = defaultdict(float)
    for c in CODECS:
        m[f"codecs.wins.{c}"] = 0
    records = hmanifest.load_blocks(store)
    os.makedirs(scratch)
    try:
        for rec in records:
            bid = rec["block_id"]
            if bid not in block_ids:
                continue
            with open(hmanifest.block_path(store, bid), "rb") as f:
                data = f.read()
            meta = hblock.read_block_meta(data)
            body = data[8 + int.from_bytes(data[4:8], "little"):]
            t0 = time.perf_counter()
            with tracer.span("block.decode"):
                table = hblock.decode_block(data)
            m["block.decode_s"] += time.perf_counter() - t0
            chosen = {}
            for col, entry in meta["columns"].items():
                payload = body[entry["offset"]: entry["offset"] + entry["length"]]
                arr = table[col].combine_chunks()
                m[f"codecs.{col}.bytes"] += len(payload)
                for label, fn in (("decode", lambda: hblock.decode_column(payload, entry)),
                                  ("encode", lambda: _encode_recorded(arr, entry))):
                    t0 = time.perf_counter()
                    with tracer.span(f"codecs.{col}.{label}"):
                        fn()
                    m[f"codecs.{col}.{label}_s"] += time.perf_counter() - t0
                t0 = time.perf_counter()
                with tracer.span(f"selector.{col}"):
                    _select(arr, entry["kind"])
                m[f"selector.{col}_s"] += time.perf_counter() - t0
                for part_meta, raw_fn in _parts(arr, entry):
                    codec = part_meta.get("codec")
                    key = f"codecs.wins.{codec}"
                    if key in m:
                        m[key] += 1
                    if part_meta.get("post") == "zstd":
                        raw, _ = raw_fn()
                        t0 = time.perf_counter()
                        with tracer.span("codecs.zstd_post"):
                            zstd_compress(raw)
                        m["codecs.zstd_post_s"] += time.perf_counter() - t0
                chosen[col] = (entry.get("val_meta") or entry["meta"])["codec"]
            t0 = time.perf_counter()
            with tracer.span("block.encode"):
                file_bytes, _ = hblock.encode_block(table, bid, codecs=chosen)
            m["block.encode_s"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            with tracer.span("block.write"):
                hblock.write_block_file(os.path.join(scratch, f"{bid}.hrb"),
                                        file_bytes)
            m["block.write_s"] += time.perf_counter() - t0
            m["block.count"] += 1
        footer_dir = os.path.join(scratch, "store")
        hmanifest.init_store(footer_dir)
        t0 = time.perf_counter()
        with tracer.span("manifest.footer_publish"):
            hmanifest.write_footer(footer_dir, records)
        m["manifest.footer_publish_s"] += time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    hmanifest.footer_cache_clear()
    t0 = time.perf_counter()
    with tracer.span("manifest.footer_load"):
        hmanifest.load_footer(store)
    m["manifest.footer_load_s"] += time.perf_counter() - t0
    return dict(m)


def lookup_pruning(store: str, key: str, tracer) -> tuple[int, int, float]:
    """(blocks a point lookup on doc_id decodes, blocks holding the key,
    seconds of Bloom probes) from the footer zone maps and the Bloom files."""
    decoded = matched = 0
    probe_s = 0.0
    for rec in hmanifest.load_blocks(store, {"doc_id": (key, key)}):
        fname = (rec.get("blooms") or {}).get("doc_id")
        if fname:
            t0 = time.perf_counter()
            with tracer.span("bloom.probe"):
                maybe = hbloom.probe_file(hbloom.bloom_path(store, fname), [key])
            probe_s += time.perf_counter() - t0
            if not maybe:
                continue
        decoded += 1
        col = hblock.read_block_file(hmanifest.block_path(store, rec["block_id"]),
                                     ["doc_id"])["doc_id"]
        matched += int(pc.any(pc.equal(col, key)).as_py() or False)
    return decoded, matched, probe_s


def predicate_pruning(store: str, source: str) -> tuple[int, int]:
    """(blocks a ``source ==`` scan decodes after zone-map pruning, blocks
    holding a matching row)."""
    decoded = matched = 0
    for rec in hmanifest.load_blocks(store, {"source": (source, source)}):
        decoded += 1
        col = hblock.read_block_file(hmanifest.block_path(store, rec["block_id"]),
                                     ["source"])["source"]
        matched += int(pc.any(pc.equal(col, source)).as_py() or False)
    return decoded, matched


def snapshot_files(root: str) -> dict:
    """path -> (size, mtime_ns) of every file under ``root``."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            try:
                st = os.stat(p)
            except FileNotFoundError:
                continue
            out[p] = (st.st_size, st.st_mtime_ns)
    return out


def bytes_written(before: dict, after: dict) -> int:
    """Bytes in files that are new or rewritten between two snapshots."""
    return sum(sz for p, (sz, mt) in after.items() if before.get(p) != (sz, mt))
