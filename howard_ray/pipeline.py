"""Ray-Data-native encode / decode pipelines.

Flagship encode pipeline (north_star shape):

    ray.data.read_parquet(input)                      # zero-copy Arrow scan
      → [stats: per-source row counts, tiny pre-aggregated groupby]
      → map_batches(add salt key, zero-copy Arrow)    # explicit skew handling
      → groupby(['source','salt']).map_groups(encode) # THE shuffle, salted
      → per-group encoded block files + lineage       # atomic, resumable
      → footer.json                                   # ordered global index

``mode="stream"`` skips the shuffle and encodes blocks in scan order via a
task ``map_batches`` stage — the reference's convert path
(read → layout change → write, /root/reference/howard/tools/convert.py:25-74).
``mode="cluster"`` is the full pipeline: same-source rows are co-located so
dictionary/FSST symbol tables are shared within a block, and the
low-cardinality skewed ``source`` key (web=55%) is salted so no reducer gets
a chromosome-sized partition (the reference's per-chromosome loops are
skew-blind, howard/objects/variants.py:6314 — this is the fix).
``mode="cluster-exchange"`` is the same salted pipeline with rows packed
into compressed mini-blocks before the shuffle; both write identical blocks.

Every block write — encode, append, compaction, purge, recluster, derived
sidecars — goes through :func:`_encode_tables_to_blocks` (or
``block.encode_block`` directly for sidecars), which carries the profile's
zstd level; every destructive rewrite publishes through :func:`_swap_footer`.

Resume: deterministic group membership (stable 64-bit content hash of doc_id)
⇒ deterministic block ids and contents; a restarted job diffs the lineage
manifest against on-disk blocks and skips completed ones
(howard/functions/databases.py:2112-2114 generalized).

Nothing here calls ray.init()/ray.shutdown() — sessions are owned by the
caller (driver contract in /root/repo/__ray_entry__.py).
"""

from __future__ import annotations

import functools
import json
import os
import time
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .block import (
    ENCODE_PROFILES,
    TARGET_ROWS_PER_BLOCK,
    decode_block,
    encode_block,
    read_block_file,
    write_block_file,
)
from . import storeio as sio
from .manifest import (
    append_lineage,
    block_path,
    completed_blocks,
    expire_snapshots,
    init_store,
    list_tombstones,
    load_blocks,
    load_footer,
    load_tombstone,
    tombstone_path,
    write_footer,
    write_tombstone,
)


def stable_hash_u64(strings: pa.Array | np.ndarray) -> np.ndarray:
    """Deterministic per-row 64-bit hash of a string column (vectorized).

    pandas ``hash_array`` (SipHash-1-3 with a fixed key) is stable across
    processes and runs — required so salted group membership, and therefore
    block ids/contents, are identical on resume and at every parallelism
    level.
    """
    obj = np.asarray(strings, dtype=object)
    return pd.util.hash_array(obj, categorize=False)


def _encode_tables_to_blocks(tables: list[pa.Table], store_dir: str, key: str,
                             sort_key: str, target_rows: int,
                             completed: dict[str, dict],
                             input_info: str,
                             profile: str = "standard",
                             all_or_nothing: bool = False) -> list[dict]:
    """Encode row-slices of ``tables`` into <=target_rows blocks; skip blocks
    already completed per the manifest diff (same id, same row count, same
    encode PROFILE — a profile change must re-encode, not silently keep the
    old bytes). Returns lineage records; resumed ones carry "resumed": True
    so footer throughput counts only freshly encoded bytes.

    ``all_or_nothing=True``: resume the whole call's block set only if EVERY
    block is completed, else re-encode every block — required when intra-key
    row ORDER is not run-deterministic (exchange mode with duplicate
    doc_ids): per-block skipping could otherwise stitch block boundaries
    from two different orderings of the same row set."""
    table = pa.concat_tables(tables) if len(tables) != 1 else tables[0]
    records = []
    n = table.num_rows
    n_blocks = max(1, -(-n // target_rows))
    per = -(-n // n_blocks)
    if all_or_nothing and completed:
        sizes = [min(per, n - seq * per) for seq in range(n_blocks)]
        ok = all(
            (p := completed.get(f"{key}-{seq:05d}")) is not None
            and p["n_rows"] == sz
            and p.get("profile", "standard") == profile
            for seq, sz in enumerate(sizes) if sz > 0)
        completed = completed if ok else {}
    for seq in range(n_blocks):
        part = table.slice(seq * per, per)
        if part.num_rows == 0:
            continue
        block_id = f"{key}-{seq:05d}"
        prior = completed.get(block_id)
        if prior is not None and prior["n_rows"] == part.num_rows \
                and prior.get("profile", "standard") == profile:
            records.append({**prior, "resumed": True})
            continue
        t0 = time.perf_counter()
        file_bytes, meta = encode_block(
            part, block_id,
            zstd_level=ENCODE_PROFILES[profile]["zstd_level"])
        write_block_file(block_path(store_dir, block_id), file_bytes)
        rec = {
            "block_id": block_id,
            "sort_key": sort_key,
            "n_rows": part.num_rows,
            "raw_bytes": part.nbytes,
            "encoded_bytes": len(file_bytes),
            "codecs": {c: e.get("meta", e.get("val_meta", {})).get("codec", e["kind"])
                       for c, e in meta["columns"].items()},
            # per-column zone maps in the footer → block pruning at read time
            "columns": {c: {"stats": e.get("stats", {})}
                        for c, e in meta["columns"].items()},
            "crc32": zlib.crc32(file_bytes),
            "input": input_info,
            "profile": profile,
            "encode_sec": round(time.perf_counter() - t0, 4),
        }
        append_lineage(store_dir, rec)
        records.append(rec)
    return records


_WORKER_OBJ_CACHE: dict[str, object] = {}


def _cached_get(ref):
    """Worker-local cache of a broadcast ObjectRef: the stream task path
    reads the resume dict once per BATCH, and re-deserializing a large
    manifest dict every batch is O(n_batches x manifest_size) wasted CPU.
    Bounded to a handful of refs (one per concurrent encode run)."""
    import ray as _ray
    key = ref.hex()
    if key not in _WORKER_OBJ_CACHE:
        if len(_WORKER_OBJ_CACHE) > 4:
            _WORKER_OBJ_CACHE.clear()
        _WORKER_OBJ_CACHE[key] = _ray.get(ref)
    return _WORKER_OBJ_CACHE[key]


def _records_table(records: list[dict]) -> pa.Table:
    return pa.table({"record": pa.array([json.dumps(r) for r in records],
                                        type=pa.string())})


def _collect_records(ds: ray.data.Dataset) -> list[dict]:
    """Every record of a stage whose batches are :func:`_records_table`s."""
    return [json.loads(r["record"]) for r in ds.take_all()]


def _block_tasks(items: list[dict], fn, batch_size: int) -> ray.data.Dataset:
    """The one per-block dispatch: one Ray task per ``batch_size`` items.
    Each item dict travels JSON-encoded in a single column (a nested read
    map would otherwise become an Arrow struct); ``fn`` gets the decoded
    list of item dicts and returns an Arrow table or a pandas frame."""
    def run(batch: pa.Table):
        return fn([json.loads(s) for s in batch["item"].to_pylist()])
    return ray.data.from_items([{"item": json.dumps(it)} for it in items],
                               override_num_blocks=max(1, len(items))) \
        .map_batches(run, batch_size=batch_size, batch_format="pyarrow")


def _map_blocks(items: list[dict], per_item, batch_size: int) -> list[dict]:
    """Run ``per_item(item) -> list[dict]`` over ``items`` as
    :func:`_block_tasks` and return every record they produced."""
    return _collect_records(_block_tasks(
        items, lambda its: _records_table(
            [r for it in its for r in per_item(it)]), batch_size))


def _batch_mix(batch: pa.Table) -> tuple[int, str]:
    """Order-sensitive content hash of a batch + its first scalar value —
    the deterministic block-id ingredient shared by the stream encoder
    and the recluster writers (batch boundaries are deterministic for a
    fixed input + batch_size in scan order). EVERY column contributes
    (scalar columns by value, nested columns by element lengths AND
    element values), so two distinct batches can only collide if they are
    fully content-identical — hashing a single key column would collide
    whenever it is low-cardinality, and hashing nested LENGTHS alone
    collides for any fixed-sequence-length input (uniform 2048-token
    rows). Bit-identical duplicate batches are caught loudly by
    write_footer's duplicate-id tripwire."""
    import pyarrow.compute as pc
    mult = np.uint64(1099511628211)  # FNV prime, mod 2^64 wraparound
    pows = np.full(batch.num_rows, mult, dtype=np.uint64)
    pows[0] = np.uint64(1)
    np.cumprod(pows, out=pows)
    mix = np.uint64((batch.num_rows * 0x9E3779B97F4A7C15)
                    & 0xFFFFFFFFFFFFFFFF)
    first = None
    with np.errstate(over="ignore"):
        for name, typ in zip(batch.schema.names, batch.schema.types):
            col = batch[name]
            if pa.types.is_nested(typ):
                arr = (col.combine_chunks()
                       if isinstance(col, pa.ChunkedArray) else col)
                h = np.asarray(pc.list_value_length(arr),
                               dtype=np.uint64)
                try:
                    flat = arr.flatten()
                    if (pa.types.is_string(flat.type)
                            or pa.types.is_large_string(flat.type)):
                        fv = stable_hash_u64(flat)  # strings by value
                    else:
                        fv = flat.to_numpy(zero_copy_only=False)
                    if fv.dtype.kind in "iu":
                        fv = fv.astype(np.uint64)
                    elif fv.dtype.kind == "f":
                        fv = fv.astype(np.float64).view(np.uint64)
                    else:
                        raise TypeError(fv.dtype)
                    fp = np.full(len(fv), mult, dtype=np.uint64)
                    if len(fp):
                        fp[0] = np.uint64(1)
                    np.cumprod(fp, out=fp)
                    mix = mix * np.uint64(37) + np.uint64(
                        int(np.sum(fv * fp, dtype=np.uint64)))
                except (TypeError, ValueError):
                    pass  # exotic nested type: lengths still mix below
            else:
                h = stable_hash_u64(np.asarray(
                    col.cast(pa.string()).to_pandas(), dtype=object))
                if first is None:
                    first = str(col[0].as_py())[:64]
            # order-sensitive polynomial combine (NOT xor: xor is
            # commutative and self-cancelling)
            mix = mix * np.uint64(31) + np.uint64(
                int(np.sum(h * pows, dtype=np.uint64)))
    return int(mix), (first if first is not None else "nested")


TARGET_BLOCK_BYTES = 8 * 1024 * 1024  # ~8 MiB encoded-block input target


def auto_target_rows(input_path: str | list[str]) -> int:
    """Byte-aware block sizing (SURVEY.md §7.4: "batch_size must be
    byte-aware, not row-count-aware"): rows per block chosen so one block's
    Arrow payload ≈ TARGET_BLOCK_BYTES, derived from parquet metadata of the
    first input file. Falls back to the reference's 100k-row constant."""
    import pyarrow.parquet as pq

    path = input_path[0] if isinstance(input_path, list) else input_path
    try:
        if os.path.isdir(path):
            names = [n for n in os.listdir(path) if n.endswith(".parquet")]
            path = os.path.join(path, sorted(names)[0])
        md = pq.ParquetFile(path).metadata
        total = sum(md.row_group(i).total_byte_size
                    for i in range(md.num_row_groups))
        if md.num_rows == 0 or total == 0:
            return TARGET_ROWS_PER_BLOCK
        avg_row = total / md.num_rows
        return int(min(TARGET_ROWS_PER_BLOCK,
                       max(2048, TARGET_BLOCK_BYTES / avg_row)))
    except (OSError, IndexError):
        return TARGET_ROWS_PER_BLOCK


def _parquet_files(input_path: str | list[str]) -> list[str]:
    """Expand a path / dir / list into the ordered parquet file list — the
    ONE place that defines which files an input spec means."""
    paths = input_path if isinstance(input_path, list) else [input_path]
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            files += [os.path.join(p, n) for n in sorted(os.listdir(p))
                      if n.endswith(".parquet")]
        else:
            files.append(p)
    return files


def _input_meta(input_path: str | list[str]) -> tuple[int, pa.DataType | None, float]:
    """ONE driver-side parquet-footer sweep (each file's metadata opened
    once — this sits on the serial critical path before the exchange, so it
    must not scale with anything but file count) returning:

    - total row groups: the finest granularity the scan can split into;
    - the metadata-PROVEN narrow token type (uint16/uint8 list) if column
      statistics bound every tokens value — the salted shuffle then moves
      half (or a quarter) of the token bytes. None when stats are missing
      or the range doesn't fit (optimization skipped, never unsound);
    - the average UNCOMPRESSED bytes/row (row-group total_byte_size over
      rows) — the auto mode chooser's signal for whether the all-to-all is
      volume-priced (wide token rows) or row-priced.
    """
    import pyarrow.parquet as pq

    n_groups = 0
    lo, hi = None, None
    tot_bytes = tot_rows = 0
    stats_ok = True
    try:
        for f in _parquet_files(input_path):
            md = pq.ParquetFile(f).metadata
            n_groups += md.num_row_groups
            tot_rows += md.num_rows
            for g in range(md.num_row_groups):
                tot_bytes += md.row_group(g).total_byte_size
            if not stats_ok or md.num_row_groups == 0:
                stats_ok = stats_ok and md.num_row_groups > 0
                continue
            try:
                idx = next(i for i in range(md.num_columns)
                           if md.row_group(0).column(i).path_in_schema
                           .startswith("tokens."))
            except (StopIteration, IndexError):
                stats_ok = False
                continue
            for g in range(md.num_row_groups):
                st = md.row_group(g).column(idx).statistics
                if st is None or not st.has_min_max:
                    stats_ok = False
                    break
                lo = st.min if lo is None else min(lo, st.min)
                hi = st.max if hi is None else max(hi, st.max)
    except OSError:
        return 0, None, 0.0
    narrow = None
    if stats_ok and lo is not None and lo >= 0:
        if hi < 2**8:
            narrow = pa.list_(pa.uint8())
        elif hi < 2**16:
            narrow = pa.list_(pa.uint16())
    return n_groups, narrow, tot_bytes / max(1, tot_rows)


_NULL_SRC = "\x00"  # shuffle-key sentinel for source=NULL rows (cannot
# collide with a real source: \x00 never survives a parquet string write
# from any sane producer, and the stored DATA keeps the true null — the
# sentinel exists only in shuffle keys and salt lookups)


def _safe_key(source) -> str:
    """Filesystem-safe block-key component: percent-encode everything
    outside [A-Za-z0-9_.-]; None (null source) -> '%00'."""
    if source is None or source == _NULL_SRC:
        return "%00"
    return "".join(c if c.isalnum() or c in "_.-" else f"%{ord(c):02x}"
                   for c in str(source))


def _salt_codes(batch: pa.Table, salts: dict[str, int]):
    """Vectorized salt assignment shared by the cluster and exchange
    stages: dictionary-encode the source column (few uniques; nulls fold to
    the _NULL_SRC sentinel), map only the DICTIONARY through the salts
    dict, gather the salt count per row — no per-row Python in the hot
    path — and pick each row's salt from the stable hash of its doc_id.
    Returns (dict_values, per-row codes, per-row salts)."""
    import pyarrow.compute as pc

    col = batch["source"]
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if col.null_count:
        col = pc.fill_null(col, _NULL_SRC)
    enc = pc.dictionary_encode(col)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    dict_vals = enc.dictionary.to_pylist()
    codes = np.asarray(enc.indices)
    per_dict = np.array([salts.get(s, 1) for s in dict_vals], dtype=np.uint64)
    salt = stable_hash_u64(batch["doc_id"]) % per_dict[codes]
    return dict_vals, codes, salt.astype(np.int64)


def _per_source_counts(input_path: str | list[str]) -> dict[str, int]:
    """Tiny stats pass: column-pruned read of `source` only → per-batch
    partial counts → small groupby (the pre-aggregate-then-shuffle rule;
    analog of the reference's per-chrom planning query,
    howard/objects/variants.py:6290-6306). NB: prune at the READ — a
    select_columns on a full read does not push the projection into the
    parquet scan in this Ray version."""
    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        col = (batch["source"].combine_chunks()
               if isinstance(batch["source"], pa.ChunkedArray)
               else batch["source"])
        # null sources count under the same sentinel the salt stages use,
        # so even an (unrealistic) null-heavy skew still gets salted
        vc = pc.value_counts(pc.fill_null(col, _NULL_SRC))
        return pa.table({"source": vc.field("values"),
                         "cnt": vc.field("counts")})
    parts = ray.data.read_parquet(input_path, columns=["source"]) \
        .map_batches(partial, batch_format="pyarrow").take_all()
    # final reduce driver-side: the partials are <= n_blocks x |sources| tiny
    # rows, and skipping the groupby avoids ~2s of fixed shuffle setup that
    # would sit on the serial critical path before the salted exchange
    # (round-1 verdict: cluster-mode serial tail)
    out: dict[str, int] = {}
    for r in parts:
        out[r["source"]] = out.get(r["source"], 0) + int(r["cnt"])
    return out


# row groups sampled for the salt-sizing estimate: enough that any source
# worth >1 salt (>= target_rows of data) appears many times in the sample
_SALT_SAMPLE_GROUPS = 32


def _per_source_counts_sampled(input_path: str | list[str]) -> dict[str, int]:
    """Salt-sizing stats WITHOUT a corpus pass: exact total rows from the
    parquet footers (free) + per-source SHARES from a deterministic
    row-group sample (round-robin over files, ~_SALT_SAMPLE_GROUPS groups,
    `source` column only). Exactness is not required here — salts only
    bound shuffle-group size, and the block writer re-slices every group to
    <= target_rows regardless (`_encode_tables_to_blocks`) — but
    determinism is: the sampled groups are a pure function of the input
    layout, so resume and any parallelism level derive identical salts.
    A 1.25x safety factor absorbs sampling error on big sources; a source
    too rare for the sample gets salts=1, which is exactly right for it.
    At 10^12 rows this replaces a full read of `source` with a bounded
    number of row-group reads on the serial critical path."""
    import pyarrow.parquet as pq

    files = _parquet_files(input_path)
    try:
        pfs = [pq.ParquetFile(f) for f in files]
        total_rows = sum(pf.metadata.num_rows for pf in pfs)
        if total_rows == 0:
            return {}
        # round-robin (file, group) picks: group g of every file, then
        # group g+1, ... until the budget — deterministic in the layout
        picks: list[tuple[int, int]] = []
        g = 0
        while len(picks) < _SALT_SAMPLE_GROUPS:
            added = False
            for i, pf in enumerate(pfs):
                if g < pf.metadata.num_row_groups:
                    picks.append((i, g))
                    added = True
                    if len(picks) >= _SALT_SAMPLE_GROUPS:
                        break
            if not added:
                break
            g += 1
        if not picks:
            return _per_source_counts(input_path)
        import pyarrow.compute as pc
        counts: dict[str, int] = {}
        sampled = 0
        for i, g in picks:
            col = pfs[i].read_row_group(g, columns=["source"])["source"]
            vc = pc.value_counts(pc.fill_null(
                col.combine_chunks() if isinstance(col, pa.ChunkedArray)
                else col, _NULL_SRC))
            for v, c in zip(vc.field("values").to_pylist(),
                            vc.field("counts").to_pylist()):
                counts[v] = counts.get(v, 0) + int(c)
                sampled += int(c)
        if sampled == 0:
            return _per_source_counts(input_path)
        scale = 1.25 * total_rows / sampled
        return {s: max(1, int(c * scale)) for s, c in counts.items()}
    except (OSError, KeyError):
        return _per_source_counts(input_path)


# auto mode: uncompressed bytes/row at or above which the all-to-all is
# volume-priced (wide token rows) and the compressed exchange wins
EXCHANGE_BYTES_PER_ROW = 512
# target blocks per exchange pack batch: each pack batch splits into
# ~|present (source,salt) pairs| minis, so bigger batches mean fewer, larger
# minis (less per-mini codec overhead, better mini compression)
_EXCHANGE_PACK_MULT = 4
# fixed byte-aligned codecs for the exchange mini-blocks (no selection: they
# live only until the reducer decodes them)
_MINI_CODECS = {"doc_id": "plain_str", "source": "dict_str",
                "tokens": "for_bytes", "n_tok": "for_bytes"}


def _pack_minis(batch: pa.Table, salts: dict[str, int]) -> pa.Table:
    """Exchange pre-shuffle map: split a batch into one standard-profile
    mini-block per present (source, salt) group, so the all-to-all moves
    already-compressed bytes."""
    if batch.num_rows == 0:
        return pa.table({
            "source": pa.array([], type=pa.string()),
            "salt": pa.array([], type=pa.int64()),
            "payload": pa.array([], type=pa.binary()),
            "n_rows": pa.array([], type=pa.int64()),
        })
    dict_vals, codes, salt = _salt_codes(batch, salts)
    # vectorized partition: lexsort by (source-code, salt) then boundary
    # split on the sorted integer pair — no per-row Python. Group ORDER
    # within this batch is code- not string-ordered; irrelevant downstream
    # (groups re-shuffle by key, final block content re-sorts by doc_id).
    order = np.lexsort((salt, codes))
    sorted_batch = batch.take(pa.array(order))
    c_sorted, t_sorted = codes[order], salt[order]
    bounds = np.flatnonzero(np.concatenate(
        ([True], (c_sorted[1:] != c_sorted[:-1])
         | (t_sorted[1:] != t_sorted[:-1]))))
    ends = np.concatenate((bounds[1:], [len(c_sorted)]))
    codecs = {c: _MINI_CODECS[c] for c in batch.column_names
              if c in _MINI_CODECS}
    out_src, out_salt, out_payload, out_rows = [], [], [], []
    for b, e in zip(bounds, ends):
        sub = sorted_batch.slice(int(b), int(e - b))
        out_src.append(dict_vals[int(c_sorted[b])])
        out_salt.append(int(t_sorted[b]))
        out_payload.append(encode_block(sub, "mini", codecs=codecs)[0])
        out_rows.append(int(e - b))
    return pa.table({
        "source": pa.array(out_src, type=pa.string()),
        "salt": pa.array(out_salt, type=pa.int64()),
        "payload": pa.array(out_payload, type=pa.binary()),
        "n_rows": pa.array(out_rows, type=pa.int64()),
    })


def _salted_groups(ds, input_path, columns, target_rows: int, input_meta,
                   exchange: bool):
    """The salted all-to-all shared by both clustered modes → (grouped
    dataset, unpack(group) → the group's rows in input schema). Each
    source gets one salt per ``target_rows`` of its estimated rows, so no
    reducer holds more than about one block of a skewed source.

    ``exchange=False`` (cluster): append salt + shuffle-key columns and move
    plain Arrow rows, tokens narrowed to the metadata-proven uint16/uint8
    type. ``exchange=True`` (cluster-exchange): move compressed mini-blocks
    (~3.6x less volume — the decisive cost on a real multi-node shuffle)
    that the reducer decodes again, a clear win when the network, not the
    CPU, prices the shuffle."""
    counts = _per_source_counts_sampled(input_path)
    salts = {s: max(1, -(-c // target_rows)) for s, c in counts.items()}
    if exchange:
        def unpack_minis(group: pa.Table) -> pa.Table:
            tables = [decode_block(p.as_py()) for p in group["payload"]]
            return pa.concat_tables(tables).combine_chunks()

        return (ds.map_batches(_pack_minis, fn_args=(salts,),
                               batch_format="pyarrow",
                               batch_size=target_rows * _EXCHANGE_PACK_MULT)
                  .groupby(["source", "salt"])), unpack_minis

    # shuffle-volume narrowing: metadata-proven safe cast of tokens to
    # uint16/uint8 before the all-to-all halves (or quarters) the bytes
    # moved; the group stage casts back before encoding. One footer sweep
    # also yields the row-group count for the partitioning gate.
    n_row_groups, narrow, _ = input_meta or _input_meta(input_path)
    wide_type = None
    if narrow is not None:
        schema = ds.schema().base_schema
        if "tokens" in schema.names:
            wide_type = schema.field("tokens").type

    def add_salt(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        _, _, salt = _salt_codes(batch, salts)
        out = batch.append_column("salt", pa.array(salt))
        # shuffle key: null sources fold to the sentinel (Ray's sort
        # boundary sampling compares keys in Python and cannot order
        # None vs str); the DATA column keeps the true null
        out = out.append_column(
            "__gsrc", pc.fill_null(out["source"], _NULL_SRC))
        if wide_type is not None:
            idx = out.schema.get_field_index("tokens")
            out = out.set_column(idx, "tokens", out["tokens"].cast(narrow))
        return out

    def unpack_salted(group: pa.Table) -> pa.Table:
        body = group.drop_columns(["salt", "__gsrc"])
        if wide_type is not None:
            idx = body.schema.get_field_index("tokens")
            body = body.set_column(idx, "tokens",
                                   body["tokens"].cast(wide_type))
        return body

    # ~2 sort partitions per CPU: enough parallelism for the all-to-all
    # without quadratic tiny-object overhead (measured sweet spot); leave
    # one CPU for the read/shuffle stages
    cluster_cpus = int(ray.cluster_resources().get("CPU", 8))
    pool = max(1, cluster_cpus - 1)
    n_parts = max(2, min(2 * pool, 128,
                         -(-sum(counts.values()) // max(1, target_rows))))
    # Parallelism shaping WITHOUT an extra exchange: when the parquet layout
    # itself can be split into n_parts read blocks, ask the READ for n_parts
    # blocks and feed the sort directly; the .repartition(n_parts) round (a
    # second full all-to-all before the sort) remains only as the fallback
    # for single-file/few-row-group inputs the scan cannot split wide enough
    # (the sort shuffle's partition count follows its input block count).
    if n_row_groups >= n_parts:
        salted = ray.data.read_parquet(
            input_path, columns=columns, override_num_blocks=n_parts,
        ).map_batches(add_salt, batch_format="pyarrow")
    else:
        salted = ds.map_batches(add_salt, batch_format="pyarrow") \
                   .repartition(n_parts)
    return salted.groupby(["__gsrc", "salt"]), unpack_salted


def encode_dataset(
    input_path: str | list[str],
    store_dir: str,
    *,
    mode: str = "auto",
    profile: str = "standard",
    target_rows: int | None = None,
    resume: bool = True,
    columns: list[str] | None = None,
    block_ns: str = "",
    base_records: list[dict] | None = None,
    extra_footer: dict | None = None,
) -> dict:
    """Run the encode pipeline; returns the footer dict (global index).

    ``block_ns``/``base_records``/``extra_footer`` are the incremental-append
    plumbing (see :func:`append_to_store`): new blocks are namespaced so they
    cannot collide with an existing epoch's (source, salt) ids, and the final
    footer is the union of the prior footer's records and this run's."""
    init_store(store_dir)
    if not resume:
        # belt-and-braces vs footer-state aliasing (ADVICE r4 #2): a
        # fresh encode at a previously-used path must not serve parsed
        # shards cached from the old store in this process
        from .manifest import footer_cache_clear
        footer_cache_clear()
    completed = completed_blocks(store_dir) if resume else {}
    if target_rows is None:
        target_rows = auto_target_rows(input_path)
    ds = ray.data.read_parquet(input_path, columns=columns)
    ctx = ray.data.DataContext.get_current()
    prev_block_size = ctx.target_max_block_size
    # ~32 MiB scan/shuffle blocks: fine-grained enough to keep every CPU busy
    # on medium inputs without flooding the object store with tiny objects
    ctx.target_max_block_size = 32 * 1024 * 1024
    # push-based shuffle for the salted groupby exchange: two-stage
    # map→merge pipelining instead of the sort shuffle's all-map-then-
    # all-reduce barrier — measured 16-19 s → 10-11 s on the 3M-row cluster
    # encode at 32 CPUs. Safe because group CONTENT no longer depends on
    # arrival order (groups are sorted by doc_id before block slicing;
    # per-block resume therefore assumes unique doc_id per the input_hint).
    prev_push = getattr(ctx, "use_push_based_shuffle", None)
    if prev_push is not None:
        ctx.use_push_based_shuffle = True
    t0 = time.perf_counter()

    input_meta = None
    mode_requested = mode
    if mode == "auto":
        # resolved from parquet metadata: wide rows (token arrays) make the
        # all-to-all VOLUME-priced, where the compressed-exchange mode's
        # ~3.6x smaller shuffle wins on any real network; narrow rows keep
        # the plain salted shuffle (no double-encode)
        input_meta = _input_meta(input_path)
        mode = ("cluster-exchange"
                if input_meta[2] >= EXCHANGE_BYTES_PER_ROW else "cluster")

    if mode == "stream":
        # stateless tasks on the session's already-warm workers; the resume
        # dict is broadcast once and cached per worker
        completed_ref = ray.put(completed)

        def encode_stream_batch(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return _records_table([])
            mix, first = _batch_mix(batch)
            return _records_table(_encode_tables_to_blocks(
                [batch], store_dir, f"{block_ns}s{mix:016x}", sort_key=first,
                target_rows=target_rows,
                completed=_cached_get(completed_ref),
                input_info=f"stream:{first}:{batch.num_rows}",
                profile=profile))

        rec_ds = ds.map_batches(encode_stream_batch, batch_size=target_rows,
                                batch_format="pyarrow")
    elif mode in ("cluster", "cluster-exchange"):
        exchange = mode == "cluster-exchange"
        grouped, unpack = _salted_groups(ds, input_path, columns, target_rows,
                                         input_meta, exchange)

        def encode_group(group: pa.Table) -> pa.Table:
            if group.num_rows == 0:
                return _records_table([])
            import pyarrow.compute as pc
            source = _safe_key(group["source"][0].as_py())
            salt = group["salt"][0].as_py()
            body = unpack(group)
            # deterministic content: order by doc_id, not by arrival — block
            # contents (and therefore resume identity) must not depend on
            # the shuffle implementation's intra-key merge order (this is
            # what makes the push-based shuffle safe to enable above).
            # Duplicate doc_ids leave the exchange's tie order shuffle-
            # dependent, so its resume is ALL-OR-NOTHING per group: a group
            # either keeps every completed block or re-encodes every block.
            body = body.take(pc.sort_indices(body["doc_id"]))
            return _records_table(_encode_tables_to_blocks(
                [body], store_dir, f"{block_ns}{source}-{salt:05d}",
                sort_key=f"{source}/{salt:05d}", target_rows=target_rows,
                completed=completed, input_info=f"{mode}:{source}:{salt}",
                profile=profile, all_or_nothing=exchange))

        rec_ds = grouped.map_groups(encode_group, batch_format="pyarrow")
    else:
        raise ValueError(f"unknown mode {mode}")

    try:
        records = _collect_records(rec_ds)
    finally:
        ctx.target_max_block_size = prev_block_size
        if prev_push is not None:
            ctx.use_push_based_shuffle = prev_push
    wall = time.perf_counter() - t0
    raw_bytes = sum(r["raw_bytes"] for r in records)
    # throughput counts only FRESHLY encoded bytes: a resumed run that
    # skipped 99% of the store must not report the skipped terabytes as if
    # this wall-clock encoded them
    raw_bytes_new = sum(r["raw_bytes"] for r in records
                        if not r.get("resumed"))
    if base_records:
        # append run: prior epochs' records ride along untouched; the
        # namespaced keys guarantee disjoint block ids (write_footer's
        # duplicate tripwire still backstops that invariant)
        records = list(base_records) + records
        raw_bytes = sum(r["raw_bytes"] for r in records)
    extra = {
        "mode": mode,
        **({"mode_requested": "auto"} if mode_requested == "auto" else {}),
        "profile": profile,
        "wall_sec": round(wall, 4),
        "raw_bytes": raw_bytes,
        "raw_bytes_new": raw_bytes_new,
        "throughput_gbps": round(raw_bytes_new / max(wall, 1e-9) / 1e9, 4),
    }
    extra.update(extra_footer or {})
    return write_footer(store_dir, records, extra=extra)


def _ext_file_name(block_id: str, name: str) -> str:
    return f"{block_id}.c_{name}.hrb"


def _block_rmap(b: dict) -> dict:
    """The block's READ MAP: everything :func:`_read_logical_block` needs to
    turn the immutable physical files into the current logical table —
    ``ext`` (logical name → derived-column sidecar file), ``ren`` (in-file
    name → logical name, from metadata-only renames), ``drop`` (in-file
    names excluded by metadata-only drops)."""
    m = {}
    if b.get("ext_files"):
        m["ext"] = b["ext_files"]
    if b.get("renames"):
        m["ren"] = b["renames"]
    if b.get("drops"):
        m["drop"] = b["drops"]
    return m


def _column_type_hints(store_dir: str, blocks: list[dict],
                       cols: list[str]) -> dict:
    """Arrow type per (schema-evolved) column, discovered from ONE donor
    block's file header each — the driver-side probe that lets blocks
    predating a column decode it as TYPED nulls (uniform union schema
    across epochs). Opaque 'other'-kind columns fall back to decoding the
    single donor column."""
    from .block import entry_arrow_type, read_block_meta_path

    fills: dict = {}
    for c in cols:
        donor = next((b for b in blocks if c in (b.get("columns") or {})),
                     None)
        if donor is None:
            raise KeyError(f"column {c!r} exists in no block of the store")
        rmap = _block_rmap(donor)
        ext = rmap.get("ext") or {}
        inv = {v: k for k, v in (rmap.get("ren") or {}).items()}
        if c in ext:
            path, infile = os.path.join(store_dir, "blocks", ext[c]), None
        else:
            path, infile = block_path(store_dir, donor["block_id"]), \
                inv.get(c, c)
        meta = read_block_meta_path(path)
        entry = (meta["columns"][infile] if infile is not None
                 else next(iter(meta["columns"].values())))
        t = entry_arrow_type(entry)
        if t is None:  # opaque column: one donor-column decode tells all
            name = infile if infile is not None \
                else next(iter(meta["columns"]))
            t = read_block_file(path, [name]).column(0).type
        fills[c] = t
    return fills


def _read_logical_block(store_dir: str, block_id: str, rmap: dict,
                        columns: list[str] | None = None,
                        fills: dict | None = None) -> pa.Table:
    """Read a block's LOGICAL table: base columns from the immutable block
    file (in-file names translated through the rename map, dropped names
    excluded), derived columns from their per-block sidecar column files.
    ``columns`` is in LOGICAL names; column pruning never opens or decodes
    what it doesn't need (a metadata-dropped column is never decoded).

    ``fills`` (schema evolution on append): logical name → Arrow type for
    columns that newer epochs carry but this block may predate — a missing
    column decodes as typed nulls instead of raising, so mixed-epoch
    stores present one uniform union schema."""
    from .block import decode_block, read_block_meta

    ext = rmap.get("ext") or {}
    ren = rmap.get("ren") or {}
    drops = set(rmap.get("drop") or ())
    if columns is None:
        with sio.sopen(block_path(store_dir, block_id), "rb") as f:
            data = f.read()
        base_phys = [c for c in read_block_meta(data)["columns"]
                     if c not in drops]
        t = decode_block(data, base_phys)
        if ren:
            t = t.rename_columns([ren.get(c, c) for c in base_phys])
        for c, fname in ext.items():
            col_t = read_block_file(os.path.join(store_dir, "blocks", fname))
            t = t.append_column(c, col_t.column(0))
        return t
    inv = {v: k for k, v in ren.items()}  # logical -> in-file
    want_ext = [c for c in columns if c in ext]
    base_logical = [c for c in columns if c not in ext]
    t, missing = None, []
    if base_logical:
        with sio.sopen(block_path(store_dir, block_id), "rb") as f:
            data = f.read()
        if fills:
            meta_cols = read_block_meta(data)["columns"]
            present = [c for c in base_logical if inv.get(c, c) in meta_cols]
            missing = [c for c in base_logical if c not in present]
            bad = [c for c in missing if c not in fills]
            if bad:
                raise KeyError(bad[0])
        else:
            present = base_logical
        if present:
            t = decode_block(data, [inv.get(c, c) for c in present])
            t = t.rename_columns(present)
    for c in want_ext:
        col = read_block_file(
            os.path.join(store_dir, "blocks", ext[c])).column(0)
        t = pa.table({c: col}) if t is None else t.append_column(c, col)
    if t is None:
        # nothing requested exists in this block, or no column was asked
        # for (COUNT(*)): a zero-column table that still carries the rows
        from .block import read_block_meta_path
        n = read_block_meta_path(block_path(store_dir, block_id))["n_rows"]
        t = pa.table({"": pa.nulls(n)}).select([])
    for c in missing:
        t = t.append_column(c, pa.nulls(t.num_rows, fills[c]))
    return t.select(columns)


def _keep_mask(store_dir: str, block_id: str, n_rows: int):
    """Boolean keep-vector for a block's tombstoned rows, or None when
    nothing is deleted."""
    idx = load_tombstone(store_dir, block_id)
    if idx is None or len(idx) == 0:
        return None
    keep = np.ones(n_rows, dtype=bool)
    keep[idx] = False
    return keep


def _live_rows(store_dir: str, block_id: str, t: pa.Table) -> pa.Table:
    """``t`` (a block's full physical rows) minus its tombstoned rows."""
    keep = _keep_mask(store_dir, block_id, t.num_rows)
    return t if keep is None else t.filter(pa.array(keep))


def derive_column(store_dir: str, name: str, fn,
                  input_columns: list[str] | None = None,
                  profile: str = "standard") -> dict:
    """Schema evolution: add a derived column to an existing store WITHOUT
    rewriting any base block — the store-level analog of the reference's
    calculation family (``ALTER TABLE ADD COLUMN`` + vectorized ``UPDATE``,
    howard/objects/variants.py:1641-1769, 8365-8510). Per block, a Ray task
    reads only ``input_columns``, evaluates ``fn(table) -> pa.Array`` over
    ALL physical rows (tombstoned rows included, so the sidecar always
    aligns with the base block), and writes one encoded single-column
    sidecar file; the footer swap publishes the column with its own codec
    + zone-map stats, so predicate pushdown and block pruning work on
    derived columns exactly as on base ones.

    Idempotent backfill: blocks that already carry the column are skipped,
    so re-running after an :func:`append_to_store` derives only the new
    epoch's blocks."""
    footer = load_footer(store_dir)
    blocks = load_blocks(store_dir, footer=footer)
    if any(name in (b.get("columns") or {}) and name not in
           (b.get("ext_files") or {}) for b in blocks):
        raise ValueError(f"column {name!r} already exists as a base column")
    todo = [b for b in blocks if name not in (b.get("ext_files") or {})]
    if not todo:
        return {"n_blocks_derived": 0, "ext_bytes": 0}
    items = [{"block_id": b["block_id"], "rmap": _block_rmap(b)}
             for b in todo]
    fn_ref = ray.put(fn)

    def derive(item: dict) -> list[dict]:
        bid = item["block_id"]
        t_in = _read_logical_block(store_dir, bid, item["rmap"],
                                   input_columns)
        arr = _cached_get(fn_ref)(t_in)
        if not isinstance(arr, (pa.Array, pa.ChunkedArray)):
            arr = pa.array(arr)
        if len(arr) != t_in.num_rows:
            raise ValueError(
                f"derive fn returned {len(arr)} values for "
                f"{t_in.num_rows}-row block {bid}")
        fname = _ext_file_name(bid, name)
        file_bytes, meta = encode_block(
            pa.table({name: arr}), f"{bid}.c_{name}",
            zstd_level=ENCODE_PROFILES[profile]["zstd_level"])
        write_block_file(os.path.join(store_dir, "blocks", fname),
                         file_bytes)
        e = meta["columns"][name]
        return [{"block_id": bid, "file": fname,
                 "ext_bytes": len(file_bytes),
                 "codec": e.get("meta", e.get("val_meta", {})).get(
                     "codec", e["kind"]),
                 "stats": e.get("stats", {})}]

    new = {r["block_id"]: r for r in _map_blocks(items, derive, 4)}

    ext_bytes = 0
    # the records may be SHARED with manifest's parsed-shard cache; clear
    # it before mutating in place (same invariant as alter_store) so a
    # pre-derive snapshot read cannot see the mutated records
    from .manifest import footer_cache_clear
    footer_cache_clear()
    for b in blocks:
        r = new.get(b["block_id"])
        if r is None:
            continue
        b.setdefault("ext_files", {})[name] = r["file"]
        b.setdefault("columns", {})[name] = {"stats": r["stats"]}
        b.setdefault("codecs", {})[name] = r["codec"]
        ext_bytes += r["ext_bytes"]
    extra = dict(footer)  # write_footer strips the structural keys
    derived = dict(extra.get("derived_cols") or {})
    derived[name] = input_columns
    extra["derived_cols"] = derived
    write_footer(store_dir, blocks, extra=extra)
    return {"n_blocks_derived": len(new), "ext_bytes": ext_bytes}


def build_bloom_index(store_dir: str, column: str,
                      bits_per_key: int = 10) -> dict:
    """Build per-block Bloom sidecars over ``column`` (see
    :mod:`howard_ray.bloom` for why: point lookups on a non-cluster key are
    un-prunable by zone maps). One Ray task batch per group of blocks reads
    ONLY the indexed column, writes ``blooms/<block_id>.c_<col>.blm``, and
    the footer swap publishes the index; ``decode_store`` point predicates
    (``==`` / ``in``) then skip any block whose filter rules the probe set
    out — before decoding even the predicate column.

    Idempotent backfill like :func:`derive_column`: blocks already carrying
    the filter are skipped, so re-running after an append indexes only the
    new epoch's blocks."""
    from .bloom import bloom_file_name, bloom_path, build_filter

    footer = load_footer(store_dir)
    blocks = load_blocks(store_dir, footer=footer)
    live: set = set()
    for b in blocks:
        live |= set(b.get("columns") or {})
    if column not in live:
        raise ValueError(f"bloom: column {column!r} does not exist")
    todo = [b for b in blocks if column not in (b.get("blooms") or {})]
    if not todo:
        return {"n_blocks_indexed": 0, "bloom_bytes": 0}
    sio.makedirs(os.path.join(store_dir, "blooms"))
    items = [{"block_id": b["block_id"], "rmap": _block_rmap(b)}
             for b in todo]

    def build(item: dict) -> list[dict]:
        bid = item["block_id"]
        col = _read_logical_block(store_dir, bid, item["rmap"],
                                  [column])[column]
        data = build_filter(col, bits_per_key=bits_per_key)
        fname = bloom_file_name(bid, column)
        write_block_file(bloom_path(store_dir, fname), data)
        return [{"block_id": bid, "file": fname, "bytes": len(data)}]

    new = {r["block_id"]: r for r in _map_blocks(items, build, 8)}
    total = 0
    from .manifest import footer_cache_clear
    footer_cache_clear()  # records may be shared with the shard cache
    for b in blocks:
        r = new.get(b["block_id"])
        if r is None:
            continue
        b.setdefault("blooms", {})[column] = r["file"]
        total += r["bytes"]
    write_footer(store_dir, blocks, extra=footer)
    return {"n_blocks_indexed": len(new), "bloom_bytes": total}


def alter_store(store_dir: str, rename: dict | None = None,
                drop: list[str] | None = None) -> dict:
    """Metadata-only schema evolution: RENAME and DROP columns without
    touching a single block file — the store-level ``ALTER TABLE RENAME /
    DROP COLUMN`` (analog of the reference's INFO-field rename/remove
    operators, howard/objects/variants.py batched regex renames, re-expressed
    as an O(metadata) footer swap instead of a data rewrite).

    The footer's per-block column stats are re-keyed to the new LOGICAL
    names — zone-map pruning, predicate pushdown and column-pruned reads
    keep working with zero translation — and each block carries a tiny read
    map (in-file name → logical name; dropped in-file names) that
    :func:`_read_logical_block` applies at decode. A dropped column is never
    even decoded. Normal maintenance (compact / purge) folds the evolution
    physically; until then dropped derived-column sidecars stay on disk for
    retained snapshots — :func:`vacuum_store` reclaims them once
    unreferenced. Time travel: snapshots archived before the alter keep the
    OLD schema (the read map lives in the footer, not the block files)."""
    rename = dict(rename or {})
    drop = list(drop or [])
    if not rename and not drop:
        return {"renamed": 0, "dropped": 0}
    from .manifest import footer_cache_clear
    footer_cache_clear()  # this function mutates records in place
    footer = load_footer(store_dir)
    blocks = load_blocks(store_dir, footer=footer)
    live: set = set()
    for b in blocks:
        live |= set(b.get("columns") or {})
    targets = list(rename.values())
    for old, new in rename.items():
        if old not in live:
            raise ValueError(f"rename: column {old!r} does not exist")
        if old in drop:
            raise ValueError(f"cannot rename and drop {old!r} in one alter")
        if new != old and (new in live or targets.count(new) > 1):
            raise ValueError(f"rename target {new!r} already exists")
    for c in drop:
        if c not in live:
            raise ValueError(f"drop: column {c!r} does not exist")
    for b in blocks:
        cols = b.get("columns") or {}
        codecs = b.get("codecs") or {}
        ext = dict(b.get("ext_files") or {})
        blooms = dict(b.get("blooms") or {})
        ren = dict(b.get("renames") or {})
        drops = list(b.get("drops") or [])
        inv = {v: k for k, v in ren.items()}  # logical -> in-file
        for c in drop:
            if c in ext:
                ext.pop(c)  # sidecar file orphaned until vacuum
            elif c in cols:
                p = inv.pop(c, c)
                ren.pop(p, None)
                drops.append(p)
            cols.pop(c, None)
            codecs.pop(c, None)
            blooms.pop(c, None)  # bloom file orphaned until vacuum
        for old, new in rename.items():
            if old not in cols and old not in ext:
                continue  # column absent from this block's epoch
            if old in ext:
                ext[new] = ext.pop(old)  # sidecar read names by ext key
            else:
                p = inv.pop(old, old)  # in-file name stays fixed
                if p == new:
                    ren.pop(p, None)  # renamed back to the in-file name
                else:
                    ren[p] = new
                inv[new] = p
            if old in cols:
                cols[new] = cols.pop(old)
            if old in codecs:
                codecs[new] = codecs.pop(old)
            if old in blooms:
                blooms[new] = blooms.pop(old)
        for k, v in (("ext_files", ext), ("renames", ren), ("drops", drops),
                     ("blooms", blooms)):
            if v:
                b[k] = v
            else:
                b.pop(k, None)
    extra = dict(footer)  # write_footer strips the structural keys
    # name history guards future appends: an input delivery carrying a
    # renamed-away or dropped name would silently fork the schema
    hist = {k: rename.get(v, v)
            for k, v in (extra.get("renamed_history") or {}).items()}
    hist.update(rename)
    extra["renamed_history"] = {k: v for k, v in hist.items() if k != v}
    extra["dropped_history"] = sorted(
        set(extra.get("dropped_history") or []) | set(drop))
    dc = dict(extra.get("derived_cols") or {})
    for c in drop:
        dc.pop(c, None)
    for old, new in rename.items():
        if old in dc:
            dc[new] = dc.pop(old)
    extra["derived_cols"] = dc
    f = write_footer(store_dir, blocks, extra=extra)
    return {"renamed": len(rename), "dropped": len(drop),
            "snapshot_id": f["snapshot_id"]}


def vacuum_store(store_dir: str) -> dict:
    """Garbage-collect unreferenced store files: anything under ``blocks/``
    or ``tombstones/`` referenced by NEITHER the live footer, NOR any
    retained snapshot, NOR the lineage manifest (an in-flight append's
    completed blocks resume through the manifest and must survive a vacuum).
    Reclaims sidecars of metadata-dropped derived columns and any
    half-unlinked maintenance leftovers. Metadata-only planning; never
    touches a referenced file."""
    footers = [load_footer(store_dir)]
    from .manifest import list_snapshot_ids, load_manifest
    for sid in list_snapshot_ids(store_dir):
        try:
            footers.append(load_footer(store_dir, as_of=sid))
        except FileNotFoundError:
            continue
    refs: set = set()
    bloom_refs: set = set()
    live_ids: set = set()
    for f in footers:
        for b in f["blocks"]:
            refs.add(f"{b['block_id']}.hrb")
            live_ids.add(b["block_id"])
            refs.update((b.get("ext_files") or {}).values())
            bloom_refs.update((b.get("blooms") or {}).values())
    for rec in load_manifest(store_dir):
        refs.add(f"{rec['block_id']}.hrb")
        live_ids.add(rec["block_id"])
    removed = freed = 0
    bdir = os.path.join(store_dir, "blocks")
    for fn in sorted(sio.listdir(bdir)):
        if fn.endswith(".tmp") or fn in refs:
            continue
        p = os.path.join(bdir, fn)
        try:
            freed += sio.getsize(p)
            sio.remove(p)
            removed += 1
        except OSError:
            pass
    tdir = os.path.join(store_dir, "tombstones")
    if sio.isdir(tdir):
        for fn in sorted(sio.listdir(tdir)):
            if fn.endswith(".tmp") or fn[:-len(".tmb")] in live_ids:
                continue
            p = os.path.join(tdir, fn)
            try:
                freed += sio.getsize(p)
                sio.remove(p)
                removed += 1
            except OSError:
                pass
    gdir = os.path.join(store_dir, "blooms")
    if sio.isdir(gdir):
        for fn in sorted(sio.listdir(gdir)):
            if fn.endswith(".tmp") or fn in bloom_refs:
                continue
            p = os.path.join(gdir, fn)
            try:
                freed += sio.getsize(p)
                sio.remove(p)
                removed += 1
            except OSError:
                pass
    return {"files_removed": removed, "bytes_freed": freed}


def scrub_store(store_dir: str, deep: bool = True) -> dict:
    """Distributed integrity audit — the maintenance job a 100-TB store
    runs on a schedule. Per block (one Ray task batch per group): the block
    file must exist with the footer-recorded size; ``deep=True``
    additionally checks the whole file against the footer's crc32 (the
    only check covering the block's meta JSON, whose codec parameters
    decode wrong values without error when damaged), DECODES every column
    of the block, its derived sidecars and its Bloom sidecars (every
    payload is crc32-verified by the codecs) and checks the decoded row
    count against the footer. Returns totals plus the ids and reasons of
    every damaged block — the repair playbook is re-encode from lineage
    (each record names its input file + row range) or restore the file
    and re-run."""
    from .bloom import bloom_path, probe_file

    footer = load_footer(store_dir)
    blocks = load_blocks(store_dir, footer=footer)
    items = [{"block_id": b["block_id"], "rmap": _block_rmap(b),
              "blooms": b.get("blooms") or {}, "n_rows": b["n_rows"],
              "encoded_bytes": b["encoded_bytes"], "crc32": b.get("crc32")}
             for b in blocks]
    if not items:
        return {"n_blocks": 0, "n_ok": 0, "damaged": []}

    def check(item: dict) -> list[dict]:
        bid, n_rows = item["block_id"], item["n_rows"]
        errs = []
        path = block_path(store_dir, bid)
        try:
            if sio.getsize(path) != item["encoded_bytes"]:
                errs.append("size mismatch vs footer")
        except OSError:
            errs.append("block file missing")
        if deep and not errs:
            if item["crc32"] is not None:
                with sio.sopen(path, "rb") as f:
                    if zlib.crc32(f.read()) != item["crc32"]:
                        errs.append("crc32 mismatch vs footer")
            try:
                t = _read_logical_block(store_dir, bid, item["rmap"])
                if t.num_rows != n_rows:
                    errs.append(f"decoded {t.num_rows} rows, "
                                f"footer says {n_rows}")
            except Exception as e:  # crc/format damage surfaces here
                errs.append(f"decode failed: {e}")
            for col, fname in item["blooms"].items():
                try:
                    probe_file(bloom_path(store_dir, fname), ["probe"])
                except Exception as e:
                    errs.append(f"bloom[{col}] damaged: {e}")
        return [{"block_id": bid, "errors": errs}]

    raw = _map_blocks(items, check, 8)
    damaged = [r for r in raw if r["errors"]]
    return {"n_blocks": len(raw), "n_ok": len(raw) - len(damaged),
            "deep": deep, "damaged": damaged}


def append_to_store(store_dir: str, input_path: str | list[str], *,
                    mode: str = "auto", profile: str = "standard",
                    target_rows: int | None = None) -> dict:
    """Incremental ingest: encode ``input_path`` into an EXISTING store as a
    new append epoch, leaving every prior block untouched, and atomically
    swap in the union footer (the daily-drop shape: each delivery appends,
    :func:`compact_store` later folds the accumulated tails).

    New blocks are namespaced ``a<epoch>-…`` so a (source, salt) group in
    the appended data cannot collide with the same group's ids from an
    earlier epoch. Crash safety: the union footer is the single atomic flip
    (before it, the old footer still fully describes the store; appended
    blocks are invisible garbage); a retried append re-derives the SAME
    epoch (the footer was never swapped) and resumes via the lineage
    manifest. The caller contract is the reference's skip-if-done database
    build (functions/databases.py:2112-2124) at delivery granularity: feed
    each input delivery exactly once — re-appending an already-committed
    delivery duplicates its rows under a fresh epoch."""
    footer = load_footer(store_dir)
    base_records = load_blocks(store_dir, footer=footer)
    epoch = int(footer.get("append_epoch", 0)) + 1
    # schema-evolution guard: a delivery carrying a renamed-away or dropped
    # column name would silently fork the logical schema (names, not field
    # ids, identify columns here — the documented limitation vs Iceberg)
    hist = footer.get("renamed_history") or {}
    dropped = set(footer.get("dropped_history") or [])
    # clustered_by survives the append: the store is still DECLARED
    # clustered (stats reports the new epoch's disorder; recluster
    # --incremental repairs exactly that overlap)
    carry = {k: footer[k] for k in
             ("derived_cols", "renamed_history", "dropped_history",
              "clustered_by")
             if footer.get(k)}
    if hist or dropped:
        in_names = set(ray.data.read_parquet(input_path).schema().names)
        bad = sorted(in_names & (set(hist) | dropped))
        if bad:
            raise ValueError(
                f"append input carries column(s) {bad} that were renamed or "
                f"dropped on this store; rename them in the delivery (or "
                f"compact + re-create the column) before appending")
    return encode_dataset(
        input_path, store_dir, mode=mode, profile=profile,
        target_rows=target_rows,
        # '=' is a character _safe_key can never emit (percent-encoded in
        # source names), so the epoch namespace cannot collide with a
        # base-encode of a source literally named like "a01-web" — such a
        # collision would atomically overwrite a LIVE referenced block
        # file before the footer's duplicate-id tripwire fired
        block_ns=f"a{epoch:02d}=", base_records=base_records,
        extra_footer={"append_epoch": epoch, **carry},
    )


def upsert_to_store(store_dir: str, input_path: str | list[str], *,
                    key: str = "doc_id", mode: str = "cluster",
                    profile: str = "standard",
                    target_rows: int | None = None) -> dict:
    """MERGE (upsert) by key — the CDC delta shape: every row of the
    delivery REPLACES the store's same-key rows (tombstone delete), new
    keys are inserted (epoch append). Composed entirely from the two
    existing crash-safe primitives, so the whole operation converges under
    retry: a re-run re-deletes (idempotent no-op on already-dead rows),
    re-tombstones the previously appended delta rows and re-appends one
    fresh copy — the logical content is the same after any number of
    retries that end in one completed pass.

    Bounded-delta contract: the delivery's key set is collected on the
    driver and broadcast into the tombstone scan (zone maps prune blocks
    outside its min/max first). CDC deltas are small next to a 100-TB
    store; for a delta that ISN'T small, re-encode instead of upserting."""
    delta_keys = ray.data.read_parquet(input_path, columns=[key]).unique(key)
    if not delta_keys:
        return {"n_keys": 0, "n_replaced": 0}
    d = delete_where(store_dir, (key, "in", delta_keys))
    f = append_to_store(store_dir, input_path, mode=mode, profile=profile,
                        target_rows=target_rows)
    return {"n_keys": len(delta_keys),
            # ROWS tombstoned (can exceed matched keys when a key held
            # several physical rows); inserted keys are bounded below at
            # 0 — exact key-level accounting would need a distinct-key
            # count inside the tombstone scan, not worth a second pass
            "n_replaced": d["n_deleted_new"],
            "n_inserted": max(0, len(delta_keys) - d["n_deleted_new"]),
            # physical rows incl. tombstoned-but-unpurged replaced rows
            "n_rows_physical": f["n_rows"],
            "snapshot_id": f["snapshot_id"]}


_PRED_OPS = ("==", "!=", "<", "<=", ">", ">=", "in", "contains")


def _pred_mask(filt_col, op: str, val):
    """Vectorized row mask for one decode predicate. ``contains`` tests
    list-column membership (token-presence over list<int> tokens): flatten
    once, locate hits, scatter hit positions back to their rows via one
    searchsorted over the cumulative row lengths — no per-row loop."""
    import pyarrow.compute as pc
    if op == "in":
        return pc.is_in(filt_col, value_set=pa.array(list(val)))
    if op == "contains":
        arr = (filt_col.combine_chunks()
               if isinstance(filt_col, pa.ChunkedArray) else filt_col)
        if arr.null_count:
            # null list rows must read as empty for the row-scatter
            # below: list_value_length yields null (int64 garbage through
            # np.asarray) and flatten() DROPS null rows, so lengths and
            # flat would misalign and set the mask on the WRONG rows
            arr = pc.fill_null(arr, pa.scalar([], type=arr.type))
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
        lengths = np.asarray(pc.list_value_length(arr), dtype=np.int64)
        flat = np.asarray(arr.flatten())
        mask = np.zeros(len(arr), dtype=bool)
        hits = np.nonzero(flat == val)[0]
        if hits.size:
            ends = np.cumsum(lengths)
            mask[np.searchsorted(ends, hits, side="right")] = True
        return pa.array(mask)
    return {"==": pc.equal, "!=": pc.not_equal,
            "<": pc.less, "<=": pc.less_equal,
            ">": pc.greater, ">=": pc.greater_equal}[op](filt_col, val)


def _predicate_zone(predicate: tuple) -> dict:
    """Implied zone-map range of a predicate — free block skipping."""
    col, op, val = predicate
    if op == "==":
        return {col: (val, val)}
    if op == "contains":
        # list-column stats are over the VALUES, so a block containing
        # ``val`` must satisfy min <= val <= max
        return {col: (val, val)}
    if op in ("<", "<="):
        return {col: (None, val)}
    if op in (">", ">="):
        return {col: (val, None)}
    if op == "in" and val:
        try:
            return {col: (min(val), max(val))}
        except TypeError:
            return {}
    return {}  # != prunes nothing


def decode_store(store_dir: str, columns: list[str] | None = None,
                 zone_filter: dict | None = None,
                 predicate: tuple | None = None,
                 as_of: int | None = None,
                 block_ids: "set[str] | None" = None) -> ray.data.Dataset:
    """Decode an encoded store back to a Dataset (block-parallel).

    ``zone_filter`` prunes whole blocks using the footer's per-column
    min/max zone maps before any block is read — the engine's index
    (analog of the reference's tabix index + per-chrom min/max planning,
    howard/objects/variants.py:6290-6306). Example:
    ``zone_filter={"n_tok": (1000, None)}`` keeps only blocks whose n_tok
    range intersects [1000, inf); string columns compare lexically.

    ``predicate`` pushes a row filter ``(col, op, value)`` with op in
    ``== != < <= > >= in contains``, or a list of them (a conjunction),
    into the decode itself (the reference's WHERE-into-the-scan shape,
    howard/objects/variants.py:6290-6306): its implied min/max range
    prunes whole blocks via the footer, ``==``/``in``/``contains`` probe
    each surviving block's Bloom sidecar (when indexed) on the driver,
    then inside each remaining block only the predicate column is
    decoded, the row mask is evaluated on it, and the remaining columns
    are decoded ONLY when the mask matches at least one row (late
    materialization) — a no-match block costs one column decode, not a
    full-table decode.

    The read is planned on the driver (:func:`_plan_read`). A plan of
    exactly one block decodes in this process — Ray would run it as a
    single task anyway, so nothing parallel is given up and a point
    lookup skips the job's planning, scheduling and object-store round
    trip; two or more blocks decode as one Ray task per block.
    """
    preds: list[tuple] = ([predicate] if isinstance(predicate, tuple)
                          else list(predicate or []))
    items, eff_columns, fills = _plan_read(store_dir, columns, zone_filter,
                                           preds, as_of, block_ids)
    if not items:
        return _typed_empty(store_dir, eff_columns, as_of)
    decode = functools.partial(_decode_items, store_dir, eff_columns, fills,
                               preds)
    if len(items) == 1:
        return _decode_in_driver(items, decode)
    return _block_tasks(items, decode, 1)


def _bloom_survivors(store_dir: str, blocks: list[dict],
                     preds: list[tuple]) -> list[dict]:
    """``blocks`` minus those a Bloom sidecar proves hold no row for some
    ``==``/``in``/``contains`` predicate — one small sidecar read per
    indexed block, on the driver, before any decode is planned."""
    probes = [(c, list(v) if op == "in" else [v])
              for c, op, v in preds if op in ("==", "in", "contains")]
    if not probes:
        return blocks
    from .bloom import bloom_path, probe_file
    return [b for b in blocks
            if all(c not in (b.get("blooms") or {})
                   or probe_file(bloom_path(store_dir, b["blooms"][c]), vals)
                   for c, vals in probes)]


def _plan_read(store_dir: str, columns: list[str] | None,
               zone_filter: dict | None, preds: list[tuple],
               as_of: int | None, block_ids: "set[str] | None"
               ) -> tuple[list[dict], list[str] | None, dict | None]:
    """Plan a :func:`decode_store` read on the driver from metadata alone.

    Blocks are pruned in three stages: footer zone maps (the caller's
    ``zone_filter`` plus each predicate's implied range), then the
    explicit ``block_ids``/``as_of`` restriction, then the Bloom probes.
    Returns one item per block left to decode, the columns each decode
    emits (None: every logical column) and the typed-null fills for
    columns some blocks predate."""
    zones = dict(zone_filter or {})
    for p in preds:
        if p[1] not in _PRED_OPS:
            raise ValueError(f"unsupported predicate op {p[1]!r}")
        for c, rng in _predicate_zone(p).items():
            zones.setdefault(c, rng)
    # sharded footers prune whole shard files by their aggregate zone maps
    # before any block record is read (manifest.load_blocks); as_of reads
    # an archived snapshot footer instead (time travel — block files are
    # immutable, so any retained snapshot decodes exactly as written;
    # tombstones deliberately pierce snapshots: erasure deletes must not
    # be readable via time travel)
    blocks = load_blocks(store_dir, zones, as_of=as_of)
    # explicit plan-time block restriction (the zone-complete aggregate
    # pushdown decodes ONLY the blocks a WHERE conjunct straddles —
    # sqlmini._store_pushdown_aggregate answers the rest from the footer)
    if block_ids is not None:
        blocks = [b for b in blocks if b["block_id"] in block_ids]
    # ---- schema evolution on append (mixed-epoch column sets) ----
    # union schema in first-seen footer order; a block predating a
    # PREDICATE's column can match no row (NULL never satisfies ==/!=/
    # range/IN — the same SQL semantics the DuckDB oracle applies to the
    # union table), so it prunes at the driver for free
    union_cols = _union_columns(blocks)
    if preds:
        blocks = [b for b in blocks
                  if all(p[0] in (b.get("columns") or {}) for p in preds)]
    want = columns if columns is not None else union_cols
    divergent = [c for c in want
                 if any(c not in (b.get("columns") or {}) for b in blocks)]
    # missing columns decode as TYPED nulls — the type comes from one
    # header probe of a donor block, so every decode emits the same schema
    if divergent:
        try:
            fills = _column_type_hints(store_dir, blocks, divergent)
        except KeyError:
            # the donor epoch may be entirely zone-pruned from `blocks`;
            # probe the FULL block list before declaring the column
            # unknown (a truly unknown column still raises here)
            fills = _column_type_hints(
                store_dir, load_blocks(store_dir, as_of=as_of), divergent)
    else:
        fills = None
    eff_columns = (columns if (columns is not None or not divergent)
                   else union_cols)
    # the schema above is fixed from the zone-surviving blocks, so a
    # probabilistic Bloom prune can drop blocks but never change it
    blocks = _bloom_survivors(store_dir, blocks, preds)
    # tombstoned blocks are flagged at plan time (one driver-side listdir);
    # a decode loads only the tombstones of the blocks it reads
    tombs = list_tombstones(store_dir)
    items = [{"block_id": b["block_id"], "rmap": _block_rmap(b),
              "tomb": b["block_id"] in tombs} for b in blocks]
    return items, eff_columns, fills


def _union_columns(blocks: list[dict]) -> list[str]:
    """Logical column names of ``blocks`` in first-seen footer order."""
    seen: dict[str, None] = {}
    for b in blocks:
        seen.update(dict.fromkeys(b.get("columns") or {}))
    return list(seen)


def _typed_empty(store_dir: str, columns: list[str] | None,
                 as_of: int | None) -> ray.data.Dataset:
    """Every block pruned: a TYPED empty dataset (schema from donor-header
    probes) so downstream to_pandas/write_parquet and concat keep working
    instead of seeing a schema-less empty."""
    all_blocks = load_blocks(store_dir, as_of=as_of)
    want = columns if columns is not None else _union_columns(all_blocks)
    if not all_blocks or not want:
        return ray.data.from_items([]).map_batches(lambda b: b)
    th = _column_type_hints(store_dir, all_blocks, want)
    return ray.data.from_arrow(pa.table({c: pa.nulls(0, th[c]) for c in want}))


def _decode_in_driver(items: list[dict], decode) -> ray.data.Dataset:
    """A one-block plan: ``decode`` runs here, on the same one-item list a
    Ray task would get."""
    out = decode(items)
    if isinstance(out, pd.DataFrame):
        return ray.data.from_pandas(out)
    return ray.data.from_arrow(out)


def _decode_items(store_dir: str, columns: list[str] | None,
                  fills: dict | None, preds: list[tuple],
                  items: list[dict]) -> "pa.Table | pd.DataFrame":
    """Decode planned blocks (:func:`_plan_read` items) to one table of
    their live rows; with ``preds``, only the matching rows."""
    tables = []
    for it in items:
        bid, rmap, tomb = it["block_id"], it["rmap"], it["tomb"]
        if preds:
            t = _decode_block_where(store_dir, bid, rmap, tomb, columns,
                                    fills, preds)
        else:
            t = _read_logical_block(store_dir, bid, rmap, columns,
                                    fills=fills)
            t = _live_rows(store_dir, bid, t) if tomb else t
        if t is not None:
            tables.append(t)
    if tables and not tables[0].num_columns:
        # no column asked for (COUNT(*)): Ray counts a zero-column Arrow
        # block as empty, while a zero-column pandas frame keeps its rows
        return pd.DataFrame(index=range(sum(t.num_rows for t in tables)))
    return pa.concat_tables(tables) if tables else pa.table({})


def _decode_block_where(store_dir: str, bid: str, rmap: dict,
                        tomb: bool, columns: list[str] | None,
                        fills: dict | None,
                        preds: list[tuple]) -> pa.Table | None:
    """The rows of one block matching every predicate (a conjunction), or
    None when none does. Progressive decoding: one predicate column
    decodes at a time; the moment the combined mask empties, later
    predicate columns AND the payload are never decoded (multi-column
    late materialization)."""
    import pyarrow.compute as pc

    from .block import read_block_meta
    ext = rmap.get("ext") or {}
    ren = rmap.get("ren") or {}
    inv = {v: k for k, v in ren.items()}
    path = block_path(store_dir, bid)
    data = None

    def _col(col: str):
        nonlocal data
        if col in ext:  # derived column: its own sidecar file
            return read_block_file(
                os.path.join(store_dir, "blocks", ext[col])).column(0)
        if data is None:
            with sio.sopen(path, "rb") as f:
                data = f.read()
        # predicates name LOGICAL columns; decode the in-file name
        return decode_block(data, [inv.get(col, col)]).column(0)

    mask = None
    decoded_cols: dict[str, pa.ChunkedArray] = {}
    n_rows = None
    for col, op, val in preds:
        filt_col = decoded_cols.get(col)
        if filt_col is None:
            filt_col = _col(col)
            decoded_cols[col] = filt_col
            n_rows = len(filt_col)
        m = _pred_mask(filt_col, op, val)
        mask = m if mask is None else pc.and_(mask, m)
        if (pc.sum(mask.cast(pa.int8())).as_py() or 0) == 0:
            return None
    keep = _keep_mask(store_dir, bid, n_rows) if tomb else None
    if keep is not None:
        mask = pc.and_(mask, pa.array(keep))
    n_match = pc.sum(mask.cast(pa.int8())).as_py() or 0
    if n_match == 0:
        return None  # late-materialization win: rest never decoded
    if columns is not None:
        names = columns
    else:
        if data is None:
            with sio.sopen(path, "rb") as f:
                data = f.read()
        # full logical schema: base columns (renamed, minus dropped) then
        # every derived sidecar column
        drops = set(rmap.get("drop") or ())
        names = [ren.get(c, c) for c in read_block_meta(data)["columns"]
                 if c not in drops] + list(ext)
    rest = [c for c in names if c not in decoded_cols]
    if rest or not names:  # no names: a zero-column row count
        t = _read_logical_block(store_dir, bid, rmap, rest, fills=fills)
        for col in names:
            if col in decoded_cols:
                t = t.append_column(col, decoded_cols[col])
    else:  # every requested column was already predicate-decoded
        t = pa.table({c: decoded_cols[c] for c in names})
    t = t.select(names)  # caller's column order
    return t.filter(mask) if n_match < n_rows else t


def read_changes(store_dir: str, since_snapshot: int,
                 columns: list[str] | None = None,
                 predicate: "tuple | list | None" = None,
                 until_snapshot: int | None = None
                 ) -> ray.data.Dataset:
    """Incremental change feed (the Iceberg incremental-consumer read): a
    lazy Dataset of exactly the rows ADDED to the store after retained
    snapshot ``since_snapshot`` — the live footer's blocks minus the
    snapshot's, decoded block-parallel with current tombstones applied.
    A downstream consumer re-processes only each delivery's delta instead
    of rescanning a 100-TB store.

    The feed is additive-only by design: row deletes are erasure and
    pierce history (never replayed), and a REWRITE between the snapshots
    (compact / purge / alter fold — anything that removes a then-live
    block record) raises instead of silently replaying rewritten rows.
    Appends, derives, Bloom builds and deletes never remove block records,
    so the common ingest cadence (encode → append → append …) always has
    a valid feed between consecutive snapshots."""
    old_ids = {b["block_id"] for b in load_blocks(store_dir,
                                                  as_of=since_snapshot)}
    # until_snapshot pins the feed's upper bound (consumers record the
    # snapshot they fold; an unpinned live read double-counts an append
    # landing between the consumer's footer read and this diff)
    live = load_blocks(store_dir, as_of=until_snapshot)
    live_ids = {b["block_id"] for b in live}
    removed = old_ids - live_ids
    if removed:
        raise ValueError(
            f"change feed from snapshot {since_snapshot} is broken: "
            f"{len(removed)} block(s) were rewritten since (compact/purge/"
            f"alter); re-baseline the consumer from a full scan")
    new_ids = live_ids - old_ids
    return decode_store(store_dir, columns=columns, block_ids=new_ids,
                        predicate=predicate, as_of=until_snapshot)


def _swap_footer(store_dir: str, footer: dict, records: list[dict],
                 removed: list[dict], **extra) -> dict:
    """The one destructive footer swap shared by compaction, purge and
    recluster: publish ``records`` with the prior footer's extras (updated
    by ``extra``; write_footer strips the structural keys), expire every
    snapshot that references a ``removed`` block (time travel does not
    cross destructive maintenance), then delete each removed block's file,
    tombstone, derived sidecars and Bloom filters. Crash-safe: before the
    swap the old footer still describes the store; after it the removed
    files are unreferenced garbage, never corruption."""
    new_footer = write_footer(store_dir, records, extra={**footer, **extra})
    expire_snapshots(store_dir, {b["block_id"] for b in removed})
    for b in removed:
        bid = b["block_id"]
        for path in (block_path(store_dir, bid),
                     tombstone_path(store_dir, bid),
                     *(os.path.join(store_dir, "blocks", f)
                       for f in (b.get("ext_files") or {}).values()),
                     *(os.path.join(store_dir, "blooms", f)
                       for f in (b.get("blooms") or {}).values())):
            try:
                sio.remove(path)
            except OSError:
                pass
    return new_footer


def compact_store(store_dir: str, *, target_rows: int | None = None,
                  min_fill: float = 0.5, profile: str = "standard") -> dict:
    """Merge undersized tail blocks into full blocks (reference analog:
    dask re-split of mis-sized store files, functions/databases.py:2245-2253,
    inverted — we merge instead of split).

    Skewed sources and salted groups leave each (source, salt) group with an
    undersized tail block; at 10^7 blocks that is millions of tiny files and
    footer entries. Compaction plans on the DRIVER from the footer alone
    (no data read), merges runs of ADJACENT undersized blocks of the same
    source as parallel Ray tasks (decode members → concat → re-encode), and
    then atomically swaps the footer. Old block files are deleted only after
    the new footer is durable, so a crash at ANY point leaves a readable
    store: before the swap the old footer still references only old files;
    after it, only new+kept ones (stale files are garbage, not corruption).

    Returns {n_blocks_before, n_blocks_after, merged, created,
    encoded_bytes_before, encoded_bytes_after}.
    """
    footer = load_footer(store_dir)
    blocks = footer["blocks"]
    if target_rows is None:
        target_rows = max((b["n_rows"] for b in blocks), default=TARGET_ROWS_PER_BLOCK)
    thresh = max(1, int(target_rows * min_fill))
    # fill is judged on LIVE rows: a block hollowed out by tombstone deletes
    # is a merge candidate even if it was written full, so compaction both
    # fixes sizing AND folds accumulated deletes into real bytes reclaimed
    tombs = list_tombstones(store_dir)
    live = {bid: None for bid in tombs}
    for b in blocks:
        bid = b["block_id"]
        if bid in tombs:
            idx = load_tombstone(store_dir, bid)
            live[bid] = b["n_rows"] - (0 if idx is None else len(idx))

    # plan: bin-pack the undersized blocks in FOOTER order (sorted by
    # sort_key, so same-source tails are adjacent and merge together first;
    # the long tail of tiny sources merges across sources — the merged
    # block's source zone map widens to a lexical range, which costs one
    # extra candidate block on a source-predicate read but removes the
    # unbounded tiny-file/footer-entry growth at 10^7+ blocks)
    bins: list[list[dict]] = []
    cur: list[dict] = []
    cur_rows = 0

    def close() -> None:
        nonlocal cur, cur_rows
        if len(cur) > 1:
            bins.append(cur)
        cur, cur_rows = [], 0

    for b in blocks:
        n_live = live.get(b["block_id"])
        if n_live is None:
            n_live = b["n_rows"]
        if n_live >= thresh:
            continue  # full (live) block: never touched, never resets the bin
        if cur and cur_rows + n_live > target_rows:
            close()
        cur.append(b)
        cur_rows += n_live
    close()

    before = {"n_blocks": footer["n_blocks"],
              "encoded_bytes": footer["encoded_bytes"]}
    if not bins:
        return {**{f"{k}_before": v for k, v in before.items()},
                "n_blocks_after": footer["n_blocks"],
                "encoded_bytes_after": footer["encoded_bytes"],
                "merged": 0, "created": 0}

    items = [{"members": [[b["block_id"], _block_rmap(b)] for b in bin_],
              "sort_key": str(bin_[0].get("sort_key", ""))} for bin_ in bins]

    def merge_bin(item: dict) -> list[dict]:
        member_ids = [bid for bid, _ in item["members"]]
        # derived sidecars, renames and drops fold PHYSICALLY into the
        # merged base block (metadata-only schema evolution is materialized
        # by normal maintenance); deletes survive compaction: merged blocks
        # are built from the LIVE rows only, and the members' tombstones die
        # with the member files after the footer swap
        tables = [_live_rows(store_dir, bid,
                             _read_logical_block(store_dir, bid, rmap))
                  for bid, rmap in item["members"]]
        if len({tuple(t.schema.names) for t in tables}) > 1:
            # mixed-epoch bin (schema evolution on append): normalize every
            # member to the union schema with typed-null fills —
            # pa.concat_tables inside _encode_tables_to_blocks rejects
            # differing column sets/orders outright
            order: list[str] = []
            types: dict = {}
            for t in tables:
                for f in t.schema:
                    if f.name not in types:
                        types[f.name] = f.type
                        order.append(f.name)
            tables = [pa.table({
                c: (t[c].cast(types[c]) if c in t.schema.names
                    else pa.nulls(t.num_rows, types[c]))
                for c in order}) for t in tables]
        # 128-bit id: at 10^7-block scale a 32-bit crc would collide
        # (~birthday at 2^16 bins) and silently overwrite a merged block
        import hashlib
        digest = hashlib.blake2b('|'.join(member_ids).encode(),
                                 digest_size=16).hexdigest()
        return _encode_tables_to_blocks(
            tables, store_dir, f"cpt-{digest}", sort_key=item["sort_key"],
            target_rows=target_rows, completed={},
            input_info="compact:" + ",".join(member_ids), profile=profile)

    new_records = _map_blocks(items, merge_bin, 1)

    merged = [b for bin_ in bins for b in bin_]
    merged_ids = {b["block_id"] for b in merged}
    kept = [b for b in blocks if b["block_id"] not in merged_ids]
    new_footer = _swap_footer(store_dir, footer, kept + new_records, merged)
    return {"n_blocks_before": before["n_blocks"],
            "encoded_bytes_before": before["encoded_bytes"],
            "n_blocks_after": new_footer["n_blocks"],
            "encoded_bytes_after": new_footer["encoded_bytes"],
            "merged": len(merged_ids), "created": len(new_records)}


def _zorder_key(batch: pa.Table, cols: list[str],
                ranges: dict[str, tuple]) -> np.ndarray:
    """Morton (Z-order) key: each column is scaled to a 16-bit bucket using
    its GLOBAL [min, max] from the footer stats, then the buckets'
    bits interleave — locality in the key means locality in EVERY input
    column, so one physical sort gives all of them selective zone maps."""
    bits = 16
    parts = []
    for c in cols:
        v = np.asarray(batch[c], dtype=np.float64)
        mn, mx = ranges[c]
        span = (mx - mn) or 1
        parts.append(((v - mn) * ((1 << bits) - 1) / span)
                     .astype(np.uint64))
    key = np.zeros(batch.num_rows, dtype=np.uint64)
    for bit in range(bits):
        for j, p in enumerate(parts):
            key |= ((p >> np.uint64(bit)) & np.uint64(1)) \
                << np.uint64(bit * len(parts) + j)
    return key


def recluster_store(store_dir: str, by: "str | list[str]", *,
                    target_rows: int | None = None,
                    zorder: bool = False,
                    profile: str = "standard") -> dict:
    """OPTIMIZE-style physical re-sort (the Z-ORDER/CLUSTER BY idea, one
    dimension): rewrite the whole store ordered by ``by`` so that column's
    per-block zone maps become tight disjoint ranges — after reclustering,
    a range or point predicate on ``by`` prunes to O(matching blocks)
    instead of scanning, and the grouped/pushdown metadata fast paths in
    the SQL layer start firing for it.

    One distributed sort (range-partitioned, THE one legitimate all-to-all
    here), then a streaming re-encode of the sorted run. All metadata
    evolution folds physically: logical rows (renames applied, derived
    sidecars materialized, tombstones dropped) become plain base columns.
    Crash-safe like compaction: new blocks are written first, the footer
    swap is atomic, and only then do the old files (plus their tombstones,
    sidecars, Bloom filters — stale for the new layout) become garbage."""
    footer = load_footer(store_dir)
    old = footer["blocks"]
    if not old:
        return {"n_blocks_before": 0, "n_blocks_after": 0}
    if target_rows is None:
        target_rows = max(b["n_rows"] for b in old)
    cols = [by] if isinstance(by, str) else list(by)

    ds = decode_store(store_dir)
    if zorder:
        if len(cols) < 2:
            raise ValueError("zorder needs >= 2 columns")
        # global per-column ranges come free from the footer zone maps
        ranges = {}
        for c in cols:
            sts = [((b.get("columns") or {}).get(c) or {}).get("stats") or {}
                   for b in old]
            if any("min" not in s for s in sts):
                raise ValueError(f"zorder column {c!r} has no zone stats")
            ranges[c] = (min(s["min"] for s in sts),
                         max(s["max"] for s in sts))

        def add_z(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "__z", pa.array(_zorder_key(batch, cols, ranges)))

        ds = ds.map_batches(add_z, batch_format="pyarrow").sort("__z")
    else:
        ds = ds.sort(cols if len(cols) > 1 else cols[0])
    key0 = cols[0]

    def encode_sorted(batch: pa.Table) -> pa.Table:
        import hashlib

        if batch.num_rows == 0:  # all-tombstoned member decodes empty
            return _records_table([])
        skey = "__z" if "__z" in batch.column_names else key0
        # content mix disambiguates batches whose (first, last, count)
        # coincide — guaranteed for any duplicate-heavy sort key (all-
        # 'web' full batches), where first=last and count=target_rows
        digest = hashlib.blake2b(
            f"{batch[skey][0].as_py()}|"
            f"{batch[skey][batch.num_rows - 1].as_py()}|"
            f"{batch.num_rows}|{_batch_mix(batch)[0]:016x}".encode(),
            digest_size=16).hexdigest()
        if skey == "__z":
            batch = batch.drop_columns(["__z"])
        first = batch[key0][0].as_py()
        recs = _encode_tables_to_blocks(
            [batch], store_dir, f"rcl-{digest}",
            sort_key=str(first), target_rows=target_rows, completed={},
            input_info=f"recluster:{','.join(cols)}", profile=profile)
        return _records_table(recs)

    new_records = _collect_records(ds.map_batches(
        encode_sorted, batch_size=target_rows, batch_format="pyarrow"))

    # derived sidecars and renames are now materialized base columns; the
    # evolution metadata must not survive into the reclustered footer
    new_footer = _swap_footer(
        store_dir, {k: v for k, v in footer.items() if k != "derived_cols"},
        new_records, old,
        clustered_by=cols if not zorder else {"zorder": cols})
    return {"n_blocks_before": len(old),
            "n_blocks_after": new_footer["n_blocks"],
            "n_rows": new_footer["n_rows"],
            "encoded_bytes_after": new_footer["encoded_bytes"],
            "clustered_by": cols if not zorder else {"zorder": cols}}


def recluster_incremental(store_dir: str, by: str, *,
                          target_rows: int | None = None,
                          profile: str = "standard") -> dict:
    """Partial OPTIMIZE: restore the clustering invariant (pairwise-
    disjoint per-block key ranges) by rewriting ONLY the blocks whose key
    ranges overlap — cost proportional to the DISORDER, not the store.

    After appends dirty a clustered store, the delta's blocks overlap a
    handful of base blocks; a sweep over the footer's min/max (pure
    metadata, no reads) merges overlapping ranges into components,
    singleton components keep their block record untouched (per-block
    rmaps / sidecars / tombstones intact), and multi-block components
    decode → sort → re-encode in ONE streaming pass. Component intervals
    are disjoint by construction, so the globally-sorted rewrite stream
    never interleaves components; each encode batch additionally SPLITS at
    component upper bounds so no new block straddles a gap that holds a
    kept block. The result is a fully disjoint layout — same invariant as
    a full :func:`recluster_store` — for a fraction of the writes (the
    Iceberg partial-OPTIMIZE idea on this store).

    Rewritten blocks' tombstones and sidecars fold physically; kept
    blocks' stay valid on disk. Crash-safe like compaction: new files
    first, atomic footer swap, old files GC'd after."""
    footer = load_footer(store_dir)
    old = footer["blocks"]
    if not old:
        return {"n_blocks_before": 0, "n_blocks_rewritten": 0}
    stats = [((b.get("columns") or {}).get(by) or {}).get("stats") or {}
             for b in old]
    if any("min" not in s or "max" not in s for s in stats):
        raise ValueError(f"column {by!r} lacks zone stats on some blocks; "
                         "run a full recluster_store instead")
    if target_rows is None:
        target_rows = max(b["n_rows"] for b in old)

    # metadata-only sweep: merge STRICTLY overlapping [min,max] into
    # components. Touching ranges (next.min == prior.max) are left alone:
    # duplicate keys at sort-partition boundaries make them unavoidable,
    # they cost a point query at most one extra block, and treating them
    # as disorder would make every pass rewrite tie-adjacent blocks again.
    order = sorted(range(len(old)), key=lambda i: (stats[i]["min"],
                                                   stats[i]["max"]))
    comps: list[list[int]] = []
    cur_hi = None
    for i in order:
        if comps and stats[i]["min"] < cur_hi:
            comps[-1].append(i)
            cur_hi = max(cur_hi, stats[i]["max"])
        else:
            comps.append([i])
            cur_hi = stats[i]["max"]
    rewrite = [i for comp in comps for i in comp if len(comp) > 1]
    if not rewrite:
        write_footer(store_dir, old, extra={**footer, "clustered_by": [by]})
        return {"n_blocks_before": len(old), "n_blocks_rewritten": 0,
                "n_blocks_after": len(old), "n_rows": footer["n_rows"],
                "clustered_by": [by]}
    rewrite_ids = {old[i]["block_id"] for i in rewrite}
    kept = [b for b in old if b["block_id"] not in rewrite_ids]
    # component upper bounds: encode batches split here so no new block
    # spans a gap that may hold a kept block
    uppers = sorted(max(stats[i]["max"] for i in comp)
                    for comp in comps if len(comp) > 1)

    ds = decode_store(store_dir, block_ids=rewrite_ids).sort(by)

    def encode_sorted(batch: pa.Table) -> pa.Table:
        import bisect
        import hashlib

        if batch.num_rows == 0:  # all-tombstoned member decodes empty
            return _records_table([])
        keys = batch[by].to_pylist()
        # cut at every component upper bound that falls inside this batch
        cuts, lo = [0], bisect.bisect_left(uppers, keys[0])
        for ub in uppers[lo:]:
            if ub >= keys[-1]:
                break
            cuts.append(int(np.searchsorted(np.asarray(keys), ub,
                                            side="right")))
        cuts.append(batch.num_rows)
        recs = []
        for a, b_ in zip(cuts, cuts[1:]):
            if a == b_:
                continue
            piece = batch.slice(a, b_ - a)
            digest = hashlib.blake2b(
                f"{keys[a]}|{keys[b_ - 1]}|{piece.num_rows}|"
                f"{_batch_mix(piece)[0]:016x}".encode(),
                digest_size=16).hexdigest()
            recs += _encode_tables_to_blocks(
                [piece], store_dir, f"rci-{digest}",
                sort_key=str(keys[a]), target_rows=target_rows,
                completed={}, input_info=f"recluster_incremental:{by}",
                profile=profile)
        return _records_table(recs)

    new_records = _collect_records(ds.map_batches(
        encode_sorted, batch_size=target_rows, batch_format="pyarrow"))

    new_footer = _swap_footer(
        store_dir, footer, kept + new_records,
        [b for b in old if b["block_id"] in rewrite_ids], clustered_by=[by])
    return {"n_blocks_before": len(old),
            "n_blocks_rewritten": len(rewrite_ids),
            "n_blocks_after": new_footer["n_blocks"],
            "n_rows": new_footer["n_rows"],
            "clustered_by": [by]}


def export_sorted(store_dir: str, by: str, out_dir: str, *,
                  columns: list[str] | None = None) -> dict:
    """Globally key-ordered parquet export WITHOUT a sort: on a store
    clustered by ``by`` (block key ranges non-overlapping — touching is
    fine, ties across a boundary still yield non-decreasing output), the
    global order is the footer order. Each block becomes one Ray task
    that decodes itself (tombstones applied), LOCALLY sorts by the key,
    and writes ``part-{rank:05d}.parquet`` — the shard filename encodes
    the block's global rank, so reading the files in name order IS the
    sorted dataset. Zero shuffle, no ordering dependency on Ray's output
    order; at 100 TB the export cost is one pass over the blocks.

    Refuses (pointing at recluster) when blocks strictly overlap — a
    silent wrong order would be worse than the error."""
    footer = load_footer(store_dir)
    blocks = load_blocks(store_dir, footer=footer)
    if not blocks:
        return {"files": 0, "rows": 0}
    stats = [((b.get("columns") or {}).get(by) or {}).get("stats") or {}
             for b in blocks]
    if any("min" not in s or "max" not in s for s in stats):
        raise ValueError(f"column {by!r} lacks zone stats on some blocks")
    order = sorted(range(len(blocks)),
                   key=lambda i: (stats[i]["min"], stats[i]["max"]))
    cur_hi = None
    for i in order:
        if cur_hi is not None and stats[i]["min"] < cur_hi:
            raise ValueError(
                f"store is not clustered on {by!r} (blocks overlap); run "
                f"recluster_store / recluster_incremental first")
        cur_hi = stats[i]["max"]
    sio.makedirs(out_dir)
    tombs = list_tombstones(store_dir)
    # honor the caller's column selection VERBATIM: the local sort needs
    # `by`, so it is decoded when not asked for and dropped after the
    # sort — injecting it would hand positional downstream readers an
    # unrequested schema
    cols = list(columns) if columns is not None else None
    read_cols = cols if cols is None or by in cols else cols + [by]
    items = [{"rank": r, "block_id": blocks[i]["block_id"],
              "rmap": _block_rmap(blocks[i]),
              "tomb": blocks[i]["block_id"] in tombs}
             for r, i in enumerate(order)]

    def export_one(item: dict) -> list[dict]:
        import pyarrow.parquet as pq_mod
        bid = item["block_id"]
        t = _read_logical_block(store_dir, bid, item["rmap"], read_cols)
        if item["tomb"]:
            t = _live_rows(store_dir, bid, t)
        t = t.sort_by(by)
        if read_cols is not cols:
            t = t.select(cols)
        path = os.path.join(out_dir, f"part-{item['rank']:05d}.parquet")
        lp = sio.local_path(path)
        if lp is not None:
            pq_mod.write_table(t, lp + ".tmp", compression="zstd")
        else:
            import io as _io
            buf = _io.BytesIO()
            pq_mod.write_table(t, buf, compression="zstd")
            with sio.sopen(path + ".tmp", "wb") as f:
                f.write(buf.getvalue())
        sio.replace(path + ".tmp", path)
        return [{"rows": t.num_rows}]

    rows = sum(r["rows"] for r in _map_blocks(items, export_one, 1))
    return {"files": len(items), "rows": rows, "by": by, "out_dir": out_dir}


def delete_where(store_dir: str, predicate: tuple) -> dict:
    """Row-level delete: mark every row matching ``predicate``
    (``(col, op, value)``, same ops as :func:`decode_store`) as deleted via
    per-block tombstones. Blocks stay immutable — the delete writes
    O(matched rows) bytes into ``tombstones/`` and every subsequent decode,
    compaction and purge honors them. The scan is planned like a read
    (:func:`_plan_read`): zone maps, and for ``==``/``in``/``contains`` the
    Bloom sidecars, prune the blocks that cannot match, so only the rest
    decode even one column.

    Idempotent (re-running unions into the same index sets) and atomic per
    block (tmp+rename); a killed delete leaves some blocks deleted and
    others not — rerun to converge. Physical reclamation is
    :func:`purge_deletes`."""
    col, op, val = predicate
    items = _plan_read(store_dir, [col], None, [predicate], None, None)[0]
    if not items:
        blocks = load_blocks(store_dir)
        if blocks and not any(col in (b.get("columns") or {})
                              for b in blocks):
            raise ValueError(f"delete: column {col!r} does not exist")
        return {"n_blocks_scanned": 0, "n_deleted_new": 0}

    def scan(item: dict) -> list[dict]:
        bid = item["block_id"]
        filt_col = _read_logical_block(store_dir, bid, item["rmap"],
                                       [col])[col]
        idx = np.flatnonzero(_pred_mask(filt_col, op, val)
                             .to_numpy(zero_copy_only=False).astype(bool))
        prior = load_tombstone(store_dir, bid)
        n_prior = 0 if prior is None else len(prior)
        if len(idx):
            merged = idx if prior is None else \
                np.union1d(prior, idx.astype(np.uint32))
            if len(merged) != n_prior:
                write_tombstone(store_dir, bid, merged)
                return [{"n_new": len(merged) - n_prior}]
        return [{"n_new": 0}]

    res = _map_blocks(items, scan, 8)
    return {"n_blocks_scanned": len(res),
            "n_deleted_new": sum(r["n_new"] for r in res)}


def purge_deletes(store_dir: str, profile: str = "standard") -> dict:
    """Physically reclaim deleted rows: every tombstoned block is rewritten
    without its dead rows (fully-deleted blocks drop entirely), the footer
    swaps atomically, then the superseded files and tombstones are removed.
    Same crash contract as compaction: before the swap the old footer +
    tombstones still describe the store exactly; after it, only live rows
    exist physically."""
    import hashlib

    footer = load_footer(store_dir)
    blocks = load_blocks(store_dir, footer=footer)
    tombs = list_tombstones(store_dir)
    doomed = [b for b in blocks if b["block_id"] in tombs]
    if not doomed:
        return {"n_blocks_rewritten": 0, "n_rows_purged": 0}
    items = [{"block_id": b["block_id"], "sort_key": b.get("sort_key", ""),
              "rmap": _block_rmap(b)} for b in doomed]

    def rewrite(item: dict) -> list[dict]:
        bid = item["block_id"]
        # derived sidecars / renames / drops fold into the rewrite
        t = _read_logical_block(store_dir, bid, item["rmap"])
        live = _live_rows(store_dir, bid, t)
        recs = []
        if live.num_rows:
            digest = hashlib.blake2b(bid.encode(), digest_size=16).hexdigest()
            recs = _encode_tables_to_blocks(
                [live], store_dir, f"prg-{digest}", sort_key=item["sort_key"],
                target_rows=max(live.num_rows, 1), completed={},
                input_info=f"purge:{bid}", profile=profile)
        return recs + [{"__purged__": bid, "n": t.num_rows - live.num_rows}]

    raw = _map_blocks(items, rewrite, 1)
    new_records = [r for r in raw if "__purged__" not in r]
    purged_rows = sum(r["n"] for r in raw if "__purged__" in r)

    doomed_ids = {b["block_id"] for b in doomed}
    kept = [b for b in blocks if b["block_id"] not in doomed_ids]
    new_footer = _swap_footer(store_dir, footer, kept + new_records, doomed)
    return {"n_blocks_rewritten": len(doomed_ids),
            "n_rows_purged": purged_rows,
            "n_blocks_after": new_footer["n_blocks"],
            "n_rows_after": new_footer["n_rows"]}


def store_total_bytes(store_dir: str) -> int:
    """Total on-disk size of blocks + manifest + footer (the honest number
    compared against Parquet+zstd in the size gate)."""
    total = 0
    for path in sio.walk_files(store_dir):
        if not path.endswith(".tmp"):
            total += sio.getsize(path)
    return total
