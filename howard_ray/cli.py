"""CLI — the reference's tool surface (howard process / convert / query /
stats, /root/reference/howard/main.py:120-274) mapped to the Ray engine.

Subcommands:
  encode   input.parquet -> encoded block store      (flagship pipeline)
  decode   store -> parquet                          (decode path; --where pushdown)
  compact  merge undersized tail blocks in a store   (databases.py:2245-2253 inverted)
  convert  input -> output in another format         (tools/convert.py:25-74)
  stats    store -> metrics report                   (variants.py:570-790 analog)
  query    run a named operator from the library     (tools/query.py)

Owns its Ray session (guarded init — the driver contract forbids init only
inside __ray_entry__ and the library)."""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_init(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "ignore_reinit_error": True, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    return ray


def cmd_encode(args) -> int:
    from .pipeline import encode_dataset

    footer = encode_dataset(args.input, args.store, mode=args.mode,
                            target_rows=args.target_rows, resume=not args.no_resume)
    print(json.dumps({k: footer[k] for k in
                      ("n_blocks", "n_rows", "encoded_bytes", "raw_bytes",
                       "wall_sec", "throughput_gbps", "mode")}))
    return 0


def cmd_append(args) -> int:
    from .pipeline import append_to_store

    footer = append_to_store(args.store, args.input, mode=args.mode,
                             target_rows=args.target_rows)
    print(json.dumps({k: footer[k] for k in
                      ("n_blocks", "n_rows", "encoded_bytes", "raw_bytes",
                       "append_epoch", "wall_sec", "throughput_gbps")}))
    return 0


def cmd_delete(args) -> int:
    from .pipeline import delete_where

    pred = _parse_where(args.where)
    if pred is None:
        raise SystemExit("delete requires --where 'col OP value'")
    print(json.dumps(delete_where(args.store, pred)))
    return 0


def cmd_purge(args) -> int:
    from .pipeline import purge_deletes

    print(json.dumps(purge_deletes(args.store)))
    return 0


def cmd_derive(args) -> int:
    """Schema evolution from the CLI: the derived expression is a
    calculation spec (plugins.py JSON grammar, the reference's
    calculations_config shape) evaluated per block over its input
    columns; no base block is rewritten."""
    from .plugins import _eval_spec
    from .pipeline import derive_column

    spec = json.loads(args.spec)
    name = spec.pop("name", None) or args.name
    if not name:
        raise SystemExit("derive requires a column name "
                         "(--name or \"name\" in --spec)")
    inputs = args.inputs.split(",") if args.inputs else None

    def fn(t):
        import pyarrow as _pa
        v = _eval_spec(spec, t)
        if isinstance(v, _pa.Scalar):  # const spec -> broadcast
            v = _pa.array([v.as_py()] * t.num_rows)
        return v

    print(json.dumps(derive_column(args.store, name, fn,
                                   input_columns=inputs)))
    return 0


def _parse_where(expr: str | None) -> tuple | None:
    """``col:op:value`` → decode_store predicate (value auto-typed)."""
    if not expr:
        return None
    from .pipeline import _PRED_OPS
    parts = expr.split(":", 2)
    if len(parts) != 3 or not parts[0] or parts[1] not in _PRED_OPS:
        raise SystemExit(f"--where wants col:op:value with op one of "
                         f"{' '.join(_PRED_OPS)}; got {expr!r}")
    col, op, raw = parts

    def coerce(v: str):
        try:
            return int(v)
        except ValueError:
            try:
                return float(v)
            except ValueError:
                return v

    if op == "in":
        vals = [coerce(v) for v in raw.split(",")]
        # Arrow value sets must be homogeneous: if any member is float,
        # promote the ints ('1.5,2' -> [1.5, 2.0]); mixed string/number
        # stays as given and will raise a clear Arrow type error
        if any(isinstance(v, float) for v in vals) \
                and all(isinstance(v, (int, float)) for v in vals):
            vals = [float(v) for v in vals]
        return (col, op, vals)
    return (col, op, coerce(raw))


def cmd_decode(args) -> int:
    from .pipeline import decode_store

    wh = args.where if isinstance(args.where, list) else \
        ([args.where] if args.where else [])
    preds = [_parse_where(w) for w in wh]
    ds = decode_store(args.store, columns=args.columns,
                      predicate=preds or None,
                      as_of=args.as_of)
    ds.write_parquet(args.output)
    # row count from the WRITTEN parquet footers (metadata-only): ds.count()
    # on the lazy Dataset would re-run the whole decode pipeline a second time
    import pyarrow.parquet as pq
    n = 0
    if os.path.isdir(args.output):  # an all-pruned decode writes nothing
        n = sum(pq.ParquetFile(os.path.join(args.output, f)).metadata.num_rows
                for f in os.listdir(args.output) if f.endswith(".parquet"))
    print(json.dumps({"rows": n, "output": args.output}))
    return 0


def cmd_alter(args) -> int:
    from .pipeline import alter_store
    rename = {}
    for spec in args.rename or []:
        old, _, new = spec.partition("=")
        if not new:
            raise SystemExit(f"--rename wants old=new, got {spec!r}")
        rename[old] = new
    print(json.dumps(alter_store(args.store, rename=rename,
                                 drop=args.drop or [])))
    return 0


def cmd_upsert(args) -> int:
    from .pipeline import upsert_to_store
    print(json.dumps(upsert_to_store(args.store, args.input, key=args.key,
                                     target_rows=args.target_rows)))
    return 0


def cmd_scrub(args) -> int:
    from .pipeline import scrub_store
    res = scrub_store(args.store, deep=not args.shallow)
    print(json.dumps(res, indent=1))
    return 0 if not res["damaged"] else 1


def cmd_bloom(args) -> int:
    from .pipeline import build_bloom_index
    print(json.dumps(build_bloom_index(args.store, args.column,
                                       bits_per_key=args.bits_per_key)))
    return 0


def cmd_vacuum(args) -> int:
    from .pipeline import vacuum_store
    print(json.dumps(vacuum_store(args.store)))
    return 0


def cmd_changes(args) -> int:
    from .pipeline import read_changes

    ds = read_changes(args.store, args.since, columns=args.columns)
    ds.write_parquet(args.output)
    import pyarrow.parquet as pq
    n = 0
    if os.path.isdir(args.output):  # no new blocks -> nothing written
        n = sum(pq.ParquetFile(os.path.join(args.output, f)).metadata.num_rows
                for f in os.listdir(args.output) if f.endswith(".parquet"))
    print(json.dumps({"rows": n, "since_snapshot": args.since,
                      "output": args.output}))
    return 0


def cmd_export_sorted(args) -> int:
    from .pipeline import export_sorted
    print(json.dumps(export_sorted(args.store, args.by, args.output,
                                   columns=args.columns)))
    return 0


def cmd_view(args) -> int:
    from .view import create_view, read_view, refresh_view

    if args.action == "create":
        aggs = {k: tuple(v) for k, v in json.loads(args.aggs).items()}
        wh = [_parse_where(w) for w in (args.where or [])]
        print(json.dumps(create_view(args.store, args.view_dir,
                                     args.group_by, aggs,
                                     where=wh or None)))
    elif args.action == "refresh":
        print(json.dumps(refresh_view(args.view_dir)))
    else:  # read
        print(read_view(args.view_dir).to_string(index=False))
    return 0


def cmd_snapshots(args) -> int:
    from .manifest import list_snapshots
    print(json.dumps(list_snapshots(args.store), indent=1))
    return 0


def cmd_recluster(args) -> int:
    from .pipeline import recluster_incremental, recluster_store

    by = args.by[0] if len(args.by) == 1 else args.by
    if args.incremental:
        if not isinstance(by, str):
            raise SystemExit("--incremental reclusters by ONE column")
        print(json.dumps(recluster_incremental(
            args.store, by, target_rows=args.target_rows)))
        return 0
    print(json.dumps(recluster_store(args.store, by,
                                     target_rows=args.target_rows,
                                     zorder=args.zorder)))
    return 0


def cmd_compact(args) -> int:
    from .pipeline import compact_store

    print(json.dumps(compact_store(args.store, target_rows=args.target_rows,
                                   min_fill=args.min_fill)))
    return 0


def cmd_convert(args) -> int:
    from .sources import read_any, write_any

    ds = read_any(args.input, columns=args.columns)
    sidecar = write_any(ds, args.output, fmt=args.format,
                        partition_cols=args.partition_by)
    print(json.dumps(sidecar))
    return 0


def cmd_stats(args) -> int:
    from .stats import store_report

    print(json.dumps(store_report(args.store), indent=1))
    return 0


def cmd_query(args) -> int:
    from .ops import all_queries

    q = all_queries()
    if args.name not in q:
        print(f"unknown operator {args.name}; available: {sorted(q)}",
              file=sys.stderr)
        return 2
    res = q[args.name](args.sf_dir)
    import ray.data
    if isinstance(res, ray.data.Dataset):
        res = res.to_pandas()
    print(res.head(args.limit).to_string())
    return 0


def cmd_sql(args) -> int:
    from .sqlmini import explain_sql, run_sql

    if args.explain:
        print(json.dumps(explain_sql(args.sf_dir, args.statement,
                                     tables_dir=args.tables_dir), indent=1))
        return 0
    out = run_sql(args.sf_dir, args.statement,
                  tables_dir=args.tables_dir, as_of=args.as_of)
    print(out.head(args.limit).to_string())
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="howard-ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    e = sub.add_parser("encode")
    e.add_argument("input")
    e.add_argument("store")
    e.add_argument("--mode",
                   choices=["auto", "stream", "cluster", "cluster-exchange"],
                   default="auto")
    e.add_argument("--target-rows", type=int, default=None)
    e.add_argument("--no-resume", action="store_true")
    e.set_defaults(fn=cmd_encode)

    ap = sub.add_parser("append", help="incremental ingest: encode new rows "
                        "into an existing store as a fresh append epoch")
    ap.add_argument("store")
    ap.add_argument("input")
    ap.add_argument("--mode",
                   choices=["auto", "stream", "cluster", "cluster-exchange"],
                    default="cluster")
    ap.add_argument("--target-rows", type=int, default=None)
    ap.set_defaults(fn=cmd_append)

    d = sub.add_parser("decode")
    d.add_argument("store")
    d.add_argument("output")
    d.add_argument("--columns", nargs="*", default=None)
    d.add_argument("--where", default=None, action="append",
                   help="pushdown row filter col:op:value (op: == != < <= > >= in; "
                        "in takes comma-separated values). Repeatable: "
                        "multiple filters AND together and decode "
                        "progressively inside the scan")
    d.add_argument("--as-of", type=int, default=None, dest="as_of",
                   help="decode an archived snapshot id (time travel; "
                        "see the snapshots subcommand)")
    d.set_defaults(fn=cmd_decode)

    rc = sub.add_parser("recluster", help="OPTIMIZE: physically re-sort "
                        "the store by a column so its zone maps prune")
    rc.add_argument("store")
    rc.add_argument("by", nargs="+")
    rc.add_argument("--target-rows", type=int, default=None)
    rc.add_argument("--incremental", action="store_true",
                    help="partial OPTIMIZE: rewrite only blocks whose key "
                         "ranges overlap (cost ~ disorder, not store size)")
    rc.add_argument("--zorder", action="store_true",
                    help="bit-interleave the (>=2 int) columns into one "
                         "Morton key: every listed column's zone maps "
                         "become selective from the one sort")
    rc.set_defaults(fn=cmd_recluster)

    ch = sub.add_parser("changes", help="incremental change feed: decode "
                        "only blocks added after a retained snapshot")
    ch.add_argument("store")
    ch.add_argument("output")
    ch.add_argument("--since", type=int, required=True)
    ch.add_argument("--columns", nargs="+", default=None)
    ch.set_defaults(fn=cmd_changes)

    es = sub.add_parser("export-sorted", help="globally key-ordered "
                        "parquet export from a clustered store: one task "
                        "per block, rank-named shards, zero shuffle")
    es.add_argument("store")
    es.add_argument("output")
    es.add_argument("--by", required=True)
    es.add_argument("--columns", nargs="+", default=None)
    es.set_defaults(fn=cmd_export_sorted)

    vw = sub.add_parser("view", help="materialized aggregate view: create "
                        "from a full scan, refresh incrementally from the "
                        "change feed (rebaseline on deletes/rewrites), read")
    vw.add_argument("action", choices=["create", "refresh", "read"])
    vw.add_argument("view_dir")
    vw.add_argument("--store", default=None,
                    help="(create) the encoded store to aggregate")
    vw.add_argument("--group-by", nargs="+", default=["source"])
    vw.add_argument("--aggs", default='{"n": ["count"]}',
                    help='(create) JSON {name: [op, col]}, op in '
                         'count/sum/min/max/avg')
    vw.add_argument("--where", action="append", default=None,
                    help="(create) filtered view: repeatable "
                         "'col:op:value' conjunct, pushed into every "
                         "delta read")
    vw.set_defaults(fn=cmd_view)

    sn = sub.add_parser("snapshots", help="list retained footer snapshots "
                        "(every footer swap archives one; decode --as-of "
                        "reads them)")
    sn.add_argument("store")
    sn.set_defaults(fn=cmd_snapshots)

    al = sub.add_parser("alter", help="metadata-only schema evolution: "
                        "rename/drop columns via a footer swap (no block "
                        "rewritten; compact/purge fold it physically)")
    al.add_argument("store")
    al.add_argument("--rename", action="append", default=[],
                    metavar="OLD=NEW")
    al.add_argument("--drop", action="append", default=[], metavar="COL")
    al.set_defaults(fn=cmd_alter)

    up = sub.add_parser("upsert", help="MERGE by key: the delivery's rows "
                        "replace same-key store rows (tombstone delete + "
                        "epoch append; retry-convergent)")
    up.add_argument("store")
    up.add_argument("input")
    up.add_argument("--key", default="doc_id")
    up.add_argument("--target-rows", type=int, default=None)
    up.set_defaults(fn=cmd_upsert)

    sc = sub.add_parser("scrub", help="distributed integrity audit: every "
                        "block decoded + crc-verified against the footer "
                        "(exit 1 when damage is found)")
    sc.add_argument("store")
    sc.add_argument("--shallow", action="store_true",
                    help="existence+size checks only (no decode)")
    sc.set_defaults(fn=cmd_scrub)

    bl = sub.add_parser("bloom", help="build per-block Bloom sidecars over "
                        "a column: decode --where point lookups (==, in) "
                        "then skip definite-miss blocks without decoding "
                        "anything")
    bl.add_argument("store")
    bl.add_argument("column")
    bl.add_argument("--bits-per-key", type=int, default=10,
                    dest="bits_per_key")
    bl.set_defaults(fn=cmd_bloom)

    vc = sub.add_parser("vacuum", help="delete store files referenced by "
                        "neither the live footer, any retained snapshot, "
                        "nor the lineage manifest")
    vc.add_argument("store")
    vc.set_defaults(fn=cmd_vacuum)

    dl = sub.add_parser("delete", help="row-level delete via per-block "
                        "tombstones (blocks stay immutable; purge reclaims)")
    dl.add_argument("store")
    dl.add_argument("--where", required=True,
                    help="predicate col:op:value, e.g. 'source:==:web'")
    dl.set_defaults(fn=cmd_delete)

    pg = sub.add_parser("purge", help="rewrite tombstoned blocks without "
                        "their deleted rows and reclaim the bytes")
    pg.add_argument("store")
    pg.set_defaults(fn=cmd_purge)

    dv = sub.add_parser("derive", help="add a derived column to an existing "
                        "store via per-block encoded sidecars (schema "
                        "evolution; no base block rewritten)")
    dv.add_argument("store")
    dv.add_argument("--spec", required=True,
                    help='calculation spec JSON, e.g. '
                         '\'{"name":"kb","op":"div","args":["n_chars",'
                         '{"const":1000}]}\'')
    dv.add_argument("--name", default=None,
                    help="derived column name (overrides spec name)")
    dv.add_argument("--inputs", default=None,
                    help="comma-separated input columns (pruned block read)")
    dv.set_defaults(fn=cmd_derive)

    cp = sub.add_parser("compact")
    cp.add_argument("store")
    cp.add_argument("--target-rows", type=int, default=None)
    cp.add_argument("--min-fill", type=float, default=0.5)
    cp.set_defaults(fn=cmd_compact)

    c = sub.add_parser("convert")
    c.add_argument("input")
    c.add_argument("output")
    c.add_argument("--format", default="parquet")
    c.add_argument("--partition-by", nargs="*", default=None)
    c.add_argument("--columns", nargs="*", default=None)
    c.set_defaults(fn=cmd_convert)

    s = sub.add_parser("stats")
    s.add_argument("store")
    s.set_defaults(fn=cmd_stats)

    q = sub.add_parser("query")
    q.add_argument("name")
    q.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    q.add_argument("--limit", type=int, default=20)
    q.set_defaults(fn=cmd_query)

    sq = sub.add_parser("sql", help="run a mini-SQL query on the Ray engine "
                        "(reference `howard query` surface)")
    sq.add_argument("statement")
    sq.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    sq.add_argument("--limit", type=int, default=20)
    sq.add_argument("--explain", action="store_true",
                    help="print the compiled plan (execution path, pruned "
                         "columns, per-block footer census) without running")
    sq.add_argument("--tables-dir", default=None,
                    help="parquet dir for JOINed tables when --sf-dir is "
                         "an encoded store (FROM store JOIN ...)")
    sq.add_argument("--as-of", type=int, default=None, dest="as_of",
                    help="time travel: answer the query against a retained "
                         "snapshot footer (plain FROM store only)")
    sq.set_defaults(fn=cmd_sql)

    args = p.parse_args(argv)
    ray = _ray_init(args.num_cpus)
    try:
        return args.fn(args)
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
