"""The benchmark's workloads, run through the engine's public functions.

One driver process runs a closed loop with one client: each operation
starts when the previous one has returned. A run is set-up, one untimed
warm round, then whole rounds until the run's seconds are spent. Every
round runs the same operations, so failed operations are the same share
of attempted ones in every run.

- ``long_docs``: encode of long token rows (~1.5 KB/row), where ``auto``
  picks the compressed-exchange path, and full scans of the fresh store;
  then one pass of the store operations on that store.
- ``short_store``: the same encode and scans on short rows with URL-like
  ids (~230 B/row), where ``auto`` picks the plain cluster path; then the
  store operations on a store of small blocks encoded and Bloom-indexed at
  set-up and kept across rounds: point lookups, predicate scans, a SQL
  set, appends, deletes, the known-failing ``COUNT(*)`` after a delete,
  and a compaction.
"""

from __future__ import annotations

import os
import re
import shutil
import sys
import time
from collections import defaultdict
from statistics import median
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from howard_ray import manifest as hmanifest
from howard_ray import pipeline as hp
from howard_ray import sqlmini

import checks
import gen
import layers
from procs import TreeCpu

# Per round: ``encodes`` fresh encodes of the input and ``scans`` full
# scans of the last one; then, on the store operations' store,
# ``lookups`` point lookups of keys from the most common source (so every
# lookup finds a block of the same size) plus one of an absent key;
# ``pred_passes`` predicate scans per PRED_SOURCES entry; one SQL pass;
# ``deliveries`` appends, then as many deletes; one compaction. Each delete
# and the compaction are also timed ``deletes - 1`` and ``compactions - 1``
# times on copies of the store in the same state, so that a run has
# several samples of the same work. ``ops_block_rows``: None runs the
# store operations on the fresh store, with blocks sized by the engine as
# users get them; a number runs them on a store of blocks that size (so
# zone maps and Bloom filters have blocks to prune), encoded at set-up.
SPECS = {
    "long_docs": dict(rows=10_000, short=False, encodes=1, scans=2,
                      lookups=5, pred_passes=2, delivery=100, deliveries=1,
                      deletes=4, compactions=4, count_after_delete=False,
                      ops_block_rows=None),
    "short_store": dict(rows=30_000, short=True, encodes=1, scans=2,
                        lookups=4, pred_passes=2, delivery=500, deliveries=1,
                        deletes=3, compactions=3, count_after_delete=True,
                        ops_block_rows=4096),
}
LOOKUP_SOURCE = "web"
# A workload with a store of its own for the store operations draws that
# store's rows and deliveries with this generator seed, not the run's:
# compaction re-encodes the merged small blocks, where the selector's
# choice between FSST and plain strings for URL ids flips with the rows,
# and a flip moved a compaction's CPU time by half from one seed to the
# next. With these rows one of the two merged blocks takes FSST. The run's
# seed still draws the bulk input, the keys looked up and the ids deleted.
OPS_SEED = 0
DELETES_PER_DELIVERY = 16
# about 10%, 4% and 0.5% of the rows
PRED_SOURCES = ("code", "news", "legal")
ABSENT_KEY = "https://www.example.com/none/0000/absent.html"

# one SQL set for every workload; each query orders its result fully
STORE_SQL = (
    "SELECT source, COUNT(*) AS n, SUM(n_tok) AS s FROM store "
    "GROUP BY source ORDER BY source",
    "SELECT COUNT(*) AS n, SUM(n_tok) AS s FROM store WHERE n_tok >= 100",
    "SELECT doc_id, n_tok FROM store WHERE source = 'code' "
    "ORDER BY n_tok DESC, doc_id LIMIT 5",
    "SELECT source, MIN(n_tok) AS lo, MAX(n_tok) AS hi, AVG(n_tok) AS a "
    "FROM store WHERE source IN ('news', 'forum', 'papers', 'legal') "
    "GROUP BY source ORDER BY source",
)
TABLE_SQL = (
    "SELECT doc_id, n_tok FROM docs WHERE source = 'legal' "
    "ORDER BY n_tok DESC, doc_id LIMIT 5",
)
# fails whenever a tombstone exists: the scan asks
# for zero columns and the block reader returns None
COUNT_SQL = "SELECT COUNT(*) AS n FROM store"

FAILED = object()


class Took(NamedTuple):
    """Seconds one operation took: CPU time of the benchmark process and
    Ray's processes, and wall time."""
    cpu: float
    wall: float


ERROR_LINE = re.compile(r"\w+(Error|Exception): ")


def collect(ds) -> "pa.Table | None":
    """Consume a Dataset on the driver; None when it yields no rows."""
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    return pa.concat_tables(tables) if tables else None


def dir_bytes(path: str) -> int:
    return sum(sz for sz, _ in layers.snapshot_files(path).values())


def write_input(table: pa.Table, path: str, shards: int = 4) -> None:
    """The table as a directory of Parquet shards, the layout encode reads."""
    os.makedirs(path)
    per = -(-table.num_rows // shards)
    for i in range(shards):
        pq.write_table(table.slice(i * per, per),
                       os.path.join(path, f"part-{i}.parquet"),
                       row_group_size=4096)


class Run:
    """Operations attempted and failed, timing samples, check results and
    per-round layer metrics of one run (or of its warm round)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.cpu = TreeCpu()
        self.attempted = 0
        self.failed = 0
        # metric -> samples from CPU time, and the same from wall time
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.problems: list[str] = []
        self.rounds: list[dict] = []

    def op(self, span: str, fn):
        """Call one operation; (result, Took), or (FAILED, None) when it
        raised: a failure is counted and never ends the run."""
        self.attempted += 1
        c0 = self.cpu.read()
        t0 = time.perf_counter()
        try:
            with self.tracer.span(span):
                res = fn()
        except Exception as e:  # noqa: BLE001 - any fault is one failed op
            self.failed += 1
            # a Ray task error carries the task's own error as a text line
            lines = [ln.strip() for ln in str(e).splitlines()]
            raised = [ln for ln in lines if ERROR_LINE.match(ln)]
            msg = raised[-1] if raised else \
                f"{type(e).__name__}: {(lines or [''])[0]}"
            print(f"perfbench: {span} failed: {msg[:200]}", file=sys.stderr)
            return FAILED, None
        wall = time.perf_counter() - t0
        return res, Took(self.cpu.since(c0), wall)

    def record(self, metric: str, took: Took, mb: "float | None" = None) -> None:
        """One sample of ``metric``: seconds, or ``mb`` per second."""
        for out, t in ((self.samples, took.cpu), (self.walls, took.wall)):
            out[metric].append(t if mb is None else mb / t)

    def check(self, problem: "str | None") -> None:
        if problem:
            self.problems.append(problem)
            print(f"perfbench: check failed: {problem}", file=sys.stderr)


class Workload:
    """One workload's generated input, its store and the live row set the
    checks compare against."""

    def __init__(self, name: str, seed: int, tmp: str):
        self.name = name
        self.spec = SPECS[name]
        self.seed = seed
        self.tmp = tmp
        self.rng = np.random.default_rng([seed, 1])
        self.base: pa.Table | None = None
        self.tables_dir = os.path.join(tmp, "tables")
        self.input_path = os.path.join(self.tables_dir, "docs.parquet")
        self.store = None

    # ------------------------------------------------------------ set-up
    def setup(self) -> None:
        self.base = gen.make_docs(self.seed, self.spec["rows"],
                                  short=self.spec["short"])
        write_input(self.base, self.input_path)
        ref = os.path.join(self.tmp, "reference-zstd.parquet")
        pq.write_table(self.base, ref, compression="zstd")
        self.parquet_bytes = os.path.getsize(ref)
        self.ops_seed, self.ops_base = self.seed, self.base
        if self.spec["ops_block_rows"]:
            self.ops_seed = OPS_SEED
            self.ops_base = gen.make_docs(OPS_SEED, self.spec["rows"],
                                          short=self.spec["short"])
            ops_input = os.path.join(self.tmp, "ops-input")
            write_input(self.ops_base, ops_input)
            self.pristine = os.path.join(self.tmp, "store-0")
            hp.encode_dataset(ops_input, self.pristine, mode="auto",
                              resume=False,
                              target_rows=self.spec["ops_block_rows"])
            hp.build_bloom_index(self.pristine, "doc_id")

    # ------------------------------------------------------------- round
    def round(self, run: Run, k: int, warm: bool = False) -> None:
        """One round; ``k`` numbers it, for the names of its files. The
        warm round runs every operation once."""
        self.reps = (lambda key: min(1, self.spec[key])) if warm else \
            (lambda key: self.spec[key])
        lay = defaultdict(float) if run.tracer.enabled else None
        start = len(run.tracer.spans)
        written = [0, 0]  # bytes written, bytes ingested
        with run.tracer.span("bench.round"):
            fresh = self._bulk(run, k, lay, written)
            if self.store:
                shutil.rmtree(self.store, ignore_errors=True)
            if not self.spec["ops_block_rows"]:
                # the store operations run on the store just encoded
                self.store = fresh
                if fresh is not None:
                    self._bloom(run, lay)
            else:
                if fresh is not None:
                    shutil.rmtree(fresh, ignore_errors=True)
                # every round starts from the store set-up built, under a
                # new path, so every round does the same work
                self.store = os.path.join(self.tmp, f"store-{k + 1}")
                shutil.copytree(self.pristine, self.store)
            self.live = self.ops_base
            if self.store is not None:
                self._store_ops(run, k, lay, written)
                out, _ = run.op("pipeline.decode_store",
                                lambda: collect(hp.decode_store(self.store)))
                if out is not FAILED:
                    run.check(checks.rows_equal(self.live, out,
                                                "scan after compaction"))
                if self.spec["ops_block_rows"]:
                    self._bloom(run, lay)  # index the blocks compaction wrote
        if lay is not None:
            lay["storeio.bytes_written_per_input_byte"] = written[0] / max(1, written[1])
            for layer, s in run.tracer.self_times(start).items():
                lay[f"self.{layer}_s"] = s
            run.rounds.append(dict(lay))

    def _write(self, run: Run, lay, written, span: str, fn, ingested: int = 0,
               store: "str | None" = None):
        """An operation that writes to ``store`` (the workload's store by
        default); in the traced run, the bytes it writes are found by
        walking the store before and after."""
        store = store or self.store
        before = layers.snapshot_files(store) if lay is not None else None
        res, dt = run.op(span, fn)
        if lay is not None:
            written[0] += layers.bytes_written(before,
                                               layers.snapshot_files(store))
            written[1] += ingested
        return res, dt

    def _bulk(self, run: Run, k: int, lay, written) -> "str | None":
        """Encode the input into a fresh store and scan it; the store's
        path, or None when the encode failed."""
        in_bytes = self.base.nbytes
        if lay is not None:
            t0 = time.perf_counter()
            with run.tracer.span("pipeline.read"):
                ray.data.read_parquet(self.input_path).materialize()
            lay["pipeline.read_s"] += time.perf_counter() - t0
        fresh = None
        for e in range(self.reps("encodes")):
            if fresh:
                shutil.rmtree(fresh, ignore_errors=True)
            fresh = os.path.join(self.tmp, f"fresh-{k}-{e}")
            res, dt = self._write(
                run, lay, written, "pipeline.encode_dataset",
                lambda: hp.encode_dataset(self.input_path, fresh,
                                          mode="auto", resume=False),
                ingested=in_bytes if e == 0 else 0, store=fresh)
            if res is FAILED:
                return None
            run.record("encode_mb_per_s", dt, in_bytes / 1e6)
            stored = dir_bytes(fresh)
            run.samples["stored_bytes_per_input_byte"].append(stored / in_bytes)
            run.check(checks.within_parquet(stored, self.parquet_bytes))
            if lay is not None and e == 0:
                self._replay(run, lay, fresh, dt.cpu)
        for _ in range(self.reps("scans")):
            out, dt = run.op("pipeline.decode_store",
                             lambda: collect(hp.decode_store(fresh)))
            if out is not FAILED:
                run.record("scan_mb_per_s", dt, in_bytes / 1e6)
                run.check(checks.rows_equal(self.base, out, "full scan"))
        return fresh

    def _bloom(self, run: Run, lay) -> None:
        """Index doc_id for point lookups (only blocks not yet indexed)."""
        _, dt = run.op("pipeline.build_bloom_index",
                       lambda: hp.build_bloom_index(self.store, "doc_id"))
        if lay is not None and dt is not None:
            lay["bloom.build_s"] += dt.cpu

    def _replay(self, run: Run, lay, store: str, encode_cpu: float) -> None:
        """Layer times of the blocks an encode just wrote, and the encode
        time they leave for reading, exchange and scheduling."""
        block_ids = {b["block_id"] for b in hmanifest.load_blocks(store)}
        m = layers.replay_blocks(store, block_ids,
                                 os.path.join(self.tmp, "replay"), run.tracer)
        for key, v in m.items():
            lay[key] += v
        lay["pipeline.orchestration_s"] += encode_cpu - (
            m.get("block.encode_s", 0.0) + m.get("block.write_s", 0.0)
            + m.get("manifest.footer_publish_s", 0.0))

    # ------------------------------------------- reads and writes on a store
    def _store_ops(self, run: Run, k: int, lay, written) -> None:
        ids = self.live.filter(pc.equal(self.live["source"], LOOKUP_SOURCE))["doc_id"]
        keys = [ids[int(i)].as_py() for i in
                self.rng.choice(len(ids), self.reps("lookups"), replace=False)]
        keys.append(ABSENT_KEY)
        for key in keys:
            res, dt = run.op("pipeline.decode_store", lambda: collect(
                hp.decode_store(self.store, predicate=("doc_id", "==", key))))
            if res is not FAILED:
                if key != ABSENT_KEY:  # lookup_ms is the time to find a row
                    run.record("lookup_s", dt)
                run.check(checks.rows_equal(
                    checks.expected_where(self.live, "doc_id", key), res,
                    f"lookup {key}"))
            if lay is not None:
                dec, hit, probe_s = layers.lookup_pruning(self.store, key,
                                                          run.tracer)
                lay["bloom.probe_s"] += probe_s
                lay["bloom.blocks_decoded_per_lookup"] += dec / len(keys)
                lay["bloom.blocks_matched_per_lookup"] += hit / len(keys)
        cols = ["doc_id", "n_tok"]
        sources = PRED_SOURCES * self.reps("pred_passes")
        for src in sources:
            res, dt = run.op("pipeline.decode_store", lambda: collect(
                hp.decode_store(self.store, columns=cols,
                                predicate=("source", "==", src))))
            if res is not FAILED:
                run.record("predicate_scan_s", dt)
                run.check(checks.rows_equal(
                    checks.expected_where(self.live, "source", src, cols),
                    res, f"predicate scan source == {src}", cols))
            if lay is not None:
                dec, hit = layers.predicate_pruning(self.store, src)
                lay["zonemap.blocks_decoded_per_predicate_scan"] += dec / len(sources)
                lay["zonemap.blocks_matched_per_predicate_scan"] += hit / len(sources)
        self._sql_pass(run, lay)
        for j in range(self.reps("deliveries")):
            self._append(run, k, j, lay, written)
        for j in range(self.reps("deliveries")):
            self._delete(run, lay, written)
        res, _ = run.op("pipeline.decode_store", lambda: collect(
            hp.decode_store(self.store, columns=["doc_id"])))
        if res is not FAILED:
            run.check(checks.doc_ids_equal(self.live, res,
                                           "live rows after append and delete"))
        for res, dt in self._on_copies(run, lay, written, "pipeline.compact_store",
                                       hp.compact_store,
                                       self.reps("compactions")):
            run.record("compact_s", dt)

    def _on_copies(self, run: Run, lay, written, span: str, fn, n: int) -> list:
        """``fn(store)`` on n - 1 copies of the store, then on the store
        itself: n timings of the same work. Returns (result, seconds) of
        each call that did not fail, the store's own last."""
        out = []
        copy = os.path.join(self.tmp, "copy")
        for i in range(n - 1, -1, -1):
            if i:
                shutil.copytree(self.store, copy)
                res, dt = run.op(span, lambda: fn(copy))
                shutil.rmtree(copy)
            else:
                res, dt = self._write(run, lay, written, span,
                                      lambda: fn(self.store))
            if res is not FAILED:
                out.append((res, dt))
        return out

    def _sql_pass(self, run: Run, lay) -> None:
        cpu = wall = 0.0
        ok = True
        for sql, where, tables in (
                [(q, self.store, {"store": self.live}) for q in STORE_SQL]
                + [(q, self.tables_dir, {"docs": self.base}) for q in TABLE_SQL]):
            res, dt = run.op("sqlmini.run_sql", lambda: sqlmini.run_sql(where, sql))
            if res is FAILED:
                ok = False
                continue
            cpu, wall = cpu + dt.cpu, wall + dt.wall
            run.check(checks.frames_equal(res, checks.oracle(sql, tables), sql))
            if lay is not None:
                t0 = time.perf_counter()
                with run.tracer.span("sqlmini.parse"):
                    sqlmini.parse(sql)
                lay["sqlmini.parse_s"] += time.perf_counter() - t0
                path = sqlmini.explain_sql(where, sql).get("path")
                key = (f"sqlmini.path.{path}" if path in layers.SQL_PATHS
                       else "sqlmini.path.other")
                lay[key] += 1
        if ok:
            run.record("sql_pass_s", Took(cpu, wall))

    def _append(self, run: Run, k: int, j: int, lay, written) -> None:
        spec = self.spec
        delivery = gen.make_docs(self.ops_seed, spec["delivery"],
                                 short=spec["short"], prefix=f"a{j}-")
        path = os.path.join(self.tmp, f"delivery-{k}-{j}.parquet")
        pq.write_table(delivery, path)
        if lay is not None:
            t0 = time.perf_counter()
            with run.tracer.span("pipeline.read"):
                ray.data.read_parquet(path).materialize()
            lay["pipeline.read_s"] += time.perf_counter() - t0
        res, dt = self._write(run, lay, written, "pipeline.append_to_store",
                              lambda: hp.append_to_store(self.store, path),
                              ingested=delivery.nbytes)
        os.remove(path)
        if res is FAILED:
            return
        run.record("append_s", dt)
        self.live = pa.concat_tables([self.live, delivery])

    def _delete(self, run: Run, lay, written) -> None:
        ids = self.live["doc_id"]
        doomed = [ids[int(i)].as_py() for i in
                  self.rng.choice(len(ids), DELETES_PER_DELIVERY, replace=False)]
        done = self._on_copies(run, lay, written, "pipeline.delete_where",
                               lambda store: hp.delete_where(
                                   store, ("doc_id", "in", doomed)),
                               self.reps("deletes"))
        for res, dt in done:
            run.record("delete_s", dt)
            run.check(checks.count_matches(res["n_deleted_new"], len(doomed),
                                           "rows deleted"))
        self.live = self.live.filter(
            pc.invert(pc.is_in(self.live["doc_id"], value_set=pa.array(doomed))))
        if self.spec["count_after_delete"]:
            res, _ = run.op("sqlmini.run_sql",
                            lambda: sqlmini.run_sql(self.store, COUNT_SQL))
            if res is not FAILED:
                run.check(checks.frames_equal(
                    res, checks.oracle(COUNT_SQL, {"store": self.live}), COUNT_SQL))


# end-to-end metric <- samples, scale, unit. Operation timings are CPU
# seconds of the benchmark process and Ray's processes: on a shared host an
# operation's wall time swings by up to 2x from one minute to the next, with
# the time other tenants take, while its CPU time stays put.
TIMED = (
    ("encode_mb_per_cpu_s", "encode_mb_per_s", 1.0, "MB/cpu-s"),
    ("scan_mb_per_cpu_s", "scan_mb_per_s", 1.0, "MB/cpu-s"),
    ("lookup_cpu_ms", "lookup_s", 1e3, "cpu-ms"),
    ("predicate_scan_cpu_ms", "predicate_scan_s", 1e3, "cpu-ms"),
    ("delete_cpu_ms", "delete_s", 1e3, "cpu-ms"),
    ("sql_pass_cpu_s", "sql_pass_s", 1.0, "cpu-s"),
    ("append_cpu_s", "append_s", 1.0, "cpu-s"),
    ("compact_cpu_s", "compact_s", 1.0, "cpu-s"),
)


def _medians(samples: dict) -> dict:
    return {k: median(v) for k, v in samples.items() if v}


def end_to_end(run: Run, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics: medians over the run's samples."""
    med = _medians(run.samples)
    out = {"setup_s": (setup_s, "s")}
    for name, key, scale, unit in TIMED:
        out[name] = (med[key] * scale if key in med else None, unit)
    out["stored_bytes_per_input_byte"] = (med.get("stored_bytes_per_input_byte"), "ratio")
    out["peak_rss_mb"] = (peak_rss_mb, "MB")
    return out


def wall_medians(run: Run) -> dict:
    """The timed metrics again, from wall time: medians, with sample counts."""
    med = _medians(run.walls)
    return {name.replace("_cpu", "").replace("cpu-", ""):
            (round(med[key] * scale, 4), len(run.walls[key]))
            for name, key, scale, _ in TIMED if key in med}


def per_layer(run: Run) -> dict:
    """The per-layer metrics: medians over the traced rounds."""
    out = {}
    for name in layers.names():
        vals = [r.get(name, 0.0) for r in run.rounds]
        out[name] = (median(vals) if vals else None, layers.unit(name))
    return out
