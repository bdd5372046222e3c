"""Bench harness — the driver's per-round feedback loop.

Runs the headline pipelines over $GRAFT_SF_DIR (default /root/testdata/sf0.1)
at RAY_GRAFT_CPUS parallelism (default 32) and prints ONE JSON line:
  {"metric": ..., "value": <headline seconds>, "unit": "sec",
   "queries": {...per-pipeline seconds...}, "sf": ..., "num_cpus": N,
   ...engine throughput/ratio extras...}

--scaling: runs the headline encode pipeline in two fresh processes at
num_cpus=8 and num_cpus=32 on the same cached input and reports both
throughputs + scaling efficiency (the sandbox proxy for the north rule's
N-vs-4N-node cluster criterion), appending the result to BENCH/BASELINE.md.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
CACHE = os.path.join(tempfile.gettempdir(), "howard_ray_bench")

# ~6M rows/sf-unit → sf0.1 = 600k rows, ~200M tokens, ~850 MB Arrow
ROWS_PER_SF = 6_000_000

OPS_IN_BENCH = ["pricing_summary", "join_hash", "dedup_exact",
                "window_hourly", "token_stats", "ann_cosine_topk",
                "dedup_jaccard_join", "ann_ivf_topk", "split_assign",
                "heavy_hitters", "redact_terms", "token_freq_topk",
                "curate_pipeline", "mixture_sample", "dup_ngram_spans",
                "scrub_passages",
                "join_spj", "store_view", "sql_store_topk",
                "hgvs_cdna", "sql_window_running"]


ALLOCATOR_ENV = {
    # steady-state throughput on this host is page-fault-bound; keep freed
    # pages in the allocators instead of returning them to the OS
    "MALLOC_CONF": "dirty_decay_ms:-1,muzzy_decay_ms:-1",
    "MALLOC_MMAP_THRESHOLD_": "1073741824",
    "MALLOC_TRIM_THRESHOLD_": "1073741824",
}


def _sf_from_dir(sf_dir: str) -> float:
    base = os.path.basename(os.path.normpath(sf_dir))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return 0.1


def prepare_corpus(sf: float) -> str:
    from howard_ray.fixtures import write_corpus_dir
    os.makedirs(CACHE, exist_ok=True)
    # HOWARD_BENCH_ROWS overrides the sf-derived size — used to measure
    # scaling on a larger job where the fixed serial floor (stats pass +
    # executor startup + footer, ~2 s) is a smaller fraction of the wall,
    # as it is on any real long-running encode
    n_rows = int(os.environ.get("HOWARD_BENCH_ROWS", "0")) or \
        max(10_000, int(ROWS_PER_SF * sf))
    return write_corpus_dir(os.path.join(CACHE, f"corpus_v2_n{n_rows}"), n_rows)


def run_bench() -> dict:
    import ray

    os.environ.update(ALLOCATOR_ENV)
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR",
                 runtime_env={"env_vars": ALLOCATOR_ENV})
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import pyarrow.parquet as pq

    from howard_ray.pipeline import decode_store, encode_dataset, store_total_bytes

    sf = _sf_from_dir(SF_DIR)
    src = prepare_corpus(sf)
    # warm the Ray worker pool (process spawn + numpy/pyarrow imports are
    # multi-second on this host) so timings measure the pipelines, not
    # session bring-up

    def _warm(batch):
        import howard_ray.block  # noqa: F401
        return batch

    ray.data.range(NUM_CPUS * 4, override_num_blocks=NUM_CPUS * 4) \
        .map_batches(_warm, batch_size=1).count()
    src_tbl = ray.data.read_parquet(src)  # warm page cache (untimed)
    raw_bytes = int(src_tbl.map_batches(
        lambda b: {"b": [b.nbytes]}, batch_format="pyarrow").sum("b"))
    n_tokens = int(ray.data.read_parquet(src, columns=["n_tok"]).sum("n_tok"))

    queries: dict[str, float] = {}
    extras: dict = {}

    def timed_encode(mode: str, tag: str, profile: str = "standard") -> float:
        store = os.path.join(CACHE, f"store_{tag}_{NUM_CPUS}")
        if os.path.exists(store):
            shutil.rmtree(store)
        t0 = time.perf_counter()
        encode_dataset(src, store, mode=mode, resume=False, profile=profile)
        return time.perf_counter() - t0, store

    # cold = first pass (includes per-worker warmup transients);
    # warm = best of N subsequent passes — the steady-state number a long
    # job runs at. In LEAN (scaling-child) mode the first pass doubles as
    # the cold pass so each interleaved child stays short; cross-child
    # variance is handled by the parent's interleaved best/median protocol.
    lean = bool(os.environ.get("HOWARD_BENCH_LEAN"))
    reps = 2

    t_cold, _ = (timed_encode("cluster", "cluster") if lean
                 else timed_encode("cluster", "cluster_cold"))
    t_cluster, store = timed_encode("cluster", "cluster")
    for _ in range(reps - 1):
        t2, store = timed_encode("cluster", "cluster")
        t_cluster = min(t_cluster, t2)
    queries["encode_cluster_cold"] = round(t_cold, 3)
    queries["encode_cluster"] = round(t_cluster, 3)

    t_s_cold, _ = (timed_encode("stream", "stream") if lean
                   else timed_encode("stream", "stream_cold"))
    t_stream, store_s = timed_encode("stream", "stream")
    for _ in range(reps - 1):
        t2, store_s = timed_encode("stream", "stream")
        t_stream = min(t_stream, t2)
    queries["encode_stream_cold"] = round(t_s_cold, 3)
    queries["encode_stream"] = round(t_stream, 3)

    # archive profile (zstd-19 per block): the compute-dominant configuration
    # best-of-reps like cluster/stream: single samples on this shared host
    # swing 2x with neighbor noise and would read as phantom regressions
    t_arch, store_a = timed_encode("cluster", "archive", profile="archive")
    if not lean:
        for _ in range(reps - 1):
            t2, store_a = timed_encode("cluster", "archive", profile="archive")
            t_arch = min(t_arch, t2)
    queries["encode_archive"] = round(t_arch, 3)
    from howard_ray.pipeline import store_total_bytes as _stb
    extras["archive_encoded_bytes"] = _stb(store_a)

    # compressed-exchange cluster mode: pre-encoded mini-blocks through the
    # shuffle (~3.6x less exchange volume — the multi-node design point)
    t_ex, _ = timed_encode("cluster-exchange", "exchange")
    for _ in range(reps - 1):
        t2, _ = timed_encode("cluster-exchange", "exchange")
        t_ex = min(t_ex, t2)
    queries["encode_exchange"] = round(t_ex, 3)

    if os.environ.get("HOWARD_BENCH_SCALING"):
        # pure-compute probe: cache-resident zstd-19 work in 96 unit tasks —
        # measures task-scheduling + CPU scaling with (near) zero memory-
        # bandwidth footprint, isolating the engine from this host's shared
        # data-path ceiling (see BASELINE.md)
        import numpy as _np
        import pyarrow as _pa

        def _probe(batch: "_pa.Table") -> "_pa.Table":
            from howard_ray.codecs.zstd import set_level, zstd_compress
            set_level(19)
            seed = int(batch["id"][0].as_py())
            buf = _np.random.default_rng(seed).integers(
                0, 64, 262_144, dtype=_np.uint8).tobytes()
            for _ in range(6):
                zstd_compress(buf)
            return _pa.table({"n": [1]})

        t0 = time.perf_counter()
        ray.data.range(96, override_num_blocks=96).map_batches(
            _probe, batch_size=1, batch_format="pyarrow").count()
        queries["compute_probe"] = round(time.perf_counter() - t0, 3)

    # decode pass (full scan of the encoded store), best-of-reps
    t_dec = None
    for _ in range(reps):
        t0 = time.perf_counter()
        n_dec = decode_store(store).count()
        dt = time.perf_counter() - t0
        t_dec = dt if t_dec is None else min(t_dec, dt)
    queries["decode"] = round(t_dec, 3)
    assert n_dec > 0

    # selective scan: a 0.5%-selectivity point predicate on the cluster key
    # — zone maps answer which blocks can match from the footer alone, so
    # the scan cost tracks MATCHING blocks, not store size
    t_sel = None
    for _ in range(reps):
        t0 = time.perf_counter()
        n_sel = decode_store(store, columns=["doc_id", "n_tok"],
                             predicate=("source", "==", "legal")).count()
        dt = time.perf_counter() - t0
        t_sel = dt if t_sel is None else min(t_sel, dt)
    queries["decode_selective"] = round(t_sel, 3)
    extras["selective_scan_speedup"] = round(t_dec / t_sel, 2)
    assert 0 < n_sel < n_dec

    # parquet+zstd baseline (single-threaded pyarrow per shard, the
    # reference's store format): exact total size + write time for the same
    # sharded table. Skipped in LEAN (scaling-child) mode — it is a
    # CPU-count-independent constant that would only stretch each child.
    n_rows_total = 0
    if not os.environ.get("HOWARD_BENCH_LEAN"):
        pz_bytes, pz_sec = 0, 0.0
        for name in sorted(os.listdir(src)):
            t = pq.read_table(os.path.join(src, name))
            n_rows_total += t.num_rows
            buf = io.BytesIO()
            t0 = time.perf_counter()
            pq.write_table(t, buf, compression="zstd")
            pz_sec += time.perf_counter() - t0
            pz_bytes += buf.getbuffer().nbytes
            del t, buf
        extras["parquet_zstd_write_sec"] = round(pz_sec, 3)
        extras["parquet_zstd_bytes"] = pz_bytes
        extras["beats_parquet_zstd"] = None  # filled below
    else:
        n_rows_total = src_tbl.count()

    encoded_bytes = store_total_bytes(store)
    extras.update({
        "corpus_rows": n_rows_total,
        "corpus_tokens": n_tokens,
        "raw_bytes": raw_bytes,
        "encoded_bytes": encoded_bytes,
        "compression_ratio_vs_raw": round(raw_bytes / encoded_bytes, 4),
        "beats_parquet_zstd": (
            int(encoded_bytes <= extras["parquet_zstd_bytes"])
            if extras.get("parquet_zstd_bytes") else None),
        "encode_gbps": round(raw_bytes / t_cluster / 1e9, 4),
        "encode_tokens_per_sec": round(n_tokens / t_cluster, 1),
    })

    # representative operator pipelines over the sf tables
    from howard_ray.ops import all_queries
    q = all_queries()
    for name in OPS_IN_BENCH:
        t0 = time.perf_counter()
        res = q[name](SF_DIR)
        if hasattr(res, "count") and not hasattr(res, "empty"):
            res.count()
        queries[name] = round(time.perf_counter() - t0, 3)

    return {
        "metric": "flagship encode pipeline wall time (salted groupby(source) "
                  "shuffle + per-block codec auto-select + ordered block write)",
        "value": queries["encode_cluster"],
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        **extras,
    }


def run_scaling() -> dict:
    """Fixed measurement protocol (round-1 verdict: reduce variance):
    INTERLEAVED level pairs — lo,hi,lo,hi,lo,hi child processes on the same
    cached input — so slow host drift hits both levels equally; per level we
    report the best AND the median of the 3 children (each child itself
    takes a best-of-2 warm measurement after a cold pass)."""
    # N vs 4N parallelism levels (sandbox proxy for N- vs 4N-node clusters).
    # Default 8 vs 32; HOWARD_SCALE_LO/HI override — e.g. 4 vs 16 keeps the
    # hi level under this VM's effective-core delivery ceiling (~20-24 of
    # the 32 vCPUs under full load, see BASELINE.md), which is a host
    # artifact a real 4N-node cluster does not have.
    lo_cpus = int(os.environ.get("HOWARD_SCALE_LO", "8"))
    hi_cpus = int(os.environ.get("HOWARD_SCALE_HI", str(lo_cpus * 4)))
    n_pairs = int(os.environ.get("HOWARD_SCALE_PAIRS", "3"))
    sf = _sf_from_dir(SF_DIR)
    prepare_corpus(sf)  # shared cached input for all child runs

    def child(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SF_DIR=SF_DIR,
                   HOWARD_BENCH_MINIMAL="1", HOWARD_BENCH_SCALING="1",
                   HOWARD_BENCH_LEAN="1")
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    runs: dict[int, list[dict]] = {lo_cpus: [], hi_cpus: []}
    for _ in range(n_pairs):
        runs[lo_cpus].append(child(lo_cpus))
        runs[hi_cpus].append(child(hi_cpus))

    def best(ncpu: int, key: str) -> float:
        return min(r["queries"][key] for r in runs[ncpu])

    def med(ncpu: int, key: str) -> float:
        vals = sorted(r["queries"][key] for r in runs[ncpu])
        return vals[len(vals) // 2]

    def eff(key: str, stat=None) -> float:
        stat = stat or best
        return round((stat(lo_cpus, key) / stat(hi_cpus, key))
                     / (hi_cpus / lo_cpus), 3)

    result = {
        "metric": "scaling efficiency, flagship encode, "
                  f"num_cpus {lo_cpus} vs {hi_cpus} (sandbox proxy for N vs "
                  f"4N nodes), interleaved best/median of {n_pairs} pairs",
        "sf": sf,
        f"sec_{lo_cpus}": best(lo_cpus, "encode_cluster"),
        f"sec_{hi_cpus}": best(hi_cpus, "encode_cluster"),
        f"sec_med_{lo_cpus}": med(lo_cpus, "encode_cluster"),
        f"sec_med_{hi_cpus}": med(hi_cpus, "encode_cluster"),
        f"archive_sec_{lo_cpus}": best(lo_cpus, "encode_archive"),
        f"archive_sec_{hi_cpus}": best(hi_cpus, "encode_archive"),
        # headline = the stream encode pipeline (no all-to-all). The cluster
        # (shuffle) variants are additionally bounded by this single host's
        # shared memory bandwidth, which both "cluster sizes" share in the
        # sandbox proxy — on a real N- vs 4N-node cluster each node brings
        # its own memory system. See BASELINE.md for the microbenchmarks.
        "scaling_efficiency": eff("encode_stream"),
        "scaling_efficiency_median": eff("encode_stream", med),
        "scaling_efficiency_cluster": eff("encode_cluster"),
        "scaling_efficiency_cluster_median": eff("encode_cluster", med),
        # exchange = compressed mini-blocks through the shuffle (3.6x less
        # exchange volume): the mode a real multi-node deployment runs, and
        # the least memory-bandwidth-bound of the shuffle variants here
        "scaling_efficiency_exchange": eff("encode_exchange"),
        "scaling_efficiency_exchange_median": eff("encode_exchange", med),
        "scaling_efficiency_archive": eff("encode_archive"),
        "scaling_efficiency_archive_median": eff("encode_archive", med),
        # compute_probe = cache-resident zstd-19 unit tasks: the host's own
        # ceiling for ANY 8->32 speedup (this VM's 32 vCPUs deliver ~20-24
        # effective cores under full load — see BASELINE.md spin test), so
        # normalized = pipeline efficiency relative to what the host permits
        "scaling_efficiency_compute_probe": eff("compute_probe"),
        "scaling_efficiency_compute_probe_median": eff("compute_probe", med),
        "scaling_efficiency_normalized": round(
            eff("encode_stream") / max(eff("compute_probe"), 1e-9), 3),
        "scaling_efficiency_normalized_median": round(
            eff("encode_stream", med) / max(eff("compute_probe", med), 1e-9), 3),
    }
    _append_baseline_md(result)
    return result


def _append_baseline_md(result: dict) -> None:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BASELINE.md")
    try:
        with open(path, "a") as f:
            f.write(f"\n## Measured scaling run ({time.strftime('%Y-%m-%d %H:%M')})\n\n"
                    f"```json\n{json.dumps(result, indent=2)}\n```\n")
    except OSError:
        pass


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        if os.environ.get("HOWARD_BENCH_MINIMAL"):
            OPS_IN_BENCH = []
        print(json.dumps(run_bench()))
        import ray
        ray.shutdown()
