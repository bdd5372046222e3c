"""Cluster job entrypoint for the flagship encode pipeline — the form the
north rule runs via ``ray job submit`` on a fixed-size multi-node cluster:

    ray job submit --working-dir . -- \
        python jobs/encode_job.py --input s3://bucket/corpus/ \
        --store /shared/store --mode cluster

On the cluster, ``ray.init(address="auto")`` attaches to the running
cluster the job was submitted to; in this sandbox the same script runs
standalone (``python jobs/encode_job.py ...``) against a local session —
the pipeline code is identical either way, which is the point: nothing in
the engine knows whether its Dataset executes on one node or 256.

The job is RESUMABLE BY RE-SUBMISSION: every completed block is recorded
in the store's ``manifest.jsonl`` with its input file + row range + codec
choices + checksum, so a killed job's re-run diffs the manifest against
completed blocks and encodes only what's missing (same guarantee the
pytest kill/resume tests assert single-node).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv=None) -> int:
    from howard_ray.block import ENCODE_PROFILES

    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--input", required=True,
                   help="parquet file/dir of (doc_id, tokens, n_tok, source)")
    p.add_argument("--store", required=True, help="output block-store dir")
    p.add_argument("--mode", default="cluster",
                   choices=["stream", "cluster", "cluster-exchange"])
    p.add_argument("--profile", default="standard",
                   choices=sorted(ENCODE_PROFILES))
    p.add_argument("--target-rows", type=int, default=None)
    p.add_argument("--no-resume", action="store_true")
    args = p.parse_args(argv)

    import ray
    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS is set by the job agent and
        # init attaches to the hosting cluster; standalone it starts local
        ray.init(address=os.environ.get("RAY_ADDRESS", "auto"),
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from howard_ray.pipeline import encode_dataset
    footer = encode_dataset(args.input, args.store, mode=args.mode,
                            profile=args.profile,
                            target_rows=args.target_rows,
                            resume=not args.no_resume)
    print(json.dumps({k: footer[k] for k in
                      ("n_blocks", "n_rows", "encoded_bytes", "raw_bytes",
                       "wall_sec", "throughput_gbps", "mode")}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
