"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload long_docs --seed 1 --seconds 36 --trace 0

Run from the repository root. The run owns a local Ray session with as
many CPUs as ``nproc`` reports, writes only under ``.perfbench/`` in the
repository, and prints one JSON line last: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics, whose spans are also written to
``.perfbench/traces/``).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import shutil
import signal
import sys
import time

from procs import descendants, stop_processes, tree_peak_rss_mb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
# Unix socket paths are limited to 107 bytes; Ray puts its sockets up to
# 66 bytes below its temp dir
RAY_SOCKET_SLACK = 66


def _proc_start_boottime() -> float:
    """Seconds since boot at which this process started."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return int(fields[19]) / os.sysconf("SC_CLK_TCK")


def host_cpus() -> int:
    """The CPUs the run may use, counted as ``nproc`` counts them: the
    affinity mask, capped by ``OMP_NUM_THREADS`` when it is set."""
    n = len(os.sched_getaffinity(0))
    try:
        n = min(n, int(os.environ.get("OMP_NUM_THREADS", "")))
    except ValueError:
        pass
    return max(1, n)


def start_ray() -> "str | None":
    """A local Ray session of its own, with its files under OUT; returns
    the session's directory there (None when Ray keeps it elsewhere)."""
    import ray
    # workers import the engine from the checkout, like the driver
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    kw = {}
    if len(OUT) + RAY_SOCKET_SLACK <= 107:
        kw["_temp_dir"] = OUT
    else:
        print("perfbench: checkout path too long for Ray sockets; "
              "Ray keeps its session files in its default place",
              file=sys.stderr)
    ray.init(address="local", num_cpus=host_cpus(),
             object_store_memory=512 * 1024 * 1024, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR", **kw)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.CRITICAL)
    latest = os.path.join(OUT, "session_latest")
    return os.path.realpath(latest) if kw and os.path.islink(latest) else None


def remove_ray_session(session: "str | None") -> None:
    """Remove this run's Ray session directory, and the link to it."""
    if session:
        shutil.rmtree(session, ignore_errors=True)
    latest = os.path.join(OUT, "session_latest")
    if os.path.islink(latest) and not os.path.exists(latest):
        os.remove(latest)


def measure(args, tmp: str) -> dict:
    import workloads
    from spans import Tracer

    wl = workloads.Workload(args.workload, args.seed, tmp)
    wl.setup()
    setup_s = time.clock_gettime(time.CLOCK_BOOTTIME) - _proc_start_boottime()

    warm = workloads.Run(Tracer(False))
    wl.round(warm, 0, warm=True)
    run = workloads.Run(Tracer(bool(args.trace)))
    peak = tree_peak_rss_mb()
    # the whole number of rounds that best fills the run's seconds: start
    # another while it is expected to end less than half a round late
    t0, k = time.perf_counter(), 1
    while True:
        r0 = time.perf_counter()
        wl.round(run, k)
        peak = max(peak, tree_peak_rss_mb())
        k += 1
        now = time.perf_counter()
        if now - t0 + (now - r0) / 2 > args.seconds:
            break

    # the same operations timed by the wall clock, for reading alongside
    print(f"perfbench: {k - 1} rounds; wall medians (samples): "
          f"{json.dumps(workloads.wall_medians(run))}", file=sys.stderr)
    e2e = workloads.end_to_end(run, setup_s, peak)
    if args.trace:
        metrics = workloads.per_layer(run)
        out_dir = os.path.join(OUT, "traces")
        os.makedirs(out_dir, exist_ok=True)
        run.tracer.dump(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json"),
                        {"workload": args.workload, "seed": args.seed,
                         "rounds": run.rounds,
                         "end_to_end": {n: v for n, (v, _) in e2e.items()},
                         "wall_medians": workloads.wall_medians(run)})
    else:
        metrics = e2e
    missing = [k for k, (v, _) in metrics.items()
               if v is None or not math.isfinite(v)]
    if missing:
        raise RuntimeError(f"no measurement for {missing}")
    return {"correct": not (warm.problems or run.problems),
            "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("long_docs", "short_store"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, ROOT)
    try:
        import howard_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the engine from {ROOT}: {e}",
              file=sys.stderr)
        return 2
    import ray

    # a terminated run still shuts Ray down and cleans up in the finally
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    tmp = os.path.join(OUT, str(os.getpid()))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    result = session = None
    try:
        session = start_ray()
        result = measure(args, tmp)
    finally:
        pids = descendants(os.getpid())
        if ray.is_initialized():
            ray.shutdown()
        stop_processes(pids | descendants(os.getpid()))
        shutil.rmtree(tmp, ignore_errors=True)
        remove_ray_session(session)
    # printed only now: output forwarded from workers could otherwise land
    # after it and stop it being the last line
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run_main())
