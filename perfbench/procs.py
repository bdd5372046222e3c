"""The benchmark process and the processes under it (Ray's), read from /proc:
the process tree, its peak memory, its CPU time, and stopping it."""

from __future__ import annotations

import os
import signal
import time


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int) -> set[int]:
    kids, out, todo = _children_map(), set(), [pid]
    while todo:
        for c in kids.get(todo.pop(), ()):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def tree() -> set[int]:
    """This process and every process under it."""
    return {os.getpid()} | descendants(os.getpid())


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Peak resident memory of this process and every process under it."""
    return sum(_status_kb(p, "VmHWM:") for p in tree()) / 1024.0


def _cpu_clock(pid: int) -> "float | None":
    """CPU seconds process ``pid`` has run, threads that ended included, from
    its CPU-time clock (``clock_getcpuclockid``: ``~pid << 3 | CPUCLOCK_SCHED``);
    None once it has ended."""
    try:
        return time.clock_gettime((~pid << 3) | 2)
    except OSError:
        return None


class TreeCpu:
    """CPU time spent by this process and every process under it.

    Time stolen by other tenants of a shared host and time spent waiting
    for a CPU are not CPU time, so an operation's CPU time stays put where
    its wall time swings. A process that ends during an operation loses its
    share; one that starts during it counts whole."""

    def read(self) -> dict[int, float]:
        """Each process's CPU seconds so far; the /proc walk that finds the
        processes comes before the clocks are read."""
        return {p: v for p in tree() if (v := _cpu_clock(p)) is not None}

    def since(self, start: dict[int, float]) -> float:
        """CPU seconds spent since ``start = self.read()``."""
        # the processes of ``start`` first: the /proc walk costs CPU itself
        total = sum(v - t for p, t in start.items()
                    if (v := _cpu_clock(p)) is not None)
        for p in tree() - start.keys():
            total += _cpu_clock(p) or 0.0
        return total


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_processes(pids: set[int], grace_s: float = 20.0) -> None:
    """Wait for ``pids`` to end; kill what is left after ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while any(alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in pids:
        if alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
    deadline = time.monotonic() + 5.0
    while any(alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
