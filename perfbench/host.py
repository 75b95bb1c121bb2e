"""Host facts, peak memory and leak checks (Linux ``/proc`` based)."""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import time

import numpy as np

SHM_DIR = "/dev/shm"
SHM_PREFIX = "mcdb-"


def _cache_size(level: int) -> int | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(base, entry, "type")) as fh:
                if fh.read().strip() == "Instruction":
                    continue
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
            scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1], 1)
            return int(text.rstrip("KMG")) * scale
    except OSError:
        return None
    return None


def host_block() -> dict:
    """What a record must carry to be compared with another."""
    return {
        "cores_available": len(os.sched_getaffinity(0)),
        "l2_bytes": _cache_size(2),
        "l3_bytes": _cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ----------------------------------------------------------- processes


def children_of(pid: int) -> set[int]:
    """Every live descendant of ``pid``."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    out: set[int] = set()
    todo = [pid]
    while todo:
        for child in parents.get(todo.pop(), []):
            if child not in out:
                out.add(child)
                todo.append(child)
    return out


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def peak_rss_bytes(pid: int) -> int:
    """The process's resident-set high-water mark (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def release_free_memory() -> None:
    """Collect garbage and hand freed heap pages back to the OS.

    Without this, how much freed memory the allocator keeps after a
    phase varies from run to run, and with it every later peak.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def reset_peak_rss() -> None:
    """Restart this process's high-water mark from its current RSS."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss(root: int | None = None) -> int:
    """Largest high-water mark in the process tree under ``root`` (this
    process by default), read while it is alive: a child's high-water
    mark disappears with it."""
    root = os.getpid() if root is None else root
    return max(peak_rss_bytes(p) for p in {root, *children_of(root)})


def cpu_probe_ms(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop: this host's CPU speed now.

    Recorded next to a run's figures, it shows whether a slow run ran
    on a slow host (other tenants' load, clock changes) or is slow by
    itself.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return round(sorted(times)[repeats // 2], 2)


def shm_blocks() -> set[str]:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()
