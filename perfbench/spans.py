"""Span tracing installed from outside the package.

:func:`install` replaces public functions and methods of each layer
with thin wrappers that record one span per call: name, start, end,
parent span and a batch or request tag.  Spans live in flat arrays in
memory and are written out (:meth:`Recorder.dump`) when the process
ends, so tracing costs two clock reads and a few appends per call.

Child processes are traced too: ``multiprocessing``'s spawn start
method re-imports the parent's main script in every worker, and the
benchmark's entry scripts call :func:`install_from_env` at import, so
pool workers and shard replicas install the same wrappers and dump
their spans at exit into the directory named by ``PERFBENCH_TRACE``.

A layer's self time is its spans' duration minus the time covered by
their direct children.  The self time of the benchmark's own outer
spans (``RUN_SPANS``) is time no layer accounts for:
``trace.unattributed_s``.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import glob
import json
import os
import threading
import time
from array import array

import numpy as np

ENV = "PERFBENCH_TRACE"

#: outer spans the benchmark (or the server launcher) opens around a
#: measured call; their self time is unattributed
RUN_SPANS = ("run", "server.request")
#: spans that start a new batch/request tag for everything below them
_TAGGING = ("run", "server.request", "api.session")

_clock = time.perf_counter


class Recorder:
    """In-memory span and counter store for one process.

    Threads share it (producer and consumer threads, the server's event
    loop and executor), so appends to the parallel arrays hold a lock.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("q")
        # counter events: (time, key id, value), filtered like spans
        self.count_time = array("d")
        self.count_key = array("i")
        self.count_value = array("d")
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self._next_tag = 0
        self._lock = threading.Lock()
        self._shard_totals: list[float] = []

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        parent = self._current.get()
        with self._lock:
            if name in _TAGGING:
                self._next_tag += 1
                tag = self._next_tag
            else:
                tag = self.tag[parent] if parent >= 0 else 0
            i = len(self.start)
            self.name.append(self._name_id(name))
            self.parent.append(parent)
            self.tag.append(tag)
            self.end.append(0.0)
            self.start.append(_clock())
        self._current.set(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = _clock()
        self._current.set(self.parent[i])

    def count(self, key: str, value: float) -> None:
        with self._lock:
            self.count_time.append(_clock())
            self.count_key.append(self._name_id(key))
            self.count_value.append(value)

    def arrays(self) -> dict:
        return {
            "names": self.names,
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int64).copy(),
            "count_time": np.frombuffer(self.count_time, dtype=np.float64).copy(),
            "count_key": np.frombuffer(self.count_key, dtype=np.int32).copy(),
            "count_value": np.frombuffer(self.count_value, dtype=np.float64).copy(),
            "pid": os.getpid(),
        }

    def dump(self, directory: str) -> None:
        a = self.arrays()
        meta = json.dumps({"names": a.pop("names"), "pid": a.pop("pid")})
        np.savez(os.path.join(directory, f"spans-{os.getpid()}.npz"), meta=np.array(meta), **a)


def load_dumps(directory: str) -> list[dict]:
    out = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.npz"))):
        with np.load(path) as z:
            meta = json.loads(str(z["meta"]))
            out.append({**meta, **{k: z[k] for k in z.files if k != "meta"}})
    return out


# ---------------------------------------------------------------- wrappers


def _wrap_call(rec: Recorder, owner, attr: str, name: str, after=None, static=False) -> None:
    """One span per call; ``static`` re-wraps a classmethod bound to ``owner``."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        i = rec.open(name)
        try:
            result = orig(*args, **kwargs)
        finally:
            rec.close(i)
        if after is not None:
            after(rec, result, args)
        return result

    setattr(owner, attr, staticmethod(wrapper) if static else wrapper)


def _wrap_async(rec: Recorder, owner, attr: str, name: str) -> None:
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    async def wrapper(*args, **kwargs):
        i = rec.open(name)
        try:
            return await orig(*args, **kwargs)
        finally:
            rec.close(i)

    setattr(owner, attr, wrapper)


def _wrap_iter(rec: Recorder, owner, attr: str, name: str) -> None:
    """One span per ``next()`` of the generator the callable returns."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        it = iter(orig(*args, **kwargs))
        try:
            while True:
                i = rec.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(i)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    setattr(owner, attr, wrapper)


def _wrap_classify_chunks(rec: Recorder, cls) -> None:
    """Pool round trips: busy time in ``next()`` minus worker compute.

    ``parallel.transport_s`` per call is the time the parent spent
    blocked on the pool minus the slowest chunk's ``compute_seconds``
    (chunks of one call run concurrently on different workers).
    """
    orig = cls.classify_chunks

    @functools.wraps(orig)
    def wrapper(self, chunks, **kwargs):
        it = orig(self, chunks, **kwargs)
        busy, slowest = 0.0, 0.0
        try:
            while True:
                i = rec.open("parallel.classify_chunks")
                try:
                    chunk = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(i)
                    busy += rec.end[i] - rec.start[i]
                rec.count("parallel.chunks", 1)
                rec.count("parallel.compute_s", chunk.compute_seconds)
                slowest = max(slowest, chunk.compute_seconds)
                yield chunk
        finally:
            rec.count("parallel.transport_s", max(0.0, busy - slowest))
            it.close()

    cls.classify_chunks = wrapper


def _after_sketch(rec: Recorder, result, args) -> None:
    rec.count("hashing.windows", result[0].shape[0])


def _after_probe(rec: Recorder, result, args) -> None:
    locations, offsets = result
    rec.count("database.features", offsets.size - 1)
    rec.count("database.locations", locations.size)
    rec.count("database.features_hit", int(np.count_nonzero(np.diff(offsets))))


def install(rec: Recorder, *, sink_writes: bool = True) -> None:
    """Wrap every traced layer boundary (idempotent per process).

    ``sink_writes=False`` leaves ``TsvSink.write`` alone, for callers
    that time rendering per batch in their own sink instead of paying
    a span per record.
    """
    import repro.api.session as session_mod
    import repro.core.query as query_mod
    import repro.parallel.worker as pworker
    import repro.pipeline.queues as queues
    import repro.server.app as app
    import repro.shard.router as router_mod
    import repro.shard.worker as sworker
    from repro.api.sinks import TsvSink
    from repro.core.candidates import Candidates
    from repro.core.database import Database
    from repro.parallel.engine import ParallelClassifier
    from repro.pipeline.packed import PackedReads
    from repro.server.batcher import MicroBatcher
    from repro.shard.messages import ShardResult

    if hasattr(Database.query_features, "__wrapped__"):
        return  # already installed in this process

    # query pipeline (Section 5.2 steps)
    _wrap_call(rec, query_mod, "sketch_reads_packed", "hashing.sketch", _after_sketch)
    _wrap_call(rec, Database, "query_features", "database.query_features", _after_probe)
    _wrap_call(rec, query_mod, "segmented_sort_lexsort", "sort.segmented_sort")
    _wrap_call(rec, query_mod, "generate_top_candidates", "candidates.top")
    _wrap_call(rec, Candidates, "merged_with", "merge")
    _wrap_call(rec, router_mod, "merge_partition_runs", "merge")
    for mod in (session_mod, pworker, sworker):
        _wrap_call(rec, mod, "query_database", "query")
    for mod in (session_mod, pworker):
        _wrap_call(rec, mod, "classify_reads", "classify")

    # input: producer thread, queue, paired-file parse.  The consumer
    # thread runs in a copy of the caller's context, so its spans are
    # children of the caller's span: it is the critical path, and its
    # waits on the producer show up as pipeline.queue_wait.
    orig_schedule = session_mod.run_producer_consumer

    @functools.wraps(orig_schedule)
    def schedule(*, producers, consumers, **kwargs):
        consumers = [functools.partial(contextvars.copy_context().run, c) for c in consumers]
        return orig_schedule(producers=producers, consumers=consumers, **kwargs)

    session_mod.run_producer_consumer = schedule
    _wrap_call(rec, session_mod, "read_file_producer", "genomics.parse")
    _wrap_call(rec, queues.ClosableQueue, "put", "pipeline.queue_put")
    _wrap_call(rec, PackedReads, "from_reads", "pipeline.pack", static=True)
    _wrap_iter(rec, queues.ClosableQueue, "__iter__", "pipeline.queue_wait")
    _wrap_iter(rec, session_mod, "iter_sequence_records", "genomics.parse")

    # api: streaming loop, sessions, records, rendering
    _wrap_call(rec, session_mod.QuerySession, "classify_files", "api.files")
    _wrap_iter(rec, session_mod.QuerySession, "classify_iter", "api.stream")
    _wrap_call(rec, session_mod.QuerySession, "classify", "api.session")
    _wrap_call(rec, session_mod.QuerySession, "classify_batch", "api.session")
    _wrap_call(rec, session_mod, "records_from_classification", "api.records")
    if sink_writes:
        _wrap_call(rec, TsvSink, "write", "api.render")

    # process pool and shard router
    _wrap_classify_chunks(rec, ParallelClassifier)

    def after_router(rec: Recorder, result, args) -> None:
        totals, rec._shard_totals = rec._shard_totals, []
        rec.count("shard.sketch_s", result.stages.stages.get("sketch", 0.0))
        rec.count("shard.replica_busy_s", sum(totals))
        rec.count("shard.slowest_replica_s", max(totals, default=0.0))

    def after_shard_result(rec: Recorder, result, args) -> None:
        rec._shard_totals.append(args[0].total_seconds)

    _wrap_call(rec, router_mod.ShardRouter, "query", "shard.query", after_router)
    _wrap_call(rec, ShardResult, "candidates", "shard.unpack", after_shard_result)

    # HTTP server
    _wrap_async(rec, app.ClassificationServer, "_dispatch", "server.request")
    _wrap_async(rec, app, "write_response", "server.http_write")
    _wrap_async(rec, MicroBatcher, "submit", "server.batcher")
    _wrap_iter(rec, app, "iter_sequence_records_bytes", "genomics.parse")


def install_from_env() -> None:
    """In a process started with ``PERFBENCH_TRACE`` set: trace, dump at exit."""
    directory = os.environ.get(ENV)
    if not directory:
        return
    rec = Recorder()
    install(rec)
    atexit.register(rec.dump, directory)


# ---------------------------------------------------------------- analysis


def self_times(
    dumps: list[dict], since: float = 0.0
) -> tuple[dict[str, float], dict[str, float], float, float]:
    """Per-name self and total seconds; run-span wall and self time.

    Spans that started before ``since`` (a ``perf_counter`` reading:
    CLOCK_MONOTONIC, shared by every process on Linux) are dropped, so
    warm-up work in long-lived workers does not count.
    """
    self_by: dict[str, float] = {}
    total_by: dict[str, float] = {}
    wall = unattributed = 0.0
    for d in dumps:
        keep = d["start"] >= since
        n = int(keep.sum())
        if not n:
            continue
        index = np.full(d["start"].size + 1, -1, dtype=np.int64)
        index[:-1][keep] = np.arange(n)
        parent = index[d["parent"][keep]]  # dropped (or no) parent -> -1
        d = {**d, "start": d["start"][keep], "end": d["end"][keep], "name": d["name"][keep]}
        dur = np.maximum(d["end"] - d["start"], 0.0)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = np.maximum(dur - covered, 0.0)
        per_self = np.bincount(d["name"], weights=own, minlength=len(d["names"]))
        per_total = np.bincount(d["name"], weights=dur, minlength=len(d["names"]))
        for k, name in enumerate(d["names"]):
            self_by[name] = self_by.get(name, 0.0) + float(per_self[k])
            total_by[name] = total_by.get(name, 0.0) + float(per_total[k])
            if name in RUN_SPANS:
                unattributed += float(per_self[k])
                wall += float(per_total[k])
    return self_by, total_by, wall, unattributed


def merged_counters(dumps: list[dict], since: float = 0.0) -> dict[str, float]:
    """Counter totals over every process, from ``since`` on."""
    out: dict[str, float] = {}
    for d in dumps:
        keep = d["count_time"] >= since
        sums = np.bincount(d["count_key"][keep], weights=d["count_value"][keep], minlength=len(d["names"]))
        for k, name in enumerate(d["names"]):
            if sums[k]:
                out[name] = out.get(name, 0.0) + float(sums[k])
    return out
