"""The three benchmark workloads and the measurements they share.

Each workload drives the program only through its public surfaces
(``MetaCache.build/save/open``, ``QuerySession.classify_files``, the
``metacache-repro serve`` CLI and HTTP) and returns a :class:`Result`:
the end-to-end metrics of an untraced run, or the per-layer metrics
of a traced one.

Why these three (each stresses different layers):

- ``hiseq-inproc``: the single-core hot path.  Sketch and probe
  dominate, then parse and render; no IPC, merge or server.  The
  baseline the other two add layers to.
- ``kald-sharded``: paired reads against a 4-partition index with
  many scaffold targets, served through a 2-shard router.  The probe
  across partitions, shard transport and the cross-shard merge do
  most of the work, and the build (hash-table writes) is the largest.
- ``serve-pool``: small HTTP requests against ``serve --workers 2``.
  Per request, sketch and probe are small; HTTP, micro-batching and
  pool transport dominate.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import client
import host
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
DIGESTS = os.path.join(HERE, "digests.json")


@dataclass(frozen=True)
class Scale:
    """Input sizes and phase lengths; ``FULL`` is what a normal run uses."""

    name: str
    n_genera: int = 16
    genome_length: int = 40_000
    food_length: int = 1_200_000
    hiseq_reads: int = 40_960  # 10 batches of DEFAULT_BATCH_SIZE
    kald_pairs: int = 12_288  # 3 batches
    serve_bodies: int = 256
    setups: int = 3
    rounds: int = 5  # serve-pool's alternating light/saturation rounds
    ladder_step_s: float = 0.6
    ladder_max_steps: int = 14


FULL = Scale("full")
TINY = Scale(
    "tiny",
    n_genera=4,
    genome_length=20_000,
    food_length=60_000,
    hiseq_reads=1_500,
    kald_pairs=600,
    serve_bodies=12,
    setups=2,
    rounds=2,
    ladder_step_s=0.4,
    ladder_max_steps=2,
)

#: fixed by the paper's partitioning of the large database
KALD_PARTITIONS = 4
KALD_SHARDS = 2
SERVE_WORKERS = 2
CONNECTIONS = 2
READS_PER_REQUEST = 16
#: serve-pool's open-loop rate for p50_ms, and the light rounds' share
#: of --seconds (the closed-loop saturation rounds take the rest)
LIGHT_RATE = 40.0
LIGHT_SHARE = 0.5
#: the ladder: open-loop rates from LADDER_START in LADDER_FACTOR steps,
#: until a step's p99 exceeds LATENCY_LIMIT_MS or its backlog grows
LADDER_START = 60.0
LADDER_FACTOR = 1.1
LATENCY_LIMIT_MS = 100.0
#: ceiling on one in-process program phase (setups + measurement)
PROGRAM_TIMEOUT_S = 150.0


@dataclass
class Context:
    root: str  # checkout root
    seed: int
    seconds: float
    trace: bool
    scale: Scale = FULL
    work: str = ""

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


class Check:
    """Collects correctness problems; any problem makes the run incorrect."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


# ------------------------------------------------------------------ helpers


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(np.ceil(q / 100.0 * len(ordered))) - 1))
    return float(ordered[k])


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _sha(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _warm_page_cache(paths) -> None:
    for p in paths:
        if p and os.path.isfile(p):
            with open(p, "rb") as fh:
                while fh.read(1 << 22):
                    pass


def tsv_rows(tsv: bytes) -> list[str]:
    """The data rows of a TSV (header line dropped)."""
    return tsv.decode().splitlines()[1:]


def accuracy(rows: list[str], truth: np.ndarray, species_of: dict[int, int]) -> tuple[float, float]:
    """Species-level sensitivity and precision of TSV rows (Table 6).

    A read counts as classified at species level when its taxon is a
    species or a target below one; it is correct when that species is
    the one the read was drawn from.
    """
    if len(rows) != truth.size:
        return 0.0, 0.0
    called = correct = 0
    for row, true_species in zip(rows, truth.tolist()):
        species = species_of.get(int(row.split("\t", 2)[1]))
        if species is not None:
            called += 1
            correct += species == true_species
    return correct / truth.size, (correct / called if called else 0.0)


def check_digest(ctx: Context, workload: str, digest: str, check: Check) -> None:
    """At the default seed the inputs must match the pinned digest."""
    if ctx.seed != DEFAULT_SEED:
        return
    with open(DIGESTS) as fh:
        pinned = json.load(fh).get(ctx.scale.name, {}).get(workload)
    check.expect(
        pinned == digest,
        f"{workload} inputs changed at seed {DEFAULT_SEED}: digest {digest} != pinned {pinned}",
    )


class Hygiene:
    """Asserts a run leaves no process or ``mcdb-*`` shm block behind."""

    def __init__(self) -> None:
        self.shm_before = host.shm_blocks()

    def verify(self, check: Check, pids=(), timeout: float = 10.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            left = sorted(p for p in set(pids) | _own_children() if host.alive(p))
            leaked = sorted(host.shm_blocks() - self.shm_before)
            if (not left and not leaked) or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        check.expect(not left, f"processes left behind: {left}")
        check.expect(not leaked, f"shared-memory blocks left behind: {leaked}")


def _own_children() -> set[int]:
    """Descendants of this process, minus multiprocessing's resource tracker.

    The tracker is started once per interpreter by ``multiprocessing``
    itself and exits with it; it holds no core and no index.
    """
    out = set()
    for pid in host.children_of(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                if b"resource_tracker" in fh.read():
                    continue
        except OSError:
            continue
        out.add(pid)
    return out


# ------------------------------------------------------------------ inputs


def _references(ctx: Context, with_food: bool) -> inputs.References:
    s = ctx.scale
    return inputs.make_references(
        ctx.seed,
        n_genera=s.n_genera,
        genome_length=s.genome_length,
        n_food=4 if with_food else 0,
        food_length=s.food_length,
    )


def _inproc_inputs(ctx: Context, paired: bool):
    """References, reads, their files and the digest of all of them."""
    refs = _references(ctx, with_food=paired)
    if paired:
        reads = inputs.make_kald_reads(ctx.seed, refs, ctx.scale.kald_pairs)
    else:
        reads = inputs.make_hiseq_reads(ctx.seed, refs, ctx.scale.hiseq_reads)
    files = inputs.write_references(refs, ctx.work)
    r1, r2 = inputs.write_reads(reads, ctx.work, "reads")
    digest = inputs.digest([*files, r1, *([r2] if r2 else [])])
    return refs, reads, files, (r1, r2), digest


def input_digest(ctx: Context, workload: str) -> str:
    """Generate (into ``ctx.work``) and digest one workload's inputs."""
    if workload == "serve-pool":
        return _serve_inputs(ctx)[-1]
    return _inproc_inputs(ctx, paired=workload == "kald-sharded")[-1]


# ------------------------------------------------------------------ setup


@dataclass
class Setup:
    build_s: float
    save_s: float
    open_s: float
    ready_s: float  # everything after open until the first answer
    index_bytes: int

    @property
    def total_s(self) -> float:
        return self.build_s + self.save_s + self.open_s + self.ready_s


def build_and_save(ctx: Context, files, partitions: int, tag: str) -> tuple[float, float, int, str]:
    from repro.api import MetaCache

    fasta, taxdir, mapping = files
    directory = ctx.path(f"db-{tag}")
    t0 = time.perf_counter()
    mc = MetaCache.build([fasta], taxdir, mapping, n_partitions=partitions)
    t1 = time.perf_counter()
    mc.save(directory, format=2)
    t2 = time.perf_counter()
    mc.close()
    del mc
    host.release_free_memory()  # the next phase's peak must not carry this build
    return t1 - t0, t2 - t1, _dir_bytes(directory), directory


def oracle_tsv(files, partitions: int, reads: inputs.Reads, batches=None) -> list[bytes]:
    """In-process classify of in-memory reads on an unsaved build.

    Shares nothing with the measured path but the classifier itself:
    no file parsing, no v2 format, no mmap, no process boundary.
    Returns one TSV per batch in ``batches`` (index ranges), or a
    single TSV over all reads.
    """
    from repro.api import MetaCache, TsvSink

    ascii_ = np.frombuffer(b"ACGT", dtype=np.uint8)
    fasta, taxdir, mapping = files
    batches = batches or [(0, len(reads))]
    out = []
    with MetaCache.build([fasta], taxdir, mapping, n_partitions=partitions) as mc:
        session = mc.session()
        for lo, hi in batches:
            buffer = io.StringIO()
            sink = TsvSink(buffer)
            sink.start()
            for a in range(lo, hi, 4096):
                b = min(hi, a + 4096)
                first = [(reads.headers[i], ascii_[reads.mate1[i]].tobytes().decode()) for i in range(a, b)]
                second = None
                if reads.mate2 is not None:
                    second = [(reads.headers[i], ascii_[reads.mate2[i]].tobytes().decode()) for i in range(a, b)]
                for rec in session.classify(first, second):
                    sink.write(rec)
            out.append(buffer.getvalue().encode())
    return out


# ------------------------------------------------------- in-process passes


def batch_clock_sink(path: str, batch_size: int, n_reads: int, rec=None):
    """A TSV sink that stamps the arrival of each batch's first record.

    The interval between consecutive stamps is the time the stream
    takes to deliver one more batch of results: the in-process
    analogue of a request latency.  With a recorder, each batch's
    writes form one ``api.render`` span (one span per batch, not per
    record, keeps tracing cheap).
    """
    from repro.api import TsvSink

    class BatchClockSink(TsvSink):
        def write(self, record) -> None:
            n = self.n_written
            if n % batch_size == 0:
                self.stamps.append(time.perf_counter())
                if rec is not None:
                    self._span = rec.open("api.render")
            super().write(record)
            if rec is not None and ((n + 1) % batch_size == 0 or n + 1 == n_reads):
                rec.close(self._span)

    sink = BatchClockSink(path)
    sink.stamps = []
    return sink


def run_passes(ctx, session, reads_path, mates_path, out_path, n_reads, oracle, check, rec=None):
    """Classify the file(s) repeatedly for ``ctx.seconds``; per-pass numbers.

    The first pass fills the page cache, faults the mmap'd index in and
    finishes lazy set-up; it is checked but not timed.  Each pass's TSV
    must equal the oracle byte for byte.  With a recorder, each pass
    runs inside a ``run`` span.  Also returns when the timed passes
    began: spans from then on are the measured ones.
    """
    from repro.api import DEFAULT_BATCH_SIZE

    rates, intervals, mismatches, passes = [], [], 0, 0
    since = deadline = 0.0
    while True:
        sink = batch_clock_sink(out_path, DEFAULT_BATCH_SIZE, n_reads, rec)
        root = rec.open("run") if rec is not None else None
        t0 = time.perf_counter()
        with sink:
            session.classify_files(reads_path, mates_path, sink=sink)
        dt = time.perf_counter() - t0
        if root is not None:
            rec.close(root)
        passes += 1
        if _sha(out_path) != oracle:
            mismatches += 1
        if not deadline:  # warm-up pass
            since = time.perf_counter()
            deadline = since + ctx.seconds
            continue
        rates.append(n_reads / dt)
        stamps = [t0] + sink.stamps
        intervals.extend(np.diff(stamps).tolist())
        if time.perf_counter() >= deadline and len(rates) >= 2:
            break
    check.expect(mismatches == 0, f"{mismatches}/{passes} passes differ from the oracle")
    return rates, intervals, passes, since


def _e2e_from_passes(rates, intervals, setups, peak, sens, prec) -> dict[str, float]:
    return {
        "setup_s": _median([s.total_s for s in setups]),
        "reads_per_s": _median(rates),
        "p50_ms": _percentile(intervals, 50) * 1e3,
        "species_sensitivity": sens,
        "species_precision": prec,
        "peak_rss_mb": peak / 2**20,
    }


def _setup_layers(setups: list[Setup], ref_bases: int) -> dict[str, float]:
    build = _median([s.build_s for s in setups])
    return {
        "builder.build_s": build,
        "builder.bases_per_s": ref_bases / build,
        "io.save_s": _median([s.save_s for s in setups]),
        "io.open_s": _median([s.open_s for s in setups]),
        "io.index_bytes": float(setups[-1].index_bytes),
    }


def trace_layers(dumps: list[dict], since: float) -> dict[str, float]:
    """Per-layer metrics from the span dumps of every traced process."""
    own, total, wall, unattributed = spans.self_times(dumps, since)
    c = spans.merged_counters(dumps, since)
    features = c.get("database.features", 0.0)
    return {
        "hashing.sketch_s": own.get("hashing.sketch", 0.0),
        "hashing.windows": c.get("hashing.windows", 0.0),
        "database.query_features_s": own.get("database.query_features", 0.0),
        "database.features": features,
        "database.locations": c.get("database.locations", 0.0),
        "database.hit_ratio": c.get("database.features_hit", 0.0) / features if features else 0.0,
        "query.compact_s": own.get("query", 0.0),
        "sort.segmented_sort_s": own.get("sort.segmented_sort", 0.0),
        "candidates.top_s": own.get("candidates.top", 0.0),
        "merge.s": own.get("merge", 0.0),
        "classify.s": own.get("classify", 0.0),
        "genomics.parse_s": own.get("genomics.parse", 0.0),
        "pipeline.queue_wait_s": own.get("pipeline.queue_wait", 0.0),
        "pipeline.pack_s": own.get("pipeline.pack", 0.0),
        "api.files_s": own.get("api.files", 0.0),
        "api.stream_s": own.get("api.stream", 0.0),
        "api.session_s": own.get("api.session", 0.0),
        "api.records_s": own.get("api.records", 0.0),
        "api.render_s": own.get("api.render", 0.0),
        "parallel.chunks": c.get("parallel.chunks", 0.0),
        "parallel.compute_s": c.get("parallel.compute_s", 0.0),
        "parallel.transport_s": c.get("parallel.transport_s", 0.0),
        "shard.sketch_s": c.get("shard.sketch_s", 0.0),
        "shard.query_s": total.get("shard.query", 0.0),
        "shard.replica_busy_s": c.get("shard.replica_busy_s", 0.0),
        "shard.wait_s": max(0.0, total.get("shard.query", 0.0) - c.get("shard.slowest_replica_s", 0.0)),
        "server.batcher_s": own.get("server.batcher", 0.0),
        "server.http_write_s": own.get("server.http_write", 0.0),
        "trace.wall_s": wall,
        "trace.unattributed_s": unattributed,
    }


# ------------------------------------------------ in-process workloads


def _child_main(conn, target, *args) -> None:
    try:
        conn.send({"value": target(*args)})
    except Exception:  # reported to the parent, which fails the run
        conn.send({"error": traceback.format_exc()})
    finally:
        conn.close()


def in_child(target, *args):
    """``target(*args)`` in a fresh spawned process; its return value.

    A process of its own keeps the benchmark's inputs, oracle build and
    allocator history out of the program's timings, GC scans and peak
    resident set.
    """
    import multiprocessing

    mp = multiprocessing.get_context("spawn")
    receiver, sender = mp.Pipe(duplex=False)
    proc = mp.Process(target=_child_main, args=(sender, target, *args))
    proc.start()
    sender.close()
    try:
        if not receiver.poll(PROGRAM_TIMEOUT_S):
            raise RuntimeError(f"{target.__name__} gave no result in {PROGRAM_TIMEOUT_S}s")
        out = receiver.recv()
    finally:
        proc.join(30)
        if proc.is_alive():
            proc.kill()
            proc.join(10)
    if "error" in out:
        raise RuntimeError(f"{target.__name__} failed:\n{out['error']}")
    if proc.exitcode != 0:
        raise RuntimeError(f"{target.__name__} exited with {proc.exitcode}")
    return out["value"]


def _open(directory: str, paired: bool):
    from repro.api import MetaCache

    if paired:
        return MetaCache.open(directory, shards=KALD_SHARDS, replicas=1)
    return MetaCache.open(directory, mmap=True)


def _measure_inproc(ctx: Context, paired: bool, files, r1, r2, n_reads: int, oracle: str) -> dict:
    """The measured program (run in its own process): set up, then classify.

    Traced, it first runs untraced passes on an untraced handle (shard
    replicas included), the base of ``trace.overhead_frac``, then opens
    the traced handle, whose replicas install the wrappers at spawn.
    """
    s = ctx.scale
    check = Check()
    trace_dir = ctx.path("spans")
    out_path = ctx.path("out.tsv")
    partitions = KALD_PARTITIONS if paired else 1
    setups: list[Setup] = []
    setup_peaks: list[int] = []
    base_rates: list[float] = []
    mc = None
    for k in range(s.setups):
        last = k == s.setups - 1
        host.reset_peak_rss()
        build_s, save_s, nbytes, directory = build_and_save(ctx, files, partitions, str(k))
        if ctx.trace and last:
            with _open(directory, paired) as base:
                base_ctx = Context(ctx.root, ctx.seed, 0.0, False, s, ctx.work)
                base_rates = run_passes(
                    base_ctx, base.session(), r1, r2, out_path, n_reads, oracle, check
                )[0]
            os.environ[spans.ENV] = trace_dir  # replicas spawned below trace themselves
        t0 = time.perf_counter()
        handle = _open(directory, paired)
        open_s = time.perf_counter() - t0
        os.environ.pop(spans.ENV, None)
        setups.append(Setup(build_s, save_s, open_s, 0.0, nbytes))
        setup_peaks.append(host.peak_rss())
        if last:
            mc = handle
        else:
            handle.close()
            shutil.rmtree(directory)

    session = mc.session()
    host.release_free_memory()
    host.reset_peak_rss()
    rec = None
    try:
        if ctx.trace:
            rec = spans.Recorder()
            spans.install(rec, sink_writes=False)
        rates, intervals, passes, since = run_passes(
            ctx, session, r1, r2, out_path, n_reads, oracle, check, rec
        )
        measure_peak = host.peak_rss()
        pids = sorted(_own_children())
    finally:
        mc.close()
    if rec is not None:
        rec.dump(trace_dir)
    return {
        "problems": check.problems,
        "setups": setups,
        "rates": rates,
        "intervals": intervals,
        "passes": passes,
        "base_rates": base_rates,
        "since": since,
        "peak": max(_median(setup_peaks), measure_peak),
        "pids": pids,
    }


def _run_inproc(ctx: Context, workload: str, *, paired: bool) -> Result:
    """Shared body of the two in-process workloads (files in, TSV out)."""
    check = Check()
    hygiene = Hygiene()
    refs, reads, files, (r1, r2), digest = _inproc_inputs(ctx, paired)
    check_digest(ctx, workload, digest, check)
    partitions = KALD_PARTITIONS if paired else 1
    oracle = hashlib.sha256(oracle_tsv(files, partitions, reads)[0]).hexdigest()
    n_reads, truth = len(reads), reads.true_species
    del reads
    _warm_page_cache([*files, r1, r2])
    os.makedirs(ctx.path("spans"), exist_ok=True)

    probe_before = host.cpu_probe_ms()
    out = in_child(_measure_inproc, ctx, paired, files, r1, r2, n_reads, oracle)
    probe_after = host.cpu_probe_ms()
    check.problems.extend(out["problems"])
    hygiene.verify(check, out["pids"])

    with open(ctx.path("out.tsv"), "rb") as fh:
        sens, prec = accuracy(tsv_rows(fh.read()), truth, refs.species_of())
    setups, rates, intervals = out["setups"], out["rates"], out["intervals"]
    attempted = out["passes"] * n_reads
    result = Result(
        correct=not check.problems,
        attempted=attempted,
        failed=attempted if check.problems else 0,
        detail={
            "digest": digest,
            "index_bytes": setups[-1].index_bytes,
            "problems": check.problems,
            "pass_reads_per_s": [round(r, 1) for r in rates],
            "p99_ms": _percentile(intervals, 99) * 1e3,
            "failed_frac": 1.0 if check.problems else 0.0,
            "reads_per_pass": n_reads,
            "cpu_probe_ms": [probe_before, probe_after],
            "reference_bases": refs.total_bases,
            "targets": refs.n_targets,
        },
    )
    if not ctx.trace:
        result.e2e = _e2e_from_passes(rates, intervals, setups, out["peak"], sens, prec)
        return result
    dumps = spans.load_dumps(ctx.path("spans"))
    result.layers = {
        **trace_layers(dumps, out["since"]),
        **_setup_layers(setups, refs.total_bases),
        **_NO_SERVER,
        "trace.overhead_frac": _median(out["base_rates"]) / _median(rates) - 1.0,
    }
    result.detail["spans"] = sum(d["start"].size for d in dumps)
    return result


#: the /stats-derived server metrics of workloads without a server
_NO_SERVER = {
    "server.batches": 0.0,
    "server.mean_batch_reads": 0.0,
    "server.p50_ms": 0.0,
    "server.rejected": 0.0,
    "server.client_gap_ms": 0.0,
}


def run_hiseq_inproc(ctx: Context) -> Result:
    return _run_inproc(ctx, "hiseq-inproc", paired=False)


def run_kald_sharded(ctx: Context) -> Result:
    return _run_inproc(ctx, "kald-sharded", paired=True)


# --------------------------------------------------------------- serve-pool


class Server:
    """``metacache-repro serve`` in a subprocess, started via the launcher."""

    LAUNCHER = os.path.join(HERE, "serve_launch.py")

    def __init__(self, ctx: Context, directory: str, tag: str, trace_dir: str | None) -> None:
        env = dict(os.environ)
        env.pop(spans.ENV, None)
        if trace_dir is not None:
            env[spans.ENV] = trace_dir
        self.log = ctx.path(f"server-{tag}.log")
        self._log_fh = open(self.log, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                self.LAUNCHER,
                "serve",
                "--db", directory,
                "--mmap",
                "--workers", str(SERVE_WORKERS),
                "--port", "0",
            ],
            stdout=subprocess.DEVNULL,
            stderr=self._log_fh,
            env=env,
            cwd=ctx.root,
        )
        self.host = "127.0.0.1"
        self.port = 0
        self.pids: set[int] = {self.proc.pid}

    def wait_listening(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log, "rb") as fh:
                text = fh.read().decode(errors="replace")
            marker = f"http://{self.host}:"
            if marker in text:
                self.port = int(text.split(marker, 1)[1].split()[0].split("/")[0])
                return
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{text}")
            time.sleep(0.005)
        raise RuntimeError("server did not start listening")

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if client.get(self.host, self.port, "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def note_children(self) -> None:
        self.pids |= host.children_of(self.proc.pid)

    def stop(self, timeout: float = 30.0) -> bool:
        """SIGTERM (graceful drain); True when it exited by itself."""
        self.note_children()
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                clean = False
                self.proc.kill()
                self.proc.wait(10)
        self._log_fh.close()
        return clean


def _serve_inputs(ctx: Context):
    """The hiseq-inproc references plus FASTQ request bodies of 16 reads."""
    s = ctx.scale
    refs = _references(ctx, with_food=False)
    reads = inputs.make_hiseq_reads(
        ctx.seed, refs, s.serve_bodies * READS_PER_REQUEST, stream=4, prefix="rq"
    )
    bounds = [
        (i * READS_PER_REQUEST, (i + 1) * READS_PER_REQUEST) for i in range(s.serve_bodies)
    ]
    bodies = [inputs.fastq_bytes(reads.headers[a:b], reads.mate1[a:b]) for a, b in bounds]
    files = inputs.write_references(refs, ctx.work)
    digest = inputs.digest(list(files), b"".join(bodies))
    return refs, reads, bounds, bodies, files, digest


def _phase(outcomes, oracle):
    """Latency (ms from due time), lateness, failures and mismatches of a phase."""
    lat, late, failed, wrong = [], [], 0, 0
    for o in outcomes:
        late.append(o.lateness)
        if o.status != 200:
            failed += 1
            lat.append(float("inf"))
            continue
        if o.body != oracle[o.body_index]:
            wrong += 1
        lat.append(o.latency * 1e3)
    return lat, late, failed, wrong


def _lateness_grows(late: list[float]) -> bool:
    """Backlog check: the step's last quarter runs >20 ms later than its first."""
    q = max(1, len(late) // 4)
    return _median(late[-q:]) - _median(late[:q]) > 0.020


def _build_measured(ctx: Context, files, tag: str):
    """``build_and_save`` of a 1-partition index plus the peak resident
    set it reached (run in a child process of its own)."""
    return (*build_and_save(ctx, files, 1, tag), host.peak_rss())


def _light_rounds(server: Server, rng, payloads, seconds: float, rounds: int):
    """Open-loop rounds at ``LIGHT_RATE``; the outcomes of each round."""
    out = []
    for _ in range(rounds):
        due = client.poisson_schedule(rng, LIGHT_RATE, seconds)
        picks = rng.integers(0, len(payloads), due.size)
        out.append(client.run_open_loop(server.host, server.port, payloads, due, picks, CONNECTIONS))
    return out


def run_serve_pool(ctx: Context) -> Result:
    check = Check()
    hygiene = Hygiene()
    s = ctx.scale
    rng = np.random.default_rng([ctx.seed, 5])
    refs, reads, bounds, bodies, files, digest = _serve_inputs(ctx)
    check_digest(ctx, "serve-pool", digest, check)
    oracle = oracle_tsv(files, 1, reads, bounds)
    payloads = [client.request_bytes("POST", "/classify?format=tsv", b) for b in bodies]
    truth = reads.true_species
    del reads, bodies
    _warm_page_cache(files)

    trace_dir = ctx.path("spans")
    os.makedirs(trace_dir, exist_ok=True)
    light_s = ctx.seconds * LIGHT_SHARE / s.rounds
    saturate_s = ctx.seconds * (1.0 - LIGHT_SHARE) / s.rounds
    setups: list[Setup] = []
    setup_peaks: list[int] = []
    build_peaks: list[int] = []
    server = None
    server_pids: set[int] = set()  # every server and worker this run started
    base_p50 = None
    sent = failed_reqs = wrong = 0
    probe_before = host.cpu_probe_ms()
    try:
        for k in range(s.setups):
            last = k == s.setups - 1
            build_s, save_s, nbytes, directory, build_peak = in_child(
                _build_measured, ctx, files, str(k)
            )
            t0 = time.perf_counter()
            server = Server(ctx, directory, str(k), trace_dir if ctx.trace and last else None)
            server.wait_listening()
            server.wait_healthy()
            t1 = time.perf_counter()
            # the first classify starts the lazily spawned worker pool
            status = 0
            while status != 200 and time.perf_counter() - t1 < 60:
                status = client.run_open_loop(
                    server.host, server.port, payloads, np.zeros(1), np.zeros(1, dtype=np.int64), 1
                )[0].status
            t2 = time.perf_counter()
            check.expect(status == 200, "warm-up request never succeeded")
            setups.append(Setup(build_s, save_s, t1 - t0, t2 - t1, nbytes))
            # warm both connections and every worker
            warm = client.run_open_loop(
                server.host, server.port, payloads,
                np.linspace(0, 0.5, 20), np.arange(20) % len(payloads), CONNECTIONS,
            )
            check.expect(all(o.status == 200 for o in warm), "warm-up requests failed")
            server.note_children()
            build_peaks.append(build_peak)
            setup_peaks.append(max(build_peak, host.peak_rss(server.proc.pid)))
            if ctx.trace and k == s.setups - 2:
                # untraced light rounds: the base of trace.overhead_frac
                base = _light_rounds(server, rng, payloads, light_s, s.rounds)
                base_p50 = _median([_percentile(_phase(r, oracle)[0], 50) for r in base])
            if not last:
                check.expect(server.stop(), "server did not drain on SIGTERM")
                server_pids |= server.pids
                shutil.rmtree(directory)
                server = None

        # alternating rounds: light open-loop load (latency), then
        # closed-loop saturation (throughput); the medians over rounds
        # move only when a slowdown outlasts half of the run
        since = time.perf_counter()
        light, saturated, round_p50, round_rate = [], [], [], []
        light_stats = None
        for _ in range(s.rounds):
            (out,) = _light_rounds(server, rng, payloads, light_s, 1)
            round_p50.append(_percentile(_phase(out, oracle)[0], 50))
            light += out
            if light_stats is None:  # server p50 over the warm-up and this round
                light_stats = client.get_json(server.host, server.port, "/stats")
            picks = rng.integers(0, len(payloads), 100_000)
            out, elapsed = client.run_closed_loop(
                server.host, server.port, payloads, picks, CONNECTIONS, saturate_s
            )
            round_rate.append(sum(o.status == 200 for o in out) * READS_PER_REQUEST / elapsed)
            saturated += out
        for phase in (light, saturated):
            _, _, f, w = _phase(phase, oracle)
            sent += len(phase)
            failed_reqs += f
            wrong += w
        lat = _phase(light, oracle)[0]

        # ladder: x1.1 steps until one misses the latency limit or backs up
        rate, max_rate, steps = LADDER_START, LIGHT_RATE, []
        for _ in range(s.ladder_max_steps):
            due = client.poisson_schedule(rng, rate, s.ladder_step_s)
            picks = rng.integers(0, len(payloads), due.size)
            out = client.run_open_loop(server.host, server.port, payloads, due, picks, CONNECTIONS)
            step_lat, step_late, f, w = _phase(out, oracle)
            sent += len(out)
            failed_reqs += f
            wrong += w
            p99 = _percentile(step_lat, 99)
            grows = _lateness_grows(step_late)
            steps.append({"rate": rate, "requests": len(out), "p99_ms": p99, "lateness_grows": grows})
            if p99 > LATENCY_LIMIT_MS or grows or f:
                break
            max_rate = rate
            rate *= LADDER_FACTOR
        # accuracy over every distinct request body, as answered
        answered = {o.body_index: o.body for o in [*light, *saturated] if o.status == 200}
        rows = [row for k in sorted(answered) for row in tsv_rows(answered[k])]
        body_truth = np.concatenate([truth[slice(*bounds[k])] for k in sorted(answered)])
        sens, prec = accuracy(rows, body_truth, refs.species_of())
        end_stats = client.get_json(server.host, server.port, "/stats")
        server.note_children()
        server_peak = host.peak_rss(server.proc.pid)
    finally:
        if server is not None:
            check.expect(server.stop(), "server did not drain on SIGTERM")
            server_pids |= server.pids
    probe_after = host.cpu_probe_ms()
    hygiene.verify(check, server_pids)
    check.expect(wrong == 0, f"{wrong} responses differ from the oracle")

    attempted = sent * READS_PER_REQUEST
    failed = attempted if check.problems else failed_reqs * READS_PER_REQUEST
    result = Result(
        correct=not check.problems,
        attempted=attempted,
        failed=failed,
        detail={
            "digest": digest,
            "index_bytes": setups[-1].index_bytes,
            "problems": check.problems,
            "max_rate_rps": max_rate,
            "ladder": steps,
            "light_requests": len(light),
            "round_p50_ms": [round(x, 3) for x in round_p50],
            "round_reads_per_s": [round(x, 1) for x in round_rate],
            "p99_ms": _percentile(lat, 99),
            "failed_frac": failed / attempted if attempted else 0.0,
            "build_peak_rss_mb": _median(build_peaks) / 2**20,
            "server_peak_rss_mb": server_peak / 2**20,
            "cpu_probe_ms": [probe_before, probe_after],
        },
    )
    client_p50 = _median(round_p50)
    if not ctx.trace:
        result.e2e = {
            "setup_s": _median([x.total_s for x in setups]),
            "reads_per_s": _median(round_rate),
            "p50_ms": client_p50,
            "species_sensitivity": sens,
            "species_precision": prec,
            "peak_rss_mb": max(_median(setup_peaks), server_peak) / 2**20,
        }
        return result
    dumps = spans.load_dumps(trace_dir)
    server_p50 = light_stats["requests"]["latency"]["p50_ms"] or 0.0
    batches = end_stats["requests"]["batches"]
    result.layers = {
        **trace_layers(dumps, since),
        **_setup_layers(setups, refs.total_bases),
        "server.batches": float(batches["n_batches"]),
        "server.mean_batch_reads": float(batches["mean_batch_reads"] or 0.0),
        "server.p50_ms": float(server_p50),
        "server.rejected": float(end_stats["requests"]["requests_rejected"]),
        "server.client_gap_ms": round_p50[0] - float(server_p50),
        "trace.overhead_frac": client_p50 / base_p50 - 1.0 if base_p50 else 0.0,
    }
    result.detail["spans"] = sum(d["start"].size for d in dumps)
    return result


WORKLOADS = {
    "hiseq-inproc": run_hiseq_inproc,
    "kald-sharded": run_kald_sharded,
    "serve-pool": run_serve_pool,
}
