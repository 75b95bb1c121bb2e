"""Tests of the shared-memory database export and multi-process engine.

Covers the zero-copy :class:`SharedDatabaseHandle` lifetime protocol
(attach/detach/unlink, double-close, post-unlink attach), the ordered
chunk reassembly, the :class:`ParallelClassifier` pool (byte-identical
output vs single-process, worker-crash detection, per-chunk worker
errors, shared-memory cleanup), and the ``repro.api`` integration:
``classify_files(workers=N)`` equivalence, engine reuse, the
single-process fallback when shared memory is unavailable, and the
filename-bearing :class:`PipelineError` wrapping.
"""

import os
import pickle
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    CollectSink,
    MetaCache,
    MetaCacheParams,
    PipelineError,
    SharedMemoryUnavailableError,
    TsvSink,
    WorkerCrashError,
)
from repro.core.classify import classify_reads
from repro.core.database import Database, SharedDatabaseHandle
from repro.core.query import query_database
from repro.genomics.alphabet import decode_sequence
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.parallel import (
    OrderedReassembler,
    ParallelClassifier,
    ReadChunk,
    shared_memory_available,
)
from repro.parallel.chunks import ChunkResult
from repro.taxonomy.builder import build_taxonomy_for_genomes

PARAMS = MetaCacheParams.small()
WORKERS = 2  # the CI box has few cores; 2 exercises every code path


def _leaked_blocks(names: list[str]) -> list[str]:
    """Which of one handle's shared blocks still exist.

    Checks only the blocks the test itself created, so shared memory
    of a concurrently running repro process cannot fail the check.
    Without ``/dev/shm`` (non-Linux) the resource tracker is trusted.
    """
    return [n for n in names if os.path.exists(os.path.join("/dev/shm", n))]


def _engine_blocks(engine: ParallelClassifier) -> list[str]:
    """Shared blocks backing a pool (recorded before it closes)."""
    return list(engine._handle.block_names)


@pytest.fixture(scope="module")
def world():
    genomes = GenomeSimulator(seed=17).simulate_collection(3, 2, 5000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    mc = MetaCache.ephemeral(references, taxonomy, params=PARAMS)
    mc.database.condense()  # freeze the layout so every test sees the same
    reads = ReadSimulator(genomes, seed=29).simulate(HISEQ, 120)
    seqs = list(reads.sequences)
    headers = [f"r{i}" for i in range(len(seqs))]
    return mc, headers, seqs


@pytest.fixture(scope="module")
def serial_taxa(world):
    mc, _, seqs = world
    result = query_database(mc.database, seqs)
    return classify_reads(mc.database, result.candidates).taxon


@pytest.fixture()
def read_file(world, tmp_path):
    _, headers, seqs = world
    records = [
        FastqRecord(h, decode_sequence(s), "I" * s.size)
        for h, s in zip(headers, seqs)
    ]
    path = tmp_path / "reads.fastq"
    write_fastq(records, path)
    return path


def _chunks(headers, seqs, size):
    return [
        (headers[i : i + size], seqs[i : i + size])
        for i in range(0, len(seqs), size)
    ]


# ------------------------------------------------------------ shared handle


class TestSharedDatabaseHandle:
    def test_attach_round_trip_identical(self, world, serial_taxa):
        mc, _, seqs = world
        with mc.database.to_shared() as handle:
            blob = pickle.dumps(handle)
            assert len(blob) < 64_000  # specs + taxonomy only, no arrays
            attached = pickle.loads(blob)
            db2 = attached.attach()
            result = query_database(db2, seqs)
            taxa2 = classify_reads(db2, result.candidates).taxon
            assert np.array_equal(taxa2, serial_taxa)
            assert [t.name for t in db2.targets] == [
                t.name for t in mc.database.targets
            ]
            del db2, result
            attached.close()

    def test_attached_views_are_read_only(self, world):
        mc, _, _ = world
        with mc.database.to_shared() as handle:
            attached = pickle.loads(pickle.dumps(handle))
            db2 = attached.attach()
            cond = db2.partitions[0].condensed
            with pytest.raises((ValueError, RuntimeError)):
                cond.locations[0] = 0
            del db2, cond
            attached.close()

    def test_attach_is_idempotent(self, world):
        mc, _, _ = world
        with mc.database.to_shared() as handle:
            assert handle.attach() is handle.attach()
            assert handle.database is handle.attach()

    def test_double_close_and_double_unlink(self, world):
        mc, _, _ = world
        handle = mc.database.to_shared()
        names = handle.block_names
        if os.path.isdir("/dev/shm"):  # the check sees live blocks
            assert names and _leaked_blocks(names) == names
        handle.attach()
        handle.close()
        handle.close()
        handle.unlink()
        handle.unlink()
        assert not _leaked_blocks(names)

    def test_attach_after_unlink_raises(self, world):
        mc, _, _ = world
        handle = mc.database.to_shared()
        spec_copy = pickle.loads(pickle.dumps(handle))
        handle.close()
        handle.unlink()
        with pytest.raises(SharedMemoryUnavailableError):
            spec_copy.attach()

    def test_exit_cleans_up_blocks(self, world):
        mc, _, _ = world
        with mc.database.to_shared() as handle:
            names = handle.block_names
            assert names and handle.nbytes > 0
        assert not _leaked_blocks(names)


# ------------------------------------------------------------- reassembly


class TestOrderedReassembler:
    @staticmethod
    def _result(i):
        return ChunkResult(
            chunk_id=i,
            headers=[],
            classification=None,
            read_lengths=np.zeros(0, dtype=np.int64),
        )

    def test_restores_submission_order(self):
        asm = OrderedReassembler()
        out = []
        for i in (2, 0, 3, 1):
            asm.push(self._result(i))
            out.extend(r.chunk_id for r in asm.drain())
        assert out == [0, 1, 2, 3]
        assert asm.pending == 0
        assert asm.next_id == 4

    def test_rejects_duplicates(self):
        asm = OrderedReassembler()
        asm.push(self._result(0))
        with pytest.raises(ValueError):
            asm.push(self._result(0))
        list(asm.drain())
        with pytest.raises(ValueError):
            asm.push(self._result(0))  # already drained: rewound id


# ---------------------------------------------------------------- engine


class TestParallelClassifier:
    def test_byte_identical_and_ordered(self, world, serial_taxa):
        mc, headers, seqs = world
        with ParallelClassifier(mc.database, workers=WORKERS) as engine:
            names = _engine_blocks(engine)
            results = list(engine.classify_chunks(_chunks(headers, seqs, 17)))
            # engine is reusable after a clean run
            again = list(engine.classify_chunks(_chunks(headers, seqs, 17)))
        assert [r.chunk_id for r in results] == list(range(len(results)))
        taxa = np.concatenate([r.classification.taxon for r in results])
        assert np.array_equal(taxa, serial_taxa)
        taxa2 = np.concatenate([r.classification.taxon for r in again])
        assert np.array_equal(taxa2, serial_taxa)
        assert sum(r.n_reads for r in results) == len(seqs)
        assert all(r.worker_id >= 0 and r.compute_seconds >= 0 for r in results)
        assert not _leaked_blocks(names)

    def test_worker_crash_raises_and_cleans_up(self, world):
        mc, headers, seqs = world
        engine = ParallelClassifier(mc.database, workers=WORKERS)

        def chunks():
            for i, c in enumerate(_chunks(headers, seqs, 10)):
                if i == 3:
                    # kill the whole pool: remaining chunks can never
                    # complete, so detection is deterministic
                    for p in engine._procs:
                        os.kill(p.pid, signal.SIGKILL)
                yield c

        with pytest.raises(WorkerCrashError):
            list(engine.classify_chunks(chunks()))
        assert engine.closed
        assert not _leaked_blocks(_engine_blocks(engine))

    def test_worker_task_error_surfaces_traceback(self, world):
        mc, headers, seqs = world
        engine = ParallelClassifier(mc.database, workers=WORKERS)
        # malformed input now fails at parent-side packing; to reach
        # the worker, poison a valid chunk's payload after validation
        chunk = ReadChunk(
            chunk_id=0,
            headers=["broken"],
            sequences=[np.zeros(60, dtype=np.uint8)],
        )
        chunk.packed.buffer = None  # worker-side sketch raises on this
        with pytest.raises(PipelineError, match="worker traceback"):
            list(engine.classify_chunks([chunk]))
        assert engine.closed
        assert not _leaked_blocks(_engine_blocks(engine))

    def test_abandoned_run_closes_engine(self, world):
        mc, headers, seqs = world
        engine = ParallelClassifier(mc.database, workers=WORKERS)
        for result in engine.classify_chunks(_chunks(headers, seqs, 10)):
            break  # abandon mid-stream
        assert engine.closed
        with pytest.raises(PipelineError, match="closed"):
            list(engine.classify_chunks(_chunks(headers, seqs, 10)))
        assert not _leaked_blocks(_engine_blocks(engine))

    def test_rejects_bad_worker_count(self, world):
        mc, _, _ = world
        with pytest.raises(ValueError):
            ParallelClassifier(mc.database, workers=0)

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            ReadChunk(chunk_id=0, headers=["a"], sequences=[])
        with pytest.raises(ValueError):
            ReadChunk(
                chunk_id=0,
                headers=["a"],
                sequences=[np.zeros(4, dtype=np.uint8)],
                mates=[],
            )


# ------------------------------------------------------------ api session


class TestClassifyFilesParallel:
    def test_byte_identical_tsv(self, world, read_file, tmp_path):
        mc, _, _ = world
        serial_out = tmp_path / "serial.tsv"
        parallel_out = tmp_path / "parallel.tsv"
        with TsvSink(serial_out) as sink:
            r1 = mc.session().classify_files(read_file, sink=sink, batch_size=16)
        with mc.session(workers=WORKERS) as session:
            with TsvSink(parallel_out) as sink:
                rn = session.classify_files(read_file, sink=sink, batch_size=16)
            names = _engine_blocks(session._engine)
            # second call reuses the same engine (and stays identical)
            second = tmp_path / "parallel2.tsv"
            with TsvSink(second) as sink:
                session.classify_files(read_file, sink=sink, batch_size=16)
        assert serial_out.read_bytes() == parallel_out.read_bytes()
        assert serial_out.read_bytes() == second.read_bytes()
        assert rn.n_reads == r1.n_reads
        assert rn.n_classified == r1.n_classified
        assert rn.n_batches == r1.n_batches
        assert rn.taxon_counts == r1.taxon_counts
        assert not _leaked_blocks(names)

    def test_paired_end_parallel_matches_serial(self, world, read_file, tmp_path):
        mc, _, _ = world
        a, b = CollectSink(), CollectSink()
        mc.session().classify_files(read_file, read_file, sink=a, batch_size=16)
        with mc.session(workers=WORKERS) as session:
            session.classify_files(read_file, read_file, sink=b, batch_size=16)
        assert a.records == b.records

    def test_fallback_without_shared_memory(
        self, world, read_file, tmp_path, monkeypatch
    ):
        import repro.api.session as session_mod

        monkeypatch.setattr(session_mod, "shared_memory_available", lambda: False)
        mc, _, _ = world
        out = tmp_path / "fallback.tsv"
        with mc.session(workers=WORKERS) as session:
            with pytest.warns(UserWarning, match="single-process"):
                with TsvSink(out) as sink:
                    session.classify_files(read_file, sink=sink, batch_size=16)
            assert session._engine is None  # pool never started
        ref = tmp_path / "ref.tsv"
        with TsvSink(ref) as sink:
            mc.session().classify_files(read_file, sink=sink, batch_size=16)
        assert out.read_bytes() == ref.read_bytes()

    def test_export_failure_falls_back(self, world, read_file, monkeypatch):
        def boom(db):
            raise SharedMemoryUnavailableError("no /dev/shm")

        monkeypatch.setattr(SharedDatabaseHandle, "export", staticmethod(boom))
        mc, _, _ = world
        sink = CollectSink()
        with mc.session(workers=WORKERS) as session:
            with pytest.warns(UserWarning, match="single-process"):
                session.classify_files(read_file, sink=sink, batch_size=16)
        assert len(sink.records) == 120

    def test_missing_file_raises_pipeline_error_with_filename(self, world):
        mc, _, _ = world
        with pytest.raises(PipelineError, match="no_such_file.fastq"):
            mc.session().classify_files("no_such_file.fastq", sink=CollectSink())

    def test_worker_crash_error_names_file(self, world, read_file, monkeypatch):
        mc, _, _ = world
        with mc.session(workers=WORKERS) as session:
            engine = session._ensure_engine(WORKERS)
            if engine is None:
                pytest.skip("shared memory unavailable on this platform")
            names = _engine_blocks(engine)
            os.kill(engine._procs[0].pid, signal.SIGKILL)
            engine._procs[0].join(timeout=10)
            with pytest.raises(WorkerCrashError, match="reads.fastq"):
                session.classify_files(read_file, sink=CollectSink(), batch_size=8)
        assert not _leaked_blocks(names)

    def test_metacache_close_shuts_down_pools(self, world, read_file):
        mc, _, _ = world
        session = mc.session(workers=WORKERS)
        session.classify_files(read_file, sink=CollectSink(), batch_size=16)
        assert session._engine is not None and not session._engine.closed
        names = _engine_blocks(session._engine)
        mc.close()
        assert session._engine is None or session._engine.closed
        assert not _leaked_blocks(names)

    def test_shared_memory_probe_is_safe(self):
        assert shared_memory_available() in (True, False)
