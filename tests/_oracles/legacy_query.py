"""The pre-packing per-read query path, kept as a reference oracle.

:func:`legacy_query` is what ``query_database`` computed before reads
were packed into one contiguous buffer: pairs are interleaved and
read lengths summed with per-element Python loops
(:func:`interleave_pairs_loop`), every read is sketched on its own
with the pre-rewrite kernels of ``legacy_sketch``
(:func:`sketch_reads_loop`), and each read's sliding-window size comes
from the scalar :meth:`MetaCacheParams.sliding_window_size`.  The
probe, compaction, sort, top-m and partition-merge stages after that
are the production ones, so any difference from ``query_database``
points at the packed sketch/interleave/window-size kernels.

Import from a test module as ``from _oracles.legacy_query import
legacy_query`` (pytest puts ``tests/`` on ``sys.path``); a script puts
the ``tests`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import MetaCacheParams
from repro.core.database import Database
from repro.core.query import QueryResult, _query_sketches
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import SketchParams
from repro.util.timer import StageTimer

from _oracles.legacy_sketch import (
    position_hashes,
    sketch_windows_batch,
    window_hash_matrix,
)

__all__ = ["interleave_pairs_loop", "legacy_query", "sketch_reads_loop"]


def interleave_pairs_loop(
    sequences: list[np.ndarray], mates: list[np.ndarray] | None
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Flatten reads (+mates) into one sequence list with read ids.

    Builds ``ids``/``lengths`` with per-element Python loops; the
    production :meth:`PackedReads.from_reads` computes the same
    interleaving (m1[0], m2[0], m1[1], ...) with array ops.
    """
    n = len(sequences)
    if mates is None:
        ids = np.arange(n, dtype=np.int64)
        lengths = np.array([s.size for s in sequences], dtype=np.int64)
        return list(sequences), ids, lengths
    if len(mates) != n:
        raise ValueError("mates list must match sequences list")
    seqs: list[np.ndarray] = []
    ids = np.empty(2 * n, dtype=np.int64)
    for i, (m1, m2) in enumerate(zip(sequences, mates)):
        seqs.append(m1)
        seqs.append(m2)
        ids[2 * i] = i
        ids[2 * i + 1] = i
    lengths = np.array(
        [a.size + b.size for a, b in zip(sequences, mates)], dtype=np.int64
    )
    return seqs, ids, lengths


def sketch_reads_loop(
    sequences: list[np.ndarray],
    params: SketchParams,
    read_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sketch a list of reads with one Python iteration per read.

    Same contract as :func:`repro.hashing.sketch.sketch_reads_packed`:
    ``(sketches, window_read_ids)``, reads shorter than ``k`` yield no
    windows.
    """
    if read_ids is None:
        read_ids = np.arange(len(sequences), dtype=np.int64)
    else:
        read_ids = np.asarray(read_ids, dtype=np.int64)
        if read_ids.size != len(sequences):
            raise ValueError("read_ids length must match sequences")
    layout = params.layout
    all_hashes: list[np.ndarray] = []
    starts_list: list[np.ndarray] = []
    lengths_list: list[np.ndarray] = []
    win_read: list[np.ndarray] = []
    offset = 0
    for seq, rid in zip(sequences, read_ids):
        h = position_hashes(seq, params.k)
        if h.size == 0:
            continue
        starts, ends = layout.window_slices(seq.size)
        all_hashes.append(h)
        starts_list.append(starts + offset)
        lengths_list.append(ends - starts - params.k + 1)
        win_read.append(np.full(starts.size, rid, dtype=np.int64))
        offset += h.size
    if not all_hashes:
        return (
            np.full((0, params.sketch_size), SKETCH_PAD, dtype=np.uint64),
            np.zeros(0, dtype=np.int64),
        )
    hashes = np.concatenate(all_hashes)
    starts = np.concatenate(starts_list)
    lengths = np.concatenate(lengths_list)
    matrix = window_hash_matrix(hashes, starts, lengths, params.kmers_per_window)
    sketches = sketch_windows_batch(matrix, params.sketch_size)
    return sketches, np.concatenate(win_read)


def legacy_query(
    db: Database,
    reads: list[np.ndarray],
    mates: list[np.ndarray] | None = None,
    params: MetaCacheParams | None = None,
) -> QueryResult:
    """Query a list of reads through the per-read reference path.

    Byte-identical to ``query_database(db, reads, mates, params)``;
    stage timings land in the same ``QueryResult.stages`` names.
    """
    params = params or db.params
    seqs, read_ids, read_lengths = interleave_pairs_loop(reads, mates)
    timer = StageTimer()
    with timer.stage("sketch"):
        sketches, window_read_ids = sketch_reads_loop(seqs, params.sketch, read_ids)
    sws = np.array(
        [params.sliding_window_size(int(l)) for l in read_lengths],
        dtype=np.int64,
    )
    return _query_sketches(
        db, sketches, window_read_ids, read_lengths, sws, params, None, timer
    )
