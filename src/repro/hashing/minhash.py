"""Minhash sketching: the s smallest *distinct* feature values per window.

Two implementations with identical semantics:

- :func:`sketch_window` -- scalar reference, one window at a time.
  Mirrors the CPU code path and anchors the property tests.
- :func:`sketch_windows_batch` -- the batched analogue of the GPU
  kernel (Section 5.3): all windows of a batch are laid out as rows
  of a matrix (:func:`window_hash_matrix`, one strided gather), then
  sort, mask, sort: rows are sorted (the bitonic-sort step), every
  value equal to its left neighbour is overwritten with the pad, the
  rows that lost a value are sorted again, and the first ``s``
  columns are the sketch -- all with row-parallel vector ops, no
  Python loop over windows.

Padding uses ``SKETCH_PAD`` (all-ones uint64), which is larger than
any 32-bit feature so it sorts to the end of each row.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["SKETCH_PAD", "sketch_window", "window_hash_matrix", "sketch_windows_batch"]

SKETCH_PAD = np.uint64(0xFFFFFFFFFFFFFFFF)


def sketch_window(hashes: np.ndarray, s: int) -> np.ndarray:
    """The ``s`` smallest distinct hash values of one window.

    ``SKETCH_PAD`` entries (k-mers over an ambiguous base) are not
    values and are dropped, as in the batch kernel.  Returns a sorted
    array of length <= s (shorter when the window holds fewer distinct
    values).
    """
    if s <= 0:
        raise ValueError(f"sketch size must be positive, got {s}")
    h = np.unique(np.asarray(hashes, dtype=np.uint64))
    return h[h != SKETCH_PAD][:s]


def window_hash_matrix(
    hashes: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int
) -> np.ndarray:
    """Gather per-window hash slices into a padded (n_windows, width) matrix.

    ``hashes`` holds the k-mer hash of every sequence position (invalid
    positions must already be ``SKETCH_PAD``); window ``i`` covers
    ``hashes[starts[i] : starts[i] + lengths[i]]``.  The rows are one
    gather from a strided sliding-window view of ``hashes`` (extended
    by ``width`` pads so a row never runs off the end); then every
    column at or past a row's length is set to ``SKETCH_PAD``, masking
    only the columns from the shortest length on.  Cost is O(total
    window area).
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    padded = np.concatenate((hashes, np.full(width, SKETCH_PAD, dtype=np.uint64)))
    matrix = sliding_window_view(padded, width)[starts]
    shortest = int(lengths.min()) if lengths.size else width
    if shortest < width:
        cols = np.arange(shortest, width, dtype=np.int64)
        tail = cols[None, :] >= lengths[:, None]
        np.copyto(matrix[:, shortest:], SKETCH_PAD, where=tail)
    return matrix


def sketch_windows_batch(matrix: np.ndarray, s: int) -> np.ndarray:
    """Row-wise minhash: ``s`` smallest distinct values per row.

    Returns an (n_rows, s) uint64 matrix padded with ``SKETCH_PAD``
    where a row has fewer than ``s`` distinct values.  This is the
    vectorized counterpart of the warp kernel's bitonic-sort +
    dedup + select pipeline, done as sort, mask, sort: sort each row,
    overwrite every value equal to its left neighbour with
    ``SKETCH_PAD``, re-sort the rows where that removed a value, and
    keep the first ``s`` columns.  ``matrix`` is not modified.
    """
    if s <= 0:
        raise ValueError(f"sketch size must be positive, got {s}")
    if matrix.size == 0:
        return np.full((matrix.shape[0], s), SKETCH_PAD, dtype=np.uint64)
    n_rows, width = matrix.shape
    m = np.sort(np.asarray(matrix, dtype=np.uint64), axis=1)
    # repeats of a real value; PAD == PAD pairs sit sorted at the tail
    repeat = m[:, 1:] == m[:, :-1]
    repeat &= m[:, 1:] != SKETCH_PAD
    rows = np.flatnonzero(repeat.any(axis=1))
    if rows.size:
        dedup = m[rows]
        dedup[:, 1:][repeat[rows]] = SKETCH_PAD
        dedup.sort(axis=1)
        m[rows] = dedup
    if width >= s:
        return np.ascontiguousarray(m[:, :s])
    out = np.full((n_rows, s), SKETCH_PAD, dtype=np.uint64)
    out[:, :width] = m
    return out
