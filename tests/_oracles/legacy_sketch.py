"""The sketch kernels as they were before the log-doubling rewrite.

Independent copies of the pre-rewrite primitives, so the differential
tests (``tests/test_sketch_kernels.py``, ``tests/test_packed_equivalence.py``)
and the micro bench (``benchmarks/bench_micro_pipeline.py``) compare the
production kernels against an implementation that does not share
their code:

- :func:`pack_kmers` -- one shift-or pass per base of the k-mer;
- :func:`canonical_kmers` -- the bit-reversal network
  (:func:`reverse_complement_2bit`) then an element-wise minimum;
- :func:`kmer_validity` -- a cumulative count of ambiguous bases;
- :func:`fmix64` / :func:`hash_kmers_h1` -- the finalizer with one
  temporary per step;
- :func:`window_hash_matrix` -- an int64 index matrix and two
  ``np.where`` calls;
- :func:`sketch_windows_batch` -- row sort, first-occurrence mask,
  cumsum rank and a scatter of the first ``s`` survivors.

Only NumPy and the alphabet/minhash constants are imported from the
package.
"""

from __future__ import annotations

import numpy as np

from repro.genomics.alphabet import AMBIG
from repro.hashing.minhash import SKETCH_PAD

__all__ = [
    "pack_kmers",
    "kmer_validity",
    "reverse_complement_2bit",
    "canonical_kmers",
    "fmix64",
    "hash_kmers_h1",
    "position_hashes",
    "window_hash_matrix",
    "sketch_windows_batch",
]

_U64 = np.uint64


def pack_kmers(codes: np.ndarray, k: int) -> np.ndarray:
    """All k-mers of an encoded sequence as uint64 (AMBIG packs as 0)."""
    if not 1 <= k <= 32:
        raise ValueError(f"k must be in [1, 32], got {k}")
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size
    m = n - k + 1
    if m <= 0:
        return np.zeros(0, dtype=_U64)
    safe = np.where(codes == AMBIG, np.uint8(0), codes).astype(_U64)
    out = np.zeros(m, dtype=_U64)
    for j in range(k):
        shift = _U64(2 * (k - 1 - j))
        out |= safe[j : j + m] << shift
    return out


def kmer_validity(codes: np.ndarray, k: int) -> np.ndarray:
    """True where the k-mer starting at i covers no AMBIG base."""
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size
    m = n - k + 1
    if m <= 0:
        return np.zeros(0, dtype=bool)
    bad = (codes == AMBIG).astype(np.int64)
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(bad, out=cum[1:])
    return (cum[k:] - cum[:-k]) == 0


def reverse_complement_2bit(values: np.ndarray, k: int) -> np.ndarray:
    """Reverse-complement packed k-mers with a 2-bit swap network."""
    v = np.asarray(values, dtype=_U64)
    v = ((v >> _U64(2)) & _U64(0x3333333333333333)) | (
        (v & _U64(0x3333333333333333)) << _U64(2)
    )
    v = ((v >> _U64(4)) & _U64(0x0F0F0F0F0F0F0F0F)) | (
        (v & _U64(0x0F0F0F0F0F0F0F0F)) << _U64(4)
    )
    v = ((v >> _U64(8)) & _U64(0x00FF00FF00FF00FF)) | (
        (v & _U64(0x00FF00FF00FF00FF)) << _U64(8)
    )
    v = ((v >> _U64(16)) & _U64(0x0000FFFF0000FFFF)) | (
        (v & _U64(0x0000FFFF0000FFFF)) << _U64(16)
    )
    v = (v >> _U64(32)) | (v << _U64(32))
    rev = v >> _U64(64 - 2 * k)
    mask = _U64(0xFFFFFFFFFFFFFFFF) if k == 32 else _U64((1 << (2 * k)) - 1)
    return (~rev) & mask


def canonical_kmers(kmers: np.ndarray, k: int) -> np.ndarray:
    """Element-wise min of each k-mer and its reverse complement."""
    kmers = np.asarray(kmers, dtype=_U64)
    return np.minimum(kmers, reverse_complement_2bit(kmers, k))


def fmix64(values: np.ndarray | int) -> np.ndarray:
    """MurmurHash3 64-bit finalizer."""
    h = np.asarray(values, dtype=_U64).copy()
    h ^= h >> _U64(33)
    h *= _U64(0xFF51AFD7ED558CCD)
    h ^= h >> _U64(33)
    h *= _U64(0xC4CEB9FE1A85EC53)
    h ^= h >> _U64(33)
    return h


def hash_kmers_h1(kmers: np.ndarray) -> np.ndarray:
    """Feature hash h1: the low 32 bits of fmix64."""
    return fmix64(np.asarray(kmers, dtype=_U64)) & _U64(0xFFFFFFFF)


def position_hashes(codes: np.ndarray, k: int) -> np.ndarray:
    """h1 of the canonical k-mer at every position; PAD where ambiguous."""
    kmers = pack_kmers(codes, k)
    if kmers.size == 0:
        return kmers
    hashes = hash_kmers_h1(canonical_kmers(kmers, k))
    valid = kmer_validity(codes, k)
    return np.where(valid, hashes, SKETCH_PAD)


def window_hash_matrix(
    hashes: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int
) -> np.ndarray:
    """Window slices of ``hashes`` as a PAD-filled (n_windows, width) matrix."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    cols = np.arange(width, dtype=np.int64)
    idx = starts[:, None] + cols[None, :]
    in_range = cols[None, :] < lengths[:, None]
    idx = np.where(in_range, idx, 0)
    return np.where(in_range, hashes[idx], SKETCH_PAD)


def sketch_windows_batch(matrix: np.ndarray, s: int) -> np.ndarray:
    """The ``s`` smallest distinct non-PAD values per row, PAD-padded."""
    if s <= 0:
        raise ValueError(f"sketch size must be positive, got {s}")
    if matrix.size == 0:
        return np.full((matrix.shape[0], s), SKETCH_PAD, dtype=np.uint64)
    m = np.sort(np.asarray(matrix, dtype=np.uint64), axis=1)
    n_rows, width = m.shape
    is_new = np.empty_like(m, dtype=bool)
    is_new[:, 0] = m[:, 0] != SKETCH_PAD
    np.not_equal(m[:, 1:], m[:, :-1], out=is_new[:, 1:])
    is_new[:, 1:] &= m[:, 1:] != SKETCH_PAD
    rank = np.cumsum(is_new, axis=1)
    take = is_new & (rank <= s)
    out = np.full((n_rows, s), SKETCH_PAD, dtype=np.uint64)
    rows, cols = np.nonzero(take)
    out[rows, rank[rows, cols] - 1] = m[rows, cols]
    return out
