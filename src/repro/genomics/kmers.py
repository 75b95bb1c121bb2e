"""Vectorized canonical k-mer extraction.

Given an encoded sequence of length ``n`` this module produces the
``n - k + 1`` packed 2-bit k-mers, their validity mask (a k-mer is
invalid if it covers any ambiguous base) and the canonical form
``min(kmer, revcomp(kmer))`` that MetaCache hashes.

Both strands are packed by log-doubling: the k-mers of length ``2j``
are two shifted k-mers of length ``j`` joined with one shift and one
or, ``f2j[i] = (fj[i] << 2j) | fj[i + j]`` on the forward strand and
``r2j[i] = rj[i] | (rj[i + j] << 2j)`` on the reverse complement
(built from the complement codes ``3 - c``).  The power-of-two blocks
named by the binary digits of ``k`` are then joined the same way, so
packing costs about ``log2(k) + popcount(k)`` array passes per strand
and needs no bit-reversal network.  Each level is held in the
narrowest unsigned dtype its ``2j`` bits fit in.  The Python-level
loop is over the bits of ``k``, never over sequence positions,
matching the "vectorize the long axis" idiom from the HPC guides.
"""

from __future__ import annotations

import numpy as np

from repro.genomics.alphabet import AMBIG
from repro.util.bitops import reverse_complement_2bit

__all__ = [
    "pack_kmers",
    "kmer_validity",
    "canonical_kmers",
    "valid_canonical_kmers",
    "position_canonical_kmers",
]

_U64 = np.uint64


def _dtype_for(bases: int) -> type[np.unsignedinteger]:
    """Narrowest unsigned dtype holding ``bases`` 2-bit fields."""
    if bases <= 4:
        return np.uint8
    if bases <= 8:
        return np.uint16
    if bases <= 16:
        return np.uint32
    return np.uint64


def _pack_strands(
    codes: np.ndarray, k: int, reverse: bool
) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """Forward (and optionally reverse-complement) k-mers by log-doubling.

    Returns ``(fwd, rev, ambiguous)``: ``fwd``/``rev`` have length
    ``len(codes) - k + 1`` (caller guarantees it is positive) in
    :func:`_dtype_for` ``(k)``; ``rev`` is None unless requested;
    ``ambiguous`` says whether any base was ``AMBIG`` (packed as 0).
    """
    n = codes.size
    # AMBIG is the largest uint8, so one max() detects it without a mask
    ambiguous = bool(codes.max() == AMBIG)
    f = np.where(codes == AMBIG, np.uint8(0), codes) if ambiguous else codes
    r = np.subtract(np.uint8(3), f, dtype=np.uint8) if reverse else None
    out_dtype = _dtype_for(k)
    fwd = rev = None
    covered = 0  # bases already joined into fwd/rev
    block = 1
    while True:
        if k & block:
            size = n - covered - block + 1
            if fwd is None:
                # levels past the first are fresh arrays this call owns
                fwd = f[:size].astype(out_dtype, copy=block == 1)
                if r is not None:
                    rev = r[:size].astype(out_dtype, copy=False)
            else:
                fwd = fwd[:size]
                fwd <<= 2 * block
                fwd |= f[covered : covered + size]
                if r is not None:
                    rev = rev[:size]
                    rev |= np.left_shift(
                        r[covered : covered + size], 2 * covered, dtype=out_dtype
                    )
            covered += block
        if covered == k:
            return fwd, rev, ambiguous
        # double the block: length n - 2*block + 1
        size = n - 2 * block + 1
        dtype = _dtype_for(2 * block)
        g = np.left_shift(f[:size], 2 * block, dtype=dtype)
        g |= f[block : block + size]
        f = g
        if r is not None:
            g = np.left_shift(r[block : block + size], 2 * block, dtype=dtype)
            g |= r[:size]
            r = g
        block *= 2


def pack_kmers(codes: np.ndarray, k: int) -> np.ndarray:
    """Pack all k-mers of an encoded sequence into uint64 values.

    Ambiguous bases are packed as code 0; callers must combine with
    :func:`kmer_validity` to discard affected k-mers.  Returns an
    array of length ``max(0, len(codes) - k + 1)``.
    """
    if not 1 <= k <= 32:
        raise ValueError(f"k must be in [1, 32], got {k}")
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size < k:
        return np.zeros(0, dtype=_U64)
    fwd, _, _ = _pack_strands(codes, k, reverse=False)
    return fwd.astype(_U64, copy=False)


def kmer_validity(codes: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask: True where the k-mer starting at i has no AMBIG base.

    Computed with a cumulative count of ambiguous positions so cost is
    O(n) regardless of k.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size
    m = n - k + 1
    if m <= 0:
        return np.zeros(0, dtype=bool)
    bad = (codes == AMBIG).astype(np.int64)
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(bad, out=cum[1:])
    return (cum[k:] - cum[:-k]) == 0


def canonical_kmers(kmers: np.ndarray, k: int) -> np.ndarray:
    """Canonical form: element-wise min of k-mer and its reverse complement.

    Using the numeric minimum makes the canonical choice orientation
    independent: a read from the reverse strand produces the same
    canonical k-mers as the forward reference.  Works on k-mers that
    are already packed; :func:`position_canonical_kmers` builds the
    canonical k-mers of a sequence directly.
    """
    kmers = np.asarray(kmers, dtype=_U64)
    rc = reverse_complement_2bit(kmers, k)
    return np.minimum(kmers, rc)


def position_canonical_kmers(
    codes: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Canonical k-mer at every position plus its validity mask.

    Returns ``(canonical, valid)``: ``canonical`` is a fresh uint64
    array of length ``max(0, len(codes) - k + 1)`` (k-mers over an
    ambiguous base hold the canonical form of their 0-packed value);
    ``valid`` is :func:`kmer_validity`, or None when the sequence has
    no ambiguous base and every k-mer is valid.
    """
    if not 1 <= k <= 32:
        raise ValueError(f"k must be in [1, 32], got {k}")
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size < k:
        return np.zeros(0, dtype=_U64), None
    fwd, rev, ambiguous = _pack_strands(codes, k, reverse=True)
    canonical = np.minimum(fwd, rev, dtype=_U64)
    valid = kmer_validity(codes, k) if ambiguous else None
    return canonical, valid


def valid_canonical_kmers(codes: np.ndarray, k: int) -> np.ndarray:
    """All valid canonical k-mers of an encoded sequence, in order.

    Convenience composition used by the scalar reference paths and the
    Kraken2-like baseline.
    """
    canonical, valid = position_canonical_kmers(codes, k)
    return canonical if valid is None else canonical[valid]
