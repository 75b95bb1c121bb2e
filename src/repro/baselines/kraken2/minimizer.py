"""Minimizer extraction (Kraken2's k-mer subsampling).

Kraken2 processes each l-mer (default 35) through its minimizer: the
lexicographically (after hashing) smallest m-mer (default 31) it
contains.  Equivalently, over the sequence of canonical m-mer hashes,
each position's minimizer is the minimum over a sliding window of
``l - m + 1`` hashes.  Consecutive duplicate minimizers collapse --
that is what makes minimizers a subsampling scheme.

The sliding minimum is ``scipy.ndimage.minimum_filter1d``, so the
whole extraction is vectorized.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.genomics.kmers import position_canonical_kmers
from repro.hashing.hashes import fmix64

__all__ = ["extract_minimizers"]

_INVALID = np.uint64(0xFFFFFFFFFFFFFFFF)


def extract_minimizers(
    codes: np.ndarray, m: int, window: int, distinct_runs: bool = True
) -> np.ndarray:
    """Minimizer hash sequence of an encoded read/genome.

    Parameters
    ----------
    codes:
        encoded sequence (uint8).
    m:
        minimizer length in bases (Kraken2 default 31; tests use less).
    window:
        number of consecutive m-mers per l-mer window
        (``l - m + 1``; Kraken2 default 5).
    distinct_runs:
        collapse consecutive equal minimizers (the build does;
        classification keeps one entry per l-mer so hit counts weight
        by coverage -- pass False there).

    Invalid m-mers (ambiguous bases) poison their windows, matching
    Kraken2's skipping of ambiguous regions.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    canonical, valid = position_canonical_kmers(codes, m)
    if canonical.size == 0:
        return np.zeros(0, dtype=np.uint64)
    hashes = fmix64(canonical)
    if valid is not None:
        hashes[~valid] = _INVALID
    if hashes.size < window:
        mins = np.array([hashes.min()], dtype=np.uint64)
    else:
        # exact sliding minimum over each length-`window` span of
        # m-mer hashes (scipy's minimum_filter1d routes uint64
        # through float64 and corrupts high bits, so stay in numpy)
        mins = sliding_window_view(hashes, window).min(axis=1)
    mins = mins[mins != _INVALID]
    if distinct_runs and mins.size:
        keep = np.empty(mins.size, dtype=bool)
        keep[0] = True
        np.not_equal(mins[1:], mins[:-1], out=keep[1:])
        mins = mins[keep]
    return mins
