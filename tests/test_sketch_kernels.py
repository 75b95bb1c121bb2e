"""Differential tests: the sketch kernels against the frozen pre-rewrite copies.

``tests/_oracles/legacy_sketch.py`` keeps the k-pass packing loop, the
bit-reversal canonicalisation, the cumsum validity mask, the
temporary-per-step fmix64, the index-matrix window gather and the
cumsum-rank minhash.  Every production primitive that replaced them
must return bit-identical arrays:

- ``pack_kmers`` / ``valid_canonical_kmers`` / ``position_hashes`` for
  every k in 1..32, with and without ambiguous runs;
- ``fmix64`` / ``hash_kmers_h1`` (and the in-place variant);
- ``window_hash_matrix`` for random starts and lengths;
- ``sketch_windows_batch`` on narrow matrices (``width < s``), all-PAD
  and constant rows, and the extreme values 0 and ``0xFFFFFFFF``,
  without modifying its input;
- ``sketch_reads_packed`` with ambiguous runs at segment edges and
  segment lengths 0, k-1, k and k+1, and ``sketch_packed_segments``
  row blocks against per-segment ``sketch_sequence``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics.alphabet import AMBIG
from repro.genomics.kmers import pack_kmers, valid_canonical_kmers
from repro.hashing.hashes import fmix64, hash_kmers_h1, hash_kmers_h1_inplace
from repro.hashing.minhash import SKETCH_PAD, sketch_windows_batch, window_hash_matrix
from repro.hashing.sketch import (
    SketchParams,
    position_hashes,
    sketch_packed_segments,
    sketch_reads_packed,
    sketch_sequence,
)

from _oracles import legacy_sketch as legacy
from _oracles.legacy_query import sketch_reads_loop

_MAX_H1 = 0xFFFFFFFF


def _codes_with_runs(n: int, seed: int, ambig_runs: int) -> np.ndarray:
    """Random bases with ``ambig_runs`` AMBIG runs, one pinned to each end."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=n).astype(np.uint8)
    if n == 0 or ambig_runs == 0:
        return codes
    codes[: int(rng.integers(1, 4))] = AMBIG
    codes[n - int(rng.integers(1, 4)) :] = AMBIG
    for _ in range(ambig_runs - 1):
        start = int(rng.integers(0, n))
        codes[start : start + int(rng.integers(1, 40))] = AMBIG
    return codes


def _params(k: int) -> SketchParams:
    return SketchParams(k=k, sketch_size=4, window_size=k + 16)


class TestKmersEveryK:
    @pytest.mark.parametrize("k", range(1, 33))
    def test_position_hashes_every_k(self, k):
        for ambig_runs in (0, 3):
            for n in (0, k - 1, k, k + 1, 257):
                codes = _codes_with_runs(n, seed=k * 1000 + n, ambig_runs=ambig_runs)
                got = position_hashes(codes, _params(k))
                want = legacy.position_hashes(codes, k)
                assert got.dtype == np.uint64
                assert np.array_equal(got, want), (k, n, ambig_runs)

    @pytest.mark.parametrize("k", range(1, 33))
    def test_pack_and_valid_canonical_every_k(self, k):
        codes = _codes_with_runs(300, seed=k, ambig_runs=4)
        packed = pack_kmers(codes, k)
        assert packed.dtype == np.uint64
        assert np.array_equal(packed, legacy.pack_kmers(codes, k))
        valid = legacy.kmer_validity(codes, k)
        want = legacy.canonical_kmers(legacy.pack_kmers(codes, k)[valid], k)
        assert np.array_equal(valid_canonical_kmers(codes, k), want)

    @given(
        st.integers(1, 32),
        st.lists(st.sampled_from([0, 1, 2, 3, 255]), min_size=0, max_size=120),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_position_hashes(self, k, bases):
        codes = np.array(bases, dtype=np.uint8)
        assert np.array_equal(
            position_hashes(codes, _params(k)), legacy.position_hashes(codes, k)
        )
        assert np.array_equal(pack_kmers(codes, k), legacy.pack_kmers(codes, k))

    def test_input_codes_unchanged(self):
        codes = _codes_with_runs(200, seed=3, ambig_runs=2)
        before = codes.copy()
        for k in (1, 4, 16, 31):
            position_hashes(codes, _params(k))
            pack_kmers(codes, k)
        assert np.array_equal(codes, before)


class TestHashes:
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_fmix64_and_h1_match_legacy(self, values):
        v = np.array(values, dtype=np.uint64)
        assert np.array_equal(fmix64(v), legacy.fmix64(v))
        assert np.array_equal(hash_kmers_h1(v), legacy.hash_kmers_h1(v))
        before = v.copy()
        fmix64(v)
        hash_kmers_h1(v)
        assert np.array_equal(v, before)

    def test_inplace_h1_overwrites_its_argument(self):
        v = np.arange(1000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        want = legacy.hash_kmers_h1(v)
        out = hash_kmers_h1_inplace(v)
        assert out is v
        assert np.array_equal(v, want)

    def test_scalar_input(self):
        assert int(fmix64(12345)) == int(legacy.fmix64(12345))


class TestWindowHashMatrix:
    @given(
        st.integers(0, 60),
        st.integers(1, 30),
        st.integers(0, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_legacy(self, n, width, n_windows, seed):
        rng = np.random.default_rng(seed)
        hashes = rng.integers(0, 50, size=n).astype(np.uint64)
        hashes[rng.random(n) < 0.2] = SKETCH_PAD
        if n == 0:
            n_windows = 0
        starts = rng.integers(0, max(n, 1), size=n_windows)
        lengths = np.minimum(rng.integers(0, width + 1, size=n_windows), n - starts)
        got = window_hash_matrix(hashes, starts, lengths, width)
        want = legacy.window_hash_matrix(hashes, starts, lengths, width)
        assert got.shape == want.shape == (n_windows, width)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)


_VALUES = st.sampled_from([0, 1, 2, 7, _MAX_H1 - 1, _MAX_H1, int(SKETCH_PAD)])


class TestSketchWindowsBatch:
    @given(
        st.integers(0, 12),
        st.integers(1, 20),
        st.integers(1, 24),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_legacy(self, rows, width, s, data):
        cells = data.draw(
            st.lists(
                st.one_of(_VALUES, st.integers(0, 30)),
                min_size=rows * width,
                max_size=rows * width,
            )
        )
        matrix = np.array(cells, dtype=np.uint64).reshape(rows, width)
        before = matrix.copy()
        got = sketch_windows_batch(matrix, s)
        assert np.array_equal(matrix, before)  # input not mutated
        want = legacy.sketch_windows_batch(matrix, s)
        assert got.shape == want.shape == (rows, s)
        assert np.array_equal(got, want)

    def test_width_below_s(self):
        m = np.array([[9, 3, 3], [SKETCH_PAD, 0, _MAX_H1]], dtype=np.uint64)
        got = sketch_windows_batch(m, 5)
        assert np.array_equal(got, legacy.sketch_windows_batch(m, 5))
        assert list(got[0]) == [3, 9] + [SKETCH_PAD] * 3
        assert list(got[1]) == [0, _MAX_H1] + [SKETCH_PAD] * 3

    def test_all_pad_and_constant_rows(self):
        m = np.array(
            [[SKETCH_PAD] * 6, [5] * 6, [0] * 6, [_MAX_H1] * 6], dtype=np.uint64
        )
        got = sketch_windows_batch(m, 3)
        assert np.array_equal(got, legacy.sketch_windows_batch(m, 3))
        assert (got[0] == SKETCH_PAD).all()
        assert list(got[1]) == [5, SKETCH_PAD, SKETCH_PAD]
        assert list(got[2]) == [0, SKETCH_PAD, SKETCH_PAD]
        assert list(got[3]) == [_MAX_H1, SKETCH_PAD, SKETCH_PAD]

    def test_empty(self):
        for shape in ((0, 5), (3, 0)):
            m = np.zeros(shape, dtype=np.uint64)
            got = sketch_windows_batch(m, 4)
            assert np.array_equal(got, legacy.sketch_windows_batch(m, 4))


def _segments(lengths: list[int], seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A packed buffer whose segments start and end with AMBIG runs (mostly)."""
    rng = np.random.default_rng(seed)
    parts = []
    for i, n in enumerate(lengths):
        parts.append(_codes_with_runs(n, int(rng.integers(0, 2**31)), ambig_runs=i % 3))
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    buffer = np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)
    return buffer.astype(np.uint8), offsets


class TestPackedKernels:
    @pytest.mark.parametrize("k", [1, 5, 13, 16, 31, 32])
    def test_edge_lengths_and_ambig_edges(self, k):
        params = SketchParams(k=k, sketch_size=6, window_size=k + 20)
        lengths = [0, k - 1, k, k + 1, 0, 3 * k + 50, k - 1, k + 1, 200]
        buffer, offsets = _segments(lengths, seed=k)
        seqs = [buffer[offsets[i] : offsets[i + 1]] for i in range(len(lengths))]
        got, got_ids = sketch_reads_packed(buffer, offsets, params)
        want, want_ids = sketch_reads_loop(seqs, params)
        assert np.array_equal(got, want)
        assert np.array_equal(got_ids, want_ids)

    @given(
        st.integers(1, 32),
        st.integers(0, 12),
        st.integers(1, 8),
        st.lists(st.integers(0, 90), min_size=0, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_reads_packed_matches_loop(self, k, extra, s, lengths, seed):
        params = SketchParams(k=k, sketch_size=s, window_size=k + extra)
        buffer, offsets = _segments(lengths, seed)
        seqs = [buffer[offsets[i] : offsets[i + 1]] for i in range(len(lengths))]
        got, got_ids = sketch_reads_packed(buffer, offsets, params)
        want, want_ids = sketch_reads_loop(seqs, params)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(got_ids, want_ids)

    @given(
        st.sampled_from([4, 8, 16, 31]),
        st.lists(st.integers(0, 300), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_packed_segments_equal_per_segment_sequence(self, k, lengths, seed):
        params = SketchParams(k=k, sketch_size=5, window_size=k + 24)
        buffer, offsets = _segments(lengths, seed)
        sketches, counts = sketch_packed_segments(buffer, offsets, params)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        for i in range(len(lengths)):
            seq = buffer[offsets[i] : offsets[i + 1]]
            block = sketches[bounds[i] : bounds[i + 1]]
            assert np.array_equal(block, sketch_sequence(seq, params))
            want, _ = sketch_reads_loop([seq], params)
            assert np.array_equal(block, want)
