"""Differential test of the condensed lookup against a dict oracle.

:meth:`CondensedIndex.retrieve` (sorted keys, CSR offsets, one binary
search per batch) must return exactly what a plain ``dict`` built from
the serialized ``(features, lengths, locations)`` triple returns --
same location lists, same order, same per-query offsets -- however
the index reached the process: built in memory, read from a v1 or v2
directory, memory-mapped from v2, or attached from a shared-memory
export.  Pinned cases cover the raw ``0xFFFFFFFF`` query (clamped onto
feature ``0xFFFFFFFE``, like the build tables do), an empty
partition, all-miss and duplicate-key batches, and batches of size 0
and 1.
"""

from __future__ import annotations

import contextlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import MetaCacheParams
from repro.core.database import (
    CondensedIndex,
    Database,
    DatabasePartition,
    SharedDatabaseHandle,
)
from repro.core.io import load_database, save_database
from repro.genomics.simulate import GenomeSimulator
from repro.taxonomy.builder import build_taxonomy_for_genomes

SENTINEL = 0xFFFFFFFF
CLAMPED = 0xFFFFFFFE
LOADERS = ["memory", "v1", "v2", "v2-mmap", "shared-memory"]


@pytest.fixture(scope="module")
def base_db():
    """Parameters, taxonomy and targets to wrap a drawn index in."""
    genomes = GenomeSimulator(seed=3).simulate_collection(2, 1, 2000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    return Database.build(refs, taxonomy, params=MetaCacheParams.small())


def _index(features, lengths, locations) -> CondensedIndex:
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return CondensedIndex(
        keys=np.asarray(features, dtype=np.uint64),
        offsets=offsets,
        locations=np.asarray(locations, dtype=np.uint64),
    )


@contextlib.contextmanager
def _opened(base: Database, index: CondensedIndex, loader: str):
    """``index`` as the given loader delivers it back."""
    if loader == "memory":
        yield index
        return
    db = Database(
        params=base.params,
        taxonomy=base.taxonomy,
        partitions=[DatabasePartition(0, table=None, condensed=index)],
        targets=base.targets,
    )
    if loader == "shared-memory":
        with SharedDatabaseHandle.export(db) as handle:
            yield handle.attach().partitions[0].condensed
        return
    with tempfile.TemporaryDirectory(prefix="lookup-") as tmp:
        directory = Path(tmp) / "db"
        save_database(db, directory, format=1 if loader == "v1" else 2)
        loaded = load_database(directory, mmap=loader == "v2-mmap")
        try:
            yield loaded.partitions[0].condensed
        finally:
            loaded.close()


def _oracle(features, lengths, locations, queries):
    """Expected ``(values, offsets)`` from a plain dict lookup."""
    table: dict[int, list[int]] = {}
    pos = 0
    for feature, length in zip(features, lengths):
        table[int(feature)] = [int(v) for v in locations[pos : pos + length]]
        pos += length
    values: list[int] = []
    offsets = [0]
    for q in queries:
        key = int(q) & SENTINEL
        values += table.get(CLAMPED if key == SENTINEL else key, [])
        offsets.append(len(values))
    return values, offsets


def _check(base, loader, features, lengths, locations, queries):
    index = _index(features, lengths, locations)
    want_values, want_offsets = _oracle(features, lengths, locations, queries)
    with _opened(base, index, loader) as cond:
        values, offsets = cond.retrieve(np.asarray(queries, dtype=np.uint64))
        assert values.dtype == np.uint64 and offsets.dtype == np.int64
        assert offsets.tolist() == want_offsets
        assert values.tolist() == want_values


@st.composite
def _cases(draw):
    features = sorted(
        draw(
            st.lists(
                st.one_of(
                    st.integers(0, 40), st.integers(0, CLAMPED), st.just(CLAMPED)
                ),
                unique=True,
                max_size=24,
            )
        )
    )
    lengths = draw(
        st.lists(st.integers(0, 4), min_size=len(features), max_size=len(features))
    )
    total = sum(lengths)
    locations = draw(
        st.lists(st.integers(0, 2**64 - 1), min_size=total, max_size=total)
    )
    keys = [st.integers(0, 40), st.just(SENTINEL), st.integers(0, SENTINEL)]
    if features:
        keys.append(st.sampled_from(features))
    queries = draw(st.lists(st.one_of(*keys), max_size=32))
    return features, lengths, locations, queries


@pytest.mark.parametrize("loader", LOADERS)
class TestCondensedLookup:
    @given(case=_cases())
    @example(case=([], [], [], [1, SENTINEL, 7]))  # empty partition
    @example(case=([3, 9], [2, 1], [10, 11, 12], []))  # batch of 0
    @example(case=([3, 9], [2, 1], [10, 11, 12], [9]))  # batch of 1
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_oracle(self, base_db, loader, case):
        _check(base_db, loader, *case)

    def test_raw_sentinel_finds_clamped_feature(self, base_db, loader):
        _check(
            base_db, loader,
            [5, CLAMPED], [1, 2], [50, 60, 61],
            [SENTINEL, CLAMPED, 5, SENTINEL],
        )

    def test_empty_partition(self, base_db, loader):
        _check(base_db, loader, [], [], [], [0, 1, CLAMPED, SENTINEL])

    def test_all_miss_batch(self, base_db, loader):
        _check(
            base_db, loader,
            [10, 20, 30], [1, 2, 1], [1, 2, 3, 4],
            [0, 11, 25, 31, CLAMPED, SENTINEL],
        )

    def test_duplicate_query_keys(self, base_db, loader):
        _check(
            base_db, loader,
            [10, 20], [2, 3], [1, 2, 3, 4, 5],
            [20, 10, 20, 20, 99, 10],
        )

    @pytest.mark.parametrize("batch", [[], [20], [21]], ids=["0", "1-hit", "1-miss"])
    def test_tiny_batches(self, base_db, loader, batch):
        _check(base_db, loader, [10, 20], [2, 3], [1, 2, 3, 4, 5], batch)
