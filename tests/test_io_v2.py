"""Tests of the format-v2 (mmap, zero-rebuild) database persistence.

Covers the v2 writer/reader pair (aligned ``.npy`` sorted-key + CSR
offset layout, checksum manifest, version negotiation), the
payload-free mmap open, the offset invariants eager and verified opens
enforce, mmap attach semantics (``np.memmap`` views, page-cache
sharing through :class:`FileBackedDatabaseHandle`), classification
equivalence across {v1, v2, v2+mmap, v2+workers}, the ``convert``
upgrade path (API and CLI), the earlier hash-table-pointer v2 layout
(a committed fixture), and the reserved-sentinel regression.
"""

import json
import pickle
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    DatabaseFormatError,
    MetaCache,
    MetaCacheParams,
    SketchParams,
    TsvSink,
)
from repro.cli import main as cli_main
from repro.core.classify import classify_reads
from repro.core.database import Database, FileBackedDatabaseHandle
from repro.core.io import (
    FORMAT_V2,
    _NPY_ALIGN,
    _write_npy_aligned,
    convert_database,
    load_database,
    save_database,
)
from repro.core.query import query_database
from repro.genomics.alphabet import decode_sequence
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.taxonomy.builder import build_taxonomy_for_genomes
from repro.warpcore.single_value import SingleValueHashTable

PARAMS = MetaCacheParams.small()
CSR_ARRAYS = {"features", "offsets", "locations"}
GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
# a v2 directory saved from the golden corpus (k=8 s=4 w=24, one
# partition) before v2 switched to CSR offsets: its manifest lists
# lengths plus the ptr_keys/ptr_values hash-table slots
POINTER_V2_DIR = Path(__file__).parent / "data" / "golden_v2_pointer"


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A 2-partition database saved in both formats + a read file."""
    genomes = GenomeSimulator(seed=23).simulate_collection(3, 2, 5000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    db = Database.build(references, taxonomy, params=PARAMS, n_partitions=2)
    root = tmp_path_factory.mktemp("dbv2")
    v1 = root / "v1"
    v2 = root / "v2"
    save_database(db, v1)
    save_database(db, v2, format=2)
    reads = ReadSimulator(genomes, seed=31).simulate(HISEQ, 100)
    records = [
        FastqRecord(f"r{i}", decode_sequence(s), "I" * s.size)
        for i, s in enumerate(reads.sequences)
    ]
    read_file = root / "reads.fastq"
    write_fastq(records, read_file)
    return v1, v2, list(reads.sequences), read_file


def _taxa(db, seqs):
    result = query_database(db, seqs)
    return classify_reads(db, result.candidates).taxon


def _rewrite_array(directory, pid, key, array):
    """Replace one v2 array file and keep its manifest CRC consistent."""
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    spec = manifest["partitions"][pid]["arrays"][key]
    spec["crc32"] = _write_npy_aligned(directory / spec["file"], array)
    spec["shape"] = list(array.shape)
    manifest_path.write_text(json.dumps(manifest))


def _classify_tsv(tmp_path, db_dir, read_file, name, **open_kwargs):
    out = tmp_path / name
    with MetaCache.open(db_dir, **open_kwargs) as mc:
        with mc.session() as session, TsvSink(out) as sink:
            session.classify_files(read_file, sink=sink)
    return out.read_bytes()


class TestV2Layout:
    def test_v2_files_and_manifest(self, world):
        _, v2, _, _ = world
        manifest = json.loads((v2 / "manifest.json").read_text())
        assert manifest["format_version"] == FORMAT_V2
        assert len(manifest["partitions"]) == 2
        files = set()
        for pid, entry in enumerate(manifest["partitions"]):
            assert set(entry["arrays"]) == CSR_ARRAYS
            assert "pointer_table" not in entry
            for key, spec in entry["arrays"].items():
                assert spec["file"] == f"part{pid}.{key}.npy"
                payload = np.load(v2 / spec["file"])
                assert zlib.crc32(payload.tobytes()) == spec["crc32"]
                files.add(spec["file"])
        # the manifest names every array file in the directory
        assert files == {p.name for p in v2.glob("*.npy")}

    def test_offsets_index_the_locations(self, world):
        """Offsets start at 0, never decrease, end at locations.size."""
        _, v2, _, _ = world
        manifest = json.loads((v2 / "manifest.json").read_text())
        for pid, entry in enumerate(manifest["partitions"]):
            features = np.load(v2 / f"part{pid}.features.npy")
            offsets = np.load(v2 / f"part{pid}.offsets.npy")
            locations = np.load(v2 / f"part{pid}.locations.npy")
            assert offsets.dtype == np.int64
            assert offsets.shape == (features.size + 1,)
            assert offsets[0] == 0 and offsets[-1] == locations.size
            assert (np.diff(offsets) > 0).all()  # every feature has a location
            assert (np.diff(features.astype(np.int64)) > 0).all()

    def test_npy_payloads_page_aligned(self, world):
        _, v2, _, _ = world
        for path in sorted(v2.glob("*.npy")):
            with open(path, "rb") as fh:
                assert fh.read(8) == b"\x93NUMPY\x01\x00"
                (hlen,) = struct.unpack("<H", fh.read(2))
            assert (10 + hlen) % _NPY_ALIGN == 0, path.name

    def test_meta_declares_v2(self, world):
        _, v2, _, _ = world
        meta = json.loads((v2 / "database.meta").read_text())
        assert meta["format_version"] == FORMAT_V2


class TestZeroRebuildOpen:
    def test_mmap_open_reads_no_payload(self, world, tmp_path):
        """A mmap open touches headers only, never an index payload.

        Every payload byte of every array is overwritten with garbage
        (headers and sizes stay valid): an open that read any payload
        to check or rebuild it would notice, as the eager open does.
        """
        import shutil

        _, v2, _, _ = world
        dst = tmp_path / "garbage"
        shutil.copytree(v2, dst)
        for path in dst.glob("*.npy"):
            blob = bytearray(path.read_bytes())
            blob[_NPY_ALIGN:] = b"\xa5" * (len(blob) - _NPY_ALIGN)
            path.write_bytes(bytes(blob))
        db = load_database(dst, mmap=True)
        try:
            for part in db.partitions:
                cond = part.condensed
                for array in (cond.keys, cond.offsets, cond.locations):
                    assert isinstance(array, np.memmap)
        finally:
            db.close()
        with pytest.raises(DatabaseFormatError):
            load_database(dst)
        with pytest.raises(DatabaseFormatError, match="checksum mismatch"):
            load_database(dst, mmap=True, verify=True)

    def test_mmap_views_are_memmaps(self, world):
        _, v2, _, _ = world
        db = load_database(v2, mmap=True)
        cond = db.partitions[0].condensed
        assert isinstance(cond.locations, np.memmap)
        assert isinstance(cond.keys, np.memmap)
        assert isinstance(cond.offsets, np.memmap)
        assert db.mmap_path == v2
        assert db.format_version == FORMAT_V2

    def test_plain_v2_load_not_mmap_backed(self, world):
        _, v2, _, _ = world
        db = load_database(v2)
        assert db.mmap_path is None
        assert not isinstance(db.partitions[0].condensed.locations, np.memmap)

    def test_v1_mmap_warns_and_rebuilds(self, world):
        v1, _, seqs, _ = world
        with pytest.warns(UserWarning, match="cannot be memory-mapped"):
            db = load_database(v1, mmap=True)
        assert db.mmap_path is None
        assert db.format_version == 1


class TestEquivalence:
    def test_classification_identical_across_formats(self, world):
        v1, v2, seqs, _ = world
        expected = _taxa(load_database(v1), seqs)
        assert np.array_equal(expected, _taxa(load_database(v2), seqs))
        assert np.array_equal(expected, _taxa(load_database(v2, mmap=True), seqs))

    def test_tsv_byte_identical_v1_v2_mmap(self, world, tmp_path):
        v1, v2, _, read_file = world
        ref = _classify_tsv(tmp_path, v1, read_file, "v1.tsv")
        assert ref  # sanity: non-empty output
        assert ref == _classify_tsv(tmp_path, v2, read_file, "v2.tsv")
        assert ref == _classify_tsv(
            tmp_path, v2, read_file, "v2m.tsv", mmap=True
        )

    def test_tsv_byte_identical_mmap_workers(self, world, tmp_path):
        """Workers attach the same files via mmap; output is identical."""
        v1, v2, _, read_file = world
        ref = _classify_tsv(tmp_path, v1, read_file, "ref.tsv")
        got = _classify_tsv(
            tmp_path, v2, read_file, "w2.tsv", mmap=True, workers=2
        )
        assert ref == got


class TestFileBackedHandle:
    def test_sharing_handle_kind_depends_on_open_mode(self, world):
        _, v2, _, _ = world
        assert isinstance(
            load_database(v2, mmap=True).sharing_handle(),
            FileBackedDatabaseHandle,
        )
        with load_database(v2).sharing_handle() as shared:
            # non-mmap databases fall back to the shared-memory export
            assert not isinstance(shared, FileBackedDatabaseHandle)

    def test_pickle_roundtrip_attach(self, world):
        _, v2, seqs, _ = world
        handle = load_database(v2, mmap=True).sharing_handle()
        blob = pickle.dumps(handle)
        assert len(blob) < 1024  # the spec is just a path
        clone = pickle.loads(blob)
        db = clone.attach()
        assert db.mmap_path == v2
        assert clone.attach() is db  # idempotent
        clone.close()
        assert clone._database is None
        clone.unlink()  # no-op: must not delete the directory
        assert (v2 / "database.meta").is_file()

    def test_attach_missing_directory_fails(self, tmp_path):
        handle = FileBackedDatabaseHandle(tmp_path / "nope")
        with pytest.raises(FileNotFoundError):
            handle.attach()


class TestConvert:
    def test_convert_v1_to_v2(self, world, tmp_path):
        v1, _, seqs, _ = world
        dst = tmp_path / "upgraded"
        convert_database(v1, dst)
        db = load_database(dst, mmap=True, verify=True)
        assert np.array_equal(_taxa(load_database(v1), seqs), _taxa(db, seqs))

    def test_convert_v2_to_v1_downgrade(self, world, tmp_path):
        _, v2, seqs, _ = world
        dst = tmp_path / "downgraded"
        convert_database(v2, dst, format=1)
        meta = json.loads((dst / "database.meta").read_text())
        assert meta["format_version"] == 1
        assert np.array_equal(
            _taxa(load_database(v2), seqs), _taxa(load_database(dst), seqs)
        )

    def test_convert_in_place_rejected(self, world):
        v1, _, _, _ = world
        with pytest.raises(ValueError, match="in place"):
            convert_database(v1, v1)

    def test_convert_cli(self, world, tmp_path, capsys):
        v1, _, _, read_file = world
        dst = tmp_path / "cli-upgraded"
        assert cli_main(["convert", "--db", str(v1), "--out", str(dst)]) == 0
        assert "format v2" in capsys.readouterr().out
        ref = _classify_tsv(tmp_path, v1, read_file, "a.tsv")
        got = _classify_tsv(tmp_path, dst, read_file, "b.tsv", mmap=True)
        assert ref == got

    def test_facade_convert_missing_source(self, tmp_path):
        with pytest.raises(DatabaseFormatError, match="no database"):
            MetaCache.convert(tmp_path / "absent", tmp_path / "out")


class TestPointerLayoutCompat:
    """The committed v2 directory in the earlier hash-table layout."""

    def test_fixture_has_the_pointer_layout(self):
        manifest = json.loads((POINTER_V2_DIR / "manifest.json").read_text())
        (entry,) = manifest["partitions"]
        assert set(entry["arrays"]) == {
            "features", "lengths", "locations", "ptr_keys", "ptr_values"
        }
        assert "pointer_table" in entry
        # the arrays the loader reads match their manifest CRCs
        load_database(POINTER_V2_DIR, mmap=True, verify=True).close()

    @pytest.mark.parametrize(
        "open_kwargs", [{}, {"mmap": True}], ids=["eager", "mmap"]
    )
    def test_classifies_golden_bytes(self, tmp_path, open_kwargs):
        got = _classify_tsv(
            tmp_path, POINTER_V2_DIR, GOLDEN_DIR / "reads.fastq", "out.tsv",
            **open_kwargs,
        )
        assert got == (GOLDEN_DIR / "expected.tsv").read_bytes()

    def test_convert_rewrites_csr_layout(self, tmp_path):
        dst = tmp_path / "converted"
        convert_database(POINTER_V2_DIR, dst)
        manifest = json.loads((dst / "manifest.json").read_text())
        (entry,) = manifest["partitions"]
        assert set(entry["arrays"]) == CSR_ARRAYS
        assert not list(dst.glob("*ptr_*"))
        # ...file for file what a fresh v2 save of the same build writes
        fresh = tmp_path / "fresh"
        golden_params = MetaCacheParams(
            sketch=SketchParams(k=8, sketch_size=4, window_size=24)
        )
        with MetaCache.build(
            [GOLDEN_DIR / "refs.fasta"],
            taxonomy=GOLDEN_DIR,
            mapping=GOLDEN_DIR / "acc2tax.tsv",
            params=golden_params,
        ) as mc:
            mc.save(fresh, format=2)
        assert sorted(p.name for p in dst.iterdir()) == sorted(
            p.name for p in fresh.iterdir()
        )
        for path in sorted(dst.iterdir()):
            assert path.read_bytes() == (fresh / path.name).read_bytes(), path.name
        got = _classify_tsv(
            tmp_path, dst, GOLDEN_DIR / "reads.fastq", "out.tsv", mmap=True
        )
        assert got == (GOLDEN_DIR / "expected.tsv").read_bytes()

    def test_eager_open_checks_lengths(self, tmp_path):
        import shutil

        dst = tmp_path / "copy"
        shutil.copytree(POINTER_V2_DIR, dst)
        lengths = np.load(dst / "part0.lengths.npy").copy()
        lengths[0] += 1
        _rewrite_array(dst, 0, "lengths", lengths)
        with pytest.raises(DatabaseFormatError, match="offsets do not index"):
            load_database(dst)


class TestMmapOverwriteGuard:
    """Pin the resolve-both-sides spelling of the overwrite guard.

    ``save_database`` refuses to write into the directory backing a
    mmap-backed database because the save would rewrite the very files
    the live index arrays are mapped over.  Both sides of the
    comparison are ``resolve()``d, so aliased spellings of the same
    directory (symlinks, relative paths) must be refused too -- and a
    *fresh* directory must keep working, byte-identically, as the
    sanctioned way to copy a mmap-backed database.
    """

    def test_symlinked_spelling_refused(self, world, tmp_path):
        _, v2, _, _ = world
        db = load_database(v2, mmap=True)
        try:
            alias = tmp_path / "alias"
            alias.symlink_to(v2, target_is_directory=True)
            with pytest.raises(DatabaseFormatError, match="memory-mapped"):
                save_database(db, alias, format=2)
        finally:
            db.close()

    def test_relative_spelling_refused(self, world, monkeypatch):
        _, v2, _, _ = world
        db = load_database(v2, mmap=True)
        try:
            monkeypatch.chdir(v2.parent)
            with pytest.raises(DatabaseFormatError, match="memory-mapped"):
                save_database(db, Path(v2.name), format=2)
        finally:
            db.close()

    def test_fresh_dir_save_byte_identical_then_hot_swap(
        self, world, tmp_path
    ):
        _, v2, _, read_file = world
        db = load_database(v2, mmap=True)
        fresh = tmp_path / "fresh"
        try:
            save_database(db, fresh, format=2)
        finally:
            db.close()
        assert sorted(p.name for p in fresh.iterdir()) == sorted(
            p.name for p in v2.iterdir()
        )
        for path in sorted(fresh.iterdir()):
            assert path.read_bytes() == (v2 / path.name).read_bytes(), (
                path.name
            )
        # ...and a live handle can hot-swap onto the copy mid-session
        # and keep answering identically
        before, after = tmp_path / "before.tsv", tmp_path / "after.tsv"
        with MetaCache.open(v2, mmap=True) as mc:
            with mc.session() as session:
                with TsvSink(before) as sink:
                    session.classify_files(read_file, sink=sink)
                mc.reload(fresh)
                assert mc.database.mmap_path == fresh
                with TsvSink(after) as sink:
                    session.classify_files(read_file, sink=sink)
        assert before.read_bytes() == after.read_bytes()


class TestCorruption:
    def _copy_v2(self, v2, tmp_path):
        import shutil

        dst = tmp_path / "copy"
        shutil.copytree(v2, dst)
        return dst

    def test_checksum_mismatch_detected(self, world, tmp_path):
        _, v2, _, _ = world
        dst = self._copy_v2(v2, tmp_path)
        victim = dst / "part0.locations.npy"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload byte
        victim.write_bytes(bytes(blob))
        with pytest.raises(DatabaseFormatError, match="checksum mismatch"):
            load_database(dst, verify=True)

    def test_unverified_load_skips_checksums(self, world, tmp_path):
        _, v2, _, _ = world
        dst = self._copy_v2(v2, tmp_path)
        victim = dst / "part0.locations.npy"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        load_database(dst)  # corruption invisible without verify

    def test_missing_manifest(self, world, tmp_path):
        _, v2, _, _ = world
        dst = self._copy_v2(v2, tmp_path)
        (dst / "manifest.json").unlink()
        with pytest.raises(DatabaseFormatError, match="missing its manifest"):
            load_database(dst)

    def test_missing_array_file(self, world, tmp_path):
        _, v2, _, _ = world
        dst = self._copy_v2(v2, tmp_path)
        (dst / "part1.offsets.npy").unlink()
        with pytest.raises(DatabaseFormatError, match="part1.offsets.npy"):
            load_database(dst)

    @pytest.mark.parametrize("damage", ["decreasing", "short", "nonzero_start"])
    def test_corrupt_offsets_detected_on_eager_and_verified_open(
        self, world, tmp_path, damage
    ):
        """Eager and verified opens check the offsets index the locations.

        The manifest CRC is rewritten to match, so the offset check
        itself -- not the checksum -- must catch the damage; a plain
        mmap open stays lazy by contract.
        """
        _, v2, _, _ = world
        dst = self._copy_v2(v2, tmp_path)
        offsets = np.load(dst / "part0.offsets.npy").copy()
        if damage == "decreasing":
            offsets[1], offsets[2] = offsets[2], offsets[1]
        elif damage == "short":
            offsets[-1] -= 1
        else:
            offsets[0] = 1
        _rewrite_array(dst, 0, "offsets", offsets)
        with pytest.raises(DatabaseFormatError, match="offsets do not index"):
            load_database(dst)
        load_database(dst, mmap=True).close()
        with pytest.raises(DatabaseFormatError, match="offsets do not index"):
            load_database(dst, mmap=True, verify=True)

    def test_unsorted_features_detected_on_eager_open(self, world, tmp_path):
        _, v2, _, _ = world
        dst = self._copy_v2(v2, tmp_path)
        features = np.load(dst / "part0.features.npy")[::-1].copy()
        _rewrite_array(dst, 0, "features", features)
        with pytest.raises(DatabaseFormatError, match="invalid feature"):
            load_database(dst)

    def test_offsets_shape_mismatch_detected(self, world, tmp_path):
        _, v2, _, _ = world
        dst = self._copy_v2(v2, tmp_path)
        offsets = np.load(dst / "part0.offsets.npy")[:-1].copy()
        _rewrite_array(dst, 0, "offsets", offsets)
        with pytest.raises(DatabaseFormatError, match="feature/offset"):
            load_database(dst, mmap=True)  # a header check: even lazy opens

    def test_shape_mismatch_detected(self, world, tmp_path):
        _, v2, _, _ = world
        dst = self._copy_v2(v2, tmp_path)
        manifest = json.loads((dst / "manifest.json").read_text())
        manifest["partitions"][0]["arrays"]["features"]["shape"] = [1]
        (dst / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatabaseFormatError, match="manifest says"):
            load_database(dst)


class TestSentinelRegression:
    """Insert -> save -> load -> retrieve of the reserved sentinel key."""

    def test_single_value_insert_rejects_raw_sentinel(self):
        t = SingleValueHashTable(capacity_keys=16)
        with pytest.raises(ValueError, match="reserved as the empty-slot"):
            t.insert(
                np.array([3, 0xFFFFFFFF], dtype=np.uint64),
                np.array([1, 2], dtype=np.uint64),
            )
        # the batch is rejected atomically: nothing was placed
        assert len(t) == 0

    def test_sentinel_feature_survives_save_load_both_formats(self, tmp_path):
        """A build-table feature equal to the sentinel round-trips.

        The build tables reserve the sentinel by clamping it onto
        0xFFFFFFFE; the condensed index and both disk formats must
        keep that feature retrievable -- it must not vanish from
        occupied-slot scans on the way to disk and back.
        """
        genomes = GenomeSimulator(seed=5).simulate_collection(2, 1, 3000)
        taxonomy, taxa = build_taxonomy_for_genomes(genomes)
        refs = [
            (g.name, g.scaffolds[0], taxa.target_taxon[i])
            for i, g in enumerate(genomes)
        ]
        db = Database.build(refs, taxonomy, params=PARAMS)
        sentinel = np.array([0xFFFFFFFF], dtype=np.uint64)
        marker = np.array([123456], dtype=np.uint64)
        db.partitions[0].table.insert(sentinel, marker)
        for fmt, mmap in ((1, False), (2, False), (2, True)):
            directory = tmp_path / f"fmt{fmt}-{mmap}"
            save_database(db, directory, format=fmt)
            loaded = load_database(directory, mmap=mmap)
            values, offsets = loaded.partitions[0].condensed.retrieve(sentinel)
            got = values[offsets[0] : offsets[1]]
            assert marker[0] in got.tolist(), (fmt, mmap)

    def test_v1_file_with_raw_sentinel_feature_rejected(self, world, tmp_path):
        """A (corrupt/foreign) v1 cache naming the raw sentinel errors."""
        import shutil

        v1, _, _, _ = world
        dst = tmp_path / "sent"
        shutil.copytree(v1, dst)
        cache = dst / "database.cache0"
        with np.load(cache) as data:
            features = data["features"].copy()
            lengths = data["lengths"]
            locations = data["locations"]
        if features.size == 0:
            pytest.skip("empty partition")
        features[-1] = 0xFFFFFFFF
        with open(cache, "wb") as fh:
            np.savez(fh, features=features, lengths=lengths, locations=locations)
        with pytest.raises(DatabaseFormatError, match="invalid feature"):
            load_database(dst)
