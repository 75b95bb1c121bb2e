"""Micro-benchmarks of the query pipeline's vectorized kernels:
sketching throughput, segmented sort, candidate generation and
constant-time LCA batches -- plus the packed-vs-legacy stage
breakdown gating the packed-batch refactor, and the sketch kernel's
sub-stages (position hashes, window gather, minhash) timed against
the pre-rewrite kernels in ``tests/_oracles/legacy_sketch.py``.

The breakdown runs the full classify path twice over the same reads
-- ``query_database`` (contiguous-buffer hot path) vs the per-read
reference ``legacy_query`` (``tests/_oracles/legacy_query.py``) --
records reads-per-second per stage (sketch / query / compact / segmented_sort
/ window_count_top) and end-to-end, and merges the result into
``BENCH_parallel.json`` (run ``bench_parallel_scaling.py`` first so
the document exists; a fresh skeleton is created otherwise).

The sketch sub-stage timings are recorded as the ``sketch_kernel``
block of the same file; they carry no gate.

Run standalone (updates the JSON, exits non-zero below the 1.5x gate):

    PYTHONPATH=src python benchmarks/bench_micro_pipeline.py

or through the bench harness:

    PYTHONPATH=src python -m pytest benchmarks/bench_micro_pipeline.py -q
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.tables import render_table
from repro.core.candidates import generate_top_candidates
from repro.core.classify import classify_reads
from repro.core.query import query_database
from repro.hashing.minhash import sketch_windows_batch, window_hash_matrix
from repro.hashing.sketch import (
    SketchParams,
    position_hashes,
    sketch_reads,
    sketch_sequence,
)
from repro.pipeline.packed import PackedReads
from repro.sort.segmented import segmented_sort
from repro.taxonomy.lca import LcaIndex
from repro.taxonomy.ranks import Rank
from repro.taxonomy.tree import Taxonomy
from repro.util.bitops import pack_pairs
from repro.util.scan import exclusive_prefix_sum

PARAMS = SketchParams()  # paper parameters

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "tests"))

from _oracles import legacy_sketch  # noqa: E402
from _oracles.legacy_query import legacy_query  # noqa: E402
_OUT_DIR = Path(__file__).resolve().parent / "out"
_JSON_NAME = "BENCH_parallel.json"

#: the refactor's single-core gate: packed end-to-end classify
#: throughput must beat the retained per-read reference by this factor
PACKED_SPEEDUP_GATE = 1.5

#: reads per batch of the sketch sub-stage timings (``QuerySession``'s
#: default batch size)
SKETCH_BATCH_READS = 4096


def test_sketch_reference_throughput(benchmark):
    rng = np.random.default_rng(0)
    genome = rng.integers(0, 4, 2_000_000).astype(np.uint8)

    sketches = benchmark(sketch_sequence, genome, PARAMS)
    assert sketches.shape[1] == 16
    benchmark.extra_info["bases_per_second"] = genome.size / benchmark.stats["mean"]


def test_sketch_read_batch_throughput(benchmark):
    rng = np.random.default_rng(1)
    reads = [rng.integers(0, 4, 101).astype(np.uint8) for _ in range(5_000)]

    def run():
        return sketch_reads(reads, PARAMS)

    sketches, win_ids = benchmark(run)
    assert win_ids.size == len(reads)
    benchmark.extra_info["reads_per_second"] = len(reads) / benchmark.stats["mean"]


def test_sketch_read_batch_packed_throughput(benchmark):
    """The packed kernel on a pre-packed batch (no adapter concat)."""
    rng = np.random.default_rng(1)
    reads = [rng.integers(0, 4, 101).astype(np.uint8) for _ in range(5_000)]
    packed = PackedReads.from_reads(reads)

    def run():
        from repro.hashing.sketch import sketch_reads_packed

        return sketch_reads_packed(
            packed.buffer, packed.offsets, PARAMS, packed.read_ids
        )

    sketches, win_ids = benchmark(run)
    assert win_ids.size == len(reads)
    benchmark.extra_info["reads_per_second"] = len(reads) / benchmark.stats["mean"]


def test_segmented_sort_throughput(benchmark):
    rng = np.random.default_rng(2)
    lengths = rng.geometric(1 / 80, size=30_000)
    offsets = exclusive_prefix_sum(lengths)
    values = rng.integers(0, 2**62, int(offsets[-1]), dtype=np.uint64)

    out = benchmark(segmented_sort, values, offsets)
    assert out.size == values.size
    benchmark.extra_info["locations_per_second"] = (
        values.size / benchmark.stats["mean"]
    )


def test_candidate_generation_throughput(benchmark):
    rng = np.random.default_rng(3)
    n_reads = 10_000
    per_read = 60
    locations = []
    for _ in range(n_reads):
        t = rng.integers(0, 20, per_read).astype(np.uint64)
        w = rng.integers(0, 50, per_read).astype(np.uint64)
        locations.append(np.sort(pack_pairs(t, w)))
    flat = np.concatenate(locations)
    offsets = exclusive_prefix_sum(np.full(n_reads, per_read))

    cands = benchmark(generate_top_candidates, flat, offsets, 3, 4)
    assert cands.n_reads == n_reads
    assert cands.valid[:, 0].all()


def test_lca_batch_throughput(benchmark):
    rng = np.random.default_rng(4)
    nodes = [(1, 1, Rank.ROOT, "root")]
    for i in range(2, 20_002):
        nodes.append((i, int(rng.integers(1, i)), Rank.SEQUENCE, f"n{i}"))
    taxonomy = Taxonomy(nodes)
    lca = LcaIndex(taxonomy)
    a = rng.integers(0, len(taxonomy), 100_000)
    b = rng.integers(0, len(taxonomy), 100_000)

    out = benchmark(lca.lca_batch, a, b)
    assert out.size == 100_000
    benchmark.extra_info["lcas_per_second"] = out.size / benchmark.stats["mean"]


# ------------------------------------------- packed-vs-legacy breakdown


def _classify_sweep(db, seqs, chunk_size: int, kernels: str) -> dict:
    """One full classify pass; returns stage seconds + throughput.

    ``kernels`` names the query path: ``"packed"`` runs
    ``query_database``, ``"legacy"`` the per-read oracle.
    """
    query = legacy_query if kernels == "legacy" else query_database
    stage_seconds: dict[str, float] = {}
    taxa = []
    t0 = time.perf_counter()
    for i in range(0, len(seqs), chunk_size):
        result = query(db, seqs[i : i + chunk_size])
        cls = classify_reads(db, result.candidates)
        taxa.append(cls.taxon)
        for name, secs in result.stages.stages.items():
            stage_seconds[name] = stage_seconds.get(name, 0.0) + secs
    wall = time.perf_counter() - t0
    return {
        "kernels": kernels,
        "wall_seconds": wall,
        "reads_per_second": len(seqs) / wall,
        "stage_seconds": stage_seconds,
        "taxa": np.concatenate(taxa) if taxa else np.zeros(0, dtype=np.int64),
    }


def run_packed_vs_legacy(n_reads: int = 4000, chunk_size: int = 500) -> dict:
    """Measure the packed hot path against the per-read reference.

    Single-core, same reads, same database; the legacy pass uses the
    pre-refactor chunk size (100) it was tuned for, so the headline
    ratio compares each path at its own best configuration.
    """
    from repro.bench.workloads import hiseq_mini
    from repro.core.database import Database

    dataset = hiseq_mini(n_reads)
    db = Database.build(dataset.refset.references, dataset.refset.taxonomy)
    db.condense()
    seqs = list(dataset.reads.sequences)

    legacy = _classify_sweep(db, seqs, 100, "legacy")
    packed = _classify_sweep(db, seqs, chunk_size, "packed")
    identical = bool(np.array_equal(legacy.pop("taxa"), packed.pop("taxa")))

    # per-stage reads/s (sketch is where the per-read loop lived)
    stages = {}
    for name in sorted(set(legacy["stage_seconds"]) | set(packed["stage_seconds"])):
        ls = legacy["stage_seconds"].get(name, 0.0)
        ps = packed["stage_seconds"].get(name, 0.0)
        stages[name] = {
            "legacy_seconds": ls,
            "packed_seconds": ps,
            "legacy_reads_per_second": n_reads / ls if ls else None,
            "packed_reads_per_second": n_reads / ps if ps else None,
            "speedup": (ls / ps) if (ls and ps) else None,
        }

    return {
        "n_reads": n_reads,
        "chunk_size_packed": chunk_size,
        "chunk_size_legacy": 100,
        "legacy": {k: v for k, v in legacy.items() if k != "stage_seconds"},
        "packed": {k: v for k, v in packed.items() if k != "stage_seconds"},
        "stages": stages,
        "byte_identical": identical,
        "speedup": legacy["wall_seconds"] / packed["wall_seconds"],
        "gate": PACKED_SPEEDUP_GATE,
    }


def render_packed_report(section: dict) -> str:
    """Human-readable packed-vs-legacy stage table."""
    rows = []
    for name, s in section["stages"].items():
        rows.append(
            [
                name,
                f"{s['legacy_seconds']:.4f}",
                f"{s['packed_seconds']:.4f}",
                f"{s['speedup']:.2f}x" if s["speedup"] else "-",
            ]
        )
    rows.append(
        [
            "end-to-end",
            f"{section['legacy']['wall_seconds']:.4f}",
            f"{section['packed']['wall_seconds']:.4f}",
            f"{section['speedup']:.2f}x",
        ]
    )
    table = render_table(
        f"Packed vs legacy kernels ({section['n_reads']} reads, "
        f"single core)",
        ["Stage", "Legacy (s)", "Packed (s)", "Speedup"],
        rows,
    )
    return table + (
        f"\nlegacy: {section['legacy']['reads_per_second']:,.0f} reads/s "
        f"(chunk {section['chunk_size_legacy']})   "
        f"packed: {section['packed']['reads_per_second']:,.0f} reads/s "
        f"(chunk {section['chunk_size_packed']})   "
        f"identical: {'yes' if section['byte_identical'] else 'NO'}\n"
    )


# ------------------------------------------------ sketch sub-stages


def run_sketch_kernel(n_reads: int = SKETCH_BATCH_READS, repeats: int = 15) -> dict:
    """Milliseconds per ``n_reads`` batch of each sketch sub-stage.

    Times the production ``position_hashes`` / ``window_hash_matrix``
    / ``sketch_windows_batch`` against their pre-rewrite copies in
    ``legacy_sketch`` on one packed HiSeq-like batch at the paper's
    parameters; the two sides alternate within each repeat and the
    median is recorded.  ``byte_identical`` compares every stage's
    output.
    """
    from repro.bench.workloads import hiseq_mini

    packed = PackedReads.from_reads(list(hiseq_mini(n_reads).reads.sequences))
    buffer, offsets = packed.buffer, packed.offsets
    _, segment_ids, starts_local, ends_local = PARAMS.layout.packed_window_slices(
        np.diff(offsets)
    )
    starts = offsets[:-1][segment_ids] + starts_local
    lengths = ends_local - starts_local - PARAMS.k + 1
    width, s = PARAMS.kmers_per_window, PARAMS.sketch_size
    hashes = position_hashes(buffer, PARAMS)
    matrix = window_hash_matrix(hashes, starts, lengths, width)
    pairs = {
        "position_hashes": (
            lambda: position_hashes(buffer, PARAMS),
            lambda: legacy_sketch.position_hashes(buffer, PARAMS.k),
        ),
        "window_gather": (
            lambda: window_hash_matrix(hashes, starts, lengths, width),
            lambda: legacy_sketch.window_hash_matrix(hashes, starts, lengths, width),
        ),
        "minhash": (
            lambda: sketch_windows_batch(matrix, s),
            lambda: legacy_sketch.sketch_windows_batch(matrix, s),
        ),
    }
    stages = {}
    identical = True
    for name, (production, legacy) in pairs.items():
        identical &= bool(np.array_equal(production(), legacy()))
        times: dict[str, list[float]] = {"production": [], "legacy": []}
        for _ in range(repeats):
            for side, fn in (("production", production), ("legacy", legacy)):
                t0 = time.perf_counter()
                fn()
                times[side].append(time.perf_counter() - t0)
        prod_ms = float(np.median(times["production"])) * 1e3
        legacy_ms = float(np.median(times["legacy"])) * 1e3
        stages[name] = {
            "production_ms": prod_ms,
            "legacy_ms": legacy_ms,
            "speedup": legacy_ms / prod_ms,
        }
    prod_total = sum(v["production_ms"] for v in stages.values())
    legacy_total = sum(v["legacy_ms"] for v in stages.values())
    return {
        "n_reads": n_reads,
        "bases": int(buffer.size),
        "windows": int(segment_ids.size),
        "params": {"k": PARAMS.k, "sketch_size": s, "window_size": PARAMS.window_size},
        "repeats": repeats,
        "stages": stages,
        "total": {
            "production_ms": prod_total,
            "legacy_ms": legacy_total,
            "speedup": legacy_total / prod_total,
        },
        "byte_identical": identical,
    }


def render_sketch_report(section: dict) -> str:
    """Human-readable sketch sub-stage table."""
    rows = [
        [
            name,
            f"{v['legacy_ms']:.2f}",
            f"{v['production_ms']:.2f}",
            f"{v['speedup']:.2f}x",
        ]
        for name, v in [*section["stages"].items(), ("total", section["total"])]
    ]
    table = render_table(
        f"Sketch kernel sub-stages (ms per {section['n_reads']}-read batch, "
        f"median of {section['repeats']})",
        ["Stage", "Legacy (ms)", "Production (ms)", "Speedup"],
        rows,
    )
    return table + (
        f"\nidentical: {'yes' if section['byte_identical'] else 'NO'}\n"
    )


def merge_into_bench_json(sections: dict) -> list[Path]:
    """Attach sections to BENCH_parallel.json (root + out copies).

    ``sections`` maps a top-level key (``packed_vs_legacy``,
    ``sketch_kernel``) to its block.  ``bench_parallel_scaling.py``
    writes the document wholesale; this runs after it in the bench job
    and only adds/replaces those keys, so ordering in CI matters but
    nothing is lost if the scaling sweep was skipped (a skeleton is
    created).
    """
    written = []
    _OUT_DIR.mkdir(exist_ok=True)
    for path in (_REPO_ROOT / _JSON_NAME, _OUT_DIR / _JSON_NAME):
        doc = (
            json.loads(path.read_text())
            if path.exists()
            else {"benchmark": "parallel_scaling", "schema_version": 1}
        )
        doc.update(sections)
        path.write_text(json.dumps(doc, indent=2) + "\n")
        written.append(path)
    renderers = {
        "packed_vs_legacy": ("bench_micro_pipeline_packed.txt", render_packed_report),
        "sketch_kernel": ("bench_micro_pipeline_sketch.txt", render_sketch_report),
    }
    for key, section in sections.items():
        name, render = renderers[key]
        table_path = _OUT_DIR / name
        table_path.write_text(render(section))
        written.append(table_path)
    return written


def test_packed_vs_legacy_breakdown(benchmark, report):
    """Bench-harness entry: breakdown, merge JSON, gate the speedup."""
    section = benchmark.pedantic(run_packed_vs_legacy, rounds=1, iterations=1)
    merge_into_bench_json({"packed_vs_legacy": section})
    report(render_packed_report(section))
    assert section["byte_identical"]
    assert section["speedup"] >= PACKED_SPEEDUP_GATE


def test_sketch_kernel_breakdown(benchmark, report):
    """Bench-harness entry: sketch sub-stages, merge JSON (no speed gate)."""
    section = benchmark.pedantic(run_sketch_kernel, rounds=1, iterations=1)
    merge_into_bench_json({"sketch_kernel": section})
    report(render_sketch_report(section))
    assert section["byte_identical"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="packed-vs-legacy classify breakdown"
    )
    parser.add_argument("--reads", type=int, default=4000)
    parser.add_argument("--chunk-size", type=int, default=500)
    args = parser.parse_args(argv)
    section = run_packed_vs_legacy(
        n_reads=args.reads, chunk_size=args.chunk_size
    )
    sketch = run_sketch_kernel()
    sections = {"packed_vs_legacy": section, "sketch_kernel": sketch}
    for path in merge_into_bench_json(sections):
        print(f"wrote {path}", file=sys.stderr)
    print(render_packed_report(section))
    print(render_sketch_report(sketch))
    if not (section["byte_identical"] and sketch["byte_identical"]):
        return 2
    return 0 if section["speedup"] >= PACKED_SPEEDUP_GATE else 1


if __name__ == "__main__":
    raise SystemExit(main())
