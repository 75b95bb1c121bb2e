"""Seeded input generators for the benchmark workloads.

Everything the program under test receives is made here from the
workload seed: reference FASTA, an NCBI-style taxonomy dump, an
accession-to-taxon table, FASTQ read files and HTTP request bodies.
The generators live in the benchmark's own files on purpose: a change
to the package's simulators cannot silently change a workload, and
:func:`digest` pins the default-seed inputs (see ``digests.json``).

The shapes follow the paper's two databases and read sets (Tables 1
and 2) at a scale one run can afford:

- refseq-like: genera of related species (siblings share k-mers, so
  some reads end at a genus-level LCA), one target per genome;
- food-like: a few large genomes cut into many scaffolds, one target
  per scaffold (the AFS set's many-targets stress);
- HiSeq-like single-end reads (~92 bp mean) with 3% strain divergence;
- KAL_D-like 101 bp pairs from a four-species mixture at 50/25/15/10.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

_ASCII = np.frombuffer(b"ACGT", dtype=np.uint8)
_COMPLEMENT = np.array([3, 2, 1, 0], dtype=np.uint8)

ROOT_ID = 1
DOMAIN_ID = 2
SPECIES_PER_GENUS = 3
#: targets per food genome
FOOD_SCAFFOLDS = 40


@dataclass
class Genome:
    accession: str
    name: str
    scaffolds: list[np.ndarray]  # 2-bit codes 0..3
    leaf_taxon: int
    species_taxon: int


@dataclass
class References:
    genomes: list[Genome]
    nodes: list[tuple[int, int, str, str]]  # (taxid, parent, rank, name)

    @property
    def total_bases(self) -> int:
        return sum(s.size for g in self.genomes for s in g.scaffolds)

    @property
    def n_targets(self) -> int:
        return sum(len(g.scaffolds) for g in self.genomes)

    def species_of(self) -> dict[int, int]:
        """Taxon id -> species taxon id, for every taxon at or below species."""
        out: dict[int, int] = {}
        for g in self.genomes:
            out[g.leaf_taxon] = g.species_taxon
            out[g.species_taxon] = g.species_taxon
        return out


@dataclass
class Reads:
    headers: list[str]
    mate1: list[np.ndarray]
    mate2: list[np.ndarray] | None
    true_species: np.ndarray  # species taxon id per read (pair)

    def __len__(self) -> int:
        return len(self.headers)


def _mutate(rng: np.random.Generator, codes: np.ndarray, rate: float) -> np.ndarray:
    out = codes.copy()
    hit = np.flatnonzero(rng.random(codes.size) < rate)
    out[hit] = (out[hit] + rng.integers(1, 4, hit.size, dtype=np.uint8)) % 4
    return out


def make_references(
    seed: int, *, n_genera: int, genome_length: int, n_food: int = 0, food_length: int = 0
) -> References:
    """A genus-structured collection, optionally plus scaffolded genomes.

    Species of one genus derive from a common ancestor at 10%
    substitution divergence: close enough to share some sketch
    features, far enough for species-level assignment to be the norm.
    """
    rng = np.random.default_rng([seed, 1])
    nodes: list[tuple[int, int, str, str]] = [
        (ROOT_ID, ROOT_ID, "no rank", "root"),
        (DOMAIN_ID, ROOT_ID, "superkingdom", "synthetic domain"),
    ]
    genomes: list[Genome] = []
    next_leaf = 1_000_000

    def add(accession: str, name: str, genus: int, species: int, scaffolds):
        nonlocal next_leaf
        gid, sid = 100 + genus, 10_000 + species
        if not any(n[0] == gid for n in nodes):
            nodes.append((gid, DOMAIN_ID, "genus", f"genus {genus}"))
        nodes.append((sid, gid, "species", f"species {species}"))
        nodes.append((next_leaf, sid, "no rank", name))
        genomes.append(Genome(accession, name, scaffolds, next_leaf, sid))
        next_leaf += 1

    species = 0
    for genus in range(n_genera):
        ancestor = rng.integers(0, 4, genome_length, dtype=np.uint8)
        for _ in range(SPECIES_PER_GENUS):
            add(
                f"RSQ_{genus:03d}_{species:03d}",
                f"refseq-like genome {species}",
                genus,
                species,
                [_mutate(rng, ancestor, 0.10)],
            )
            species += 1
    for f in range(n_food):
        codes = rng.integers(0, 4, food_length, dtype=np.uint8)
        cuts = np.sort(rng.choice(np.arange(1, food_length), FOOD_SCAFFOLDS - 1, replace=False))
        add(
            f"FOOD_{f}",
            f"food genome {f}",
            n_genera + f,
            species,
            np.split(codes, cuts),
        )
        species += 1
    return References(genomes, nodes)


def _draw_fragments(
    rng: np.random.Generator,
    refs: References,
    members: list[int],
    weights: np.ndarray,
    lengths: np.ndarray,
    divergence: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized fragment sampling over the members' scaffolds.

    Returns ``(codes, offsets, lengths, genome_index)``: the fragments
    concatenated into one buffer (mutated at ``divergence``, half of
    them reverse-complemented) with per-fragment offsets.
    """
    scaffolds = [(gi, s) for gi in members for s in refs.genomes[gi].scaffolds]
    buffer = np.concatenate([s for _, s in scaffolds])
    sizes = np.array([s.size for _, s in scaffolds], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    owner = np.array([gi for gi, _ in scaffolds], dtype=np.int64)
    # scaffold pick: member by weight, then scaffold by size within it
    n = lengths.size
    member_of = rng.choice(len(members), n, p=weights)
    sc_prob = np.empty(sizes.size)
    for k, gi in enumerate(members):
        mask = owner == gi
        sc_prob[mask] = sizes[mask] / sizes[mask].sum()
    u = rng.random(n)
    sc = np.empty(n, dtype=np.int64)
    for k, gi in enumerate(members):
        idx = np.flatnonzero(member_of == k)
        cand = np.flatnonzero(owner == gi)
        cdf = np.cumsum(sc_prob[cand])
        sc[idx] = cand[np.minimum(np.searchsorted(cdf, u[idx] * cdf[-1]), cand.size - 1)]
    lengths = np.minimum(lengths, sizes[sc])
    begin = starts[sc] + (rng.random(n) * (sizes[sc] - lengths + 1)).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    within = np.arange(offsets[-1], dtype=np.int64) - np.repeat(offsets[:-1], lengths)
    flip = rng.random(n) < 0.5
    flip_flat = np.repeat(flip, lengths)
    rev_within = np.repeat(lengths, lengths) - 1 - within
    codes = buffer[np.repeat(begin, lengths) + np.where(flip_flat, rev_within, within)]
    codes = np.where(flip_flat, _COMPLEMENT[codes], codes)
    return _mutate(rng, codes, divergence), offsets, lengths, owner[sc]


def _split(codes: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    return [codes[a:b] for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]


def make_hiseq_reads(
    seed: int, refs: References, n_reads: int, *, stream: int = 2, prefix: str = "hs"
) -> Reads:
    """HiSeq-like single-end mock community over 10 spread-out genomes.

    ~78% of reads are full 101 bp, the rest uniform in [19, 101):
    mean ~92 bp.  3% strain divergence plus 0.1% sequencing error.
    """
    rng = np.random.default_rng([seed, stream])
    members = list(range(0, min(len(refs.genomes), 30), 3))[:10]
    weights = np.full(len(members), 1.0 / len(members))
    full = rng.random(n_reads) < 0.78
    lengths = np.where(full, 101, rng.integers(19, 101, n_reads)).astype(np.int64)
    codes, offsets, _, owner = _draw_fragments(rng, refs, members, weights, lengths, 0.031)
    truth = np.array([refs.genomes[g].species_taxon for g in owner.tolist()], dtype=np.int64)
    headers = [f"{prefix}{i}" for i in range(n_reads)]
    return Reads(headers, _split(codes, offsets), None, truth)


def make_kald_reads(seed: int, refs: References, n_pairs: int) -> Reads:
    """KAL_D-like 101 bp pairs from the food genomes at 50/25/15/10.

    Fragments ~N(300, 30) bp; mate 1 is the fragment's first 101 bp,
    mate 2 the reverse complement of its last 101 bp.  0.9% combined
    strain divergence and sequencing error.
    """
    rng = np.random.default_rng([seed, 3])
    members = [i for i, g in enumerate(refs.genomes) if g.accession.startswith("FOOD_")]
    weights = np.array([0.50, 0.25, 0.15, 0.10])[: len(members)]
    weights = weights / weights.sum()
    frag_len = np.clip(rng.normal(300, 30, n_pairs).astype(np.int64), 202, 450)
    codes, offsets, lengths, owner = _draw_fragments(rng, refs, members, weights, frag_len, 0.009)
    first = offsets[:-1, None] + np.arange(101)
    last = (offsets[1:] - 1)[:, None] - np.arange(101)
    m1 = codes[first]
    m2 = _COMPLEMENT[codes[last]]
    truth = np.array([refs.genomes[g].species_taxon for g in owner.tolist()], dtype=np.int64)
    headers = [f"kd{i}" for i in range(n_pairs)]
    return Reads(headers, list(m1), list(m2), truth)


# ------------------------------------------------------------------ files


def fastq_bytes(headers: list[str], seqs: list[np.ndarray]) -> bytes:
    parts = []
    for h, s in zip(headers, seqs):
        ascii_ = _ASCII[s].tobytes()
        parts.append(b"@%s\n%s\n+\n%s\n" % (h.encode(), ascii_, b"I" * s.size))
    return b"".join(parts)


def write_references(refs: References, directory: str) -> tuple[str, str, str]:
    """Write refs.fasta, taxonomy/{nodes,names}.dmp and mapping.tsv."""
    fasta = os.path.join(directory, "refs.fasta")
    taxdir = os.path.join(directory, "taxonomy")
    mapping = os.path.join(directory, "mapping.tsv")
    os.makedirs(taxdir, exist_ok=True)
    with open(fasta, "wb") as fh:
        for g in refs.genomes:
            for i, s in enumerate(g.scaffolds):
                acc = g.accession if len(g.scaffolds) == 1 else f"{g.accession}.{i + 1}"
                fh.write(b">%s %s\n" % (acc.encode(), g.name.encode()))
                fh.write(_ASCII[s].tobytes())
                fh.write(b"\n")
    with open(os.path.join(taxdir, "nodes.dmp"), "w") as nf, open(
        os.path.join(taxdir, "names.dmp"), "w"
    ) as mf:
        for tid, parent, rank, name in refs.nodes:
            nf.write(f"{tid}\t|\t{parent}\t|\t{rank}\t|\n")
            mf.write(f"{tid}\t|\t{name}\t|\t\t|\tscientific name\t|\n")
    with open(mapping, "w") as fh:
        for g in refs.genomes:
            fh.write(f"{g.accession}\t{g.leaf_taxon}\n")
    return fasta, taxdir, mapping


def write_reads(reads: Reads, directory: str, stem: str) -> tuple[str, str | None]:
    r1 = os.path.join(directory, f"{stem}_1.fastq")
    with open(r1, "wb") as fh:
        fh.write(fastq_bytes(reads.headers, reads.mate1))
    if reads.mate2 is None:
        return r1, None
    r2 = os.path.join(directory, f"{stem}_2.fastq")
    with open(r2, "wb") as fh:
        fh.write(fastq_bytes(reads.headers, reads.mate2))
    return r1, r2


def digest(paths: list[str], extra: bytes = b"") -> str:
    """sha256 over the named files' bytes (in order) plus ``extra``."""
    h = hashlib.sha256()
    for p in paths:
        if os.path.isdir(p):
            for name in sorted(os.listdir(p)):
                with open(os.path.join(p, name), "rb") as fh:
                    h.update(name.encode())
                    h.update(fh.read())
        else:
            with open(p, "rb") as fh:
                h.update(fh.read())
    h.update(extra)
    return h.hexdigest()
