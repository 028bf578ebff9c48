"""Shared benchmark workloads — scaled analogues of the paper's data sets.

The paper samples 160,000 ORFs (221 GOS clusters, mean length 163) and
22,186 ORFs (one large cluster, mean length 256) from CAMERA.  We use
1:100-scale synthetic analogues with the same *structure* (skewed family
sizes, planted redundancy, one-giant-cluster variant) so every benchmark
finishes in minutes on one host while exercising identical code paths.

All heavy artifacts (data sets, alignment caches, phase outputs) are
memoised at module level: the processor sweeps of Figures 6-7 re-run the
*simulation* while reusing physically computed alignments, which is
legitimate because simulated cost is charged per execution, not per
physical computation.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.align.matrices import blosum62_scheme
from repro.align.predicates import (
    CONTAINMENT_COVERAGE,
    CONTAINMENT_SIMILARITY,
    OVERLAP_COVERAGE,
    OVERLAP_SIMILARITY,
)
from repro.core.config import PipelineConfig
from repro.core.pipeline import PipelineResult, ProteinFamilyPipeline
from repro.pace.cache import AlignmentCache
from repro.pace.clustering import ClusteringResult
from repro.pace.redundancy import RedundancyResult
from repro.runtime import SerialBackend
from repro.runtime.phases import (
    backend_component_detection,
    backend_redundancy_removal,
)
from repro.sequence.generator import MetagenomeSpec, SyntheticMetagenome, generate_metagenome
from repro.sequence.record import SequenceSet
from repro.shingle.algorithm import ShingleParams
from repro.util.rng import make_rng

#: Scale factor versus the paper (1500 sequences ~ "160K").
SCALE = 100

#: The processor counts of Figures 6-7 and Table II, scaled 1:2 alongside
#: the 1:100 data scale (paper: 32/64/128/512).  PAPER_PROCESSORS maps each
#: sweep point back to the paper's axis label.
PROCESSOR_SWEEP = (16, 32, 64, 256)
PAPER_PROCESSORS = {16: 32, 32: 64, 64: 128, 256: 512}

#: Input-size sweep of Figure 6 (fractions of the 160K-analogue).
SIZE_SWEEP_LABELS = ("10k", "20k", "40k", "80k", "160k")

#: Paper-default shingle parameters scaled to analogue component sizes:
#: (s, c) = (5, 300) needs Gamma >= 5; our scaled components support it.
BENCH_SHINGLE = ShingleParams(s1=5, c1=300, s2=5, c2=100, seed=2008)

BENCH_CONFIG = PipelineConfig(
    psi=10,
    # Between the within-subfamily (~0.70) and cross-subfamily (~0.41)
    # observed identities, so similarity-graph edges trace subfamilies
    # while Definition 2 (0.30) keeps whole clusters connected.
    edge_similarity=0.55,
    min_component_size=5,
    min_subgraph_size=5,
    shingle=BENCH_SHINGLE,
    tau=0.5,
)


@lru_cache(maxsize=None)
def metagenome_160k() -> SyntheticMetagenome:
    """1:100 analogue of the 160K data set: ~40 families, skewed sizes,
    mean length 163, 12% planted redundancy."""
    return generate_metagenome(
        MetagenomeSpec(
            n_families=80,
            mean_family_size=25,
            zipf_exponent=2.5,
            max_family_size=120,
            mean_length=163,
            length_stddev=35,
            identity_low=0.85,
            identity_high=0.95,
            subfamily_size=14,
            subfamily_identity=0.72,
            redundant_fraction=0.12,
            noise_fraction=0.05,
            seed=160_000,
        )
    )


@lru_cache(maxsize=None)
def metagenome_22k() -> SyntheticMetagenome:
    """1:100 analogue of the 22K single-cluster set: one dominant family,
    mean length 256."""
    return generate_metagenome(
        MetagenomeSpec(
            n_families=3,
            mean_family_size=75,
            zipf_exponent=1.2,
            max_family_size=400,
            mean_length=256,
            length_stddev=40,
            identity_low=0.80,
            identity_high=0.92,
            subfamily_size=15,
            subfamily_identity=0.72,
            redundant_fraction=0.05,
            noise_fraction=0.02,
            seed=22_186,
        )
    )


@lru_cache(maxsize=None)
def scaling_sequences() -> SequenceSet:
    """The 160K-analogue shuffled once so size subsets are prefixes.

    Prefix subsets keep global sequence indices stable, letting every
    (n, p) cell of the Figure 6/7 grids share one alignment cache.
    """
    data = metagenome_160k()
    order = make_rng(6, "scaling-shuffle").permutation(len(data.sequences))
    return data.sequences.subset(int(i) for i in order)


@lru_cache(maxsize=None)
def scaling_subset(label: str) -> SequenceSet:
    """Prefix subset named like the paper's input sizes (10k ... 160k)."""
    full = scaling_sequences()
    fraction = {"10k": 1 / 16, "20k": 1 / 8, "40k": 1 / 4, "80k": 1 / 2, "160k": 1.0}[label]
    n = max(int(len(full) * fraction), 10)
    return full.subset(range(n))


@lru_cache(maxsize=None)
def scaling_cache() -> AlignmentCache:
    """One alignment cache shared by every scaling-grid cell."""
    full = scaling_sequences()
    encoded = [r.encoded for r in full]
    return AlignmentCache(lambda k: encoded[k], blosum62_scheme())


def serial_redundancy(
    sequences: SequenceSet, cache: AlignmentCache, *, psi: int = 10
) -> RedundancyResult:
    """The pipeline's RR phase on a serial backend."""
    backend = SerialBackend()
    with backend.session(sequences, blosum62_scheme()):
        return backend_redundancy_removal(
            sequences,
            backend,
            cache,
            psi=psi,
            similarity=CONTAINMENT_SIMILARITY,
            coverage=CONTAINMENT_COVERAGE,
        )


def serial_clustering(
    sequences: SequenceSet,
    kept: list[int],
    cache: AlignmentCache,
    *,
    psi: int = 10,
) -> ClusteringResult:
    """The pipeline's CCD phase on a serial backend."""
    backend = SerialBackend()
    with backend.session(sequences, blosum62_scheme()):
        return backend_component_detection(
            sequences,
            kept,
            backend,
            cache,
            psi=psi,
            similarity=OVERLAP_SIMILARITY,
            coverage=OVERLAP_COVERAGE,
        )


@lru_cache(maxsize=None)
def pipeline_result_160k() -> PipelineResult:
    data = metagenome_160k()
    return ProteinFamilyPipeline(BENCH_CONFIG).run(data.sequences)


@lru_cache(maxsize=None)
def pipeline_result_22k() -> PipelineResult:
    data = metagenome_22k()
    return ProteinFamilyPipeline(BENCH_CONFIG).run(data.sequences)


def print_banner(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


#: Repo root — where every benchmark's ``BENCH_<name>.json`` lands.
REPO_ROOT = Path(__file__).resolve().parent.parent


def write_bench(name: str, params: Mapping, metrics: Mapping) -> None:
    """Persist a benchmark's headline numbers in the shared
    ``repro-bench/1`` schema (see :mod:`repro.obs.regression`), so the
    repo's performance trajectory is machine-readable and diffable."""
    from repro.obs import write_bench_json

    path = write_bench_json(name, params, metrics, directory=REPO_ROOT)
    print(f"wrote {path.name}")
