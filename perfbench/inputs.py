"""Seeded inputs of the benchmark workloads.

A workload's sequences are one fixed draw of a scaled copy of the
paper's data-set analogues (family sizes, lengths, identities and
residues all come from the analogue's own seed).  The benchmark seed
draws everything a run sees beyond that: which sequences are held out
of the batch input for the serve pools, the order of the batch input,
and, in the serve stage, the traffic.  Keeping the sequences fixed keeps
the alignment work the same for every seed, so the run-to-run spread
measures the program and the host, not the draw.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sequence.generator import MetagenomeSpec, generate_metagenome
from repro.sequence.record import SequenceRecord, SequenceSet
from repro.util.rng import derive_seed, make_rng

# The two specs are copies of the analogues in benchmarks/workloads.py,
# kept here on purpose: the benchmark's input must stay fixed when the
# repository's own benchmark scripts change.

#: The 160K-analogue: many skewed families, mean length 163, 12%
#: planted redundancy, 5% noise.
MANY_FAMILIES = MetagenomeSpec(
    n_families=80, mean_family_size=25, zipf_exponent=2.5,
    max_family_size=120, mean_length=163, length_stddev=35,
    identity_low=0.85, identity_high=0.95, subfamily_size=14,
    subfamily_identity=0.72, redundant_fraction=0.12, noise_fraction=0.05,
    seed=160_000,
)

#: The 22K-analogue: one dominant family, mean length 256.
GIANT_FAMILY = MetagenomeSpec(
    n_families=3, mean_family_size=75, zipf_exponent=1.2,
    max_family_size=400, mean_length=256, length_stddev=40,
    identity_low=0.80, identity_high=0.92, subfamily_size=15,
    subfamily_identity=0.72, redundant_fraction=0.05, noise_fraction=0.02,
    seed=22_186,
)

KINDS = ("member", "redundant", "noise")


@dataclass
class WorkloadInput:
    """A workload's sequences split into the batch set and serve pools."""

    batch: SequenceSet
    classify_pool: list[SequenceRecord]
    insert_pool: list[SequenceRecord]
    kind: dict[str, str]
    families: int

    def properties(self) -> dict:
        """Input properties the program's behaviour depends on."""
        held = self.classify_pool + self.insert_pool
        shares = {k: sum(self.kind[r.id] == k for r in held) / len(held)
                  for k in KINDS}
        return {
            "batch_sequences": len(self.batch),
            "held_out_sequences": len(held),
            "held_out_share": {k: round(v, 4) for k, v in shares.items()},
            "planted_families": self.families,
            "mean_length": round(self.batch.mean_length, 2),
        }


def scaled_analogue(spec: MetagenomeSpec, size_scale: float
                    ) -> tuple[list[SequenceRecord], dict[str, str],
                               dict[str, int]]:
    """The analogue with every family scaled by ``size_scale``.

    Returns the records, each id's kind and each id's family.  Each
    family is generated on its own with the analogue's length and
    identity for it, so scaling changes sizes and nothing else.
    """
    records: list[SequenceRecord] = []
    kind: dict[str, str] = {}
    family: dict[str, int] = {}
    for f, fam in enumerate(generate_metagenome(spec).families):
        size = max(int(round(fam.size * size_scale)), 2)
        # Mean size one above the cap pins the generator's Zipf draw to
        # exactly ``size``; a zero deviation keeps the family's length.
        part = generate_metagenome(MetagenomeSpec(
            n_families=1, mean_family_size=size + 1, max_family_size=size,
            mean_length=fam.ancestral_length, length_stddev=0,
            min_length=spec.min_length, identity_low=fam.identity,
            identity_high=fam.identity, subfamily_size=spec.subfamily_size,
            subfamily_identity=spec.subfamily_identity,
            redundant_fraction=spec.redundant_fraction,
            noise_fraction=spec.noise_fraction,
            fragment_fraction=spec.fragment_fraction,
            seed=derive_seed(spec.seed, "perfbench-family", f),
        ))
        for record in part.sequences:
            if part.truth[record.id] < 0:
                k = "noise"
            elif record.id in part.redundant_of:
                k = "redundant"
            else:
                k = "member"
            new_id = f"f{f:03d}.{record.id}"
            kind[new_id], family[new_id] = k, f
            records.append(SequenceRecord(id=new_id,
                                          residues=record.residues))
    return records, kind, family


def build_input(spec: MetagenomeSpec, seed: int, *, holdout_share: float,
                size_scale: float = 1.0) -> WorkloadInput:
    """Split the scaled analogue by a seeded hold-out.

    The hold-out is a seeded random sample of ``holdout_share`` of each
    family's members, of the planted-redundant copies and of the noise,
    dealt alternately into the classify and insert pools, which keep the
    strata in order; the rest, in a seeded order, is the batch input.
    """
    records, kind, family = scaled_analogue(spec, size_scale)
    rng = make_rng(seed, "perfbench-holdout")
    strata: dict[tuple[int, str], list[SequenceRecord]] = {}
    for record in records:
        # Members are sampled per family; copies and noise, a few per
        # family, are sampled across families.
        k = kind[record.id]
        stratum = family[record.id] if k == "member" else -1
        strata.setdefault((stratum, k), []).append(record)
    pools: tuple[list[SequenceRecord], ...] = ([], [], [])
    turn = 0  # alternates the pools across strata as well as within
    for _, stratum in sorted(strata.items()):
        n_held = int(round(holdout_share * len(stratum)))
        order = rng.permutation(len(stratum)).tolist()
        for rank, i in enumerate(order):
            if rank < n_held:
                pools[turn % 2].append(stratum[i])
                turn += 1
            else:
                pools[2].append(stratum[i])
    classify, insert, kept = pools
    kept = [kept[i] for i in rng.permutation(len(kept))]
    return WorkloadInput(batch=SequenceSet(kept), classify_pool=classify,
                         insert_pool=insert, kind=kind,
                         families=len({family[r.id] for r in records}))
