"""One batch pipeline run, timed from inside its own process.

Run as ``python batch_child.py FASTA OUT.json --backend B [--workers N]
--spawned-at T [--trace | --setup-only]`` with the repository's ``src``
on ``PYTHONPATH``.  ``T`` is the parent's ``time.monotonic()`` just
before the spawn (the clock is system-wide), so set-up time includes
interpreter start and imports.  With ``--setup-only`` the child opens
and closes the backend and runs nothing: it measures set-up alone.

The run calls the library the way ``repro run`` does and writes one
JSON document: set-up and wall time, the families/Table I digest, the
scientific and work counters and, with ``--trace``, the per-layer
figures.  The
tracing here wraps the program's public functions from the outside;
nothing inside the program is changed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from repro import cli
from repro.core import pipeline as core_pipeline
from repro.core.config import PipelineConfig
from repro.runtime import make_backend
from repro.runtime import phases as runtime_phases
from repro.sequence.fasta import read_fasta

#: The counters that are part of the scientific contract: they must be
#: equal for every backend and every repeat of one input.
SCIENTIFIC_PREFIXES = ("rr.", "bipartite.", "dsd.")
SCIENTIFIC_NAMES = ("ccd.merges", "ccd.components", "ccd.pairs")

#: Work counters: they may differ between repeats of one input (process
#: backend dispatch order, cache reuse), so they are given a spread.
WORK_COUNTERS = ("ccd.alignments", "cache.local_hits", "batch.cells",
                 "runtime.batches", "runtime.batch_pairs",
                 "runtime.max_outstanding")

#: Pipeline settings as ``repro run`` / ``repro serve`` flags: the batch
#: runs and the serve daemon both take their config from these.
PIPELINE_ARGS = ["--edge-similarity", "0.55", "--min-size", "5",
                 "--shingle-s", "5", "--shingle-c", "300"]


def bench_config() -> PipelineConfig:
    """The config ``repro run`` builds from :data:`PIPELINE_ARGS`."""
    parser = argparse.ArgumentParser()
    cli._add_pipeline_args(parser)
    return cli._config_from_args(parser.parse_args(PIPELINE_ARGS))


def scientific_counters(counters: dict) -> dict:
    return {k: v for k, v in sorted(counters.items())
            if k.startswith(SCIENTIFIC_PREFIXES) or k in SCIENTIFIC_NAMES}


def output_digest(result, sequences) -> str:
    """SHA-256 over the families (as ids) and the Table I row."""
    blob = json.dumps({"families": result.family_ids(sequences),
                       "table1": result.table1().formatted()},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


class Timers:
    """Accumulated seconds and call counts per traced name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + calls

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, time.monotonic() - start)
        return timed

    def wrap_iter(self, name: str, fn):
        """Time only the producer's share of a generator's iteration."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.monotonic()
            it = iter(fn(*args, **kwargs))
            self.add(name, time.monotonic() - start, calls=0)
            while True:
                start = time.monotonic()
                try:
                    item = next(it)
                except StopIteration:
                    self.add(name, time.monotonic() - start, calls=0)
                    return
                self.add(name, time.monotonic() - start)
                yield item
        return timed


def install_layer_timers(timers: Timers, backend) -> None:
    """Wrap the layer boundaries the pipeline calls through."""
    for name, phase in (("backend_redundancy_removal", "phase.rr"),
                        ("backend_component_detection", "phase.ccd"),
                        ("backend_generate_component_graphs", "phase.bgg"),
                        ("backend_dense_subgraph_detection", "phase.dsd")):
        setattr(core_pipeline, name,
                timers.wrap(phase, getattr(core_pipeline, name)))
    runtime_phases.duplicate_bipartite = timers.wrap(
        "graph.bipartite_build", runtime_phases.duplicate_bipartite)

    base = runtime_phases.MaximalMatchFinder

    class TimedFinder(base):
        def __init__(self, *args, **kwargs):
            start = time.monotonic()
            super().__init__(*args, **kwargs)
            timers.add("suffix.build", time.monotonic() - start)

    # ``unique_pairs`` iterates ``matches``, so this covers both.
    TimedFinder.matches = timers.wrap_iter("suffix.enum", base.matches)
    runtime_phases.MaximalMatchFinder = TimedFinder

    def wrap_stream(opener):
        @functools.wraps(opener)
        def opened(*args, **kwargs):
            stream = opener(*args, **kwargs)
            stream.ready = timers.wrap("runtime.master_wait", stream.ready)
            stream.drain = timers.wrap_iter("runtime.master_wait",
                                            stream.drain)
            return stream
        return opened

    backend.alignment_stream = wrap_stream(backend.alignment_stream)
    backend.containment_stream = wrap_stream(backend.containment_stream)
    backend.map_components = timers.wrap("runtime.master_wait",
                                         backend.map_components)


def layer_report(timers: Timers, counters: dict, runtime) -> dict:
    """Per-layer figures of one traced run (seconds, counts, ratios)."""
    sec, calls = timers.seconds, timers.calls
    phases = {p: sec.get(f"phase.{p}", 0.0)
              for p in ("rr", "ccd", "bgg", "dsd")}
    align_busy = sum(s.busy_seconds for n, s in runtime.phases.items()
                     if n != "dense_subgraphs")
    cells = counters.get("batch.cells", 0)
    pairs = counters.get("batch.pairs", 0)
    alignments = counters.get("ccd.alignments", 0)
    cache = runtime.cache
    report = {
        "suffix.build_s": sec.get("suffix.build", 0.0),
        "suffix.builds": calls.get("suffix.build", 0),
        "suffix.pairs": calls.get("suffix.enum", 0),
        "suffix.enum_s": sec.get("suffix.enum", 0.0),
        "align.cells": cells,
        "align.batch_s": align_busy,
        "align.cells_per_s": cells / align_busy if align_busy else 0.0,
        "align.myers_reject_frac": (counters.get("batch.myers_rejects", 0)
                                    / pairs if pairs else 0.0),
        "ccd.alignments": alignments,
        "ccd.merges": counters.get("ccd.merges", 0),
        "ccd.useful_frac": (counters.get("ccd.merges", 0) / alignments
                            if alignments else 0.0),
        "rr.pairs": counters.get("rr.pairs", 0),
        "bipartite.pairs": counters.get("bipartite.pairs", 0),
        "bipartite.edges": counters.get("bipartite.edges", 0),
        "cache.hit_rate": cache.get("hit_rate", 0.0),
        "cache.entries": cache.get("entries", 0),
        "graph.bipartite_build_s": sec.get("graph.bipartite_build", 0.0),
        "shingle.tuples": (counters.get("dsd.tuples_pass1", 0)
                           + counters.get("dsd.tuples_pass2", 0)),
        "runtime.batches": counters.get("runtime.batches", 0),
        "runtime.batch_pairs": counters.get("runtime.batch_pairs", 0),
        "runtime.max_outstanding": counters.get("runtime.max_outstanding", 0),
        "runtime.worker_busy_s": sum(s.busy_seconds
                                     for s in runtime.phases.values()),
        "runtime.utilization": runtime.utilization(),
        "runtime.master_wait_s": sec.get("runtime.master_wait", 0.0),
        "runtime.phase_unreported_s": sum(phases.values())
        - runtime.total_wall,
    }
    report.update({f"phase.{p}_s": s for p, s in phases.items()})
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fasta")
    parser.add_argument("out")
    parser.add_argument("--backend", choices=("serial", "process"),
                        required=True)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sequences = read_fasta(args.fasta)
    backend = make_backend(args.backend, args.workers)
    timers = Timers()
    backend.open = timers.wrap("runtime.open", backend.open)
    backend.close = timers.wrap("runtime.close", backend.close)
    if args.setup_only:
        t_run = time.monotonic()
        with backend.session(sequences, bench_config().scheme):
            pass
        setup_s = (t_run - args.spawned_at + timers.seconds["runtime.open"]
                   + timers.seconds["runtime.close"])
        Path(args.out).write_text(json.dumps({"setup_s": setup_s}),
                                  encoding="ascii")
        return 0
    if args.trace:
        install_layer_timers(timers, backend)
    t_run = time.monotonic()
    result = core_pipeline.ProteinFamilyPipeline(bench_config()).run(
        sequences, backend=backend)
    digest = output_digest(result, sequences)
    t_ready = time.monotonic()

    counters = result.obs.counters()
    open_s = timers.seconds["runtime.open"]
    close_s = timers.seconds["runtime.close"]
    doc = {
        "setup_s": t_run - args.spawned_at + open_s + close_s,
        "wall_s": t_ready - t_run - open_s - close_s,
        "digest": digest,
        "scientific": scientific_counters(counters),
        "components": len(result.clustering.components_of_size(
            result.config.min_component_size)),
        "work": {**{k: counters.get(k, 0) for k in WORK_COUNTERS},
                 "cache.hit_rate": result.runtime.cache["hit_rate"]},
    }
    if args.trace:
        doc["layers"] = layer_report(timers, counters, result.runtime)
        doc["layers"]["runtime.open_s"] = open_s
        doc["layers"]["runtime.close_s"] = close_s
        doc["phase_walls"] = {n: s.wall_seconds
                              for n, s in result.runtime.phases.items()}
    Path(args.out).write_text(json.dumps(doc, sort_keys=True),
                              encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
