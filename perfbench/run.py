"""The repository benchmark: two workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every workload generates its input from
``--seed``, runs the program from ``src/`` in child processes, checks
every output, prints its metrics by name with units, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A failed check makes the exit code 1.

Workloads (why each is here is in BENCHMARK.json):

* ``giant-process``: one giant component on the process backend;
* ``many-serial``: many families on the default serial backend.

Each runs a batch stage (repeated pipeline runs, checked against a
serial reference) and then a serve stage: a ``repro serve`` daemon over
the batch run directory under open-loop mixed traffic.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: What a user of the program sees, in report order.
USER_METRICS = (
    "wall_s", "setup_s", "cpu_s", "peak_rss_mb", "lookup_p50_ms",
    "lookup_tail_ms", "classify_p50_ms", "classify_tail_ms",
    "insert_p50_ms", "insert_tail_ms",
)

#: Per-layer metrics that are scientific or input counts: they must
#: repeat exactly for one input.  The other per-layer metrics measure work
#: or time and vary from run to run.  Names and units of every metric are
#: declared in BENCHMARK.json.
EXACT = frozenset({
    "suffix.builds", "suffix.pairs", "ccd.merges", "rr.pairs",
    "bipartite.pairs", "bipartite.edges", "shingle.tuples",
    "input.components", "input.mean_length", "input.holdout_member_share",
    "input.holdout_redundant_share", "input.holdout_noise_share",
})

#: Per-layer counters that only the process backend keeps: on the serial
#: backend they are 0 by construction, which is what ``many-serial``
#: should show.  End-to-end metrics are gated as shares of a median and
#: are never 0; per-layer metrics have no bound, and these are the only
#: ones allowed to read 0.
PROCESS_ONLY = frozenset({
    "runtime.batches", "runtime.batch_pairs", "runtime.max_outstanding",
})

#: Largest share of a traced batch run's wall (set-up included) that
#: set-up plus the four phase calls timed at their call sites may leave
#: unexplained.
ACCOUNTING_BOUND = 0.10

MIN_BATCH_RUNS = 3

#: Set-up-only children spawned after each batch run, so that a run
#: measures about 20 set-ups.  Set-up is short and its noise is large
#: (0.33-0.63 s within one many-serial run) and only ever adds time, so
#: the reported figure is the minimum over these probes and the batch
#: runs' own set-ups.  Over ten seeds, that minimum spread 0.06-0.15 of
#: its median on many-serial, the median of the same set-ups 0.13-0.33.
SETUP_PROBES = 2

CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    layout: str
    size_scale: float
    holdout_share: float
    backend: str


#: Share of ``--seconds`` spent on repeated batch runs; the rest is the
#: serve stage.
BATCH_SHARE = 0.7

WORKLOADS = {
    "giant-process": Workload("giant", 1.0, 0.4, "process"),
    "many-serial": Workload("many", 0.25, 0.2, "serial"),
}


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def fingerprint() -> dict:
    """Host and code identity stamped on every result."""
    import numpy

    sha = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], text=True,
                             capture_output=True).stdout.strip() or None
        dirty = bool(subprocess.run(git + ["status", "--porcelain"],
                                    text=True,
                                    capture_output=True).stdout.strip())
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return {"usable_cpus": usable_cpus(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha, "dirty": dirty,
            "source_sha256": source.hexdigest()}


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that
    leaves at least ten samples above it (the maximum below 11)."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


class Run:
    """State and accounting of one benchmark invocation."""

    def __init__(self, args: argparse.Namespace, workload: Workload):
        self.args = args
        self.workload = workload
        self.work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failures: list[str] = []
        self.loads: list[float] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok

    def batch_child(self, fasta: Path, tag: str, *, trace: bool = False,
                    setup_only: bool = False) -> dict | None:
        """Run one batch child and return its document plus rusage."""
        out = self.work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "batch_child.py"), str(fasta),
               str(out), "--backend", self.workload.backend]
        if self.workload.backend == "process":
            cmd += ["--workers", str(usable_cpus())]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        self.loads.append(os.getloadavg()[0])
        spawned = time.monotonic()
        with open(self.work / f"{tag}.log", "wb") as log:
            proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)],
                                    stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - spawned > CHILD_TIMEOUT_S:
                proc.kill()
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not self.check(proc.returncode == 0,
                          f"{tag}: exit code {proc.returncode}"):
            return None
        doc = json.loads(out.read_text())
        doc["cpu_s"] = usage.ru_utime + usage.ru_stime
        doc["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        return doc


def reference(sequences, run_dir: Path) -> tuple[str, dict]:
    """The serial reference run, in this process; journals ``run_dir``."""
    from batch_child import bench_config, output_digest, scientific_counters
    from repro.core.pipeline import ProteinFamilyPipeline

    result = ProteinFamilyPipeline(bench_config()).run(
        sequences, backend="serial", run_dir=run_dir)
    return (output_digest(result, sequences),
            scientific_counters(result.obs.counters()))


def run_batch_stage(run: Run, fasta: Path, data
                    ) -> tuple[list[dict], list[float], Path]:
    """Repeated measured batch runs, each checked against the reference.

    Returns the batch runs' documents, every set-up time measured (the
    batch runs' and the set-up probes'), and the reference run dir.
    """
    run_dir = run.work / "run"
    ref_digest, ref_counters = reference(data.batch, run_dir)
    if run.args.wrong_reference:
        ref_digest = "0" * len(ref_digest)
    docs: list[dict] = []
    setups: list[float] = []
    started = time.monotonic()
    window = BATCH_SHARE * run.args.seconds
    while (time.monotonic() - started < window
           or len(docs) < MIN_BATCH_RUNS):
        doc = run.batch_child(fasta, f"batch{len(docs)}")
        if doc is None:
            break
        run.check(doc["digest"] == ref_digest,
                  f"batch{len(docs)}: families/Table I digest differs "
                  f"from the serial reference")
        run.check(doc["scientific"] == ref_counters,
                  f"batch{len(docs)}: scientific counters differ from the "
                  f"serial reference")
        docs.append(doc)
        setups.append(doc["setup_s"])
        for _ in range(SETUP_PROBES):
            probe = run.batch_child(fasta, f"setup{len(setups)}",
                                    setup_only=True)
            if probe is None:
                break
            setups.append(probe["setup_s"])
    return docs, setups, run_dir


def serve_metrics_report(metrics: dict, traffic) -> dict:
    """Per-layer serve figures from the daemon's ``metrics`` reply."""
    counters = metrics["counters"]
    stages: dict[str, float] = {}
    for verb_stages in metrics["stage_seconds"].values():
        for name, seconds in verb_stages.items():
            stages[name] = stages.get(name, 0.0) + seconds
    answered = [s for s in traffic.samples if s.error is None]
    heavy = sum(s.verb != "lookup" for s in traffic.samples)
    client_s = sum(s.done - s.due for s in answered)
    server_s = sum(seconds for verb, per_verb in
                   metrics["stage_seconds"].items()
                   if verb in ("query", "insert")
                   for seconds in per_verb.values())
    candidates = counters.get("serve.candidates", 0)
    lags = [(s.sent - s.due) * 1e3 for s in traffic.samples]
    return {
        **{f"serve.{st}_s": stages.get(st, 0.0)
           for st in ("parse", "candidates", "dp", "myers_reject",
                      "journal_fsync", "ack")},
        "serve.wait_ms": (client_s - server_s) * 1e3 / max(len(answered), 1),
        "serve.applier_busy_frac": (counters.get("serve.applier_busy_seconds",
                                                 0.0) / traffic.wall_s),
        "serve.candidates_per_req": candidates / max(heavy, 1),
        "serve.dp_cells": counters.get("serve.dp_cells", 0),
        "serve.myers_reject_frac": (counters.get("serve.myers_rejects", 0)
                                    / candidates if candidates else 0.0),
        "align.scalar_calls": counters.get("serve.alignments", 0),
        "align.scalar_s": stages.get("dp", 0.0),
        "loadgen.lag_tail_ms": percentile_tail(lags)[0],
    }


def run_serve_stage(run: Run, fasta: Path, run_dir: Path, data,
                    seconds: float) -> dict:
    """Daemon set-up, traffic, and the restart digest check."""
    import serve_stage as ss
    from batch_child import PIPELINE_ARGS

    log = run.work / "serve.log"
    schedule = ss.build_schedule(run.args.seed, seconds, data.batch.ids(),
                                 data.classify_pool, data.insert_pool)
    daemon = ss.start_daemon(fasta, run_dir, PIPELINE_ARGS, run.env, log)
    try:
        run.loads.append(os.getloadavg()[0])
        traffic = ss.run_traffic(daemon.address, schedule, usable_cpus())
        metrics = ss.fetch_metrics(daemon)
        digest = ss.status_digest(daemon)
    finally:
        ss.stop_daemon(daemon)
    again = ss.start_daemon(fasta, run_dir, PIPELINE_ARGS, run.env, log)
    try:
        restarted = ss.status_digest(again)
    finally:
        ss.stop_daemon(again)
    if run.args.wrong_reference:
        restarted = "0" * len(restarted)
    run.check(restarted == digest, "serve restart: status digest differs "
              "from the digest before the restart")
    latencies: dict[str, list[float]] = {v: [] for v in ss.VERBS}
    for sample in traffic.samples:
        if run.check(sample.error is None,
                     f"serve {sample.verb}: {sample.error}"):
            latencies[sample.verb].append((sample.done - sample.due) * 1e3)
    out = {"latency": {}, "layers": {
        **serve_metrics_report(metrics, traffic),
        "serve.daemon_setup_s": statistics.median([daemon.setup_s,
                                                   again.setup_s]),
        "serve.daemon_cpu_s": daemon.cpu_s,
        "serve.daemon_peak_rss_mb": daemon.peak_rss_mb}}
    for verb, values in latencies.items():
        if not values:
            run.check(False, f"serve {verb}: no request answered")
            continue
        tail, pct = percentile_tail(values)
        out["latency"][verb] = {"p50": statistics.median(values),
                                "tail": tail, "tail_pct": round(pct, 1),
                                "n": len(values)}
    lag = out["layers"]["loadgen.lag_tail_ms"]
    out["lag_flag"] = lag > ss.LAG_BOUND_MS
    if out["lag_flag"]:
        print(f"perfbench: generator lag {lag:.1f} ms breaks the "
              f"{ss.LAG_BOUND_MS} ms bound; latencies include it",
              file=sys.stderr)
    return out


def median_of(docs: list[dict], key: str) -> float:
    return statistics.median(d[key] for d in docs)


def mean_of(docs: list[dict], key: str) -> float:
    return statistics.fmean(d[key] for d in docs)


def spread(values: list[float]) -> float:
    """Quartile distance over median (0 below four values)."""
    if len(values) < 4 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def execute(run: Run) -> dict:
    """Run the workload; returns every figure gathered."""
    import inputs
    from repro.sequence.fasta import write_fasta

    w, args = run.workload, run.args
    spec = inputs.GIANT_FAMILY if w.layout == "giant" else inputs.MANY_FAMILIES
    scale = w.size_scale * (0.3 if args.tiny else 1.0)
    data = inputs.build_input(spec, args.seed, size_scale=scale,
                              holdout_share=w.holdout_share)
    fasta = run.work / "batch.fasta"
    write_fasta(data.batch, fasta)

    docs, setups, run_dir = run_batch_stage(run, fasta, data)
    if not docs:
        return {}
    serve = run_serve_stage(run, fasta, run_dir, data,
                            (1.0 - BATCH_SHARE) * args.seconds)
    # Batch times are means over the repeats: the host's CPU speed drifts
    # in episodes of several seconds, and the mean over the window
    # averages them better than the median of a few repeats does.
    e2e = {"wall_s": mean_of(docs, "wall_s"),
           "setup_s": min(setups),
           "cpu_s": mean_of(docs, "cpu_s"),
           "peak_rss_mb": median_of(docs, "peak_rss_mb")}
    for verb, lat in serve["latency"].items():
        e2e[f"{verb}_p50_ms"] = lat["p50"]
        e2e[f"{verb}_tail_ms"] = lat["tail"]

    props = data.properties()
    props["components"] = docs[0]["components"]
    props["cache_hit_rate"] = statistics.median(d["work"]["cache.hit_rate"]
                                                for d in docs)
    figures = {"e2e": e2e, "serve": serve, "inputs": props,
               "batch_runs": [{k: d[k] for k in ("wall_s", "setup_s",
                                                 "cpu_s", "peak_rss_mb",
                                                 "work")}
                              for d in docs],
               "setups": setups}
    if args.trace:
        traced = run.batch_child(fasta, "traced", trace=True)
        if traced is None:
            return figures
        layers = dict(traced["layers"])
        layers.update(serve["layers"])
        layers["trace.overhead_frac"] = (traced["wall_s"]
                                         / median_of(docs, "wall_s") - 1.0)
        total = traced["setup_s"] + traced["wall_s"]
        phases = sum(layers[f"phase.{p}_s"]
                     for p in ("rr", "ccd", "bgg", "dsd"))
        layers["trace.unaccounted_frac"] = (traced["wall_s"] - phases) / total
        run.check(abs(layers["trace.unaccounted_frac"]) <= ACCOUNTING_BOUND,
                  f"traced run: set-up plus phases leave "
                  f"{layers['trace.unaccounted_frac']:.1%} of its wall "
                  f"unaccounted (bound {ACCOUNTING_BOUND:.0%})")
        layers.update({
            "input.components": props["components"],
            "input.mean_length": props["mean_length"],
            **{f"input.holdout_{k}_share": v
               for k, v in props["held_out_share"].items()}})
        figures["layers"] = layers
        figures["phase_walls"] = traced["phase_walls"]
    return figures


def print_report(run: Run, figures: dict, declared: dict) -> None:
    """Human-readable lines: every metric by name with its unit.

    The user-facing metrics print in every mode; those BENCHMARK.json
    gates as end-to-end are marked, the rest are too noisy on a small
    shared host to gate and are declared per-layer instead.
    """
    print(f"workload {run.args.workload}: {declared['why']}")
    print(f"inputs {json.dumps(figures.get('inputs', {}), sort_keys=True)}")
    gated = {name for name, _ in declared["end_to_end"]}
    for name in USER_METRICS:
        value = figures.get("e2e", {}).get(name)
        extra = " [gated]" if name in gated else ""
        if name.endswith("_tail_ms") and value is not None:
            lat = figures["serve"]["latency"][name.split("_")[0]]
            extra += f"  (p{lat['tail_pct']}, n={lat['n']})"
        print(f"  {name:<28s} {value!s:>22s} {declared['units'][name]}"
              f"{extra}")
    error_rate = len(run.failures) / max(run.attempted, 1)
    print(f"  {'error_rate':<28s} {error_rate!s:>22s} fraction "
          f"({len(run.failures)}/{run.attempted})")
    runs = figures.get("batch_runs", [])
    setups = figures.get("setups", [])
    print(f"  batch runs: {len(runs)}, wall spread "
          f"{spread([r['wall_s'] for r in runs]):.3f}; set-ups: "
          f"{len(setups)}, spread {spread(setups):.3f}")
    for name in (runs[0]["work"] if runs else ()):
        values = [r["work"][name] for r in runs]
        print(f"  work {name:<23s} {min(values)!s:>10s} .. "
              f"{max(values)!s:<10s} spread {spread(values):.3f} [variable]")
    for name, unit in declared["per_layer"]:
        if name in figures.get("layers", {}) and name not in USER_METRICS:
            kind = "exact" if name in EXACT else "variable"
            print(f"  {name:<28s} {figures['layers'][name]!s:>22s} "
                  f"{unit} [{kind}]")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the inputs (self-test only)")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="corrupt the reference digests (self-test "
                             "only: every check must then fail)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {kind: [(m["name"], m["unit"]) for m in spec[kind]]
                for kind in ("end_to_end", "per_layer")}
    declared["why"] = next(w["why"] for w in spec["workloads"]
                           if w["name"] == args.workload)
    declared["units"] = dict(declared["end_to_end"] + declared["per_layer"])

    run = Run(args, WORKLOADS[args.workload])
    run.work.mkdir(parents=True, exist_ok=True)
    stamp: dict = {}
    figures: dict = {}
    try:
        stamp = fingerprint()
        figures = execute(run)
    except Exception as exc:  # counted as a failed operation, not a crash
        traceback.print_exc()
        run.check(False, f"the benchmark raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    figures["fingerprint"] = {**stamp, "load1_before": run.loads}
    figures["failures"] = run.failures
    print(f"host {json.dumps(figures['fingerprint'], sort_keys=True)}")
    print_report(run, figures, declared)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    source = dict(figures.get("e2e", {}))
    if args.trace:
        source.update(figures.get("layers", {}))
    metrics = {name: {"value": source[name], "unit": unit}
               for name, unit in wanted if name in source}
    if len(metrics) < len(wanted):
        run.check(False, "some metrics were not measured")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(figures, indent=1, sort_keys=True, default=str))
    print(json.dumps({"correct": not run.failures,
                      "attempted": max(run.attempted, 1),
                      "failed": len(run.failures), "metrics": metrics}))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
