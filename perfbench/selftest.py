"""Fast self-test of the benchmark itself, on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` on shrunken inputs, traced
and untraced, and checks that the last line names every declared
metric with its declared unit, that no measured value is 0 (except
the process-only counters on a serial workload) and that it reports no
failure.  Then runs every
workload with deliberately wrong reference digests and checks that the
run fails: a non-zero exit and a result that counts failed operations.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import PROCESS_ONLY, WORKLOADS  # noqa: E402


def bench(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--tiny",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            code, result = bench(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or not result.get("correct"):
                problems.append(f"{where}: exit {code}, result {result}")
                continue
            printed = result["metrics"]
            may_be_zero = (PROCESS_ONLY
                           if WORKLOADS[workload].backend == "serial"
                           else frozenset())
            for metric in declared:
                name = metric["name"]
                got = printed.get(name)
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{where}: {name} printed as "
                                    f"{got}, declared unit {metric['unit']}")
                # A shrunken input may hold out no sequence of some kind,
                # so its input shares can be 0; measured values cannot.
                elif (got["value"] == 0 and name not in may_be_zero
                      and not name.startswith("input.")):
                    problems.append(f"{where}: {name} is 0")
            print(f"ok   {where}: {len(printed)} metrics")
    for workload in (w["name"] for w in spec["workloads"]):
        code, result = bench(workload, 0, "--wrong-reference")
        where = f"{workload} --wrong-reference"
        if code == 0 or result.get("correct") or not result.get("failed"):
            problems.append(f"{where}: exit {code}, result {result}; "
                            "expected a failed run")
        else:
            print(f"ok   {where}: exit {code}, {result['failed']} failed")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
