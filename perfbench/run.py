"""Pipeline benchmark for clustersim.

    python3 perfbench/run.py --workload witness-paper --seed 0 --seconds 30 --trace 0

Run from the repository root.  Each workload runs in a fresh worker process
(``worker.py``) that drives ``clustersim.cli.main(argv)`` in process; the
workloads and their checks are defined in ``workloads.py``.  With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics listed in ``BENCHMARK.json``; with ``--trace 1`` it
holds the per-layer metrics of a traced run.  ``--workload all`` runs the
workloads one after another and reports each.

Set-up time is measured from spawning a process until ``import
clustersim.cli`` returns, in the workload's own process and in extra
processes that only import; the median is reported.  Processes run one at
a time, under the caller's thread environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: Set-up samples per untraced run, the workload's own process included.
SETUP_SAMPLES = 15
#: A run must end within this many seconds.
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def spawn(args: list[str], timeout: float) -> tuple[float, list[str], dict]:
    """Run the worker; returns (spawn time, report lines, result object)."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT,
            stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran over {exc.timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stdout}")
    try:
        return started, lines[:-1], json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"worker printed no result: {lines[-1]!r}") from exc


def run_workload(name: str, seed: int, seconds: float, trace: int, metrics: list[dict]):
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            started, _, result = spawn(["--setup-only"], deadline - time.monotonic())
            setups.append(result["imported_at"] - started)
    started, lines, result = spawn(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        deadline - time.monotonic(),
    )
    setups.append(result["imported_at"] - started)
    values = dict(result["metrics"], setup_s=statistics.median(setups))
    for line in lines:
        print(line)
    if not trace:
        print(f"  setup_s: median of {len(setups)} spawns")
    chosen = {}
    for m in metrics:
        if m["name"] not in values:
            raise BenchError(f"workload {name} does not measure {m['name']}")
        chosen[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    return result["attempted"], result["failed"], chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "clustersim" / "cli.py").is_file():
        print(f"perfbench: no clustersim source tree under {ROOT}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = spec["per_layer" if args.trace else "end_to_end"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {
            name: run_workload(name, args.seed, args.seconds, args.trace, metrics)
            for name in names
        }
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r[0] for r in results.values())
    failed = sum(r[1] for r in results.values())
    if args.workload == "all":
        chosen = {f"{w}.{k}": v for w, r in results.items() for k, v in r[2].items()}
    else:
        chosen = results[args.workload][2]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": chosen,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
