"""One workload in one fresh process; started by run.py, not by hand.

The first statements import ``clustersim.cli`` from the checkout's ``src``
and note the time, so the parent can measure set-up from spawn to import.
``--setup-only`` stops there.  Otherwise the worker runs workload sets
until ``--seconds`` is used up and prints report lines, then one JSON
object as its last line.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import clustersim.cli as cli  # noqa: E402  (set-up ends when this returns)

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import COMPUTED, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Context  # noqa: E402

MODULES = sorted({name.split(".")[0] for name in TARGETS})
#: Fewest command samples for which command_s_tail is a tail (>= p90).
TAIL_MIN_SAMPLES = 100
MAX_REPORTED_FAILURES = 5


def call(argv):
    """One in-process CLI call: (seconds, exit code or None, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a traceback is a failed command, not a crash
            rc = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return seconds, rc, err.getvalue()


class Runner:
    def __init__(self, workload, seed, work: Path):
        self.workload = workload
        self.rng = random.Random(seed)
        self.work = work
        self.ctx = Context(work / "checks", lambda argv: call(argv)[1:])
        self.attempted = 0
        self.failures: list[str] = []

    def next_set(self, index):
        inputs = self.work / f"set-{index}"
        inputs.mkdir(parents=True)
        return self.workload.make_set(self.rng, inputs)

    def run(self, commands, root: Path, check=True):
        """Run one set with --out under `root`; returns (wall, command times).

        Failures are counted here; the outputs are checked after the timed
        loop, unless check is False.
        """
        shutil.rmtree(root, ignore_errors=True)
        results = []
        start = time.perf_counter()
        for cmd in commands:
            results.append(call(cmd.argv + ["--out", str(root / cmd.name)]))
        wall = time.perf_counter() - start
        for cmd, (_, rc, err) in zip(commands, results):
            self.attempted += 1
            if rc != 0 or err:
                self.failures.append(f"{cmd.label()}: exit {rc}, stderr {err.strip()[-300:]!r}")
                continue
            try:
                if check:
                    cmd.check(self.ctx, cmd, root / cmd.name)
            except CheckFailed as exc:
                self.failures.append(f"{cmd.label()}: {exc}")
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                self.failures.append(f"{cmd.label()}: malformed output: {exc!r}")
        return wall, [r[0] for r in results]


def _deadline_loop(seconds, body):
    """Call body(i) while less than `seconds` have passed; returns the call count."""
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        body(i)
        i += 1
    return i


def _files(root: Path):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def measure(runner, seconds):
    walls, times = [], []

    def one_set(i):
        wall, t = runner.run(runner.next_set(i), runner.work / "out")
        walls.append(wall)
        times.extend(t)

    sets = _deadline_loop(seconds, one_set)
    metrics = {
        "wall_s": statistics.median(walls),
        "command_s_p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"wall_s: median of {sets} sets of {len(times) // sets} commands",
        f"command_s_p50: n={len(times)}",
        command_tail(times),
    ]
    return metrics, notes


def command_tail(times):
    """Highest percentile with at least ten samples beyond it, if a tail."""
    n = len(times)
    if n < TAIL_MIN_SAMPLES:
        return f"command_s_tail: not defined for n={n} (needs n >= {TAIL_MIN_SAMPLES})"
    ordered = sorted(times)
    pct = 100.0 * (n - 10) / n
    return f"command_s_tail: {ordered[n - 11]:.6f} s at p{pct:.2f} (n={n}, 10 beyond)"


def measure_traced(runner, seconds):
    """Pairs of untraced and traced sets on the same inputs."""
    per_set: list[dict] = []
    identical = True
    absent: set[str] = set()
    broken: set[str] = set()
    cache = getattr(sys.modules.get("clustersim.bessel"), "_row_cached", None)
    if not hasattr(cache, "cache_info"):
        cache = None

    def one_pair(i):
        nonlocal identical
        commands = runner.next_set(i)
        plain_wall, _ = runner.run(commands, runner.work / "plain")
        info0 = cache.cache_info() if cache is not None else None
        with Tracer() as tracer:
            # byte-identity with the untraced outputs stands in for the checks
            traced_wall, _ = runner.run(commands, runner.work / "traced", check=False)
        info1 = cache.cache_info() if cache is not None else None
        absent.update(tracer.absent)
        broken.update(tracer.broken_counters)
        self_s, calls, counters, raised = tracer.take()
        plain, traced = _files(runner.work / "plain"), _files(runner.work / "traced")
        if plain != traced:
            differing = sorted(str(k) for k in plain.keys() | traced.keys()
                               if plain.get(k) != traced.get(k))
            runner.failures.append(f"set {i}: traced --out files differ: {differing[:5]}")
            identical = False
        # every span nests in a cli.main span, so self times add up to command time
        total = sum(self_s.values())
        row = {"trace.command_s": total}
        for name in TARGETS:
            row[f"{name}.self_s"] = self_s.get(name, 0.0)
            row[f"{name}.calls"] = calls.get(name, 0)
        for module in MODULES:
            module_s = sum(s for name, s in self_s.items() if name.split(".")[0] == module)
            row[f"share.{module}"] = 100.0 * module_s / total if total else 0.0
        for name in COMPUTED:
            row[name] = counters.get(name, 0)
        if info0 is not None:
            hits, misses = info1.hits - info0.hits, info1.misses - info0.misses
            row["bessel.row_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        else:
            row["bessel.row_cache_hit_ratio"] = 0.0
        row["cli.bytes_written"] = sum(len(b) for b in traced.values())
        row["trace.spans_raised"] = raised
        row["trace.overhead_s"] = traced_wall - plain_wall
        per_set.append(row)

    pairs = _deadline_loop(seconds, one_pair)
    metrics = {
        key: statistics.median(row[key] for row in per_set) for key in per_set[0]
    }
    notes = [f"per-layer values: median over {pairs} traced sets, each paired with an "
             f"untraced set on the same inputs; --out files identical: {identical}"]
    notes += [f"absent trace target: {name}" for name in sorted(absent)]
    notes += [f"counter unavailable: {msg}" for msg in sorted(broken)]
    if cache is None:
        notes.append("absent: bessel row cache")
    return metrics, notes


def environment(workload, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError) as exc:
        blas = f"unknown ({exc})"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        **{k: os.environ.get(k) for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"imported_at": IMPORTED_AT}))
        return 0
    expected = os.path.join(ROOT, "src", "clustersim")
    if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
        print(f"imported clustersim from {cli.__file__}, not {expected}", file=sys.stderr)
        return 2
    work = Path(ROOT) / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = WORKLOADS[args.workload]
        runner = Runner(workload, args.seed, work)
        measured = measure_traced if args.trace else measure
        metrics, notes = measured(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {workload.name}: {workload.why}")
    print(f"  loads: {workload.loads}")
    print(f"  bypasses: {workload.bypasses}")
    print(f"  predicts: {workload.predicts}")
    print("env " + json.dumps(environment(workload.name, args.seed), sort_keys=True))
    for note in notes:
        print("  " + note)
    failed = len(runner.failures)
    print(f"  error_rate: {failed / runner.attempted:.6f} ({failed} of {runner.attempted} commands)")
    for failure in runner.failures[:MAX_REPORTED_FAILURES]:
        print("  FAILED " + failure)
    print(json.dumps({
        "imported_at": IMPORTED_AT,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
