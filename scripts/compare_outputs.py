"""Compare the CLI outputs of the working tree with those of a git ref.

Usage: python3 scripts/compare_outputs.py BASE_REF

BASE_REF is extracted with ``git archive`` into a temporary directory.  Both
trees then run all 8 commands at each run below, each in a fresh output
directory, and the script lists every output file, stdout, stderr or exit
code that differs.  It exits 1 if anything differs, else 0.  Standard library
only; nothing is written inside the checkout.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COMMANDS = ("generate", "transmit", "measure", "witness", "fringe", "visibility", "drift",
            "capacity")
PENALTY = {"detection": {"visibility_penalty": {"T": 0.8, "t": 0.9}, "jitter_signal_ps": 40.0}}

#: name -> (extra arguments, config document or None)
RUNS = {
    "seed-3": (["--seed", "3"], None),
    "seed-3-exact": (["--seed", "3", "--exact"], None),
    "paper-default-seed-0": (["--preset", "paper-default", "--seed", "0"], None),
    "svg": ([], {"svg": True}),
    "penalty": (["--seed", "3"], PENALTY),
    "penalty-exact": (["--seed", "3", "--exact"], PENALTY),
}


def extract(ref: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=REPO,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def run_all(tree: Path, work: Path) -> dict[str, bytes | int]:
    """Every observable of every (run, command): files, stdout, stderr, exit code."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run([sys.executable, "-c", "import clustersim; print(clustersim.__file__)"],
                           cwd=tree, env=env, check=True, capture_output=True, text=True).stdout
    if not Path(where.strip()).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"clustersim imports from {where.strip()}, not from {tree / 'src'}")
    seen: dict[str, bytes | int] = {}
    for run, (args, doc) in RUNS.items():
        argv = list(args)
        if doc is not None:
            config = work / f"{run}.json"
            config.write_text(json.dumps(doc))
            argv += ["--config", str(config)]
        for command in COMMANDS:
            key = f"{run}/{command}"
            outdir = work / key
            proc = subprocess.run(
                [sys.executable, "-m", "clustersim.cli", command, *argv, "--out", str(outdir)],
                cwd=tree, env=env, capture_output=True,
            )
            seen[f"{key} exit code"] = proc.returncode
            seen[f"{key} stdout"] = proc.stdout
            seen[f"{key} stderr"] = proc.stderr
            if outdir.is_dir():
                for path in sorted(outdir.rglob("*")):
                    if path.is_file():
                        seen[f"{key}/{path.relative_to(outdir)}"] = path.read_bytes()
    return seen


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        extract(argv[0], base)
        before = run_all(base, Path(tmp) / "base-out")
        after = run_all(REPO, Path(tmp) / "head-out")
    differ = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    for key in differ:
        print(f"differs: {key}")
    runs = len(RUNS) * len(COMMANDS)
    print(f"{len(differ)} of {len(before.keys() | after.keys())} observables differ "
          f"over {runs} command runs against {argv[0]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
