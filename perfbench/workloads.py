"""The benchmark's workloads: inputs made from the seed, and output checks.

Every workload is a closed loop with one client: the benchmark calls
``clustersim.cli.main(argv)`` in process and issues the next command only
after the previous one has returned.  A *set* is the workload's full set of
results at its stated input size; ``wall_s`` times one set.  The program
sees only argv and the ``--config`` files written here, never the workload
seed itself.

The checks accept results that are equal in distribution and reject wrong
ones, so they compare values against invariants and independent estimates,
never bytes: later changes may alter random streams and algorithms.

The Tier-1 test suite is deliberately not a workload, because each change
alters what it runs.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

PAPER = "paper-default"


class CheckFailed(Exception):
    """An output that violates one of the workload's invariants."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Command:
    argv: list[str]
    name: str  # unique within a set; names the command's --out directory
    check: Callable[["Context", "Command", Path], None]

    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Context:
    """What the checks may use: the work directory and untimed CLI calls."""

    work: Path
    run_untimed: Callable[[list[str]], tuple[int | None, str]]
    references: dict[str, Path] = field(default_factory=dict)

    def untimed(self, argv: list[str], out: Path) -> None:
        rc, err = self.run_untimed(argv + ["--out", str(out)])
        expect(rc == 0 and not err, f"check command {' '.join(argv)} failed: rc={rc} {err.strip()[:200]}")

    def reference(self, argv: list[str]) -> Path:
        """--out directory of a seed-independent command, run once per run."""
        name = "-".join(a.lstrip("-") for a in argv)
        if name not in self.references:
            out = self.work / f"reference-{name}"
            self.untimed(argv, out)
            self.references[name] = out
        return self.references[name]


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc


def _read_csv(path: Path) -> list[dict]:
    try:
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    except OSError as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc
    return list(csv.DictReader(lines))


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


# ----------------------------------------------------------------------
# witness: independent recomputation from projections and histograms

STABILIZER_TERMS = ("11ZZ", "ZZ11", "1ZXX", "Z1XX", "XX1Z", "XXZ1")
TERM_BASIS = {"11ZZ": "ZZZZ", "ZZ11": "ZZZZ", "1ZXX": "ZZXX",
              "Z1XX": "ZZXX", "XX1Z": "XXZZ", "XXZ1": "XXZZ"}


def _sign(term: str, outcome: int) -> int:
    """Eigenvalue product of a term: bit 1 gives -1, identity positions +1."""
    bits = [(outcome >> (3 - pos)) & 1 for pos in range(4)]
    return (-1) ** sum(b for b, op in zip(bits, term) if op != "1")


def _projections(out: Path) -> dict[str, list[float]]:
    probs: dict[str, list[float]] = {}
    for row in _read_csv(out / "projections.csv"):
        probs.setdefault(row["basis"], [0.0] * 16)[int(row["outcome"])] = float(row["value"])
    expect(set(probs) == set(TERM_BASIS.values()), f"projection bases {sorted(probs)}")
    return probs


def _witness_from(probs: dict[str, list[float]]) -> float:
    return 2.0 - 0.5 * sum(
        sum(_sign(t, o) * probs[TERM_BASIS[t]][o] for o in range(16))
        for t in STABILIZER_TERMS
    )


def _basis_totals(histograms: dict) -> dict[str, float]:
    """Coincidences per witness basis from a `measure` histograms.json."""
    totals = {}
    for s in histograms["settings"]:
        (kind_s, level_s), (kind_i, level_i) = s["signal"], s["idler"]
        if kind_s != kind_i or level_s != level_i:
            continue
        basis = "ZZZZ" if kind_s == "Z" else ("XXZZ" if level_s == "T" else "ZZXX")
        totals[basis] = sum(sum(row) for row in s["counts"])
    return totals


def delta_method_stderr(probs: dict[str, list[float]], totals: dict[str, float]) -> float:
    """First-order sigma of W for independent Poisson counts n = p * N.

    W = 2 - 1/2 sum_t E_t with E_t = sum_o s_t(o) n_o / N per basis, so
    dW/dn_o = -1/2 sum_{t in basis} (s_t(o) - E_t) / N and Var n_o = n_o.
    """
    expectation = {
        t: sum(_sign(t, o) * probs[TERM_BASIS[t]][o] for o in range(16))
        for t in STABILIZER_TERMS
    }
    var = 0.0
    for basis, p in probs.items():
        terms = [t for t in STABILIZER_TERMS if TERM_BASIS[t] == basis]
        for o in range(16):
            grad = 0.5 * sum(_sign(t, o) - expectation[t] for t in terms)
            var += grad * grad * p[o] / totals[basis]
    return math.sqrt(var)


def _check_witness_report(out: Path) -> dict:
    report = _read_json(out / "witness.json")
    w = report["witness"]
    expect(math.isfinite(w) and w < 0, f"W = {w} is not negative")
    expect(_close(report["fidelity_bound"], (1.0 - w) / 2.0, 1e-12),
           f"F = {report['fidelity_bound']} is not (1 - W)/2 for W = {w}")
    recomputed = _witness_from(_projections(out))
    expect(_close(recomputed, w, 1e-9), f"W = {w} but its projections give {recomputed}")
    return report


# ----------------------------------------------------------------------
# witness-paper

#: W may lie this many reported sigmas from the infinite-statistics value.
WITNESS_SIGMAS = 5.0
#: Reported Monte Carlo stderr vs delta-method sigma, relative.
STDERR_TOLERANCE = 0.03
#: Seeds, and so witness commands, in one set.
WITNESS_SEEDS_PER_SET = 3
#: Exact witness values of the two configurations the workloads use.
EXACT_WITNESS = {PAPER: -0.7999, None: -0.8254}


def check_witness_sampled(ctx: Context, cmd: Command, out: Path) -> None:
    report = _check_witness_report(out)
    w, stderr = report["witness"], report["stderr"]
    exact = _read_json(ctx.reference(["witness", "--exact", "--preset", PAPER])
                       / "witness.json")["witness"]
    expect(_close(exact, EXACT_WITNESS[PAPER], 5e-5), f"exact W = {exact}")
    expect(isinstance(stderr, float) and stderr > 0, f"stderr = {stderr}")
    expect(abs(w - exact) <= WITNESS_SIGMAS * stderr,
           f"W = {w} is {abs(w - exact) / stderr:.1f} sigma from exact {exact}")
    seed = cmd.argv[cmd.argv.index("--seed") + 1]
    measured = ctx.work / (out.name + "-measure")
    ctx.untimed(["measure", "--preset", PAPER, "--seed", seed], measured)
    sigma = delta_method_stderr(
        _projections(out), _basis_totals(_read_json(measured / "histograms.json"))
    )
    expect(abs(stderr / sigma - 1.0) <= STDERR_TOLERANCE,
           f"stderr {stderr} is {100 * abs(stderr / sigma - 1):.1f} % off "
           f"the delta-method sigma {sigma}")
    expect((out / "witness_hist.csv").is_file(), "witness_hist.csv missing")


def witness_paper_set(rng: random.Random, work: Path) -> list[Command]:
    return [
        Command(["witness", "--preset", PAPER, "--seed", str(rng.randrange(10**6))],
                f"witness-{k}", check_witness_sampled)
        for k in range(WITNESS_SEEDS_PER_SET)
    ]


# ----------------------------------------------------------------------
# visibility-grid

SEPARATIONS_PS = (100.0, 300.0)
DISPERSIONS_NS_PER_NM = (2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0)
DISPERSION_JITTER = 0.03


def check_visibility(ctx: Context, cmd: Command, out: Path) -> None:
    rows = _read_csv(out / "visibility.csv")
    config = _read_json(Path(cmd.argv[cmd.argv.index("--config") + 1]))["waveform"]
    expect(len(rows) == len(config["separations_ps"]) * len(config["dispersions_ns_per_nm"]),
           f"{len(rows)} visibility rows")
    for sep in config["separations_ps"]:
        curve = sorted(
            (float(r["dispersion_ns_per_nm"]), float(r["visibility"]))
            for r in rows if float(r["separation_ps"]) == sep
        )
        expect([d for d, _ in curve] == sorted(config["dispersions_ns_per_nm"]),
               f"dispersions at {sep} ps: {[d for d, _ in curve]}")
        for d, v in curve:
            expect(math.isfinite(v) and 0.0 < v <= 1.0, f"V = {v} at {sep} ps, {d} ns/nm")
        for (d0, v0), (d1, v1) in zip(curve, curve[1:]):
            expect(v1 >= v0 - 1e-12,
                   f"V falls from {v0} to {v1} between {d0} and {d1} ns/nm at {sep} ps")


def visibility_grid_set(rng: random.Random, work: Path) -> list[Command]:
    # the paper's 2 separations x 7 dispersions, each dispersion jittered by
    # a few percent; the jitter keeps the dispersions in order
    dispersions = [
        round(d * (1.0 + rng.uniform(-DISPERSION_JITTER, DISPERSION_JITTER)), 4)
        for d in DISPERSIONS_NS_PER_NM
    ]
    config = work / "visibility-config.json"
    config.write_text(json.dumps({"waveform": {
        "separations_ps": list(SEPARATIONS_PS),
        "dispersions_ns_per_nm": dispersions,
    }}))
    return [Command(["visibility", "--config", str(config)],
                    "visibility", check_visibility)]


# ----------------------------------------------------------------------
# readout-sweep

def check_generate(ctx, cmd, out):
    f = _read_json(out / "state.json")["fidelity"]
    expect(_close(f, 1.0, 1e-9), f"generate fidelity {f}")


def check_transmit(ctx, cmd, out):
    doc = _read_json(out / "transmit.json")
    kept = doc["retained_fraction"]
    expect(_close(kept, 0.1698, 5e-5), f"retained fraction {kept}")
    # the arrival offset is read from a drift trace whose peak is 92 ps
    offset = doc["arrival_offset_ps"]
    expect(math.isfinite(offset) and abs(offset) <= 92.0 + 1e-9, f"arrival offset {offset}")


def check_measure(ctx, cmd, out):
    settings = _read_json(out / "histograms.json")["settings"]
    expect(len(settings) == 9, f"{len(settings)} settings")
    exact = "--exact" in cmd.argv
    for s in settings:
        cells = [c for row in s["counts"] for c in row]
        expect(len(cells) == 16 and all(math.isfinite(c) and c >= 0 for c in cells),
               f"setting {s['name']} counts {cells}")
        expect(exact or all(c == int(c) for c in cells), f"setting {s['name']} counts not whole")
    expect(set(_basis_totals({"settings": settings})) == set(TERM_BASIS.values()),
           "histograms lack a witness basis")


#: Infinite-statistics fringe visibility of every projection, per preset.
EXACT_FRINGE_VISIBILITY = {PAPER: 0.9655, None: 1.0}
CHSH_THRESHOLD = 1.0 / math.sqrt(2.0)


def _fringe_rates(out: Path) -> dict[str, list[tuple[float, float]]]:
    rates: dict[str, list[tuple[float, float]]] = {}
    for row in _read_csv(out / "fringe.csv"):
        rates.setdefault(row["projection"], []).append(
            (float(row["alpha_rad"]), float(row["rate"])))
    return rates


def _fringe_visibility(points: list[tuple[float, float]], harmonic: int) -> float:
    """A(1 + V cos(k a + phi)) fit on a uniform full-period scan, closed form."""
    n = len(points)
    c0 = sum(r for _, r in points) / n
    c1 = 2.0 / n * sum(r * math.cos(harmonic * a) for a, r in points)
    c2 = 2.0 / n * sum(r * math.sin(harmonic * a) for a, r in points)
    return min(math.hypot(c1, c2) / c0, 1.0)


def poisson_deviance(counts: list[float], means: list[float]) -> float:
    """2 sum[n ln(n/mu) - (n - mu)]; infinite if a zero-mean cell has counts."""
    total = 0.0
    for n, mu in zip(counts, means):
        if mu <= 0.0:
            if n > 0:
                return math.inf
            continue
        total += 2.0 * ((n * math.log(n / mu) if n > 0 else 0.0) - (n - mu))
    return total


def check_fringe(ctx, cmd, out):
    """Sampled fringes against the infinite-statistics run of the same config.

    CHSH is asserted on the exact fringes only: at 1000 pairs per setting a
    sampled fit falls below 1/sqrt(2) about once in 10^4 commands although
    its counts are Poisson-consistent.  Sampled counts must pass a Poisson
    deviance test against the exact means whose false-alarm probability is
    below 1e-12 (chi-square bound), and each reported fit must match its
    rates and keep the expected sign.
    """
    preset = ["--preset", PAPER] if "--preset" in cmd.argv else []
    reference = ctx.reference(["fringe", "--exact"] + preset)
    expected_v = EXACT_FRINGE_VISIBILITY[PAPER if preset else None]
    for name, fit in _read_json(reference / "fringe.json")["fits"].items():
        expect(fit["sign_match"] is True and fit["chsh_pass"] is True
               and _close(fit["visibility"], expected_v, 5e-5),
               f"exact projection {name}: {fit}")
    means = _fringe_rates(reference)
    rates = _fringe_rates(out)
    fits = _read_json(out / "fringe.json")["fits"]
    expect(sorted(fits) == sorted(means) == sorted(rates), f"fringe projections {sorted(fits)}")
    counts, mus = [], []
    for name, fit in fits.items():
        expect([a for a, _ in rates[name]] == [a for a, _ in means[name]],
               f"projection {name} scan differs from the exact run")
        counts += [r for _, r in rates[name]]
        mus += [m for _, m in means[name]]
        v = fit["visibility"]
        expect(fit["sign_match"] is True, f"projection {name} sign mismatch")
        expect(fit["chsh_pass"] == (v > CHSH_THRESHOLD), f"projection {name} CHSH flag vs V = {v}")
        refit = _fringe_visibility(rates[name], fit["harmonic"])
        expect(_close(refit, v, 1e-6), f"projection {name}: V = {v} but its rates give {refit}")
    dof = len(counts)
    limit = dof + 10.0 * math.sqrt(2.0 * dof)
    deviance = poisson_deviance(counts, mus)
    expect(deviance <= limit, f"fringe counts deviate from the exact means: "
                              f"deviance {deviance:.1f} > {limit:.1f} over {dof} cells")


def check_drift(ctx, cmd, out):
    peak = _read_json(out / "drift.json")["peak_ps"]
    expect(_close(peak, 92.0, 1e-9), f"drift peak {peak} ps")


def check_capacity(ctx, cmd, out):
    rate = _read_json(out / "capacity.json")["qubits_per_s"]
    expect(_close(rate, 1e11, 1e-3), f"capacity {rate} qubits/s")


def check_witness_exact(ctx, cmd, out):
    report = _check_witness_report(out)
    expected = EXACT_WITNESS[PAPER if "--preset" in cmd.argv else None]
    expect(_close(report["witness"], expected, 5e-5), f"exact W = {report['witness']}")
    expect(report["stderr"] is None, f"exact stderr {report['stderr']}")


#: The light commands, each run with and without --preset paper-default.
READOUT_COMMANDS = (
    (["generate"], check_generate),
    (["transmit"], check_transmit),
    (["measure"], check_measure),
    (["measure", "--exact"], check_measure),
    (["fringe"], check_fringe),
    (["drift"], check_drift),
    (["capacity"], check_capacity),
    (["witness", "--exact"], check_witness_exact),
)


def readout_sweep_set(rng: random.Random, work: Path) -> list[Command]:
    commands = []
    for argv, check in READOUT_COMMANDS:
        for preset in ([], ["--preset", PAPER]):
            name = "-".join(a.lstrip("-") for a in argv + preset)
            seed = ["--seed", str(rng.randrange(10**6))]
            commands.append(Command(argv + preset + seed, name, check))
    rng.shuffle(commands)
    return commands


# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: str  # the layers the workload spends its time in
    bypasses: str  # layers it never or barely calls: predicted no change
    predicts: str  # which end-to-end metrics a faster layer should move here
    make_set: Callable[[random.Random, Path], list[Command]]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "witness-paper",
            "calibrated witness runs; Poisson resampling dominates",
            loads="analysis: monte_carlo_error + witness_samples >= 90 % of command time",
            bypasses="waveform (never called); detection, cpm, modes and source "
                     "take about 2 ms per command, under 0.1 %",
            predicts="analysis changes (witness resampling, ROADMAP items 3 and 4) "
                     "move wall_s, command_s_p50 and peak_rss_mb here and nothing "
                     "on visibility-grid or readout-sweep",
            make_set=witness_paper_set,
        ),
        Workload(
            "visibility-grid",
            "visibility bound over 2 separations x 7 jittered dispersions; FFT chain",
            loads="waveform: 14 visibility_bound calls, 238 apply_chirp calls "
                  "(476 FFTs of 2^18 points), 224 phase_modulate calls",
            bypasses="detection, analysis, cpm, modes, channel and source",
            predicts="waveform changes (closed-form copy sum, ROADMAP item 2) move "
                     "wall_s and peak_rss_mb here and nothing elsewhere",
            make_set=visibility_grid_set,
        ),
        Workload(
            "readout-sweep",
            "seeded mix of 8 light command variants, with and without the paper preset",
            loads="joint probabilities (detection, cpm, modes, bessel), cli file "
                  "writes and config copies, channel drift loops",
            bypasses="waveform; witness --exact uses analysis.witness without "
                     "resampling, so monte_carlo_error is never called",
            predicts="config validation (item 5), loop moves (item 4) and per-command "
                     "overhead move command_s_p50, command_s_tail and wall_s here "
                     "only; a resampling change predicts no change",
            make_set=readout_sweep_set,
        ),
    )
}
