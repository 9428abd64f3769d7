"""Sampled outputs against the laws they are drawn from, and the seed tree.

The seeds, the number of null draws and the per-check threshold below were
fixed before any result was looked at; do not re-pick them to make a run
pass.  Each check fails only when its p-value is at most P_MIN:

- `measure`'s nine histograms with their ancillary counts, and `fringe`'s
  rates, at the default config and at paper-default, against the `--exact`
  means of the same config.  The statistic is the Poisson deviance over the
  cells with a positive mean.  Its null law is NULL_DRAWS draws of those
  means from a fixed generator, since the chi-square table is miscalibrated
  at these small means, and both tails are checked.  Cells with mean 0
  must be 0.
- `drift`'s trace normals and stabilizer noise, by a KS test against their
  normal laws.
- `witness`'s resampled standard error, within 4 Monte Carlo errors of the
  closed form `oracles.witness_sigma`.

Under a correct sampler each deviance tail fails with probability about
1/(NULL_DRAWS + 1) and each KS test with probability P_MIN, so the 40
deviance tails and 10 KS tests below raise a false alarm about once in 200
runs of fresh seeds.
"""

import contextlib
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats

import oracles
from clustersim import analysis, cli
from clustersim.analysis import MC_CHUNK
from clustersim.cli import DEFAULT_CONFIG, load_config, main

SEEDS = (0, 1, 2, 3, 4)
PRESETS = (None, "paper-default")
NULL_DRAWS = 10_000
NULL_SEED = 12345
P_MIN = 1e-4


@contextlib.contextmanager
def _run(argv: list[str], config: dict | None = None):
    """Run the CLI into a temporary --out directory, and yield that directory."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if config is not None:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(out)]) == 0
        yield out


def _cells(command: str, preset: str | None, seed: int, exact: bool) -> np.ndarray:
    """The sampled (or, with exact, the mean) cells of a measure or fringe run.

    measure: the 16 cells of each of the nine settings, then the nine
    ancillary counts; fringe: the rates in fringe.csv order.
    """
    argv = [command, "--seed", str(seed)]
    argv += ["--preset", preset] if preset else []
    argv += ["--exact"] if exact else []
    with _run(argv) as out:
        if command == "measure":
            settings = json.loads((out / "histograms.json").read_text())["settings"]
            return np.concatenate([np.ravel(s["counts"]) for s in settings]
                                  + [[s["ancillary"] for s in settings]])
        lines = (out / "fringe.csv").read_text().splitlines()[2:]
        return np.array([float(line.rsplit(",", 1)[1]) for line in lines])


def _deviance(counts: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Poisson deviance over the cells with a positive mean (last axis)."""
    positive = means > 0.0
    k, mu = counts[..., positive], means[positive]
    return 2.0 * (scipy.special.xlogy(k, k / mu) - (k - mu)).sum(axis=-1)


@functools.lru_cache(maxsize=None)
def _null(command: str, preset: str | None) -> tuple[np.ndarray, np.ndarray]:
    """The exact means of a config and NULL_DRAWS deviances of draws from them."""
    means = _cells(command, preset, 0, exact=True)
    draws = np.random.default_rng(NULL_SEED).poisson(means, size=(NULL_DRAWS, means.size))
    return means, _deviance(draws, means)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", PRESETS, ids=["default", "paper-default"])
@pytest.mark.parametrize("command", ["measure", "fringe"])
def test_sampled_counts_follow_the_exact_means(command, preset, seed):
    means, null = _null(command, preset)
    counts = _cells(command, preset, seed, exact=False)
    assert np.all(counts >= 0.0) and np.all(counts == np.round(counts))
    assert np.all(counts[means == 0.0] == 0.0)
    d = _deviance(counts, means)
    upper = (1 + np.count_nonzero(null >= d)) / (NULL_DRAWS + 1)
    lower = (1 + np.count_nonzero(null <= d)) / (NULL_DRAWS + 1)
    assert min(upper, lower) > P_MIN, (
        f"deviance {d:.1f} over {np.count_nonzero(means > 0)} cells; null mean "
        f"{null.mean():.1f}, tails {lower:.2g} / {upper:.2g}"
    )


#: A drift trace without smoothing, so it is one Ornstein-Uhlenbeck path
#: scaled to its peak, corrected at every step with an exact actuator, so
#: each corrected offset is minus one estimator-noise draw.
RAW_DRIFT = {"channel": {
    "drift": {"smoothing_passes": 0},
    "stabilizer": {"correction_interval_s": DEFAULT_CONFIG["channel"]["drift"]["step_s"],
                   "actuator_resolution_ps": 0.0},
}}


@pytest.mark.parametrize("seed", SEEDS)
def test_drift_normals_and_stabilizer_noise_are_normal(seed):
    """The trace's increments are proportional to its stream's normals, which are normal."""
    model = DEFAULT_CONFIG["channel"]["drift"]
    with _run(["drift", "--seed", str(seed)], RAW_DRIFT) as out:
        rows = np.loadtxt(out / "drift.csv", delimiter=",", skiprows=2)
    offsets = rows[:, 1]
    normals = np.random.default_rng(cli.stream(seed, "drift")).standard_normal(len(offsets))
    decay = math.exp(-model["step_s"] / model["correlation_s"])
    increments = offsets - decay * np.concatenate([[0.0], offsets[:-1]])
    scale = (increments @ normals) / (normals @ normals)
    # drift.csv holds 12 significant digits, far inside this bound
    assert np.max(np.abs(increments - scale * normals)) <= 1e-9 * np.max(np.abs(increments))
    noise = -rows[1:, 2]
    noise_ps = DEFAULT_CONFIG["channel"]["stabilizer"]["estimator_noise_ps"]
    assert len(normals) == 1441 and len(noise) == 1440
    assert scipy.stats.kstest(normals, "norm").pvalue > P_MIN
    assert scipy.stats.kstest(noise, "norm", args=(0.0, noise_ps)).pvalue > P_MIN


@pytest.mark.parametrize("lam", [0.5, 5.0, 20.0, 49.99, 50.0, 50.01, 120.0, 439.0])
def test_inverse_count_mean_matches_expi(lam):
    """Both sides of the switch from the term sum to the asymptotic series."""
    reference = math.exp(-lam) * (scipy.special.expi(lam) - np.euler_gamma - math.log(lam))
    assert oracles.inverse_count_mean(lam) == pytest.approx(reference, rel=1e-13, abs=0.0)


def _enumerated_variance(plus, minus, mixed, top=60):
    """Var r by summing over every (A+, A-, A0) below top."""
    n = np.arange(top)
    pmf = [scipy.stats.poisson.pmf(n, mean) for mean in (plus, minus, mixed)]
    a, b, c = np.meshgrid(n, n, n, indexing="ij")
    total = a + b + c
    r = np.divide(a - b, total, out=np.zeros(total.shape), where=total > 0)
    weight = pmf[0][:, None, None] * pmf[1][None, :, None] * pmf[2][None, None, :]
    mean = (weight * r).sum()
    return (weight * r * r).sum() - mean**2


@pytest.mark.parametrize("means", [
    (0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 0.0, 4.0), (0.01, 0.02, 0.0),
    (0.3, 0.2, 0.5), (1.5, 0.7, 2.0), (3.0, 1.0, 0.0),
])
def test_class_total_variance_matches_enumeration(means):
    assert oracles.class_total_variance(*means) == pytest.approx(
        _enumerated_variance(*means), rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("preset,seed", [("paper-default", 0), (None, 3)])
def test_witness_stderr_matches_closed_form(preset, seed):
    """The resampled stderr lies within 4 Monte Carlo errors of the exact sigma."""
    argv = ["witness", "--seed", str(seed)] + (["--preset", preset] if preset else [])
    with _run(argv) as out:
        stderr = json.loads((out / "witness.json").read_text())["stderr"]
    setup = load_config(None, preset, seed, None)
    raw = analysis.raw_basis_counts(cli._sampled_histograms(setup, False))
    sigma = oracles.witness_sigma(analysis.class_totals(raw))
    mc_error = sigma / math.sqrt(2.0 * setup.mc_samples)
    assert abs(stderr - sigma) < 4.0 * mc_error, (stderr, sigma, mc_error)


def test_table_keeps_the_settings_and_drift_streams():
    """The drift trace keeps SeedSequence(seed), and the settings its first nine children."""
    for seed in (0, 3, 51):
        root = np.random.SeedSequence(seed)
        assert np.array_equal(root.generate_state(4), cli.stream(seed, "drift").generate_state(4))
        settings = cli.stream(seed, "settings").spawn(9)
        for child, setting in zip(root.spawn(9), settings, strict=True):
            assert np.array_equal(child.generate_state(4), setting.generate_state(4))


#: Small runs that still make every stream: four resampling chunks, a drift
#: trace with a few correction epochs and a short fringe scan.
STREAM_RUNS = {
    "witness": {"analysis": {"mc_samples": 3 * MC_CHUNK + 1}},
    "drift": {"channel": {"readout_time_s": 0.0, "drift": {"duration_s": 3600.0}}},
    "fringe": {"analysis": {"fringe_points": 8}},
}


def test_random_streams_are_distinct_across_seeds(monkeypatch):
    """No two (seed, stream) pairs of seeds 0-50 give the same first draws.

    witness makes the nine settings' streams and four resampling chunks,
    drift the trace's and the stabilizer's, and fringe the scan's; every
    generator they build is recorded by its first two raw draws.
    """
    real = np.random.default_rng
    seen = []
    run = None

    def recording_rng(seed):
        seen.append((run, tuple(real(seed).bit_generator.random_raw(2))))
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    for seed in range(51):
        for command, config in STREAM_RUNS.items():
            run = (seed, command)
            with _run([command, "--seed", str(seed)], config):
                pass
    per_run = {}
    for label, _ in seen:
        per_run[label[1]] = per_run.get(label[1], 0) + 1
    assert per_run == {"witness": 51 * 13, "drift": 51 * 2, "fringe": 51}
    owners = {}
    for label, draws in seen:
        owners.setdefault(draws, []).append(label)
    shared = [labels for labels in owners.values() if len(labels) > 1]
    assert shared == [], f"{len(shared)} streams shared, first {shared[:3]}"
