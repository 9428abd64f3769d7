"""The stabilizer witness, fringe fit and capacity, as the documents the CLI writes.

The witness runs from the three matched bin-pair histograms
(raw_basis_counts, extract_projections) to the witness.json payload
(witness); every error bar reads one (3, 3) table, class_totals.  W = 2 -
(1/2) * sum of six stabilizer expectations is negative only for states
carrying genuine four-partite entanglement near the target cluster state;
W = -1 on the ideal state and the fidelity obeys F >= (1 - W)/2.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import InsufficientScan, MissingBasis

#: Witness bases in qubit order (T_s, T_i, t_s, t_i), in the order of the
#: per-photon settings that read them: Z, X on the inner level, X on the
#: outer level.
WITNESS_BASES = ("ZZZZ", "ZZXX", "XXZZ")

# Operator strings over qubit order (T_s, T_i, t_s, t_i).
STABILIZER_TERMS = ("11ZZ", "ZZ11", "1ZXX", "Z1XX", "XX1Z", "XXZ1")

#: Witness basis measuring each term.
TERM_BASIS = {
    "11ZZ": "ZZZZ",
    "ZZ11": "ZZZZ",
    "1ZXX": "ZZXX",
    "Z1XX": "ZZXX",
    "XX1Z": "XXZZ",
    "XXZ1": "XXZZ",
}

STABILIZER_THRESHOLD = 2.0 / 3.0
CHSH_THRESHOLD = 1.0 / math.sqrt(2.0)
#: Fewest scan phases a fringe scan takes (the floor of analysis.fringe_points).
MIN_SCAN_PHASES = 8
#: Harmonics fit_interference tries; the two-qubit fringes carry k = 2
#: (each photon contributes one factor e^{i alpha}).
FIT_HARMONICS = (1, 2)
#: Histogram bins of the resampled witness values.
WITNESS_HIST_BINS = 80
#: Resampled count sets per chunk; each chunk has its own seed and thread task.
MC_CHUNK = 16_384


def raw_basis_counts(histograms: list) -> dict[str, np.ndarray]:
    """Raw (unnormalized) 16-outcome counts for each witness basis.

    A cell (signal bin, idler bin) of a detection.sample_coincidences
    histogram carries the bits (T_s, t_s, T_i, t_i), and its outcome index
    reads (T_s, T_i, t_s, t_i), so the fold is a fixed permutation of the 16
    cells: swap the middle two bits, then flip the bits of the X-read
    qubits.  Z-read levels report the branch bit directly; X-read levels
    report the splitter output port, whose "+1" port is the opposite bin
    (the J0 path keeps the bin, so a photon surfacing in its partner bin
    took the interference path).  The convention is pinned by requiring all
    six stabilizer expectations to be +1 on the ideal state.  No efficiency
    correction or normalization is applied, so these are the counts whose
    class_totals the error bars resample.
    """
    out: dict[str, np.ndarray] = {}
    for h in histograms:
        basis = h.pairing.basis
        if basis is None or basis in out:
            continue
        bits = h.counts.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
        x_read = tuple(k for k, op in enumerate(basis) if op == "X")
        out[basis] = np.flip(bits, axis=x_read).ravel()
    return {b: out[b] for b in WITNESS_BASES}


def extract_projections(raw_counts: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """48 normalized projection values: 3 witness bases x 16 outcomes.

    Each basis of raw_basis_counts is normalized to sum 1, so a per-basis
    throughput factor such as the splitter efficiency eta(g*) of X-read
    photons cancels.
    """
    out: dict[str, np.ndarray] = {}
    for basis, values in raw_counts.items():
        total = values.sum()
        if total <= 0:
            raise MissingBasis(f"basis {basis} has no counts")
        out[basis] = values / total
    return out


#: (16, 4) eigenvalue of each qubit's outcome bit (0 gives +1, 1 gives -1),
#: the first qubit most significant.
_BIT_SIGNS = np.array([[1.0 - 2.0 * int(b) for b in f"{o:04b}"] for o in range(16)])


def term_signs(term: str) -> np.ndarray:
    """Eigenvalue product (+/-1) of a term for each of the 16 outcomes.

    Identity positions contribute +1 regardless of the outcome bit, so the
    product runs over the term's non-identity qubits only.
    """
    return _BIT_SIGNS[:, [op != "1" for op in term]].prod(axis=1)


def witness(
    projections: dict[str, np.ndarray], stderr: float | None, stderr_delta: float | None
) -> dict:
    """The witness.json payload from the 48 normalized projections.

    stderr and stderr_delta are the resampled and delta-method errors of
    W, None in exact mode.
    """
    exps = [float(term_signs(t) @ projections[TERM_BASIS[t]]) for t in STABILIZER_TERMS]
    w = 2.0 - 0.5 * sum(exps)
    return {
        "stabilizer_terms": list(STABILIZER_TERMS),
        "expectations": exps,
        "witness": w,
        "stderr": stderr,
        "stderr_delta": stderr_delta,
        "fidelity_bound": (1.0 - w) / 2.0,
        "term_pass": [e > STABILIZER_THRESHOLD for e in exps],
        "mean_pass": sum(exps) / len(exps) > STABILIZER_THRESHOLD,
        "certifies_entanglement": w < 0.0,
    }


def outcome_classes(basis_order: tuple[str, ...]) -> np.ndarray:
    """(bases, 3, 16) masks of each basis's "both +", "both -" and mixed outcomes.

    Each basis measures exactly two terms, with signs s1 and s2, and adds
    (s1 + s2) . counts / total to the sum of expectations.  s1 + s2 is +2,
    -2 or 0 on each outcome, which sorts the outcomes into the three classes.
    """
    sign_sum = np.zeros((len(basis_order), 16))
    for term in STABILIZER_TERMS:
        sign_sum[basis_order.index(TERM_BASIS[term])] += term_signs(term)
    return np.stack([sign_sum == 2.0, sign_sum == -2.0, sign_sum == 0.0], axis=1)


def class_totals(raw_counts: dict[str, np.ndarray]) -> np.ndarray:
    """(bases, 3) class totals of the raw counts: the table every error bar reads."""
    basis_order = tuple(raw_counts.keys())
    base = np.stack([np.asarray(raw_counts[b], dtype=float) for b in basis_order])
    return np.einsum("bco,bo->bc", outcome_classes(basis_order), base)


def _witness_chunk(totals: np.ndarray, seed: np.random.SeedSequence, out: np.ndarray) -> None:
    """Fill out with the witness of len(out) resamplings drawn from seed.

    Basis by basis, A+, A- and A0 are drawn from Poisson(totals) and
    (A+ - A-) / N is subtracted from 2.  When N = 0, A+ - A- is 0 too, so
    dividing by max(N, 1) gives the 0 an empty basis contributes.
    """
    rng = np.random.default_rng(seed)
    n = len(out)
    out.fill(2.0)
    for plus_mean, minus_mean, mixed_mean in totals:
        plus = rng.poisson(plus_mean, size=n)
        minus = rng.poisson(minus_mean, size=n)
        total = rng.poisson(mixed_mean, size=n)
        total += plus
        total += minus
        plus -= minus
        np.maximum(total, 1, out=total)
        out -= plus / total


def _workers(n_chunks: int) -> int:
    """Threads to resample n_chunks chunks on: one per usable core, at most."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cores = os.cpu_count() or 1
    return max(1, min(n_chunks, cores))


def resample_witness(
    totals: np.ndarray, samples: int, seed: np.random.SeedSequence
) -> np.ndarray:
    """Witness values of `samples` Poisson resamplings of the raw counts.

    The witness depends on a basis's counts only through its three class
    totals (class_totals), and a sum of independent Poisson counts is
    Poisson.  So each class total is drawn from Poisson(total), 9 draws per
    sample in place of 48, which gives the same witness distribution as
    redrawing each raw count from Poisson(count).

    Samples are drawn in chunks of MC_CHUNK, chunk i from the i-th child
    that seed spawns (so a reused seed spawns other children), on a thread
    per core (numpy's Poisson sampler releases the GIL).  Each chunk depends
    only on (seed, i), so the values are the same on any number of threads.
    """
    values = np.empty(samples)
    starts = range(0, samples, MC_CHUNK)
    seeds = seed.spawn(len(starts))

    def chunk(i: int) -> None:
        _witness_chunk(totals, seeds[i], values[starts[i] : starts[i] + MC_CHUNK])

    from concurrent.futures import ThreadPoolExecutor  # kept off the CLI's import path

    with ThreadPoolExecutor(_workers(len(starts))) as pool:
        list(pool.map(chunk, range(len(starts))))
    return values


def monte_carlo_error(
    totals: np.ndarray, samples: int, seed: np.random.SeedSequence
) -> tuple[float, np.ndarray, np.ndarray]:
    """Poisson-resampling standard error of the witness from its class totals.

    The witness is recomputed for `samples` resamplings of the counts (see
    resample_witness).  Returns (stderr, histogram counts, histogram bin
    edges).  The standard deviation is taken in place after the histogram,
    so only the one array of values is held.
    """
    values = resample_witness(totals, samples, seed)
    hist, edges = np.histogram(values, bins=WITNESS_HIST_BINS)
    values -= values.mean()
    np.square(values, out=values)
    return math.sqrt(values.mean()), hist, edges


def delta_method_stderr(totals: np.ndarray) -> float:
    """First-order standard error of the witness from its class totals.

    A basis adds r = (A+ - A-) / N to 2 - W, with N = A+ + A- + A0.  Its
    gradient along a class with weight w (+1, -1, 0) is (w - r) / N, and
    each class total's variance is its mean, so the basis contributes
    sum_c (w_c - r)^2 A_c / N^2 to the variance.  Empty bases contribute 0.
    """
    total = totals.sum(axis=1)
    safe = np.where(total > 0.0, total, 1.0)
    ratio = (totals[:, 0] - totals[:, 1]) / safe
    weights = np.array([1.0, -1.0, 0.0])
    var = ((weights - ratio[:, None]) ** 2 * totals).sum(axis=1) / safe**2
    return float(math.sqrt(var.sum()))


def scan_phases(n: int) -> np.ndarray:
    """The uniform full-period fringe scan alpha_j = 2 pi j / n, j < n."""
    return np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)


def fit_interference(rates, expected_sign: int) -> dict:
    """Least-squares fit of a fringe A(1 + V cos(k a + phi0)), as fringe.json holds it.

    rates[j] is the rate at scan_phases(n)[j].  On that scan 1, cos(k a) and
    sin(k a) are orthogonal for every k in FIT_HARMONICS once n >=
    MIN_SCAN_PHASES, so the least-squares coefficients are the Fourier sums
    c0 = mean(r), c1 = (2/n) sum r cos(k a) and c2 = (2/n) sum r sin(k a).
    The residual is sum r^2 - n c0^2 - (n/2)(c1^2 + c2^2), so the k that
    captures the most power c1^2 + c2^2 fits best; it is reported via
    `harmonic`.  Powers within rounding of each other (a flat scan) keep the
    first k.  sign_match compares expected_sign, the sign of the ideal
    fringe's cos term, with the fitted one: +1 if |phi0| < pi/2, else -1.
    """
    rates = np.asarray(rates, dtype=float)
    # a power-of-two scale is exact, and keeps the powers below from underflowing
    rates = np.ldexp(rates, -math.frexp(float(rates.max()))[1])
    n = len(rates)
    alphas = scan_phases(n)
    c0 = float(rates.mean())
    if c0 <= 0:
        raise InsufficientScan("non-positive mean rate; cannot define visibility")
    tie = 1e-24 * float(rates @ rates) / n
    best_k, best_c, best_power = None, None, 0.0
    for k in FIT_HARMONICS:
        c = (2.0 / n) * (np.stack([np.cos(k * alphas), np.sin(k * alphas)]) @ rates)
        power = float(c @ c)
        if best_k is None or power > best_power + tie:
            best_k, best_c, best_power = k, c, power
    c1, c2 = best_c
    vis = min(float(np.hypot(c1, c2) / c0), 1.0)
    phase = float(math.atan2(-c2, c1))
    return {
        "visibility": vis,
        "phase_offset": phase,
        "harmonic": best_k,
        "chsh_pass": vis > CHSH_THRESHOLD,
        "expected_sign": expected_sign,
        "sign_match": (1 if abs(phase) < math.pi / 2 else -1) == expected_sign,
    }


def multiplex_budget(
    total_bandwidth_ghz: float,
    qubit_spectral_width_ghz: float,
    stretched_bin_length_ns: float,
) -> dict:
    """Spectral channels, repetition rate and qubit rate of the multiplexed scheme.

    One qubit per spectral slot per repetition period: channels =
    floor(bandwidth / slot width), repetition rate = 1 / stretched bin
    length, qubits_per_s = channels * repetition rate.
    """
    if min(total_bandwidth_ghz, qubit_spectral_width_ghz, stretched_bin_length_ns) <= 0:
        raise ValueError("all capacity arguments must be positive")
    slots = total_bandwidth_ghz / qubit_spectral_width_ghz
    rep_rate_hz = 1e9 / stretched_bin_length_ns
    if not math.isfinite(slots * rep_rate_hz):
        raise ValueError("capacity overflows a float")
    channels = math.floor(slots)
    return {"channels": channels, "repetition_rate_hz": rep_rate_hz,
            "qubits_per_s": channels * rep_rate_hz}
