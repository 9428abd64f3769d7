"""Witness, fringe-fit and capacity analysis.

The entanglement witness W = 2 - (1/2) * sum of six stabilizer
expectations is negative only for states carrying genuine four-partite
entanglement near the target cluster state; W = -1 on the ideal state
and the fidelity obeys F >= (1 - W)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientScan, MissingBasis

# Operator strings over qubit order (T_s, T_i, t_s, t_i).
STABILIZER_TERMS = ("11ZZ", "ZZ11", "1ZXX", "Z1XX", "XX1Z", "XXZ1")

#: Witness basis (from detection.WITNESS_BASES) measuring each term.
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


def basis_for_term(term: str) -> str:
    if term not in TERM_BASIS:
        raise ValueError(f"unknown stabilizer term {term!r}")
    return TERM_BASIS[term]


def term_signs(term: str) -> np.ndarray:
    """Eigenvalue product (+/-1) of a term for each of the 16 outcomes.

    Outcome bit 0 carries eigenvalue +1, bit 1 carries -1; identity
    positions contribute +1 regardless of the outcome bit.
    """
    signs = np.ones(16)
    for outcome in range(16):
        s = 1.0
        for pos, op in enumerate(term):
            if op == "1":
                continue
            bit = (outcome >> (3 - pos)) & 1
            s *= -1.0 if bit else 1.0
        signs[outcome] = s
    return signs


def stabilizer_expectation(term: str, projections: dict[str, np.ndarray]) -> float:
    """<term> from the normalized 16-outcome distribution of its basis."""
    basis = basis_for_term(term)
    if basis not in projections:
        raise MissingBasis(f"basis {basis} required for term {term}")
    values = np.asarray(projections[basis], dtype=float)
    return float(term_signs(term) @ values)


@dataclass(frozen=True)
class WitnessReport:
    expectations: tuple[float, ...]
    witness: float
    stderr: float | None
    fidelity_bound: float
    term_pass: tuple[bool, ...]  # each expectation > 2/3
    mean_pass: bool  # mean of expectations > 2/3

    def certifies_entanglement(self) -> bool:
        return self.witness < 0.0


def witness(
    projections: dict[str, np.ndarray], stderr: float | None = None
) -> WitnessReport:
    """Witness report from the 48 normalized projections."""
    exps = tuple(stabilizer_expectation(t, projections) for t in STABILIZER_TERMS)
    w = 2.0 - 0.5 * sum(exps)
    return WitnessReport(
        expectations=exps,
        witness=w,
        stderr=stderr,
        fidelity_bound=(1.0 - w) / 2.0,
        term_pass=tuple(e > STABILIZER_THRESHOLD for e in exps),
        mean_pass=(sum(exps) / len(exps)) > STABILIZER_THRESHOLD,
    )


def _signs_and_bases(basis_order: tuple[str, ...]):
    signs = np.stack([term_signs(t) for t in STABILIZER_TERMS])
    term_basis = np.array(
        [basis_order.index(TERM_BASIS[t]) for t in STABILIZER_TERMS], dtype=np.int64
    )
    return signs, term_basis


def witness_samples(counts, signs, term_basis):
    """Witness value for each resampled count set.

    counts: (n, n_bases, 16) nonnegative count samples
    signs: (n_terms, 16) eigenvalue-product signs per outcome
    term_basis: (n_terms,) index of the basis each term is evaluated in

    A basis without counts contributes 0 to each of its terms.
    """
    totals = counts.sum(axis=2)  # (n, n_bases)
    s_sum = np.zeros(counts.shape[0])
    for t in range(signs.shape[0]):
        b = term_basis[t]
        acc = counts[:, b, :] @ signs[t]
        tot = totals[:, b]
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.where(tot > 0.0, acc / np.where(tot > 0, tot, 1.0), 0.0)
        s_sum += s
    return 2.0 - 0.5 * s_sum


def monte_carlo_error(
    raw_counts: dict[str, np.ndarray],
    samples: int = 10**6,
    seed: int = 0,
    bins: int = 80,
    chunk: int = 50_000,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Poisson-resampling standard error of the witness.

    Each of the 48 raw counts is resampled from Poisson(count) `samples`
    times; the witness is recomputed per sample.  Returns (stderr,
    histogram counts, histogram bin edges).
    """
    basis_order = tuple(raw_counts.keys())
    base = np.stack([np.asarray(raw_counts[b], dtype=float) for b in basis_order])
    if np.any(base < 0):
        raise ValueError("counts must be nonnegative")
    signs, term_basis = _signs_and_bases(basis_order)
    rng = np.random.default_rng(seed)
    values = np.empty(samples)
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        counts = rng.poisson(base, size=(n,) + base.shape).astype(np.float64)
        values[done : done + n] = witness_samples(counts, signs, term_basis)
        done += n
    hist, edges = np.histogram(values, bins=bins)
    return float(np.std(values)), hist, edges


@dataclass(frozen=True)
class InterferenceFit:
    alphas: np.ndarray
    rates: np.ndarray
    visibility: float
    phase_offset: float
    harmonic: int  # fitted k in A(1 + V cos(k alpha + phi0))
    chsh_pass: bool

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0 + 1e-9:
            raise ValueError("visibility outside [0, 1]")


def fit_interference(
    alphas, rates, harmonic: int = 2, try_harmonics: tuple[int, ...] = (1, 2)
) -> InterferenceFit:
    """Least-squares fit of a coincidence fringe A(1 + V cos(k a + phi0)).

    k = 2 is the expected harmonic for the two-qubit fringes (each photon
    contributes one factor e^{i alpha}); the best k among try_harmonics is
    also determined and reported via `harmonic`, which equals the
    requested value only when it wins the residual comparison.
    """
    alphas = np.asarray(alphas, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if alphas.shape != rates.shape or alphas.ndim != 1:
        raise InsufficientScan("alphas and rates must be equal-length vectors")
    if len(np.unique(np.round(alphas, 12))) < 8:
        raise InsufficientScan("need at least 8 distinct scan phases")
    span = float(alphas.max() - alphas.min())
    if span < 2.0 * math.pi / harmonic - 1e-9:
        raise InsufficientScan("scan must span at least one fringe period")

    def solve(k):
        design = np.column_stack(
            [np.ones_like(alphas), np.cos(k * alphas), np.sin(k * alphas)]
        )
        coef, *_ = np.linalg.lstsq(design, rates, rcond=None)
        resid = float(np.sum((design @ coef - rates) ** 2))
        return coef, resid

    best_k, best_coef, best_resid = None, None, np.inf
    for k in sorted(set(try_harmonics) | {harmonic}):
        coef, resid = solve(k)
        if best_coef is None or resid < best_resid * (1.0 - 1e-12) - 1e-30:
            best_k, best_coef, best_resid = k, coef, resid
    c0, c1, c2 = best_coef
    if c0 <= 0:
        raise InsufficientScan("non-positive mean rate; cannot define visibility")
    vis = min(float(np.hypot(c1, c2) / c0), 1.0)
    phi0 = float(math.atan2(-c2, c1))
    return InterferenceFit(
        alphas=alphas,
        rates=rates,
        visibility=vis,
        phase_offset=phi0,
        harmonic=int(best_k),
        chsh_pass=vis > CHSH_THRESHOLD,
    )


def multiplex_capacity(
    total_bandwidth_ghz: float,
    qubit_spectral_width_ghz: float,
    stretched_bin_length_ns: float,
) -> float:
    """Maximum processable qubit rate (qubits/s) of the multiplexed scheme.

    One qubit per spectral slot per repetition period: channels =
    floor(bandwidth / slot width), repetition rate = 1 / stretched bin
    length.
    """
    if min(total_bandwidth_ghz, qubit_spectral_width_ghz, stretched_bin_length_ns) <= 0:
        raise ValueError("all capacity arguments must be positive")
    channels = math.floor(total_bandwidth_ghz / qubit_spectral_width_ghz)
    rep_rate_hz = 1e9 / stretched_bin_length_ns
    return channels * rep_rate_hz
