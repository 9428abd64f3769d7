"""Brute-force references for the closed forms the simulator runs.

Nothing under ``src/clustersim`` calls this module; tests compare against it.

- The sampled-field FFT chain: chirp -> sinusoidal phase modulation ->
  inverse chirp on complex envelopes over a power-of-two grid, with the
  copy-weight, copy-position and spectrogram probes, and
  `visibility_fft_chain`, a reference of `waveform.visibility_bound`.
- `visibility_copy_sum`, the other reference of `waveform.visibility_bound`:
  the same closed-form copy sum, evaluated one dispersion at a time.
- The scalar Bessel entry point `bessel_j` and the splitter efficiency,
  the references of `bessel.bessel_row` and of the matrices' column norms.
- Bin-index helpers over plain tuples of `Level`s and of bin positions, at
  any tree depth: `bin_to_bits` and `bits_to_bin`, `any_depth_layout` (the
  reference of the checks, `positions_ps` and `min_spacing_ps` of
  `encoding.LevelTree`), `extend_levels` and `uniform_shift_offsets`;
  `tree_levels` gives a tree's levels as such a tuple.
- `any_depth_measurement_map`, the splitter matrix (Z, or X at a phase)
  over the bins of a tree of any depth, with a level's bit found by its
  depth; the reference of the four-bin `cpm.measurement_map`.
- `outcome_index` and `loop_basis_counts`, the per-cell loop that folds a
  bin-pair histogram into a basis's 16 outcome counts, the reference of
  `analysis.raw_basis_counts`; `loop_term_signs`, the per-outcome loop of
  a term's eigenvalue signs, the reference of `analysis.term_signs`.
- `lstsq_fringe_fit`, the least-squares fringe fit on any scan phases, the
  reference of the Fourier sums in `analysis.fit_interference`.
- `CpmOperatorSettings`, which adds the RF tone, modulation depth, RF
  phase and truncation order that the faithful scattering operator of
  ``sparse_oracle.cpm_mode_map`` needs.
- `ModeGrid`, the time/frequency mode grid of the sparse and dense
  oracles; `grid_time_steps`, a copy spacing snapped to that grid; and
  `grid_copy_spacing_ok`, the two-step copy-spacing check (snap to the
  100 ps grid, then match the bin shift), the reference of the one-step
  `cpm.check_copy_spacing`.
- `witness_samples`, the witness of each resampled set of 48 raw counts;
  `witness_from_class_totals`, the same witness from each set's 9 class
  totals; and `broadcast_class_total_samples`, the single-stream sampler
  that drew all 9 class totals of a batch in one broadcast call; and
  `resample_witness`, every value `analysis.monte_carlo_error` folds into
  its moments and histogram, held in one array.  They are the references
  of `analysis.monte_carlo_error`'s resampling.
- The light commands' element-at-a-time loops: `step_ou_accumulate` and
  `sample_stabilize`, the references of `channel.ou_accumulate` and
  `channel.stabilize`; and `cell_csv_lines`, the per-cell line builder, the
  reference of `cli.write_csv`.
- The readout path before it took one `detection.Readout`:
  `per_pairing_joint_probabilities` rebuilds every branch's splitter map for
  each pairing; `per_setting_expected_counts` adds both jitter matrices,
  also rebuilt, and `mixed_means`, the background mix; on these,
  `per_setting_sample_coincidences` is the reference of
  `detection.sample_coincidences` and `per_phase_fringe_means`, which builds
  each photon's maps at every phase, of `detection.fringe_means`.  Each map
  is built behind its level's copy-spacing check, as the product built it
  before that check moved to `cli.load_config`.  `readout` checks the
  copy spacings and builds the product's `Readout` from domain objects, and
  `joint_probabilities` runs the product's maps and probabilities for two
  settings.
- `witness_sigma`, the closed-form standard deviation of the resampled
  witness from the (3, 3) table of `analysis.class_totals` that the error
  bars read, built from `inverse_count_mean` (E[1/N; N >= 1] of a Poisson N)
  and `class_total_variance`; the reference of `analysis.monte_carlo_error`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from clustersim.analysis import (
    FIT_HARMONICS,
    MC_CHUNK,
    STABILIZER_TERMS,
    TERM_BASIS,
    _witness_chunk,
    outcome_classes,
    scan_phases,
    term_signs,
)
from clustersim.bessel import bessel_row, solve_balanced_depth
from clustersim.channel import DriftTrace, StabilizerPolicy
from clustersim.cpm import (
    SNAP_TOL_PS,
    BeamSplitterSetting,
    CpmSettings,
    chirp_beta2_s2,
    check_copy_spacing,
    measurement_map,
)
from clustersim.detection import (
    FRINGE_PROJECTIONS,
    IDLER,
    SIGNAL,
    DetectorModel,
    JointTemporalIntensity,
    Readout,
    _penalty_branches,
    branch_maps,
    jitter_matrices,
    jitter_transition_matrix,
    joint_outcome_probabilities,
)
from clustersim.encoding import Level, LevelTree
from clustersim.errors import ClusterSimError, GridMismatch
from clustersim.modes import clean
from clustersim.waveform import COPY_ORDERS, MAX_SEPARATION_PS, _gaussian, rf_for_spacing


class WindowOverflow(ClusterSimError):
    """Stretched field would wrap around the sampling window."""


class LengthMismatch(ClusterSimError):
    """Bit-string length does not match the number of levels."""


# ----------------------------------------------------------------------
# CPM operator settings

@dataclass(frozen=True)
class CpmOperatorSettings(CpmSettings):
    """CpmSettings plus RF tone, depth g, RF phase alpha and the orders |m| <= truncation_order kept."""

    rf_frequency_ghz: float = 1.25
    g: float = 0.0
    alpha: float = 0.0
    truncation_order: int = 8

    def __post_init__(self):
        if self.g < 0:
            raise ValueError("modulation depth must be nonnegative")
        if self.truncation_order < 0:
            raise ValueError("truncation order must be nonnegative")
        super().__post_init__()


# ----------------------------------------------------------------------
# time/frequency mode grid

#: Relative tolerance of ModeGrid.t_steps for a duration on the grid.
GRID_REL_TOL = 1e-9
#: |dt - k*quantum| <= SNAP_TOL * quantum is accepted as on-grid.
SNAP_TOL = 0.01


@dataclass(frozen=True)
class ModeGrid:
    """Discretization grid for mode coordinates.

    Chosen so both modulation scales used in the experiment (100 ps /
    1.25 GHz and 300 ps / 3.75 GHz) are integer multiples of the quanta.
    """

    time_quantum_ps: float = 100.0
    freq_quantum_ghz: float = 1.25
    time_origin_ps: float = 0.0

    def __post_init__(self):
        if self.time_quantum_ps <= 0 or self.freq_quantum_ghz <= 0:
            raise ValueError("grid quanta must be positive")

    def t_steps(self, duration_ps: float) -> int:
        """Integer number of time quanta in a duration; raises if off-grid."""
        steps = duration_ps / self.time_quantum_ps
        tol = GRID_REL_TOL * max(1.0, abs(steps))
        if not np.isfinite(steps) or abs(steps - round(steps)) > tol:
            raise ValueError(f"{duration_ps} ps is not on the {self.time_quantum_ps} ps grid")
        return int(round(steps))


def grid_time_steps(settings: CpmSettings, grid: ModeGrid, rf_ghz: float) -> int:
    """Copy spacing of an rf_ghz tone in grid units; raises GridMismatch when off-grid."""
    dt = settings.delta_t_ps(rf_ghz)
    steps = dt / grid.time_quantum_ps
    rounded = round(steps) if math.isfinite(steps) else 0
    if rounded == 0 or abs(steps - rounded) > SNAP_TOL:
        raise GridMismatch(
            f"dt = {dt:.3f} ps does not land on the {grid.time_quantum_ps} ps grid"
        )
    return int(rounded)


def grid_copy_spacing_ok(settings: CpmSettings, level: Level) -> bool:
    """Whether a level's copies bridge its bin shift, checked in two steps.

    The copy spacing is snapped to the 100 ps grid, and the snapped spacing
    must then match the level's shift within 1 % of the quantum.
    """
    grid = ModeGrid()
    try:
        copy_ps = grid_time_steps(settings, grid, level.rf_frequency_ghz) * grid.time_quantum_ps
    except GridMismatch:
        return False
    return abs(copy_ps - level.shift_ps) <= SNAP_TOL * grid.time_quantum_ps


# ----------------------------------------------------------------------
# witness of the 48 raw counts

def signs_and_bases(basis_order: tuple[str, ...]):
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


def raw_count_witness_samples(raw_counts: dict[str, np.ndarray], samples: int, seed: int):
    """Witness of `samples` sets of the 48 raw counts, each redrawn from Poisson(count)."""
    basis_order = tuple(raw_counts)
    base = np.stack([np.asarray(raw_counts[b], dtype=float) for b in basis_order])
    signs, term_basis = signs_and_bases(basis_order)
    counts = np.random.default_rng(seed).poisson(base, size=(samples,) + base.shape)
    return witness_samples(counts.astype(np.float64), signs, term_basis)


def witness_from_class_totals(totals: np.ndarray) -> np.ndarray:
    """W = 2 - sum over bases of (A+ - A-) / (A+ + A- + A0) for each sample.

    totals: (n, bases, 3) class totals (A+, A-, A0) per sample and basis.
    A basis without counts contributes 0.
    """
    totals = np.asarray(totals, dtype=np.float64)
    diff = totals[..., 0] - totals[..., 1]
    total = totals.sum(axis=-1)
    ratio = np.divide(diff, total, out=np.zeros_like(diff), where=total > 0.0)
    return 2.0 - ratio.sum(axis=-1)


def broadcast_class_total_samples(raw_counts: dict[str, np.ndarray], samples: int, seed: int):
    """Witness of `samples` class-total sets, drawn 50 000 at a time from one stream.

    Each batch draws Poisson(lam) over a broadcast (batch, bases, 3) array.
    """
    batch = 50_000
    basis_order = tuple(raw_counts)
    base = np.stack([np.asarray(raw_counts[b], dtype=float) for b in basis_order])
    lam = np.einsum("bco,bo->bc", outcome_classes(basis_order), base)
    rng = np.random.default_rng(seed)
    values = np.empty(samples)
    for done in range(0, samples, batch):
        n = min(batch, samples - done)
        values[done : done + n] = witness_from_class_totals(
            rng.poisson(lam, size=(n,) + lam.shape))
    return values


def resample_witness(totals: np.ndarray, samples: int, seed: np.random.SeedSequence) -> np.ndarray:
    """Every witness value `analysis.monte_carlo_error` folds, held in one array.

    Chunk i of MC_CHUNK values is `analysis._witness_chunk` on the i-th child
    that seed spawns, filled one chunk after another on one thread.
    """
    values = np.empty(samples)
    starts = range(0, samples, MC_CHUNK)
    for start, child in zip(starts, seed.spawn(len(starts))):
        _witness_chunk(totals, child, values[start : start + MC_CHUNK])
    return values


# ----------------------------------------------------------------------
# closed-form standard deviation of the resampled witness

EULER_GAMMA = 0.5772156649015329
#: Below this mean inverse_count_mean sums the Poisson terms; above it the
#: asymptotic series takes over (it is wrong at means of 5 and below).
SERIES_SWITCH = 50.0


def inverse_count_mean(lam: float) -> float:
    """E[1/N; N >= 1] for N ~ Poisson(lam), which is e^-lam (Ei(lam) - gamma - ln lam).

    Below SERIES_SWITCH it is the sum over n >= 1 of e^-lam lam^n / (n! n),
    each term formed in log space with math.lgamma, out to 40 standard
    deviations past the mean.  Above, it is the asymptotic series
    (1/lam) sum_k k!/lam^k - e^-lam (gamma + ln lam), cut at its smallest term.
    """
    if lam == 0.0:
        return 0.0
    if lam < SERIES_SWITCH:
        top = int(lam + 40.0 * math.sqrt(lam)) + 40
        return math.fsum(
            math.exp(n * math.log(lam) - lam - math.lgamma(n + 1)) / n for n in range(1, top)
        )
    terms, k = [1.0], 1
    while k / lam < 1.0:  # the next term k!/lam^k is still smaller
        terms.append(terms[-1] * k / lam)
        k += 1
    return math.fsum(terms) / lam - math.exp(-lam) * (EULER_GAMMA + math.log(lam))


def class_total_variance(plus: float, minus: float, mixed: float) -> float:
    """Var r for r = (A+ - A-) / N, and r = 0 when N = 0.

    A+, A- and A0 are independent Poisson totals with the given means, and
    N = A+ + A- + A0.  Given N = n >= 1, A+ - A- is a sum of n independent
    steps +1, -1, 0 with probabilities p_c = mean_c / lam (lam the sum of
    the means), of mean d = p+ - p- and variance s = p+ + p- - d^2.  So with
    q = P(N >= 1) = 1 - e^-lam, Var r = s E[1/N; N >= 1] + d^2 q (1 - q).
    """
    lam = plus + minus + mixed
    if lam == 0.0:
        return 0.0
    d = (plus - minus) / lam
    s = (plus + minus) / lam - d * d
    q = -math.expm1(-lam)
    return s * inverse_count_mean(lam) + d * d * q * (1.0 - q)


def witness_sigma(totals: np.ndarray) -> float:
    """Standard deviation of the witness under Poisson resampling of its class totals.

    W = 2 - sum over bases of r_b, each r_b a function of its basis's row of
    totals (analysis.class_totals), and the bases are independent.
    """
    return math.sqrt(sum(class_total_variance(*map(float, row)) for row in totals))


# ----------------------------------------------------------------------
# drift, stabilizer, CSV cells and jitter, one element at a time

def step_ou_accumulate(normals, decay, innovation) -> np.ndarray:
    """OU path stepped on numpy scalars, one index at a time; reference of `channel.ou_accumulate`."""
    out = np.empty(len(normals))
    x = 0.0
    for k in range(len(normals)):
        x = decay * x + innovation * normals[k]
        out[k] = x
    return out


def sample_stabilize(trace: DriftTrace, policy: StabilizerPolicy, rng: np.random.Generator):
    """The correction loop visiting every sample; reference of `channel.stabilize`."""
    n = len(trace.offsets_ps)
    if n < 2:
        return trace, trace.rms_ps()
    period_steps = int(round(policy.correction_interval_s / trace.step_s))
    if period_steps >= n:
        return trace, trace.rms_ps()
    noise = rng.normal(0.0, policy.estimator_noise_ps, n // period_steps + 1)
    offsets = trace.offsets_ps
    resolution = policy.actuator_resolution_ps
    residual = np.empty(n)
    correction = 0.0
    epoch = 0
    for k in range(n):
        if k > 0 and k % period_steps == 0:
            est = (offsets[k] - correction) + noise[epoch]
            epoch += 1
            steps = float(est) / resolution if resolution > 0.0 else np.inf
            if np.isfinite(steps):
                est = np.round(steps) * resolution
            correction += est
        residual[k] = offsets[k] - correction
    out = replace(trace, offsets_ps=residual)
    return out, out.rms_ps()


def cell_csv_lines(rows) -> list[str]:
    """CSV lines built cell by cell; reference of the rows `cli.write_csv` writes."""
    def cell(x):
        if isinstance(x, (float, np.floating)):
            return format(float(x), ".12g")
        return str(x)

    return [",".join(cell(v) for v in row) for row in rows]


def readout(state, detector, pairs_per_setting, tree, base, visibility_penalty) -> Readout:
    """The `detection.Readout` of domain objects, checked as `cli.load_config` checks a config.

    base is checked against both levels' copy spacings, inner level first.
    """
    check_copy_spacing(base, tree.inner, tree.outer)
    return Readout(state, tree, detector, pairs_per_setting, visibility_penalty,
                   jitter_matrices(detector, tree))


def checked_map(setting, tree, base, alpha_offset) -> np.ndarray:
    """`cpm.measurement_map` behind the copy-spacing check of its X setting's level."""
    if setting.kind == "X":
        check_copy_spacing(base, tree.level(setting.level)[0])
    return measurement_map(setting, tree, alpha_offset)


def joint_probabilities(state, signal_setting, idler_setting, tree, base, visibility_penalty):
    """`detection.joint_outcome_probabilities` of two settings, through `detection.branch_maps`."""
    ctx = readout(state, DetectorModel(), 1, tree, base, visibility_penalty)
    return joint_outcome_probabilities(
        state, branch_maps(signal_setting, ctx), branch_maps(idler_setting, ctx)
    )


def per_pairing_joint_probabilities(
    state, signal_setting, idler_setting, tree, base, visibility_penalty
) -> np.ndarray:
    """Joint probabilities with every branch's splitter map rebuilt for this pairing.

    The reference of `detection.branch_maps` + `detection.joint_outcome_probabilities`,
    which build each setting's maps once per readout.
    """
    probs = np.zeros(state.amplitudes.shape)
    for ws, offs in _penalty_branches(signal_setting, visibility_penalty):
        a_s = checked_map(signal_setting, tree, base, offs)
        after_s = a_s @ state.amplitudes
        for wi, offi in _penalty_branches(idler_setting, visibility_penalty):
            a_i = checked_map(idler_setting, tree, base, offi)
            probs += ws * wi * np.abs(clean(after_s @ a_i.T, state.norm_tracking)) ** 2
    return probs


def mixed_means(probs, detector, pairs_per_setting) -> np.ndarray:
    """Mean counts of probs with background mixed in as a uniform fraction of the total."""
    d = detector.dark_coincidence_rate
    mixed = (1.0 - d) * probs + d * probs.sum() / probs.size
    return pairs_per_setting * detector.efficiency * mixed


def per_setting_expected_counts(
    state, pairing, detector, pairs_per_setting, tree, base, visibility_penalty,
) -> tuple[np.ndarray, float]:
    """Mean counts and ancillary mean of one pairing, maps and jitter rebuilt for it."""
    probs = per_pairing_joint_probabilities(
        state, pairing.signal_setting, pairing.idler_setting, tree, base, visibility_penalty,
    )
    ks = jitter_transition_matrix(
        detector.photon_sigma_ps(SIGNAL), tree, detector.coincidence_window_ps
    )
    ki = jitter_transition_matrix(
        detector.photon_sigma_ps(IDLER), tree, detector.coincidence_window_ps
    )
    smeared = ks.T @ probs @ ki
    mean = mixed_means(smeared, detector, pairs_per_setting)
    ancillary = pairs_per_setting * detector.efficiency * max(
        state.norm_tracking - smeared.sum(), 0.0
    )
    return mean, ancillary


def per_setting_sample_coincidences(
    state, schedule, detector, pairs_per_setting, visibility_penalty, seed,
    tree, base, exact,
) -> list[JointTemporalIntensity]:
    """Histograms with the splitter maps and both jitter matrices rebuilt for every pairing.

    The reference of `detection.sample_coincidences`, which builds each once
    per readout.
    """
    out = []
    for pairing, child in zip(schedule, seed.spawn(len(schedule))):
        mean, ancillary = per_setting_expected_counts(
            state, pairing, detector, pairs_per_setting, tree, base, visibility_penalty,
        )
        if exact:
            counts, anc = mean, ancillary
        else:
            rng = np.random.default_rng(child)
            counts = rng.poisson(mean).astype(float)
            anc = float(rng.poisson(ancillary))
        out.append(JointTemporalIntensity(pairing, counts, anc))
    return out


def per_phase_fringe_means(
    state, detector, pairs_per_setting, tree, n_points, base, visibility_penalty,
) -> np.ndarray:
    """Fringe means with each photon's maps rebuilt at every phase, background only.

    The reference of `detection.fringe_means`, which builds one map set per
    phase for both photons and passes identity jitter matrices.
    """
    outer = tree.outer
    signal_bins = [(ports[0] << 1) | bits[0] for _, ports, bits, _ in FRINGE_PROJECTIONS]
    idler_bins = [(ports[1] << 1) | bits[1] for _, ports, bits, _ in FRINGE_PROJECTIONS]
    means = np.empty((n_points, len(FRINGE_PROJECTIONS)))
    for j, alpha in enumerate(scan_phases(n_points)):
        setting = BeamSplitterSetting("X", outer.name, float(alpha))
        probs = per_pairing_joint_probabilities(
            state, setting, setting, tree, base, visibility_penalty
        )
        means[j] = mixed_means(probs, detector, pairs_per_setting)[signal_bins, idler_bins]
    return means


# ----------------------------------------------------------------------
# outcome fold, term signs and fringe fit

def outcome_index(bs: int, bi: int, basis: str, positions) -> int:
    """Outcome bit string (T_s, T_i, t_s, t_i) from the measured bin pair.

    Z-read levels report the branch bit directly; X-read levels report the
    splitter output port, whose "+1" port is the opposite bin.
    """
    s_bits = bin_to_bits(positions, bs)
    i_bits = bin_to_bits(positions, bi)
    # qubit order (T_s, T_i, t_s, t_i) = (outer_s, outer_i, inner_s, inner_i)
    raw = (s_bits[0], i_bits[0], s_bits[1], i_bits[1])
    bits = tuple(1 - b if op == "X" else b for b, op in zip(raw, basis))
    return bits[0] << 3 | bits[1] << 2 | bits[2] << 1 | bits[3]


def loop_basis_counts(counts: np.ndarray, basis: str, positions) -> np.ndarray:
    """16 outcome counts of a basis, added up cell by cell of the bin-pair histogram."""
    values = np.zeros(16)
    for bs in range(len(positions)):
        for bi in range(len(positions)):
            values[outcome_index(bs, bi, basis, positions)] += counts[bs, bi]
    return values


def loop_term_signs(term: str) -> np.ndarray:
    """Eigenvalue product (+/-1) of a term for each of the 16 outcomes, outcome by outcome."""
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


def lstsq_fringe_fit(alphas, rates) -> tuple[float, float, int]:
    """(visibility, phase offset, harmonic) of A(1 + V cos(k a + phi0)) by least squares.

    Each k in FIT_HARMONICS is fitted with the (1, cos k a, sin k a) design;
    a later k replaces an earlier one only if its residual is smaller by
    more than rounding.
    """
    alphas = np.asarray(alphas, dtype=float)
    rates = np.asarray(rates, dtype=float)
    best_k, best_coef, best_resid = None, None, np.inf
    for k in FIT_HARMONICS:
        design = np.column_stack(
            [np.ones_like(alphas), np.cos(k * alphas), np.sin(k * alphas)]
        )
        coef, *_ = np.linalg.lstsq(design, rates, rcond=None)
        resid = float(np.sum((design @ coef - rates) ** 2))
        if best_coef is None or resid < best_resid * (1.0 - 1e-12) - 1e-30:
            best_k, best_coef, best_resid = k, coef, resid
    c0, c1, c2 = best_coef
    return min(float(np.hypot(c1, c2) / c0), 1.0), float(math.atan2(-c2, c1)), best_k


# ----------------------------------------------------------------------
# Bessel functions

def bessel_j(m: int, g: float) -> float:
    """J_m(g) for integer order m (negative orders via J_{-m} = (-1)^m J_m)."""
    sign = 1.0
    if g < 0:
        g = -g
        sign *= (-1.0) ** (m % 2)
    if m < 0:
        m = -m
        sign *= (-1.0) ** (m % 2)
    return sign * bessel_row(g, m)[m]


def efficiency(g: float) -> float:
    """Two-bin beam-splitter scattering efficiency |J_0(g)|^2 + |J_1(g)|^2.

    This is the probability that a photon stays inside the two nominal
    output bins instead of scattering into ancillary modulation orders.
    """
    if g < 0:
        raise ValueError("modulation depth must be nonnegative")
    row = bessel_row(g, 1)
    return float(row[0] ** 2 + row[1] ** 2)


# ----------------------------------------------------------------------
# bin-index helpers: a tree is a tuple of Levels, outermost first, and its
# layout the tuple of its bin positions, ordered by bin index

def tree_levels(tree: LevelTree) -> tuple[Level, Level]:
    """The levels of a two-level tree, outermost first."""
    return (tree.outer, tree.inner)


def level_count(positions) -> int:
    """Tree depth of a layout: log2 of its bin count."""
    return len(positions).bit_length() - 1


def bin_to_bits(positions, bin_index: int) -> tuple[int, ...]:
    """Branch bits taken at each tree level, outermost level first."""
    if not 0 <= bin_index < len(positions):
        raise ValueError(f"bin {bin_index} outside 0..{len(positions) - 1}")
    top = level_count(positions) - 1
    return tuple((bin_index >> (top - k)) & 1 for k in range(level_count(positions)))


def bits_to_bin(positions, bits) -> int:
    bits = tuple(bits)
    if len(bits) != level_count(positions):
        raise LengthMismatch(
            f"expected {level_count(positions)} bits, got {len(bits)}"
        )
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


def any_depth_layout(levels: tuple[Level, ...]) -> tuple[float, ...]:
    """Canonical layout of any depth: position(bin) = sum of the shifts of set branch bits.

    Valid only when the level names differ, every level's shift exceeds the
    sum of the inner shifts and the positions are finite and strictly
    increasing, so bin order by position equals binary order; the checks
    run in that order.
    """
    names = [lv.name for lv in levels]
    if len(set(names)) != len(names):
        raise ValueError("duplicate level names")
    shifts = [lv.shift_ps for lv in levels]
    for k, s in enumerate(shifts):
        if s <= sum(shifts[k + 1:]):
            raise ValueError(
                f"level {levels[k].name}: shift {s} ps does not clear inner levels"
            )
    top = len(levels) - 1
    positions = tuple(
        sum(s for k, s in enumerate(shifts) if (b >> (top - k)) & 1)
        for b in range(1 << len(levels))
    )
    if not all(a < b < math.inf for a, b in zip(positions, positions[1:])):
        raise ValueError("bin positions must be finite and strictly increasing")
    return positions


def extend_levels(
    levels: tuple[Level, ...], new_level: Level, grid: ModeGrid | None = None
) -> tuple[Level, ...]:
    """Add an outer level with twice the bin count.

    The new shift must sit on the mode grid and must clear the span of the
    existing layout so the uniform-shift property survives at every level.
    """
    grid = grid or ModeGrid()
    steps = new_level.shift_ps / grid.time_quantum_ps
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError(
            f"shift {new_level.shift_ps} ps is not a multiple of "
            f"{grid.time_quantum_ps} ps"
        )
    extended = (new_level,) + tuple(levels)
    any_depth_layout(extended)  # raises ValueError if invalid
    return extended


def uniform_shift_offsets(positions) -> tuple[float, ...]:
    """Per-level offset between paired |0> and |1> branch bins.

    Raises ValueError if any level's pairs are not uniformly spaced.
    """
    n_levels = level_count(positions)
    out = []
    for k in range(n_levels):
        flip = 1 << (n_levels - 1 - k)
        deltas = {
            round(positions[b | flip] - positions[b], 9)
            for b in range(len(positions))
            if not b & flip
        }
        if len(deltas) != 1:
            raise ValueError(f"level index {k}: non-uniform pair shifts {sorted(deltas)}")
        out.append(deltas.pop())
    return tuple(out)


def any_depth_measurement_map(
    setting: BeamSplitterSetting,
    levels: tuple[Level, ...],
    base: CpmSettings,
    alpha_offset: float,
) -> np.ndarray:
    """Single-photon measurement matrix A[out bin, in bin] over 2**len(levels) bins.

    The reference of `cpm.measurement_map`: a level's partner bin is the bin
    with the bit of that level's depth flipped, so the map holds at any
    depth.  Z is the identity; X pairs each bin with its partner through
    J0 and +/-J1 e^{-/+i alpha}, after the copy-spacing check of
    `cpm.check_copy_spacing`.  A level absent from levels raises ValueError.
    """
    count = 1 << len(levels)
    if setting.kind == "Z":
        return np.eye(count, dtype=complex)

    level_idx = [lv.name for lv in levels].index(setting.level)
    level = levels[level_idx]
    copy_ps = base.delta_t_ps(level.rf_frequency_ghz)
    if not abs(copy_ps - level.shift_ps) <= SNAP_TOL_PS:
        raise GridMismatch(
            f"level {level.name}: copy spacing {copy_ps:g} ps does not match "
            f"its {level.shift_ps:g} ps bin shift"
        )
    row = bessel_row(solve_balanced_depth(), 1)
    j0, j1 = float(row[0]), float(row[1])
    alpha = float(np.mod(setting.alpha, 2.0 * np.pi)) + alpha_offset

    fwd = complex(j1 * np.exp(-1j * alpha))
    bwd = complex(-j1 * np.exp(1j * alpha))
    flip = 1 << (len(levels) - 1 - level_idx)
    a = np.eye(count, dtype=complex) * j0
    for b in range(count):
        a[b ^ flip, b] = bwd if b & flip else fwd
    return a


# ----------------------------------------------------------------------
# sampled-field FFT chain

@dataclass(frozen=True)
class ChirpSpec:
    """Signed grating dispersion (ns/nm) at the telecom carrier."""

    dispersion_ns_per_nm: float
    carrier_wavelength_nm: float = 1550.0

    def __post_init__(self):
        if self.beta2_ps2 == 0 or not math.isfinite(self.beta2_ps2):
            raise ValueError("dispersion must be nonzero and finite")

    @property
    def beta2_ps2(self) -> float:
        beta2_s2 = chirp_beta2_s2(self.dispersion_ns_per_nm, self.carrier_wavelength_nm)
        return beta2_s2 * 1e24

    def negated(self) -> "ChirpSpec":
        return replace(self, dispersion_ns_per_nm=-self.dispersion_ns_per_nm)


@dataclass(frozen=True)
class SampledField:
    """Complex envelope on a uniform time grid.

    carrier_offset_ghz is the optical carrier relative to the band center;
    it matters for the group delay a chirp imparts (e.g. the 48 ns
    signal/idler separation for a 600 GHz offset at 10 ns/nm).
    """

    samples: np.ndarray
    dt_ps: float = 1.0
    t0_ps: float = 0.0
    carrier_offset_ghz: float = 0.0

    def __post_init__(self):
        n = len(self.samples)
        if n & (n - 1):
            raise ValueError("sample count must be a power of two")

    @property
    def times_ps(self) -> np.ndarray:
        return self.t0_ps + self.dt_ps * np.arange(len(self.samples))

    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.dt_ps)


def gaussian_pulse(
    center_ps: float,
    fwhm_ps: float = 37.0,
    n_samples: int = 2**18,
    dt_ps: float = 1.0,
    amplitude: complex = 1.0 + 0j,
    carrier_offset_ghz: float = 0.0,
) -> SampledField:
    """Gaussian amplitude pulse; fwhm_ps is the intensity FWHM."""
    t0 = -0.5 * n_samples * dt_ps
    t = t0 + dt_ps * np.arange(n_samples)
    env = _gaussian(t - center_ps, fwhm_ps)
    return SampledField(amplitude * env.astype(complex), dt_ps, t0, carrier_offset_ghz)


def add_fields(a: SampledField, b: SampledField) -> SampledField:
    if a.dt_ps != b.dt_ps or a.t0_ps != b.t0_ps or len(a.samples) != len(b.samples):
        raise ValueError("fields must share a sampling grid")
    if a.carrier_offset_ghz != b.carrier_offset_ghz:
        raise ValueError("fields must share a carrier")
    return replace(a, samples=a.samples + b.samples)


def _omega_rad_per_ps(field: SampledField) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(len(field.samples), field.dt_ps)


def _check_edges(samples: np.ndarray, dt_ps: float, leak_tol: float) -> None:
    n = len(samples)
    margin = max(16, n // 128)
    power = np.abs(samples) ** 2
    total = power.sum()
    if total == 0:
        return
    edges = power[:margin].sum() + power[-margin:].sum()
    if edges > leak_tol * total:
        raise WindowOverflow(
            f"{edges / total:.2e} of the energy sits in the window margins"
        )


def apply_chirp(field: SampledField, chirp: ChirpSpec, leak_tol: float = 1e-9) -> SampledField:
    """Quadratic spectral phase exp(i beta2 omega^2 / 2); energy conserving.

    The carrier offset enters as a constant group delay beta2 * 2 pi nu_c.
    Raises WindowOverflow if the stretched field would wrap around.
    """
    _check_edges(field.samples, field.dt_ps, leak_tol)
    omega = _omega_rad_per_ps(field) + 2.0 * np.pi * field.carrier_offset_ghz * 1e-3
    spectrum = np.fft.fft(field.samples)
    spectrum *= np.exp(0.5j * chirp.beta2_ps2 * omega**2)
    out = np.fft.ifft(spectrum)
    _check_edges(out, field.dt_ps, leak_tol)
    return replace(field, samples=out)


def phase_modulate(
    field: SampledField, g: float, rf_frequency_ghz: float, alpha: float
) -> SampledField:
    """Multiply by exp(i g sin(Omega t + alpha)); energy conserving."""
    phase = g * np.sin(
        2.0 * np.pi * rf_frequency_ghz * 1e-3 * field.times_ps + alpha
    )
    return replace(field, samples=field.samples * np.exp(1j * phase))


def cpm_continuous(
    field: SampledField,
    chirp: ChirpSpec,
    g: float,
    rf_frequency_ghz: float,
    alpha: float,
) -> SampledField:
    """Full chirp -> modulate -> inverse-chirp chain.

    Produces coherent pulse copies at integer multiples of dt = beta2*Omega,
    each spectrally shifted by m*Omega.  The RF phase is applied with the
    sign that reproduces the discrete operator's e^{-i m alpha} weights for
    copies at +m*dt.
    """
    stretched = apply_chirp(field, chirp)
    modulated = phase_modulate(stretched, g, rf_frequency_ghz, -alpha)
    return apply_chirp(modulated, chirp.negated())


def copy_spacing_ps(chirp: ChirpSpec, rf_frequency_ghz: float) -> float:
    return abs(chirp.beta2_ps2) * 2.0 * np.pi * rf_frequency_ghz * 1e-3


def bin_intensity(field: SampledField, center_ps: float, half_width_ps: float) -> float:
    """Integrated intensity inside a detection window around one bin."""
    t = field.times_ps
    sel = (t >= center_ps - half_width_ps) & (t < center_ps + half_width_ps)
    return float(np.sum(np.abs(field.samples[sel]) ** 2) * field.dt_ps)


def copy_peak_position(
    field: SampledField, near_ps: float, search_half_width_ps: float
) -> float:
    """Intensity centroid near an expected pulse-copy position."""
    t = field.times_ps
    sel = (t >= near_ps - search_half_width_ps) & (t < near_ps + search_half_width_ps)
    power = np.abs(field.samples[sel]) ** 2
    if power.sum() == 0:
        raise ValueError(f"no energy near {near_ps} ps")
    return float(np.sum(t[sel] * power) / power.sum())


def extract_copy_weights(
    output: SampledField,
    reference: SampledField,
    chirp: ChirpSpec,
    rf_frequency_ghz: float,
    m_max: int,
) -> dict[int, complex]:
    """Complex weights of the pulse copies relative to the input pulse.

    Joint least-squares projection onto the time- and frequency-shifted
    copies of the input mode (the copies overlap, so independent inner
    products would cross-contaminate).  The deterministic quadratic copy
    phase beta2*(m*Omega)^2/2 produced by the chirp pair is compensated,
    so the weights converge to the discrete operator's J_m(g) e^{-i m alpha}
    as the dispersion grows.
    """
    omega = 2.0 * np.pi * rf_frequency_ghz * 1e-3  # rad/ps
    spacing = abs(chirp.beta2_ps2) * omega
    orders = list(range(-m_max, m_max + 1))
    modes = []
    for m in orders:
        shift = int(round(m * spacing / reference.dt_ps))
        modes.append(
            np.roll(reference.samples, shift)
            * np.exp(1j * m * omega * reference.times_ps)
        )
    basis = np.column_stack(modes)
    coeffs = np.linalg.lstsq(basis, output.samples, rcond=None)[0]
    return {
        m: complex(c * np.exp(0.5j * chirp.beta2_ps2 * (m * omega) ** 2))
        for m, c in zip(orders, coeffs)
    }


def spectrogram(
    field: SampledField,
    window_fwhm_ps: float = 30.0,
    time_step_ps: float = 10.0,
    time_range_ps: tuple[float, float] | None = None,
    freq_range_ghz: float = 12.0,
):
    """Gabor spectrogram: (times_ps, freqs_ghz, intensity[time, freq]).

    A Gaussian analysis window slides over the field; each column is the
    windowed power spectrum restricted to +-freq_range_ghz.
    """
    if window_fwhm_ps <= 2.0 * field.dt_ps:
        raise ValueError("window must be wider than two samples")
    t = field.times_ps
    if time_range_ps is None:
        power = np.abs(field.samples) ** 2
        lit = np.nonzero(power > 1e-9 * power.max())[0]
        time_range_ps = (t[lit[0]], t[lit[-1]])
    half = int(round(4.0 * window_fwhm_ps / field.dt_ps))
    window = np.exp(
        -2.0 * np.log(2.0)
        * (field.dt_ps * np.arange(-half, half + 1) / window_fwhm_ps) ** 2
    )
    n_fft = 1 << int(np.ceil(np.log2(4 * len(window))))
    freqs = np.fft.fftshift(np.fft.fftfreq(n_fft, field.dt_ps)) * 1e3  # GHz
    keep = np.abs(freqs) <= freq_range_ghz
    centers = np.arange(time_range_ps[0], time_range_ps[1] + field.dt_ps, time_step_ps)
    rows = []
    for c in centers:
        k = int(round((c - field.t0_ps) / field.dt_ps))
        lo, hi = k - half, k + half + 1
        if lo < 0 or hi > len(field.samples):
            rows.append(np.zeros(int(keep.sum())))
            continue
        seg = field.samples[lo:hi] * window
        spec = np.fft.fftshift(np.fft.fft(seg, n_fft))
        rows.append(np.abs(spec[keep]) ** 2)
    return centers, freqs[keep], np.array(rows)


def visibility_fft_chain(sep, fwhm, chirp, n_alpha=16, n_samples=2**18, dt_ps=1.0):
    """Reference for visibility_bound: the sampled FFT chain it replaces.

    The two pulses are chirped once; each RF phase is then modulated in,
    chirped back and summed over the central bin window.
    """
    rf_frequency_ghz = rf_for_spacing(chirp.beta2_ps2, sep)
    g_star = solve_balanced_depth()
    a = gaussian_pulse(0.0, fwhm, n_samples, dt_ps)
    b = gaussian_pulse(sep, fwhm, n_samples, dt_ps)
    stretched = apply_chirp(add_fields(a, b), chirp)
    alphas = np.linspace(0.0, 2.0 * np.pi, n_alpha, endpoint=False)
    intensities = []
    for alpha in alphas:
        modulated = phase_modulate(stretched, g_star, rf_frequency_ghz, -alpha)
        out = apply_chirp(modulated, chirp.negated())
        intensities.append(bin_intensity(out, sep, 0.5 * sep))
    design = np.column_stack([np.ones_like(alphas), np.cos(alphas), np.sin(alphas)])
    c = np.linalg.lstsq(design, np.asarray(intensities), rcond=None)[0]
    return float(np.hypot(c[1], c[2]) / c[0])


def visibility_copy_sum(
    bin_separation_ps: float, pulse_fwhm_ps: float, settings: CpmSettings
) -> float:
    """Reference for visibility_bound: its copy sum at one dispersion.

    The sum over copies and times runs once per dispersion, with the
    copies' delays m beta2 Omega and carriers e^{i m Omega t} evaluated
    anew each time.

    Two equal-amplitude Gaussian pulses separated by bin_separation_ps pass
    the chirp -> modulation -> inverse-chirp chain at the balanced depth g*,
    with the grating dispersion and carrier of settings and the RF tone
    whose copy spacing equals the separation.  Swept over the RF phase alpha, the intensity summed over the central
    output bin window [sep/2, 3 sep/2), sampled at 1 ps, traces a fringe
    I(alpha); the bound is its first-harmonic contrast.

    The chain is evaluated in closed form.  For D = exp(i beta2 w^2 / 2),
    D^-1 e^{i m Omega t} D = e^{-i beta2 (m Omega)^2 / 2} e^{i m Omega t}
    (delay by m beta2 Omega) exactly, and Jacobi-Anger expands the
    modulator as sum_m J_m(g*) e^{-i m alpha} e^{i m Omega t}.  The output
    is thus sum_m u_m(t) e^{-i m alpha}: Bessel-weighted copies u_m of the
    two pulses, shifted by m Omega in frequency and m beta2 Omega in time,
    for |m| <= COPY_ORDERS (J_13(g*) = 2e-12).  So I(alpha) = H0 +
    2 Re(H1 e^{-i alpha}) + higher harmonics, with H0 = sum_t,m |u_m|^2 and
    H1 = sum_t,m u_m conj(u_{m-1}), and the visibility is 2 |H1| / H0.
    """
    beta2 = settings.beta2_s2 * 1e24  # ps^2
    if beta2 == 0 or not math.isfinite(beta2):
        raise ValueError("dispersion must be nonzero and finite")
    if bin_separation_ps <= 0:
        raise ValueError("bin separation must be positive")
    if bin_separation_ps >= MAX_SEPARATION_PS:
        raise ValueError(f"bin separation must be below {MAX_SEPARATION_PS:g} ps")
    orders = np.arange(-COPY_ORDERS, COPY_ORDERS + 1)
    bessel = bessel_row(solve_balanced_depth(), COPY_ORDERS)[np.abs(orders)]
    bessel = np.where((orders < 0) & (orders % 2 == 1), -bessel, bessel)  # J_-m
    omega = 2.0 * np.pi * rf_for_spacing(beta2, bin_separation_ps) * 1e-3  # rad/ps
    top = COPY_ORDERS * omega  # the highest copy frequency
    if not (omega > 0 and math.isfinite(top * top * beta2)):
        raise ValueError("dispersion out of range for the bin separation")
    weights = bessel * np.exp(-0.5j * beta2 * (orders * omega) ** 2)
    delays = orders * (beta2 * omega)
    # the integer times the 1 ps field grid has in the window
    times = np.arange(np.ceil(0.5 * bin_separation_ps), np.ceil(1.5 * bin_separation_ps))
    # chunk so each (copy, time) array stays near 1 MB
    step = 2**16 // len(orders)
    h0 = h1 = 0j
    for start in range(0, len(times), step):
        t = times[start:start + step]
        shifted = t - delays[:, None]
        envelope = _gaussian(shifted, pulse_fwhm_ps) + _gaussian(
            shifted - bin_separation_ps, pulse_fwhm_ps
        )
        copies = weights[:, None] * np.exp(1j * omega * np.outer(orders, t)) * envelope
        h0 += np.vdot(copies, copies)
        h1 += np.vdot(copies[:-1], copies[1:])
    return float(2.0 * abs(h1) / h0.real)
