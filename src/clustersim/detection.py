"""Segment-scheduled coincidence detection.

One 180 ns RF frame holds 18 segments of 10 ns; interleaving signal and
idler segments (48 ns apart, 5 segments) realizes all nine joint
beam-splitter settings in parallel.  The schedule is those nine pairings,
and each names the witness basis it reads, if any.  Exact output-bin
probabilities are degraded by interference-visibility penalties, detector
jitter and uniform background, then realized as Poisson counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import scan_phases
from .cpm import BeamSplitterSetting, CpmSettings, measurement_map
from .encoding import BinLayout, LevelSpec, layout_from_levels
from .errors import MissingBasis
from .modes import JointTwoPhotonState, clean

SIGNAL = "signal"
IDLER = "idler"


#: Segments in one RF frame, and how many segments each idler segment
#: lags its signal partner (50 ns ~ the 48 ns pair separation).
FRAME_SEGMENTS = 18
IDLER_LAG = 5

#: Witness bases in qubit order (T_s, T_i, t_s, t_i), in the order of the
#: per-photon settings that read them: Z, X on the inner level, X on the
#: outer level.
WITNESS_BASES = ("ZZZZ", "ZZXX", "XXZZ")


@dataclass(frozen=True)
class PairingRecord:
    """One joint setting: which segments measure the paired photons.

    basis names the witness basis a matched setting reads, None for a
    mixed one.
    """

    name: str
    signal_segment: int
    idler_segment: int
    signal_setting: BeamSplitterSetting
    idler_setting: BeamSplitterSetting
    basis: str | None


@dataclass(frozen=True)
class DetectorModel:
    """Timing jitter, coincidence windowing and background."""

    jitter_signal_ps: float = 17.0
    jitter_idler_ps: float = 17.0
    tdc_jitter_ps: float = 18.0
    coincidence_window_ps: float = 50.0  # half-width around bin centers
    dark_coincidence_rate: float = 0.0  # fraction of detected coincidences
    efficiency: float = 1.0

    def __post_init__(self):
        if min(self.jitter_signal_ps, self.jitter_idler_ps, self.tdc_jitter_ps) < 0:
            raise ValueError("jitters must be nonnegative")
        if self.coincidence_window_ps <= 0:
            raise ValueError("coincidence window must be positive")
        if not 0.0 <= self.dark_coincidence_rate < 1.0:
            raise ValueError("dark fraction must lie in [0, 1)")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")

    def photon_sigma_ps(self, photon: str) -> float:
        base = self.jitter_signal_ps if photon == SIGNAL else self.jitter_idler_ps
        return math.hypot(base, self.tdc_jitter_ps)


@dataclass(frozen=True)
class JointTemporalIntensity:
    """Coincidence histogram over (signal bin, idler bin) for one setting."""

    pairing: PairingRecord
    counts: np.ndarray  # (n_bins, n_bins)
    ancillary: float = 0.0


def build_default_schedule(levels: LevelSpec) -> tuple[PairingRecord, ...]:
    """The nine joint settings of the 18-segment frame, a to i.

    levels is the two-level tree (outer, inner); a spec of another depth
    does not unpack.  Each photon is read by Z, X on the inner level or X
    on the outer level; pairing k reads the signal with setting k // 3 and
    the idler with setting k % 3, so the three matched pairings a, e and i
    read the witness bases ZZZZ, ZZXX and XXZZ.  Signal photons occupy the
    even segments 0..16 and each idler segment lags its partner by
    IDLER_LAG, so the nine pairings fill the frame's 18 segments once each.
    """
    outer, inner = levels.levels
    settings = (
        BeamSplitterSetting("Z", inner.name),
        BeamSplitterSetting("X", inner.name),
        BeamSplitterSetting("X", outer.name),
    )
    return tuple(
        PairingRecord(
            "abcdefghi"[k], 2 * k, (2 * k + IDLER_LAG) % FRAME_SEGMENTS,
            settings[k // 3], settings[k % 3],
            WITNESS_BASES[k // 3] if k // 3 == k % 3 else None,
        )
        for k in range(9)
    )


def _penalty_branches(setting: BeamSplitterSetting, penalty: dict[str, float]):
    """Dephasing mixture implementing a fringe-visibility penalty.

    Splitting the RF phase between alpha and alpha + pi with weights
    (1 +/- sqrt(V))/2 multiplies every single-photon interference cross
    term by sqrt(V), so a joint fringe acquires exactly visibility V
    (or V_s * V_i when both photons are penalized).  A level absent from
    penalty keeps full visibility.
    """
    if setting.kind == "Z":
        return ((1.0, 0.0),)
    v = float(penalty.get(setting.level, 1.0))
    if v >= 1.0:
        return ((1.0, 0.0),)
    s = math.sqrt(v)
    return ((0.5 * (1.0 + s), 0.0), (0.5 * (1.0 - s), math.pi))


def joint_outcome_probabilities(
    state: JointTwoPhotonState,
    signal_setting: BeamSplitterSetting,
    idler_setting: BeamSplitterSetting,
    levels: LevelSpec,
    base: CpmSettings,
    visibility_penalty: dict[str, float],
) -> np.ndarray:
    """Exact coincidence probability for every (signal bin, idler bin).

    Each penalty branch contributes w_s w_i |A_s psi A_i^T|^2, with A the
    photons' measurement matrices.  The matrix sums to the jointly retained
    probability (state norm times the two splitter efficiencies); it is not
    renormalized here.
    """
    probs = np.zeros(state.amplitudes.shape)
    for ws, offs in _penalty_branches(signal_setting, visibility_penalty):
        a_s = measurement_map(signal_setting, levels, base, offs)
        after_s = a_s @ state.amplitudes
        for wi, offi in _penalty_branches(idler_setting, visibility_penalty):
            a_i = measurement_map(idler_setting, levels, base, offi)
            probs += ws * wi * np.abs(clean(after_s @ a_i.T)) ** 2
    return probs


def jitter_transition_matrix(
    sigma_ps: float, layout: BinLayout, window_half_ps: float
) -> np.ndarray:
    """K[b, b'] = P(arrival recorded in bin b' window | emitted in bin b).

    Gaussian arrival-time smearing integrated over each bin's coincidence
    window; rows sum to < 1, the rest falls outside every window.
    """
    n = layout.count
    if sigma_ps == 0.0:
        return np.eye(n)
    k = np.zeros((n, n))
    denom = sigma_ps * math.sqrt(2.0)
    for b in range(n):
        center = layout.position(b)
        for b2 in range(n):
            lo = layout.position(b2) - window_half_ps
            hi = layout.position(b2) + window_half_ps
            k[b, b2] = 0.5 * (
                math.erf((hi - center) / denom) - math.erf((lo - center) / denom)
            )
    return k


def jitter_matrices(detector: DetectorModel, layout: BinLayout) -> tuple[np.ndarray, np.ndarray]:
    """The signal and idler jitter_transition_matrix of detector on layout."""
    return tuple(
        jitter_transition_matrix(
            detector.photon_sigma_ps(photon), layout, detector.coincidence_window_ps
        )
        for photon in (SIGNAL, IDLER)
    )


def _detected_means(probs: np.ndarray, detector: DetectorModel, pairs: int) -> np.ndarray:
    """Mean counts of `pairs` pairs detected with probabilities probs.

    Background coincidences are folded in as a uniform fraction
    dark_coincidence_rate of the detected total.
    """
    d = detector.dark_coincidence_rate
    mixed = (1.0 - d) * probs + d * probs.sum() / probs.size
    return pairs * detector.efficiency * mixed


def expected_counts(
    state: JointTwoPhotonState,
    pairing: PairingRecord,
    detector: DetectorModel,
    pairs_per_setting: int,
    levels: LevelSpec,
    base: CpmSettings,
    jitter: tuple[np.ndarray, np.ndarray],
    visibility_penalty: dict[str, float],
) -> tuple[np.ndarray, float]:
    """Mean coincidence counts per (signal bin, idler bin) and ancillary mean.

    The joint probabilities are smeared by the detector jitter windows,
    then mixed with background (see _detected_means).  jitter holds the
    signal and idler jitter matrices (jitter_matrices), which depend on the
    detector and layout only, so a caller reading several settings builds
    them once.
    """
    probs = joint_outcome_probabilities(
        state, pairing.signal_setting, pairing.idler_setting,
        levels, base, visibility_penalty,
    )
    ks, ki = jitter
    smeared = ks.T @ probs @ ki
    mean = _detected_means(smeared, detector, pairs_per_setting)
    ancillary = pairs_per_setting * detector.efficiency * max(
        state.norm_tracking - smeared.sum(), 0.0
    )
    return mean, ancillary


#: Canonical two-qubit fringe projections: name, (signal, idler) splitter
#: output ports on the rotated level, (signal, idler) bits on the other
#: level, and the expected sign of the cos(2 alpha) term on the ideal
#: cluster state (oracle-derived).
FRINGE_PROJECTIONS = (
    ("d", (0, 0), (0, 0), +1),
    ("e", (0, 1), (1, 1), +1),
    ("f", (0, 0), (1, 1), -1),
    ("g", (0, 1), (0, 0), -1),
)


def fringe_means(
    state: JointTwoPhotonState,
    detector: DetectorModel,
    pairs_per_setting: int,
    levels: LevelSpec,
    n_points: int,
    base: CpmSettings,
    visibility_penalty: dict[str, float],
) -> np.ndarray:
    """(n_points, 4) mean counts of FRINGE_PROJECTIONS over a fringe scan.

    Both photons' outer level is read by an XY splitter at each phase of
    analysis.scan_phases(n_points).  The joint probabilities are mixed with
    background as in expected_counts, but no jitter window is applied.
    """
    outer, _ = levels.levels
    signal_bins = [(ports[0] << 1) | bits[0] for _, ports, bits, _ in FRINGE_PROJECTIONS]
    idler_bins = [(ports[1] << 1) | bits[1] for _, ports, bits, _ in FRINGE_PROJECTIONS]
    means = np.empty((n_points, len(FRINGE_PROJECTIONS)))
    for j, alpha in enumerate(scan_phases(n_points)):
        setting = BeamSplitterSetting("XY", outer.name, float(alpha))
        probs = joint_outcome_probabilities(
            state, setting, setting, levels, base, visibility_penalty
        )
        mean = _detected_means(probs, detector, pairs_per_setting)
        means[j] = mean[signal_bins, idler_bins]
    return means


def sample_coincidences(
    state: JointTwoPhotonState,
    schedule: tuple[PairingRecord, ...],
    detector: DetectorModel,
    pairs_per_setting: int,
    visibility_penalty: dict[str, float],
    seed: np.random.SeedSequence,
    levels: LevelSpec,
    base: CpmSettings,
    exact: bool,
) -> list[JointTemporalIntensity]:
    """Histogram of coincidences for every joint setting of the schedule.

    With exact=True the mean counts are returned unsampled (infinite
    statistics); otherwise each cell is an independent Poisson draw, setting
    k's from the k-th child that seed spawns.  The jitter matrices are built
    once per call and shared by every setting.
    """
    jitter = jitter_matrices(detector, layout_from_levels(levels))
    children = seed.spawn(len(schedule))
    out = []
    for pairing, child in zip(schedule, children):
        mean, ancillary = expected_counts(
            state, pairing, detector, pairs_per_setting,
            levels, base, jitter, visibility_penalty,
        )
        if exact:
            counts, anc = mean, ancillary
        else:
            rng = np.random.default_rng(child)
            counts = rng.poisson(mean).astype(float)
            anc = float(rng.poisson(ancillary))
        out.append(JointTemporalIntensity(pairing, counts, anc))
    return out


def raw_basis_counts(histograms: list[JointTemporalIntensity]) -> dict[str, np.ndarray]:
    """Raw (unnormalized) 16-outcome counts for each witness basis.

    A histogram cell (signal bin, idler bin) carries the bits
    (T_s, t_s, T_i, t_i), and its outcome index reads (T_s, T_i, t_s, t_i),
    so the fold is a fixed permutation of the 16 cells: swap the middle two
    bits, then flip the bits of the X-read qubits.  Z-read levels report the
    branch bit directly; X-read levels report the splitter output port,
    whose "+1" port is the opposite bin (the J0 path keeps the bin, so a
    photon surfacing in its partner bin took the interference path).  The
    convention is pinned by requiring all six stabilizer expectations to be
    +1 on the ideal state.  No efficiency correction or normalization is
    applied, so these are the counts to feed into Poisson resampling.
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
