"""Sparse mode-dict readout path, kept as the oracle of the dense bin-pair path.

A mode is a pair of integer indices (t_index, f_index) on an `oracles.ModeGrid`, and
a two-photon state is a sparse complex map over (signal mode, idler mode)
pairs.  Unlike the dense path, maps may shift the frequency index: the
faithful discrete CPM operator `cpm_mode_map` scatters every mode into
orders m in [-M, M].  The state algebra, the closure measurement maps and
the joint outcome probabilities here are the simulator's former product
path; tests compare the dense path against them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

import numpy as np

from clustersim.bessel import bessel_row, solve_balanced_depth
from clustersim.cpm import BeamSplitterSetting, CpmSettings
from clustersim.detection import IDLER, SIGNAL, _penalty_branches
from clustersim.encoding import Level
from clustersim.errors import ClusterSimError, GridMismatch
from clustersim.modes import SPARSITY_THRESHOLD
from clustersim.source import ExcitationTrain, shg_phases
from oracles import (
    CpmOperatorSettings,
    ModeGrid,
    any_depth_layout,
    bin_to_bits,
    efficiency,
    grid_time_steps,
    level_count,
)


class ZeroState(ClusterSimError):
    """All amplitudes fell below the sparsity threshold."""


class NonContractive(ClusterSimError):
    """A mode map would amplify probability beyond unity."""


class TimeFreqMode(NamedTuple):
    """Discrete time-bin/frequency-bin label, in units of the grid quanta."""

    t_index: int
    f_index: int


PairKey = tuple[TimeFreqMode, TimeFreqMode]
ModeMap = Callable[[TimeFreqMode], Iterable[tuple[TimeFreqMode, complex]]]


def _clean(amplitudes: dict) -> dict:
    return {k: v for k, v in amplitudes.items() if abs(v) >= SPARSITY_THRESHOLD}


@dataclass(frozen=True)
class JointTwoPhotonState:
    """Sparse complex amplitude map over (signal, idler) mode pairs.

    norm_tracking equals the total retained probability sum(|a|^2); lossy
    operations shrink it instead of silently renormalizing, so efficiency
    corrections (e.g. the eta(g*) ~ 0.6005 beam-splitter factor) stay
    first-class.
    """

    grid: ModeGrid
    amplitudes: dict = field(default_factory=dict)
    norm_tracking: float = 0.0

    @staticmethod
    def from_amplitudes(grid: ModeGrid, amplitudes: dict) -> "JointTwoPhotonState":
        amps = _clean({
            (TimeFreqMode(*s), TimeFreqMode(*i)): complex(a)
            for (s, i), a in amplitudes.items()
        })
        return JointTwoPhotonState(grid, amps, _total_probability(amps))

    def probability(self) -> float:
        return self.norm_tracking

    def amplitude(self, signal: TimeFreqMode, idler: TimeFreqMode) -> complex:
        return self.amplitudes.get((signal, idler), 0j)


def _total_probability(amplitudes: dict) -> float:
    return float(sum(abs(a) ** 2 for a in amplitudes.values()))


def normalize(state: JointTwoPhotonState) -> JointTwoPhotonState:
    """Rescale to unit total probability, preserving relative phases."""
    total = _total_probability(state.amplitudes)
    if total <= SPARSITY_THRESHOLD**2 or not state.amplitudes:
        raise ZeroState("no amplitude left to normalize")
    scale = 1.0 / np.sqrt(total)
    amps = _clean({k: v * scale for k, v in state.amplitudes.items()})
    return JointTwoPhotonState(state.grid, amps, 1.0)


def apply_single_photon_map(
    state: JointTwoPhotonState, photon: str, mode_map: ModeMap
) -> JointTwoPhotonState:
    """Apply a linear (possibly lossy) mode map to one photon only.

    Each input mode's weights must satisfy sum(|w|^2) <= 1; sub-unit rows
    model scattering out of the tracked mode set.
    """
    if photon not in (SIGNAL, IDLER):
        raise ValueError(f"photon must be 'signal' or 'idler', got {photon!r}")
    checked: dict[TimeFreqMode, list] = {}
    new_amps: dict[PairKey, complex] = {}
    for (s_mode, i_mode), amp in state.amplitudes.items():
        src = s_mode if photon == SIGNAL else i_mode
        targets = checked.get(src)
        if targets is None:
            targets = [(TimeFreqMode(*m), complex(w)) for m, w in mode_map(src)]
            row_norm = sum(abs(w) ** 2 for _, w in targets)
            if row_norm > 1.0 + 1e-9:
                raise NonContractive(
                    f"mode map row norm {row_norm:.12f} > 1 for input {src}"
                )
            checked[src] = targets
        for dst, w in targets:
            key = (dst, i_mode) if photon == SIGNAL else (s_mode, dst)
            new_amps[key] = new_amps.get(key, 0j) + amp * w
    new_amps = _clean(new_amps)
    return JointTwoPhotonState(state.grid, new_amps, _total_probability(new_amps))


def projection_probability(
    state: JointTwoPhotonState, signal_mode: TimeFreqMode, idler_mode: TimeFreqMode
) -> float:
    """Coincidence probability |amplitude|^2 for one mode pair."""
    return abs(state.amplitude(signal_mode, idler_mode)) ** 2


def inner_product(a: JointTwoPhotonState, b: JointTwoPhotonState) -> complex:
    """<a|b> over the shared sparse support."""
    if len(a.amplitudes) > len(b.amplitudes):
        return complex(np.conj(inner_product(b, a)))  # pragma: no cover
    return sum(
        np.conj(amp) * b.amplitudes.get(key, 0j) for key, amp in a.amplitudes.items()
    )


def state_to_json(state: JointTwoPhotonState) -> str:
    """Serialize in the product's state.json form: amplitudes keyed by bin positions in ps.

    That form has no frequency coordinate, so a populated mode off
    frequency index 0 raises ValueError.
    """
    grid = state.grid

    def position(mode: TimeFreqMode) -> float:
        if mode.f_index != 0:
            raise ValueError(f"mode {mode} is off frequency index 0")
        return grid.time_origin_ps + mode.t_index * grid.time_quantum_ps

    entries = [
        {
            "signal_ps": position(s),
            "idler_ps": position(i),
            "re": amp.real,
            "im": amp.imag,
        }
        for (s, i), amp in sorted(state.amplitudes.items())
    ]
    doc = {"amplitudes": entries, "norm_tracking": state.norm_tracking}
    return json.dumps(doc, sort_keys=True, indent=2)


def state_from_json(text: str, grid: ModeGrid) -> JointTwoPhotonState:
    """The state of a state_to_json document, its positions read on grid."""
    doc = json.loads(text)
    amps = {
        (
            TimeFreqMode(grid.t_steps(e["signal_ps"] - grid.time_origin_ps), 0),
            TimeFreqMode(grid.t_steps(e["idler_ps"] - grid.time_origin_ps), 0),
        ): complex(e["re"], e["im"])
        for e in doc["amplitudes"]
    }
    amps = _clean(amps)
    return JointTwoPhotonState(grid, amps, _total_probability(amps))


def generate_pair_state(
    train: ExcitationTrain, positions, grid: ModeGrid
) -> JointTwoPhotonState:
    """Pair state (1/sqrt(K)) sum_k e^{i 2 phi_k} |bin k>_s |bin k>_i at the bin positions."""
    if len(train.phases_rad) != len(positions):
        raise ValueError(f"{len(train.phases_rad)} pulse phases vs {len(positions)} bins")
    doubled = shg_phases(train)
    amps = {}
    for t, phase in zip(positions, doubled):
        steps = grid.t_steps(t - grid.time_origin_ps)
        mode = TimeFreqMode(steps, 0)
        amps[(mode, mode)] = np.exp(1j * phase)
    return normalize(JointTwoPhotonState.from_amplitudes(grid, amps))


def transmit(state: JointTwoPhotonState, retained_fraction: float) -> JointTwoPhotonState:
    """Link loss: every amplitude scaled by sqrt(retained_fraction)."""
    scale = np.sqrt(retained_fraction)
    amps = {k: v * scale for k, v in state.amplitudes.items()}
    return JointTwoPhotonState(state.grid, amps, state.norm_tracking * retained_fraction)


def freq_steps(settings: CpmOperatorSettings, grid: ModeGrid) -> int:
    """Copy frequency spacing (the RF tone) in grid units; raises when off-grid."""
    steps = settings.rf_frequency_ghz / grid.freq_quantum_ghz
    rounded = round(steps)
    if rounded == 0 or abs(steps - rounded) > 1e-9 * max(1.0, abs(steps)):
        raise GridMismatch(
            f"dnu = {settings.rf_frequency_ghz} GHz does not land on the "
            f"{grid.freq_quantum_ghz} GHz grid"
        )
    return int(rounded)


def check_truncation(settings: CpmOperatorSettings) -> None:
    row = bessel_row(settings.g, settings.truncation_order)
    total = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2)
    if total < 1.0 - 1e-9:
        raise ValueError(
            f"truncation order {settings.truncation_order} keeps only "
            f"{total:.12f} of the scattered weight at g={settings.g}"
        )


def cpm_mode_map(settings: CpmOperatorSettings, grid: ModeGrid):
    """Faithful discrete CPM operator: orders m in [-M, M].

    Each input mode maps to copies shifted by (m*dt, m*dnu) with weight
    J_m(g) e^{-i m alpha}.  Negative orders carry J_{-m} = (-1)^m J_m.
    """
    check_truncation(settings)
    if settings.g == 0.0:
        return lambda mode: [(mode, 1.0 + 0j)]
    dt = grid_time_steps(settings, grid, settings.rf_frequency_ghz)
    dn = freq_steps(settings, grid)
    m_max = settings.truncation_order
    row = bessel_row(settings.g, m_max)
    orders = []
    for m in range(-m_max, m_max + 1):
        j = row[abs(m)] * ((-1.0) ** (abs(m) % 2) if m < 0 else 1.0)
        w = j * np.exp(-1j * m * settings.alpha)
        orders.append((m, complex(w)))

    def mode_map(mode: TimeFreqMode):
        return [
            (TimeFreqMode(mode.t_index + m * dt, mode.f_index + m * dn), w)
            for m, w in orders
        ]

    return mode_map


@dataclass(frozen=True)
class PhotonMeasurement:
    """Mode map plus the bookkeeping needed by the detection stage."""

    setting: BeamSplitterSetting
    mode_map: object
    efficiency: float
    interfered_level: str | None  # level whose bins were superimposed, if any


def measurement_map(
    setting: BeamSplitterSetting,
    levels: tuple[Level, ...],
    base: CpmSettings,
    grid: ModeGrid,
    positions: tuple[float, ...] | None = None,
    alpha_offset: float = 0.0,
) -> PhotonMeasurement:
    """Single-photon measurement operator for one beam-splitter setting.

    Z is the identity.  X acts as the ideal pairwise splitter derived
    from the CPM operator truncated to the orders that connect a bin to
    its partner on the measured level:

        |0> -> J0 |0> + J1 e^{-i alpha} |1>
        |1> -> J0 |1> - J1 e^{+i alpha} |0>

    (order m = -1 carries J_{-1} = -J1 and the conjugate phase, per the
    scattering operator's e^{-i m alpha} convention).  The remaining
    1 - eta(g*) of the probability scatters to ancillary orders and is
    dropped from the tracked state.  alpha_offset is used by the detection
    stage to build dephased variants; modes off the nominal bin positions
    (any_depth_layout of levels by default) are lost.
    """
    if setting.kind == "Z":
        return PhotonMeasurement(setting, lambda m: [(m, 1.0 + 0j)], 1.0, None)

    positions = positions or any_depth_layout(levels)
    level_idx = [lv.name for lv in levels].index(setting.level)
    rf = levels[level_idx].rf_frequency_ghz
    g_star = solve_balanced_depth()
    grid_time_steps(base, grid, rf)  # validates this level's grid
    row = bessel_row(g_star, 1)
    j0, j1 = float(row[0]), float(row[1])
    alpha = float(np.mod(setting.alpha, 2.0 * np.pi)) + alpha_offset

    steps_of_bin = {}
    for b, position in enumerate(positions):
        steps_of_bin[grid.t_steps(position - grid.time_origin_ps)] = b
    flip = 1 << (level_count(positions) - 1 - level_idx)
    partner_steps = {}
    bit_of_steps = {}
    for steps, b in steps_of_bin.items():
        partner = b ^ flip
        p_steps = grid.t_steps(positions[partner] - grid.time_origin_ps)
        partner_steps[steps] = p_steps
        bit_of_steps[steps] = bin_to_bits(positions, b)[level_idx]

    fwd = complex(j1 * np.exp(-1j * alpha))
    bwd = complex(-j1 * np.exp(1j * alpha))

    def mode_map(mode: TimeFreqMode):
        b = steps_of_bin.get(mode.t_index)
        if b is None:
            return []
        partner = TimeFreqMode(partner_steps[mode.t_index], mode.f_index)
        w = fwd if bit_of_steps[mode.t_index] == 0 else bwd
        return [(mode, complex(j0)), (partner, w)]

    return PhotonMeasurement(setting, mode_map, efficiency(g_star), setting.level)


def joint_outcome_probabilities(
    state: JointTwoPhotonState,
    signal_setting: BeamSplitterSetting,
    idler_setting: BeamSplitterSetting,
    levels: tuple[Level, ...],
    base: CpmSettings,
    positions: tuple[float, ...],
    visibility_penalty: dict[str, float],
) -> np.ndarray:
    """Exact coincidence probability for every (signal bin, idler bin).

    The matrix sums to the jointly retained probability (state norm times
    the two splitter efficiencies); it is not renormalized here.
    """
    grid = state.grid
    steps_of_bin = {
        b: grid.t_steps(position - grid.time_origin_ps)
        for b, position in enumerate(positions)
    }
    bin_of_steps = {s: b for b, s in steps_of_bin.items()}
    n = len(positions)
    probs = np.zeros((n, n))
    s_branches = _penalty_branches(signal_setting, visibility_penalty)
    i_branches = _penalty_branches(idler_setting, visibility_penalty)
    for ws, offs in s_branches:
        ms = measurement_map(signal_setting, levels, base, grid, positions, offs)
        after_s = apply_single_photon_map(state, SIGNAL, ms.mode_map)
        for wi, offi in i_branches:
            mi = measurement_map(idler_setting, levels, base, grid, positions, offi)
            out = apply_single_photon_map(after_s, IDLER, mi.mode_map)
            for (s_mode, i_mode), amp in out.amplitudes.items():
                bs = bin_of_steps.get(s_mode.t_index)
                bi = bin_of_steps.get(i_mode.t_index)
                if bs is not None and bi is not None:
                    probs[bs, bi] += ws * wi * abs(amp) ** 2
    return probs
