"""Discrete chirped-pulse-modulation operator and time-bin beam splitters.

A sinusoidal phase modulation between two opposite-dispersion gratings
scatters a time/frequency mode into coherent copies of order m, weighted
by J_m(g) e^{-i m alpha} and shifted by (m*dt, m*dnu).  Truncating to the
orders that connect a level's bin pair yields the tunable time-bin beam
splitter used for projective measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bessel import bessel_row, efficiency, solve_balanced_depth
from .encoding import BinLayout, LevelSpec, bin_to_bits, layout_from_levels
from .errors import GridMismatch, UnknownLevel
from .modes import ModeGrid, TimeFreqMode

C_M_PER_S = 299792458.0


def chirp_beta2_s2(dispersion_ns_per_nm: float, carrier_wavelength_nm: float) -> float:
    """Group-delay dispersion beta2 = D lambda^2 / (2 pi c) in s^2.

    It sets the copy spacing dt = beta2 * Omega of a chirp pair.
    """
    d_s_per_m = dispersion_ns_per_nm  # ns/nm is numerically s/m
    lam_m = carrier_wavelength_nm * 1e-9
    return d_s_per_m * lam_m**2 / (2.0 * np.pi * C_M_PER_S)


@dataclass(frozen=True)
class CpmSettings:
    """Modulation depth, RF tone and grating dispersion for one CPM pass."""

    g: float = 0.0
    rf_frequency_ghz: float = 1.25
    alpha: float = 0.0
    dispersion_ns_per_nm: float = 10.0
    carrier_wavelength_nm: float = 1550.0
    truncation_order: int = 8
    # |dt - k*quantum| <= snap_tol * quantum is accepted as on-grid; the
    # physical dt for the paper parameters is 100.17 ps on a 100 ps grid.
    snap_tol: float = 0.01

    def __post_init__(self):
        if self.g < 0:
            raise ValueError("modulation depth must be nonnegative")

    @property
    def omega_rad_per_s(self) -> float:
        return 2.0 * np.pi * self.rf_frequency_ghz * 1e9

    @property
    def beta2_s2(self) -> float:
        return chirp_beta2_s2(self.dispersion_ns_per_nm, self.carrier_wavelength_nm)

    @property
    def delta_t_ps(self) -> float:
        """Physical copy spacing beta2 * Omega."""
        return self.beta2_s2 * self.omega_rad_per_s * 1e12

    @property
    def delta_nu_ghz(self) -> float:
        return self.rf_frequency_ghz

    def time_steps(self, grid: ModeGrid) -> int:
        """Copy spacing in grid units; raises GridMismatch when off-grid."""
        steps = self.delta_t_ps / grid.time_quantum_ps
        rounded = round(steps)
        if rounded == 0 or abs(steps - rounded) > self.snap_tol:
            raise GridMismatch(
                f"dt = {self.delta_t_ps:.3f} ps does not land on the "
                f"{grid.time_quantum_ps} ps grid"
            )
        return int(rounded)

    def freq_steps(self, grid: ModeGrid) -> int:
        steps = self.delta_nu_ghz / grid.freq_quantum_ghz
        rounded = round(steps)
        if rounded == 0 or abs(steps - rounded) > 1e-9 * max(1.0, abs(steps)):
            raise GridMismatch(
                f"dnu = {self.delta_nu_ghz} GHz does not land on the "
                f"{grid.freq_quantum_ghz} GHz grid"
            )
        return int(rounded)

    def check_truncation(self) -> None:
        row = bessel_row(self.g, self.truncation_order)
        total = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2)
        if total < 1.0 - 1e-9:
            raise ValueError(
                f"truncation order {self.truncation_order} keeps only "
                f"{total:.12f} of the scattered weight at g={self.g}"
            )


def cpm_mode_map(settings: CpmSettings, grid: ModeGrid):
    """Faithful discrete CPM operator: orders m in [-M, M].

    Each input mode maps to copies shifted by (m*dt, m*dnu) with weight
    J_m(g) e^{-i m alpha}.  Negative orders carry J_{-m} = (-1)^m J_m.
    """
    settings.check_truncation()
    if settings.g == 0.0:
        return lambda mode: [(mode, 1.0 + 0j)]
    dt = settings.time_steps(grid)
    dn = settings.freq_steps(grid)
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
class BeamSplitterSetting:
    """Per-photon, per-level measurement choice.

    kind "Z": unmodulated, computational basis.
    kind "X": balanced splitter, alpha = 0.
    kind "XY": balanced splitter with basis rotation angle alpha.
    """

    kind: str
    level: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("Z", "X", "XY"):
            raise ValueError(f"unknown setting kind {self.kind!r}")

    @property
    def effective_alpha(self) -> float:
        return 0.0 if self.kind == "X" else float(np.mod(self.alpha, 2.0 * np.pi))


@dataclass(frozen=True)
class PhotonMeasurement:
    """Mode map plus the bookkeeping needed by the detection stage."""

    setting: BeamSplitterSetting
    mode_map: object
    efficiency: float
    interfered_level: str | None  # level whose bins were superimposed, if any


def measurement_map(
    setting: BeamSplitterSetting,
    levels: LevelSpec,
    base: CpmSettings,
    grid: ModeGrid,
    layout: BinLayout | None = None,
    alpha_offset: float = 0.0,
) -> PhotonMeasurement:
    """Single-photon measurement operator for one beam-splitter setting.

    Z is the identity.  X/XY act as the ideal pairwise splitter derived
    from the CPM operator truncated to the orders that connect a bin to
    its partner on the measured level:

        |0> -> J0 |0> + J1 e^{-i alpha} |1>
        |1> -> J0 |1> - J1 e^{+i alpha} |0>

    (order m = -1 carries J_{-1} = -J1 and the conjugate phase, per the
    scattering operator's e^{-i m alpha} convention).  The remaining
    1 - eta(g*) of the probability scatters to ancillary orders and is
    dropped from the tracked state.  alpha_offset is used by the detection
    stage to build dephased variants; modes off the nominal layout are lost.
    """
    if setting.kind == "Z":
        return PhotonMeasurement(setting, lambda m: [(m, 1.0 + 0j)], 1.0, None)

    if setting.level not in [lv.name for lv in levels.levels]:
        raise UnknownLevel(setting.level)
    layout = layout or layout_from_levels(levels)
    level_idx = levels.index_of(setting.level)
    rf = levels.level(setting.level).rf_frequency_ghz
    g_star = solve_balanced_depth()
    tuned = replace(base, g=g_star, rf_frequency_ghz=rf, alpha=0.0)
    tuned.time_steps(grid)  # validates grid consistency for this level
    row = bessel_row(g_star, 1)
    j0, j1 = float(row[0]), float(row[1])
    alpha = setting.effective_alpha + alpha_offset

    steps_of_bin = {}
    for b in range(layout.count):
        steps_of_bin[grid.t_steps(layout.position(b) - grid.time_origin_ps)] = b
    flip = 1 << (layout.level_count - 1 - level_idx)
    partner_steps = {}
    bit_of_steps = {}
    for steps, b in steps_of_bin.items():
        partner = b ^ flip
        p_steps = grid.t_steps(layout.position(partner) - grid.time_origin_ps)
        partner_steps[steps] = p_steps
        bit_of_steps[steps] = bin_to_bits(layout, b)[level_idx]

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
