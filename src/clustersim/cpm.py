"""Chirped-pulse-modulation settings and time-bin beam-splitter matrices.

A sinusoidal phase modulation between two opposite-dispersion gratings
scatters a time/frequency mode into coherent copies of order m, weighted
by J_m(g) e^{-i m alpha} and shifted by (m*dt, m*dnu).  Truncating to the
orders that connect a level's bin pair yields the tunable time-bin beam
splitter used for projective measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_row, solve_balanced_depth
from .encoding import Level, LevelTree
from .errors import GridMismatch

C_M_PER_S = 299792458.0


def chirp_beta2_s2(dispersion_ns_per_nm: float, carrier_wavelength_nm: float) -> float:
    """Group-delay dispersion beta2 = D lambda^2 / (2 pi c) in s^2.

    It sets the copy spacing dt = beta2 * Omega of a chirp pair.
    """
    d_s_per_m = dispersion_ns_per_nm  # ns/nm is numerically s/m
    lam_m = carrier_wavelength_nm * 1e-9
    return d_s_per_m * lam_m**2 / (2.0 * np.pi * C_M_PER_S)


#: |dt - shift| <= SNAP_TOL_PS is accepted as bridging a level's bin shift;
#: the physical dt for the paper parameters is 100.17 ps for the 100 ps level.
SNAP_TOL_PS = 1.0


@dataclass(frozen=True)
class CpmSettings:
    """Grating dispersion and carrier of a CPM pass; each level brings its RF tone."""

    dispersion_ns_per_nm: float = 10.0
    carrier_wavelength_nm: float = 1550.0

    def __post_init__(self):
        lam_m = self.carrier_wavelength_nm * 1e-9
        # chirp_beta2_s2 squares lam_m, which raises OverflowError past 1.3e154 m
        if not (lam_m > 0 and math.isfinite(lam_m * lam_m)):
            raise ValueError("carrier wavelength must be positive with a finite square")

    @property
    def beta2_s2(self) -> float:
        return chirp_beta2_s2(self.dispersion_ns_per_nm, self.carrier_wavelength_nm)

    def delta_t_ps(self, rf_ghz: float) -> float:
        """Physical copy spacing beta2 * Omega of an rf_ghz tone."""
        omega_rad_per_s = 2.0 * np.pi * rf_ghz * 1e9
        return self.beta2_s2 * omega_rad_per_s * 1e12


@dataclass(frozen=True)
class BeamSplitterSetting:
    """Per-photon, per-level measurement choice.

    kind "Z": unmodulated, computational basis.
    kind "X": balanced splitter with basis rotation angle (RF phase) alpha.
    """

    kind: str
    level: str
    alpha: float = 0.0


def check_copy_spacing(base: CpmSettings, *levels: Level) -> None:
    """GridMismatch for the first level whose copies miss its bin shift by over SNAP_TOL_PS.

    Levels are checked in the order given; a nan spacing misses too.
    """
    for level in levels:
        copy_ps = base.delta_t_ps(level.rf_frequency_ghz)
        if not abs(copy_ps - level.shift_ps) <= SNAP_TOL_PS:
            raise GridMismatch(
                f"level {level.name}: copy spacing {copy_ps:g} ps does not match "
                f"its {level.shift_ps:g} ps bin shift"
            )


def measurement_map(
    setting: BeamSplitterSetting, tree: LevelTree, alpha_offset: float
) -> np.ndarray:
    """Single-photon measurement matrix A[out bin, in bin] for one setting.

    The matrix spans the tree's four bins; a level's partner bin is the bin
    with that level's bit (LevelTree.level) flipped.  Z is the identity.
    X acts as the ideal pairwise splitter derived from the CPM operator
    truncated to the orders that connect a bin to its partner on the
    measured level, at alpha = setting.alpha mod 2 pi:

        |0> -> J0 |0> + J1 e^{-i alpha} |1>
        |1> -> J0 |1> - J1 e^{+i alpha} |0>

    (order m = -1 carries J_{-1} = -J1 and the conjugate phase, per the
    scattering operator's e^{-i m alpha} convention).  The remaining
    1 - eta(g*) of the probability scatters to ancillary orders and is
    dropped, so each column has norm eta(g*).  alpha_offset shifts the RF
    phase; the detection stage uses it to build dephased variants.  Bins
    pair by index, as the copies bridge the level's shift (check_copy_spacing).
    A level absent from the tree raises ValueError.
    """
    if setting.kind == "Z":
        return np.eye(4, dtype=complex)

    _, flip = tree.level(setting.level)
    row = bessel_row(solve_balanced_depth(), 1)
    j0, j1 = float(row[0]), float(row[1])
    alpha = float(np.mod(setting.alpha, 2.0 * np.pi)) + alpha_offset

    fwd = complex(j1 * np.exp(-1j * alpha))
    bwd = complex(-j1 * np.exp(1j * alpha))
    a = np.eye(4, dtype=complex) * j0
    for b in range(4):
        a[b ^ flip, b] = bwd if b & flip else fwd
    return a
