"""Gate-free cluster-state generation.

Four coherent excitation pulses with per-pulse phases are frequency
doubled (which doubles each applied phase) and down-converted into a
photon pair whose signal/idler time bins are perfectly correlated with
the pump pulse.  With phases (0, 0, 0, pi/2) the doubled phases are
(0, 0, 0, pi), producing amplitudes (1/2, 1/2, 1/2, -1/2): the four-qubit
cluster state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modes import JointTwoPhotonState
from .waveform import MIN_PULSE_FWHM_PS


@dataclass(frozen=True)
class ExcitationTrain:
    """Excitation pulse train driving the SHG/SPDC cascade.

    The four pulses sit at the four bin positions of the two-level
    tree, one phase per bin.
    """

    phases_rad: tuple[float, ...] = (0.0, 0.0, 0.0, np.pi / 2)
    pulse_fwhm_ps: float = 37.0

    def __post_init__(self):
        if not self.pulse_fwhm_ps >= MIN_PULSE_FWHM_PS:
            raise ValueError(f"pulse width must be at least {MIN_PULSE_FWHM_PS:g} ps")


def shg_phases(train: ExcitationTrain) -> tuple[float, ...]:
    """Second-harmonic phases: each pump phase is doubled (mod 2 pi).

    The phase is reduced mod 2 pi before doubling, so a phase near the
    float maximum does not double to infinity.
    """
    two_pi = 2.0 * np.pi
    return tuple(float(np.mod(2.0 * np.mod(p, two_pi), two_pi)) for p in train.phases_rad)


def generate_pair_state(train: ExcitationTrain) -> JointTwoPhotonState:
    """Pair state (1/sqrt(K)) sum_k e^{i 2 phi_k} |bin k>_s |bin k>_i.

    SPDC amplitudes are equal across pulses (flat pump envelope), so the
    state fills the diagonal of the bin-pair matrix; the signal-idler
    600 GHz offset is not carried, only the relative structure matters here.
    """
    amps = np.exp(1j * np.array(shg_phases(train)))
    amps = amps * (1.0 / np.sqrt(np.sum(np.abs(amps) ** 2)))
    return JointTwoPhotonState(np.diag(amps), 1.0)


def ideal_cluster_state() -> JointTwoPhotonState:
    """The target state with amplitudes (1/2, 1/2, 1/2, -1/2)."""
    return generate_pair_state(ExcitationTrain(phases_rad=(0.0, 0.0, 0.0, np.pi / 2)))


def is_cluster_state(state: JointTwoPhotonState) -> tuple[bool, float]:
    """Overlap fidelity |<cluster|state>|^2 and a pass flag at 1 - 1e-9."""
    target = ideal_cluster_state()
    fidelity = float(abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2)
    return fidelity > 1.0 - 1e-9, fidelity
