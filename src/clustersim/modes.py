"""Time grid and the two-photon readout state as a dense bin-pair matrix.

The state holds one complex amplitude per (signal bin, idler bin) pair of
the bin layout.  Every readout map keeps a photon inside the layout's bins
(ancillary orders are dropped), so no other modes are ever populated.
All state values are immutable; operations return new states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Relative tolerance of ModeGrid.t_steps for a duration on the grid.
GRID_REL_TOL = 1e-9
#: Amplitudes below this are zeroed.  Without it, cancellation residue of
#: order 1e-27 turns exact-zero outcome probabilities into positive ones.
SPARSITY_THRESHOLD = 1e-12


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


def clean(amplitudes: np.ndarray) -> np.ndarray:
    """Amplitudes with every entry below SPARSITY_THRESHOLD set to 0."""
    return np.where(np.abs(amplitudes) >= SPARSITY_THRESHOLD, amplitudes, 0)


@dataclass(frozen=True, eq=False)
class JointTwoPhotonState:
    """Complex amplitudes[signal bin, idler bin] of a photon pair.

    bin_steps is the time-grid index of each bin.  norm_tracking equals
    the total retained probability sum(|a|^2); lossy operations shrink it
    instead of silently renormalizing, so efficiency corrections (e.g. the
    eta(g*) ~ 0.6005 beam-splitter factor) stay first-class.
    """

    grid: ModeGrid
    bin_steps: tuple[int, ...]
    amplitudes: np.ndarray
    norm_tracking: float

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (len(self.bin_steps),) * 2:
            raise ValueError("amplitudes must be a square matrix over the bins")
        if len(set(self.bin_steps)) < len(self.bin_steps):
            raise ValueError(f"bins share a time step on the {self.grid.time_quantum_ps} ps grid")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def state_to_json(state: JointTwoPhotonState) -> str:
    """Serialize the nonzero amplitudes as (time step, frequency index) pairs.

    The order is by signal bin, then idler bin; every frequency index is 0.
    """
    entries = [
        {
            "t_s": state.bin_steps[s],
            "f_s": 0,
            "t_i": state.bin_steps[i],
            "f_i": 0,
            "re": float(amp.real),
            "im": float(amp.imag),
        }
        for (s, i), amp in np.ndenumerate(state.amplitudes)
        if amp != 0
    ]
    doc = {
        "grid": {
            "time_quantum_ps": state.grid.time_quantum_ps,
            "freq_quantum_ghz": state.grid.freq_quantum_ghz,
            "time_origin_ps": state.grid.time_origin_ps,
        },
        "amplitudes": entries,
        "norm_tracking": state.norm_tracking,
    }
    return json.dumps(doc, sort_keys=True, indent=2)
