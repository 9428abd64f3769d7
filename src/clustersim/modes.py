"""The two-photon readout state as a dense bin-pair matrix.

The state holds one complex amplitude per (signal bin, idler bin) pair of
the level tree.  Every readout map keeps a photon inside the tree's four
bins (ancillary orders are dropped), so no other modes are ever populated.
Bin positions come from the tree alone (encoding.LevelTree.positions_ps).
All state values are immutable; operations return new states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import LevelTree

#: Amplitudes below this, relative to the state's root norm, are zeroed.
#: Without it, cancellation residue of order 1e-27 turns exact-zero outcome
#: probabilities into positive ones.
SPARSITY_THRESHOLD = 1e-12


def clean(amplitudes: np.ndarray, norm_tracking: float) -> np.ndarray:
    """Amplitudes with every entry below SPARSITY_THRESHOLD * sqrt(norm_tracking) set to 0.

    Loss scales every amplitude by one factor and norm_tracking by its
    square, so an amplitude keeps its fate however lossy the link.
    """
    threshold = SPARSITY_THRESHOLD * np.sqrt(norm_tracking)
    return np.where(np.abs(amplitudes) >= threshold, amplitudes, 0)


@dataclass(frozen=True, eq=False)
class JointTwoPhotonState:
    """Complex amplitudes[signal bin, idler bin] of a photon pair.

    norm_tracking equals the total retained probability sum(|a|^2); lossy
    operations shrink it instead of silently renormalizing, so efficiency
    corrections (e.g. the eta(g*) ~ 0.6005 beam-splitter factor) stay
    first-class.
    """

    amplitudes: np.ndarray
    norm_tracking: float

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def state_to_json(state: JointTwoPhotonState, tree: LevelTree) -> dict:
    """JSON document of the nonzero amplitudes keyed by their bin positions in ps.

    The order is by signal bin, then idler bin.
    """
    positions = [float(p) for p in tree.positions_ps]
    entries = [
        {
            "signal_ps": positions[s],
            "idler_ps": positions[i],
            "re": float(amp.real),
            "im": float(amp.imag),
        }
        for (s, i), amp in np.ndenumerate(state.amplitudes)
        if amp != 0
    ]
    return {"amplitudes": entries, "norm_tracking": state.norm_tracking}
