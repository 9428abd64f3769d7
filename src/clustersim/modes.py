"""Time/frequency mode labels and sparse two-photon amplitude states.

A mode is a pair of integer indices (t_index, f_index) on a ModeGrid.
Two-photon states are sparse complex maps over (signal mode, idler mode)
pairs.  All state values are immutable; operations return new states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import NonContractive, ZeroState

SPARSITY_THRESHOLD = 1e-12

SIGNAL = "signal"
IDLER = "idler"


class TimeFreqMode(NamedTuple):
    """Discrete time-bin/frequency-bin label, in units of the grid quanta."""

    t_index: int
    f_index: int


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

    def time_of(self, mode: TimeFreqMode) -> float:
        return self.time_origin_ps + mode.t_index * self.time_quantum_ps

    def t_steps(self, duration_ps: float, rel_tol: float = 1e-9) -> int:
        """Integer number of time quanta in a duration; raises if off-grid."""
        steps = duration_ps / self.time_quantum_ps
        tol = rel_tol * max(1.0, abs(steps))
        if not np.isfinite(steps) or abs(steps - round(steps)) > tol:
            raise ValueError(f"{duration_ps} ps is not on the {self.time_quantum_ps} ps grid")
        return int(round(steps))


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
    """Serialize to a JSON document with stable key order (debugging aid)."""
    entries = [
        {
            "t_s": s.t_index,
            "f_s": s.f_index,
            "t_i": i.t_index,
            "f_i": i.f_index,
            "re": amp.real,
            "im": amp.imag,
        }
        for (s, i), amp in sorted(state.amplitudes.items())
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


def state_from_json(text: str) -> JointTwoPhotonState:
    doc = json.loads(text)
    grid = ModeGrid(**doc["grid"])
    amps = {
        (
            TimeFreqMode(e["t_s"], e["f_s"]),
            TimeFreqMode(e["t_i"], e["f_i"]),
        ): complex(e["re"], e["im"])
        for e in doc["amplitudes"]
    }
    amps = _clean(amps)
    return JointTwoPhotonState(grid, amps, _total_probability(amps))
