"""Two-level time-bin encoding: an outer level over an inner one.

Each level of the tree encodes one qubit; the outer level (larger time
shift) is the high bit of a bin index.  The default spec is the paper's
T (300 ps shift, 3.75 GHz tone) over t (100 ps shift, 1.25 GHz tone),
giving the irregular physical bin positions 0, 100, 300, 400 ps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Level:
    name: str
    shift_ps: float  # time-bin separation bridged by this level's splitter
    rf_frequency_ghz: float


@dataclass(frozen=True)
class LevelSpec:
    """Ordered levels, outermost (largest shift) first."""

    levels: tuple[Level, ...]

    def __post_init__(self):
        names = [lv.name for lv in self.levels]
        if len(set(names)) != len(names):
            raise ValueError("duplicate level names")

    @property
    def count(self) -> int:
        return len(self.levels)

    def index_of(self, name: str) -> int:
        return [lv.name for lv in self.levels].index(name)


@dataclass(frozen=True)
class BinLayout:
    """Physical bin arrival times, ordered by bin index.

    bin index read as a binary number gives the branch bits, most
    significant bit = outermost level.
    """

    positions_ps: tuple[float, ...]

    def __post_init__(self):
        pos = self.positions_ps
        # an outer shift plus an inner one may overflow to infinity
        if not all(a < b < math.inf for a, b in zip(pos, pos[1:])):
            raise ValueError("bin positions must be finite and strictly increasing")

    @property
    def count(self) -> int:
        return len(self.positions_ps)

    def position(self, bin_index: int) -> float:
        return self.positions_ps[bin_index]


def default_levels() -> LevelSpec:
    return LevelSpec((Level("T", 300.0, 3.75), Level("t", 100.0, 1.25)))


def layout_from_levels(spec: LevelSpec) -> BinLayout:
    """Bin positions 0, t, T, T + t of an outer shift T over an inner shift t.

    Valid only when T > t > 0, so bin order by position equals binary
    order.  A spec of another depth does not unpack.
    """
    outer, inner = spec.levels
    for level, inner_span in ((outer, inner.shift_ps), (inner, 0)):
        if level.shift_ps <= inner_span:
            raise ValueError(
                f"level {level.name}: shift {level.shift_ps} ps does not clear inner levels"
            )
    return BinLayout((0, inner.shift_ps, outer.shift_ps, outer.shift_ps + inner.shift_ps))
