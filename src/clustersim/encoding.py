"""Two-level time-bin encoding: an outer level over an inner one.

Each level of the tree encodes one qubit.  A bin index is two bits, the
outer level's (larger time shift) high, the inner level's low, so flipping
bit 2 or bit 1 gives a bin's partner on that level.  The default tree is
the paper's T (300 ps shift, 3.75 GHz tone) over t (100 ps shift, 1.25 GHz
tone), giving the irregular physical bin positions 0, 100, 300, 400 ps.
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
class LevelTree:
    """An outer level T over an inner level t, and their four bins.

    Valid only when the names differ, T > t > 0 and T + t is a finite float
    above T, so bin order by position equals binary order.
    """

    outer: Level
    inner: Level

    def __post_init__(self):
        if self.outer.name == self.inner.name:
            raise ValueError("duplicate level names")
        for level, inner_span in ((self.outer, self.inner.shift_ps), (self.inner, 0)):
            if level.shift_ps <= inner_span:
                raise ValueError(
                    f"level {level.name}: shift {level.shift_ps} ps does not clear inner levels"
                )
        pos = self.positions_ps
        # an outer shift plus an inner one may overflow to infinity
        if not all(a < b < math.inf for a, b in zip(pos, pos[1:])):
            raise ValueError("bin positions must be finite and strictly increasing")

    @property
    def positions_ps(self) -> tuple[float, ...]:
        """Bin arrival times 0, t, T, T + t, ordered by bin index."""
        inner, outer = self.inner.shift_ps, self.outer.shift_ps
        return (0, inner, outer, outer + inner)

    @property
    def min_spacing_ps(self) -> float:
        """The smallest gap between neighbouring bins."""
        pos = self.positions_ps
        return min(b - a for a, b in zip(pos, pos[1:]))

    def level(self, name: str) -> tuple[Level, int]:
        """The level called name and its bin-index bit (outer 2, inner 1); else ValueError."""
        levels = (self.outer, self.inner)
        k = [level.name for level in levels].index(name)
        return levels[k], 2 >> k


DEFAULT_TREE = LevelTree(Level("T", 300.0, 3.75), Level("t", 100.0, 1.25))
