"""Binary-tree multi-level time-bin encoding.

Each level of the tree encodes one qubit; the outermost level (largest
time shift) is the most significant bit.  The default two-level spec is
T (300 ps shift, 3.75 GHz tone) over t (100 ps shift, 1.25 GHz tone),
giving the irregular physical bin positions 0, 100, 300, 400 ps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompatibleShift, UnknownLevel


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
        for k, lv in enumerate(self.levels):
            if lv.name == name:
                return k
        raise UnknownLevel(name)


@dataclass(frozen=True)
class BinLayout:
    """Physical bin arrival times, ordered by bin index.

    bin index read as a binary number gives the branch bits, most
    significant bit = outermost level.
    """

    positions_ps: tuple[float, ...]

    def __post_init__(self):
        pos = self.positions_ps
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("bin positions must be strictly increasing")
        n = len(pos)
        if n & (n - 1) or n == 0:
            raise ValueError("bin count must be a power of two")

    @property
    def count(self) -> int:
        return len(self.positions_ps)

    def position(self, bin_index: int) -> float:
        return self.positions_ps[bin_index]


def default_levels() -> LevelSpec:
    return LevelSpec((Level("T", 300.0, 3.75), Level("t", 100.0, 1.25)))


def layout_from_levels(spec: LevelSpec) -> BinLayout:
    """Canonical layout: position(bin) = sum of the shifts of set branch bits.

    Valid only when every level's shift exceeds the sum of the inner
    shifts, so bin order by position equals binary order.
    """
    shifts = [lv.shift_ps for lv in spec.levels]
    for k, s in enumerate(shifts):
        if s <= sum(shifts[k + 1:]):
            raise IncompatibleShift(
                f"level {spec.levels[k].name}: shift {s} ps does not clear inner levels"
            )
    top = spec.count - 1
    return BinLayout(tuple(
        sum(s for k, s in enumerate(shifts) if (b >> (top - k)) & 1)
        for b in range(1 << spec.count)
    ))

