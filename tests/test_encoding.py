"""Two-level bin layouts and level specifications."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clustersim.encoding import (
    BinLayout,
    Level,
    LevelSpec,
    default_levels,
    layout_from_levels,
)
from oracles import (
    LengthMismatch,
    ModeGrid,
    any_depth_layout,
    bin_to_bits,
    bits_to_bin,
    extend_levels,
    level_count,
    uniform_shift_offsets,
)


def test_default_layout_positions():
    layout = layout_from_levels(default_levels())
    assert layout.positions_ps == (0.0, 100.0, 300.0, 400.0)
    assert level_count(layout) == 2


def test_bin_bits_msb_is_outer_level():
    layout = layout_from_levels(default_levels())
    # bin 2 = binary 10: T branch taken, t branch not
    assert bin_to_bits(layout, 2) == (1, 0)
    assert layout.position(2) == 300.0
    assert bits_to_bin(layout, (1, 0)) == 2


def test_bits_round_trip_and_errors():
    layout = layout_from_levels(default_levels())
    for b in range(4):
        assert bits_to_bin(layout, bin_to_bits(layout, b)) == b
    with pytest.raises(ValueError, match="bin 4 outside 0..3"):
        bin_to_bits(layout, 4)
    with pytest.raises(LengthMismatch):
        bits_to_bin(layout, (0, 1, 1))


def test_incompatible_shift_rejected():
    bad = LevelSpec((Level("A", 90.0, 1.0), Level("B", 100.0, 1.25)))
    with pytest.raises(ValueError, match="level A: shift 90.0 ps does not clear inner levels"):
        layout_from_levels(bad)


def test_layout_validation():
    with pytest.raises(ValueError):
        BinLayout((0.0, 100.0, 50.0, 400.0))  # not increasing
    with pytest.raises(ValueError, match="finite"):
        BinLayout((0.0, 1e308, 1.7e308, float("inf")))  # overflowed T + t


@pytest.mark.parametrize("outer,inner", [
    (300.0, 100.0), (600, 200), (150.0, 50.0), (100.0, 99.99999999999999),
    (100.0, 100.0), (90.0, 100.0), (300.0, 0.0), (300.0, -0.0), (300.0, -100.0),
    (-100.0, -300.0), (300.0, 5e-324), (1e308, 1e308), (1.7e308, 1e308),
])
def test_two_level_layout_matches_any_depth_oracle(outer, inner):
    """Same positions, or the same ValueError type and message, on each side of T > t > 0."""
    spec = LevelSpec((Level("T", outer, 3.75), Level("t", inner, 1.25)))
    try:
        expected = any_depth_layout(spec).positions_ps
    except ValueError as exc:
        with pytest.raises(type(exc)) as caught:
            layout_from_levels(spec)
        assert str(caught.value) == str(exc)
        return
    got = layout_from_levels(spec).positions_ps
    assert got == expected
    assert [type(p) for p in got] == [type(p) for p in expected]


@pytest.mark.parametrize("depth", [0, 1, 3])
def test_layout_needs_two_levels(depth):
    """A tree of another depth does not unpack into (outer, inner)."""
    spec = LevelSpec(tuple(Level(f"L{k}", 100.0 * 3 ** (depth - k), 1.0)
                           for k in range(depth)))
    with pytest.raises(ValueError, match="values to unpack"):
        layout_from_levels(spec)


def test_extend_to_three_levels():
    extended = extend_levels(
        default_levels(), Level("tau", 900.0, 0.4166666667), ModeGrid()
    )
    layout = any_depth_layout(extended)
    assert layout.count == 8
    assert layout.positions_ps == (
        0.0, 100.0, 300.0, 400.0, 900.0, 1000.0, 1200.0, 1300.0,
    )
    assert uniform_shift_offsets(layout) == (900.0, 300.0, 100.0)


def test_extend_rejects_overlapping_outer_shift():
    with pytest.raises(ValueError, match="does not clear inner levels"):
        extend_levels(default_levels(), Level("tau", 400.0, 1.0), ModeGrid())
    with pytest.raises(ValueError, match="is not a multiple of"):
        # off the 100 ps grid
        extend_levels(default_levels(), Level("tau", 950.0, 1.0), ModeGrid())


def test_uniform_shift_offsets_default():
    layout = layout_from_levels(default_levels())
    assert uniform_shift_offsets(layout) == (300.0, 100.0)


def test_duplicate_level_names_rejected():
    with pytest.raises(ValueError):
        LevelSpec((Level("T", 300.0, 3.75), Level("T", 100.0, 1.25)))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0))
def test_bits_round_trip_any_depth(n_levels, raw):
    shifts = [100.0 * 2 ** (n_levels - 1 - k) for k in range(n_levels)]
    spec = LevelSpec(
        tuple(Level(f"L{k}", s, 1.0 + k) for k, s in enumerate(shifts))
    )
    layout = any_depth_layout(spec)
    b = raw % layout.count
    assert bits_to_bin(layout, bin_to_bits(layout, b)) == b
    # position equals the sum of the set branch shifts
    bits = bin_to_bits(layout, b)
    assert layout.position(b) == sum(
        s for s, bit in zip(shifts, bits) if bit
    )
