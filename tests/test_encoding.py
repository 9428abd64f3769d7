"""The two-level tree: its checks, bin positions and level lookup."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clustersim.encoding import DEFAULT_TREE, Level, LevelTree
from oracles import (
    LengthMismatch,
    ModeGrid,
    any_depth_layout,
    bin_to_bits,
    bits_to_bin,
    extend_levels,
    level_count,
    tree_levels,
    uniform_shift_offsets,
)


def test_default_layout_positions():
    assert DEFAULT_TREE.positions_ps == (0.0, 100.0, 300.0, 400.0)
    assert level_count(DEFAULT_TREE.positions_ps) == 2


def test_bin_bits_msb_is_outer_level():
    positions = DEFAULT_TREE.positions_ps
    # bin 2 = binary 10: T branch taken, t branch not
    assert bin_to_bits(positions, 2) == (1, 0)
    assert positions[2] == 300.0
    assert bits_to_bin(positions, (1, 0)) == 2
    assert DEFAULT_TREE.level("T") == (DEFAULT_TREE.outer, 2)
    assert DEFAULT_TREE.level("t") == (DEFAULT_TREE.inner, 1)
    with pytest.raises(ValueError, match="'tau' is not in list"):
        DEFAULT_TREE.level("tau")


def test_bits_round_trip_and_errors():
    positions = DEFAULT_TREE.positions_ps
    for b in range(4):
        assert bits_to_bin(positions, bin_to_bits(positions, b)) == b
    with pytest.raises(ValueError, match="bin 4 outside 0..3"):
        bin_to_bits(positions, 4)
    with pytest.raises(LengthMismatch):
        bits_to_bin(positions, (0, 1, 1))


def test_incompatible_shift_rejected():
    with pytest.raises(ValueError, match="level A: shift 90.0 ps does not clear inner levels"):
        LevelTree(Level("A", 90.0, 1.0), Level("B", 100.0, 1.25))


def test_layout_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        LevelTree(Level("T", 1e20, 1.0), Level("t", 1.0, 1.0))  # T + t rounds to T
    with pytest.raises(ValueError, match="finite"):
        LevelTree(Level("T", 1.7e308, 1.0), Level("t", 1e308, 1.0))  # overflowed T + t


def _tree_or_error(outer: Level, inner: Level):
    """(positions, min spacing) of LevelTree(outer, inner), or its ValueError's message."""
    try:
        tree = LevelTree(outer, inner)
    except ValueError as exc:
        return str(exc)
    return tree.positions_ps, tree.min_spacing_ps


def _oracle_or_error(outer: Level, inner: Level):
    """(positions, min spacing) of any_depth_layout((outer, inner)), or its ValueError's message."""
    try:
        pos = any_depth_layout((outer, inner))
    except ValueError as exc:
        return str(exc)
    return pos, min(b - a for a, b in zip(pos, pos[1:]))


@pytest.mark.parametrize("outer,inner", [
    (300.0, 100.0), (600, 200), (150.0, 50.0), (100.0, 99.99999999999999),
    (100.0, 100.0), (90.0, 100.0), (300.0, 0.0), (300.0, -0.0), (300.0, -100.0),
    (-100.0, -300.0), (300.0, 5e-324), (1e308, 1e308), (1.7e308, 1e308),
    (1e20, 1.0),
])
def test_two_level_layout_matches_any_depth_oracle(outer, inner):
    """Same positions and spacing, or the same ValueError message, on each side of T > t > 0."""
    levels = (Level("T", outer, 3.75), Level("t", inner, 1.25))
    got, want = _tree_or_error(*levels), _oracle_or_error(*levels)
    assert got == want
    if not isinstance(want, str):
        assert [type(p) for p in got[0]] == [type(p) for p in want[0]]


@pytest.mark.parametrize("names", [("T", "T"), ("t", "t"), ("T", "t"), ("t", "T")])
@pytest.mark.parametrize("outer,inner", [
    (300.0, 100.0), (100.0, 300.0), (300.0, 0.0), (1.7e308, 1e308), (1e20, 1.0),
])
def test_tree_checks_run_in_oracle_order(names, outer, inner):
    """Duplicate names, then each shift (outer first), then the positions are refused."""
    levels = (Level(names[0], outer, 3.75), Level(names[1], inner, 1.25))
    assert _tree_or_error(*levels) == _oracle_or_error(*levels)


@pytest.mark.parametrize("depth", [0, 1, 3])
def test_layout_needs_two_levels(depth):
    """A tree is an outer and an inner level; another count of levels does not construct."""
    levels = tuple(Level(f"L{k}", 100.0 * 3 ** (depth - k), 1.0) for k in range(depth))
    with pytest.raises(TypeError):
        LevelTree(*levels)


def test_extend_to_three_levels():
    extended = extend_levels(
        tree_levels(DEFAULT_TREE), Level("tau", 900.0, 0.4166666667), ModeGrid()
    )
    positions = any_depth_layout(extended)
    assert len(positions) == 8
    assert positions == (
        0.0, 100.0, 300.0, 400.0, 900.0, 1000.0, 1200.0, 1300.0,
    )
    assert uniform_shift_offsets(positions) == (900.0, 300.0, 100.0)


def test_extend_rejects_overlapping_outer_shift():
    with pytest.raises(ValueError, match="does not clear inner levels"):
        extend_levels(tree_levels(DEFAULT_TREE), Level("tau", 400.0, 1.0), ModeGrid())
    with pytest.raises(ValueError, match="is not a multiple of"):
        # off the 100 ps grid
        extend_levels(tree_levels(DEFAULT_TREE), Level("tau", 950.0, 1.0), ModeGrid())


def test_uniform_shift_offsets_default():
    assert uniform_shift_offsets(DEFAULT_TREE.positions_ps) == (300.0, 100.0)


def test_duplicate_level_names_rejected():
    with pytest.raises(ValueError, match="duplicate level names"):
        LevelTree(Level("T", 300.0, 3.75), Level("T", 100.0, 1.25))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0))
def test_bits_round_trip_any_depth(n_levels, raw):
    shifts = [100.0 * 2 ** (n_levels - 1 - k) for k in range(n_levels)]
    positions = any_depth_layout(
        tuple(Level(f"L{k}", s, 1.0 + k) for k, s in enumerate(shifts))
    )
    b = raw % len(positions)
    assert bits_to_bin(positions, bin_to_bits(positions, b)) == b
    # position equals the sum of the set branch shifts
    bits = bin_to_bits(positions, b)
    assert positions[b] == sum(
        s for s, bit in zip(shifts, bits) if bit
    )
