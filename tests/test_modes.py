"""The bin-pair state and its JSON form; the oracle path's sparse state algebra and mode grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersim import modes
from clustersim.detection import IDLER, SIGNAL
from clustersim.encoding import Level, LevelTree
from oracles import ModeGrid
from sparse_oracle import (
    JointTwoPhotonState,
    NonContractive,
    TimeFreqMode,
    ZeroState,
    apply_single_photon_map,
    inner_product,
    normalize,
    projection_probability,
    state_from_json,
    state_to_json,
)


def make_state(pairs):
    grid = ModeGrid()
    return JointTwoPhotonState.from_amplitudes(
        grid, {((ts, fs), (ti, fi)): a for (ts, fs, ti, fi), a in pairs.items()}
    )


def test_norm_tracking_is_total_probability():
    s = make_state({(0, 0, 0, 0): 0.6, (1, 0, 1, 0): 0.8j})
    assert s.probability() == pytest.approx(1.0)
    assert s.amplitude(TimeFreqMode(1, 0), TimeFreqMode(1, 0)) == 0.8j


def test_bin_pair_state_is_a_read_only_square_matrix():
    state = modes.JointTwoPhotonState([[1.0, 0.0], [0.0, 0.0]], 1.0)
    assert state.amplitudes.dtype == complex
    with pytest.raises(ValueError):
        state.amplitudes[0, 1] = 1.0


def test_state_json_keys_amplitudes_by_bin_position():
    """Positions are the tree's, as floats, on or off the 100 ps grid."""
    tree = LevelTree(Level("T", 150.0, 1.0), Level("t", 50.0, 1.0))
    amps = np.zeros((4, 4), dtype=complex)
    amps[0, 0], amps[3, 1] = 0.6, 0.8j
    doc = modes.state_to_json(modes.JointTwoPhotonState(amps, 0.5), tree)
    assert doc == {
        "amplitudes": [
            {"signal_ps": 0.0, "idler_ps": 0.0, "re": 0.6, "im": 0.0},
            {"signal_ps": 200.0, "idler_ps": 50.0, "re": 0.0, "im": 0.8},
        ],
        "norm_tracking": 0.5,
    }
    assert all(type(e["signal_ps"]) is float for e in doc["amplitudes"])


def test_t_steps_rejects_off_grid_and_overflow():
    assert ModeGrid().t_steps(300.0) == 3
    with pytest.raises(ValueError):
        ModeGrid().t_steps(150.0)
    with pytest.raises(ValueError):
        ModeGrid(time_quantum_ps=5e-324).t_steps(100.0)


def test_normalize_and_zero_state():
    s = make_state({(0, 0, 0, 0): 0.1, (1, 0, 1, 0): 0.1j})
    n = normalize(s)
    assert n.probability() == pytest.approx(1.0, abs=1e-14)
    # relative phase preserved
    a = n.amplitude(TimeFreqMode(0, 0), TimeFreqMode(0, 0))
    b = n.amplitude(TimeFreqMode(1, 0), TimeFreqMode(1, 0))
    assert b / a == pytest.approx(1j)
    with pytest.raises(ZeroState):
        normalize(JointTwoPhotonState(ModeGrid(), {}, 0.0))


def test_single_photon_map_targets_correct_photon():
    s = make_state({(0, 0, 5, 0): 1.0})
    shifted = apply_single_photon_map(
        s, SIGNAL, lambda m: [(TimeFreqMode(m.t_index + 1, m.f_index), 1.0)]
    )
    assert shifted.amplitude(TimeFreqMode(1, 0), TimeFreqMode(5, 0)) == 1.0
    shifted = apply_single_photon_map(
        s, IDLER, lambda m: [(TimeFreqMode(m.t_index + 1, m.f_index), 1.0)]
    )
    assert shifted.amplitude(TimeFreqMode(0, 0), TimeFreqMode(6, 0)) == 1.0


def test_non_contractive_map_rejected():
    s = make_state({(0, 0, 0, 0): 1.0})
    with pytest.raises(NonContractive):
        apply_single_photon_map(s, SIGNAL, lambda m: [(m, 1.2)])


def test_lossy_map_shrinks_norm():
    s = make_state({(0, 0, 0, 0): 1.0})
    out = apply_single_photon_map(s, SIGNAL, lambda m: [(m, 0.5)])
    assert out.probability() == pytest.approx(0.25)


def test_projection_probability_and_inner_product():
    s = make_state({(0, 0, 0, 0): 0.6, (1, 0, 1, 0): 0.8})
    assert projection_probability(
        s, TimeFreqMode(0, 0), TimeFreqMode(0, 0)
    ) == pytest.approx(0.36)
    t = make_state({(0, 0, 0, 0): 1.0})
    assert inner_product(t, s) == pytest.approx(0.6)
    assert inner_product(s, t) == pytest.approx(np.conj(inner_product(t, s)))


def test_json_round_trip():
    s = make_state({(0, 0, 0, 0): 0.5, (3, 0, 4, 0): -0.5 + 0.25j})
    r = state_from_json(state_to_json(s), s.grid)
    assert r.grid == s.grid
    assert r.amplitudes == s.amplitudes
    assert r.norm_tracking == pytest.approx(s.norm_tracking)
    # the JSON form keys bins by time alone, so it refuses a frequency shift
    with pytest.raises(ValueError, match="off frequency index 0"):
        state_to_json(make_state({(3, 1, 3, -2): 1.0}))


amp = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=1.0, allow_nan=False, allow_infinity=False
)
mode_idx = st.integers(min_value=-4, max_value=4)


@st.composite
def sparse_states(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = {}
    for _ in range(n):
        key = (draw(mode_idx), draw(mode_idx), draw(mode_idx), draw(mode_idx))
        pairs[key] = draw(amp)
    return make_state(pairs)


@given(sparse_states(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_contractive_maps_never_grow_probability(state, scale):
    out = apply_single_photon_map(
        state, SIGNAL, lambda m: [(TimeFreqMode(m.t_index + 1, m.f_index), scale)]
    )
    assert out.probability() <= state.probability() + 1e-9


@given(sparse_states())
@settings(max_examples=60, deadline=None)
def test_normalize_is_idempotent(state):
    n1 = normalize(state)
    n2 = normalize(n1)
    assert n2.probability() == pytest.approx(1.0, abs=1e-12)
    for key, val in n1.amplitudes.items():
        assert n2.amplitudes[key] == pytest.approx(val, abs=1e-12)
