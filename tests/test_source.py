"""Cluster-state generation from the phase-programmed excitation train."""

import numpy as np
import pytest

from clustersim.source import (
    ExcitationTrain,
    generate_pair_state,
    ideal_cluster_state,
    is_cluster_state,
    shg_phases,
)


def test_shg_doubles_phases():
    train = ExcitationTrain(phases_rad=(0.0, 0.3, np.pi / 2, np.pi))
    assert shg_phases(train) == pytest.approx((0.0, 0.6, np.pi, 0.0))


def test_shg_phases_of_extreme_pump_phases_stay_finite():
    """Reducing before doubling keeps 2 phi mod 2 pi finite, and exact on [0, 2 pi)."""
    inside = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 4)
    train = ExcitationTrain(phases_rad=tuple(inside))
    assert shg_phases(train) == tuple(float(np.mod(2.0 * p, 2.0 * np.pi)) for p in inside)
    extreme = shg_phases(ExcitationTrain(phases_rad=(1e308, -1e308, 5e-324, -np.pi / 2)))
    assert all(0.0 <= p < 2.0 * np.pi for p in extreme)
    assert extreme[3] == pytest.approx(np.pi)


def test_ideal_amplitudes():
    state = ideal_cluster_state()
    assert state.amplitudes.shape == (4, 4)
    amps = np.diag(state.amplitudes)
    np.testing.assert_allclose(amps, [0.5, 0.5, 0.5, -0.5], atol=1e-12)
    assert state.norm_tracking == pytest.approx(1.0, abs=1e-12)
    # only diagonal bin pairs are populated
    assert np.count_nonzero(state.amplitudes) == 4


def test_is_cluster_state_accepts_ideal():
    ok, fidelity = is_cluster_state(ideal_cluster_state())
    assert ok and fidelity == pytest.approx(1.0, abs=1e-12)


def test_zero_phases_give_quarter_fidelity():
    """All-zero phases produce |++| overlap 1/4 with the cluster state."""
    train = ExcitationTrain(phases_rad=(0.0, 0.0, 0.0, 0.0))
    state = generate_pair_state(train)
    ok, fidelity = is_cluster_state(state)
    assert not ok
    assert fidelity == pytest.approx(0.25, abs=1e-12)


def test_orthogonal_phase_pattern():
    """Doubling (0, 0, pi/2, 0) flips only the third amplitude: orthogonal."""
    train = ExcitationTrain(phases_rad=(0.0, 0.0, np.pi / 2, 0.0))
    state = generate_pair_state(train)
    _, fidelity = is_cluster_state(state)
    assert fidelity == pytest.approx(0.0, abs=1e-12)


def test_global_phase_invariance():
    train = ExcitationTrain(phases_rad=(0.4, 0.4, 0.4, 0.4 + np.pi / 2))
    _, fidelity = is_cluster_state(generate_pair_state(train))
    assert fidelity == pytest.approx(1.0, abs=1e-12)


def test_train_validation():
    for bad in ({"pulse_fwhm_ps": 0.0}, {"pulse_fwhm_ps": -1.0}):
        with pytest.raises(ValueError):
            ExcitationTrain(**bad)
