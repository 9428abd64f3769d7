"""The bin-pair product path versus the sparse mode-dict oracle."""

import json

import numpy as np
import pytest

import sparse_oracle as so
from clustersim import channel, detection
from clustersim.cpm import BeamSplitterSetting, CpmSettings
from clustersim.modes import state_to_json
from clustersim.source import ExcitationTrain, generate_pair_state
from oracles import joint_probabilities

LINK = channel.FiberLink()
PENALTIES = ({}, {"T": 0.9, "t": 0.8})
RANDOM_PHASES = tuple(np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, 4))


def _states(name, layout, grid):
    """(product state, oracle state) built independently by each path."""
    phases = {"random": RANDOM_PHASES, "zero": (0.0,) * 4}.get(name)
    train = ExcitationTrain() if phases is None else ExcitationTrain(phases_rad=phases)
    dense = generate_pair_state(train)
    sparse = so.generate_pair_state(train, layout, grid)
    if name == "transmitted":
        dense = channel.transmit(dense, LINK)
        sparse = so.transmit(sparse, LINK.retained_fraction)
    return dense, sparse


def _readout_settings(levels):
    """The 9 joint schedule settings and the 24 fringe phases."""
    settings = [(p.signal_setting, p.idler_setting)
                for p in detection.build_default_schedule(levels)]
    for alpha in np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False):
        xy = BeamSplitterSetting("XY", levels.levels[0].name, float(alpha))
        settings.append((xy, xy))
    return settings


@pytest.mark.parametrize("name", ["cluster", "transmitted", "random", "zero"])
def test_state_json_matches_oracle_serializer(layout, grid, name):
    """Byte-equal as write_json serializes it, so -0.0 and 0.0 or 1 and 1.0 differ."""
    dense, sparse = _states(name, layout, grid)
    text = json.dumps(state_to_json(dense, layout), sort_keys=True, indent=2)
    assert text == so.state_to_json(sparse)


@pytest.mark.parametrize("penalty", PENALTIES, ids=["no-penalty", "penalty"])
@pytest.mark.parametrize("name", ["cluster", "transmitted", "random"])
def test_joint_probabilities_match_sparse_oracle(levels, layout, grid, name, penalty):
    dense, sparse = _states(name, layout, grid)
    for ss, si in _readout_settings(levels):
        product = joint_probabilities(dense, ss, si, levels, CpmSettings(), penalty)
        oracle = so.joint_outcome_probabilities(
            sparse, ss, si, levels, CpmSettings(), layout, penalty
        )
        np.testing.assert_allclose(product, oracle, rtol=0, atol=1e-15)
        # outcomes the oracle forbids stay exactly 0, not cancellation residue
        np.testing.assert_array_equal(product == 0, oracle == 0)
