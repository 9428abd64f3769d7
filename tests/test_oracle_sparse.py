"""The bin-pair product path versus the sparse mode-dict oracle."""

import json

import numpy as np
import pytest

import sparse_oracle as so
from clustersim import channel, detection
from clustersim.cpm import BeamSplitterSetting, CpmSettings
from clustersim.modes import state_to_json
from clustersim.source import ExcitationTrain, generate_pair_state
from oracles import joint_probabilities, tree_levels

LINK = channel.FiberLink()
PENALTIES = ({}, {"T": 0.9, "t": 0.8})
RANDOM_PHASES = tuple(np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, 4))


def _states(name, positions, grid):
    """(product state, oracle state) built independently by each path."""
    phases = {"random": RANDOM_PHASES, "zero": (0.0,) * 4}.get(name)
    train = ExcitationTrain() if phases is None else ExcitationTrain(phases_rad=phases)
    dense = generate_pair_state(train)
    sparse = so.generate_pair_state(train, positions, grid)
    if name == "transmitted":
        dense = channel.transmit(dense, LINK)
        sparse = so.transmit(sparse, LINK.retained_fraction)
    return dense, sparse


def _readout_settings(tree):
    """The 9 joint schedule settings and the 24 fringe phases."""
    settings = [(p.signal_setting, p.idler_setting)
                for p in detection.build_default_schedule(tree)]
    for alpha in np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False):
        x = BeamSplitterSetting("X", tree.outer.name, float(alpha))
        settings.append((x, x))
    return settings


@pytest.mark.parametrize("name", ["cluster", "transmitted", "random", "zero"])
def test_state_json_matches_oracle_serializer(tree, grid, name):
    """Byte-equal as write_json serializes it, so -0.0 and 0.0 or 1 and 1.0 differ."""
    dense, sparse = _states(name, tree.positions_ps, grid)
    text = json.dumps(state_to_json(dense, tree), sort_keys=True, indent=2)
    assert text == so.state_to_json(sparse)


@pytest.mark.parametrize("penalty", PENALTIES, ids=["no-penalty", "penalty"])
@pytest.mark.parametrize("name", ["cluster", "transmitted", "random"])
def test_joint_probabilities_match_sparse_oracle(tree, grid, name, penalty):
    dense, sparse = _states(name, tree.positions_ps, grid)
    for ss, si in _readout_settings(tree):
        product = joint_probabilities(dense, ss, si, tree, CpmSettings(), penalty)
        oracle = so.joint_outcome_probabilities(
            sparse, ss, si, tree_levels(tree), CpmSettings(), tree.positions_ps, penalty
        )
        np.testing.assert_allclose(product, oracle, rtol=0, atol=1e-15)
        # outcomes the oracle forbids stay exactly 0, not cancellation residue
        np.testing.assert_array_equal(product == 0, oracle == 0)
