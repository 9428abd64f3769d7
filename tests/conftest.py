import numpy as np
import pytest

from clustersim.cpm import CpmSettings
from clustersim.detection import DetectorModel, build_default_schedule
from clustersim.encoding import DEFAULT_TREE
from clustersim.source import ideal_cluster_state
from oracles import ModeGrid


@pytest.fixture(scope="session")
def tree():
    return DEFAULT_TREE


@pytest.fixture(scope="session")
def grid():
    return ModeGrid()


@pytest.fixture(scope="session")
def cluster():
    return ideal_cluster_state()


@pytest.fixture(scope="session")
def schedule(tree):
    return build_default_schedule(tree)


@pytest.fixture(scope="session")
def noiseless_detector():
    return DetectorModel(jitter_signal_ps=0.0, jitter_idler_ps=0.0, tdc_jitter_ps=0.0)


@pytest.fixture(scope="session")
def base_cpm():
    return CpmSettings()
