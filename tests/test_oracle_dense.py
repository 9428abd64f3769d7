"""Sparse-state operations and the bin-pair product path versus a dense reference.

The reference works on the 4-bin x 9-frequency subspace (36 single-photon
modes, 1296 joint amplitudes): joint states are dense vectors, a
single-photon map is (A x I) or (I x A) with A[target, source] built by
evaluating the sparse mode map on every basis mode.  The product path
holds only the frequency-0 block of that subspace.
"""

import numpy as np
import pytest

from clustersim import cpm, detection, modes
from clustersim.cpm import BeamSplitterSetting, CpmSettings
from clustersim.detection import IDLER, SIGNAL
from clustersim.encoding import DEFAULT_TREE
from oracles import ModeGrid, joint_probabilities, tree_levels
from sparse_oracle import (
    JointTwoPhotonState,
    TimeFreqMode,
    apply_single_photon_map,
    inner_product,
    joint_outcome_probabilities,
    measurement_map,
    normalize,
)

T_STEPS = (0, 1, 3, 4)
F_STEPS = tuple(range(-4, 5))
MODES = [TimeFreqMode(t, f) for t in T_STEPS for f in F_STEPS]
INDEX = {m: k for k, m in enumerate(MODES)}
N = len(MODES)


def dense_from_state(state):
    v = np.zeros((N, N), dtype=complex)
    for (s, i), a in state.amplitudes.items():
        v[INDEX[s], INDEX[i]] = a
    return v


def state_from_dense(v, grid):
    amps = {
        (MODES[r], MODES[c]): v[r, c]
        for r in range(N)
        for c in range(N)
        if abs(v[r, c]) > 0
    }
    return JointTwoPhotonState.from_amplitudes(grid, amps)


def dense_matrix_from_mode_map(mode_map):
    a = np.zeros((N, N), dtype=complex)
    for src in MODES:
        for dst, w in mode_map(src):
            dst = TimeFreqMode(*dst)
            if dst in INDEX:  # off-subspace targets are dropped amplitude
                a[INDEX[dst], INDEX[src]] += w
    return a


def random_contractive_map(rng):
    a = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    a *= rng.random((N, N)) < 0.1  # sparse structure
    col = np.sqrt(np.sum(np.abs(a) ** 2, axis=0))
    a /= np.maximum(col, 1.0)[None, :] * 1.0000001

    def mode_map(mode):
        src = INDEX[mode]
        rows = np.nonzero(a[:, src])[0]
        return [(MODES[r], a[r, src]) for r in rows]

    return mode_map, a


def random_state(rng, grid):
    v = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    v *= rng.random((N, N)) < 0.05
    if not np.any(v):
        v[0, 0] = 1.0
    v /= np.linalg.norm(v)
    return state_from_dense(v, grid), v


@pytest.mark.parametrize("case", range(100))
def test_random_maps_match_dense(case):
    rng = np.random.default_rng(1000 + case)
    grid = ModeGrid()
    state, v = random_state(rng, grid)

    photon = SIGNAL if rng.random() < 0.5 else IDLER
    mode_map, a = random_contractive_map(rng)
    out = apply_single_photon_map(state, photon, mode_map)
    ref = a @ v if photon == SIGNAL else v @ a.T
    np.testing.assert_allclose(dense_from_state(out), ref, atol=1e-10)
    assert out.probability() == pytest.approx(np.sum(np.abs(ref) ** 2), abs=1e-10)

    if out.probability() > 1e-6:
        n = normalize(out)
        np.testing.assert_allclose(
            dense_from_state(n), ref / np.linalg.norm(ref), atol=1e-10
        )

    other, w = random_state(rng, grid)
    assert inner_product(other, state) == pytest.approx(
        np.vdot(w, v), abs=1e-10
    )


MAP_CASES = {
    "Z-t": ("Z", "t", 0.9),
    "X-t": ("X", "t", 0.0),
    "X-T": ("X", "T", 0.0),
    # X rotated by alpha (the XY plane).
    "XY-t": ("X", "t", 0.9),
    "XY-T": ("X", "T", 0.9),
}


@pytest.mark.parametrize("kind,level,alpha", list(MAP_CASES.values()), ids=list(MAP_CASES))
def test_measurement_maps_match_dense(kind, level, alpha):
    rng = np.random.default_rng(7)
    levels, positions = tree_levels(DEFAULT_TREE), DEFAULT_TREE.positions_ps
    grid = ModeGrid()
    state, v = random_state(rng, grid)
    setting = BeamSplitterSetting(kind, level, alpha)
    pm = measurement_map(setting, levels, CpmSettings(), grid, positions)
    out = apply_single_photon_map(state, SIGNAL, pm.mode_map)
    a = dense_matrix_from_mode_map(pm.mode_map)
    np.testing.assert_allclose(dense_from_state(out), a @ v, atol=1e-10)


def test_joint_probabilities_match_dense():
    levels, positions = tree_levels(DEFAULT_TREE), DEFAULT_TREE.positions_ps
    grid = ModeGrid()
    rng = np.random.default_rng(11)
    state, v = random_state(rng, grid)
    ss = BeamSplitterSetting("X", "T", 0.4)
    si = BeamSplitterSetting("X", "t")
    probs = joint_outcome_probabilities(state, ss, si, levels, CpmSettings(), positions, {})
    a_s = dense_matrix_from_mode_map(
        measurement_map(ss, levels, CpmSettings(), grid, positions).mode_map
    )
    a_i = dense_matrix_from_mode_map(
        measurement_map(si, levels, CpmSettings(), grid, positions).mode_map
    )
    ref_amp = a_s @ v @ a_i.T
    steps_of_bin = [0, 1, 3, 4]
    ref = np.zeros((4, 4))
    for bs, ts in enumerate(steps_of_bin):
        for bi, ti in enumerate(steps_of_bin):
            rows = [INDEX[TimeFreqMode(ts, f)] for f in F_STEPS]
            cols = [INDEX[TimeFreqMode(ti, f)] for f in F_STEPS]
            ref[bs, bi] = np.sum(np.abs(ref_amp[np.ix_(rows, cols)]) ** 2)
    np.testing.assert_allclose(probs, ref, atol=1e-10)


F0 = [INDEX[TimeFreqMode(t, 0)] for t in T_STEPS]


def random_setting(rng):
    kind = ("Z", "X")[rng.integers(2)]
    return BeamSplitterSetting(kind, ("T", "t")[rng.integers(2)], rng.uniform(0, 7))


@pytest.mark.parametrize("case", range(100))
def test_product_path_matches_dense(case):
    """Bin-pair matrices and joint probabilities on the frequency-0 block."""
    rng = np.random.default_rng(2000 + case)
    levels, positions = tree_levels(DEFAULT_TREE), DEFAULT_TREE.positions_ps
    grid = ModeGrid()
    psi = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    psi /= np.linalg.norm(psi)
    state = modes.JointTwoPhotonState(psi, 1.0)
    block = np.zeros((N, N), dtype=complex)
    block[np.ix_(F0, F0)] = psi
    ss, si = random_setting(rng), random_setting(rng)
    penalty = {"T": rng.uniform(), "t": rng.uniform()} if rng.random() < 0.5 else {}

    for setting in (ss, si):
        a = dense_matrix_from_mode_map(
            measurement_map(setting, levels, CpmSettings(), grid, positions).mode_map
        )
        product = cpm.measurement_map(setting, DEFAULT_TREE, 0.0)
        np.testing.assert_allclose(product, a[np.ix_(F0, F0)], atol=1e-10)

    probs = joint_probabilities(state, ss, si, DEFAULT_TREE, CpmSettings(), penalty)
    ref = np.zeros((4, 4))
    for ws, offs in detection._penalty_branches(ss, penalty):
        for wi, offi in detection._penalty_branches(si, penalty):
            a_s = dense_matrix_from_mode_map(
                measurement_map(ss, levels, CpmSettings(), grid, positions, offs).mode_map
            )
            a_i = dense_matrix_from_mode_map(
                measurement_map(si, levels, CpmSettings(), grid, positions, offi).mode_map
            )
            ref += ws * wi * np.abs((a_s @ block @ a_i.T)[np.ix_(F0, F0)]) ** 2
    np.testing.assert_allclose(probs, ref, atol=1e-10)
