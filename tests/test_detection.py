"""Segment schedule, exact outcome matrices, jitter and sampling."""

import numpy as np
import pytest

from clustersim.analysis import scan_phases
from clustersim.cpm import BeamSplitterSetting
from clustersim.detection import (
    FRINGE_PROJECTIONS,
    DetectorModel,
    JointTemporalIntensity,
    WITNESS_BASES,
    _basis_of_pairing,
    build_default_schedule,
    expected_counts,
    extract_projections,
    fringe_means,
    jitter_transition_matrix,
    joint_outcome_probabilities,
    raw_basis_counts,
    sample_coincidences,
)
from clustersim.encoding import Level
from clustersim.errors import MissingBasis, UnsupportedLevels
from clustersim.modes import ModeGrid
from oracles import extend_levels, loop_basis_counts


def test_schedule_structure(schedule, levels):
    assert len(schedule.pairing) == 9
    assert len(schedule.entries) == 18
    # every (signal setting, idler setting) combination appears exactly once
    combos = {(p.signal_setting, p.idler_setting) for p in schedule.pairing}
    assert len(combos) == 9
    for p in schedule.pairing:
        assert p.signal_segment % 2 == 0
        assert p.idler_segment == (p.signal_segment + 5) % 18
    # each photon sees each of the three settings three times
    for photon in ("signal", "idler"):
        settings = [e.setting for e in schedule.entries if e.photon == photon]
        assert len(settings) == 9
        assert all(settings.count(s) == 3 for s in set(settings))


def test_schedule_needs_two_levels():
    three = extend_levels(
        __import__("clustersim.encoding", fromlist=["default_levels"]).default_levels(),
        Level("tau", 900.0, 0.4166666667),
        ModeGrid(),
    )
    with pytest.raises(UnsupportedLevels):
        build_default_schedule(three)


def test_zzzz_probabilities_are_quarter_diagonal(cluster, levels, schedule, base_cpm):
    zz = next(
        p for p in schedule.pairing
        if p.signal_setting.kind == "Z" and p.idler_setting.kind == "Z"
    )
    probs = joint_outcome_probabilities(
        cluster, zz.signal_setting, zz.idler_setting, levels, base_cpm, {}
    )
    np.testing.assert_allclose(probs, np.diag([0.25] * 4), atol=1e-12)


def test_xxzz_has_four_quarter_outcomes(cluster, levels, schedule, base_cpm):
    xx = next(
        p for p in schedule.pairing
        if p.signal_setting.kind == "X" == p.idler_setting.kind
        and p.signal_setting.level == levels.levels[0].name == p.idler_setting.level
    )
    probs = joint_outcome_probabilities(
        cluster, xx.signal_setting, xx.idler_setting, levels, base_cpm, {}
    )
    from clustersim.bessel import solve_balanced_depth
    from oracles import efficiency

    eta = efficiency(solve_balanced_depth())
    normalized = probs / probs.sum()
    assert probs.sum() == pytest.approx(eta**2, abs=1e-12)
    nonzero = np.sort(normalized[normalized > 1e-12])
    np.testing.assert_allclose(nonzero, [0.25] * 4, atol=1e-12)


def test_visibility_penalty_reduces_cross_terms(cluster, levels, schedule, base_cpm):
    xx = next(
        p for p in schedule.pairing
        if p.signal_setting.kind == "X" == p.idler_setting.kind
        and p.signal_setting.level == p.idler_setting.level == levels.levels[1].name
    )
    clean = joint_outcome_probabilities(
        cluster, xx.signal_setting, xx.idler_setting, levels, base_cpm, {}
    )
    penalized = joint_outcome_probabilities(
        cluster, xx.signal_setting, xx.idler_setting, levels, base_cpm,
        visibility_penalty={levels.levels[1].name: 0.9},
    )
    # total detected probability is preserved; contrast is compressed
    assert penalized.sum() == pytest.approx(clean.sum(), abs=1e-12)
    assert penalized.max() < clean.max()
    # forbidden cross-block outcomes stay dark
    assert clean[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert penalized[0, 2] == pytest.approx(0.0, abs=1e-12)
    # the joint fringe within a block has exactly the requested visibility
    a, b = penalized[0, 0], penalized[0, 1]
    assert (a - b) / (a + b) == pytest.approx(0.9, abs=1e-12)


def test_jitter_matrix_rows_bounded(layout):
    k = jitter_transition_matrix(24.8, layout, 50.0)
    assert np.all(k >= 0)
    assert np.all(k.sum(axis=1) <= 1.0 + 1e-12)
    # diagonal dominance: most mass stays in the emitted bin
    assert np.all(np.diag(k) > 0.9)
    # one-sided leakage into the 100 ps neighbor is the ~2% erf tail
    assert 0.01 < k[0, 1] < 0.035
    np.testing.assert_array_equal(
        jitter_transition_matrix(0.0, layout, 50.0), np.eye(4)
    )


def test_crosstalk_monotone_in_jitter(cluster, levels, schedule, layout, base_cpm):
    zz = schedule.pairing[0]
    fractions = []
    for j in (5.0, 17.0, 30.0):
        det = DetectorModel(jitter_signal_ps=j, jitter_idler_ps=j, tdc_jitter_ps=18.0)
        mean, _ = expected_counts(cluster, zz, det, 10**6, levels, base_cpm, layout, {})
        off = mean.sum() - np.trace(mean)
        fractions.append(off / mean.sum())
    assert fractions == sorted(fractions)
    assert fractions[1] == pytest.approx(0.043, abs=0.01)


def test_sampling_is_deterministic(cluster, schedule, noiseless_detector, levels, base_cpm):
    def sample(seed):
        return sample_coincidences(
            cluster, schedule, noiseless_detector, 500, {}, seed, levels, base_cpm, False
        )

    a = sample(7)
    b = sample(7)
    for ha, hb in zip(a, b):
        np.testing.assert_array_equal(ha.counts, hb.counts)
    c = sample(8)
    assert any(
        not np.array_equal(ha.counts, hc.counts) for ha, hc in zip(a, c)
    )


def test_exact_sampling_matches_means(
    cluster, schedule, noiseless_detector, levels, layout, base_cpm
):
    hists = sample_coincidences(
        cluster, schedule, noiseless_detector, 1000, {}, 0, levels, base_cpm, True
    )
    for h, pairing in zip(hists, schedule.pairing):
        mean, _ = expected_counts(
            cluster, pairing, noiseless_detector, 1000, levels, base_cpm, layout, {}
        )
        np.testing.assert_allclose(h.counts, mean, atol=1e-9)


def test_projections_normalized_and_loss_invariant(
    cluster, schedule, noiseless_detector, levels, base_cpm
):
    hists = sample_coincidences(
        cluster, schedule, noiseless_detector, 1, {}, 0, levels, base_cpm, True
    )
    proj = extract_projections(hists, levels)
    assert set(proj) == set(WITNESS_BASES)
    for values in proj.values():
        assert values.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(values >= 0)
    lossy = DetectorModel(
        jitter_signal_ps=0.0, jitter_idler_ps=0.0, tdc_jitter_ps=0.0,
        efficiency=0.2,
    )
    hists2 = sample_coincidences(cluster, schedule, lossy, 1, {}, 0, levels, base_cpm, True)
    proj2 = extract_projections(hists2, levels)
    for basis in WITNESS_BASES:
        np.testing.assert_allclose(proj2[basis], proj[basis], atol=1e-12)


def test_raw_counts_conserve_totals(cluster, schedule, noiseless_detector, levels, base_cpm):
    hists = sample_coincidences(
        cluster, schedule, noiseless_detector, 300, {}, 3, levels, base_cpm, False
    )
    raw = raw_basis_counts(hists, levels)
    by_name = {h.name: h for h in hists}
    # each basis total equals the originating histogram's total counts
    for h in hists:
        kinds = (h.signal_setting.kind, h.idler_setting.kind)
        if kinds == ("Z", "Z"):
            assert raw["ZZZZ"].sum() == h.counts.sum()


@pytest.mark.parametrize("seed", range(5))
def test_outcome_fold_matches_loop_oracle(schedule, levels, layout, seed):
    rng = np.random.default_rng(seed)
    hists = [
        JointTemporalIntensity(
            p.name, p.signal_setting, p.idler_setting, rng.uniform(0.0, 1e3, (4, 4))
        )
        for p in schedule.pairing
    ]
    raw = raw_basis_counts(hists, levels)
    folded = {}
    for h in hists:
        basis = _basis_of_pairing(h.signal_setting, h.idler_setting, levels)
        if basis is not None:
            folded[basis] = loop_basis_counts(h.counts, basis, layout)
    assert sorted(folded) == sorted(WITNESS_BASES)
    for basis in WITNESS_BASES:
        np.testing.assert_array_equal(raw[basis], folded[basis])


def test_fringe_means_match_per_phase_mixing(cluster, levels, base_cpm):
    detector = DetectorModel(dark_coincidence_rate=0.0667, efficiency=0.8)
    penalty = {"T": 0.95, "t": 0.99}
    means = fringe_means(cluster, detector, 1000, levels, 12, base_cpm, penalty)
    assert means.shape == (12, len(FRINGE_PROJECTIONS))
    for row, alpha in zip(means, scan_phases(12)):
        setting = BeamSplitterSetting("XY", levels.levels[0].name, float(alpha))
        probs = joint_outcome_probabilities(
            cluster, setting, setting, levels, base_cpm, penalty
        )
        mixed = (1.0 - 0.0667) * probs + 0.0667 * probs.sum() / 16
        for value, (_name, ports, bits, _sign) in zip(row, FRINGE_PROJECTIONS):
            cell = mixed[2 * ports[0] + bits[0], 2 * ports[1] + bits[1]]
            assert value == pytest.approx(1000 * 0.8 * cell, rel=1e-14)


def test_missing_basis_detected(cluster, schedule, noiseless_detector, levels, base_cpm):
    hists = sample_coincidences(
        cluster, schedule, noiseless_detector, 100, {}, 0, levels, base_cpm, True
    )
    only_zz = [
        h for h in hists
        if (h.signal_setting.kind, h.idler_setting.kind) == ("Z", "Z")
    ]
    with pytest.raises(MissingBasis):
        extract_projections(only_zz, levels)


def test_detector_validation():
    with pytest.raises(ValueError):
        DetectorModel(jitter_signal_ps=-1.0)
    with pytest.raises(ValueError):
        DetectorModel(dark_coincidence_rate=1.0)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=0.0)
    with pytest.raises(ValueError):
        DetectorModel(coincidence_window_ps=0.0)
