"""Segment schedule, exact outcome matrices, jitter and sampling."""

import numpy as np
import pytest
from numpy.random import SeedSequence

from clustersim import detection
from clustersim.analysis import scan_phases
from clustersim.channel import FiberLink, transmit
from clustersim.cpm import BeamSplitterSetting
from clustersim.detection import (
    FRINGE_PROJECTIONS,
    DetectorModel,
    JointTemporalIntensity,
    WITNESS_BASES,
    build_default_schedule,
    expected_counts,
    extract_projections,
    fringe_means,
    jitter_matrices,
    jitter_transition_matrix,
    joint_outcome_probabilities,
    raw_basis_counts,
    sample_coincidences,
)
from clustersim.encoding import Level, LevelSpec
from clustersim.errors import MissingBasis
from oracles import ModeGrid, extend_levels, loop_basis_counts, per_setting_sample_coincidences


def test_schedule_structure(schedule, levels):
    assert len(schedule) == 9
    # every (signal setting, idler setting) combination appears exactly once
    combos = {(p.signal_setting, p.idler_setting) for p in schedule}
    assert len(combos) == 9
    for p in schedule:
        assert p.signal_segment % 2 == 0
        assert p.idler_segment == (p.signal_segment + 5) % 18
    # the nine pairings fill the 18 segments of the frame once each
    segments = [s for p in schedule for s in (p.signal_segment, p.idler_segment)]
    assert sorted(segments) == list(range(18))
    # each photon sees each of the three settings three times
    for settings in ([p.signal_setting for p in schedule],
                     [p.idler_setting for p in schedule]):
        assert len(set(settings)) == 3
        assert all(settings.count(s) == 3 for s in set(settings))
    # matched settings read a witness basis: X on the outer level reads the
    # outer qubits (T_s, T_i), X on the inner level the inner ones (t_s, t_i)
    outer = levels.levels[0].name
    for p in schedule:
        s, i = p.signal_setting, p.idler_setting
        if s != i:
            assert p.basis is None
        elif s.kind == "Z":
            assert p.basis == "ZZZZ"
        else:
            assert p.basis == ("XXZZ" if s.level == outer else "ZZXX")
    assert sorted(p.basis for p in schedule if p.basis) == sorted(WITNESS_BASES)


def test_schedule_needs_two_levels(levels, cluster, noiseless_detector, base_cpm):
    """The readout unpacks (outer, inner), so another depth fails loudly."""
    three = extend_levels(levels, Level("tau", 900.0, 0.4166666667), ModeGrid())
    one = LevelSpec(levels.levels[:1])
    for spec in (three, one):
        with pytest.raises(ValueError, match="values to unpack"):
            build_default_schedule(spec)
        with pytest.raises(ValueError, match="values to unpack"):
            fringe_means(cluster, noiseless_detector, 1, spec, 8, base_cpm, {})


def test_zzzz_probabilities_are_quarter_diagonal(cluster, levels, schedule, base_cpm):
    zz = next(
        p for p in schedule
        if p.signal_setting.kind == "Z" and p.idler_setting.kind == "Z"
    )
    probs = joint_outcome_probabilities(
        cluster, zz.signal_setting, zz.idler_setting, levels, base_cpm, {}
    )
    np.testing.assert_allclose(probs, np.diag([0.25] * 4), atol=1e-12)


def test_xxzz_has_four_quarter_outcomes(cluster, levels, schedule, base_cpm):
    xx = next(
        p for p in schedule
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
        p for p in schedule
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
    zz = schedule[0]
    fractions = []
    for j in (5.0, 17.0, 30.0):
        det = DetectorModel(jitter_signal_ps=j, jitter_idler_ps=j, tdc_jitter_ps=18.0)
        mean, _ = expected_counts(
            cluster, zz, det, 10**6, levels, base_cpm, jitter_matrices(det, layout), {}
        )
        off = mean.sum() - np.trace(mean)
        fractions.append(off / mean.sum())
    assert fractions == sorted(fractions)
    assert fractions[1] == pytest.approx(0.043, abs=0.01)


def test_sampling_is_deterministic(cluster, schedule, noiseless_detector, levels, base_cpm):
    def sample(seed):
        return sample_coincidences(
            cluster, schedule, noiseless_detector, 500, {}, SeedSequence(seed), levels,
            base_cpm, False,
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
        cluster, schedule, noiseless_detector, 1000, {}, SeedSequence(0), levels, base_cpm, True
    )
    for h, pairing in zip(hists, schedule):
        mean, _ = expected_counts(
            cluster, pairing, noiseless_detector, 1000, levels, base_cpm,
            jitter_matrices(noiseless_detector, layout), {},
        )
        np.testing.assert_allclose(h.counts, mean, atol=1e-9)


def test_projections_normalized_and_loss_invariant(
    cluster, schedule, noiseless_detector, levels, base_cpm
):
    hists = sample_coincidences(
        cluster, schedule, noiseless_detector, 1, {}, SeedSequence(0), levels, base_cpm, True
    )
    proj = extract_projections(raw_basis_counts(hists))
    assert set(proj) == set(WITNESS_BASES)
    for values in proj.values():
        assert values.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(values >= 0)
    lossy = DetectorModel(
        jitter_signal_ps=0.0, jitter_idler_ps=0.0, tdc_jitter_ps=0.0,
        efficiency=0.2,
    )
    hists2 = sample_coincidences(
        cluster, schedule, lossy, 1, {}, SeedSequence(0), levels, base_cpm, True
    )
    proj2 = extract_projections(raw_basis_counts(hists2))
    for basis in WITNESS_BASES:
        np.testing.assert_allclose(proj2[basis], proj[basis], atol=1e-12)


def test_raw_counts_conserve_totals(cluster, schedule, noiseless_detector, levels, base_cpm):
    hists = sample_coincidences(
        cluster, schedule, noiseless_detector, 300, {}, SeedSequence(3), levels, base_cpm, False
    )
    raw = raw_basis_counts(hists)
    # each basis total equals the originating histogram's total counts
    for h in hists:
        kinds = (h.pairing.signal_setting.kind, h.pairing.idler_setting.kind)
        if kinds == ("Z", "Z"):
            assert raw["ZZZZ"].sum() == h.counts.sum()


@pytest.mark.parametrize("seed", range(5))
def test_outcome_fold_matches_loop_oracle(schedule, levels, layout, seed):
    rng = np.random.default_rng(seed)
    hists = [
        JointTemporalIntensity(p, rng.uniform(0.0, 1e3, (4, 4)))
        for p in schedule
    ]
    raw = raw_basis_counts(hists)
    folded = {}
    for h in hists:
        basis = h.pairing.basis
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
        cluster, schedule, noiseless_detector, 100, {}, SeedSequence(0), levels, base_cpm, True
    )
    emptied = [
        JointTemporalIntensity(h.pairing, 0.0 * h.counts) if h.pairing.basis == "XXZZ" else h
        for h in hists
    ]
    with pytest.raises(MissingBasis, match="basis XXZZ has no counts"):
        extract_projections(raw_basis_counts(emptied))


def test_detector_validation():
    with pytest.raises(ValueError):
        DetectorModel(jitter_signal_ps=-1.0)
    with pytest.raises(ValueError):
        DetectorModel(dark_coincidence_rate=1.0)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=0.0)
    with pytest.raises(ValueError):
        DetectorModel(coincidence_window_ps=0.0)


DETECTORS = [
    pytest.param(DetectorModel(), id="default"),
    pytest.param(DetectorModel(jitter_signal_ps=0.0, jitter_idler_ps=0.0, tdc_jitter_ps=0.0,
                               dark_coincidence_rate=0.0667), id="paper-default"),
    pytest.param(DetectorModel(jitter_signal_ps=40.0, jitter_idler_ps=5.0, tdc_jitter_ps=0.0,
                               coincidence_window_ps=30.0, efficiency=0.7), id="asymmetric"),
]


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("detector", DETECTORS)
def test_shared_jitter_matches_per_setting_oracle(
    cluster, schedule, levels, base_cpm, detector, seed, exact
):
    """Histograms and ancillary counts keep their bits when the matrices are built once."""
    state = transmit(cluster, FiberLink())
    def run(sampler):
        # a fresh SeedSequence each time: spawning advances its child counter
        return sampler(state, schedule, detector, 1000, {"T": 0.9}, SeedSequence(seed),
                       levels, base_cpm, exact)

    new, old = run(sample_coincidences), run(per_setting_sample_coincidences)
    for h_new, h_old in zip(new, old, strict=True):
        assert h_new.pairing == h_old.pairing
        np.testing.assert_array_equal(h_new.counts.view(np.uint64), h_old.counts.view(np.uint64))
        assert np.float64(h_new.ancillary).view(np.uint64) == np.float64(h_old.ancillary).view(np.uint64)


def test_jitter_matrices_built_once_per_readout(
    monkeypatch, cluster, schedule, levels, base_cpm
):
    calls = []

    def counted(*args):
        calls.append(args[0])
        return jitter_transition_matrix(*args)

    monkeypatch.setattr(detection, "jitter_transition_matrix", counted)
    detector = DetectorModel(jitter_signal_ps=30.0)
    sample_coincidences(cluster, schedule, detector, 10, {}, SeedSequence(0), levels,
                        base_cpm, True)
    assert calls == [detector.photon_sigma_ps("signal"), detector.photon_sigma_ps("idler")]
