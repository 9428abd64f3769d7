"""Segment schedule, exact outcome matrices, jitter and sampling."""

import json

import numpy as np
import pytest
from numpy.random import SeedSequence

from clustersim import cli, cpm, detection
from clustersim.analysis import WITNESS_BASES, scan_phases
from clustersim.channel import FiberLink, transmit
from clustersim.cpm import BeamSplitterSetting
from clustersim.detection import (
    FRINGE_PROJECTIONS,
    DetectorModel,
    build_default_schedule,
    fringe_means,
    jitter_transition_matrix,
    sample_coincidences,
)
from clustersim.errors import GridMismatch
from oracles import (
    joint_probabilities,
    per_phase_fringe_means,
    per_setting_expected_counts,
    per_setting_sample_coincidences,
    readout,
)


def test_schedule_structure(schedule, tree):
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
    outer = tree.outer.name
    for p in schedule:
        s, i = p.signal_setting, p.idler_setting
        if s != i:
            assert p.basis is None
        elif s.kind == "Z":
            assert p.basis == "ZZZZ"
        else:
            assert p.basis == ("XXZZ" if s.level == outer else "ZZXX")
    assert sorted(p.basis for p in schedule if p.basis) == sorted(WITNESS_BASES)


def test_first_grid_mismatch_follows_schedule_order(tmp_path):
    """The load check reads the levels in schedule order, so the inner level is refused first."""
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({
        "encoding": {"levels": [["T", 600.0, 3.75], ["t", 200.0, 1.25]]},
        "detection": {"visibility_penalty": {"T": 0.9, "t": 0.9}},
    }))
    with pytest.raises(GridMismatch, match="^level t: "):
        cli.load_config(str(config), None, None, None)


def test_exact_mode_spawns_no_streams(cluster, schedule, tree, base_cpm):
    """Exact counts draw nothing, so seed spawns no child; sampling spawns one per pairing."""
    ctx = readout(cluster, DetectorModel(), 1000, tree, base_cpm, {})
    for exact, children in ((True, 0), (False, len(schedule))):
        seed = SeedSequence(0)
        sample_coincidences(ctx, schedule, seed, exact)
        assert seed.n_children_spawned == children


def test_zzzz_probabilities_are_quarter_diagonal(cluster, tree, schedule, base_cpm):
    zz = next(
        p for p in schedule
        if p.signal_setting.kind == "Z" and p.idler_setting.kind == "Z"
    )
    probs = joint_probabilities(
        cluster, zz.signal_setting, zz.idler_setting, tree, base_cpm, {}
    )
    np.testing.assert_allclose(probs, np.diag([0.25] * 4), atol=1e-12)


def test_xxzz_has_four_quarter_outcomes(cluster, tree, schedule, base_cpm):
    xx = next(
        p for p in schedule
        if p.signal_setting.kind == "X" == p.idler_setting.kind
        and p.signal_setting.level == tree.outer.name == p.idler_setting.level
    )
    probs = joint_probabilities(
        cluster, xx.signal_setting, xx.idler_setting, tree, base_cpm, {}
    )
    from clustersim.bessel import solve_balanced_depth
    from oracles import efficiency

    eta = efficiency(solve_balanced_depth())
    normalized = probs / probs.sum()
    assert probs.sum() == pytest.approx(eta**2, abs=1e-12)
    nonzero = np.sort(normalized[normalized > 1e-12])
    np.testing.assert_allclose(nonzero, [0.25] * 4, atol=1e-12)


def test_visibility_penalty_reduces_cross_terms(cluster, tree, schedule, base_cpm):
    xx = next(
        p for p in schedule
        if p.signal_setting.kind == "X" == p.idler_setting.kind
        and p.signal_setting.level == p.idler_setting.level == tree.inner.name
    )
    clean = joint_probabilities(
        cluster, xx.signal_setting, xx.idler_setting, tree, base_cpm, {}
    )
    penalized = joint_probabilities(
        cluster, xx.signal_setting, xx.idler_setting, tree, base_cpm,
        {tree.inner.name: 0.9},
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


def test_jitter_matrix_rows_bounded(tree):
    k = jitter_transition_matrix(24.8, tree, 50.0)
    assert np.all(k >= 0)
    assert np.all(k.sum(axis=1) <= 1.0 + 1e-12)
    # diagonal dominance: most mass stays in the emitted bin
    assert np.all(np.diag(k) > 0.9)
    # one-sided leakage into the 100 ps neighbor is the ~2% erf tail
    assert 0.01 < k[0, 1] < 0.035
    np.testing.assert_array_equal(
        jitter_transition_matrix(0.0, tree, 50.0), np.eye(4)
    )


def test_crosstalk_monotone_in_jitter(cluster, tree, schedule, base_cpm):
    zz = schedule[0]
    fractions = []
    for j in (5.0, 17.0, 30.0):
        det = DetectorModel(jitter_signal_ps=j, jitter_idler_ps=j, tdc_jitter_ps=18.0)
        [hist] = sample_coincidences(
            readout(cluster, det, 10**6, tree, base_cpm, {}), (zz,), SeedSequence(0), True
        )
        mean = hist.counts
        off = mean.sum() - np.trace(mean)
        fractions.append(off / mean.sum())
    assert fractions == sorted(fractions)
    assert fractions[1] == pytest.approx(0.043, abs=0.01)


def test_sampling_is_deterministic(cluster, schedule, noiseless_detector, tree, base_cpm):
    def sample(seed):
        return sample_coincidences(
            readout(cluster, noiseless_detector, 500, tree, base_cpm, {}), schedule,
            SeedSequence(seed), False,
        )

    a = sample(7)
    b = sample(7)
    for ha, hb in zip(a, b):
        np.testing.assert_array_equal(ha.counts, hb.counts)
    c = sample(8)
    assert any(
        not np.array_equal(ha.counts, hc.counts) for ha, hc in zip(a, c)
    )


def test_exact_sampling_matches_means(cluster, schedule, noiseless_detector, tree, base_cpm):
    hists = sample_coincidences(
        readout(cluster, noiseless_detector, 1000, tree, base_cpm, {}), schedule,
        SeedSequence(0), True,
    )
    for h, pairing in zip(hists, schedule):
        mean, _ = per_setting_expected_counts(
            cluster, pairing, noiseless_detector, 1000, tree, base_cpm, {}
        )
        np.testing.assert_allclose(h.counts, mean, atol=1e-9)


def test_fringe_means_match_per_phase_mixing(cluster, tree, base_cpm):
    detector = DetectorModel(dark_coincidence_rate=0.0667, efficiency=0.8)
    penalty = {"T": 0.95, "t": 0.99}
    means = fringe_means(readout(cluster, detector, 1000, tree, base_cpm, penalty), 12)
    assert means.shape == (12, len(FRINGE_PROJECTIONS))
    for row, alpha in zip(means, scan_phases(12)):
        setting = BeamSplitterSetting("X", tree.outer.name, float(alpha))
        probs = joint_probabilities(cluster, setting, setting, tree, base_cpm, penalty)
        mixed = (1.0 - 0.0667) * probs + 0.0667 * probs.sum() / 16
        for value, (_name, ports, bits, _sign) in zip(row, FRINGE_PROJECTIONS):
            cell = mixed[2 * ports[0] + bits[0], 2 * ports[1] + bits[1]]
            assert value == pytest.approx(1000 * 0.8 * cell, rel=1e-14)


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


#: Visibility penalties of no level, one level and both tree.
PENALTIES = ({}, {"T": 0.9}, {"T": 0.8, "t": 0.9})


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("detector", DETECTORS)
def test_shared_jitter_matches_per_setting_oracle(
    cluster, schedule, tree, base_cpm, detector, seed, exact
):
    """Histograms and ancillary counts keep their bits when maps and matrices are built once."""
    state = transmit(cluster, FiberLink())
    for penalty in PENALTIES:
        # a fresh SeedSequence each time: spawning advances its child counter
        new = sample_coincidences(readout(state, detector, 1000, tree, base_cpm, penalty),
                                  schedule, SeedSequence(seed), exact)
        old = per_setting_sample_coincidences(state, schedule, detector, 1000, penalty,
                                              SeedSequence(seed), tree, base_cpm, exact)
        for h_new, h_old in zip(new, old, strict=True):
            assert h_new.pairing == h_old.pairing
            np.testing.assert_array_equal(_bits(h_new.counts), _bits(h_old.counts))
            assert _bits(h_new.ancillary) == _bits(h_old.ancillary)


@pytest.mark.parametrize("penalty", PENALTIES, ids=["no-penalty", "T", "T-t"])
def test_fringe_means_match_per_phase_oracle(cluster, tree, base_cpm, penalty):
    """One map set per phase for both photons, through identity jitter, keeps every bit."""
    state = transmit(cluster, FiberLink())
    detector = DetectorModel(dark_coincidence_rate=0.0667, efficiency=0.7)
    new = fringe_means(readout(state, detector, 2473, tree, base_cpm, penalty), 24)
    old = per_phase_fringe_means(state, detector, 2473, tree, 24, base_cpm, penalty)
    np.testing.assert_array_equal(_bits(new), _bits(old))


@pytest.mark.parametrize("penalty", [{}, {"T": 0.8, "t": 0.9}], ids=["no-penalty", "T-t"])
@pytest.mark.parametrize("detector", DETECTORS)
def test_exact_counts_conserve_retained_pairs(cluster, schedule, tree, base_cpm, detector,
                                              penalty):
    """Every retained pair is a coincidence (signal or background) or an ancillary count."""
    state = transmit(cluster, FiberLink())
    hists = sample_coincidences(readout(state, detector, 1000, tree, base_cpm, penalty),
                                schedule, SeedSequence(0), True)
    retained = 1000 * detector.efficiency * state.norm_tracking
    for h in hists:
        assert h.counts.sum() + h.ancillary == pytest.approx(retained, rel=1e-12, abs=0)


#: (argv, visibility penalty, measurement_map calls): one call per branch of
#: each distinct setting; the two-level penalty gives each X setting two.
MAP_CALLS = [
    (["measure", "--exact"], {}, 3),
    (["measure"], {}, 3),
    (["witness", "--exact"], {}, 3),
    (["fringe"], {}, 24),
    (["measure"], {"T": 0.8, "t": 0.9}, 5),
    (["fringe"], {"T": 0.8, "t": 0.9}, 48),
]


def test_jitter_matrices_built_once_per_readout(monkeypatch, tmp_path):
    """Each readout builds both jitter matrices once, and each branch map once."""
    sigmas, maps = [], []

    def counted_jitter(*args):
        sigmas.append(args[0])
        return jitter_transition_matrix(*args)

    def counted_map(*args):
        maps.append(args[0])
        return cpm.measurement_map(*args)

    monkeypatch.setattr(detection, "jitter_transition_matrix", counted_jitter)
    monkeypatch.setattr(detection, "measurement_map", counted_map)
    detector = DetectorModel(jitter_signal_ps=30.0)
    for k, (argv, penalty, map_calls) in enumerate(MAP_CALLS):
        config = tmp_path / f"{k}.json"
        config.write_text(json.dumps(
            {"detection": {"jitter_signal_ps": 30.0, "visibility_penalty": penalty}}
        ))
        sigmas.clear()
        maps.clear()
        assert cli.main([*argv, "--config", str(config), "--out", str(tmp_path / str(k))]) == 0
        assert sigmas == [detector.photon_sigma_ps("signal"), detector.photon_sigma_ps("idler")]
        assert len(maps) == map_calls, argv
