"""Link loss, thermal drift and the stabilization loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersim.channel import (
    DriftTrace,
    FiberLink,
    StabilizerPolicy,
    ThermalModel,
    bin_assignment_corrupted,
    ou_accumulate,
    simulate_drift,
    stabilize,
    transmit,
)
from clustersim.errors import OutOfRange


def test_loss_budget():
    link = FiberLink()
    assert link.total_loss_db == pytest.approx(7.7)
    assert link.retained_fraction == pytest.approx(0.1698, abs=2e-4)
    assert link.residual_dispersion_ps_per_nm == pytest.approx(-25.0)


def test_transmit_scales_norm_only(cluster):
    link = FiberLink()
    out, offset = transmit(cluster, link)
    assert offset == 0.0
    assert out.probability() == pytest.approx(link.retained_fraction, rel=1e-12)
    for key, amp in cluster.amplitudes.items():
        ratio = out.amplitudes[key] / amp
        assert ratio == pytest.approx(np.sqrt(link.retained_fraction), rel=1e-12)


def test_zero_length_link_is_identity(cluster):
    link = FiberLink(length_km=0.0, loss_db=0.0, compensator_loss_db=0.0)
    out, offset = transmit(cluster, link)
    assert offset == 0.0
    assert out.amplitudes == cluster.amplitudes


def test_witness_invariant_under_loss(cluster, schedule, noiseless_detector, levels):
    from clustersim.analysis import witness
    from clustersim.detection import extract_projections, sample_coincidences

    lossy, _ = transmit(cluster, FiberLink())
    reports = []
    for state in (cluster, lossy):
        hists = sample_coincidences(
            state, schedule, noiseless_detector, 1, exact=True
        )
        reports.append(witness(extract_projections(hists, schedule)).witness)
    assert reports[0] == pytest.approx(reports[1], abs=1e-12)


def test_drift_is_deterministic():
    link = FiberLink()
    a = simulate_drift(link, 3600.0, seed=5)
    b = simulate_drift(link, 3600.0, seed=5)
    np.testing.assert_array_equal(a.offsets_ps, b.offsets_ps)
    c = simulate_drift(link, 3600.0, seed=6)
    assert not np.array_equal(a.offsets_ps, c.offsets_ps)


def test_zero_temperature_gives_zero_trace():
    trace = simulate_drift(FiberLink(), 3600.0, ThermalModel(sigma_k=0.0), seed=0)
    assert np.all(trace.offsets_ps == 0.0)


def test_doubling_length_doubles_offsets():
    short = simulate_drift(FiberLink(length_km=25.0), 7200.0, seed=2)
    long = simulate_drift(FiberLink(length_km=50.0), 7200.0, seed=2)
    np.testing.assert_allclose(long.offsets_ps, 2.0 * short.offsets_ps, rtol=1e-12)


def test_peak_offset_matches_thermal_budget():
    """36.8 ps/(K km) x 25 km x 0.1 K = 92 ps peak excursion."""
    trace = simulate_drift(FiberLink(), 86400.0, seed=0)
    assert trace.peak_ps() == pytest.approx(92.0, abs=1e-9)


def test_ou_decay_one_is_random_walk():
    normals = np.random.default_rng(0).standard_normal(5000)
    walk = ou_accumulate(normals, 1.0, 1.0)
    np.testing.assert_allclose(walk, np.cumsum(normals), atol=1e-12)


def test_stabilize_reduces_rms():
    trace = simulate_drift(FiberLink(), 86400.0, seed=1)
    residual, rms = stabilize(trace, StabilizerPolicy(), seed=2)
    assert rms < trace.rms_ps()
    assert rms <= 3.0
    assert len(residual.offsets_ps) == len(trace.offsets_ps)


def test_zero_drift_zero_residual():
    trace = DriftTrace(np.arange(0.0, 7200.0, 60.0), np.zeros(120))
    residual, rms = stabilize(
        trace, StabilizerPolicy(estimator_noise_ps=0.0), seed=0
    )
    assert rms == 0.0


def test_stabilize_perfect_feedback_zeroes_epochs():
    offsets = np.full(30, 7.0)
    trace = DriftTrace(np.arange(30.0), offsets)
    residual, _ = stabilize(trace, StabilizerPolicy(10, 0, 0))
    # before the first correction the drift passes through untouched
    np.testing.assert_array_equal(residual.offsets_ps[:10], offsets[:10])
    np.testing.assert_allclose(residual.offsets_ps[10:], 0.0, atol=1e-12)


def test_infinite_interval_is_noop():
    trace = simulate_drift(FiberLink(), 7200.0, seed=3)
    residual, rms = stabilize(
        trace, StabilizerPolicy(correction_interval_s=1e9), seed=0
    )
    np.testing.assert_array_equal(residual.offsets_ps, trace.offsets_ps)
    assert rms == pytest.approx(trace.rms_ps())


def test_subsample_interval_rejected():
    trace = simulate_drift(FiberLink(), 7200.0, seed=3)
    with pytest.raises(OutOfRange):
        stabilize(trace, StabilizerPolicy(correction_interval_s=1.0), seed=0)


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=25, deadline=None)
def test_stabilized_rms_never_worse(seed):
    trace = simulate_drift(FiberLink(), 43200.0, seed=seed)
    policy = StabilizerPolicy(estimator_noise_ps=0.5)
    _, rms = stabilize(trace, policy, seed=seed + 1)
    assert rms <= trace.rms_ps() + 1e-9


def test_bin_corruption_flag():
    assert not bin_assignment_corrupted(30.0)
    assert bin_assignment_corrupted(60.0)


def test_trace_validation():
    with pytest.raises(ValueError):
        DriftTrace(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        DriftTrace(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(OutOfRange):
        simulate_drift(FiberLink(), -1.0)
