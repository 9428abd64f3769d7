"""Link loss, thermal drift and the stabilization loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence, default_rng

from clustersim import channel
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
from clustersim.cli import stream
from oracles import readout, sample_stabilize, step_ou_accumulate


def assert_same_bits(a, b):
    """Equal arrays, bit for bit: nan matches nan and -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def test_loss_budget():
    link = FiberLink()
    assert link.total_loss_db == pytest.approx(7.7)
    assert link.retained_fraction == pytest.approx(0.1698, abs=2e-4)


def test_transmit_scales_norm_only(cluster):
    link = FiberLink()
    out = transmit(cluster, link)
    assert out.norm_tracking == pytest.approx(link.retained_fraction, rel=1e-12)
    nonzero = cluster.amplitudes != 0
    np.testing.assert_array_equal(out.amplitudes != 0, nonzero)
    ratio = out.amplitudes[nonzero] / cluster.amplitudes[nonzero]
    np.testing.assert_allclose(ratio, np.sqrt(link.retained_fraction), rtol=1e-12)


def test_zero_length_link_is_identity(cluster):
    link = FiberLink(length_km=0.0, loss_db=0.0, compensator_loss_db=0.0)
    out = transmit(cluster, link)
    np.testing.assert_array_equal(out.amplitudes, cluster.amplitudes)


def test_witness_invariant_under_loss(cluster, schedule, noiseless_detector, levels):
    from clustersim.analysis import witness
    from clustersim.cpm import CpmSettings
    from clustersim.detection import (
        extract_projections,
        raw_basis_counts,
        sample_coincidences,
    )

    lossy = transmit(cluster, FiberLink())
    reports = []
    for state in (cluster, lossy):
        hists = sample_coincidences(
            readout(state, noiseless_detector, 1, levels, CpmSettings(), {}), schedule,
            SeedSequence(0), True,
        )
        projections = extract_projections(raw_basis_counts(hists))
        reports.append(witness(projections, None).witness)
    assert reports[0] == pytest.approx(reports[1], abs=1e-12)


def test_drift_is_deterministic():
    link = FiberLink()
    a = simulate_drift(link, 3600.0, ThermalModel(), default_rng(5))
    b = simulate_drift(link, 3600.0, ThermalModel(), default_rng(5))
    np.testing.assert_array_equal(a.offsets_ps, b.offsets_ps)
    c = simulate_drift(link, 3600.0, ThermalModel(), default_rng(6))
    assert not np.array_equal(a.offsets_ps, c.offsets_ps)


def test_zero_temperature_gives_zero_trace():
    trace = simulate_drift(FiberLink(), 3600.0, ThermalModel(sigma_k=0.0), default_rng(0))
    assert np.all(trace.offsets_ps == 0.0)


def test_doubling_length_doubles_offsets():
    short = simulate_drift(FiberLink(length_km=25.0), 7200.0, ThermalModel(), default_rng(2))
    long = simulate_drift(FiberLink(length_km=50.0), 7200.0, ThermalModel(), default_rng(2))
    np.testing.assert_allclose(long.offsets_ps, 2.0 * short.offsets_ps, rtol=1e-12)


def test_peak_offset_matches_thermal_budget():
    """36.8 ps/(K km) x 25 km x 0.1 K = 92 ps peak excursion."""
    trace = simulate_drift(FiberLink(), 86400.0, ThermalModel(), default_rng(0))
    assert trace.peak_ps() == pytest.approx(92.0, abs=1e-9)


def test_ou_decay_one_is_random_walk():
    normals = np.random.default_rng(0).standard_normal(5000)
    walk = ou_accumulate(normals, 1.0, 1.0)
    np.testing.assert_allclose(walk, np.cumsum(normals), atol=1e-12)


def test_stabilize_reduces_rms():
    trace = simulate_drift(FiberLink(), 86400.0, ThermalModel(), default_rng(1))
    residual, rms = stabilize(trace, StabilizerPolicy(), default_rng(2))
    assert rms < trace.rms_ps()
    assert rms <= 3.0
    assert len(residual.offsets_ps) == len(trace.offsets_ps)


def test_zero_drift_zero_residual():
    trace = DriftTrace(60.0, np.zeros(120))
    residual, rms = stabilize(
        trace, StabilizerPolicy(estimator_noise_ps=0.0), default_rng(0)
    )
    assert rms == 0.0


def test_stabilize_perfect_feedback_zeroes_epochs():
    offsets = np.full(30, 7.0)
    trace = DriftTrace(1.0, offsets)
    residual, _ = stabilize(trace, StabilizerPolicy(10, 0, 0), default_rng(0))
    # before the first correction the drift passes through untouched
    np.testing.assert_array_equal(residual.offsets_ps[:10], offsets[:10])
    np.testing.assert_allclose(residual.offsets_ps[10:], 0.0, atol=1e-12)


def test_infinite_interval_is_noop():
    trace = simulate_drift(FiberLink(), 7200.0, ThermalModel(), default_rng(3))
    residual, rms = stabilize(
        trace, StabilizerPolicy(correction_interval_s=1e9), default_rng(0)
    )
    np.testing.assert_array_equal(residual.offsets_ps, trace.offsets_ps)
    assert rms == pytest.approx(trace.rms_ps())


def test_single_sample_trace_is_noop():
    trace = simulate_drift(FiberLink(), 1.0, ThermalModel(), default_rng(3))
    assert len(trace.times_s) == 1
    residual, rms = stabilize(trace, StabilizerPolicy(), default_rng(0))
    assert residual is trace and rms == trace.rms_ps()


def test_subnormal_resolution_leaves_estimates_unquantized():
    trace = simulate_drift(FiberLink(), 43200.0, ThermalModel(), default_rng(3))
    fine, _ = stabilize(trace, StabilizerPolicy(900.0, 0.5, 5e-324), default_rng(1))
    exact, _ = stabilize(trace, StabilizerPolicy(900.0, 0.5, 0.0), default_rng(1))
    np.testing.assert_array_equal(fine.offsets_ps, exact.offsets_ps)


def test_subsample_interval_rejected():
    trace = simulate_drift(FiberLink(), 7200.0, ThermalModel(), default_rng(3))
    with pytest.raises(ValueError, match="correction interval shorter than the trace step"):
        stabilize(trace, StabilizerPolicy(correction_interval_s=1.0), default_rng(0))


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=25, deadline=None)
def test_stabilized_rms_never_worse(seed):
    drift_rng = default_rng(stream(seed, "drift"))
    trace = simulate_drift(FiberLink(), 43200.0, ThermalModel(), drift_rng)
    policy = StabilizerPolicy(estimator_noise_ps=0.5)
    _, rms = stabilize(trace, policy, default_rng(stream(seed, "stabilizer")))
    assert rms <= trace.rms_ps() + 1e-9


def test_bin_corruption_flag(layout):
    assert not bin_assignment_corrupted(30.0, layout)
    assert bin_assignment_corrupted(60.0, layout)


def test_trace_validation():
    with pytest.raises(ValueError, match="duration must be positive"):
        simulate_drift(FiberLink(), -1.0, ThermalModel(), default_rng(0))
    with pytest.raises(ValueError, match="duration must be positive"):
        simulate_drift(FiberLink(), 86400.0, ThermalModel(step_s=5e-324), default_rng(0))
    with pytest.raises(ValueError):
        ThermalModel(smoothing_passes=-1)
    with pytest.raises(ValueError):
        ThermalModel(peak_k=-5.0)
    assert ThermalModel(peak_k=None).peak_k is None


# ----------------------------------------------------------------------
# the float loops against the element-at-a-time oracles, bit for bit

@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("decay,innovation", [
    (np.exp(-60.0 / 14400.0), 0.033 * np.sqrt(1.0 - np.exp(-120.0 / 14400.0))),
    (np.exp(-60.0 / 7200.0), 1.0 - np.exp(-60.0 / 7200.0)),
    (1.0, 1.0),
    (0.0, 5e-324),
])
def test_ou_accumulate_matches_step_oracle(seed, decay, innovation):
    normals = default_rng(seed).standard_normal(1441)
    assert_same_bits(ou_accumulate(normals, decay, innovation),
                     step_ou_accumulate(normals, decay, innovation))


def test_ou_accumulate_overflows_silently_like_the_oracle():
    """Overflow to inf, then inf - inf = nan, and no RuntimeWarning (an error under pytest)."""
    normals = np.array([1e308, 1e308, 1.0, -1e308, -1e308, -1e308, 0.0, -0.0])
    for decay, innovation in ((1.0, 10.0), (0.5, 1e10), (1.0, -0.0)):
        new = ou_accumulate(normals, decay, innovation)
        with np.errstate(over="ignore", invalid="ignore"):
            old = step_ou_accumulate(normals, decay, innovation)
        assert_same_bits(new, old)
    path = ou_accumulate(normals, 1.0, 10.0)
    assert np.isinf(path[0]) and np.isnan(path[-1])


def test_ou_accumulate_empty_and_list_input():
    assert_same_bits(ou_accumulate([], 0.5, 1.0), np.empty(0))
    assert_same_bits(ou_accumulate([1.0, -2.0, 3.5], 0.5, 0.25),
                     step_ou_accumulate(np.array([1.0, -2.0, 3.5]), 0.5, 0.25))


@pytest.mark.parametrize("seed", range(4))
def test_drift_trace_matches_step_oracle(monkeypatch, seed):
    """The whole trace, three passes and the peak rescale, keeps its bits."""
    model = ThermalModel(smoothing_passes=3, peak_k=None)
    new = simulate_drift(FiberLink(), 86400.0, model, default_rng(stream(seed, "drift")))
    monkeypatch.setattr(channel, "ou_accumulate", step_ou_accumulate)
    old = simulate_drift(FiberLink(), 86400.0, model, default_rng(stream(seed, "drift")))
    assert_same_bits(new.offsets_ps, old.offsets_ps)


def _drift_trace(seed, duration_s=86400.0):
    return simulate_drift(FiberLink(), duration_s, ThermalModel(), default_rng(seed))


STABILIZER_CASES = [
    pytest.param(86400.0, StabilizerPolicy(), id="default"),
    pytest.param(86400.0, StabilizerPolicy(420.0, 0.5, 0.1), id="period-not-dividing-n"),
    pytest.param(86400.0, StabilizerPolicy(60.0, 2.0, 0.3), id="period-one-step"),
    pytest.param(86400.0, StabilizerPolicy(900.0, 0.5, 5e-324), id="subnormal-resolution"),
    pytest.param(86400.0, StabilizerPolicy(900.0, 0.5, 0.0), id="no-quantization"),
    pytest.param(86400.0, StabilizerPolicy(900.0, 3.0, 1), id="integer-resolution"),
    pytest.param(86400.0, StabilizerPolicy(900.0, 0.0, 0.1), id="noiseless"),
    pytest.param(7200.0, StabilizerPolicy(7200.0, 0.5, 0.1), id="period-equals-span"),
    pytest.param(7200.0, StabilizerPolicy(7260.0, 0.5, 0.1), id="period-at-least-n"),
    pytest.param(10.0, StabilizerPolicy(), id="one-sample"),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("duration_s,policy", STABILIZER_CASES)
def test_stabilize_matches_sample_loop_oracle(seed, duration_s, policy):
    trace = _drift_trace(seed, duration_s)
    new, new_rms = stabilize(trace, policy, default_rng(seed + 100))
    old, old_rms = sample_stabilize(trace, policy, default_rng(seed + 100))
    assert_same_bits(new.offsets_ps, old.offsets_ps)
    assert_same_bits(new_rms, old_rms)
    assert new.step_s == old.step_s


def test_stabilize_rounds_ties_like_the_oracle():
    """Estimates on exact half steps round half to even, as numpy's round does."""
    trace = DriftTrace(1.0, [0.0, 2.5, -3.5, 0.5, -0.5, 1.5, 4.5, -2.5, 7.5, -0.25])
    for resolution in (1.0, 0.5):
        policy = StabilizerPolicy(1.0, 0.0, resolution)
        new, _ = stabilize(trace, policy, default_rng(0))
        old, _ = sample_stabilize(trace, policy, default_rng(0))
        assert_same_bits(new.offsets_ps, old.offsets_ps)
