"""Continuous-field numerics: chirp pair, pulse copies, visibility bounds."""

import random
import tracemalloc

import numpy as np
import pytest

from clustersim.bessel import solve_balanced_depth
from clustersim.cli import _ENTRIES
from clustersim.cpm import CpmSettings
from clustersim.waveform import (
    MAX_SEPARATION_PS,
    MIN_PULSE_FWHM_PS,
    check_ranges,
    rf_for_spacing,
    visibility_bound,
)
from oracles import (
    ChirpSpec,
    SampledField,
    WindowOverflow,
    add_fields,
    apply_chirp,
    bessel_j,
    bin_intensity,
    copy_peak_position,
    copy_spacing_ps,
    cpm_continuous,
    extract_copy_weights,
    gaussian_pulse,
    phase_modulate,
    spectrogram,
    visibility_copy_sum,
    visibility_fft_chain,
)


def _bound(sep, fwhm, dispersion_ns_per_nm):
    """visibility_bound at one dispersion and the 1550 nm carrier."""
    return float(visibility_bound(sep, fwhm, [dispersion_ns_per_nm], 1550.0)[0])


def test_gaussian_intensity_fwhm():
    f = gaussian_pulse(0.0, 37.0)
    intensity = np.abs(f.samples) ** 2
    above = f.times_ps[intensity >= 0.5 * intensity.max()]
    assert above.max() - above.min() == pytest.approx(37.0, abs=1.0)


def test_chirp_pair_is_exact_inverse():
    f = gaussian_pulse(0.0, 37.0)
    chirp = ChirpSpec(10.0)
    back = apply_chirp(apply_chirp(f, chirp), chirp.negated())
    np.testing.assert_allclose(back.samples, f.samples, atol=1e-12)


def test_energy_conservation():
    f = gaussian_pulse(0.0, 37.0)
    chirp = ChirpSpec(10.0)
    for step in (
        apply_chirp(f, chirp),
        phase_modulate(f, 1.4, 1.25, 0.3),
        cpm_continuous(f, chirp, 1.4, 1.25, 0.3),
    ):
        assert step.energy() == pytest.approx(f.energy(), rel=1e-12)


def test_window_overflow_detected():
    wide = gaussian_pulse(0.0, 37.0, n_samples=2**12)  # 4 ns window
    with pytest.raises(WindowOverflow):
        apply_chirp(wide, ChirpSpec(10.0))


def test_copy_spacing_matches_discrete_shift_law():
    chirp = ChirpSpec(10.0)
    assert copy_spacing_ps(chirp, 1.25) == pytest.approx(100.17, abs=0.05)
    assert copy_spacing_ps(chirp, 3.75) == pytest.approx(300.52, abs=0.15)
    assert rf_for_spacing(chirp.beta2_ps2, 100.0) == pytest.approx(1.25, rel=0.01)


def test_copy_positions_and_powers():
    g_star = solve_balanced_depth()
    chirp = ChirpSpec(10.0)
    f = gaussian_pulse(0.0, 37.0)
    out = cpm_continuous(f, chirp, g_star, 1.25, 0.0)
    spacing = copy_spacing_ps(chirp, 1.25)
    for m in (-1, 0, 1):
        peak = copy_peak_position(out, m * spacing, 45.0)
        assert peak == pytest.approx(m * spacing, abs=2.0)
        power = bin_intensity(out, m * spacing, 45.0) / f.energy()
        assert power == pytest.approx(bessel_j(m, g_star) ** 2, abs=0.01)


@pytest.mark.parametrize("dispersion", [10.0, 100.0])
def test_copy_weights_converge_to_discrete_coefficients(dispersion):
    """Joint projection recovers J_m(g) e^{-i m alpha} to < 1%."""
    g, alpha = 1.2, 0.7
    chirp = ChirpSpec(dispersion)
    f = gaussian_pulse(0.0, 37.0)
    out = cpm_continuous(f, chirp, g, 1.25, alpha)
    weights = extract_copy_weights(out, f, chirp, 1.25, 3)
    for m in (-2, -1, 0, 1, 2):
        target = bessel_j(m, g) * np.exp(-1j * m * alpha)
        assert abs(weights[m] - target) < 0.01 * abs(target)


def test_spectrogram_blobs_on_diagonal():
    """Copies of the 3.75 GHz tone sit on a time-frequency diagonal.

    At 50 ns/nm the 3.75 GHz copies are 1.5 ns apart, so a 400 ps window
    resolves the copy spacing and the frequency steps at the same time
    (the spacing-bandwidth product is far above the Gabor limit there).
    """
    g_star = solve_balanced_depth()
    chirp = ChirpSpec(50.0)
    f = gaussian_pulse(0.0, 37.0)
    out = cpm_continuous(f, chirp, g_star, 3.75, 0.0)
    times, freqs, power = spectrogram(
        out, window_fwhm_ps=400.0, time_step_ps=100.0, time_range_ps=(-3500, 3500)
    )
    spacing = copy_spacing_ps(chirp, 3.75)
    for m in (-2, -1, 0, 1, 2):
        column = power[np.argmin(np.abs(times - m * spacing))]
        # the copy's center frequency tracks its time shift: m * 3.75 GHz
        assert freqs[np.argmax(column)] == pytest.approx(m * 3.75, abs=0.5)


def test_transform_limited_spectrogram_single_blob():
    f = gaussian_pulse(0.0, 37.0)
    times, freqs, power = spectrogram(f, time_step_ps=10.0)
    t_idx, f_idx = np.unravel_index(np.argmax(power), power.shape)
    assert abs(times[t_idx]) < 10.0
    assert abs(freqs[f_idx]) < 0.5


@pytest.mark.parametrize("sep,dispersion,fwhm,n_alpha,n_samples", [
    (100.0, 2.0, 37.0, 16, 2**16),
    (100.0, 150.0, 37.0, 8, 2**18),
    (300.0, 2.0, 37.0, 8, 2**16),
    (300.0, 10.0, 37.0, 16, 2**16),
    (100.0, -10.0, 37.0, 8, 2**16),
    (100.0, 2.0, 5000.0, 32, 2**16),
])
def test_visibility_closed_form_matches_fft_chain(sep, dispersion, fwhm, n_alpha, n_samples):
    """The copy sum equals the sampled chain; 2**16 points hold |D| <= 10 ns/nm.

    The chain's fringe fit is exact once its scan resolves every harmonic
    the copies make (|k| <= 24, so 26 phases), or once the higher ones
    vanish, as they do for 37 ps pulses.
    """
    reference = visibility_fft_chain(sep, fwhm, ChirpSpec(dispersion), n_alpha, n_samples)
    vis = _bound(sep, fwhm, dispersion)
    assert abs(vis - reference) <= 1e-12


def test_visibility_closed_form_matches_fft_chain_off_carrier():
    reference = visibility_fft_chain(300.0, 37.0, ChirpSpec(10.0, 1310.0), 16, 2**16)
    assert abs(visibility_bound(300.0, 37.0, [10.0], 1310.0)[0] - reference) <= 1e-12


#: The paper's dispersion grid, which the visibility-grid benchmark jitters.
PAPER_DISPERSIONS = (2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0)


def _jittered(seed):
    """The paper grid with each dispersion moved by up to 3 %, kept to 4 decimals."""
    rng = random.Random(seed)
    return [round(d * (1.0 + rng.uniform(-0.03, 0.03)), 4) for d in PAPER_DISPERSIONS]


@pytest.mark.parametrize("sep,dispersions,carrier", [
    *((sep, _jittered(seed), 1550.0) for sep in (100.0, 300.0) for seed in range(4)),
    (100.0, [-d for d in PAPER_DISPERSIONS], 1550.0),
    (300.0, [-d for d in _jittered(7)], 1550.0),
    (100.0, [10.0, -10.0, 2.0, -150.0, 50.0, -5.0], 1550.0),
    (300.0, [5.0, 5.0, -5.0, 150.0, 5.0, 150.0], 1550.0),
    (100.0, [10.0], 1550.0),
    (300.0, [-20.0], 1550.0),
    (300.0, list(PAPER_DISPERSIONS), 1310.0),
    (100.0, [10.0, -2.0, 10.0], 1310.0),
    (1.0, [2.0, -10.0], 1550.0),
    (7.3, [0.05, 0.5, -2.0], 1550.0),
    (3000.0, [-150.0, *np.linspace(2.0, 150.0, 29)], 1550.0),  # two time chunks
])
def test_visibility_matches_per_dispersion_copy_sum(sep, dispersions, carrier):
    """One call per separation equals the copy sum run at each dispersion alone."""
    vis = visibility_bound(sep, 37.0, dispersions, carrier)
    reference = [
        visibility_copy_sum(sep, 37.0, CpmSettings(float(d), carrier)) for d in dispersions
    ]
    assert vis.shape == (len(dispersions),)
    np.testing.assert_allclose(vis, reference, rtol=0.0, atol=1e-14)


def test_visibility_window_is_bounded():
    """Separations from 2**17 ps on are refused; the largest one runs in < 64 MB.

    That holds with the longest dispersion list a config takes too, where
    one (dispersion, time) carrier array over the whole window would take
    about 210 MB.
    """
    with pytest.raises(ValueError):
        check_ranges([MAX_SEPARATION_PS], [10.0], 1550.0)
    sep = np.nextafter(MAX_SEPARATION_PS, 0.0)
    longest = _ENTRIES["waveform.dispersions_ns_per_nm"][1]
    for dispersions in ([10.0], np.linspace(2.0, 150.0, longest)):
        tracemalloc.start()
        try:
            vis = visibility_bound(sep, 37.0, dispersions, 1550.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vis.shape == (len(dispersions),)
        assert peak < 64 * 2**20
        # copies 10.3 (at 10 ns/nm) or 0.69 rad/ps (at 150) apart do not interfere
        assert 0.0 <= vis[-1] < 1e-9
    for k in (0, 4, longest - 1):
        reference = visibility_copy_sum(sep, 37.0, CpmSettings(dispersions[k]))
        assert abs(vis[k] - reference) <= 1e-14


@pytest.mark.parametrize("dispersion", [1e-300, -1e-300, 1e305])
def test_visibility_rejects_out_of_range_dispersion(dispersion):
    """Copy phases that overflow, or an RF tone that rounds to 0, are refused."""
    with pytest.raises(ValueError):
        check_ranges([300.0], [dispersion], 1550.0)


@pytest.mark.parametrize("sep,fwhm", [(0.0, 37.0), (-100.0, 37.0)])
def test_visibility_rejects_degenerate_inputs(sep, fwhm):
    with pytest.raises(ValueError):
        check_ranges([sep], [10.0], 1550.0)


def test_visibility_pulse_width_floor():
    vis = _bound(100.0, MIN_PULSE_FWHM_PS, 10.0)
    assert 0.0 < vis <= 1.0


def test_chirp_rejects_vanishing_dispersion():
    for dispersion in (0.0, 5e-324, 1.7e308):  # beta2 of 1.7e308 ns/nm overflows
        with pytest.raises(ValueError):
            ChirpSpec(dispersion)
        with pytest.raises(ValueError, match="dispersion must be nonzero and finite"):
            check_ranges([100.0], [dispersion], 1550.0)


def test_visibility_100ps_value():
    vis = _bound(100.0, 37.0, 10.0)
    assert vis == pytest.approx(0.99, abs=0.01)


def test_visibility_monotone_in_dispersion():
    scans = {}
    for sep in (100.0, 300.0):
        values = visibility_bound(sep, 37.0, [2.0, 5.0, 20.0, 150.0], 1550.0).tolist()
        assert values == sorted(values)
        scans[sep] = values
    # In the walk-off-dominated regime the t-scale curve sits above the
    # T-scale curve.  (At very large dispersion both walk-offs vanish and
    # the 100 ps curve saturates lower from pulse-tail crowding instead.)
    assert all(a >= b for a, b in zip(scans[100.0][:3], scans[300.0][:3]))


def test_add_fields_requires_shared_grid():
    a = gaussian_pulse(0.0, 37.0)
    b = SampledField(a.samples.copy(), a.dt_ps, a.t0_ps + 1.0, 0.0)
    with pytest.raises(ValueError):
        add_fields(a, b)
