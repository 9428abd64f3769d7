"""Continuous-field numerics for chirped pulse modulation.

Models the chirp -> sinusoidal phase modulation -> inverse chirp chain on
sampled complex envelopes, including the spectral walk-off between
temporally overlapping pulse copies that bounds the attainable two-bin
interference visibility at finite dispersion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bessel import solve_balanced_depth
from .cpm import chirp_beta2_s2
from .errors import InconsistentSettings, WindowOverflow


@dataclass(frozen=True)
class ChirpSpec:
    """Signed grating dispersion (ns/nm) at the telecom carrier."""

    dispersion_ns_per_nm: float
    carrier_wavelength_nm: float = 1550.0

    def __post_init__(self):
        if self.dispersion_ns_per_nm == 0:
            raise ValueError("dispersion must be nonzero")

    @property
    def beta2_ps2(self) -> float:
        beta2_s2 = chirp_beta2_s2(self.dispersion_ns_per_nm, self.carrier_wavelength_nm)
        return beta2_s2 * 1e24

    def negated(self) -> "ChirpSpec":
        return replace(self, dispersion_ns_per_nm=-self.dispersion_ns_per_nm)


@dataclass(frozen=True)
class SampledField:
    """Complex envelope on a uniform time grid.

    carrier_offset_ghz is the optical carrier relative to the band center;
    it matters for the group delay a chirp imparts (e.g. the 48 ns
    signal/idler separation for a 600 GHz offset at 10 ns/nm).
    """

    samples: np.ndarray
    dt_ps: float = 1.0
    t0_ps: float = 0.0
    carrier_offset_ghz: float = 0.0

    def __post_init__(self):
        n = len(self.samples)
        if n & (n - 1):
            raise ValueError("sample count must be a power of two")

    @property
    def times_ps(self) -> np.ndarray:
        return self.t0_ps + self.dt_ps * np.arange(len(self.samples))

    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.dt_ps)


def gaussian_pulse(
    center_ps: float,
    fwhm_ps: float = 37.0,
    n_samples: int = 2**18,
    dt_ps: float = 1.0,
    amplitude: complex = 1.0 + 0j,
    carrier_offset_ghz: float = 0.0,
) -> SampledField:
    """Gaussian amplitude pulse; fwhm_ps is the intensity FWHM."""
    t0 = -0.5 * n_samples * dt_ps
    t = t0 + dt_ps * np.arange(n_samples)
    env = np.exp(-2.0 * np.log(2.0) * ((t - center_ps) / fwhm_ps) ** 2)
    return SampledField(amplitude * env.astype(complex), dt_ps, t0, carrier_offset_ghz)


def add_fields(a: SampledField, b: SampledField) -> SampledField:
    if a.dt_ps != b.dt_ps or a.t0_ps != b.t0_ps or len(a.samples) != len(b.samples):
        raise ValueError("fields must share a sampling grid")
    if a.carrier_offset_ghz != b.carrier_offset_ghz:
        raise ValueError("fields must share a carrier")
    return replace(a, samples=a.samples + b.samples)


def _omega_rad_per_ps(field: SampledField) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(len(field.samples), field.dt_ps)


def _check_edges(samples: np.ndarray, dt_ps: float, leak_tol: float) -> None:
    n = len(samples)
    margin = max(16, n // 128)
    power = np.abs(samples) ** 2
    total = power.sum()
    if total == 0:
        return
    edges = power[:margin].sum() + power[-margin:].sum()
    if edges > leak_tol * total:
        raise WindowOverflow(
            f"{edges / total:.2e} of the energy sits in the window margins"
        )


def apply_chirp(field: SampledField, chirp: ChirpSpec, leak_tol: float = 1e-9) -> SampledField:
    """Quadratic spectral phase exp(i beta2 omega^2 / 2); energy conserving.

    The carrier offset enters as a constant group delay beta2 * 2 pi nu_c.
    Raises WindowOverflow if the stretched field would wrap around.
    """
    _check_edges(field.samples, field.dt_ps, leak_tol)
    omega = _omega_rad_per_ps(field) + 2.0 * np.pi * field.carrier_offset_ghz * 1e-3
    spectrum = np.fft.fft(field.samples)
    spectrum *= np.exp(0.5j * chirp.beta2_ps2 * omega**2)
    out = np.fft.ifft(spectrum)
    _check_edges(out, field.dt_ps, leak_tol)
    return replace(field, samples=out)


def phase_modulate(
    field: SampledField, g: float, rf_frequency_ghz: float, alpha: float
) -> SampledField:
    """Multiply by exp(i g sin(Omega t + alpha)); energy conserving."""
    phase = g * np.sin(
        2.0 * np.pi * rf_frequency_ghz * 1e-3 * field.times_ps + alpha
    )
    return replace(field, samples=field.samples * np.exp(1j * phase))


def cpm_continuous(
    field: SampledField,
    chirp: ChirpSpec,
    g: float,
    rf_frequency_ghz: float,
    alpha: float,
) -> SampledField:
    """Full chirp -> modulate -> inverse-chirp chain.

    Produces coherent pulse copies at integer multiples of dt = beta2*Omega,
    each spectrally shifted by m*Omega.  The RF phase is applied with the
    sign that reproduces the discrete operator's e^{-i m alpha} weights for
    copies at +m*dt.
    """
    stretched = apply_chirp(field, chirp)
    modulated = phase_modulate(stretched, g, rf_frequency_ghz, -alpha)
    return apply_chirp(modulated, chirp.negated())


def copy_spacing_ps(chirp: ChirpSpec, rf_frequency_ghz: float) -> float:
    return abs(chirp.beta2_ps2) * 2.0 * np.pi * rf_frequency_ghz * 1e-3


def rf_for_spacing(chirp: ChirpSpec, spacing_ps: float) -> float:
    """RF tone (GHz) whose copy spacing equals the given bin separation."""
    return spacing_ps / (abs(chirp.beta2_ps2) * 2.0 * np.pi * 1e-3)


def bin_intensity(field: SampledField, center_ps: float, half_width_ps: float) -> float:
    """Integrated intensity inside a detection window around one bin."""
    t = field.times_ps
    sel = (t >= center_ps - half_width_ps) & (t < center_ps + half_width_ps)
    return float(np.sum(np.abs(field.samples[sel]) ** 2) * field.dt_ps)


def copy_peak_position(
    field: SampledField, near_ps: float, search_half_width_ps: float
) -> float:
    """Intensity centroid near an expected pulse-copy position."""
    t = field.times_ps
    sel = (t >= near_ps - search_half_width_ps) & (t < near_ps + search_half_width_ps)
    power = np.abs(field.samples[sel]) ** 2
    if power.sum() == 0:
        raise ValueError(f"no energy near {near_ps} ps")
    return float(np.sum(t[sel] * power) / power.sum())


def extract_copy_weights(
    output: SampledField,
    reference: SampledField,
    chirp: ChirpSpec,
    rf_frequency_ghz: float,
    m_max: int,
) -> dict[int, complex]:
    """Complex weights of the pulse copies relative to the input pulse.

    Joint least-squares projection onto the time- and frequency-shifted
    copies of the input mode (the copies overlap, so independent inner
    products would cross-contaminate).  The deterministic quadratic copy
    phase beta2*(m*Omega)^2/2 produced by the chirp pair is compensated,
    so the weights converge to the discrete operator's J_m(g) e^{-i m alpha}
    as the dispersion grows.
    """
    omega = 2.0 * np.pi * rf_frequency_ghz * 1e-3  # rad/ps
    spacing = abs(chirp.beta2_ps2) * omega
    orders = list(range(-m_max, m_max + 1))
    modes = []
    for m in orders:
        shift = int(round(m * spacing / reference.dt_ps))
        modes.append(
            np.roll(reference.samples, shift)
            * np.exp(1j * m * omega * reference.times_ps)
        )
    basis = np.column_stack(modes)
    coeffs = np.linalg.lstsq(basis, output.samples, rcond=None)[0]
    return {
        m: complex(c * np.exp(0.5j * chirp.beta2_ps2 * (m * omega) ** 2))
        for m, c in zip(orders, coeffs)
    }


def spectrogram(
    field: SampledField,
    window_fwhm_ps: float = 30.0,
    time_step_ps: float = 10.0,
    time_range_ps: tuple[float, float] | None = None,
    freq_range_ghz: float = 12.0,
):
    """Gabor spectrogram: (times_ps, freqs_ghz, intensity[time, freq]).

    A Gaussian analysis window slides over the field; each column is the
    windowed power spectrum restricted to +-freq_range_ghz.
    """
    if window_fwhm_ps <= 2.0 * field.dt_ps:
        raise ValueError("window must be wider than two samples")
    t = field.times_ps
    if time_range_ps is None:
        power = np.abs(field.samples) ** 2
        lit = np.nonzero(power > 1e-9 * power.max())[0]
        time_range_ps = (t[lit[0]], t[lit[-1]])
    half = int(round(4.0 * window_fwhm_ps / field.dt_ps))
    window = np.exp(
        -2.0 * np.log(2.0)
        * (field.dt_ps * np.arange(-half, half + 1) / window_fwhm_ps) ** 2
    )
    n_fft = 1 << int(np.ceil(np.log2(4 * len(window))))
    freqs = np.fft.fftshift(np.fft.fftfreq(n_fft, field.dt_ps)) * 1e3  # GHz
    keep = np.abs(freqs) <= freq_range_ghz
    centers = np.arange(time_range_ps[0], time_range_ps[1] + field.dt_ps, time_step_ps)
    rows = []
    for c in centers:
        k = int(round((c - field.t0_ps) / field.dt_ps))
        lo, hi = k - half, k + half + 1
        if lo < 0 or hi > len(field.samples):
            rows.append(np.zeros(int(keep.sum())))
            continue
        seg = field.samples[lo:hi] * window
        spec = np.fft.fftshift(np.fft.fft(seg, n_fft))
        rows.append(np.abs(spec[keep]) ** 2)
    return centers, freqs[keep], np.array(rows)


def visibility_bound(
    bin_separation_ps: float,
    pulse_fwhm_ps: float,
    chirp: ChirpSpec,
    rf_frequency_ghz: float | None = None,
    n_alpha: int = 16,
    n_samples: int = 2**18,
    dt_ps: float = 1.0,
) -> float:
    """Maximal two-bin interference visibility at finite dispersion.

    Two equal-amplitude pulses separated by bin_separation_ps are run
    through the full continuous CPM at the balanced depth while the RF
    phase is swept over a period; the fringe of the integrated intensity
    in the central output bin window gives (max-min)/(max+min).
    """
    derived_rf = rf_for_spacing(chirp, bin_separation_ps)
    if rf_frequency_ghz is None:
        rf_frequency_ghz = derived_rf
    elif abs(rf_frequency_ghz - derived_rf) > 0.05 * derived_rf:
        raise InconsistentSettings(
            f"RF {rf_frequency_ghz} GHz gives copy spacing "
            f"{copy_spacing_ps(chirp, rf_frequency_ghz):.1f} ps, "
            f"not {bin_separation_ps} ps"
        )
    g_star = solve_balanced_depth()
    a = gaussian_pulse(0.0, pulse_fwhm_ps, n_samples, dt_ps)
    b = gaussian_pulse(bin_separation_ps, pulse_fwhm_ps, n_samples, dt_ps)
    field = add_fields(a, b)
    stretched = apply_chirp(field, chirp)
    alphas = np.linspace(0.0, 2.0 * np.pi, n_alpha, endpoint=False)
    half = 0.5 * bin_separation_ps
    intensities = []
    for alpha in alphas:
        modulated = phase_modulate(stretched, g_star, rf_frequency_ghz, -alpha)
        out = apply_chirp(modulated, chirp.negated())
        intensities.append(bin_intensity(out, bin_separation_ps, half))
    # fit I(alpha) = c0 + c1 cos + c2 sin; more robust than raw max/min
    design = np.column_stack(
        [np.ones_like(alphas), np.cos(alphas), np.sin(alphas)]
    )
    c = np.linalg.lstsq(design, np.asarray(intensities), rcond=None)[0]
    return float(np.hypot(c[1], c[2]) / c[0])
