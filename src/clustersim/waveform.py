"""Interference-visibility bound of the chirped-pulse-modulation beam splitter.

Two pulses one bin separation apart pass the chirp -> sinusoidal phase
modulation -> inverse chirp chain; the spectral walk-off between the
temporally overlapping pulse copies bounds the attainable two-bin
interference visibility at finite dispersion.  For the quadratic chirp D,
D^-1 e^{i m Omega t} D = e^{-i beta2 (m Omega)^2 / 2} e^{i m Omega t}
(delay by m beta2 Omega) exactly, so with Jacobi-Anger the chain output
is a sum of Bessel-weighted pulse copies (|m| <= 12), evaluated in closed
form on the detection window.  The sampled FFT chain it replaces is the
test oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .bessel import bessel_row, solve_balanced_depth
from .cpm import CpmSettings

#: Copy orders |m| kept in visibility_bound's Jacobi-Anger sum.
COPY_ORDERS = 12
#: visibility_bound refuses separations from here on, so its 1 ps
#: detection window holds at most 2**17 points.
MAX_SEPARATION_PS = 2.0**17
#: Narrowest pulse ExcitationTrain accepts, and so the narrowest that
#: visibility_bound is given.  By Poisson
#: summation the 1 ps window samples hold a Gaussian pulse of intensity FWHM
#: w to a relative error of 2 exp(-pi^2 w^2 / (4 ln 2)): 2.4e-14 at 3 ps,
#: inside the 1e-12 the closed form keeps to the FFT chain, but 1.3e-6 at
#: 2 ps and 6 % at 1 ps.  Narrower pulses fall between the samples.
MIN_PULSE_FWHM_PS = 3.0


def _gaussian(t_ps, fwhm_ps: float):
    """Gaussian amplitude envelope centred at 0; fwhm_ps is the intensity FWHM."""
    return np.exp(-2.0 * np.log(2.0) * (t_ps / fwhm_ps) ** 2)


def rf_for_spacing(beta2_ps2: float, spacing_ps: float) -> float:
    """RF tone (GHz) whose copy spacing |beta2| Omega equals the given bin separation."""
    return spacing_ps / (abs(beta2_ps2) * 2.0 * np.pi * 1e-3)


def visibility_bound(
    bin_separation_ps: float, pulse_fwhm_ps: float, settings: CpmSettings
) -> float:
    """Maximal two-bin interference visibility at finite dispersion.

    Two equal-amplitude Gaussian pulses separated by bin_separation_ps pass
    the chirp -> modulation -> inverse-chirp chain at the balanced depth g*,
    with the grating dispersion and carrier of settings and the RF tone
    whose copy spacing equals the separation (settings' own tone is unused).
    The pulse width comes from an ExcitationTrain, so it is at least
    MIN_PULSE_FWHM_PS.
    Swept over the RF phase alpha, the intensity summed over the central
    output bin window [sep/2, 3 sep/2), sampled at 1 ps, traces a fringe
    I(alpha); the bound is its first-harmonic contrast.

    The chain is evaluated in closed form.  For D = exp(i beta2 w^2 / 2),
    D^-1 e^{i m Omega t} D = e^{-i beta2 (m Omega)^2 / 2} e^{i m Omega t}
    (delay by m beta2 Omega) exactly, and Jacobi-Anger expands the
    modulator as sum_m J_m(g*) e^{-i m alpha} e^{i m Omega t}.  The output
    is thus sum_m u_m(t) e^{-i m alpha}: Bessel-weighted copies u_m of the
    two pulses, shifted by m Omega in frequency and m beta2 Omega in time,
    for |m| <= COPY_ORDERS (J_13(g*) = 2e-12).  So I(alpha) = H0 +
    2 Re(H1 e^{-i alpha}) + higher harmonics, with H0 = sum_t,m |u_m|^2 and
    H1 = sum_t,m u_m conj(u_{m-1}), and the visibility is 2 |H1| / H0.
    """
    beta2 = settings.beta2_s2 * 1e24  # ps^2
    if beta2 == 0 or not math.isfinite(beta2):
        raise ValueError("dispersion must be nonzero and finite")
    if bin_separation_ps <= 0:
        raise ValueError("bin separation must be positive")
    if bin_separation_ps >= MAX_SEPARATION_PS:
        raise ValueError(f"bin separation must be below {MAX_SEPARATION_PS:g} ps")
    orders = np.arange(-COPY_ORDERS, COPY_ORDERS + 1)
    bessel = bessel_row(solve_balanced_depth(), COPY_ORDERS)[np.abs(orders)]
    bessel = np.where((orders < 0) & (orders % 2 == 1), -bessel, bessel)  # J_-m
    omega = 2.0 * np.pi * rf_for_spacing(beta2, bin_separation_ps) * 1e-3  # rad/ps
    top = COPY_ORDERS * omega  # the highest copy frequency
    if not (omega > 0 and math.isfinite(top * top * beta2)):
        raise ValueError("dispersion out of range for the bin separation")
    weights = bessel * np.exp(-0.5j * beta2 * (orders * omega) ** 2)
    delays = orders * (beta2 * omega)
    # the integer times the 1 ps field grid has in the window
    times = np.arange(np.ceil(0.5 * bin_separation_ps), np.ceil(1.5 * bin_separation_ps))
    # chunk so each (copy, time) array stays near 1 MB
    step = 2**16 // len(orders)
    h0 = h1 = 0j
    for start in range(0, len(times), step):
        t = times[start:start + step]
        shifted = t - delays[:, None]
        envelope = _gaussian(shifted, pulse_fwhm_ps) + _gaussian(
            shifted - bin_separation_ps, pulse_fwhm_ps
        )
        copies = weights[:, None] * np.exp(1j * omega * np.outer(orders, t)) * envelope
        h0 += np.vdot(copies, copies)
        h1 += np.vdot(copies[:-1], copies[1:])
    return float(2.0 * abs(h1) / h0.real)
