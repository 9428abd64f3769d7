"""Interference-visibility bound of the chirped-pulse-modulation beam splitter.

Two pulses one bin separation s apart pass the chirp -> sinusoidal phase
modulation -> inverse chirp chain; the spectral walk-off between the
temporally overlapping pulse copies bounds the attainable two-bin
interference visibility at finite dispersion.  For the quadratic chirp D,
D^-1 e^{i m Omega t} D = e^{-i beta2 (m Omega)^2 / 2} e^{i m Omega t}
(delay by m beta2 Omega) exactly, so with Jacobi-Anger the chain output
is sum_m e^{-i m alpha} w_m e^{i m Omega t} env_m(t): Bessel-weighted
copies, w_m = J_m(g*) e^{-i beta2 (m Omega)^2 / 2}, of the two pulses'
envelope env_m delayed by m beta2 Omega.  The RF tone sets |beta2| Omega
= s, so copy m sits at m sign(beta2) s for every dispersion.  Hence
H0 = sum_m J_m^2 sum_t env_m^2 over the detection window does not depend
on the dispersion (J_-m^2 = J_m^2 covers its sign); only the weights and
the carrier in H1 = sum_m conj(w_m) w_{m+1} sum_t e^{i Omega t} env_m
env_{m+1} do, so one pass over the window serves every dispersion.  The
sampled FFT chain and the per-dispersion copy sum this replaces are the
test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .bessel import bessel_row, solve_balanced_depth
from .cpm import chirp_beta2_s2

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


def check_ranges(separations_ps, dispersions_ns_per_nm, carrier_wavelength_nm: float) -> None:
    """ValueError unless visibility_bound takes every (separation, dispersion) pair.

    beta2 must be nonzero and finite, each separation in [1, MAX_SEPARATION_PS)
    ps, then each pair's tone positive with a finite highest copy phase.
    """
    with np.errstate(all="ignore"):  # the checks below refuse what overflows
        beta2 = chirp_beta2_s2(np.asarray(dispersions_ns_per_nm, float),
                               carrier_wavelength_nm) * 1e24  # ps^2
        separations = np.asarray(separations_ps, float)[:, None]
        omega = 2.0 * np.pi * rf_for_spacing(beta2, separations) * 1e-3  # rad/ps
        phase_ok = (omega > 0) & np.isfinite((COPY_ORDERS * omega) ** 2 * beta2)
    if not ((beta2 != 0) & np.isfinite(beta2)).all():
        raise ValueError("dispersion must be nonzero and finite")
    if min(separations_ps) < 1.0:
        raise ValueError("bin separation must be at least 1 ps")
    if max(separations_ps) >= MAX_SEPARATION_PS:
        raise ValueError(f"bin separation must be below {MAX_SEPARATION_PS:g} ps")
    if not phase_ok.all():
        raise ValueError("dispersion out of range for the bin separation")


def visibility_bound(
    separation_ps: float, pulse_fwhm_ps: float, dispersions_ns_per_nm, carrier_wavelength_nm: float
) -> np.ndarray:
    """Maximal two-bin interference visibility at each finite dispersion.

    Two equal-amplitude Gaussian pulses separation_ps apart pass the
    chirp -> modulation -> inverse-chirp chain at the balanced depth g*, for
    each grating dispersion at the carrier, with the RF tone whose copy
    spacing equals the separation.  The pulse width comes from an
    ExcitationTrain, so it is at least MIN_PULSE_FWHM_PS.
    Swept over the RF phase alpha, the intensity summed over the central
    output bin window [sep/2, 3 sep/2), sampled at 1 ps, traces a fringe
    I(alpha) = H0 + 2 Re(H1 e^{-i alpha}) + higher harmonics; the bound is
    its first-harmonic contrast 2 |H1| / H0, with H0 and H1 the copy sums
    of the module docstring (|m| <= COPY_ORDERS, J_13(g*) = 2e-12).  The
    separation and dispersions pass check_ranges.
    """
    dispersions = np.asarray(dispersions_ns_per_nm, float)
    beta2 = chirp_beta2_s2(dispersions, carrier_wavelength_nm) * 1e24  # ps^2
    omega = 2.0 * np.pi * rf_for_spacing(beta2, separation_ps) * 1e-3  # rad/ps
    orders = np.arange(-COPY_ORDERS, COPY_ORDERS + 1)
    bessel = bessel_row(solve_balanced_depth(), COPY_ORDERS)[np.abs(orders)]
    bessel = np.where((orders < 0) & (orders % 2 == 1), -bessel, bessel)  # J_-m
    weights = bessel * np.exp(-0.5j * beta2[:, None] * (orders * omega[:, None]) ** 2)
    pairs = weights[:, :-1].conj() * weights[:, 1:]
    # the overlaps below are those of copy m at m sep; for beta2 < 0 copy m
    # sits at -m sep, so pair (m, m + 1) takes overlap -m - 1: run backwards
    pairs = np.where(beta2[:, None] < 0, pairs[:, ::-1], pairs)
    # the integer times the 1 ps field grid has in the window
    times = np.arange(np.ceil(0.5 * separation_ps), np.ceil(1.5 * separation_ps))
    # chunk so each (copy or dispersion, time) array stays near 1 MB
    step = 2**16 // max(len(orders), len(beta2))
    # a pulse at each k sep, k = -12 .. 13: copy m holds pulses m and m + 1
    pulse_ps = np.arange(-COPY_ORDERS, COPY_ORDERS + 2)[:, None] * separation_ps
    h0 = 0.0
    overlaps = np.zeros(pairs.shape, complex)
    for start in range(0, len(times), step):
        t = times[start:start + step]
        pulses = _gaussian(t - pulse_ps, pulse_fwhm_ps)
        envelope = pulses[:-1] + pulses[1:]
        h0 += np.sum((bessel[:, None] * envelope) ** 2)
        overlaps += np.exp(1j * np.outer(omega, t)) @ (envelope[:-1] * envelope[1:]).T
    return 2.0 * np.abs(np.sum(pairs * overlaps, axis=1)) / h0
