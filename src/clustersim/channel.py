"""Fiber-link transmission: loss budget, thermal drift and stabilization.

The 25 km link plus dispersion-compensating module attenuates the pair
state (5.3 + 2.4 dB) without touching its relative amplitudes.  Slow
temperature fluctuations shift the time of flight (36.8 ps/(K.km)); a
feedback loop re-measures the offset every 15 minutes and corrects it
with a delay line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import OutOfRange
from .modes import JointTwoPhotonState


@dataclass(frozen=True)
class FiberLink:
    """Link budget for the deployed-fiber segment."""

    length_km: float = 25.0
    loss_db: float = 5.3
    dispersion_ps_per_nm: float = 425.0
    compensator_dispersion_ps_per_nm: float = -450.0
    compensator_loss_db: float = 2.4
    thermal_sensitivity_ps_per_k_km: float = 36.8

    def __post_init__(self):
        if self.length_km < 0:
            raise ValueError("length must be nonnegative")
        if self.loss_db < 0 or self.compensator_loss_db < 0:
            raise ValueError("losses must be nonnegative")

    @property
    def total_loss_db(self) -> float:
        return self.loss_db + self.compensator_loss_db

    @property
    def retained_fraction(self) -> float:
        return float(10.0 ** (-self.total_loss_db / 10.0))

    @property
    def residual_dispersion_ps_per_nm(self) -> float:
        return self.dispersion_ps_per_nm + self.compensator_dispersion_ps_per_nm


@dataclass(frozen=True)
class ThermalModel:
    """Slow temperature process driving the time-of-flight drift.

    An Ornstein-Uhlenbeck process (stationary SD sigma_k, correlation
    time correlation_s) is low-pass filtered smoothing_passes times with
    time constant smoothing_s so it is slow and differentiable on the
    correction timescale, then rescaled so its excursion peak equals
    peak_k (the paper only bounds the fluctuation, "< 0.1 K", and quotes
    the resulting 92 ps peak offset).
    """

    sigma_k: float = 0.033
    correlation_s: float = 4.0 * 3600.0
    smoothing_s: float = 7200.0
    smoothing_passes: int = 2
    peak_k: float | None = 0.1
    step_s: float = 60.0

    def __post_init__(self):
        if self.sigma_k < 0 or self.step_s <= 0:
            raise ValueError("sigma must be nonnegative and step positive")
        if self.correlation_s <= 0 or self.smoothing_s < 0:
            raise ValueError("time constants must be positive")


@dataclass(frozen=True)
class DriftTrace:
    """Sampled time-of-flight offset trace."""

    times_s: np.ndarray
    offsets_ps: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times_s, dtype=float)
        o = np.asarray(self.offsets_ps, dtype=float)
        if t.shape != o.shape or t.ndim != 1:
            raise ValueError("times and offsets must be 1-d and equal length")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "offsets_ps", o)

    @property
    def duration_s(self) -> float:
        return float(self.times_s[-1] - self.times_s[0])

    def rms_ps(self) -> float:
        return float(np.sqrt(np.mean(self.offsets_ps**2)))

    def peak_ps(self) -> float:
        return float(np.max(np.abs(self.offsets_ps)))

    def offset_at(self, time_s: float) -> float:
        return float(np.interp(time_s, self.times_s, self.offsets_ps))


@dataclass(frozen=True)
class StabilizerPolicy:
    """Periodic measure-and-correct feedback on the fiber delay."""

    correction_interval_s: float = 900.0
    estimator_noise_ps: float = 0.5
    actuator_resolution_ps: float = 0.1

    def __post_init__(self):
        if self.correction_interval_s <= 0:
            raise ValueError("correction interval must be positive")
        if self.estimator_noise_ps < 0 or self.actuator_resolution_ps < 0:
            raise ValueError("noise and resolution must be nonnegative")


def transmit(
    state: JointTwoPhotonState,
    link: FiberLink,
    drift: DriftTrace | None = None,
    time_s: float = 0.0,
) -> tuple[JointTwoPhotonState, float]:
    """Attenuate the state through the link; returns (state, arrival offset).

    Loss scales every amplitude by the same factor, so norm_tracking drops
    to retained_fraction while all relative structure survives (dispersion
    is assumed compensated).  The arrival offset is read from the drift
    trace at the transmission time, 0 without a trace.
    """
    scale = np.sqrt(link.retained_fraction)
    amps = {k: v * scale for k, v in state.amplitudes.items()}
    out = JointTwoPhotonState(
        state.grid, amps, state.norm_tracking * link.retained_fraction
    )
    offset = drift.offset_at(time_s) if drift is not None else 0.0
    return out, offset


def bin_assignment_corrupted(offset_ps: float, min_bin_spacing_ps: float = 100.0) -> bool:
    """True when an uncorrected offset would scramble bin assignment."""
    return abs(offset_ps) > 0.5 * min_bin_spacing_ps


def ou_accumulate(normals, decay, innovation):
    """Exact-discretization Ornstein-Uhlenbeck path starting at 0.

    x[k] = decay * x[k-1] + innovation * normals[k]
    """
    out = np.empty(len(normals))
    x = 0.0
    for k in range(len(normals)):
        x = decay * x + innovation * normals[k]
        out[k] = x
    return out


def simulate_drift(
    link: FiberLink,
    duration_s: float,
    model: ThermalModel = ThermalModel(),
    seed: int = 0,
) -> DriftTrace:
    """Thermal time-of-flight drift trace, reproducible by seed.

    offsets = thermal_sensitivity * length * T(t) with T(t) the smoothed
    (and optionally peak-rescaled) temperature process.
    """
    if duration_s <= 0:
        raise OutOfRange("duration must be positive")
    n = int(np.floor(duration_s / model.step_s)) + 1
    times = model.step_s * np.arange(n)
    if model.sigma_k == 0.0:
        return DriftTrace(times, np.zeros(n))
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal(n)
    decay = np.exp(-model.step_s / model.correlation_s)
    innovation = model.sigma_k * np.sqrt(1.0 - decay**2)
    temp = ou_accumulate(normals, decay, innovation)
    if model.smoothing_s > 0:
        a = np.exp(-model.step_s / model.smoothing_s)
        for _ in range(model.smoothing_passes):
            temp = ou_accumulate(temp, a, 1.0 - a)
    peak = np.max(np.abs(temp))
    if model.peak_k is not None and peak > 0:
        temp = temp * (model.peak_k / peak)
    offsets = link.thermal_sensitivity_ps_per_k_km * link.length_km * temp
    return DriftTrace(times, offsets)


def stabilize(
    trace: DriftTrace, policy: StabilizerPolicy, seed: int = 0
) -> tuple[DriftTrace, float]:
    """Apply the periodic correction loop; returns (residual trace, RMS).

    At each correction epoch the loop subtracts its estimate of the
    current residual (true residual plus estimator noise, quantized to
    the actuator resolution).
    """
    n = len(trace.times_s)
    step = float(np.median(np.diff(trace.times_s)))
    period_steps = int(round(policy.correction_interval_s / step))
    if period_steps < 1:
        raise OutOfRange("correction interval shorter than the trace step")
    if period_steps >= n:
        # no correction epoch fits inside the trace: no-op policy
        return trace, trace.rms_ps()
    n_epochs = n // period_steps + 1
    rng = np.random.default_rng(seed)
    noise = (
        rng.normal(0.0, policy.estimator_noise_ps, n_epochs)
        if policy.estimator_noise_ps > 0
        else np.zeros(n_epochs)
    )
    offsets = trace.offsets_ps
    resolution = policy.actuator_resolution_ps
    residual = np.empty(n)
    correction = 0.0
    epoch = 0
    for k in range(n):
        if k > 0 and k % period_steps == 0:
            est = (offsets[k] - correction) + noise[epoch]
            epoch += 1
            if resolution > 0.0:
                est = np.round(est / resolution) * resolution
            correction += est
        residual[k] = offsets[k] - correction
    out = replace(trace, offsets_ps=residual)
    return out, out.rms_ps()
