"""Fiber-link transmission: loss budget, thermal drift and stabilization.

The 25 km link plus dispersion-compensating module attenuates the pair
state (5.3 + 2.4 dB) without touching its relative amplitudes.  Slow
temperature fluctuations shift the time of flight (36.8 ps/(K.km)); a
feedback loop re-measures the offset every 15 minutes and corrects it
with a delay line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .encoding import BinLayout
from .modes import JointTwoPhotonState

#: Largest drift offset or estimator noise: sums of 10**6 squares stay finite.
MAX_OFFSET_PS = 1e150
#: Most low-pass passes; each is one more loop over up to 10**6 samples.
MAX_SMOOTHING_PASSES = 10


@dataclass(frozen=True)
class FiberLink:
    """Link budget for the deployed-fiber segment."""

    length_km: float = 25.0
    loss_db: float = 5.3
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
        if not 0 <= self.smoothing_passes <= MAX_SMOOTHING_PASSES:
            raise ValueError(f"smoothing passes must lie in [0, {MAX_SMOOTHING_PASSES}]")
        if self.peak_k is not None and self.peak_k < 0:
            raise ValueError("peak excursion must be nonnegative")


@dataclass(frozen=True)
class DriftTrace:
    """Time-of-flight offsets sampled every step_s seconds from t = 0."""

    step_s: float
    offsets_ps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "step_s", float(self.step_s))
        object.__setattr__(self, "offsets_ps", np.asarray(self.offsets_ps, dtype=float))

    @property
    def times_s(self) -> np.ndarray:
        return self.step_s * np.arange(len(self.offsets_ps))

    def rms_ps(self) -> float:
        return float(np.sqrt(np.mean(self.offsets_ps**2)))

    def peak_ps(self) -> float:
        return float(np.max(np.abs(self.offsets_ps)))

    def offset_at(self, time_s: float) -> float:
        """Offset at time_s, interpolated; ValueError outside the trace's span."""
        end_s = self.step_s * (len(self.offsets_ps) - 1)
        if not 0.0 <= time_s <= end_s:
            raise ValueError(f"{time_s:g} s is outside the drift trace's span [0, {end_s:g}] s")
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
        if self.estimator_noise_ps > MAX_OFFSET_PS:
            raise ValueError(f"estimator noise must be at most {MAX_OFFSET_PS:g} ps")


def transmit(state: JointTwoPhotonState, link: FiberLink) -> JointTwoPhotonState:
    """Attenuate the state through the link's loss.

    Loss scales every amplitude by the same factor, so norm_tracking drops
    to retained_fraction while all relative structure survives (dispersion
    is assumed compensated).  Timing drift is not applied here; the
    arrival offset is read from the link's DriftTrace (offset_at).
    """
    return replace(
        state,
        amplitudes=state.amplitudes * np.sqrt(link.retained_fraction),
        norm_tracking=state.norm_tracking * link.retained_fraction,
    )


def bin_assignment_corrupted(offset_ps: float, layout: BinLayout) -> bool:
    """True when an uncorrected offset would scramble bin assignment.

    That is when it exceeds half the layout's smallest bin spacing, so a
    photon lands nearer a neighbouring bin.
    """
    return abs(offset_ps) > 0.5 * layout.min_spacing_ps


def ou_accumulate(normals, decay, innovation):
    """Exact-discretization Ornstein-Uhlenbeck path starting at 0.

    x[k] = decay * x[k-1] + innovation * normals[k]

    The loop runs on Python floats rather than numpy scalars, which pay a
    dispatch per element.  Each step is the same IEEE multiplies and add
    either way, so the path keeps its bits; a vectorised form (a cumulative
    sum of decay powers, or a linear filter) would reorder the sums and move
    the last bits of every drift trace.  Overflow gives inf or nan silently.
    """
    decay, innovation = float(decay), float(innovation)
    out = []
    append = out.append
    x = 0.0
    for z in np.asarray(normals, dtype=float).tolist():
        x = decay * x + innovation * z
        append(x)
    return np.array(out)


#: Largest drift trace simulate_drift builds (a day at 0.1 s steps is 864001).
MAX_TRACE_SAMPLES = 10**6


# extreme settings overflow to inf or nan; the peak check reports them
@np.errstate(over="ignore", invalid="ignore")
def simulate_drift(
    link: FiberLink,
    duration_s: float,
    model: ThermalModel,
    rng: np.random.Generator,
) -> DriftTrace:
    """Thermal time-of-flight drift trace, drawn from rng.

    offsets = thermal_sensitivity * length * T(t) with T(t) the smoothed
    (and optionally peak-rescaled) temperature process.
    """
    n = np.floor(duration_s / model.step_s) + 1
    if duration_s <= 0 or n > MAX_TRACE_SAMPLES:
        raise ValueError(
            f"duration must be positive and span at most {MAX_TRACE_SAMPLES} samples"
        )
    n = int(n)
    if model.sigma_k == 0.0:
        return DriftTrace(model.step_s, np.zeros(n))
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
    peak_ps = np.max(np.abs(offsets))
    if not peak_ps <= MAX_OFFSET_PS:
        raise ValueError(f"drift offsets reach {peak_ps:g} ps, above {MAX_OFFSET_PS:g} ps")
    return DriftTrace(model.step_s, offsets)


def stabilize(
    trace: DriftTrace, policy: StabilizerPolicy, rng: np.random.Generator
) -> tuple[DriftTrace, float]:
    """Apply the periodic correction loop; returns (residual trace, RMS).

    At each correction epoch the loop subtracts its estimate of the
    current residual (true residual plus estimator noise drawn from rng,
    quantized to the actuator resolution).
    """
    n = len(trace.offsets_ps)
    if n < 2:
        # a single sample has no correction epoch
        return trace, trace.rms_ps()
    period_steps = int(round(policy.correction_interval_s / trace.step_s))
    if period_steps < 1:
        raise ValueError("correction interval shorter than the trace step")
    if period_steps >= n:
        # no correction epoch fits inside the trace: no-op policy
        return trace, trace.rms_ps()
    n_epochs = n // period_steps + 1
    noise = rng.normal(0.0, policy.estimator_noise_ps, n_epochs).tolist()
    offsets = trace.offsets_ps
    resolution = policy.actuator_resolution_ps
    # corrections[j] holds from epoch j on; the loop visits the epochs only
    corrections = [0.0]
    correction = 0.0
    for offset, epoch_noise in zip(offsets[period_steps::period_steps].tolist(), noise):
        est = (offset - correction) + epoch_noise
        # quantize, unless the resolution is finer than a float can step
        steps = est / resolution if resolution > 0.0 else math.inf
        if math.isfinite(steps):
            est = round(steps, 0) * resolution
        correction += est
        corrections.append(correction)
    residual = offsets - np.repeat(corrections, period_steps)[:n]
    out = replace(trace, offsets_ps=residual)
    return out, out.rms_ps()
