"""Spans around clustersim's layer functions, installed from outside.

Each traced function is wrapped at every module attribute through which a
caller can look it up (``detection.measurement_map`` as well as
``cpm.measurement_map``), so the program's source stays untouched and a
function that moves between modules is still seen.  A target none of whose
lookup sites exists any more is reported as absent instead of failing.

A span records its name, start, end, parent and whether it raised.  Spans
stay in memory; self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "clustersim"


def _arg(fn, args, kwargs, name):
    """Value of parameter `name` in a call, defaults applied."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _poisson_draws(fn, args, kwargs, result):
    # samples x resampled counts: every raw count cell is redrawn per sample
    raw = _arg(fn, args, kwargs, "raw_counts")
    cells = sum(len(v) for v in raw.values())
    return {"analysis.poisson_draws": _arg(fn, args, kwargs, "samples") * cells}


def _field_traffic(fn, args, kwargs, result):
    # computed from array sizes: the input envelope is read, the output written
    field = _arg(fn, args, kwargs, "field")
    return {"waveform.bytes_moved": field.samples.nbytes + result.samples.nbytes}


def _chirp_traffic(fn, args, kwargs, result):
    counts = _field_traffic(fn, args, kwargs, result)
    counts["waveform.fft_points"] = 2 * len(result.samples)  # forward + inverse
    return counts


def _amplitudes_out(fn, args, kwargs, result):
    return {"modes.amplitudes_out": len(result.amplitudes)}


#: span name -> (lookup sites "module.attribute", computed counters or None).
#: The span name is the layer that owns the function; the sites are where
#: callers look it up.
TARGETS = {
    "cli.main": (("cli.main",), None),
    "cli.load_config": (("cli.load_config", "cli.config_hash"), None),
    "cli.write": (("cli.write_json", "cli.write_csv", "cli.write_line_svg"), None),
    "source.generate_pair_state": (
        ("cli.generate_pair_state", "source.generate_pair_state"), None),
    "source.is_cluster_state": (
        ("cli.is_cluster_state", "source.is_cluster_state"), None),
    "channel.transmit": (("channel.transmit",), None),
    "channel.simulate_drift": (("channel.simulate_drift",), None),
    "channel.ou_accumulate": (("channel.ou_accumulate",), None),
    "channel.stabilize": (("channel.stabilize",), None),
    "detection.sample_coincidences": (("detection.sample_coincidences",), None),
    "detection.expected_counts": (("detection.expected_counts",), None),
    "detection.joint_outcome_probabilities": (
        ("detection.joint_outcome_probabilities",), None),
    "detection.jitter_transition_matrix": (
        ("detection.jitter_transition_matrix",), None),
    "detection.extract_projections": (("detection.extract_projections",), None),
    "cpm.measurement_map": (("detection.measurement_map", "cpm.measurement_map"), None),
    "modes.apply_single_photon_map": (
        ("detection.apply_single_photon_map", "modes.apply_single_photon_map"),
        _amplitudes_out),
    "bessel.bessel_row": (("cpm.bessel_row", "bessel.bessel_row"), None),
    "analysis.monte_carlo_error": (("analysis.monte_carlo_error",), _poisson_draws),
    "analysis.witness_samples": (("analysis.witness_samples",), None),
    "analysis.witness": (("analysis.witness",), None),
    "analysis.fit_interference": (("analysis.fit_interference",), None),
    "waveform.visibility_bound": (("waveform.visibility_bound",), None),
    "waveform.apply_chirp": (("waveform.apply_chirp",), _chirp_traffic),
    "waveform.phase_modulate": (("waveform.phase_modulate",), _field_traffic),
}

#: Counters the functions above derive from arguments and results.
COMPUTED = ("analysis.poisson_draws", "waveform.fft_points", "waveform.bytes_moved",
            "modes.amplitudes_out")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    raised: bool = False
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _public_modules():
    prefix = PACKAGE + "."
    return [
        mod for name, mod in sorted(sys.modules.items())
        if name.startswith(prefix) and not name[len(prefix):].startswith("_")
    ]


class Tracer:
    """Installs span wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.broken_counters: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = _public_modules()
        by_name = {mod.__name__[len(PACKAGE) + 1:]: mod for mod in modules}
        for span_name, (sites, counter) in TARGETS.items():
            originals = []
            for site in sites:
                mod_name, attr = site.split(".", 1)
                fn = getattr(by_name.get(mod_name), attr, None)
                if callable(fn) and all(fn is not o for o in originals):
                    originals.append(fn)
            if not originals:
                self.absent.append(span_name)
                continue
            for fn in originals:
                wrapper = self._wrap(span_name, fn, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()
        return False

    def _wrap(self, name, fn, counter):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.end - span.start
            if counter is not None:
                try:
                    for key, value in counter(fn, args, kwargs, result).items():
                        counters[key] += value
                except (AttributeError, KeyError, TypeError) as exc:
                    self.broken_counters.add(f"{name}: {exc}")
            return result

        return traced

    def take(self):
        """Per-name self time and call count since the last take, and counters."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        raised = 0
        for span in self.spans:
            self_s[span.name] += span.self_s
            calls[span.name] += 1
            raised += span.raised
        counters = dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return self_s, calls, counters, raised
