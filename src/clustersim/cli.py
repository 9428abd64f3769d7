"""Command-line harness: configuration, pipelines and file outputs.

Every command is deterministic given (config, seed); outputs are plain
CSV/JSON (optionally SVG) written atomically and stamped with the hash
of the effective configuration.

Exit codes: 0 success, 1 simulation-contract violation, 2 config/usage
error.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, channel, detection, waveform
from .bessel import efficiency, solve_balanced_depth
from .cpm import BeamSplitterSetting, CpmSettings
from .encoding import Level, LevelSpec, layout_from_levels
from .errors import ClusterSimError, ConfigError
from .modes import ModeGrid, state_to_json
from .source import ExcitationTrain, generate_pair_state, is_cluster_state

DEFAULT_CONFIG = {
    "seed": 0,
    "out": ".",
    "svg": False,
    "encoding": {
        "levels": [["T", 300.0, 3.75], ["t", 100.0, 1.25]],
        "time_quantum_ps": 100.0,
        "freq_quantum_ghz": 1.25,
    },
    "source": {
        "times_ps": [0.0, 100.0, 300.0, 400.0],
        "phases_rad": [0.0, 0.0, 0.0, math.pi / 2],
        "pulse_fwhm_ps": 37.0,
        "repetition_ns": 20.0,
    },
    "cpm": {
        "dispersion_ns_per_nm": 10.0,
        "carrier_wavelength_nm": 1550.0,
        "truncation_order": 8,
    },
    "waveform": {
        "dispersions_ns_per_nm": [2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0],
        "separations_ps": [100.0, 300.0],
        "pulse_fwhm_ps": 37.0,
        "n_alpha": 16,
    },
    "channel": {
        "length_km": 25.0,
        "loss_db": 5.3,
        "compensator_loss_db": 2.4,
        "thermal_sensitivity_ps_per_k_km": 36.8,
        "readout_time_s": 43200.0,
        "drift": {
            "sigma_k": 0.033,
            "correlation_s": 14400.0,
            "smoothing_s": 7200.0,
            "smoothing_passes": 2,
            "peak_k": 0.1,
            "step_s": 60.0,
            "duration_s": 86400.0,
        },
        "stabilizer": {
            "correction_interval_s": 900.0,
            "estimator_noise_ps": 0.5,
            "actuator_resolution_ps": 0.1,
        },
    },
    "detection": {
        "jitter_signal_ps": 17.0,
        "jitter_idler_ps": 17.0,
        "tdc_jitter_ps": 18.0,
        "coincidence_window_ps": 50.0,
        "dark_coincidence_rate": 0.0,
        "efficiency": 1.0,
        "pairs_per_setting": 1000,
        "visibility_penalty": {"T": 1.0, "t": 1.0},
    },
    "analysis": {
        "mc_samples": 1_000_000,
        "fringe_points": 24,
    },
    "capacity": {
        "total_bandwidth_ghz": 5000.0,
        "qubit_spectral_width_ghz": 25.0,
        "stretched_bin_length_ns": 2.0,
    },
}

#: One-parameter calibration matching the published witness: all physical
#: imperfections are folded into a single white-noise fraction p = 0.0667
#: (inverting W(p) = -1 + 3p at W = -0.80); statistics sized so the
#: Monte-Carlo standard error lands near 0.04 after link loss.
PRESETS = {
    "paper-default": {
        "detection": {
            "jitter_signal_ps": 0.0,
            "jitter_idler_ps": 0.0,
            "tdc_jitter_ps": 0.0,
            "dark_coincidence_rate": 0.0667,
            "pairs_per_setting": 2473,
        },
    },
}

# Sections whose keys are free-form (level names etc.), exempt from
# unknown-key rejection; each value must have the type of the given one.
_OPEN_SECTIONS = {("detection", "visibility_penalty"): 1.0}

# Leaves that may be null: no peak rescale of the drift.
_NULLABLE = {"channel.drift.peak_k"}

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "an object"}


def _check_type(value, default, where: str) -> None:
    """Raise ConfigError unless value has the JSON type of its default.

    Integers are numbers and integral numbers are integers; booleans are
    neither.  Values are not converted, so config hashes stay as written.
    List items are checked against the default's first item, or position
    by position when its items differ in type (a level [name, shift, freq]).
    """
    if value is None and where in _NULLABLE:
        return
    if isinstance(value, bool) or isinstance(default, bool):
        ok = isinstance(value, bool) and isinstance(default, bool)
    elif isinstance(default, int):
        ok = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    elif isinstance(default, float):
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, type(default))
    if not ok:
        expected = _TYPE_NAMES[type(default)]
        raise ConfigError(f"{where} must be {expected}, got {json.dumps(value)}")
    if isinstance(default, list) and default:
        positional = len({type(item) for item in default}) > 1
        if positional and len(value) != len(default):
            raise ConfigError(f"{where} must have {len(default)} entries")
        for i, item in enumerate(value):
            _check_type(item, default[i if positional else 0], f"{where}[{i}]")


def _merge(base: dict, override: dict, path: tuple = ()) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = ".".join(path + (str(key),))
        if key in base:
            default = base[key]
        elif path in _OPEN_SECTIONS:
            default = _OPEN_SECTIONS[path]
        else:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(default, dict) and isinstance(value, dict):
            out[key] = _merge(default, value, path + (key,))
        else:
            _check_type(value, default, where)
            out[key] = copy.deepcopy(value)
    return out


def load_config(
    path: str | None, preset: str | None, seed: int | None, out: str | None
) -> dict:
    cfg = DEFAULT_CONFIG
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        cfg = _merge(cfg, PRESETS[preset])
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge(cfg, data)
    if seed is not None:
        cfg = _merge(cfg, {"seed": int(seed)})
    if out is not None:
        cfg = _merge(cfg, {"out": out})
    return cfg


def config_hash(cfg: dict) -> str:
    # the output directory does not affect results, so identical physics
    # configs get identical stamps regardless of where files are written
    hashed = {k: v for k, v in cfg.items() if k != "out"}
    digest = hashlib.sha256(
        json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
    )
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# output helpers

def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path: Path, payload: dict, stamp: str) -> None:
    doc = {"config_sha256": stamp}
    doc.update(_jsonable(payload))
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".12g")
    return str(x)


def write_csv(path: Path, columns: list[str], rows: list, stamp: str) -> None:
    lines = [f"# config_sha256={stamp}", ",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_line_svg(path: Path, curves: dict, stamp: str, x_label: str, y_label: str) -> None:
    """Minimal deterministic polyline plot (one curve per label)."""
    width, height, pad = 640, 400, 50
    xs = np.concatenate([np.asarray(c[0], dtype=float) for c in curves.values()])
    ys = np.concatenate([np.asarray(c[1], dtype=float) for c in curves.values()])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)
    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f"<!-- config_sha256={stamp} -->",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="{height - 10}" text-anchor="middle">{x_label}</text>',
        f'<text x="15" y="{height // 2}" text-anchor="middle" '
        f'transform="rotate(-90 15 {height // 2})">{y_label}</text>',
    ]
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    for k, (label, (cx, cy)) in enumerate(sorted(curves.items())):
        pts = " ".join(
            f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(cx, cy)
        )
        color = colors[k % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
        parts.append(
            f'<text x="{width - pad + 5}" y="{pad + 15 * k}" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


# ----------------------------------------------------------------------
# config -> domain objects

def _from_config(section: str):
    """Report a domain constructor's ValueError on config values as a ConfigError."""
    def decorate(adapter):
        @functools.wraps(adapter)
        def build(*args):
            try:
                return adapter(*args)
            except ValueError as exc:
                raise ConfigError(f"{section}: {exc}") from exc
        return build
    return decorate


@_from_config("encoding")
def _grid(cfg) -> ModeGrid:
    enc = cfg["encoding"]
    return ModeGrid(enc["time_quantum_ps"], enc["freq_quantum_ghz"])


@_from_config("encoding")
def _levels(cfg) -> LevelSpec:
    return LevelSpec(tuple(Level(n, s, f) for n, s, f in cfg["encoding"]["levels"]))


@_from_config("source")
def _train(cfg) -> ExcitationTrain:
    src = cfg["source"]
    return ExcitationTrain(
        tuple(src["times_ps"]),
        tuple(src["phases_rad"]),
        src["pulse_fwhm_ps"],
        src["repetition_ns"],
    )


@_from_config("cpm")
def _base_cpm(cfg) -> CpmSettings:
    c = cfg["cpm"]
    return CpmSettings(
        g=0.0,
        dispersion_ns_per_nm=c["dispersion_ns_per_nm"],
        carrier_wavelength_nm=c["carrier_wavelength_nm"],
        truncation_order=c["truncation_order"],
    )


@_from_config("channel")
def _link(cfg) -> channel.FiberLink:
    ch = cfg["channel"]
    return channel.FiberLink(
        length_km=ch["length_km"],
        loss_db=ch["loss_db"],
        compensator_loss_db=ch["compensator_loss_db"],
        thermal_sensitivity_ps_per_k_km=ch["thermal_sensitivity_ps_per_k_km"],
    )


@_from_config("channel.drift")
def _thermal(cfg) -> channel.ThermalModel:
    d = cfg["channel"]["drift"]
    return channel.ThermalModel(
        sigma_k=d["sigma_k"],
        correlation_s=d["correlation_s"],
        smoothing_s=d["smoothing_s"],
        smoothing_passes=int(d["smoothing_passes"]),
        peak_k=d["peak_k"],
        step_s=d["step_s"],
    )


@_from_config("channel.stabilizer")
def _policy(cfg) -> channel.StabilizerPolicy:
    s = cfg["channel"]["stabilizer"]
    return channel.StabilizerPolicy(
        correction_interval_s=s["correction_interval_s"],
        estimator_noise_ps=s["estimator_noise_ps"],
        actuator_resolution_ps=s["actuator_resolution_ps"],
    )


@_from_config("detection")
def _detector(cfg) -> detection.DetectorModel:
    d = cfg["detection"]
    return detection.DetectorModel(
        jitter_signal_ps=d["jitter_signal_ps"],
        jitter_idler_ps=d["jitter_idler_ps"],
        tdc_jitter_ps=d["tdc_jitter_ps"],
        coincidence_window_ps=d["coincidence_window_ps"],
        dark_coincidence_rate=d["dark_coincidence_rate"],
        efficiency=d["efficiency"],
    )


def _penalty(cfg) -> dict:
    penalty = dict(cfg["detection"]["visibility_penalty"])
    for level, v in penalty.items():
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"visibility_penalty.{level} = {v} outside [0, 1]")
    return penalty


@_from_config("encoding")
def _make_state(cfg):
    levels = _levels(cfg)
    layout = layout_from_levels(levels)
    return generate_pair_state(_train(cfg), layout, _grid(cfg)), levels, layout


# ----------------------------------------------------------------------
# commands

def cmd_generate(cfg, outdir: Path, stamp: str, exact: bool) -> int:
    state, levels, layout = _make_state(cfg)
    ok, fidelity = is_cluster_state(state, layout)
    write_json(outdir / "state.json",
               {"state": json.loads(state_to_json(state)), "fidelity": fidelity},
               stamp)
    print(f"fidelity vs target cluster state: {fidelity:.6f}")
    if not ok:
        print("warning: generated state is not the target cluster state")
    return 0


def cmd_transmit(cfg, outdir: Path, stamp: str, exact: bool) -> int:
    state, levels, layout = _make_state(cfg)
    link = _link(cfg)
    trace = channel.simulate_drift(
        link, cfg["channel"]["drift"]["duration_s"], _thermal(cfg), int(cfg["seed"])
    )
    out, offset = channel.transmit(
        state, link, trace, cfg["channel"]["readout_time_s"]
    )
    corrupted = channel.bin_assignment_corrupted(offset)
    write_json(outdir / "state.json",
               {"state": json.loads(state_to_json(out))}, stamp)
    write_json(outdir / "transmit.json", {
        "retained_fraction": link.retained_fraction,
        "arrival_offset_ps": offset,
        "bin_assignment_corrupted": corrupted,
    }, stamp)
    print(f"retained fraction {link.retained_fraction:.4f}, "
          f"arrival offset {offset:.2f} ps"
          + (" (bin assignment corrupted)" if corrupted else ""))
    return 0


def _sampled_histograms(cfg, exact: bool):
    state, levels, layout = _make_state(cfg)
    state, _ = channel.transmit(state, _link(cfg))
    schedule = detection.build_default_schedule(levels)
    hists = detection.sample_coincidences(
        state, schedule, _detector(cfg), cfg["detection"]["pairs_per_setting"],
        _penalty(cfg), int(cfg["seed"]), levels, _base_cpm(cfg), exact,
    )
    return hists, schedule, levels


def cmd_measure(cfg, outdir: Path, stamp: str, exact: bool) -> int:
    hists, schedule, levels = _sampled_histograms(cfg, exact)
    rows = [
        (h.name, bs, bi, h.counts[bs, bi])
        for h in hists
        for bs in range(h.counts.shape[0])
        for bi in range(h.counts.shape[1])
    ]
    write_csv(outdir / "histograms.csv",
              ["setting", "s_bin", "i_bin", "counts"], rows, stamp)
    write_json(outdir / "histograms.json", {
        "settings": [
            {
                "name": h.name,
                "signal": [h.signal_setting.kind, h.signal_setting.level],
                "idler": [h.idler_setting.kind, h.idler_setting.level],
                "counts": h.counts,
                "ancillary": h.ancillary,
            }
            for h in hists
        ]
    }, stamp)
    total = sum(h.counts.sum() for h in hists)
    print(f"recorded {total:.0f} coincidences over {len(hists)} settings")
    return 0


def cmd_witness(cfg, outdir: Path, stamp: str, exact: bool) -> int:
    mc_samples = int(cfg["analysis"]["mc_samples"])
    if mc_samples < 2:
        raise ConfigError("analysis.mc_samples must be at least 2")
    hists, schedule, levels = _sampled_histograms(cfg, exact)
    projections = detection.extract_projections(hists, schedule, levels)
    rows = [
        (basis, outcome, projections[basis][outcome])
        for basis in projections
        for outcome in range(16)
    ]
    write_csv(outdir / "projections.csv",
              ["basis", "outcome", "value"], rows, stamp)
    stderr = None
    if not exact:
        raw = detection.raw_basis_counts(hists, levels)
        stderr, hist, edges = analysis.monte_carlo_error(
            raw, mc_samples, int(cfg["seed"]) + 1
        )
        write_csv(outdir / "witness_hist.csv",
                  ["bin_left", "bin_right", "count"],
                  [(edges[i], edges[i + 1], int(hist[i])) for i in range(len(hist))],
                  stamp)
    report = analysis.witness(projections, stderr)
    write_json(outdir / "witness.json", {
        "stabilizer_terms": list(analysis.STABILIZER_TERMS),
        "expectations": list(report.expectations),
        "witness": report.witness,
        "stderr": report.stderr,
        "fidelity_bound": report.fidelity_bound,
        "term_pass": list(report.term_pass),
        "mean_pass": report.mean_pass,
        "certifies_entanglement": report.certifies_entanglement(),
    }, stamp)
    err = f" +/- {stderr:.4f}" if stderr is not None else ""
    print(f"W = {report.witness:+.4f}{err}; F >= {report.fidelity_bound:.4f}")
    return 0


#: Canonical two-qubit fringe projections: name, (signal, idler) splitter
#: output ports on the rotated level, (signal, idler) bits on the other
#: level, and the expected sign of the cos(2 alpha) term on the ideal
#: cluster state (oracle-derived).
FRINGE_PROJECTIONS = (
    ("d", (0, 0), (0, 0), +1),
    ("e", (0, 1), (1, 1), +1),
    ("f", (0, 0), (1, 1), -1),
    ("g", (0, 1), (0, 0), -1),
)


def cmd_fringe(cfg, outdir: Path, stamp: str, exact: bool) -> int:
    state, levels, layout = _make_state(cfg)
    state, _ = channel.transmit(state, _link(cfg))
    outer = levels.levels[0].name
    n_points = int(cfg["analysis"]["fringe_points"])
    alphas = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    detector = _detector(cfg)
    pairs = cfg["detection"]["pairs_per_setting"]
    dark = detector.dark_coincidence_rate
    rng = np.random.default_rng(int(cfg["seed"]))
    rates = {name: [] for name, *_ in FRINGE_PROJECTIONS}
    for alpha in alphas:
        setting = BeamSplitterSetting("XY", outer, float(alpha))
        probs = detection.joint_outcome_probabilities(
            state, setting, setting, levels, _base_cpm(cfg), layout, _penalty(cfg)
        )
        total = probs.sum()
        mixed = (1.0 - dark) * probs + dark * total / probs.size
        for name, ports, bits, _sign in FRINGE_PROJECTIONS:
            bs = (ports[0] << 1) | bits[0]
            bi = (ports[1] << 1) | bits[1]
            mean = pairs * detector.efficiency * mixed[bs, bi]
            value = mean if exact else float(rng.poisson(mean))
            rates[name].append(value)
    rows, fits = [], {}
    for name, ports, bits, sign in FRINGE_PROJECTIONS:
        fit = analysis.fit_interference(alphas, np.asarray(rates[name]))
        fitted_sign = 1 if abs(fit.phase_offset) < math.pi / 2 else -1
        fits[name] = {
            "visibility": fit.visibility,
            "phase_offset": fit.phase_offset,
            "harmonic": fit.harmonic,
            "chsh_pass": fit.chsh_pass,
            "expected_sign": sign,
            "sign_match": fitted_sign == sign,
        }
        rows += [(name, a, r) for a, r in zip(alphas, rates[name])]
    write_csv(outdir / "fringe.csv", ["projection", "alpha_rad", "rate"], rows, stamp)
    write_json(outdir / "fringe.json", {"fits": fits}, stamp)
    for name, f in fits.items():
        flag = "pass" if f["chsh_pass"] else "FAIL"
        print(f"projection {name}: V = {f['visibility']:.4f} (CHSH {flag})")
    return 0


@_from_config("waveform")
def cmd_visibility(cfg, outdir: Path, stamp: str, exact: bool) -> int:
    wf = cfg["waveform"]
    dispersions = wf["dispersions_ns_per_nm"]
    if not dispersions:
        raise ConfigError("dispersion list must not be empty")
    rows = []
    curves = {}
    for sep in wf["separations_ps"]:
        xs, ys = [], []
        for disp in dispersions:
            vis = waveform.visibility_bound(
                sep, wf["pulse_fwhm_ps"], waveform.ChirpSpec(disp),
                n_alpha=int(wf["n_alpha"]),
            )
            rows.append((disp, sep, vis))
            xs.append(disp)
            ys.append(vis)
        curves[f"{sep:g} ps"] = (xs, ys)
    write_csv(outdir / "visibility.csv",
              ["dispersion_ns_per_nm", "separation_ps", "visibility"], rows, stamp)
    if cfg["svg"]:
        write_line_svg(outdir / "visibility.svg", curves, stamp,
                       "dispersion (ns/nm)", "visibility")
    for (label, (xs, ys)) in sorted(curves.items()):
        print(f"{label}: visibility {ys[0]:.4f} .. {ys[-1]:.4f}")
    return 0


def cmd_drift(cfg, outdir: Path, stamp: str, exact: bool) -> int:
    link = _link(cfg)
    seed = int(cfg["seed"])
    trace = channel.simulate_drift(
        link, cfg["channel"]["drift"]["duration_s"], _thermal(cfg), seed
    )
    residual, rms = channel.stabilize(trace, _policy(cfg), seed + 1)
    rows = list(zip(trace.times_s, trace.offsets_ps, residual.offsets_ps))
    write_csv(outdir / "drift.csv",
              ["time_s", "offset_ps", "corrected_offset_ps"], rows, stamp)
    write_json(outdir / "drift.json", {
        "peak_ps": trace.peak_ps(),
        "rms_ps": trace.rms_ps(),
        "residual_rms_ps": rms,
    }, stamp)
    if cfg["svg"]:
        write_line_svg(outdir / "drift.svg", {
            "uncorrected": (trace.times_s, trace.offsets_ps),
            "corrected": (residual.times_s, residual.offsets_ps),
        }, stamp, "time (s)", "offset (ps)")
    print(f"peak offset {trace.peak_ps():.1f} ps, "
          f"stabilized residual RMS {rms:.2f} ps")
    return 0


@_from_config("capacity")
def cmd_capacity(cfg, outdir: Path, stamp: str, exact: bool) -> int:
    cap = cfg["capacity"]
    rate = analysis.multiplex_capacity(
        cap["total_bandwidth_ghz"],
        cap["qubit_spectral_width_ghz"],
        cap["stretched_bin_length_ns"],
    )
    channels = math.floor(
        cap["total_bandwidth_ghz"] / cap["qubit_spectral_width_ghz"]
    )
    write_json(outdir / "capacity.json", {
        "channels": channels,
        "repetition_rate_hz": 1e9 / cap["stretched_bin_length_ns"],
        "qubits_per_s": rate,
    }, stamp)
    print(f"multiplexing capacity: {rate / 1e9:.1f} GigaQubits/s "
          f"({channels} spectral channels)")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "transmit": cmd_transmit,
    "measure": cmd_measure,
    "witness": cmd_witness,
    "fringe": cmd_fringe,
    "visibility": cmd_visibility,
    "drift": cmd_drift,
    "capacity": cmd_capacity,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustersim",
        description="Multi-level time-bin cluster-state transmission simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--exact", action="store_true",
                       help="infinite-statistics mode (no sampling)")
        p.add_argument("--preset", default=None, choices=sorted(PRESETS),
                       help="named parameter preset")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config, args.preset, args.seed, args.out)
        outdir = Path(cfg["out"])
        stamp = config_hash(cfg)
        return COMMANDS[args.command](cfg, outdir, stamp, args.exact)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ClusterSimError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
