"""Command-line harness: configuration, pipelines and file outputs.

Every command is deterministic given (config, seed); outputs are plain
CSV/JSON (optionally SVG) written atomically and stamped with the hash
of the effective configuration.

Exit codes: 0 success, 1 simulation-contract violation, 2 config/usage
error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, channel, detection, waveform
from .cpm import CpmSettings
from .encoding import Level, LevelSpec, default_levels, layout_from_levels
from .errors import ClusterSimError, ConfigError
from .modes import state_to_json
from .source import ExcitationTrain, generate_pair_state, is_cluster_state


def _defaults(cls) -> dict:
    """JSON defaults of a dataclass's fields."""
    return {
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for f in dataclasses.fields(cls)
    }


# Each domain dataclass owns the defaults (and so the types) of its
# section; literals remain only for keys no dataclass owns.
DEFAULT_CONFIG = {
    "seed": 0,
    "out": ".",
    "svg": False,
    "encoding": {
        "levels": [list(dataclasses.astuple(lv)) for lv in default_levels().levels],
    },
    "source": _defaults(ExcitationTrain),
    "cpm": _defaults(CpmSettings),
    "waveform": {
        "dispersions_ns_per_nm": [2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0],
        "separations_ps": [100.0, 300.0],
    },
    "channel": {
        **_defaults(channel.FiberLink),
        "readout_time_s": 43200.0,
        "drift": {**_defaults(channel.ThermalModel), "duration_s": 86400.0},
        "stabilizer": _defaults(channel.StabilizerPolicy),
    },
    "detection": {
        **_defaults(detection.DetectorModel),
        "pairs_per_setting": 1000,
        "visibility_penalty": {},
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

# Sections keyed by level name, exempt from unknown-key rejection; each
# value must have the type of the given one, and load_config refuses a key
# that names no level of encoding.levels.
_OPEN_SECTIONS = {"detection.visibility_penalty": 1.0}

# Leaves that may be null: no peak rescale of the drift.
_NULLABLE = {"channel.drift.peak_k"}

# Ranges of the leaves that no domain constructor checks; the range of an
# open section holds for each of its values.  The upper bounds keep counts
# exact in a float (below 2**53), witness near 4 s and 120 MB (class-total
# resampling of 10**7 samples on 2 vCPUs) and fringe near 30 s and 250 MB.
_RANGES = {"seed": (0, math.inf), "detection.pairs_per_setting": (1, 10**15),
           "analysis.mc_samples": (2, 10**7),
           "analysis.fringe_points": (analysis.MIN_SCAN_PHASES, 10**5),
           "detection.visibility_penalty": (0.0, 1.0)}

# Fewest and most entries of the list leaves: the readout reads the paper's
# two-level tree, whose four bins take one pump phase each, and visibility
# computes one bound per (separation, dispersion) pair (README gives the
# time of 100 x 100 pairs: 1.3 s at 100-300 ps, 3.9 s at 100-10000 ps and
# 102 s at 131000 ps).
_ENTRIES = {"encoding.levels": (2, 2), "source.phases_rad": (4, 4),
            "waveform.dispersions_ns_per_nm": (1, 100), "waveform.separations_ps": (1, 100)}

#: The spawn key under SeedSequence(seed) of each random stream.  The drift
#: trace draws from the root; the settings spawn its children (0,)-(8,).
STREAMS = {"drift": (), "settings": (), "witness": (9,), "stabilizer": (10,), "fringe": (11,)}

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "an object"}


def _check_type(value, default, where: str) -> None:
    """Raise ConfigError unless value has the JSON type of its default.

    Integers are numbers and integral numbers are integers; booleans are
    neither.  Values are not converted, so config hashes stay as written.
    A list's length is checked first, against _ENTRIES (or the default's
    length when its items differ in type, a level [name, shift, freq]);
    then its items, against the default's first item or position by position.
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
        lo, hi = _ENTRIES.get(where, (len(default),) * 2 if positional else (0, math.inf))
        if not lo <= len(value) <= hi:
            raise ConfigError(f"{where} must have {lo} entries" if lo == hi else
                              f"{where} has {len(value)} entries, outside [{lo}, {hi}]")
        for i, item in enumerate(value):
            _check_type(item, default[i if positional else 0], f"{where}[{i}]")


def _merge(base: dict, override: dict, path: tuple = ()) -> dict:
    """base with override's checked values; untouched sections are shared, not copied."""
    out = dict(base)
    section = ".".join(path)
    for key, value in override.items():
        where = ".".join(path + (str(key),))
        rule = section if section in _OPEN_SECTIONS else where
        if key in base:
            default = base[key]
        elif section in _OPEN_SECTIONS:
            default = _OPEN_SECTIONS[section]
        else:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(default, dict) and isinstance(value, dict):
            out[key] = _merge(default, value, path + (key,))
        else:
            _check_type(value, default, where)
            lo, hi = _RANGES.get(rule, (-math.inf, math.inf))
            if rule in _RANGES and not lo <= value <= hi:
                raise ConfigError(f"{where} = {value} outside [{lo}, {hi}]")
            out[key] = value
    return out


def _reject_constant(name: str):
    """json parse_constant hook: NaN and Infinity are not JSON numbers."""
    raise ConfigError(f"malformed config JSON: {name} is not a JSON number")


def load_config(
    path: str | None, preset: str | None, seed: int | None, out: str | None
) -> dict:
    cfg = DEFAULT_CONFIG
    if preset is not None:
        cfg = _merge(cfg, PRESETS[preset])
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh, parse_constant=_reject_constant)
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
    names = {name for name, *_ in cfg["encoding"]["levels"]}
    for key in cfg["detection"]["visibility_penalty"]:
        if key not in names:
            raise ConfigError(f"detection.visibility_penalty.{key} names no level "
                              f"of encoding.levels")
    return cfg


def stream(seed: int, name: str) -> np.random.SeedSequence:
    """The seed sequence of random stream `name` (see STREAMS)."""
    return np.random.SeedSequence(int(seed), spawn_key=STREAMS[name])


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


def write_json(path: Path, payload: dict, stamp: str) -> None:
    doc = {"config_sha256": stamp, **payload}
    text = json.dumps(doc, sort_keys=True, indent=2)
    _atomic_write(path, text + "\n")


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".12g")
    return str(x)


def _spec(column) -> str | None:
    """%-spec of a column: %.12g if every value is a float, %s if none is, else None."""
    floats = [issubclass(t, (float, np.floating)) for t in set(map(type, column))]
    return "%.12g" if all(floats) else None if any(floats) else "%s"


def write_csv(path: Path, columns: list[str], rows: list, stamp: str) -> None:
    """Write a stamped CSV: the config_sha256 comment, the header, then rows.

    Format contract: a float cell (Python float or numpy floating) is
    written as format(float(x), ".12g"), so nan, inf and -0.0 read "nan",
    "inf" and "-0"; any other cell (int, numpy integer, bool, str) as str(x).
    Rows have one cell per column.  The cell types of each column pick one
    %-spec for the whole file, so a row is written by one %-template; a
    column that mixes floats with other types (a config list like [2, 5.5])
    is formatted value by value.
    """
    lines = [f"# config_sha256={stamp}", ",".join(columns)]
    if rows:
        specs = [_spec(column) for column in zip(*rows)]
        if None in specs:
            rows = [tuple(_fmt(v) if spec is None else v for v, spec in zip(row, specs))
                    for row in rows]
        template = ",".join(spec or "%s" for spec in specs)
        lines += [template % tuple(row) for row in rows]
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

@contextlib.contextmanager
def _from_config(where: str):
    """Report a domain ValueError on config values as a ConfigError.

    The one place a domain error becomes a config error: a domain
    constructor or function rejects a bad parameter with ValueError, which
    means a config error (exit 2), and raises a ClusterSimError for a
    simulation-contract violation (exit 1), which passes through.  Works as
    a ``with`` block and as a function decorator.
    """
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build(cls, cfg: dict, where: str):
    """cls from the keys of config section `where` that name its fields.

    Every field is a leaf of its section.  Lists become tuples and integral
    numbers become ints for int fields.
    """
    section = cfg
    for key in where.split("."):
        section = section[key]
    kwargs = {}
    for f in dataclasses.fields(cls):
        value = section[f.name]
        if isinstance(value, list):
            value = tuple(value)
        elif type(f.default) is int:
            value = int(value)
        kwargs[f.name] = value
    with _from_config(where):
        return cls(**kwargs)


def _drift(cfg, link: channel.FiberLink) -> channel.DriftTrace:
    """The link's thermal drift trace over channel.drift.duration_s."""
    model = _build(channel.ThermalModel, cfg, "channel.drift")
    duration_s = cfg["channel"]["drift"]["duration_s"]
    rng = np.random.default_rng(stream(cfg["seed"], "drift"))
    with _from_config("channel.drift"):
        return channel.simulate_drift(link, duration_s, model, rng)


@_from_config("encoding")
def _make_state(cfg):
    levels = LevelSpec(tuple(Level(*lv) for lv in cfg["encoding"]["levels"]))
    layout = layout_from_levels(levels)
    train = _build(ExcitationTrain, cfg, "source")
    return generate_pair_state(train), levels, layout


# ----------------------------------------------------------------------
# commands

def cmd_generate(cfg, outdir: Path, stamp: str, exact: bool) -> int:
    state, levels, layout = _make_state(cfg)
    ok, fidelity = is_cluster_state(state)
    write_json(outdir / "state.json",
               {"state": state_to_json(state, layout), "fidelity": fidelity},
               stamp)
    print(f"fidelity vs target cluster state: {fidelity:.6f}")
    if not ok:
        print("warning: generated state is not the target cluster state")
    return 0


def cmd_transmit(cfg, outdir: Path, stamp: str, exact: bool) -> int:
    state, levels, layout = _make_state(cfg)
    link = _build(channel.FiberLink, cfg, "channel")
    trace = _drift(cfg, link)
    out = channel.transmit(state, link)
    with _from_config("channel.readout_time_s"):
        offset = trace.offset_at(cfg["channel"]["readout_time_s"])
    corrupted = channel.bin_assignment_corrupted(offset, layout)
    write_json(outdir / "state.json", {"state": state_to_json(out, layout)}, stamp)
    write_json(outdir / "transmit.json", {
        "retained_fraction": link.retained_fraction,
        "arrival_offset_ps": offset,
        "bin_assignment_corrupted": corrupted,
    }, stamp)
    print(f"retained fraction {link.retained_fraction:.4f}, "
          f"arrival offset {offset:.2f} ps"
          + (" (bin assignment corrupted)" if corrupted else ""))
    return 0


def _readout(cfg) -> detection.Readout:
    """The readout that measure, witness and fringe share.

    Sections are built as encoding/source, channel, detection, then cpm, so
    every readout command reports the same first of several bad values.
    """
    state, levels, layout = _make_state(cfg)
    state = channel.transmit(state, _build(channel.FiberLink, cfg, "channel"))
    detector = _build(detection.DetectorModel, cfg, "detection")
    with _from_config("detection"):
        jitter = detection.jitter_matrices(detector, layout)
    return detection.Readout(state, levels, _build(CpmSettings, cfg, "cpm"), detector,
                             cfg["detection"]["pairs_per_setting"],
                             cfg["detection"]["visibility_penalty"], jitter)


def _sampled_histograms(cfg, exact: bool):
    readout = _readout(cfg)
    return detection.sample_coincidences(
        readout, detection.build_default_schedule(readout.levels),
        stream(cfg["seed"], "settings"), exact,
    )


def cmd_measure(cfg, outdir: Path, stamp: str, exact: bool) -> int:
    hists = _sampled_histograms(cfg, exact)
    rows = [
        (h.pairing.name, bs, bi, h.counts[bs, bi])
        for h in hists
        for bs in range(h.counts.shape[0])
        for bi in range(h.counts.shape[1])
    ]
    write_csv(outdir / "histograms.csv",
              ["setting", "s_bin", "i_bin", "counts"], rows, stamp)
    write_json(outdir / "histograms.json", {
        "settings": [
            {
                "name": h.pairing.name,
                "signal": [h.pairing.signal_setting.kind, h.pairing.signal_setting.level],
                "idler": [h.pairing.idler_setting.kind, h.pairing.idler_setting.level],
                "counts": h.counts.tolist(),
                "ancillary": h.ancillary,
            }
            for h in hists
        ]
    }, stamp)
    total = sum(h.counts.sum() for h in hists)
    print(f"recorded {total:.0f} coincidences over {len(hists)} settings")
    return 0


def cmd_witness(cfg, outdir: Path, stamp: str, exact: bool) -> int:
    raw = detection.raw_basis_counts(_sampled_histograms(cfg, exact))
    projections = detection.extract_projections(raw)
    rows = [
        (basis, outcome, projections[basis][outcome])
        for basis in projections
        for outcome in range(16)
    ]
    write_csv(outdir / "projections.csv",
              ["basis", "outcome", "value"], rows, stamp)
    stderr = stderr_delta = None
    if not exact:
        stderr, hist, edges = analysis.monte_carlo_error(
            raw, int(cfg["analysis"]["mc_samples"]), stream(cfg["seed"], "witness")
        )
        stderr_delta = analysis.delta_method_stderr(raw)
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
        "stderr_delta": stderr_delta,
        "fidelity_bound": report.fidelity_bound,
        "term_pass": list(report.term_pass),
        "mean_pass": report.mean_pass,
        "certifies_entanglement": report.certifies_entanglement(),
    }, stamp)
    err = f" +/- {stderr:.4f}" if stderr is not None else ""
    print(f"W = {report.witness:+.4f}{err}; F >= {report.fidelity_bound:.4f}")
    return 0


def cmd_fringe(cfg, outdir: Path, stamp: str, exact: bool) -> int:
    n_points = int(cfg["analysis"]["fringe_points"])
    means = detection.fringe_means(_readout(cfg), n_points)
    if exact:
        rates = means
    else:
        rng = np.random.default_rng(stream(cfg["seed"], "fringe"))
        rates = rng.poisson(means).astype(float)
    alphas = analysis.scan_phases(n_points)
    rows, fits = [], {}
    for (name, _ports, _bits, sign), column in zip(detection.FRINGE_PROJECTIONS, rates.T):
        fit = analysis.fit_interference(column)
        fitted_sign = 1 if abs(fit.phase_offset) < math.pi / 2 else -1
        fits[name] = {
            "visibility": fit.visibility,
            "phase_offset": fit.phase_offset,
            "harmonic": fit.harmonic,
            "chsh_pass": fit.chsh_pass,
            "expected_sign": sign,
            "sign_match": fitted_sign == sign,
        }
        rows += [(name, a, r) for a, r in zip(alphas, column)]
    write_csv(outdir / "fringe.csv", ["projection", "alpha_rad", "rate"], rows, stamp)
    write_json(outdir / "fringe.json", {"fits": fits}, stamp)
    for name, f in fits.items():
        flag = "pass" if f["chsh_pass"] else "FAIL"
        print(f"projection {name}: V = {f['visibility']:.4f} (CHSH {flag})")
    return 0


@_from_config("waveform")
def cmd_visibility(cfg, outdir: Path, stamp: str, exact: bool) -> int:
    wf = cfg["waveform"]
    fwhm = _build(ExcitationTrain, cfg, "source").pulse_fwhm_ps
    dispersions = wf["dispersions_ns_per_nm"]
    carrier = _build(CpmSettings, cfg, "cpm").carrier_wavelength_nm
    rows = []
    curves = {}
    for sep in wf["separations_ps"]:
        ys = waveform.visibility_bound(sep, fwhm, dispersions, carrier).tolist()
        rows += [(disp, sep, vis) for disp, vis in zip(dispersions, ys)]
        curves[f"{sep:g} ps"] = (dispersions, ys)
    write_csv(outdir / "visibility.csv",
              ["dispersion_ns_per_nm", "separation_ps", "visibility"], rows, stamp)
    if cfg["svg"]:
        write_line_svg(outdir / "visibility.svg", curves, stamp,
                       "dispersion (ns/nm)", "visibility")
    for (label, (xs, ys)) in sorted(curves.items()):
        print(f"{label}: visibility {ys[0]:.4f} .. {ys[-1]:.4f}")
    return 0


def cmd_drift(cfg, outdir: Path, stamp: str, exact: bool) -> int:
    trace = _drift(cfg, _build(channel.FiberLink, cfg, "channel"))
    policy = _build(channel.StabilizerPolicy, cfg, "channel.stabilizer")
    rng = np.random.default_rng(stream(cfg["seed"], "stabilizer"))
    with _from_config("channel.stabilizer"):
        residual, rms = channel.stabilize(trace, policy, rng)
    rows = list(zip(trace.times_s.tolist(), trace.offsets_ps.tolist(),
                    residual.offsets_ps.tolist()))
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
    budget = analysis.multiplex_budget(**cfg["capacity"])
    write_json(outdir / "capacity.json", budget, stamp)
    print(f"multiplexing capacity: {budget['qubits_per_s'] / 1e9:.1f} GigaQubits/s "
          f"({budget['channels']} spectral channels)")
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

#: The commands with an infinite-statistics mode; the others refuse --exact.
EXACT_COMMANDS = {"measure", "witness", "fringe"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustersim",
        description="Multi-level time-bin cluster-state transmission simulator",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="RNG seed override")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--exact", action="store_true",
                        help="infinite-statistics mode (no sampling) of measure, "
                             "witness and fringe")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="named parameter preset")
    return parser


# parse_args keeps no state between calls, so one parser serves every main call
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.exact and args.command not in EXACT_COMMANDS:
            _PARSER.error("--exact applies to measure, witness and fringe")
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
