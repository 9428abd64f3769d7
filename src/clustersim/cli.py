"""Command-line harness: configuration, pipelines and file outputs.

load_config checks the whole config and builds every domain object once,
into one frozen Setup, so all commands refuse a bad config alike.  Every
command reads that Setup, is deterministic given (config, seed), and
returns its documents by file name and its stdout lines; main alone stamps
each document with the config's hash, renders it as CSV, JSON or SVG, and
writes every file atomically once all have rendered.

Exit codes: 0 success, 1 simulation-contract violation, 2 config/usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, channel, detection, waveform
from .cpm import CpmSettings, check_copy_spacing
from .encoding import DEFAULT_TREE, Level, LevelTree
from .errors import ClusterSimError, ConfigError
from .modes import JointTwoPhotonState, state_to_json
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
        "levels": [list(lv) for lv in dataclasses.astuple(DEFAULT_TREE)],
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
        "drift": _defaults(channel.ThermalModel),
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

# Ranges of the leaves that no domain constructor checks (an open section's
# holds for each value); upper bounds keep counts exact in a float and
# witness and fringe within seconds and a few hundred MB (README).
_RANGES = {"seed": (0, math.inf), "detection.pairs_per_setting": (1, 10**15),
           "analysis.mc_samples": (2, 10**7),
           "analysis.fringe_points": (analysis.MIN_SCAN_PHASES, 10**5),
           "detection.visibility_penalty": (0.0, 1.0)}

# Fewest and most entries of the list leaves: the readout reads the paper's
# two-level tree, one pump phase per bin, and visibility computes one bound
# per (separation, dispersion) pair (README times 100 x 100 pairs).
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


def _from_config(where: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), whose ValueError, a bad value of section `where`, is a ConfigError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build(cls, cfg: dict, where: str):
    """cls from its fields' leaves in section `where`: lists as tuples, ints for int fields."""
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
    return _from_config(where, cls, **kwargs)


@dataclasses.dataclass(frozen=True, eq=False)
class Setup:
    """The domain objects of one checked config, whose merged dict stamps every output."""

    config: dict
    tree: LevelTree
    train: ExcitationTrain
    state: JointTwoPhotonState  # before the link; readout.state is after it
    link: channel.FiberLink
    thermal: channel.ThermalModel
    stabilizer: channel.StabilizerPolicy
    readout_time_s: float  # inside the drift trace's span
    readout: detection.Readout
    cpm: CpmSettings
    fringe_points: int
    mc_samples: int
    capacity: dict

    def drift_trace(self) -> channel.DriftTrace:
        """The drift trace, drawn from its stream."""
        rng = np.random.default_rng(stream(self.config["seed"], "drift"))
        return channel.simulate_drift(self.link, self.thermal, rng)


def load_config(
    path: str | None, preset: str | None, seed: int | None, out: str | None
) -> Setup:
    """The Setup of the defaults merged with the preset, the file, then the options.

    Every section is checked here, in one order, so every command reports
    the same first bad value, whichever sections it reads.
    """
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
    tree = _from_config("encoding", LevelTree, *(Level(*lv) for lv in cfg["encoding"]["levels"]))
    train = _build(ExcitationTrain, cfg, "source")
    link = _build(channel.FiberLink, cfg, "channel")
    thermal = _build(channel.ThermalModel, cfg, "channel.drift")
    # every drawn offset lies within this amplitude, so no draw can overflow
    _from_config("channel.drift", channel.peak_offset_ps, link, thermal)
    stabilizer = _build(channel.StabilizerPolicy, cfg, "channel.stabilizer")
    _from_config("channel.stabilizer", channel.check_correction_interval,
                 stabilizer, thermal.step_s)
    readout_time_s = cfg["channel"]["readout_time_s"]
    end_s = thermal.step_s * (thermal.samples - 1)
    if not 0.0 <= readout_time_s <= end_s:
        raise ConfigError(f"channel.readout_time_s: {readout_time_s:g} s is outside the drift "
                          f"trace's span [0, {end_s:g}] s")
    detector = _build(detection.DetectorModel, cfg, "detection")
    jitter = _from_config("detection", detection.jitter_matrices, detector, tree)
    cpm = _build(CpmSettings, cfg, "cpm")
    # inner level first, as the schedule reads them; a GridMismatch exits 1
    check_copy_spacing(cpm, tree.inner, tree.outer)
    wf = cfg["waveform"]
    _from_config("waveform", waveform.check_ranges, wf["separations_ps"],
                 wf["dispersions_ns_per_nm"], cpm.carrier_wavelength_nm)
    capacity = _from_config("capacity", analysis.multiplex_budget, **cfg["capacity"])
    state = generate_pair_state(train)
    readout = detection.Readout(channel.transmit(state, link), tree, detector,
                                cfg["detection"]["pairs_per_setting"],
                                cfg["detection"]["visibility_penalty"], jitter)
    return Setup(cfg, tree, train, state, link, thermal, stabilizer, readout_time_s,
                 readout, cpm, int(cfg["analysis"]["fringe_points"]),
                 int(cfg["analysis"]["mc_samples"]), capacity)


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
# output: the atomic write, and a renderer of stamped text per file suffix

def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def write_json(payload: dict, stamp: str) -> str:
    doc = {"config_sha256": stamp, **payload}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".12g")
    return str(x)


def _spec(column) -> str | None:
    """%-spec of a column: %.12g if every value is a float, %s if none is, else None."""
    floats = [issubclass(t, (float, np.floating)) for t in set(map(type, column))]
    return "%.12g" if all(floats) else None if any(floats) else "%s"


def write_csv(columns: list[str], rows: list, stamp: str) -> str:
    """A stamped CSV: the config_sha256 comment, the header, then rows.

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
    return "\n".join(lines) + "\n"


def write_line_svg(curves: dict, x_label: str, y_label: str, stamp: str) -> str:
    """Minimal deterministic polyline plot (one curve per label)."""
    width, height, pad = 640, 400, 50
    xs = np.concatenate([np.asarray(c[0], dtype=float) for c in curves.values()])
    ys = np.concatenate([np.asarray(c[1], dtype=float) for c in curves.values()])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    # a flat axis spans max(1, |start|), since start + 1 == start from 2**53 on
    if x1 == x0:
        x1 = x0 + max(1.0, abs(x0))
    if y1 == y0:
        y1 = y0 + max(1.0, abs(y0))
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
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------------
# commands

def cmd_generate(s: Setup, exact: bool) -> tuple[dict, list[str]]:
    ok, fidelity = is_cluster_state(s.state)
    lines = [f"fidelity vs target cluster state: {fidelity:.6f}"]
    if not ok:
        lines.append("warning: generated state is not the target cluster state")
    return {"state.json": {"state": state_to_json(s.state, s.tree), "fidelity": fidelity}}, lines


def cmd_transmit(s: Setup, exact: bool) -> tuple[dict, list[str]]:
    offset = s.drift_trace().offset_at(s.readout_time_s)
    corrupted = channel.bin_assignment_corrupted(offset, s.tree)
    return {"transmit.json": {
        "retained_fraction": s.link.retained_fraction,
        "arrival_offset_ps": offset,
        "bin_assignment_corrupted": corrupted,
        "state": state_to_json(s.readout.state, s.tree),
    }}, [f"retained fraction {s.link.retained_fraction:.4f}, arrival offset {offset:.2f} ps"
         + (" (bin assignment corrupted)" if corrupted else "")]


def _sampled_histograms(s: Setup, exact: bool):
    schedule = detection.build_default_schedule(s.tree)
    return detection.sample_coincidences(s.readout, schedule,
                                         stream(s.config["seed"], "settings"), exact)


def cmd_measure(s: Setup, exact: bool) -> tuple[dict, list[str]]:
    hists = _sampled_histograms(s, exact)
    rows = [(h.pairing.name, bs, bi, h.counts[bs, bi])
            for h in hists for bs, bi in np.ndindex(h.counts.shape)]
    total = sum(h.counts.sum() for h in hists)
    return {
        "histograms.csv": (["setting", "s_bin", "i_bin", "counts"], rows),
        "histograms.json": {"settings": [{
            "name": h.pairing.name,
            "signal": [h.pairing.signal_setting.kind, h.pairing.signal_setting.level],
            "idler": [h.pairing.idler_setting.kind, h.pairing.idler_setting.level],
            "counts": h.counts.tolist(),
            "ancillary": h.ancillary,
        } for h in hists]},
    }, [f"recorded {total:.0f} coincidences over {len(hists)} settings"]


def cmd_witness(s: Setup, exact: bool) -> tuple[dict, list[str]]:
    raw = analysis.raw_basis_counts(_sampled_histograms(s, exact))
    projections = analysis.extract_projections(raw)
    rows = [(basis, outcome, projections[basis][outcome])
            for basis in projections for outcome in range(16)]
    files = {"projections.csv": (["basis", "outcome", "value"], rows)}
    stderr = stderr_delta = None
    if not exact:
        totals = analysis.class_totals(raw)
        stderr, hist, edges = analysis.monte_carlo_error(
            totals, s.mc_samples, stream(s.config["seed"], "witness"))
        stderr_delta = analysis.delta_method_stderr(totals)
        files["witness_hist.csv"] = (["bin_left", "bin_right", "count"],
                                     list(zip(edges[:-1], edges[1:], hist.tolist())))
    report = analysis.witness(projections, stderr, stderr_delta)
    files["witness.json"] = report
    err = f" +/- {stderr:.4f}" if stderr is not None else ""
    return files, [f"W = {report['witness']:+.4f}{err}; F >= {report['fidelity_bound']:.4f}"]


def cmd_fringe(s: Setup, exact: bool) -> tuple[dict, list[str]]:
    means = detection.fringe_means(s.readout, s.fringe_points)
    if exact:
        rates = means
    else:
        rng = np.random.default_rng(stream(s.config["seed"], "fringe"))
        rates = rng.poisson(means).astype(float)
    alphas = analysis.scan_phases(s.fringe_points)
    rows, fits = [], {}
    for (name, _ports, _bits, sign), column in zip(detection.FRINGE_PROJECTIONS, rates.T):
        fits[name] = analysis.fit_interference(column, sign)
        rows += [(name, a, r) for a, r in zip(alphas, column)]
    lines = [f"projection {name}: V = {f['visibility']:.4f} "
             f"(CHSH {'pass' if f['chsh_pass'] else 'FAIL'})" for name, f in fits.items()]
    return {"fringe.csv": (["projection", "alpha_rad", "rate"], rows),
            "fringe.json": {"fits": fits}}, lines


def cmd_visibility(s: Setup, exact: bool) -> tuple[dict, list[str]]:
    wf = s.config["waveform"]
    dispersions = wf["dispersions_ns_per_nm"]
    rows, curves = [], {}
    for sep in wf["separations_ps"]:
        ys = waveform.visibility_bound(sep, s.train.pulse_fwhm_ps, dispersions,
                                       s.cpm.carrier_wavelength_nm).tolist()
        rows += [(disp, sep, vis) for disp, vis in zip(dispersions, ys)]
        curves[f"{sep:.12g} ps"] = (dispersions, ys)
    files = {"visibility.csv": (["dispersion_ns_per_nm", "separation_ps", "visibility"], rows)}
    if s.config["svg"]:
        files["visibility.svg"] = (curves, "dispersion (ns/nm)", "visibility")
    return files, [f"{label}: visibility {ys[0]:.4f} .. {ys[-1]:.4f}"
                   for label, (xs, ys) in sorted(curves.items())]


def cmd_drift(s: Setup, exact: bool) -> tuple[dict, list[str]]:
    trace = s.drift_trace()
    rng = np.random.default_rng(stream(s.config["seed"], "stabilizer"))
    residual, rms = channel.stabilize(trace, s.stabilizer, rng)
    rows = list(zip(trace.times_s.tolist(), trace.offsets_ps.tolist(),
                    residual.offsets_ps.tolist()))
    files = {
        "drift.csv": (["time_s", "offset_ps", "corrected_offset_ps"], rows),
        "drift.json": {"peak_ps": trace.peak_ps(), "rms_ps": trace.rms_ps(),
                       "residual_rms_ps": rms},
    }
    if s.config["svg"]:
        files["drift.svg"] = ({
            "uncorrected": (trace.times_s, trace.offsets_ps),
            "corrected": (residual.times_s, residual.offsets_ps),
        }, "time (s)", "offset (ps)")
    return files, [f"peak offset {trace.peak_ps():.1f} ps, stabilized residual RMS {rms:.2f} ps"]


def cmd_capacity(s: Setup, exact: bool) -> tuple[dict, list[str]]:
    return {"capacity.json": s.capacity}, [
        f"multiplexing capacity: {s.capacity['qubits_per_s'] / 1e9:.1f} GigaQubits/s "
        f"({s.capacity['channels']} spectral channels)"]


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
        setup = load_config(args.config, args.preset, args.seed, args.out)
        stamp = config_hash(setup.config)
        files, lines = COMMANDS[args.command](setup, args.exact)
        # render every document by its suffix before writing any file, so a
        # render error writes nothing: a .json document is a payload dict, a
        # .csv one (columns, rows) and an .svg one (curves, x label, y label)
        texts = {name: write_json(doc, stamp) if name.endswith(".json")
                 else write_csv(*doc, stamp) if name.endswith(".csv")
                 else write_line_svg(*doc, stamp) for name, doc in files.items()}
        for name, text in texts.items():
            _atomic_write(Path(setup.config["out"]) / name, text)
        for line in lines:
            print(line)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ClusterSimError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
