"""End-to-end CLI runs: exit codes, outputs and byte-level determinism."""

import contextlib
import copy
import importlib.util
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersim import cli, detection
from clustersim.cli import DEFAULT_CONFIG, config_hash, load_config, main
from oracles import cell_csv_lines

FAST_OVERRIDES = {
    "waveform": {"dispersions_ns_per_nm": [2.0, 10.0]},
    "detection": {"pairs_per_setting": 200},
    "analysis": {"mc_samples": 2000, "fringe_points": 12},
    "channel": {"readout_time_s": 7200.0, "drift": {"duration_s": 14400.0}},
}

EXACT_NOISELESS = {
    "detection": {
        "jitter_signal_ps": 0.0,
        "jitter_idler_ps": 0.0,
        "tdc_jitter_ps": 0.0,
    },
}


def _write_config(tmp_path, overrides, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return str(path)


def _run(args):
    return main(list(args))


def _snapshot(outdir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()
    }


@pytest.mark.parametrize("command,extra", [
    ("generate", ()),
    ("transmit", ()),
    ("measure", ()),
    ("witness", ()),
    ("fringe", ()),
    ("visibility", ()),
    ("drift", ()),
    ("capacity", ()),
])
def test_commands_are_byte_deterministic(tmp_path, capsys, command, extra):
    cfg = _write_config(tmp_path, FAST_OVERRIDES)
    snaps = []
    for run in ("first", "second"):
        outdir = tmp_path / f"{command}-{run}"
        code = _run(
            [command, "--config", cfg, "--seed", "11", "--out", str(outdir), *extra]
        )
        assert code == 0
        snaps.append(_snapshot(outdir))
    assert snaps[0].keys() == snaps[1].keys()
    assert len(snaps[0]) > 0
    for name in snaps[0]:
        assert snaps[0][name] == snaps[1][name], f"{command}/{name} differs"
    assert capsys.readouterr().out  # every command reports something


def test_seed_changes_sampled_outputs(tmp_path):
    cfg = _write_config(tmp_path, FAST_OVERRIDES)
    outputs = []
    for seed in ("1", "2"):
        outdir = tmp_path / f"seed-{seed}"
        assert _run(["measure", "--config", cfg, "--seed", seed,
                     "--out", str(outdir)]) == 0
        outputs.append((outdir / "histograms.csv").read_bytes())
    assert outputs[0] != outputs[1]


def test_exact_witness_is_minus_one(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**FAST_OVERRIDES, **{
        "detection": {**FAST_OVERRIDES["detection"], **EXACT_NOISELESS["detection"]},
    }})
    outdir = tmp_path / "w"
    assert _run(["witness", "--config", cfg, "--out", str(outdir), "--exact"]) == 0
    report = json.loads((outdir / "witness.json").read_text())
    assert report["witness"] == pytest.approx(-1.0, abs=1e-9)
    assert report["fidelity_bound"] == pytest.approx(1.0, abs=1e-9)
    assert report["certifies_entanglement"] is True
    assert all(report["term_pass"]) and report["mean_pass"]
    assert report["stderr"] is None
    assert report["stderr_delta"] is None
    assert not (outdir / "witness_hist.csv").exists()
    assert "W = -1.0000" in capsys.readouterr().out


def test_sampled_witness_writes_histogram(tmp_path):
    cfg = _write_config(tmp_path, FAST_OVERRIDES)
    outdir = tmp_path / "wh"
    assert _run(["witness", "--config", cfg, "--out", str(outdir)]) == 0
    assert (outdir / "witness_hist.csv").exists()
    report = json.loads((outdir / "witness.json").read_text())
    assert report["stderr"] > 0


def test_delta_method_stderr_matches_monte_carlo(tmp_path):
    outdir = tmp_path / "wd"
    assert _run(["witness", "--preset", "paper-default", "--seed", "0",
                 "--out", str(outdir)]) == 0
    report = json.loads((outdir / "witness.json").read_text())
    assert report["stderr_delta"] == pytest.approx(report["stderr"], rel=0.03)


def test_generate_reports_fidelity(tmp_path, capsys):
    outdir = tmp_path / "g"
    assert _run(["generate", "--out", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "fidelity" in out and "1.000000" in out
    assert "warning" not in out
    # a wrong phase program triggers the warning path
    cfg = _write_config(
        tmp_path, {"source": {"phases_rad": [0.0, 0.0, 0.0, 0.0]}}, "bad.json"
    )
    assert _run(["generate", "--config", cfg, "--out", str(tmp_path / "g2")]) == 0
    out = capsys.readouterr().out
    assert "warning" in out and "0.250000" in out


def test_exact_fringe_full_visibility(tmp_path):
    cfg = _write_config(tmp_path, {**FAST_OVERRIDES, **{
        "detection": {**FAST_OVERRIDES["detection"], **EXACT_NOISELESS["detection"]},
    }})
    outdir = tmp_path / "f"
    assert _run(["fringe", "--config", cfg, "--out", str(outdir), "--exact"]) == 0
    fits = json.loads((outdir / "fringe.json").read_text())["fits"]
    assert set(fits) == {"d", "e", "f", "g"}
    for f in fits.values():
        assert f["visibility"] == pytest.approx(1.0, abs=1e-6)
        assert f["harmonic"] == 2
        assert f["chsh_pass"] and f["sign_match"]


def test_fringe_draws_cells_phase_by_phase(tmp_path):
    """fringe.csv rates replay as one Poisson draw per cell, phase-major."""
    outdir = tmp_path / "f"
    assert _run(["fringe", "--seed", "3", "--out", str(outdir)]) == 0
    cfg = load_config(None, None, 3, str(outdir))
    means = detection.fringe_means(cli._readout(cfg), cfg["analysis"]["fringe_points"])
    rng = np.random.default_rng(cli.stream(3, "fringe"))
    replayed = [[float(rng.poisson(mean)) for mean in row] for row in means]
    rates = {}
    for line in (outdir / "fringe.csv").read_text().splitlines()[2:]:
        name, _alpha, rate = line.split(",")
        rates.setdefault(name, []).append(float(rate))
    assert list(rates) == [name for name, *_ in detection.FRINGE_PROJECTIONS]
    for j, name in enumerate(rates):
        assert rates[name] == [row[j] for row in replayed]


def test_preset_applies_noise(tmp_path):
    cfg = _write_config(tmp_path, FAST_OVERRIDES)
    outdir = tmp_path / "p"
    assert _run(["witness", "--config", cfg, "--preset", "paper-default",
                 "--seed", "4", "--out", str(outdir), "--exact"]) == 0
    report = json.loads((outdir / "witness.json").read_text())
    # exact run with the calibrated white-noise fraction: W = -1 + 3p
    assert report["witness"] == pytest.approx(-0.7999, abs=1e-3)


def test_capacity_output(tmp_path, capsys):
    outdir = tmp_path / "c"
    assert _run(["capacity", "--out", str(outdir)]) == 0
    doc = json.loads((outdir / "capacity.json").read_text())
    assert doc["channels"] == 200
    assert doc["qubits_per_s"] == pytest.approx(1e11)
    assert "100.0 GigaQubits/s" in capsys.readouterr().out


def test_drift_csv_columns(tmp_path):
    cfg = _write_config(tmp_path, FAST_OVERRIDES)
    outdir = tmp_path / "d"
    assert _run(["drift", "--config", cfg, "--seed", "0", "--out", str(outdir)]) == 0
    lines = (outdir / "drift.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "time_s,offset_ps,corrected_offset_ps"
    doc = json.loads((outdir / "drift.json").read_text())
    assert doc["residual_rms_ps"] < doc["rms_ps"]


def test_svg_option(tmp_path):
    cfg = _write_config(tmp_path, {**FAST_OVERRIDES, "svg": True})
    outdir = tmp_path / "s"
    assert _run(["visibility", "--config", cfg, "--out", str(outdir)]) == 0
    svg = (outdir / "visibility.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


CSV_CASES = {
    "floats": [(0.1 + 0.2, np.float64(1e16), np.float32(0.1)),
               (float("nan"), float("inf"), float("-inf")),
               (-0.0, np.float64(-0.0), 5e-324),
               (np.nan, -np.inf, 1e308)],
    "non-floats": [(np.int64(-7), True, "T"), (3, np.bool_(False), "a,b"),
                   (10**20, np.int32(2), "%s %d")],
    "mixed-columns": [(2, 0.1, True), (5.5, np.int64(4), 0.25), (np.float64(7.0), "x", 1)],
    "waveform-list": [(disp, 300.5, 0.1 * disp) for disp in [2, 5.5, 10, 150.0]],
    "one-column": [(1.5,), (2.5,)],
    "empty": [],
}


@pytest.mark.parametrize("rows", CSV_CASES.values(), ids=CSV_CASES.keys())
def test_csv_rows_match_cell_oracle(tmp_path, rows):
    """One %-template per file writes the bytes the per-cell formatter wrote."""
    width = len(rows[0]) if rows else 3
    columns = [f"c{k}" for k in range(width)]
    cli.write_csv(tmp_path / "t.csv", columns, rows, "0123456789abcdef")
    expected = ["# config_sha256=0123456789abcdef", ",".join(columns), *cell_csv_lines(rows)]
    assert (tmp_path / "t.csv").read_text() == "\n".join(expected) + "\n"


def test_csv_float_lists_match_numpy_scalars(tmp_path):
    """drift passes tolist() columns; numpy scalars of the same values write the same bytes."""
    values = np.random.default_rng(0).standard_normal((300, 3)) * [1e-300, 1.0, 1e300]
    values[0] = [-0.0, np.inf, 5e-324]
    cli.write_csv(tmp_path / "py.csv", ["a", "b", "c"], [tuple(r) for r in values.tolist()], "s")
    cli.write_csv(tmp_path / "np.csv", ["a", "b", "c"], list(zip(*values.T)), "s")
    assert (tmp_path / "py.csv").read_bytes() == (tmp_path / "np.csv").read_bytes()


def test_commands_repeat_in_one_process(tmp_path):
    """Each command writes the same bytes and stdout after other presets and configs ran.

    Guards state kept across main calls: the one parser and each file's CSV template.
    """
    plain = ["--config", _write_config(tmp_path, FAST_OVERRIDES), "--seed", "3"]
    other = ["--config", _write_config(tmp_path, {
        **FAST_OVERRIDES, "svg": True,
        "waveform": {"dispersions_ns_per_nm": [2, 5.5], "separations_ps": [100, 250.5]},
        "channel": {"stabilizer": {"correction_interval_s": 420.0}},
    }, name="other.json"), "--preset", "paper-default", "--seed", "8"]

    def run_all(flags, tag):
        runs = {}
        for command in cli.COMMANDS:
            exact = ["--exact"] if tag == "other" and command in cli.EXACT_COMMANDS else []
            outdir = tmp_path / f"{tag}-{command}"
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = _run([command, *flags, *exact, "--out", str(outdir)])
            runs[command] = code, out.getvalue(), _snapshot(outdir)
        return runs

    first = run_all(plain, "first")
    run_all(other, "other")
    again = run_all(plain, "again")
    for command in cli.COMMANDS:
        assert first[command][0] == 0, command
        assert first[command] == again[command], command


#: Argument lists the parser refuses before any config is read, with the
#: start of its error line.
USAGE_ERRORS = [
    pytest.param((), "the following arguments are required: command", id="no-command"),
    pytest.param(("frobnicate",), "argument command: invalid choice: 'frobnicate'",
                 id="unknown-command"),
    pytest.param(("generate", "--preset", "nope"), "argument --preset: invalid choice: 'nope'",
                 id="unknown-preset"),
    pytest.param(("generate", "--seed", "x"), "argument --seed: invalid int value: 'x'",
                 id="seed-not-an-integer"),
    pytest.param(("generate", "--seed"), "argument --seed: expected one argument",
                 id="seed-without-value"),
    pytest.param(("generate", "--frobnicate"), "unrecognized arguments: --frobnicate",
                 id="unknown-option"),
    *(pytest.param((command, "--exact"), "--exact applies to measure, witness and fringe",
                   id=f"exact-{command}")
      for command in ("generate", "transmit", "visibility", "drift", "capacity")),
]


@pytest.mark.parametrize("argv,error", USAGE_ERRORS)
def test_usage_error_exit_2(argv, error):
    """Exit 2 with the usage and one error line; no stdout, no --out, no traceback."""
    code, out, err, files, caught = _outcome(argv, {})
    assert (code, out, files, caught) == (2, "", None, [])
    assert "Traceback" not in err
    usage, *_, last = err.splitlines()
    assert usage.startswith("usage: clustersim ")
    assert last.startswith(f"clustersim: error: {error}"), err


def test_help_names_every_command_and_option():
    code, out, err, files, caught = _outcome(("--help",), {})
    assert (code, err, files, caught) == (0, "", None, [])
    for word in (*cli.COMMANDS, "--config", "--seed", "--out", "--exact", "--preset"):
        assert word in out, word


def test_commands_leave_shared_config_unchanged(tmp_path):
    """Configs share their untouched sections with DEFAULT_CONFIG, so no command may write one."""
    before = json.dumps(DEFAULT_CONFIG), json.dumps(cli.PRESETS)
    for flags in ((), ("--exact",), ("--preset", "paper-default")):
        for command in cli.COMMANDS:
            if "--exact" in flags and command not in cli.EXACT_COMMANDS:
                continue
            outdir = tmp_path / f"{command}{len(flags)}"
            assert _run([command, *flags, "--out", str(outdir)]) == 0, (command, flags)
    assert (json.dumps(DEFAULT_CONFIG), json.dumps(cli.PRESETS)) == before


ONE_DISPERSION = {"dispersions_ns_per_nm": [10.0]}


def test_readout_time_is_read_inside_the_trace(tmp_path, capsys):
    """The arrival offset is read within the drift trace, ends included, never clamped."""
    for readout, code in ((0.0, 0), (3600.0, 0), (3600.5, 2)):
        cfg = _write_config(tmp_path, {"channel": {"readout_time_s": readout,
                                                   "drift": {"duration_s": 3600.0}}})
        assert _run(["transmit", "--config", cfg, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == (
        "config error: channel.readout_time_s: 3600.5 s is outside "
        "the drift trace's span [0, 3600] s\n"
    )


@pytest.mark.parametrize("overrides,offset,corrupted", [
    pytest.param({"encoding": {"levels": [["T", 600.0, 3.75], ["t", 200.0, 1.25]]},
                  "channel": {"drift": {"peak_k": 0.25}}}, "-77.47", False, id="200ps-bins"),
    pytest.param({"encoding": {"levels": [["T", 60.0, 3.75], ["t", 20.0, 1.25]]},
                  "channel": {"drift": {"peak_k": 0.04}}}, "-12.39", True, id="20ps-bins"),
])
def test_bin_corruption_follows_the_layout(tmp_path, capsys, overrides, offset, corrupted):
    """The flag is raised past half the configured layout's smallest bin spacing."""
    cfg = _write_config(tmp_path, overrides)
    assert _run(["transmit", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert f"arrival offset {offset} ps" in capsys.readouterr().out
    doc = json.loads((tmp_path / "transmit.json").read_text())
    assert doc["bin_assignment_corrupted"] is corrupted


def test_visibility_reads_the_carrier(tmp_path):
    outputs = []
    for carrier in (1550.0, 1310.0):
        cfg = _write_config(tmp_path, {"cpm": {"carrier_wavelength_nm": carrier}})
        outdir = tmp_path / f"v{carrier:g}"
        assert _run(["visibility", "--config", cfg, "--out", str(outdir)]) == 0
        outputs.append((outdir / "visibility.csv").read_text().splitlines()[1:])
    assert outputs[0] != outputs[1]


#: 1.25 and 3.75 GHz tones make 100 and 300 ps copies, not 200 and 600 ps.
WIDE_LEVELS = {"encoding": {"levels": [["T", 600, 3.75], ["t", 200, 1.25]]}}
#: Trees of another depth than the readout's two levels, and pump phase
#: lists of another length than its four bins.
LEVELS = {
    0: [],
    1: [["T", 300.0, 3.75]],
    3: [["T", 900.0, 11.2313], ["t", 300.0, 3.75], ["u", 100.0, 1.25]],
}
NO_LEVEL = ("config error: detection.visibility_penalty.{} names no level "
            "of encoding.levels\n")
AB_LEVELS = [["A", 300.0, 3.75], ["B", 100.0, 1.25]]
COPY_SPACING = re.compile(r"simulation error: level [Tt]: copy spacing \S+ ps does not match "
                          r"its \d+ ps bin shift\n")
DRIFT_OVERFLOW = re.compile(r"config error: channel\.drift: drift offsets reach \S+ ps, "
                            r"above 1e\+150 ps\n")


def _config_error(row_id, command, doc, message):
    """A row whose config refuses with exit code 2 and `config error: message`."""
    return pytest.param((command,), doc, 2, f"config error: {message}\n", id=row_id)


#: Every input the CLI refuses, one row each: the command and its flags, the
#: config file (its JSON document, its raw bytes, or None for a path with no
#: file), the exit code and the one stderr line, exact or as a pattern that
#: must match in full where the line prints a computed value.  Every row is
#: checked alike by assert_refused.  A key names the test that reports its
#: rows, which keeps each row's test id stable.  tests/test_surface.py runs
#: all rows again to show that they reach every `raise` under src/.
REFUSALS = {
    "test_refused_input_one_line": [
        *(
            pytest.param((command,), {"encoding": {"levels": levels}}, 2,
                         "config error: encoding.levels must have 2 entries\n",
                         id=f"levels-{depth}-{command}")
            for depth, levels in LEVELS.items() for command in cli.COMMANDS
        ),
        *(
            pytest.param((command,), {"source": {"phases_rad": [0.0] * count}}, 2,
                         "config error: source.phases_rad must have 4 entries\n",
                         id=f"phases-{count}-{command}")
            for count in (3, 5) for command in cli.COMMANDS
        ),
        pytest.param(("witness", "--exact"), {"detection": {"visibility_penalty": {"X": 0.5}}},
                     2, NO_LEVEL.format("X"), id="penalty-no-level"),
        pytest.param(("measure",), {"encoding": {"levels": AB_LEVELS},
                                    "detection": {"visibility_penalty": {"T": 0.5, "t": 0.9}}},
                     2, NO_LEVEL.format("T"), id="penalty-of-renamed-level"),
        pytest.param(("capacity",), {"detection": {"visibility_penalty": {"t": 0.9, "x": 1.0}}},
                     2, NO_LEVEL.format("x"), id="penalty-one-key-off"),
        pytest.param(("witness",), {"detection": {"pairs_per_setting": 1}}, 1,
                     "simulation error: basis ZZZZ has no counts\n", id="witness-no-counts"),
        pytest.param(("fringe", "--exact"), {"channel": {"loss_db": 1e6}}, 1,
                     "simulation error: non-positive mean rate; cannot define visibility\n",
                     id="fringe-no-rate"),
        _config_error("duplicate-names", "generate",
                      {"encoding": {"levels": [["T", 300.0, 3.75], ["T", 100.0, 1.25]]}},
                      "encoding: duplicate level names"),
        _config_error("level-two-entries", "generate",
                      {"encoding": {"levels": [["T", 300.0], ["t", 100.0, 1.25]]}},
                      "encoding.levels[0] must have 3 entries"),
        # a list's length is checked before its items
        _config_error("levels-length-before-items", "generate",
                      {"encoding": {"levels": [["T", 300.0, 3.75], ["t", 100.0, 1.25], "x"]}},
                      "encoding.levels must have 2 entries"),
        _config_error("root-not-object", "capacity", [1], "config root must be a JSON object"),
        *(
            _config_error(f"bins-overflow-{command}", command,
                          {"encoding": {"levels": [["T", 1.7e308, 3.75], ["t", 1e308, 1.25]]}},
                          "encoding: bin positions must be finite and strictly increasing")
            for command in ("generate", "transmit", "measure")
        ),
        _config_error("outer-shift-below-inner", "generate",
                      {"encoding": {"levels": [["T", 100.0, 3.75], ["t", 300.0, 1.25]]}},
                      "encoding: level T: shift 100.0 ps does not clear inner levels"),
        _config_error("capacity-zero", "capacity", {"capacity": {"total_bandwidth_ghz": 0.0}},
                      "capacity: all capacity arguments must be positive"),
        _config_error("length-negative", "transmit", {"channel": {"length_km": -1.0}},
                      "channel: length must be nonnegative"),
        _config_error("sigma-negative", "drift", {"channel": {"drift": {"sigma_k": -1.0}}},
                      "channel.drift: sigma must be nonnegative and step positive"),
        _config_error("correlation-zero", "drift",
                      {"channel": {"drift": {"correlation_s": 0.0}}},
                      "channel.drift: time constants must be positive"),
        _config_error("correction-interval-zero", "drift",
                      {"channel": {"stabilizer": {"correction_interval_s": 0.0}}},
                      "channel.stabilizer: correction interval must be positive"),
        _config_error("resolution-negative", "drift",
                      {"channel": {"stabilizer": {"actuator_resolution_ps": -1.0}}},
                      "channel.stabilizer: noise and resolution must be nonnegative"),
        _config_error("correction-interval-below-step", "drift",
                      {"channel": {"stabilizer": {"correction_interval_s": 1.0}}},
                      "channel.stabilizer: correction interval shorter than the trace step"),
        _config_error("jitter-negative", "measure", {"detection": {"tdc_jitter_ps": -1.0}},
                      "detection: jitters must be nonnegative"),
        _config_error("window-zero", "measure", {"detection": {"coincidence_window_ps": 0.0}},
                      "detection: coincidence window must be positive"),
        _config_error("dark-fraction-one", "measure",
                      {"detection": {"dark_coincidence_rate": 1.0}},
                      "detection: dark fraction must lie in [0, 1)"),
        _config_error("efficiency-zero", "measure", {"detection": {"efficiency": 0.0}},
                      "detection: efficiency must lie in (0, 1]"),
        # overlapping windows would count one arrival in several bins
        *(
            _config_error(f"window-{window:g}-{command}", command,
                          {"detection": {"coincidence_window_ps": window}},
                          f"detection: coincidence window half-width {window:g} ps exceeds "
                          "50 ps, half the smallest bin spacing")
            for window in (200.0, 50.0001) for command in ("measure", "witness", "fringe")
        ),
        # the readout builds its sections in one order, so these commands
        # report the same first of several bad values
        *(
            _config_error(f"first-error-{row_id}-{command}", command, doc, message)
            for row_id, doc, message in (
                ("channel", {"channel": {"loss_db": -1.0},
                             "detection": {"coincidence_window_ps": 200.0},
                             "cpm": {"carrier_wavelength_nm": -1e308}},
                 "channel: losses must be nonnegative"),
                ("detection", {"detection": {"coincidence_window_ps": 200.0},
                               "cpm": {"carrier_wavelength_nm": -1e308}},
                 "detection: coincidence window half-width 200 ps exceeds 50 ps, "
                 "half the smallest bin spacing"),
            )
            for command in ("measure", "witness", "fringe")
        ),
    ],
    "test_bad_config_value_exit_2": [
        _config_error("pairs-string", "witness", {"detection": {"pairs_per_setting": "abc"}},
                      'detection.pairs_per_setting must be an integer, got "abc"'),
        _config_error("loss-negative", "witness", {"channel": {"loss_db": -1}},
                      "channel: losses must be nonnegative"),
        _config_error("penalty-1.5", "witness", {"detection": {"visibility_penalty": {"T": 1.5}}},
                      "detection.visibility_penalty.T = 1.5 outside [0.0, 1.0]"),
        _config_error("mc-samples-2.5", "witness", {"analysis": {"mc_samples": 2.5}},
                      "analysis.mc_samples must be an integer, got 2.5"),
        *(
            _config_error(f"mc-samples-{n}", "witness", {"analysis": {"mc_samples": n}},
                          f"analysis.mc_samples = {n} outside [2, 10000000]")
            for n in (0, 1)
        ),
        _config_error("seed-negative", "generate", {"seed": -1}, "seed = -1 outside [0, inf]"),
        *(
            _config_error(row_id, command, {"detection": {"pairs_per_setting": n}},
                          f"detection.pairs_per_setting = {n} outside [1, 1000000000000000]")
            for row_id, command, n in (("pairs-negative", "measure", -5),
                                       ("pairs-zero", "witness", 0),
                                       ("fringe-pairs-zero", "fringe", 0))
        ),
        *(
            _config_error(row_id, command, {"channel": {"drift": drift}},
                          "channel.drift: duration must be positive and span at most "
                          "1000000 samples")
            for row_id, command, drift in (("duration-negative", "transmit", {"duration_s": -1.0}),
                                           ("duration-zero", "drift", {"duration_s": 0.0}),
                                           ("drift-step-tiny", "drift", {"step_s": 5e-324}))
        ),
        *(
            _config_error(row_id, "drift", {"channel": {"drift": {"smoothing_passes": n}}},
                          "channel.drift: smoothing passes must lie in [0, 10]")
            for row_id, n in (("smoothing-passes-negative", -1),
                              ("smoothing-passes-above-bound", 11))
        ),
        *(
            _config_error(row_id, "visibility",
                          {"waveform": {**ONE_DISPERSION, "separations_ps": [sep]}},
                          "waveform: bin separation must be at least 1 ps")
            for row_id, sep in (("separation-zero", 0.0), ("separation-negative", -100.0),
                                ("separation-half-ps", 0.5))
        ),
        _config_error("pulse-width-zero", "visibility", {"source": {"pulse_fwhm_ps": 0.0}},
                      "source: pulse width must be at least 3 ps"),
        _config_error("source-width-negative", "measure", {"source": {"pulse_fwhm_ps": -1.0}},
                      "source: pulse width must be at least 3 ps"),
        _config_error("capacity-overflow", "capacity",
                      {"capacity": {"qubit_spectral_width_ghz": 5e-324}},
                      "capacity: capacity overflows a float"),
        *(
            _config_error(row_id, command, {"analysis": {"fringe_points": n}},
                          f"analysis.fringe_points = {n} outside [8, 100000]")
            for row_id, command, n in (("fringe-points-negative", "fringe", -3),
                                       ("fringe-points-5", "fringe", 5),
                                       ("fringe-points-7-measure", "measure", 7),
                                       ("fringe-points-above-bound", "fringe", 10**5 + 1))
        ),
        _config_error("dispersion-underflow", "visibility",
                      {"waveform": {"dispersions_ns_per_nm": [5e-324]}},
                      "waveform: dispersion must be nonzero and finite"),
        _config_error("separation-beyond-window", "visibility",
                      {"waveform": {**ONE_DISPERSION, "separations_ps": [131072.0]}},
                      "waveform: bin separation must be below 131072 ps"),
        _config_error("dispersion-copy-phase-overflow", "visibility",
                      {"waveform": {"dispersions_ns_per_nm": [1e-300]}},
                      "waveform: dispersion out of range for the bin separation"),
        _config_error("peak-negative", "drift", {"channel": {"drift": {"peak_k": -5.0}}},
                      "channel.drift: peak excursion must be nonnegative"),
        *(
            _config_error(row_id, command, {"cpm": {"carrier_wavelength_nm": carrier}},
                          "cpm: carrier wavelength must be positive with a finite square")
            for row_id, command, carrier in (
                ("carrier-negative", "measure", -1e308),
                ("carrier-square-overflow", "fringe", 1e308),
                ("visibility-carrier-negative", "visibility", -1e308),
                ("visibility-carrier-square-overflow", "visibility", 1e308),
            )
        ),
        _config_error("mc-samples-above-bound", "witness",
                      {"analysis": {"mc_samples": 10**7 + 1}},
                      "analysis.mc_samples = 10000001 outside [2, 10000000]"),
        _config_error("pairs-above-bound", "measure", {"detection": {"pairs_per_setting": 1e308}},
                      "detection.pairs_per_setting = 1e+308 outside [1, 1000000000000000]"),
        _config_error("estimator-noise-overflow", "drift",
                      {"channel": {"stabilizer": {"estimator_noise_ps": 1e308}}},
                      "channel.stabilizer: estimator noise must be at most 1e+150 ps"),
        *(
            _config_error(row_id, command, {"channel": {key: value}},
                          f"malformed config JSON: {json.dumps(value)} is not a JSON number")
            for row_id, command, key, value in (
                ("loss-nan", "transmit", "loss_db", float("nan")),
                ("loss-infinity", "measure", "loss_db", float("inf")),
                ("readout-time-minus-infinity", "transmit", "readout_time_s", float("-inf")),
            )
        ),
        *(
            _config_error(row_id, command, doc,
                          "waveform.separations_ps has 0 entries, outside [1, 100]")
            for row_id, command, doc in (
                ("separations-empty", "visibility", {"waveform": {"separations_ps": []}}),
                ("separations-empty-svg", "visibility",
                 {"svg": True, "waveform": {"separations_ps": []}}),
                ("capacity-separations-empty", "capacity", {"waveform": {"separations_ps": []}}),
            )
        ),
        *(
            _config_error(row_id, "transmit", {"channel": {"readout_time_s": time_s}},
                          f"channel.readout_time_s: {time_s:g} s is outside the drift "
                          "trace's span [0, 86400] s")
            for row_id, time_s in (("readout-time-after-trace", 1e9),
                                   ("readout-time-negative", -5.0))
        ),
    ],
    "test_malformed_config_exit_2": [
        _config_error("malformed-config", "generate", b"{not json",
                      "malformed config JSON: Expecting property name enclosed in double "
                      "quotes: line 1 column 2 (char 1)"),
    ],
    "test_unknown_key_exit_2": [
        _config_error("unknown-key", "witness", {"detectino": {"efficiency": 0.5}},
                      "unknown config key: detectino"),
    ],
    "test_empty_dispersion_list_exit_2": [
        _config_error("dispersions-empty", "visibility",
                      {"waveform": {"dispersions_ns_per_nm": []}},
                      "waveform.dispersions_ns_per_nm has 0 entries, outside [1, 100]"),
    ],
    "test_missing_config_file_exit_2": [
        pytest.param(("generate",), None, 2,
                     re.compile(r"config error: cannot read config: \[Errno 2\] "
                                r"No such file or directory: '.*config\.json'\n"),
                     id="missing-config-file"),
    ],
    # over-long lists, in a command that reads them and in one that does not
    "test_list_leaf_length_is_capped": [
        _config_error(f"{prefix}{section}-{key}-{item}-{cap}", command,
                      {section: {key: [item] * (cap + 1)}},
                      f"{section}.{key} has {cap + 1} entries, outside [1, {cap}]")
        for prefix, command in (("", "visibility"), ("capacity-", "capacity"))
        for section, key, item, cap in (("waveform", "separations_ps", 100.0, 100),
                                        ("waveform", "dispersions_ns_per_nm", 5.0, 100))
    ],
    # copies that miss a level's bin shift, by a wrong tone, dispersion or overflow
    "test_copy_spacing_off_level_shift_exit_1": [
        pytest.param(("witness", "--exact"), WIDE_LEVELS, 1, COPY_SPACING,
                     id="witness --exact"),
        pytest.param(("fringe", "--exact"), WIDE_LEVELS, 1, COPY_SPACING, id="fringe --exact"),
        pytest.param(("measure",), WIDE_LEVELS, 1, COPY_SPACING, id="measure"),
        *(
            pytest.param((command,), doc, 1, COPY_SPACING, id=f"{name}-{command}")
            for name, doc in (
                ("dispersion-off-grid", {"cpm": {"dispersion_ns_per_nm": 7.0}}),
                ("spacing-overflow", {"cpm": {"dispersion_ns_per_nm": 1e308}}),
                ("level-tone-overflow",
                 {"encoding": {"levels": [["T", 300.0, 1e308], ["t", 100.0, 1.25]]}}),
            )
            for command in ("fringe", "measure")
        ),
    ],
    # offsets that overflow are refused without a RuntimeWarning
    "test_drift_overflow_exit_2": [
        pytest.param((command,), doc, 2, DRIFT_OVERFLOW, id=f"{command}-overrides{k}")
        for k, (command, doc) in enumerate((
            ("drift", {"channel": {"length_km": 1e308}}),
            ("drift", {"channel": {"thermal_sensitivity_ps_per_k_km": 1e308}}),
            ("drift", {"channel": {"drift": {"peak_k": 1e308}}}),
            ("transmit", {"channel": {"drift": {"sigma_k": 1e308}}}),
        ))
    ],
    "test_negative_seed_option_exit_2": [
        pytest.param(("generate", "--seed", "-1"), {}, 2,
                     "config error: seed = -1 outside [0, inf]\n", id="seed-option-negative"),
    ],
    "test_visibility_rejects_unresolvable_pulse_width": [
        _config_error(str(width), "visibility",
                      {"waveform": ONE_DISPERSION, "source": {"pulse_fwhm_ps": width}},
                      "source: pulse width must be at least 3 ps")
        for width in (1e-200, 5e-324, 0.5)
    ],
    "test_removed_keys_are_unknown": [
        _config_error(f"{section}-{key}", "generate", {section: {key: 1}},
                      f"unknown config key: {section}.{key}")
        for section, key in (
            ("waveform", "n_alpha"), ("waveform", "pulse_fwhm_ps"),
            ("source", "repetition_ns"), ("cpm", "truncation_order"),
            ("encoding", "time_quantum_ps"), ("encoding", "freq_quantum_ghz"),
            ("source", "times_ps"),
        )
    ],
}
REFUSAL_ROW = "argv,config,code,err"


def assert_refused(argv, config, code, err):
    """The run exits with code and one stderr line, printing and writing nothing else."""
    got_code, out, got_err, files, caught = _outcome(argv, config)
    assert got_code == code, got_err
    if isinstance(err, re.Pattern):
        assert err.fullmatch(got_err), got_err
    else:
        assert got_err == err
    assert (out, files, caught) == ("", None, [])


def _single_row(test):
    [row] = REFUSALS[test]
    return row.values


@pytest.mark.parametrize(REFUSAL_ROW, REFUSALS["test_refused_input_one_line"])
def test_refused_input_one_line(argv, config, code, err):
    assert_refused(argv, config, code, err)


@pytest.mark.parametrize(REFUSAL_ROW, REFUSALS["test_bad_config_value_exit_2"])
def test_bad_config_value_exit_2(argv, config, code, err):
    assert_refused(argv, config, code, err)


def test_malformed_config_exit_2():
    assert_refused(*_single_row("test_malformed_config_exit_2"))


def test_unknown_key_exit_2():
    assert_refused(*_single_row("test_unknown_key_exit_2"))


def test_empty_dispersion_list_exit_2():
    assert_refused(*_single_row("test_empty_dispersion_list_exit_2"))


def test_missing_config_file_exit_2():
    assert_refused(*_single_row("test_missing_config_file_exit_2"))


@pytest.mark.parametrize(REFUSAL_ROW, REFUSALS["test_list_leaf_length_is_capped"])
def test_list_leaf_length_is_capped(argv, config, code, err):
    assert_refused(argv, config, code, err)


@pytest.mark.parametrize(REFUSAL_ROW, REFUSALS["test_copy_spacing_off_level_shift_exit_1"])
def test_copy_spacing_off_level_shift_exit_1(argv, config, code, err):
    assert_refused(argv, config, code, err)


@pytest.mark.parametrize(REFUSAL_ROW, REFUSALS["test_drift_overflow_exit_2"])
def test_drift_overflow_exit_2(argv, config, code, err):
    assert_refused(argv, config, code, err)


@pytest.mark.parametrize(REFUSAL_ROW, REFUSALS["test_removed_keys_are_unknown"])
def test_removed_keys_are_unknown(argv, config, code, err):
    assert_refused(argv, config, code, err)


def test_negative_seed_option_exit_2():
    assert_refused(*_single_row("test_negative_seed_option_exit_2"))


@pytest.mark.parametrize(REFUSAL_ROW, REFUSALS["test_visibility_rejects_unresolvable_pulse_width"])
def test_visibility_rejects_unresolvable_pulse_width(argv, config, code, err):
    assert_refused(argv, config, code, err)


def test_list_leaves_at_their_cap_load(tmp_path):
    """The list caps refuse only what is shorter or longer than the caps."""
    for key, item in (("separations_ps", 100.0), ("dispersions_ns_per_nm", 5.0)):
        for count in cli._ENTRIES[f"waveform.{key}"]:
            cfg = _write_config(tmp_path, {"waveform": {key: [item] * count}})
            assert len(load_config(cfg, None, None, None)["waveform"][key]) == count


def test_penalty_keys_follow_the_level_names(tmp_path):
    """Renamed levels take their penalties under the new names."""
    runs = []
    for outer, inner, penalty in (("T", "t", {"T": 0.5}), ("A", "B", {"A": 0.5}),
                                  ("A", "B", {})):
        cfg = _write_config(tmp_path, {
            "encoding": {"levels": [[outer, 300.0, 3.75], [inner, 100.0, 1.25]]},
            "detection": {"visibility_penalty": penalty},
        })
        outdir = tmp_path / f"{outer}{len(penalty)}"
        assert _run(["witness", "--exact", "--config", cfg, "--out", str(outdir)]) == 0
        runs.append(json.loads((outdir / "witness.json").read_text())["witness"])
    assert runs[0] == runs[1] != runs[2]


def test_drift_shorter_than_one_step_runs(tmp_path):
    cfg = _write_config(tmp_path, {"channel": {"drift": {"duration_s": 1.0}}})
    assert _run(["drift", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "drift.csv").read_text().splitlines()) == 3


def test_visibility_wide_pulse_runs(tmp_path):
    cfg = _write_config(tmp_path, {"source": {"pulse_fwhm_ps": 5000.0}})
    assert _run(["visibility", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "visibility.csv").read_text().splitlines()) == 16


def test_config_hash_is_pinned():
    assert config_hash(load_config(None, None, None, None)) == "b374176380540448"
    assert config_hash(load_config(None, "paper-default", None, None)) == "5eb5005b828e6a64"


def test_null_peak_runs_without_rescale(tmp_path):
    cfg = _write_config(tmp_path, {"channel": {"drift": {"peak_k": None}}})
    assert _run(["drift", "--config", cfg, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("command,overrides", [
    ("drift", {"seed": 3.0, "channel": {"drift": {"smoothing_passes": 2.0}}}),
    ("witness", {"analysis": {"mc_samples": 2000.0}}),
    ("fringe", {"analysis": {"fringe_points": 12.0}}),
])
def test_integral_numbers_fill_integer_leaves(tmp_path, command, overrides):
    cfg = _write_config(tmp_path, overrides)
    assert _run([command, "--config", cfg, "--out", str(tmp_path)]) == 0


def _leaves(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


#: Keys of the open sections that the default config accepts: one per level name.
OPEN_LEAVES = [
    tuple(section.split(".")) + (name,)
    for section in cli._OPEN_SECTIONS
    for name, *_ in DEFAULT_CONFIG["encoding"]["levels"]
]
CONFIG_LEAVES = sorted([*_leaves(DEFAULT_CONFIG), *OPEN_LEAVES])

FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.just([]), st.just({}),
    st.integers(-1000, 1000), st.floats(-1e3, 1e3),
)


FUZZ_COMMANDS = (
    ("generate",), ("transmit",), ("drift",), ("capacity",), ("measure",),
    ("fringe",), ("measure", "--exact"), ("witness",), ("witness", "--exact"),
    ("visibility",),
)
#: Config every fuzzed doc starts from, so sampled witness runs stay fast;
#: a fuzzed mc_samples replaces it.
FUZZ_BASE = {"analysis": {"mc_samples": 2000}}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(FUZZ_COMMANDS),
    overrides=st.lists(st.tuples(st.sampled_from(CONFIG_LEAVES), FUZZ_VALUES),
                       min_size=1, max_size=2, unique_by=lambda kv: kv[0]),
)
def test_fuzzed_overrides_exit_cleanly(command, overrides):
    doc = copy.deepcopy(FUZZ_BASE)
    for path, value in overrides:
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*command, "--config", str(cfg), "--out", tmp])
    assert code in (0, 1, 2), doc
    assert "Traceback" not in err.getvalue()


#: For each config leaf but `out`: a command that reads it and a valid
#: value that changes its exit code, stdout or --out files (stamps aside),
#: from LEAF_BASE.  The sigma_k change is 0 because the peak rescale
#: cancels any other; the cpm values move a copy spacing off its bin shift.
#: The visibility_penalty rows are OPEN_LEAVES, keys the default omits.
LEAF_BASE = {"analysis": {"mc_samples": 2000}}
LEAF_CHANGES = {
    ("seed",): (("measure",), 1),
    ("svg",): (("drift",), True),
    ("encoding", "levels"): (("measure",), [["T", 300.0, 3.75], ["u", 100.0, 1.25]]),
    ("source", "phases_rad"): (("generate",), [0.0, 0.0, 0.0, 0.0]),
    ("source", "pulse_fwhm_ps"): (("visibility",), 30.0),
    ("cpm", "dispersion_ns_per_nm"): (("measure",), 7.0),
    ("cpm", "carrier_wavelength_nm"): (("fringe",), 1560.0),
    ("waveform", "dispersions_ns_per_nm"): (("visibility",), [5.0]),
    ("waveform", "separations_ps"): (("visibility",), [200.0]),
    ("channel", "length_km"): (("drift",), 50.0),
    ("channel", "loss_db"): (("transmit",), 6.0),
    ("channel", "compensator_loss_db"): (("transmit",), 3.0),
    ("channel", "thermal_sensitivity_ps_per_k_km"): (("drift",), 30.0),
    ("channel", "readout_time_s"): (("transmit",), 1000.0),
    ("channel", "drift", "sigma_k"): (("drift",), 0.0),
    ("channel", "drift", "correlation_s"): (("drift",), 3600.0),
    ("channel", "drift", "smoothing_s"): (("drift",), 3600.0),
    ("channel", "drift", "smoothing_passes"): (("drift",), 1),
    ("channel", "drift", "peak_k"): (("transmit",), 0.2),
    ("channel", "drift", "step_s"): (("drift",), 30.0),
    ("channel", "drift", "duration_s"): (("drift",), 43200.0),
    ("channel", "stabilizer", "correction_interval_s"): (("drift",), 1800.0),
    ("channel", "stabilizer", "estimator_noise_ps"): (("drift",), 1.0),
    ("channel", "stabilizer", "actuator_resolution_ps"): (("drift",), 1.0),
    ("detection", "jitter_signal_ps"): (("measure",), 30.0),
    ("detection", "jitter_idler_ps"): (("measure",), 30.0),
    ("detection", "tdc_jitter_ps"): (("measure",), 30.0),
    ("detection", "coincidence_window_ps"): (("measure",), 30.0),
    ("detection", "dark_coincidence_rate"): (("measure",), 0.1),
    ("detection", "efficiency"): (("measure",), 0.5),
    ("detection", "pairs_per_setting"): (("measure",), 500),
    ("detection", "visibility_penalty", "T"): (("witness", "--exact"), 0.9),
    ("detection", "visibility_penalty", "t"): (("witness", "--exact"), 0.9),
    ("analysis", "mc_samples"): (("witness",), 3000),
    ("analysis", "fringe_points"): (("fringe",), 12),
    ("capacity", "total_bandwidth_ghz"): (("capacity",), 10000.0),
    ("capacity", "qubit_spectral_width_ghz"): (("capacity",), 50.0),
    ("capacity", "stretched_bin_length_ns"): (("capacity",), 1.0),
}


def _override(base, path, value):
    doc = copy.deepcopy(base)
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return doc


def _outcome(argv, config):
    """Exit code, stdout, stderr, stamp-stripped --out files and warnings of a run.

    config is the config file's JSON document, or its raw bytes, or None for
    a path with no file.  files is None when the run made no --out directory.
    """
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        if config is not None:
            cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        outdir = Path(tmp) / "out"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--config", str(cfg), "--out", str(outdir)])
        files = {
            p.name: re.sub(rb"(config_sha256\W+)[0-9a-f]{16}", rb"\1", p.read_bytes())
            for p in sorted(outdir.glob("*"))
        } if outdir.exists() else None
    return code, out.getvalue(), err.getvalue(), files, [str(w.message) for w in caught]


def test_every_config_leaf_changes_an_output():
    assert set(LEAF_CHANGES) == set(CONFIG_LEAVES) - {("out",)}
    baselines = {}
    for path, (command, value) in LEAF_CHANGES.items():
        if command not in baselines:
            code, out, _, files, _ = _outcome(command, LEAF_BASE)
            assert code == 0, command
            baselines[command] = code, out, files
        code, out, _, files, _ = _outcome(command, _override(LEAF_BASE, path, value))
        assert (code, out, files) != baselines[command], ".".join(path)


def _extreme_docs(path, default, value):
    """(label, doc) with value at a numeric leaf, or at each numeric list item."""
    where = ".".join(path)
    if type(default) in (int, float):
        yield f"{where} = {value}", _override(LEAF_BASE, path, value)
        return
    if not isinstance(default, list):
        return
    for i, item in enumerate(default):
        if type(item) in (int, float):
            slots = [(f"[{i}]", None)]
        elif isinstance(item, list):
            slots = [(f"[{i}][{j}]", j) for j, x in enumerate(item) if type(x) in (int, float)]
        else:
            continue
        for label, j in slots:
            items = copy.deepcopy(default)
            if j is None:
                items[i] = value
            else:
                items[i][j] = value
            yield f"{where}{label} = {value}", _override(LEAF_BASE, path, items)


@pytest.mark.parametrize("value", [1e308, -1e308, 5e-324])
def test_extreme_values_exit_cleanly(value):
    """Every numeric leaf and list item at an extreme, through a command that reads it."""
    for path, (command, _) in LEAF_CHANGES.items():
        default = DEFAULT_CONFIG
        for key in path:
            default = (default[key] if key in default
                       else cli._OPEN_SECTIONS[".".join(path[:-1])])
        for where, doc in _extreme_docs(path, default, value):
            code, _, err, files, caught = _outcome(command, doc)
            assert code in (0, 1, 2), where
            assert err.count("\n") == (code != 0), (where, err)
            assert not caught, (where, caught)
            for name, data in (files or {}).items():
                assert not re.search(rb"Infinity|NaN|\binf\b|\bnan\b", data), (where, name)


def test_runtime_dependencies_are_importable():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    for dep in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", dep).group()
        assert importlib.util.find_spec(name.replace("-", "_")) is not None, dep
