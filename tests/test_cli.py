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

from clustersim import channel, cli, detection
from clustersim.cli import DEFAULT_CONFIG, config_hash, load_config, main
from clustersim.cpm import CpmSettings

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
    state, levels, _ = cli._make_state(cfg)
    state = channel.transmit(state, cli._build(channel.FiberLink, cfg, "channel"))
    means = detection.fringe_means(
        state, cli._build(detection.DetectorModel, cfg, "detection"),
        cfg["detection"]["pairs_per_setting"], levels, cfg["analysis"]["fringe_points"],
        cli._build(CpmSettings, cfg, "cpm"), cfg["detection"]["visibility_penalty"],
    )
    rng = np.random.default_rng(3)
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


def test_malformed_config_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run(["generate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"detectino": {"efficiency": 0.5}})
    assert _run(["witness", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown config key: detectino" in capsys.readouterr().err


def test_empty_dispersion_list_exit_2(tmp_path):
    cfg = _write_config(tmp_path, {"waveform": {"dispersions_ns_per_nm": []}})
    assert _run(["visibility", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("section,key,item,cap", [
    ("waveform", "separations_ps", 100.0, 100),
    ("waveform", "dispersions_ns_per_nm", 5.0, 100),
])
def test_list_leaf_length_is_capped(tmp_path, capsys, section, key, item, cap):
    """One entry over the cap exits 2 with one line, from every command."""
    for command in ("capacity", "visibility"):
        cfg = _write_config(tmp_path, {section: {key: [item] * (cap + 1)}})
        assert _run([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {section}.{key} has {cap + 1} entries, more than {cap}\n"
        )
    cfg = _write_config(tmp_path, {section: {key: [item] * cap}})
    _run(["visibility", "--config", cfg, "--out", str(tmp_path)])
    assert "entries" not in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path):
    assert _run(["generate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_unknown_command_exit_2(capsys):
    assert _run(["frobnicate"]) == 2
    capsys.readouterr()


ONE_DISPERSION = {"dispersions_ns_per_nm": [10.0]}


@pytest.mark.parametrize("command,overrides", [
    pytest.param("witness", {"detection": {"pairs_per_setting": "abc"}}, id="pairs-string"),
    pytest.param("witness", {"channel": {"loss_db": -1}}, id="loss-negative"),
    pytest.param("witness", {"detection": {"visibility_penalty": {"T": 1.5}}},
                 id="penalty-1.5"),
    pytest.param("witness", {"analysis": {"mc_samples": 2.5}}, id="mc-samples-2.5"),
    pytest.param("witness", {"analysis": {"mc_samples": 0}}, id="mc-samples-0"),
    pytest.param("witness", {"analysis": {"mc_samples": 1}}, id="mc-samples-1"),
    pytest.param("generate", {"seed": -1}, id="seed-negative"),
    pytest.param("measure", {"detection": {"pairs_per_setting": -5}}, id="pairs-negative"),
    pytest.param("witness", {"detection": {"pairs_per_setting": 0}}, id="pairs-zero"),
    pytest.param("fringe", {"detection": {"pairs_per_setting": 0}}, id="fringe-pairs-zero"),
    pytest.param("transmit", {"channel": {"drift": {"duration_s": -1.0}}},
                 id="duration-negative"),
    pytest.param("drift", {"channel": {"drift": {"duration_s": 0.0}}}, id="duration-zero"),
    pytest.param("drift", {"channel": {"drift": {"smoothing_passes": -1}}},
                 id="smoothing-passes-negative"),
    pytest.param("visibility", {"waveform": {**ONE_DISPERSION, "n_alpha": 0}},
                 id="n-alpha-0"),
    pytest.param("visibility", {"waveform": {**ONE_DISPERSION, "n_alpha": 2}},
                 id="n-alpha-2"),
    pytest.param("visibility", {"waveform": {**ONE_DISPERSION, "separations_ps": [0.0]}},
                 id="separation-zero"),
    pytest.param("visibility", {"waveform": {**ONE_DISPERSION, "separations_ps": [-100.0]}},
                 id="separation-negative"),
    pytest.param("visibility", {"waveform": {**ONE_DISPERSION, "pulse_fwhm_ps": 0.0}},
                 id="pulse-width-zero"),
    pytest.param("drift", {"channel": {"drift": {"step_s": 5e-324}}}, id="drift-step-tiny"),
    pytest.param("capacity", {"capacity": {"qubit_spectral_width_ghz": 5e-324}},
                 id="capacity-overflow"),
    pytest.param("fringe", {"analysis": {"fringe_points": -3}}, id="fringe-points-negative"),
    pytest.param("visibility", {"waveform": {"dispersions_ns_per_nm": [5e-324]}},
                 id="dispersion-underflow"),
    pytest.param("visibility", {"waveform": {**ONE_DISPERSION, "separations_ps": [131072.0]}},
                 id="separation-beyond-window"),
    pytest.param("visibility", {"waveform": {"dispersions_ns_per_nm": [1e-300]}},
                 id="dispersion-copy-phase-overflow"),
    pytest.param("fringe", {"analysis": {"fringe_points": 5}}, id="fringe-points-5"),
    pytest.param("measure", {"analysis": {"fringe_points": 7}}, id="fringe-points-7-measure"),
    pytest.param("drift", {"channel": {"drift": {"peak_k": -5.0}}}, id="peak-negative"),
    pytest.param("measure", {"source": {"pulse_fwhm_ps": -1.0}}, id="source-width-negative"),
    pytest.param("measure", {"source": {"repetition_ns": -5.0}}, id="repetition-negative"),
    pytest.param("measure", {"cpm": {"truncation_order": -3}}, id="truncation-negative"),
    pytest.param("measure", {"cpm": {"carrier_wavelength_nm": -1e308}},
                 id="carrier-negative"),
    pytest.param("fringe", {"cpm": {"carrier_wavelength_nm": 1e308}},
                 id="carrier-square-overflow"),
    pytest.param("witness", {"analysis": {"mc_samples": 10**7 + 1}},
                 id="mc-samples-above-bound"),
    pytest.param("fringe", {"analysis": {"fringe_points": 10**5 + 1}},
                 id="fringe-points-above-bound"),
    pytest.param("measure", {"detection": {"pairs_per_setting": 1e308}},
                 id="pairs-above-bound"),
    pytest.param("drift", {"channel": {"drift": {"smoothing_passes": 11}}},
                 id="smoothing-passes-above-bound"),
    pytest.param("drift", {"channel": {"stabilizer": {"estimator_noise_ps": 1e308}}},
                 id="estimator-noise-overflow"),
    pytest.param("transmit", {"channel": {"loss_db": float("nan")}}, id="loss-nan"),
    pytest.param("measure", {"channel": {"loss_db": float("inf")}}, id="loss-infinity"),
    pytest.param("transmit", {"channel": {"readout_time_s": float("-inf")}},
                 id="readout-time-minus-infinity"),
    pytest.param("visibility", {"cpm": {"carrier_wavelength_nm": -1e308}},
                 id="visibility-carrier-negative"),
    pytest.param("visibility", {"cpm": {"carrier_wavelength_nm": 1e308}},
                 id="visibility-carrier-square-overflow"),
    pytest.param("visibility", {"waveform": {"separations_ps": []}}, id="separations-empty"),
    pytest.param("visibility", {"svg": True, "waveform": {"separations_ps": []}},
                 id="separations-empty-svg"),
    pytest.param("transmit", {"channel": {"readout_time_s": 1e9}},
                 id="readout-time-after-trace"),
    pytest.param("transmit", {"channel": {"readout_time_s": -5.0}},
                 id="readout-time-negative"),
])
def test_bad_config_value_exit_2(tmp_path, capsys, command, overrides):
    cfg = _write_config(tmp_path, overrides)
    outdir = tmp_path / "out"
    assert _run([command, "--config", cfg, "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not outdir.exists()


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


@pytest.mark.parametrize("command,overrides", [
    pytest.param(("witness", "--exact"), WIDE_LEVELS, id="witness --exact"),
    pytest.param(("fringe", "--exact"), WIDE_LEVELS, id="fringe --exact"),
    pytest.param(("measure",), WIDE_LEVELS, id="measure"),
    *(
        pytest.param((command,), overrides, id=f"{name}-{command}")
        for name, overrides in (
            ("dispersion-off-grid", {"cpm": {"dispersion_ns_per_nm": 7.0}}),
            ("spacing-overflow", {"cpm": {"dispersion_ns_per_nm": 1e308}}),
            ("level-tone-overflow",
             {"encoding": {"levels": [["T", 300.0, 1e308], ["t", 100.0, 1.25]]}}),
        )
        for command in ("fringe", "measure")
    ),
])
def test_copy_spacing_off_level_shift_exit_1(tmp_path, capsys, command, overrides):
    """Copies that miss a level's bin shift, by a wrong tone, dispersion or overflow."""
    cfg = _write_config(tmp_path, overrides)
    assert _run([*command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"simulation error: level [Tt]: copy spacing \S+ ps does not match "
        r"its \d+ ps bin shift\n", captured.err
    ), captured.err


@pytest.mark.parametrize("section,key", [
    ("waveform", "n_alpha"), ("waveform", "pulse_fwhm_ps"),
    ("source", "repetition_ns"), ("cpm", "truncation_order"),
    ("encoding", "time_quantum_ps"), ("encoding", "freq_quantum_ghz"),
    ("source", "times_ps"),
])
def test_removed_keys_are_unknown(tmp_path, capsys, section, key):
    cfg = _write_config(tmp_path, {section: {key: 1}})
    assert _run(["generate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: unknown config key: {section}.{key}\n"


@pytest.mark.parametrize("command,overrides", [
    ("drift", {"channel": {"length_km": 1e308}}),
    ("drift", {"channel": {"thermal_sensitivity_ps_per_k_km": 1e308}}),
    ("drift", {"channel": {"drift": {"peak_k": 1e308}}}),
    ("transmit", {"channel": {"drift": {"sigma_k": 1e308}}}),
])
def test_drift_overflow_exit_2(tmp_path, capsys, command, overrides):
    """Offsets that overflow are refused, without a RuntimeWarning or output."""
    cfg = _write_config(tmp_path, overrides)
    outdir = tmp_path / "out"
    assert _run([command, "--config", cfg, "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"config error: channel\.drift: drift offsets reach \S+ ps, "
                        r"above 1e\+150 ps\n", err), err
    assert not outdir.exists()


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


@pytest.mark.parametrize("command,doc,code,err", [
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
    pytest.param(("generate",), {"encoding": {"levels": [["T", 300.0, 3.75],
                                                         ["T", 100.0, 1.25]]}},
                 2, "config error: encoding: duplicate level names\n",
                 id="duplicate-names"),
    pytest.param(("generate",), {"encoding": {"levels": [["T", 300.0],
                                                         ["t", 100.0, 1.25]]}},
                 2, "config error: encoding.levels[0] must have 3 entries\n",
                 id="level-two-entries"),
    pytest.param(("capacity",), [1], 2, "config error: config root must be a JSON object\n",
                 id="root-not-object"),
    *(
        pytest.param((command,), {"encoding": {"levels": [["T", 1.7e308, 3.75],
                                                          ["t", 1e308, 1.25]]}}, 2,
                     "config error: encoding: bin positions must be finite and strictly "
                     "increasing\n", id=f"bins-overflow-{command}")
        for command in ("generate", "transmit", "measure")
    ),
])
def test_refused_input_one_line(tmp_path, capsys, command, doc, code, err):
    """Each refused input exits with its code and one exact line, writing nothing."""
    cfg = _write_config(tmp_path, doc)
    outdir = tmp_path / "out"
    assert _run([*command, "--config", cfg, "--out", str(outdir)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)
    assert not outdir.exists()


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


def test_negative_seed_option_exit_2(tmp_path, capsys):
    assert _run(["generate", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: seed = -1 outside [0, inf]\n"


def test_drift_shorter_than_one_step_runs(tmp_path):
    cfg = _write_config(tmp_path, {"channel": {"drift": {"duration_s": 1.0}}})
    assert _run(["drift", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "drift.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("width", [1e-200, 5e-324, 0.5])
def test_visibility_rejects_unresolvable_pulse_width(tmp_path, capsys, width):
    cfg = _write_config(tmp_path, {"waveform": ONE_DISPERSION,
                                   "source": {"pulse_fwhm_ps": width}})
    assert _run(["visibility", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: source: pulse width") and err.count("\n") == 1


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


def _outcome(command, doc):
    """Exit code, stdout, stderr, stamp-stripped --out files and warnings of a run."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*command, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
        files = {
            p.name: re.sub(rb"(config_sha256\W+)[0-9a-f]{16}", rb"\1", p.read_bytes())
            for p in sorted((Path(tmp) / "out").glob("*"))
        }
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
            for name, data in files.items():
                assert not re.search(rb"Infinity|NaN|\binf\b|\bnan\b", data), (where, name)


def test_runtime_dependencies_are_importable():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    for dep in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", dep).group()
        assert importlib.util.find_spec(name.replace("-", "_")) is not None, dep
