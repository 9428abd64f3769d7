"""End-to-end CLI runs: exit codes, outputs and byte-level determinism."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from clustersim.cli import main

FAST_OVERRIDES = {
    "waveform": {
        "dispersions_ns_per_nm": [2.0, 10.0],
        "n_alpha": 8,
    },
    "detection": {"pairs_per_setting": 200},
    "analysis": {"mc_samples": 2000, "fringe_points": 12},
    "channel": {"drift": {"duration_s": 14400.0}},
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
    assert not (outdir / "witness_hist.csv").exists()
    assert "W = -1.0000" in capsys.readouterr().out


def test_sampled_witness_writes_histogram(tmp_path):
    cfg = _write_config(tmp_path, FAST_OVERRIDES)
    outdir = tmp_path / "wh"
    assert _run(["witness", "--config", cfg, "--out", str(outdir)]) == 0
    assert (outdir / "witness_hist.csv").exists()
    report = json.loads((outdir / "witness.json").read_text())
    assert report["stderr"] > 0


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


def test_missing_config_file_exit_2(tmp_path):
    assert _run(["generate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_unknown_command_exit_2(capsys):
    assert _run(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("overrides", [
    pytest.param({"detection": {"pairs_per_setting": "abc"}}, id="pairs-string"),
    pytest.param({"channel": {"loss_db": -1}}, id="loss-negative"),
    pytest.param({"detection": {"visibility_penalty": {"T": 1.5}}}, id="penalty-1.5"),
    pytest.param({"analysis": {"mc_samples": 2.5}}, id="mc-samples-2.5"),
    pytest.param({"analysis": {"mc_samples": 0}}, id="mc-samples-0"),
    pytest.param({"analysis": {"mc_samples": 1}}, id="mc-samples-1"),
    pytest.param({"encoding": {"time_quantum_ps": 30.0}}, id="bins-off-grid"),
])
def test_bad_config_value_exit_2(tmp_path, capsys, overrides):
    cfg = _write_config(tmp_path, overrides)
    assert _run(["witness", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err


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


def test_runtime_dependencies_are_importable():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    for dep in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", dep).group()
        assert importlib.util.find_spec(name.replace("-", "_")) is not None, dep
