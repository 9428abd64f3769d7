"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (visible in live output) and then
asserts, so the final report shows every criterion's status at a glance.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.special

import oracles
from clustersim import analysis, channel, cpm, detection, waveform
from clustersim.bessel import solve_balanced_depth
from clustersim.cli import main, stream
from clustersim.cpm import BeamSplitterSetting, CpmSettings
from clustersim.encoding import default_levels
from clustersim.source import ideal_cluster_state


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _noiseless_detector(**kwargs):
    return detection.DetectorModel(
        jitter_signal_ps=0.0, jitter_idler_ps=0.0, tdc_jitter_ps=0.0, **kwargs
    )


def _pipeline_witness(detector, pairs=1, seed=0, exact=True):
    levels = default_levels()
    state = ideal_cluster_state()
    schedule = detection.build_default_schedule(levels)
    hists = detection.sample_coincidences(
        oracles.readout(state, detector, pairs, levels, CpmSettings(), {}), schedule,
        np.random.SeedSequence(seed), exact,
    )
    projections = detection.extract_projections(detection.raw_basis_counts(hists))
    return analysis.witness(projections, None), hists


def test_criterion_01_ideal_witness(capsys):
    start = time.perf_counter()
    report, _ = _pipeline_witness(_noiseless_detector())
    elapsed = time.perf_counter() - start
    ok = (
        abs(report.witness + 1.0) <= 1e-9
        and all(abs(e - 1.0) <= 1e-9 for e in report.expectations)
        and elapsed < 1.0
    )
    _report(capsys, 1, ok,
            f"exact pipeline W = {report.witness:+.9f}, "
            f"stabilizers {[round(e, 9) for e in report.expectations]}, "
            f"{elapsed:.2f} s")


def _oracle_witness(p):
    amps = np.zeros(16, dtype=complex)
    for idx, sign in ((0b0000, 1), (0b0011, 1), (0b1100, 1), (0b1111, -1)):
        amps[idx] = 0.5 * sign
    rho = (1 - p) * np.outer(amps, amps.conj()) + p * np.eye(16) / 16
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    ops = {"1": np.eye(2), "Z": z, "X": x}
    total = 0.0
    for term in analysis.STABILIZER_TERMS:
        op = np.array([[1.0]])
        for ch in term:
            op = np.kron(op, ops[ch])
        total += float(np.real(np.trace(rho @ op)))
    return 2.0 - 0.5 * total


def test_criterion_02_noise_line(capsys):
    start = time.perf_counter()
    worst = 0.0
    for p in (0.0, 0.1, 1.0 / 3.0, 2.0 / 3.0, 1.0):
        report, _ = _pipeline_witness(
            _noiseless_detector(dark_coincidence_rate=min(p, 1.0 - 1e-15))
        )
        worst = max(
            worst,
            abs(report.witness - (-1.0 + 3.0 * p)),
            abs(report.witness - _oracle_witness(p)),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(capsys, 2, ok,
            f"W(p) = -1 + 3p, max deviation {worst:.2e} "
            f"(density-matrix oracle agrees), {elapsed:.2f} s")


def test_criterion_03_calibrated_match(capsys):
    start = time.perf_counter()
    detector = _noiseless_detector(dark_coincidence_rate=0.0667)
    levels = default_levels()
    schedule = detection.build_default_schedule(levels)
    state = ideal_cluster_state()
    lossy = channel.transmit(state, channel.FiberLink())
    witnesses, ratios = [], []
    for seed in range(20):
        hists = detection.sample_coincidences(
            oracles.readout(lossy, detector, 2473, levels, CpmSettings(), {}), schedule,
            stream(seed, "settings"), False,
        )
        raw = detection.raw_basis_counts(hists)
        projections = detection.extract_projections(raw)
        stderr, _, _ = analysis.monte_carlo_error(raw, 20_000, stream(seed, "witness"))
        w = analysis.witness(projections, None).witness
        witnesses.append(w)
        ratios.append(abs(w) / stderr)
    mean_w = float(np.mean(witnesses))
    mean_ratio = float(np.mean(ratios))
    elapsed = time.perf_counter() - start
    ok = (
        abs(mean_w + 0.80) <= 0.05
        and abs(mean_ratio - 20.0) <= 4.0
        and elapsed < 120.0
    )
    _report(capsys, 3, ok,
            f"20 seeds, p = 0.0667: mean W = {mean_w:+.4f} (target -0.80 +/- 0.05), "
            f"mean |W|/sigma = {mean_ratio:.1f} (target 20 +/- 4), {elapsed:.1f} s")


def _scipy_balanced_depth() -> float:
    return scipy.optimize.brentq(
        lambda g: scipy.special.j0(g) - scipy.special.j1(g), 1.0, 2.0, xtol=1e-13
    )


def _scipy_efficiency(g: float) -> float:
    return float(scipy.special.j0(g) ** 2 + scipy.special.j1(g) ** 2)


def test_criterion_04_splitter_constants(capsys):
    start = time.perf_counter()
    g = solve_balanced_depth.__wrapped__()  # an actual solve, not a cache hit
    elapsed = time.perf_counter() - start
    # eta is what measure applies: the squared column norms of an X matrix
    levels = default_levels()
    x = cpm.measurement_map(BeamSplitterSetting("X", levels.levels[1].name), levels,
                            CpmSettings(), 0.0)
    etas = np.sum(np.abs(x) ** 2, axis=0)
    g_ref = _scipy_balanced_depth()
    eta_ref = _scipy_efficiency(g_ref)
    eta = float(etas[np.argmax(np.abs(etas - eta_ref))])  # the worst column
    ok = abs(g - g_ref) <= 1e-10 and abs(eta - eta_ref) <= 1e-12 and elapsed < 1.0
    # The upstream quote 1.4342 is not a root of J_0 = J_1, and its
    # 0.601 is the efficiency at that misquoted depth.
    quoted_residual = scipy.special.j0(1.4342) - scipy.special.j1(1.4342)
    _report(capsys, 4, ok,
            f"g* = {g:.6f} (scipy brentq {g_ref:.6f}, diff {abs(g - g_ref):.1e}"
            f", tol 1e-10), eta = {eta:.6f} (scipy {eta_ref:.6f}, diff "
            f"{abs(eta - eta_ref):.1e}, tol 1e-12), {elapsed:.4f} s; the quoted "
            f"1.4342 is not a root (J0 - J1 = {quoted_residual:+.1e} there) and "
            f"the quoted 0.601 is eta(1.4342) = {_scipy_efficiency(1.4342):.5f}")


def test_criterion_05_shift_law(capsys):
    start = time.perf_counter()
    results = {}
    for ghz, window in ((1.25, 45.0), (3.75, 100.0)):
        discrete = CpmSettings().delta_t_ps(ghz)
        out = oracles.cpm_continuous(
            oracles.gaussian_pulse(0.0, 37.0), oracles.ChirpSpec(10.0),
            solve_balanced_depth(), ghz, 0.0,
        )
        spacing = oracles.copy_spacing_ps(oracles.ChirpSpec(10.0), ghz)
        continuous = oracles.copy_peak_position(out, spacing, window)
        results[ghz] = (discrete, continuous)
    elapsed = time.perf_counter() - start
    ok = (
        abs(results[1.25][0] - 100.0) <= 0.5
        and abs(results[1.25][1] - 100.0) <= 0.5
        and abs(results[3.75][0] - 300.0) <= 1.5
        and abs(results[3.75][1] - 300.0) <= 1.5
        and elapsed < 30.0
    )
    _report(capsys, 5, ok,
            f"1.25 GHz: {results[1.25][0]:.2f} ps discrete / "
            f"{results[1.25][1]:.2f} ps continuous (target 100.0 +/- 0.5); "
            f"3.75 GHz: {results[3.75][0]:.2f} / {results[3.75][1]:.2f} ps "
            f"(target 300.0 +/- 1.5), {elapsed:.1f} s")


def _walk_off_factor(separation_ps, fwhm_ps, dispersion_ns_per_nm):
    """Overlap of two equal copies whose carriers differ by Omega = T/|beta2|.

    At the balanced depth the windowed fringe is the overlap of the
    Gaussian intensity with itself shifted in frequency by Omega:
    exp(-(Omega sigma_t)^2 / 2), sigma_t the intensity standard deviation.
    beta2 = D lambda^2 / (2 pi c) at 1550 nm, in ps^2.
    """
    beta2_ps2 = (
        dispersion_ns_per_nm * 1550e-9**2 / (2.0 * math.pi * 299792458.0) * 1e24
    )
    sigma_ps = fwhm_ps / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return math.exp(-0.5 * (separation_ps / beta2_ps2 * sigma_ps) ** 2)


def test_criterion_06_visibility_bounds(capsys):
    start = time.perf_counter()
    vis100 = float(waveform.visibility_bound(100.0, 37.0, [10.0], 1550.0)[0])
    vis300 = float(waveform.visibility_bound(300.0, 37.0, [10.0], 1550.0)[0])
    monotone = True
    for sep in (100.0, 300.0):
        curve = waveform.visibility_bound(
            sep, 37.0, [2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0], 1550.0
        ).tolist()
        monotone = monotone and curve == sorted(curve)
    elapsed = time.perf_counter() - start
    # The [150, 450) ps window spans +-9.5 sigma_t at 300 ps, so the closed
    # form is exact there; at 100 ps the window cuts the pulse tails.
    ref300 = _walk_off_factor(300.0, 37.0, 10.0)
    ok = (
        abs(vis100 - 0.99) <= 0.01
        and abs(vis300 - ref300) <= 1e-9
        and monotone
        and elapsed < 300.0
    )
    # The quoted upstream 0.95 needs a smaller Omega * sigma_t than 37 ps
    # pulses at 10 ns/nm give: the pulse or the dispersion scaled by this.
    scale = math.sqrt(math.log(0.95) / math.log(ref300))
    _report(capsys, 6, ok,
            f"V(100 ps) = {vis100:.4f} (target 0.99 +/- 0.01), "
            f"V(300 ps) = {vis300:.6f} (walk-off exp(-(Omega sigma_t)^2/2) = "
            f"{ref300:.6f}, diff {abs(vis300 - ref300):.1e}, tol 1e-9; the quoted "
            f"0.95 would need {37.0 * scale:.1f} ps pulses or "
            f"{10.0 / scale:.1f} ns/nm), "
            f"monotone in dispersion: {monotone}, {elapsed:.1f} s")


def _fringe_fits(detector, penalty):
    levels = default_levels()
    state = ideal_cluster_state()
    means = detection.fringe_means(
        oracles.readout(state, detector, 1, levels, CpmSettings(), penalty), 24
    )
    fits = {}
    for (name, _ports, _bits, sign), column in zip(detection.FRINGE_PROJECTIONS, means.T):
        fit = analysis.fit_interference(column)
        fitted_sign = 1 if abs(fit.phase_offset) < math.pi / 2 else -1
        fits[name] = (fit, fitted_sign == sign)
    return fits


def test_criterion_07_fringes(capsys):
    start = time.perf_counter()
    clean = _fringe_fits(_noiseless_detector(), {})
    noisy = _fringe_fits(
        _noiseless_detector(dark_coincidence_rate=0.0667),
        {"T": 0.95, "t": 0.99},
    )
    clean_ok = all(
        abs(fit.visibility - 1.0) <= 1e-6 and sign_ok
        for fit, sign_ok in clean.values()
    )
    noisy_vis = {name: fit.visibility for name, (fit, _) in noisy.items()}
    noisy_ok = all(v > analysis.CHSH_THRESHOLD for v in noisy_vis.values())
    elapsed = time.perf_counter() - start
    ok = clean_ok and noisy_ok and elapsed < 60.0
    _report(capsys, 7, ok,
            f"exact V = 1.0 with correct +/- cos(2a) signs: {clean_ok}; "
            f"penalized V = {{{', '.join(f'{k}: {v:.3f}' for k, v in sorted(noisy_vis.items()))}}} "
            f"all > 0.707: {noisy_ok}, {elapsed:.1f} s")


def test_criterion_08_drift_stabilization(capsys):
    start = time.perf_counter()
    link = channel.FiberLink()
    trace = channel.simulate_drift(link, 86400.0, channel.ThermalModel(),
                                   np.random.default_rng(stream(0, "drift")))
    _, rms = channel.stabilize(trace, channel.StabilizerPolicy(),
                               np.random.default_rng(stream(0, "stabilizer")))
    elapsed = time.perf_counter() - start
    ok = abs(trace.peak_ps() - 92.0) <= 5.0 and rms <= 3.0 and elapsed < 30.0
    _report(capsys, 8, ok,
            f"peak offset {trace.peak_ps():.1f} ps (target 92 +/- 5), "
            f"stabilized residual RMS {rms:.2f} ps (limit 3), {elapsed:.1f} s")


def test_criterion_09_oracle_equivalence(capsys):
    import test_oracle_dense as od

    start = time.perf_counter()
    failures = product_failures = 0
    for case in range(100):
        try:
            od.test_random_maps_match_dense(case)
        except AssertionError:
            failures += 1
        try:
            od.test_product_path_matches_dense(case)
        except AssertionError:
            product_failures += 1
    for args in (("Z", "t"), ("X", "t"), ("X", "T"), ("XY", "T")):
        od.test_measurement_maps_match_dense(*args)
    od.test_joint_probabilities_match_dense()
    elapsed = time.perf_counter() - start
    ok = failures == 0 and product_failures == 0 and elapsed < 60.0
    _report(capsys, 9, ok,
            f"100 randomized dense-reference cases, {failures} failures; "
            f"100 product-path cases on the frequency-0 block, {product_failures} "
            f"failures (tolerance 1e-10), {elapsed:.1f} s")


def test_criterion_10_capacity(capsys):
    start = time.perf_counter()
    rate = analysis.multiplex_budget(5000.0, 25.0, 2.0)["qubits_per_s"]
    elapsed = time.perf_counter() - start
    ok = rate == 1e11 and elapsed < 1.0
    _report(capsys, 10, ok,
            f"multiplex_budget(5 THz, 25 GHz, 2 ns) = {rate:.6g} qubits/s "
            f"(target 1e11 exactly), {elapsed:.2f} s")


def test_criterion_11_cli_determinism(capsys, tmp_path):
    start = time.perf_counter()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "waveform": {"dispersions_ns_per_nm": [2.0, 10.0]},
        "detection": {"pairs_per_setting": 200},
        "analysis": {"mc_samples": 2000, "fringe_points": 12},
        "channel": {"readout_time_s": 7200.0, "drift": {"duration_s": 14400.0}},
    }))
    commands = ("generate", "transmit", "measure", "witness",
                "fringe", "visibility", "drift", "capacity")
    mismatched = []
    for command in commands:
        snaps = []
        for run in ("a", "b"):
            outdir = tmp_path / f"{command}-{run}"
            code = main([command, "--config", str(cfg_path), "--seed", "3",
                         "--out", str(outdir)])
            assert code == 0
            snaps.append({
                p.name: p.read_bytes()
                for p in sorted(Path(outdir).iterdir()) if p.is_file()
            })
        if snaps[0] != snaps[1] or not snaps[0]:
            mismatched.append(command)
    elapsed = time.perf_counter() - start
    ok = not mismatched
    _report(capsys, 11, ok,
            f"all 8 CLI commands byte-identical across repeated runs"
            + (f" (mismatches: {mismatched})" if mismatched else "")
            + f", {elapsed:.1f} s")
