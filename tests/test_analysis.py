"""Outcome fold, witness algebra, resampling errors, fringe fits and capacity."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence

from clustersim import analysis
from clustersim.analysis import (
    CHSH_THRESHOLD,
    MC_CHUNK,
    STABILIZER_TERMS,
    TERM_BASIS,
    WITNESS_BASES,
    class_totals,
    delta_method_stderr,
    extract_projections,
    fit_interference,
    monte_carlo_error,
    multiplex_budget,
    outcome_classes,
    raw_basis_counts,
    scan_phases,
    term_signs,
    witness,
)
from clustersim.detection import DetectorModel, JointTemporalIntensity, sample_coincidences
from clustersim.errors import InsufficientScan, MissingBasis
from oracles import (
    broadcast_class_total_samples,
    loop_basis_counts,
    loop_term_signs,
    lstsq_fringe_fit,
    raw_count_witness_samples,
    readout,
    resample_witness,
    signs_and_bases,
    witness_from_class_totals,
    witness_samples,
)


def _density_matrix_oracle(p):
    """<term> on rho = (1-p)|Psi><Psi| + p I/16, computed with dense 16x16 algebra."""
    amps = np.zeros(16, dtype=complex)
    # 1/2 (|0000> + |0011> + |1100> - |1111>), bit order (T_s, T_i, t_s, t_i)
    for idx, sign in ((0b0000, 1), (0b0011, 1), (0b1100, 1), (0b1111, -1)):
        amps[idx] = 0.5 * sign
    rho = (1 - p) * np.outer(amps, amps.conj()) + p * np.eye(16) / 16
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    ops = {"1": eye, "Z": z, "X": x}
    exps = {}
    for term in STABILIZER_TERMS:
        op = np.array([[1.0]])
        for ch in term:
            op = np.kron(op, ops[ch])
        exps[term] = float(np.real(np.trace(rho @ op)))
    return exps


def _projections_for_noise(p):
    """Normalized 16-outcome distributions of the three witness bases."""
    amps = np.zeros(16, dtype=complex)
    for idx, sign in ((0b0000, 1), (0b0011, 1), (0b1100, 1), (0b1111, -1)):
        amps[idx] = 0.5 * sign
    rho = (1 - p) * np.outer(amps, amps.conj()) + p * np.eye(16) / 16
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    eye = np.eye(2)
    out = {}
    for basis in WITNESS_BASES:
        u = np.array([[1.0]])
        for ch in basis:
            u = np.kron(u, h if ch == "X" else eye)
        out[basis] = np.real(np.diag(u @ rho @ u.T.conj()))
    return out


def test_projections_normalized_and_loss_invariant(
    cluster, schedule, noiseless_detector, tree, base_cpm
):
    hists = sample_coincidences(
        readout(cluster, noiseless_detector, 1, tree, base_cpm, {}), schedule,
        SeedSequence(0), True,
    )
    proj = extract_projections(raw_basis_counts(hists))
    assert set(proj) == set(WITNESS_BASES)
    for values in proj.values():
        assert values.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(values >= 0)
    lossy = DetectorModel(
        jitter_signal_ps=0.0, jitter_idler_ps=0.0, tdc_jitter_ps=0.0,
        efficiency=0.2,
    )
    hists2 = sample_coincidences(
        readout(cluster, lossy, 1, tree, base_cpm, {}), schedule, SeedSequence(0), True
    )
    proj2 = extract_projections(raw_basis_counts(hists2))
    for basis in WITNESS_BASES:
        np.testing.assert_allclose(proj2[basis], proj[basis], atol=1e-12)


def test_raw_counts_conserve_totals(cluster, schedule, noiseless_detector, tree, base_cpm):
    hists = sample_coincidences(
        readout(cluster, noiseless_detector, 300, tree, base_cpm, {}), schedule,
        SeedSequence(3), False,
    )
    raw = raw_basis_counts(hists)
    # each basis total equals the originating histogram's total counts
    for h in hists:
        kinds = (h.pairing.signal_setting.kind, h.pairing.idler_setting.kind)
        if kinds == ("Z", "Z"):
            assert raw["ZZZZ"].sum() == h.counts.sum()


@pytest.mark.parametrize("seed", range(5))
def test_outcome_fold_matches_loop_oracle(schedule, tree, seed):
    rng = np.random.default_rng(seed)
    hists = [
        JointTemporalIntensity(p, rng.uniform(0.0, 1e3, (4, 4)))
        for p in schedule
    ]
    raw = raw_basis_counts(hists)
    folded = {}
    for h in hists:
        basis = h.pairing.basis
        if basis is not None:
            folded[basis] = loop_basis_counts(h.counts, basis, tree.positions_ps)
    assert sorted(folded) == sorted(WITNESS_BASES)
    for basis in WITNESS_BASES:
        np.testing.assert_array_equal(raw[basis], folded[basis])


def test_missing_basis_detected(cluster, schedule, noiseless_detector, tree, base_cpm):
    hists = sample_coincidences(
        readout(cluster, noiseless_detector, 100, tree, base_cpm, {}), schedule,
        SeedSequence(0), True,
    )
    emptied = [
        JointTemporalIntensity(h.pairing, 0.0 * h.counts) if h.pairing.basis == "XXZZ" else h
        for h in hists
    ]
    with pytest.raises(MissingBasis, match="basis XXZZ has no counts"):
        extract_projections(raw_basis_counts(emptied))


def test_ideal_projections_give_witness_minus_one():
    report = witness(_projections_for_noise(0.0), None, None)
    assert report["witness"] == pytest.approx(-1.0, abs=1e-12)
    assert report["expectations"] == pytest.approx([1.0] * 6, abs=1e-12)
    assert report["fidelity_bound"] == pytest.approx(1.0, abs=1e-12)
    assert all(report["term_pass"]) and report["mean_pass"]
    assert report["certifies_entanglement"]


@pytest.mark.parametrize("p", [0.0, 0.1, 1.0 / 3.0, 2.0 / 3.0, 1.0])
def test_white_noise_matches_density_matrix_oracle(p):
    oracle = _density_matrix_oracle(p)
    report = witness(_projections_for_noise(p), None, None)
    for term, value in zip(STABILIZER_TERMS, report["expectations"]):
        assert value == pytest.approx(oracle[term], abs=1e-10)
    # W(p) = -1 + 3p on the white-noise line
    assert report["witness"] == pytest.approx(-1.0 + 3.0 * p, abs=1e-10)


def test_witness_boundary_at_one_third():
    assert witness(_projections_for_noise(1.0 / 3.0), None, None)["witness"] == pytest.approx(
        0.0, abs=1e-12
    )
    assert not witness(_projections_for_noise(0.34), None, None)["certifies_entanglement"]
    assert witness(_projections_for_noise(0.32), None, None)["certifies_entanglement"]


def test_term_signs_structure():
    assert term_signs("1111").tolist() == [1.0] * 16
    zzzz = term_signs("ZZZZ")
    for outcome in range(16):
        assert zzzz[outcome] == (-1.0) ** bin(outcome).count("1")


def test_term_signs_match_loop_oracle():
    terms = ["".join(ops) for ops in itertools.product("1ZX", repeat=4)]
    assert len(terms) == 81
    for term in terms:
        np.testing.assert_array_equal(term_signs(term), loop_term_signs(term))


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=48, max_size=48,
    )
)
@settings(max_examples=50, deadline=None)
def test_witness_identity(values):
    """W == 2 - (1/2) sum <S_k> for any normalized distributions."""
    arrays = {}
    for i, basis in enumerate(WITNESS_BASES):
        chunk = np.asarray(values[16 * i : 16 * (i + 1)]) + 1e-6
        arrays[basis] = chunk / chunk.sum()
    report = witness(arrays, None, None)
    total = sum(term_signs(t) @ arrays[TERM_BASIS[t]] for t in STABILIZER_TERMS)
    assert report["witness"] == pytest.approx(2.0 - 0.5 * total, abs=1e-12)
    assert report["fidelity_bound"] == pytest.approx(
        (1.0 - report["witness"]) / 2.0, abs=1e-12
    )


def _raw_counts(scale, p=0.1, seed=0):
    rng = np.random.default_rng(seed)
    return {
        basis: rng.poisson(scale * dist).astype(float)
        for basis, dist in _projections_for_noise(p).items()
    }


def test_mc_stderr_scaling():
    """Quadrupled counts halve the resampled standard error."""
    err1, hist, edges = monte_carlo_error(class_totals(_raw_counts(500)), 40_000, SeedSequence(1))
    err4, _, _ = monte_carlo_error(class_totals(_raw_counts(2000)), 40_000, SeedSequence(1))
    assert err1 > 0
    assert err4 / err1 == pytest.approx(0.5, rel=0.15)
    assert hist.sum() == 40_000
    assert len(edges) == len(hist) + 1


def test_mc_stderr_inverse_sqrt_over_decades():
    errs = [
        monte_carlo_error(class_totals(_raw_counts(n)), samples=20_000, seed=SeedSequence(2))[0]
        for n in (100, 10_000)
    ]
    assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.2)


def test_mc_is_deterministic():
    totals = class_totals(_raw_counts(400))
    a = monte_carlo_error(totals, samples=5_000, seed=SeedSequence(3))
    b = monte_carlo_error(totals, samples=5_000, seed=SeedSequence(3))
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1], b[1])


def test_mc_rejects_negative_counts():
    counts = _raw_counts(400)
    counts["ZZZZ"] = counts["ZZZZ"] - 1e9
    with pytest.raises(ValueError):
        monte_carlo_error(class_totals(counts), samples=100, seed=SeedSequence(0))


def _witness_samples_reference(counts, signs, term_basis):
    """Scalar loop over samples, terms and outcomes; the vectorized oracle."""
    out = np.empty(counts.shape[0])
    for i in range(counts.shape[0]):
        s_sum = 0.0
        for t in range(signs.shape[0]):
            b = term_basis[t]
            tot = 0.0
            acc = 0.0
            for o in range(16):
                c = counts[i, b, o]
                tot += c
                acc += signs[t, o] * c
            if tot > 0.0:
                s_sum += acc / tot
        out[i] = 2.0 - 0.5 * s_sum
    return out


def test_witness_samples_matches_scalar_reference():
    rng = np.random.default_rng(2)
    counts = rng.poisson(40.0, size=(300, 3, 16)).astype(np.float64)
    counts[:5, 1, :] = 0.0  # some samples with an empty basis
    signs = np.where(rng.random((6, 16)) < 0.5, -1.0, 1.0)
    term_basis = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
    np.testing.assert_allclose(
        witness_samples(counts, signs, term_basis),
        _witness_samples_reference(counts, signs, term_basis),
        atol=1e-12,
    )


def test_witness_samples_empty_basis_contributes_zero():
    counts = np.zeros((2, 3, 16))
    counts[:, 0, :] = 1.0  # only basis 0 has counts
    signs = np.ones((6, 16))
    term_basis = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
    values = witness_samples(counts, signs, term_basis)
    # two terms evaluate to 1, four contribute 0: W = 2 - 0.5 * 2 = 1
    np.testing.assert_allclose(values, 1.0, atol=1e-12)


def test_class_totals_match_loop_oracle():
    """Each raw count lands in the class its basis's two term signs give it."""
    raw = _sparse_raw_counts()
    want = np.zeros((3, 3))
    for b, basis in enumerate(WITNESS_BASES):
        s1, s2 = (loop_term_signs(t) for t in STABILIZER_TERMS if TERM_BASIS[t] == basis)
        for o in range(16):
            want[b, {2.0: 0, -2.0: 1, 0.0: 2}[s1[o] + s2[o]]] += raw[basis][o]
    np.testing.assert_array_equal(class_totals(raw), want)


def test_class_totals_match_raw_count_witness():
    """Folding the 48 counts into 9 class totals leaves each witness value exact."""
    rng = np.random.default_rng(5)
    counts = rng.poisson(rng.uniform(0.0, 60.0, size=(3, 16)), size=(400, 3, 16))
    counts = counts.astype(np.float64)
    counts[:7, 0, :] = 0.0  # rows with an empty basis
    counts[7:10, 2, :] = 0.0
    totals = np.einsum("bco,nbo->nbc", outcome_classes(WITNESS_BASES), counts)
    np.testing.assert_allclose(
        witness_from_class_totals(totals),
        witness_samples(counts, *signs_and_bases(WITNESS_BASES)),
        rtol=0.0, atol=1e-12,
    )


def test_class_total_sampler_matches_raw_count_sampler():
    """Mean and std of the two samplers agree within 5 combined MC errors."""
    raw = _raw_counts(300)
    n = 100_000
    new = resample_witness(class_totals(raw), n, seed=SeedSequence(7))
    ref = raw_count_witness_samples(raw, n, seed=8)
    spread = np.hypot(new.std(), ref.std())
    assert abs(new.mean() - ref.mean()) < 5.0 * spread / np.sqrt(n)
    # the std of a sample std is about std / sqrt(2 n) for a near-normal variable
    assert abs(new.std() - ref.std()) < 5.0 * spread / np.sqrt(2.0 * n)


def test_class_total_sampler_matches_broadcast_sampler():
    """Chunked per-class draws and the one-stream broadcast draws agree in distribution."""
    raw = _raw_counts(300)
    n = 100_000
    new = resample_witness(class_totals(raw), n, seed=SeedSequence(9))
    ref = broadcast_class_total_samples(raw, n, seed=10)
    spread = np.hypot(new.std(), ref.std())
    assert abs(new.mean() - ref.mean()) < 5.0 * spread / np.sqrt(n)
    assert abs(new.std() - ref.std()) < 5.0 * spread / np.sqrt(2.0 * n)


def _sparse_raw_counts():
    """Counts with a full basis, an empty basis (all class means 0) and a sparse one."""
    raw = _raw_counts(400)
    raw["ZZXX"] = np.zeros(16)
    raw["XXZZ"] = np.zeros(16)
    raw["XXZZ"][[0, 1, 5]] = 1.0  # about e^-3 of its resampled totals are 0
    return raw


def test_chunk_replays_class_total_oracle():
    """A chunk's values are the oracle witness of its 9 draws, replayed from its seed."""
    raw = _sparse_raw_counts()
    samples, seed = 2 * MC_CHUNK + 1000, 11
    values = resample_witness(class_totals(raw), samples, SeedSequence(seed))
    lam = np.einsum("bco,bo->bc", outcome_classes(tuple(raw)), np.stack(list(raw.values())))
    assert np.all(lam[1] == 0.0) and np.all(lam[0] > 0.0)
    children = SeedSequence(seed).spawn(3)
    for i, n in ((1, MC_CHUNK), (2, 1000)):
        rng = np.random.default_rng(children[i])
        totals = np.empty((n, 3, 3))
        for b in range(3):
            for c in range(3):
                totals[:, b, c] = rng.poisson(lam[b, c], size=n)
        assert np.any(totals[:, 2].sum(axis=1) == 0.0)
        np.testing.assert_allclose(
            values[i * MC_CHUNK : i * MC_CHUNK + n],
            witness_from_class_totals(totals),
            rtol=0.0, atol=1e-12,
        )


@pytest.mark.parametrize("raw", [_raw_counts(400), _sparse_raw_counts()],
                         ids=["full", "sparse"])
@pytest.mark.parametrize("samples,seed", [(2 * MC_CHUNK + 1000, 4), (MC_CHUNK, 5), (2, 6)])
def test_streamed_error_matches_resampled_values(raw, samples, seed):
    """The chunk-by-chunk sums and counts give what the array of every value gives."""
    totals = class_totals(raw)
    stderr, hist, edges = monte_carlo_error(totals, samples, SeedSequence(seed))
    values = resample_witness(totals, samples, SeedSequence(seed))
    assert stderr == pytest.approx(np.std(values), rel=1e-12, abs=0.0)
    assert len(edges) == len(hist) + 1 == analysis.WITNESS_HIST_BINS + 1
    clipped = np.clip(values, edges[0], edges[-1])
    np.testing.assert_array_equal(hist, np.histogram(clipped, bins=edges)[0])
    assert hist.sum() == samples


def test_histogram_spans_six_delta_sigmas_about_the_totals_witness():
    totals = class_totals(_raw_counts(400))
    _, _, edges = monte_carlo_error(totals, 1000, SeedSequence(0))
    centre = witness_from_class_totals(totals[None])[0]
    half = analysis.WITNESS_HIST_SIGMAS * delta_method_stderr(totals)
    assert edges[0] == pytest.approx(centre - half, rel=0.0, abs=1e-12)
    assert edges[-1] == pytest.approx(centre + half, rel=0.0, abs=1e-12)
    # a zero sigma gets numpy's unit span, and every sample still lands in a bin
    one_class = np.array([[5.0, 0.0, 0.0]] * 3)
    assert delta_method_stderr(one_class) == 0.0
    stderr, hist, edges = monte_carlo_error(one_class, 1000, SeedSequence(0))
    assert edges[-1] - edges[0] == pytest.approx(1.0)
    assert hist.sum() == 1000 and stderr > 0.0  # N = 0 draws give W = 2 now and then


@pytest.mark.parametrize("workers", [1, 3])
def test_resampling_is_independent_of_worker_count(monkeypatch, workers):
    totals = class_totals(_sparse_raw_counts())
    samples = 4 * MC_CHUNK + 123
    stderr, hist, edges = monte_carlo_error(totals, samples, seed=SeedSequence(12))
    monkeypatch.setattr(analysis, "_workers", lambda n_chunks: workers)
    again = monte_carlo_error(totals, samples, seed=SeedSequence(12))
    assert again[0] == stderr
    assert again[1].tobytes() == hist.tobytes()
    assert again[2].tobytes() == edges.tobytes()


def test_mc_memory_does_not_grow_with_samples():
    """10^6 samples hold a few chunks at a time, not 8 MB of values."""
    totals = class_totals(_raw_counts(400))
    tracemalloc.start()
    try:
        monte_carlo_error(totals, samples=10**6, seed=SeedSequence(13))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_mc_draws_nine_variates_per_sample(monkeypatch):
    totals = class_totals(_raw_counts(400))
    drawn = []

    class CountingRng:
        def __init__(self, seed):
            self._rng = np.random.Generator(np.random.PCG64(seed))

        def poisson(self, lam, size):
            drawn.append(int(np.prod(size)))
            return self._rng.poisson(lam, size)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    monte_carlo_error(totals, samples=120_000, seed=SeedSequence(3))
    assert sum(drawn) == 120_000 * 9


def test_delta_method_empty_basis_contributes_zero():
    raw = _raw_counts(2000)
    full = delta_method_stderr(class_totals(raw))
    empty = delta_method_stderr(class_totals({**raw, "ZZXX": np.zeros(16)}))
    assert 0.0 < empty < full
    only = {b: (v if b == "ZZXX" else np.zeros(16)) for b, v in raw.items()}
    assert full**2 == pytest.approx(
        empty**2 + delta_method_stderr(class_totals(only)) ** 2, rel=1e-12
    )


def test_fit_phase_of_pi_is_plus_pi():
    """A fringe at phase pi reads +pi, whatever sign rounding gives its sine sum."""
    for scale, k, n in itertools.product((1.0, 3.0, 1e-20, 7e13), analysis.FIT_HARMONICS,
                                         (8, 12, 24, 25)):
        rates = scale * (1.0 + 0.5 * np.cos(k * scan_phases(n) + math.pi))
        fit = fit_interference(rates, -1)
        assert -math.pi < fit["phase_offset"] <= math.pi, (scale, k, n)
        assert fit["phase_offset"] == pytest.approx(math.pi, abs=1e-12)


def test_fit_exact_fringe():
    rates = 5.0 * (1.0 + 0.8 * np.cos(2 * scan_phases(24) + 0.6))
    fit = fit_interference(rates, 1)
    assert fit["visibility"] == pytest.approx(0.8, abs=1e-9)
    assert fit["phase_offset"] == pytest.approx(0.6, abs=1e-9)
    assert fit["harmonic"] == 2
    assert fit["chsh_pass"]


def test_fit_below_chsh_threshold():
    rates = 5.0 * (1.0 + 0.5 * np.cos(2 * scan_phases(24)))
    fit = fit_interference(rates, 1)
    assert fit["visibility"] == pytest.approx(0.5, abs=1e-9)
    assert not fit["chsh_pass"]
    assert CHSH_THRESHOLD == pytest.approx(1.0 / np.sqrt(2.0))


def test_fit_selects_fundamental_when_present():
    rates = 5.0 * (1.0 + 0.8 * np.cos(scan_phases(24)))
    fit = fit_interference(rates, 1)
    assert fit["harmonic"] == 1
    assert fit["visibility"] == pytest.approx(0.8, abs=1e-9)


def test_fit_sign_match_reads_the_fitted_cos_sign():
    """A cos(2 alpha + pi) fringe has a negative cos term: it matches -1, not +1."""
    rates = 5.0 * (1.0 + 0.8 * np.cos(2 * scan_phases(24) + math.pi))
    assert fit_interference(rates, 1)["sign_match"] is False
    assert fit_interference(rates, -1)["sign_match"] is True


def _fringe_rates(kind, n, rng):
    alphas = scan_phases(n)
    a, b = rng.uniform(0.05, 0.45, 2)
    p1, p2 = rng.uniform(-math.pi, math.pi, 2)
    if kind == "k1":
        shape = a * np.cos(alphas + p1)
    elif kind == "k2":
        shape = a * np.cos(2 * alphas + p2)
    elif kind == "mixed":
        shape = a * np.cos(alphas + p1) + b * np.cos(2 * alphas + p2)
    else:  # random rates
        shape = rng.uniform(-0.9, 0.9, n)
    return rng.uniform(1.0, 1000.0) * (1.0 + shape)


@pytest.mark.parametrize("kind", ["k1", "k2", "mixed", "random"])
@pytest.mark.parametrize("n", [8, 9, 12, 24, 1000])
def test_fit_matches_lstsq_oracle(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    harmonics = set()
    for _ in range(20):
        rates = _fringe_rates(kind, n, rng)
        fit = fit_interference(rates, 1)
        vis, phase, harmonic = lstsq_fringe_fit(scan_phases(n), rates)
        assert fit["harmonic"] == harmonic
        assert abs(fit["visibility"] - vis) <= 1e-12
        assert abs(math.remainder(fit["phase_offset"] - phase, 2 * math.pi)) <= 1e-12
        harmonics.add(fit["harmonic"])
    if kind in ("k1", "k2"):
        assert harmonics == {int(kind[1])}
    if kind == "mixed":
        assert harmonics == {1, 2}


@pytest.mark.parametrize("n", [8, 9, 12, 24, 1000])
def test_fit_flat_rates_keep_fundamental(n):
    for level in (1e-3, 3.7, 1e12):
        fit = fit_interference(np.full(n, level), 1)
        assert fit["harmonic"] == 1
        assert fit["visibility"] <= 1e-12


def test_fit_insufficient_scan():
    with pytest.raises(InsufficientScan, match="non-positive mean rate"):
        fit_interference(np.zeros(24), 1)


def test_capacity_published_operating_point():
    assert multiplex_budget(5000.0, 25.0, 2.0)["qubits_per_s"] == pytest.approx(1e11)


def test_capacity_scaling_laws():
    base = multiplex_budget(5000.0, 25.0, 2.0)["qubits_per_s"]
    assert multiplex_budget(10000.0, 25.0, 2.0)["qubits_per_s"] == pytest.approx(2 * base)
    assert multiplex_budget(5000.0, 25.0, 4.0)["qubits_per_s"] == pytest.approx(base / 2)
    # channel count floors: 5012 / 25 -> still 200 channels
    assert multiplex_budget(5012.0, 25.0, 2.0)["qubits_per_s"] == pytest.approx(base)
    with pytest.raises(ValueError):
        multiplex_budget(0.0, 25.0, 2.0)


def test_capacity_budget_parts():
    budget = multiplex_budget(5012.0, 25.0, 2.0)
    assert budget == {"channels": 200, "repetition_rate_hz": 5e8, "qubits_per_s": 1e11}
    with pytest.raises(ValueError):
        multiplex_budget(5000.0, 5e-324, 2.0)
