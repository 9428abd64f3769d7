"""Witness algebra, resampling errors, fringe fits and capacity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersim.analysis import (
    CHSH_THRESHOLD,
    STABILIZER_TERMS,
    fit_interference,
    monte_carlo_error,
    multiplex_capacity,
    stabilizer_expectation,
    term_signs,
    witness,
    witness_samples,
)
from clustersim.detection import WITNESS_BASES
from clustersim.errors import InsufficientScan, MissingBasis


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


def test_ideal_projections_give_witness_minus_one():
    report = witness(_projections_for_noise(0.0))
    assert report.witness == pytest.approx(-1.0, abs=1e-12)
    assert report.expectations == pytest.approx((1.0,) * 6, abs=1e-12)
    assert report.fidelity_bound == pytest.approx(1.0, abs=1e-12)
    assert all(report.term_pass) and report.mean_pass
    assert report.certifies_entanglement()


@pytest.mark.parametrize("p", [0.0, 0.1, 1.0 / 3.0, 2.0 / 3.0, 1.0])
def test_white_noise_matches_density_matrix_oracle(p):
    oracle = _density_matrix_oracle(p)
    proj = _projections_for_noise(p)
    for term in STABILIZER_TERMS:
        assert stabilizer_expectation(term, proj) == pytest.approx(
            oracle[term], abs=1e-10
        )
    # W(p) = -1 + 3p on the white-noise line
    assert witness(proj).witness == pytest.approx(-1.0 + 3.0 * p, abs=1e-10)


def test_witness_boundary_at_one_third():
    assert witness(_projections_for_noise(1.0 / 3.0)).witness == pytest.approx(
        0.0, abs=1e-12
    )
    assert not witness(_projections_for_noise(0.34)).certifies_entanglement()
    assert witness(_projections_for_noise(0.32)).certifies_entanglement()


def test_term_signs_structure():
    assert term_signs("1111").tolist() == [1.0] * 16
    zzzz = term_signs("ZZZZ")
    for outcome in range(16):
        assert zzzz[outcome] == (-1.0) ** bin(outcome).count("1")


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
    report = witness(arrays)
    total = sum(stabilizer_expectation(t, arrays) for t in STABILIZER_TERMS)
    assert report.witness == pytest.approx(2.0 - 0.5 * total, abs=1e-12)
    assert report.fidelity_bound == pytest.approx(
        (1.0 - report.witness) / 2.0, abs=1e-12
    )


def test_missing_basis_raises():
    proj = _projections_for_noise(0.0)
    del proj["XXZZ"]
    with pytest.raises(MissingBasis):
        witness(proj)


def _raw_counts(scale, p=0.1, seed=0):
    rng = np.random.default_rng(seed)
    return {
        basis: rng.poisson(scale * dist).astype(float)
        for basis, dist in _projections_for_noise(p).items()
    }


def test_mc_stderr_scaling():
    """Quadrupled counts halve the resampled standard error."""
    err1, hist, edges = monte_carlo_error(_raw_counts(500), samples=40_000, seed=1)
    err4, _, _ = monte_carlo_error(_raw_counts(2000), samples=40_000, seed=1)
    assert err1 > 0
    assert err4 / err1 == pytest.approx(0.5, rel=0.15)
    assert hist.sum() == 40_000
    assert len(edges) == len(hist) + 1


def test_mc_stderr_inverse_sqrt_over_decades():
    errs = [
        monte_carlo_error(_raw_counts(n), samples=20_000, seed=2)[0]
        for n in (100, 10_000)
    ]
    assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.2)


def test_mc_is_deterministic():
    counts = _raw_counts(400)
    a = monte_carlo_error(counts, samples=5_000, seed=3)
    b = monte_carlo_error(counts, samples=5_000, seed=3)
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1], b[1])


def test_mc_rejects_negative_counts():
    counts = _raw_counts(400)
    counts["ZZZZ"] = counts["ZZZZ"] - 1e9
    with pytest.raises(ValueError):
        monte_carlo_error(counts, samples=100)


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


def test_fit_exact_fringe():
    alphas = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
    rates = 5.0 * (1.0 + 0.8 * np.cos(2 * alphas + 0.6))
    fit = fit_interference(alphas, rates)
    assert fit.visibility == pytest.approx(0.8, abs=1e-9)
    assert fit.phase_offset == pytest.approx(0.6, abs=1e-9)
    assert fit.harmonic == 2
    assert fit.chsh_pass


def test_fit_below_chsh_threshold():
    alphas = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
    rates = 5.0 * (1.0 + 0.5 * np.cos(2 * alphas))
    fit = fit_interference(alphas, rates)
    assert fit.visibility == pytest.approx(0.5, abs=1e-9)
    assert not fit.chsh_pass
    assert CHSH_THRESHOLD == pytest.approx(1.0 / np.sqrt(2.0))


def test_fit_selects_fundamental_when_present():
    alphas = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
    rates = 5.0 * (1.0 + 0.8 * np.cos(alphas))
    fit = fit_interference(alphas, rates)
    assert fit.harmonic == 1
    assert fit.visibility == pytest.approx(0.8, abs=1e-9)


def test_fit_insufficient_scan():
    with pytest.raises(InsufficientScan):
        fit_interference(np.linspace(0, 1, 4), np.ones(4))
    with pytest.raises(InsufficientScan):
        fit_interference(np.linspace(0, 0.5, 20), np.ones(20))
    with pytest.raises(InsufficientScan):
        fit_interference(np.linspace(0, 7, 20), np.ones((2, 10)).ravel()[:19])


def test_capacity_published_operating_point():
    assert multiplex_capacity(5000.0, 25.0, 2.0) == pytest.approx(1e11)


def test_capacity_scaling_laws():
    base = multiplex_capacity(5000.0, 25.0, 2.0)
    assert multiplex_capacity(10000.0, 25.0, 2.0) == pytest.approx(2 * base)
    assert multiplex_capacity(5000.0, 25.0, 4.0) == pytest.approx(base / 2)
    # channel count floors: 5012 / 25 -> still 200 channels
    assert multiplex_capacity(5012.0, 25.0, 2.0) == pytest.approx(base)
    with pytest.raises(ValueError):
        multiplex_capacity(0.0, 25.0, 2.0)
