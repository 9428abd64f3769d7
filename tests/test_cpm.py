"""Discrete scattering operator and time-bin beam splitters."""

import numpy as np
import pytest

from clustersim.bessel import solve_balanced_depth
from clustersim.cpm import BeamSplitterSetting, CpmSettings, check_copy_spacing, measurement_map
from clustersim.encoding import Level, LevelTree
from clustersim.errors import GridMismatch
from oracles import (
    CpmOperatorSettings,
    any_depth_measurement_map,
    bessel_j,
    efficiency,
    grid_copy_spacing_ok,
    grid_time_steps,
    tree_levels,
)
from sparse_oracle import TimeFreqMode, check_truncation, cpm_mode_map, freq_steps


def test_shift_law_values():
    s = CpmSettings()
    assert s.delta_t_ps(1.25) == pytest.approx(100.0, abs=0.5)
    assert s.delta_t_ps(3.75) == pytest.approx(300.0, abs=1.5)
    # exact physical values from beta2 = D lambda^2 / (2 pi c)
    assert s.delta_t_ps(1.25) == pytest.approx(100.1735, abs=1e-3)
    assert s.delta_t_ps(3.75) == pytest.approx(300.5204, abs=1e-3)


def test_grid_steps(grid):
    assert grid_time_steps(CpmSettings(), grid, 1.25) == 1
    assert freq_steps(CpmOperatorSettings(rf_frequency_ghz=1.25), grid) == 1
    assert grid_time_steps(CpmSettings(), grid, 3.75) == 3
    assert freq_steps(CpmOperatorSettings(rf_frequency_ghz=3.75), grid) == 3


def test_off_grid_rejected(grid, tree):
    with pytest.raises(GridMismatch):
        grid_time_steps(CpmSettings(dispersion_ns_per_nm=7.0), grid, 1.25)
    with pytest.raises(GridMismatch, match=r"level t: copy spacing 70\.1214 ps"):
        check_copy_spacing(CpmSettings(dispersion_ns_per_nm=7.0), tree.inner, tree.outer)
    with pytest.raises(GridMismatch):
        freq_steps(CpmOperatorSettings(rf_frequency_ghz=2.0), grid)


def test_mode_map_weights_are_bessel(grid):
    g = 1.1
    settings = CpmOperatorSettings(g=g, rf_frequency_ghz=1.25, alpha=0.7)
    targets = dict(
        ((m.t_index, m.f_index), w)
        for m, w in cpm_mode_map(settings, grid)(TimeFreqMode(0, 0))
    )
    for m in range(-3, 4):
        expected = bessel_j(m, g) * np.exp(-1j * m * 0.7)
        assert targets[(m, m)] == pytest.approx(expected, abs=1e-12)


def test_mode_map_is_unitary_row(grid):
    settings = CpmOperatorSettings(g=2.3, rf_frequency_ghz=1.25, truncation_order=12)
    weights = [w for _, w in cpm_mode_map(settings, grid)(TimeFreqMode(2, 1))]
    assert sum(abs(w) ** 2 for w in weights) == pytest.approx(1.0, abs=1e-9)


def test_copy_spacing_overflow_rejected():
    for carrier in (0.0, -1550.0, 1e308):  # 1e308 nm squared overflows in metres
        with pytest.raises(ValueError):
            CpmSettings(carrier_wavelength_nm=carrier)
    for dispersion, rf_ghz in ((1e308, 1.25), (10.0, 1e308), (0.0, 1e308)):
        tree = LevelTree(Level("T", 300.0, 3.75), Level("t", 100.0, rf_ghz))
        settings = CpmSettings(dispersion_ns_per_nm=dispersion)
        with pytest.raises(GridMismatch, match=r"copy spacing (inf|nan) ps"):
            check_copy_spacing(settings, tree.inner)


def _bridges(settings: CpmSettings, level: Level) -> bool:
    """Whether check_copy_spacing accepts an X splitter on level."""
    try:
        check_copy_spacing(settings, level)
    except GridMismatch:
        return False
    return True


def test_copy_spacing_check_matches_grid_oracle():
    """The one-step check accepts what the two-step grid check accepts.

    The sweep holds shifts on the 100 ps grid, and no dt within an ulp of the
    1 ps tolerance edge, where the two roundings may differ.  The 1e308 GHz
    tone overflows the angular frequency to infinity.
    """
    dispersions = [7.0, *np.linspace(9.85, 10.10, 26), -10.0, 0.0, 1e308]
    tones = [1.25, 2.5, 3.75, -1.25, 1e290, 1e308]
    shifts = [100.0, 200.0, 300.0, 400.0, 600.0]
    verdicts = []
    for dispersion in dispersions:
        settings = CpmSettings(dispersion_ns_per_nm=float(dispersion))
        for tone in tones:
            for shift in shifts:
                level = Level("t", shift, tone)
                new = _bridges(settings, level)
                assert new == grid_copy_spacing_ok(settings, level), (dispersion, tone, shift)
                verdicts.append(new)
    assert 0 < sum(verdicts) < len(verdicts)


def test_truncation_guard():
    with pytest.raises(ValueError):
        check_truncation(CpmOperatorSettings(g=9.0, truncation_order=3))
    with pytest.raises(ValueError):
        CpmOperatorSettings(truncation_order=-1)


def test_z_setting_is_identity(tree):
    a = measurement_map(BeamSplitterSetting("Z", "t"), tree, 0.0)
    np.testing.assert_array_equal(a, np.eye(4))
    # every column keeps its full probability: efficiency 1
    np.testing.assert_array_equal(np.sum(np.abs(a) ** 2, axis=0), np.ones(4))


@pytest.mark.parametrize("level,partner_steps", [("t", {0: 1, 1: 0, 3: 4, 4: 3}),
                                                 ("T", {0: 3, 3: 0, 1: 4, 4: 1})])
def test_x_setting_connects_level_partners(tree, grid, level, partner_steps):
    g_star = solve_balanced_depth()
    j0 = bessel_j(0, g_star)
    a = measurement_map(BeamSplitterSetting("X", level), tree, 0.0)
    bin_of_steps = {grid.t_steps(p): b for b, p in enumerate(tree.positions_ps)}
    for steps, partner in partner_steps.items():
        b = bin_of_steps[steps]
        assert set(np.flatnonzero(a[:, b])) == {b, bin_of_steps[partner]}
        assert a[b, b] == pytest.approx(j0)
        # column norm equals the splitter efficiency
        norm = np.sum(np.abs(a[:, b]) ** 2)
        assert norm == pytest.approx(efficiency(g_star), abs=1e-12)


def test_xy_phase_signs(tree):
    """|0> picks up J1 e^{-i a} toward |1>; |1> picks up -J1 e^{+i a}."""
    alpha = 0.9
    g_star = solve_balanced_depth()
    j1 = bessel_j(1, g_star)
    a = measurement_map(BeamSplitterSetting("X", "t", alpha), tree, 0.0)
    fwd = a[1, 0]
    bwd = a[0, 1]
    assert fwd == pytest.approx(j1 * np.exp(-1j * alpha), abs=1e-12)
    assert bwd == pytest.approx(-j1 * np.exp(1j * alpha), abs=1e-12)


def test_two_bin_interference_full_visibility(tree):
    """(|0> + e^{i phi} |1>)/sqrt(2) on the t level sweeps a full fringe."""
    phi = 1.1
    probe = np.zeros(4, dtype=complex)
    probe[:2] = np.array([1.0, np.exp(1j * phi)]) / np.sqrt(2)
    rates = []
    # bin-0 rate is (J0^2 + J1^2 - 2 J0 J1 cos(alpha + phi))/2: include the
    # exact extremes alpha = -phi and alpha = pi - phi in the scan
    alphas = -phi + np.linspace(0, 2 * np.pi, 32, endpoint=False)
    for alpha in alphas:
        a = measurement_map(BeamSplitterSetting("X", "t", alpha), tree, 0.0)
        rates.append(abs((a @ probe)[0]) ** 2)
    rates = np.asarray(rates)
    vis = (rates.max() - rates.min()) / (rates.max() + rates.min())
    assert vis == pytest.approx(1.0, abs=1e-9)


def test_copy_spacing_must_match_level_shift():
    """Copies 300 ps and 100 ps apart cannot pair bins 600 ps and 200 ps apart."""
    tree = LevelTree(Level("T", 600.0, 3.75), Level("t", 200.0, 1.25))
    for level in ("T", "t"):
        with pytest.raises(GridMismatch, match=f"level {level}: copy spacing"):
            check_copy_spacing(CpmSettings(), tree.level(level)[0])
    # the Z setting does not modulate, so it has no copies to match
    z = measurement_map(BeamSplitterSetting("Z", "T"), tree, 0.0)
    np.testing.assert_array_equal(z, np.eye(4))


def test_unknown_level_rejected(tree):
    with pytest.raises(ValueError):
        measurement_map(BeamSplitterSetting("X", "tau"), tree, 0.0)


_PHASE_GRID = np.linspace(-2.0 * np.pi, 4.0 * np.pi, 37)


@pytest.mark.parametrize(
    "kind,alphas",
    [
        pytest.param("Z", _PHASE_GRID, id="Z"),
        # The X basis: phases on whole turns, which mod 2 pi reduces to 0.
        pytest.param("X", _PHASE_GRID[::12], id="X"),
        # X rotated by alpha (the XY plane), over the whole grid.
        pytest.param("X", _PHASE_GRID, id="XY"),
    ],
)
@pytest.mark.parametrize("level", ["T", "t"])
def test_measurement_map_matches_any_depth_oracle(tree, base_cpm, kind, alphas, level):
    """The four-bin map equals the any-depth map of the same two levels, bit for bit."""
    for alpha in alphas:
        for offset in (0.0, np.pi):
            setting = BeamSplitterSetting(kind, level, float(alpha))
            got = measurement_map(setting, tree, offset)
            want = any_depth_measurement_map(setting, tree_levels(tree), base_cpm, offset)
            assert got.dtype == want.dtype and got.shape == want.shape == (4, 4)
            assert got.tobytes() == want.tobytes(), (kind, level, alpha, offset)
