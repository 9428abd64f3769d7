"""Exact answers that do not depend on the scale of the mean counts.

In exact mode, detection.pairs_per_setting, detection.efficiency and the
link loss each multiply every mean count by one factor.  W and the 48
projections are normalised per basis, and a fringe's V = 2|c_k|/c0, so none
of them may move: each must equal the default run's within TOL.  The
factors span pairs_per_setting's accepted range, and efficiency and loss
down to where the smallest positive mean count nears the bottom of the
normal float range (2.2e-308): about 2e-307 at efficiency 1e-297, and
4e-307 at 2970 dB of compensator loss.
"""

import json
import math

import pytest

from clustersim import cli

TOL = 1e-12

SCALES = {
    "pairs-1": {"detection": {"pairs_per_setting": 1}},
    "pairs-1e15": {"detection": {"pairs_per_setting": 10**15}},
    "efficiency-1e-100": {"detection": {"efficiency": 1e-100}},
    "efficiency-1e-200": {"detection": {"efficiency": 1e-200}},
    "efficiency-1e-297": {"detection": {"efficiency": 1e-297}},
    "loss-224.4dB": {"channel": {"compensator_loss_db": 224.4}},
    "loss-1000dB": {"channel": {"compensator_loss_db": 1000.0}},
    "loss-2970dB": {"channel": {"compensator_loss_db": 2970.0}},
    "pairs-1-efficiency-1e-150-loss-1400dB": {
        "detection": {"pairs_per_setting": 1, "efficiency": 1e-150},
        "channel": {"compensator_loss_db": 1400.0},
    },
}


def _exact_answers(tmp_path, doc):
    """W, the projections by (basis, outcome) and the fringe fits of `--exact` runs."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    setup = cli.load_config(str(path), None, None, None)
    witness, _ = cli.cmd_witness(setup, True)
    fringe, _ = cli.cmd_fringe(setup, True)
    _columns, rows = witness["projections.csv"]
    projections = {(basis, outcome): value for basis, outcome, value in rows}
    return witness["witness.json"]["witness"], projections, fringe["fringe.json"]["fits"]


@pytest.mark.parametrize("doc", SCALES.values(), ids=SCALES.keys())
def test_exact_answers_do_not_depend_on_scale(tmp_path, doc):
    w0, projections0, fits0 = _exact_answers(tmp_path, {})
    w, projections, fits = _exact_answers(tmp_path, doc)
    assert abs(w - w0) <= TOL
    assert len(projections) == len(projections0) == 48
    for key, value in projections0.items():
        assert abs(projections[key] - value) <= TOL, key
    assert fits.keys() == fits0.keys()
    for name, fit0 in fits0.items():
        fit = fits[name]
        assert abs(fit["visibility"] - fit0["visibility"]) <= TOL, name
        # a phase of pi and one of -pi are the same fringe
        assert abs(math.remainder(fit["phase_offset"] - fit0["phase_offset"], math.tau)) <= TOL
        for key in ("harmonic", "chsh_pass", "expected_sign", "sign_match"):
            assert fit[key] == fit0[key], (name, key)
