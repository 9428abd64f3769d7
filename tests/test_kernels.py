"""The Bessel row kernel agrees with the scalar entry point and with scipy."""

import numpy as np
import pytest
import scipy.special

from clustersim.bessel import bessel_j, bessel_row


@pytest.mark.parametrize("g", [0.0, 0.3, 1.434696, 4.7, 12.0])
def test_bessel_row_backends_agree(g):
    # bessel_j(m, g) runs its own recurrence truncated at order m, so each
    # entry comes from a different start order than the full row.
    row = bessel_row(g, 10)
    scalar = np.array([bessel_j(m, g) for m in range(11)])
    np.testing.assert_allclose(row, scalar, rtol=0, atol=1e-14)
    np.testing.assert_allclose(row, scipy.special.jv(np.arange(11), g), atol=1e-13)
