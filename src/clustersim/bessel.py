"""First-kind Bessel functions and the balanced beam-splitter operating point.

J_m is evaluated by downward recurrence with series normalization, so the
package has no special-function dependency at runtime.  The test suite
cross-checks against scipy to ten digits.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=4096)
def _row_cached(g: float, m_max: int):
    """J_0(g) .. J_{m_max}(g) by Miller's downward recurrence (read-only).

    The recurrence J_{m-1} = (2m/g) J_m - J_{m+1} is run downward from a
    start order well above m_max and normalized with the identity
    J_0 + 2*(J_2 + J_4 + ...) = 1.
    """
    g, m_max = float(g), int(m_max)
    out = np.zeros(m_max + 1)
    if g == 0.0:
        out[0] = 1.0
    else:
        start = m_max + int(1.4 * abs(g)) + 25
        start += start % 2
        jp = 0.0  # J_{m+1}
        jc = 1e-30  # J_m at the start order (arbitrary seed)
        norm = 0.0
        for m in range(start, 0, -1):
            jp, jc = jc, (2.0 * m / g) * jc - jp
            if m - 1 <= m_max:
                out[m - 1] = jc
            if (m - 1) % 2 == 0 and m - 1 > 0:
                norm += 2.0 * jc
            # rescale to avoid overflow on long recurrences
            if abs(jc) > 1e250:
                jc *= 1e-250
                jp *= 1e-250
                norm *= 1e-250
                out *= 1e-250
        norm += jc  # jc now holds J_0
        out /= norm
    out.setflags(write=False)
    return out


def bessel_j(m: int, g: float) -> float:
    """J_m(g) for integer order m (negative orders via J_{-m} = (-1)^m J_m)."""
    sign = 1.0
    if g < 0:
        g = -g
        sign *= (-1.0) ** (m % 2)
    if m < 0:
        m = -m
        sign *= (-1.0) ** (m % 2)
    return sign * _row_cached(g, m)[m]


def bessel_row(g: float, m_max: int) -> np.ndarray:
    """Array [J_0(g), ..., J_{m_max}(g)]."""
    return _row_cached(float(g), int(m_max))


def efficiency(g: float) -> float:
    """Two-bin beam-splitter scattering efficiency |J_0(g)|^2 + |J_1(g)|^2.

    This is the probability that a photon stays inside the two nominal
    output bins instead of scattering into ancillary modulation orders.
    """
    if g < 0:
        raise ValueError("modulation depth must be nonnegative")
    row = bessel_row(g, 1)
    return float(row[0] ** 2 + row[1] ** 2)


@lru_cache(maxsize=1)
def solve_balanced_depth() -> float:
    """Smallest g > 0 with J_0(g) = J_1(g), i.e. a balanced time-bin splitter.

    Bracketed bisection; the root is g* = 1.434696.
    """

    def f(g):
        row = bessel_row(g, 1)
        return row[0] - row[1]

    lo, hi = 1.0, 2.0
    assert f(lo) > 0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)
