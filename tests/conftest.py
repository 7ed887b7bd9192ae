"""Oracles that more than one test module uses."""

import math

import numpy as np
import pytest

from zmcnoid import analysis as an
from zmcnoid import extension as ext
from zmcnoid.chebyshev import eval_U, psi


def _neville_to_zero(x, y):
    # polynomial extrapolation of the samples (x, y) to x = 0
    tab = np.array(y, dtype=float)
    for level in range(1, len(x)):
        k = len(x) - level
        tab[:k] = (x[level:] * tab[:k] - x[:k] * tab[1:k + 1]) / (x[level:] - x[:k])
    return float(tab[0])


@pytest.fixture
def contour_limits():
    """(u at the tip, u at the corner, x1 at the tip) of the height-h arc, by Neville.

    The tip end theta -> 0 is smooth, so 8 dyadic angles from pi/n * 1e-2 give
    it; the corner end goes like a square root, so it is extrapolated in
    sqrt(pi/n - theta).  The limits are exactly 1, cos(pi/n) and -h.
    """
    def limits(n, h):
        wedge = math.pi / n
        th, deltas = wedge * 1e-2 * 2.0 ** (-np.arange(8)), wedge * 1e-2 * 4.0 ** (-np.arange(8))
        u = an.contour_u(n, h, th)
        return (_neville_to_zero(th, u),
                _neville_to_zero(np.sqrt(deltas), an.contour_u(n, h, wedge - deltas)),
                _neville_to_zero(th, ext.eval_extended_grid(n, u, th)[:, 1]))
    return limits


@pytest.fixture
def immersed_on_grid():
    """Whether U_{n-2} > 0 and J01^2 + J02^2 = U_{n-2}^2 / Psi^4 within 1e-9.

    The grid is np.linspace(*us) x np.linspace(*thetas).  Both together give
    max(|J01|, |J02|) >= (1 - 1e-9) U_{n-2} / (sqrt(2) Psi^2) > 0.
    """
    def immersed(n, us, thetas):
        u, theta = np.meshgrid(np.linspace(*us), np.linspace(*thetas), indexing="ij")
        _, j01, j02 = an.surface_partials(n, u, theta)
        target = eval_U(n - 2, u) ** 2 / psi(n, u, theta) ** 4
        gap = np.max(np.abs(j01 ** 2 + j02 ** 2 - target) / target)
        return bool(np.all(eval_U(n - 2, u) > 0.0)) and gap < 1e-9
    return immersed
