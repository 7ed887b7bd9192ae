"""Chebyshev polynomials of the first and second kind.

All evaluation goes through the three-term recurrence

    T_0 = 1,  T_1 = x,  T_{k+1} = 2 x T_k - T_{k-1}
    U_0 = 1,  U_1 = 2x,  U_{k+1} = 2 x U_k - U_{k-1}

which stays valid for arguments outside [-1, 1], where most of the surface
geometry lives.  The trigonometric closed forms cos(n arccos x) and
sin((n+1) arccos x)/sin(arccos x) serve as oracles in the test suite.

On the monotone branch [cos(pi/n), inf) the map T_n is a bijection onto
[-1, inf); ``invert_T`` computes its inverse in closed form, as
cos(arccos(y)/n) or cosh(arccosh(y)/n), with one Newton step on the
recurrence above y = 1.

The classical factorization

    T_n(u) - cos(n t) = 2^(n-1) prod_j (u - cos(t - 2 pi j / n))

is the one evaluator of the surface denominator T_n(u) - cos(n t) for every
module: ``difference_factors`` stacks the n factors, ``factor_product``
multiplies them, and ``psi`` composes the two.
"""

from __future__ import annotations

import math

import numpy as np

# Degrees are small in this package: the slice certificates reach n = 65
# (U_{2n-2} = U_128) and the surface evaluator n = 129 (T_{n-1} = T_128).  The
# recurrence is accurate in that range; reject anything larger instead of
# silently degrading.
MAX_DEGREE = 128


def _check_degree(n: int) -> None:
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"degree must be an integer, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds supported cap {MAX_DEGREE}")


def check_order(n: int, least: int) -> None:
    """Raise ValueError naming n unless the order n is an integer >= least."""
    if not isinstance(n, (int, np.integer)) or n < least:
        raise ValueError(f"order n must be an integer >= {least}, got {n!r}")


def _recurrence(n: int, x, first: float):
    """P_n(x) for P_0 = 1, P_1 = first * x and P_{k+1} = 2 x P_k - P_{k-1}.

    Returns float for scalar input, ndarray otherwise.
    """
    _check_degree(n)
    xa = np.asarray(x, dtype=float)
    prev, cur, twice = np.ones_like(xa), first * xa, 2.0 * xa
    for _ in range(n - 1):
        prev, cur = cur, twice * cur - prev
    out = cur if n else prev
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


def eval_T(n: int, x):
    """Evaluate T_n(x), 0 <= n <= MAX_DEGREE, by the three-term recurrence.

    Returns float for scalar input, ndarray otherwise.
    """
    return _recurrence(n, x, 1.0)


def eval_U(n: int, x):
    """Evaluate U_n(x), 0 <= n <= MAX_DEGREE, by the three-term recurrence.

    Returns float for scalar input, ndarray otherwise.
    """
    return _recurrence(n, x, 2.0)


def eval_T_derivative(n: int, x):
    """Derivative of T_n, computed as n * U_{n-1}(x).  Requires n >= 1."""
    if n < 1:
        raise ValueError(f"derivative formula needs degree >= 1, got {n}")
    u = eval_U(n - 1, x)
    return n * u


def invert_T(n: int, y):
    """Inverse of T_n on the monotone branch [cos(pi/n), inf).

    Solves T_n(u) = y for u >= cos(pi/n) in closed form:

        u = cos(arccos(y) / n)      for -1 <= y <= 1
        u = cosh(arccosh(y) / n)    for y > 1

    Above 1 the rounding of arccosh(y) is exponentiated back, so the cosh form
    alone drifts by up to a few hundred ulp as y grows toward 1e300; one
    Newton step on the recurrence brings it back to about 1 ulp.

    Args:
        n: surface order, n >= 2.
        y: right-hand side, scalar or ndarray; every entry must be >= -1.

    Returns:
        float for scalar input, ndarray otherwise.
    """
    check_order(n, 2)
    ya = np.asarray(y, dtype=float)
    if np.any(ya < -1.0):
        raise ValueError("invert_T: T_n on the monotone branch never goes below -1")
    in_band = np.cos(np.arccos(np.clip(ya, -1.0, 1.0)) / n)
    c = np.cosh(np.arccosh(np.maximum(ya, 1.0)) / n)
    above = c - (eval_T(n, c) - ya) / eval_T_derivative(n, c)
    u = np.where(ya <= 1.0, in_band, above)
    return float(u) if np.isscalar(y) or ya.ndim == 0 else u


def difference_factors(n: int, u, theta):
    """The n factors u - cos(theta - 2 pi j/n) of T_n(u) - cos(n theta).

    Stacked on a leading axis, over the broadcast shape of u and theta.
    """
    check_order(n, 1)
    ua = np.asarray(u, dtype=float)
    ta = np.asarray(theta, dtype=float)
    shifts = 2.0 * math.pi * np.arange(n) / n
    return ua - np.cos(ta - shifts.reshape((n,) + (1,) * max(ua.ndim, ta.ndim)))


def factor_product(factors):
    """2^(n-1) prod_j factors[j] over the n stacked ``difference_factors``.

    This is T_n(u) - cos(n theta) in factored form.  Each factor carries full
    relative precision down to the zero set, so the product does too, unlike
    the direct difference, whose absolute rounding floor ~1e-16 swamps small
    values.
    """
    out = np.full(factors.shape[1:], 2.0 ** (len(factors) - 1))
    for f in factors:
        out *= f
    return out[()]  # a numpy scalar, not a 0-d array, for scalar (u, theta)


def psi(n: int, u, theta):
    """Denominator T_n(u) - cos(n theta), evaluated in factored form."""
    return factor_product(difference_factors(n, u, theta))
