"""Real-analytic extension of the n-noid to the (u, theta) half-plane model.

Substituting u = (r + 1/r)/2 folds the unit circle |z| = 1 onto u = 1 and
extends the surface past it.  The domain is

    Omega_n = { (u, theta) : u > max_j cos(theta - 2 pi j / n) }

and the surface tends to the origin as u -> inf.  On Omega_n the extended
surface is

    x0 = sin(n theta) / (n (T_n(u) - cos(n theta)))
    x1 = -(T_{n-1}(u) sin(theta) + u sin((n-1) theta)) / (n (T_n(u) - cos(n theta)))
         + (n-1)/n^2 sum_{j=1}^{n-1} log(u - cos(theta - 2 pi j/n)) sin(2 pi j/n)
    x2 = (-T_{n-1}(u) cos(theta) + u cos((n-1) theta)) / (n (T_n(u) - cos(n theta)))
         + (n-1)/n^2 sum_{j=0}^{n-1} log(u - cos(theta - 2 pi j/n)) cos(2 pi j/n)

The denominator is evaluated through the product factorization
2^(n-1) prod_j (u - cos(theta - 2 pi j/n)), which keeps full relative
precision near the domain boundary where the direct difference
T_n(u) - cos(n theta) cancels catastrophically.

The isometry group is dihedral of order 2n, generated by the rotation R by
2 pi / n about the t-axis and the reflection S = diag(-1, -1, 1).
"""

from __future__ import annotations

import math
from enum import IntEnum

import numpy as np

from .chebyshev import MAX_ORDER, check_order, eval_T, factor_product
# the factors u - cos(theta - 2 pi j/n) of the denominator are also the
# arguments of the log terms of x1 and x2, hence the local name
from .chebyshev import difference_factors as log_factors
from .weierstrass import lorentz_inner

LOG_FACTOR_GUARD = 1e-14
DEFAULT_FD_SCALE = 1e-5


class DomainGuardError(ValueError):
    """A factor u - cos(theta - 2 pi j/n) is <= guard at the point (u, theta).

    n, the first such point and the guard are attributes and in the message.
    """

    def __init__(self, n, u, theta, guard):
        self.n, self.u, self.theta, self.guard = n, u, theta, guard
        super().__init__(f"n={n}: (u, theta) = ({u!r}, {theta!r}) has a factor "
                         f"u - cos(theta - 2 pi j/n) <= {guard:g}")


class OutOfDomainError(DomainGuardError):
    """The requested point lies outside Omega_n (guard 0)."""


class BoundaryProximityError(DomainGuardError):
    """A log factor u - cos(theta - 2 pi j/n) is below LOG_FACTOR_GUARD."""


class CausalType(IntEnum):
    """Sign class of the induced metric determinant EG - F^2."""

    SPACELIKE = 0
    LIGHTLIKE = 1
    TIMELIKE = 2


def omega_lower_bound(n: int, theta):
    """max_j cos(theta - 2 pi j / n): the lower edge of Omega_n over theta.

    Taken over the two spokes around theta, with the shifts 2 pi j/n that
    ``difference_factors`` forms, so it equals the max over all n of them.
    """
    check_order(n, 2)
    ta = np.asarray(theta, dtype=float)
    j = np.floor(ta / (2.0 * math.pi / n)) % n
    out = np.maximum(np.cos(ta - 2.0 * math.pi * j / n),
                     np.cos(ta - 2.0 * math.pi * ((j + 1.0) % n) / n))
    return float(out) if out.ndim == 0 else out


def domain_factors(n: int, u, theta):
    """Broadcast (u, theta) and return (u, theta, log factors).

    The log factors are the n values u - cos(theta - 2 pi j/n) stacked on a
    leading axis, cosines taken at theta's own shape.  Raises OutOfDomainError
    unless every point lies in Omega_n, that is unless every factor is > 0.
    """
    check_order(n, 2)
    ua, ta, factors = _guarded_factors(n, u, theta, 0.0)
    return (*np.broadcast_arrays(ua, ta), factors)


def _guarded_factors(n, u, theta, guard):
    # (u, theta) at their own shapes and the log factors, all > guard; else the
    # first point with a factor <= 0, failing that <= guard, is named
    ua, ta = np.asarray(u, dtype=float), np.asarray(theta, dtype=float)
    factors = log_factors(n, ua, ta)
    if (factors <= guard).any():
        ub, tb = np.broadcast_arrays(ua, ta)
        for error, level in ((OutOfDomainError, 0.0), (BoundaryProximityError, guard)):
            bad = np.flatnonzero((factors <= level).any(axis=0))
            if bad.size:
                raise error(n, float(ub.flat[bad[0]]), float(tb.flat[bad[0]]), level)
    return ua, ta, factors


def x2_log_gap(n: int, log_gap, theta):
    """Planar coordinate x2 at u = cos(theta) + exp(log_gap), theta in [0, pi/n).

    The boundary gap g = u - cos(theta) is carried as its log, so u itself
    never has to resolve g.  The nearest log factor is log_gap itself;
    each other factor is 2 sin(pi j/n) sin(pi j/n - theta) + g, a product of
    sines without cancellation.  The rational numerator vanishes at g = 0 and
    is divided by g analytically:

        N / g = cos((n-1) theta) - cos(theta) dT_{n-1}(cos theta; g)

    where dT_k(a; g) = (T_k(a + g) - T_k(a)) / g follows the recurrence
    dT_{k+1} = 2 a dT_k + 2 T_k(a + g) - dT_{k-1}, dT_0 = 0, dT_1 = 1.  The
    result stays finite and accurate when e^log_gap underflows to 0, where
    x2 = ((n-1)/n^2) log_gap + R(0).
    """
    check_order(n, 2)
    la, ta = np.broadcast_arrays(
        np.asarray(log_gap, dtype=float), np.asarray(theta, dtype=float)
    )
    if not np.all(np.isfinite(la)):
        raise ValueError("log_gap must be finite")
    if np.any((ta < 0.0) | (ta >= math.pi / n)):
        raise ValueError("x2_log_gap needs theta in [0, pi/n)")
    g = np.exp(la)
    a = np.cos(ta)
    x = a + g
    t_prev, t_cur = np.ones_like(x), x
    d_prev, d_cur = np.zeros_like(x), np.ones_like(x)
    for _ in range(n - 2):
        d_prev, d_cur = d_cur, 2.0 * a * d_cur + 2.0 * t_cur - d_prev
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    num = np.cos((n - 1) * ta) - a * d_cur

    den = np.full(la.shape, float(n))
    logs = la.copy()
    for j in range(1, n):
        s = math.pi * j / n
        factor = 2.0 * math.sin(s) * np.sin(s - ta) + g
        den = den * (2.0 * factor)
        logs = logs + np.log(factor) * math.cos(2.0 * s)
    out = (n - 1) / n ** 2 * logs + num / den
    return float(out) if out.ndim == 0 else out


def _height(n: int, u, theta, out=None):
    # x0 = sin(n theta) / D (into out if given) and the guarded u, theta, log factors
    # and D it came from: the one path to x0, for eval_extended_grid and x0 alone
    check_order(n, 2, MAX_ORDER)
    ua, ta, factors = _guarded_factors(n, u, theta, LOG_FACTOR_GUARD)
    D = n * factor_product(factors)
    return np.divide(np.sin(n * ta), D, out=out), ua, ta, factors, D


def eval_extended_grid(n: int, u, theta):
    """Vectorized extended surface on arrays of finite domain points.

    Returns an ndarray of shape broadcast(u, theta) + (3,), coordinates in
    (t, x, y) order.  Raises OutOfDomainError / BoundaryProximityError if any
    point violates the domain or the log-factor guard.  Terms in theta alone
    are computed at theta's own shape, so a (1, ntheta) row pays once per column.
    A point gets the same bits alone or in any contiguous stack of points.
    Takes 2 <= n <= MAX_ORDER.
    """
    out = np.empty(np.broadcast_shapes(np.shape(u), np.shape(theta)) + (3,))
    _, ua, ta, factors, D = _height(n, u, theta, out[..., 0])
    tn1 = eval_T(n - 1, ua)
    x1 = -(tn1 * np.sin(ta) + ua * np.sin((n - 1) * ta)) / D
    x2 = (-tn1 * np.cos(ta) + ua * np.cos((n - 1) * ta)) / D
    logs = np.log(factors, out=factors)  # the factors are not needed again
    logs *= (n - 1) / n ** 2
    term = np.empty_like(x1)
    for j in range(1, n):
        x1 += np.multiply(logs[j], math.sin(2.0 * math.pi * j / n), out=term)
    for j in range(n):
        x2 += np.multiply(logs[j], math.cos(2.0 * math.pi * j / n), out=term)
    out[..., 1], out[..., 2] = x1, x2
    return out


# ---------------------------------------------------------------------------
# causal type
# ---------------------------------------------------------------------------

def first_partials_grid(n: int, u, theta, fd_step=None):
    """Central-difference partials (f_u, f_theta) on arrays, shape (..., 3) each.

    u, theta and fd_step broadcast together: a stack of steps gives a stack of
    partials, each with the bits of its own call.  The step defaults to
    DEFAULT_FD_SCALE * max(1, |u|) per point.  Stencil points must stay in Omega_n.
    """
    ua, ta = (np.asarray(x, dtype=float) for x in (u, theta))
    s = DEFAULT_FD_SCALE * np.maximum(1.0, np.abs(ua)) if fd_step is None else fd_step
    ua, ta, s = np.broadcast_arrays(ua, ta, np.asarray(s, dtype=float))
    f = eval_extended_grid(n, np.stack([ua + s, ua - s, ua, ua]),
                           np.stack([ta, ta, ta + s, ta - s]))
    return (f[0] - f[1]) / (2.0 * s)[..., None], (f[2] - f[3]) / (2.0 * s)[..., None]


def first_fundamental_grid(n: int, u, theta, fd_step=None):
    """Central-difference first fundamental form (E, F, G) on arrays."""
    fu, ft = first_partials_grid(n, u, theta, fd_step)
    return lorentz_inner(fu, fu), lorentz_inner(fu, ft), lorentz_inner(ft, ft)


def causal_type_grid(n: int, u, theta, fd_step=None):
    """Causal classification from the metric; returns CausalType codes.

    This is the oracle that the tests hold the mesh tags against: the mesh
    path tags by the sign of u - 1 in closed form.  The determinant
    EG - F^2 of the finite-difference induced metric is compared against the
    scale-aware threshold tau = 1e-6 (E^2 + G^2 + 1): positive means
    spacelike, negative timelike, and |det| <= tau lightlike (the fold).
    """
    E, F, G = first_fundamental_grid(n, u, theta, fd_step)
    det = E * G - F * F
    tau = 1e-6 * (E * E + G * G + 1.0)
    out = np.full(np.shape(det), int(CausalType.LIGHTLIKE), dtype=np.uint8)
    out[det > tau] = int(CausalType.SPACELIKE)
    out[det < -tau] = int(CausalType.TIMELIKE)
    return out


# ---------------------------------------------------------------------------
# isometry group
# ---------------------------------------------------------------------------

def rotation_matrix(n: int) -> np.ndarray:
    """Rotation R by 2 pi / n about the t-axis (display-plane rotation)."""
    check_order(n, 2)
    c, s = math.cos(2.0 * math.pi / n), math.sin(2.0 * math.pi / n)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def reflection_matrix() -> np.ndarray:
    """Reflection S = diag(-1, -1, 1): (t, x, y) -> (-t, -x, y)."""
    return np.diag([-1.0, -1.0, 1.0])


def group_elements(n: int) -> np.ndarray:
    """The (2n, 3, 3) stack R^0, S R^0, R^1, S R^1, ..., R^(n-1), S R^(n-1).

    Every matrix is checked to preserve the Lorentz form to 1e-13.
    """
    R = rotation_matrix(n)
    elements = np.empty((2 * n, 3, 3))
    elements[0] = np.eye(3)
    for k in range(2, 2 * n, 2):
        elements[k] = R @ elements[k - 2]
    elements[1::2] = reflection_matrix() @ elements[::2]
    cols = elements.swapaxes(1, 2)[:, :, None]   # cols[k, i, 0] is column i of element k
    form = lorentz_inner(cols, cols.swapaxes(1, 2))   # form[k, i, j] = <column i, column j>
    drift = np.max(np.abs(form - form[0]), axis=(1, 2))   # element 0 is the identity
    if np.any(drift > 1e-13):
        i = int(np.argmax(drift > 1e-13))
        raise AssertionError(f"group element {i} distorts the Lorentz form by {drift[i]:g}")
    return elements


def fold_to_fundamental(n: int, theta):
    """Fold theta into [0, pi/n] and return (theta', g) with f(u,theta) = g f(u,theta').

    Uses theta = 2 pi k / n + delta first (g gains R^k), then a reflection
    when delta > pi/n (g gains R S, from f(u, delta) = R S f(u, 2 pi/n - delta)).
    Both come from ``group_elements``: R^k, and R^(k+1) S = S R^(n-1-k).
    Array theta gives theta' of the same shape and g of shape theta.shape +
    (3, 3); scalar theta gives a float and one 3x3 matrix.
    """
    period = 2.0 * math.pi / n
    th = np.asarray(theta, dtype=float) % (2.0 * math.pi)
    k = np.floor(th / period)
    delta = th - k * period
    group = group_elements(n)
    turns, flips = group[::2], group[-1::-2]
    reflect = delta > math.pi / n
    j = k.astype(int) % n
    folded = np.where(reflect, period - delta, delta)
    mats = np.where(reflect[..., None, None], flips[j], turns[j])
    return (float(folded), mats) if folded.ndim == 0 else (folded, mats)
