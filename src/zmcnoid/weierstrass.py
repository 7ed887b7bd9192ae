"""Holomorphic data and the closed-form lift for the n-noid family.

The surface of order n comes from the sphere data g = z^(n-1),
omega = i dz / (z^n - 1)^2 with punctures at the n-th roots of unity.  The
vector-valued form

    alpha = (-2 g, 1 + g^2, i (1 - g^2)) omega

is exact up to periods; its primitive F = (X0, X1, X2) has the closed form
implemented in ``lift_closed_form`` (principal log branch, real part zero at
z = 0).  The surface itself is the real part, written in polar coordinates by
``f_polar``.  Points of Lorentz-Minkowski 3-space are ordered (t, x, y) with
inner product <v, w> = -v_t w_t + v_x w_x + v_y w_y.

``integrate_lift_numeric`` is the independent oracle: it integrates alpha
along a polyline by adaptive Gauss-Kronrod quadrature and never touches the
closed form.  ``period_residual`` certifies that loop integrals around the
punctures are purely imaginary, so the real part is single valued.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chebyshev import check_order
from .quadrature import integrate_polyline

PUNCTURE_GUARD = 1e-12
POLAR_GUARD = 1e-14
PATH_CLEARANCE = 0.05


class PunctureError(ValueError):
    """Evaluation requested too close to a puncture z = zeta^j.

    n, the first offending z and the guard (PUNCTURE_GUARD on |z^n - 1|, or
    POLAR_GUARD on |z^n - 1|^2) are attributes and in the message.
    """

    def __init__(self, n, z, guard, quantity="|z^n - 1|"):
        self.n, self.z, self.guard = n, z, guard
        super().__init__(f"n={n}: z = {z!r} has {quantity} <= {guard:g}: "
                         "too close to a puncture, where alpha has a double pole")


class PathError(ValueError):
    """Integration path passes too close to a puncture."""


class LorentzVec3(NamedTuple):
    """Point of Lorentz-Minkowski 3-space, ordered (t, x, y)."""

    t: float
    x: float
    y: float


def lorentz_inner(v, w):
    """Inner product of signature (-, +, +) in the (t, x, y) ordering.

    Contracts the last axis, so stacks of vectors give an array of products.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return -v[..., 0] * w[..., 0] + v[..., 1] * w[..., 1] + v[..., 2] * w[..., 2]


def lorentz_cross(v, w):
    """Lorentzian cross product: <cross(v, w), c> equals det(v, w, c).

    Equals the Euclidean cross product with the t component negated.
    """
    c = np.cross(np.asarray(v, dtype=float), np.asarray(w, dtype=float))
    c[..., 0] = -c[..., 0]
    return c


class HolomorphicLift(NamedTuple):
    """Value of the primitive F = (X0, X1, X2) of alpha."""

    X0: complex
    X1: complex
    X2: complex


@dataclass(frozen=True)
class JorgeMeeksData:
    """Order parameter and derived puncture data for the n-noid."""

    n: int

    def __post_init__(self):
        check_order(self.n, 2)

    @property
    def punctures(self) -> np.ndarray:
        j = np.arange(self.n)
        return np.exp(2j * math.pi * j / self.n)


def _check_punctures(data: JorgeMeeksData, z) -> None:
    za = np.asarray(z, dtype=complex)
    bad = np.flatnonzero(np.abs(za ** data.n - 1.0) <= PUNCTURE_GUARD)
    if bad.size:
        raise PunctureError(data.n, complex(za.flat[bad[0]]), PUNCTURE_GUARD)


def alpha(data: JorgeMeeksData, z):
    """The three components of alpha at z (scalar or ndarray).

    Returns an array of shape (3,) + shape(z).  The triple is isotropic:
    -a0^2 + a1^2 + a2^2 = 0 identically.
    """
    _check_punctures(data, z)
    n = data.n
    za = np.asarray(z, dtype=complex)
    den = (za ** n - 1.0) ** 2
    a0 = -2j * za ** (n - 1) / den
    a1 = 1j * (1.0 + za ** (2 * n - 2)) / den
    a2 = -(1.0 - za ** (2 * n - 2)) / den
    return np.stack([a0, a1, a2])


def lift_closed_form(data: JorgeMeeksData, z) -> HolomorphicLift:
    """Closed form of the primitive F(z) = (X0, X1, X2), principal log branch.

    With this branch Re F(0) = (0, 0, 0), so Re F is the surface itself with
    no further normalization.  Scalar z only; use ``alpha`` +
    ``integrate_lift_numeric`` for independent values.
    """
    _check_punctures(data, z)
    n = data.n
    zc = complex(z)
    zn = zc ** n - 1.0
    p = data.punctures
    logs = [np.log(complex(zc - q)) for q in p]
    c = (n - 1) / n ** 2

    X0 = 2j / (n * zn)
    s1 = sum((p[j] - p[j].conjugate()) * logs[j] for j in range(1, n))
    X1 = -1j * (zc * (zc ** (n - 2) + 1.0) / (n * zn) + c * s1)
    s2 = sum((p[j] + p[j].conjugate()) * logs[j] for j in range(n))
    X2 = -zc * (zc ** (n - 2) - 1.0) / (n * zn) + c * s2
    return HolomorphicLift(complex(X0), complex(X1), complex(X2))


def _segment_puncture_distance(a, b, p):
    """Distance from p to the segment [a, b]; arrays broadcast.

    Real arithmetic with libm hypot and pow, so every value equals the one
    Python's scalar complex arithmetic gives for the same formula.
    """
    a, b, p = (np.asarray(x, dtype=complex) for x in (a, b, p))
    dr, di = (b - a).real, (b - a).imag
    L2 = np.float_power(np.hypot(dr, di), 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = ((p - a).real * dr + (p - a).imag * di) / L2
    s = np.where(L2 == 0.0, 0.0, np.clip(s, 0.0, 1.0))
    return np.hypot(p.real - (a.real + s * dr), p.imag - (a.imag + s * di))


def integrate_lift_numeric(
    data: JorgeMeeksData,
    z,
    waypoints=(),
    abs_tol: float = 1e-11,
    max_depth: int = 40,
) -> HolomorphicLift:
    """Quadrature value of F(z) = int_0^z alpha along 0 -> waypoints -> z.

    The polyline must keep distance > PATH_CLEARANCE from every puncture;
    real parts are path independent, imaginary parts depend on the homotopy
    class of the chosen polyline.  A 1-D array z integrates every point
    along its own polyline in one batched pass and gives array fields.
    """
    zs = np.asarray(z, dtype=complex)
    vertices = np.stack(np.broadcast_arrays(0j, *waypoints, zs))
    vertices = vertices.reshape(len(vertices), -1)
    moving = (vertices != vertices[0]).any(axis=0)
    path = vertices[:, moving]
    dist = _segment_puncture_distance(
        path[:-1, :, None], path[1:, :, None], data.punctures)
    # the first point, then its first segment and puncture, that comes too close
    hits = np.argwhere(dist.transpose(1, 0, 2) <= PATH_CLEARANCE)
    if hits.size:
        k, j, i = hits[0]
        raise PathError(
            f"integration segment [{complex(path[j, k])}, {complex(path[j + 1, k])}] "
            f"passes within {dist[j, k, i]:.3g} of puncture {data.punctures[i]:.6g}"
        )
    val = np.zeros((3, moving.size), dtype=complex)
    if moving.any():
        val[:, moving] = integrate_polyline(
            lambda w: alpha(data, w), path, abs_tol=abs_tol, max_depth=max_depth
        )
    if zs.ndim == 0:
        return HolomorphicLift(*(complex(v) for v in val[:, 0]))
    return HolomorphicLift(val[0], val[1], val[2])


def loop_integral(
    data: JorgeMeeksData, j: int, radius: float | None = None, samples: int = 512
):
    """Loop integral of alpha around puncture zeta^j (positively oriented).

    Trapezoid rule on a circle of the given radius (default half the minimal
    puncture spacing); the node count is doubled once and the two values must
    agree, which for this analytic periodic integrand certifies convergence.

    Returns the complex triple of loop integrals.
    """
    n = data.n
    if not 0 <= j < n:
        raise ValueError(f"puncture index {j} out of range for n={n}")
    if radius is None:
        radius = 0.5 * math.sin(math.pi / n)
    if not 0.0 < radius < math.sin(math.pi / n):
        raise ValueError(
            f"radius must lie in (0, sin(pi/n)) = (0, {math.sin(math.pi / n):.6g}) "
            "so the loop encloses exactly one puncture"
        )
    if samples < 64:
        raise ValueError("need at least 64 trapezoid nodes")
    center = complex(data.punctures[j])

    def trapezoid(m: int):
        t = np.linspace(0.0, 2 * math.pi, m, endpoint=False)
        ring = np.exp(1j * t)
        zs = center + radius * ring
        dz = 1j * radius * ring
        return (alpha(data, zs) * dz).mean(axis=-1) * 2 * math.pi

    coarse = trapezoid(samples)
    fine = trapezoid(2 * samples)
    drift = np.max(np.abs(fine - coarse))
    if drift > 1e-10 * (1.0 + np.max(np.abs(fine))):
        raise ValueError(
            f"trapezoid refinement moved the loop integral by {drift:.3g}; "
            "increase samples"
        )
    return fine


def period_residual(
    data: JorgeMeeksData,
    j: int,
    radius: float | None = None,
    samples: int = 512,
) -> float:
    """Max over components of |Re loop integral| about puncture j."""
    loop = loop_integral(data, j, radius=radius, samples=samples)
    return float(np.max(np.abs(loop.real)))


def f_polar(data: JorgeMeeksData, r, theta):
    """The surface in polar coordinates z = r e^(i theta).

    Scalars give a LorentzVec3; arrays give an ndarray of shape
    broadcast(r, theta) + (3,) in (t, x, y) order.  The denominator
    r^(2n) - 2 r^n cos(n theta) + 1 must stay above POLAR_GUARD.
    """
    n = data.n
    ra = np.asarray(r, dtype=float)
    ta = np.asarray(theta, dtype=float)
    scalar = ra.ndim == 0 and ta.ndim == 0
    rn = ra ** n
    den = ra ** (2 * n) - 2.0 * rn * np.cos(n * ta) + 1.0
    bad = np.flatnonzero(den <= POLAR_GUARD)
    if bad.size:
        rb, tb = (np.broadcast_to(x, den.shape).flat[bad[0]] for x in (ra, ta))
        raise PunctureError(n, cmath.rect(rb, tb), POLAR_GUARD,
                            "r^(2n) - 2 r^n cos(n theta) + 1 = |z^n - 1|^2")
    D = n * den
    c = (n - 1) / n ** 2

    x0 = 2.0 * rn * np.sin(n * ta) / D
    x1 = -((ra ** (2 * n - 1) + ra) * np.sin(ta)
           + (ra ** (n + 1) + ra ** (n - 1)) * np.sin((n - 1) * ta)) / D
    x2 = (-(ra ** (2 * n - 1) + ra) * np.cos(ta)
          + (ra ** (n + 1) + ra ** (n - 1)) * np.cos((n - 1) * ta)) / D
    for j in range(1, n):
        ang = 2.0 * math.pi * j / n
        x1 = x1 + c * np.log(ra * ra - 2.0 * ra * np.cos(ta - ang) + 1.0) * math.sin(ang)
    for j in range(n):
        ang = 2.0 * math.pi * j / n
        x2 = x2 + c * np.log(ra * ra - 2.0 * ra * np.cos(ta - ang) + 1.0) * math.cos(ang)

    if scalar:
        return LorentzVec3(float(x0), float(x1), float(x2))
    return np.stack(np.broadcast_arrays(x0, x1, x2), axis=-1)
