"""Holomorphic data and the closed-form lift for the n-noid family.

The surface of order n comes from the sphere data g = z^(n-1),
omega = i dz / (z^n - 1)^2 with punctures at the n-th roots of unity.  The
vector-valued form

    alpha = (-2 g, 1 + g^2, i (1 - g^2)) omega

is exact up to periods; its primitive F = (X0, X1, X2) has the closed form
implemented in ``lift_closed_form`` (principal log branch, real part zero at
z = 0), on scalars and arrays alike.  The surface is its real part Re F on
both sides of the fold |z| = 1; ``f_polar`` takes it at z = r e^(i theta).
Points of Lorentz-Minkowski 3-space are ordered (t, x, y) with inner product
<v, w> = -v_t w_t + v_x w_x + v_y w_y.

``integrate_lift_numeric`` is the independent oracle: it integrates alpha
along the segment [0, z] by adaptive Gauss-Kronrod quadrature and never
touches the closed form.  ``period_residual`` certifies that loop integrals
around the punctures are purely imaginary, so the real part is single valued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chebyshev import check_order
from .quadrature import integrate_polyline

PUNCTURE_GUARD = 1e-12
PATH_CLEARANCE = 0.05


class PunctureError(ValueError):
    """Evaluation requested too close to a puncture z = zeta^j.

    n, the first offending z and the guard PUNCTURE_GUARD on |z^n - 1| are
    attributes and in the message.
    """

    def __init__(self, n, z, guard):
        self.n, self.z, self.guard = n, z, guard
        super().__init__(f"n={n}: z = {z!r} has |z^n - 1| <= {guard:g}: "
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
    Complex vectors contract without conjugation, as in the null form of alpha.
    """
    v, w = (np.asarray(x, dtype=complex if np.iscomplexobj(x) else float) for x in (v, w))
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


def _check_finite(z) -> np.ndarray:
    """z as a complex array; a ValueError names its first non-finite point."""
    za = np.asarray(z, dtype=complex)
    bad = np.flatnonzero(~np.isfinite(za))
    if bad.size:
        raise ValueError(f"z = {complex(za.flat[bad[0]])!r} is not finite")
    return za


def _check_punctures(data: JorgeMeeksData, z):
    """z as a complex array, then z, z^(n-2), z^(n-1) and z^n - 1 flattened.

    Raises unless z^n - 1 is finite and |z^n - 1| > guard.  The powers come
    from one binary-powering chain of complex multiplies on the flattened
    points (numpy's 0-d complex arithmetic rounds unlike its array loops, and
    its complex ``**`` goes through the C library's pow), so a point gets the
    same bits alone or in any array.
    """
    za = _check_finite(z)
    zc = za.reshape(-1)
    n = data.n
    with np.errstate(over="ignore", invalid="ignore"):  # caught below
        zk, sq, m = None, zc, n - 2
        while m:
            if m & 1:
                zk = sq if zk is None else zk * sq
            m >>= 1
            if m:
                sq = sq * sq
        g = zc if zk is None else zk * zc
        zn = g * zc - 1.0
        near = np.abs(zn) <= PUNCTURE_GUARD
    bad = np.flatnonzero(~np.isfinite(zn))
    if bad.size:
        raise ValueError(f"n={n}: z = {complex(zc[bad[0]])!r} has z^n - 1 beyond float64")
    bad = np.flatnonzero(near)
    if bad.size:
        raise PunctureError(n, complex(zc[bad[0]]), PUNCTURE_GUARD)
    return za, zc, np.ones_like(zc) if zk is None else zk, g, zn


def alpha(data: JorgeMeeksData, z):
    """The three components of alpha at z (scalar or ndarray).

    Returns an array of shape (3,) + shape(z).  The triple is isotropic:
    -a0^2 + a1^2 + a2^2 = 0 identically.  It is taken in the ratio form
    q = 1/(z^n - 1), G = z^(n-1) q, alpha = (-2i G q, i (q^2 + G^2), G^2 - q^2),
    which needs neither z^(2n-2) nor (z^n - 1)^2 and so stays finite wherever
    z^n - 1 is.
    """
    za, _, _, g, zn = _check_punctures(data, z)
    q = 1.0 / zn
    G = g * q
    qq, GG = q * q, G * G
    return np.stack([-2j * G * q, 1j * (qq + GG), GG - qq]).reshape((3,) + za.shape)


def lift_closed_form(data: JorgeMeeksData, z) -> HolomorphicLift:
    """Closed form of the primitive F(z) = (X0, X1, X2), principal log branch.

    With this branch Re F(0) = (0, 0, 0), so Re F is the surface itself with
    no further normalization.  Scalar z gives complex fields, array z arrays
    of its shape; a point gets the same bits alone or in any array.  Use
    ``alpha`` + ``integrate_lift_numeric`` for independent values.
    """
    za, zc, zk, _, zn = _check_punctures(data, z)
    n = data.n
    c = (n - 1) / n ** 2
    ang = 2.0 * math.pi * np.arange(n) / n
    # log(z - p) as (log|d|, arg d) float pairs, in a third of the time of
    # numpy's complex log; the weights (p - conj p)/i = 2 sin and p + conj p
    # = 2 cos act on them as floats, as a broadcast complex product rounds by N
    d = zc - data.punctures[:, None]
    parts = np.stack([np.log(np.hypot(d.real, d.imag)), np.arctan2(d.imag, d.real)], axis=-1)
    parts = parts.reshape(n, -1)
    s1 = sum(w * row for w, row in zip(2.0 * c * np.sin(ang), parts)).view(complex)
    s2 = sum(w * row for w, row in zip(2.0 * c * np.cos(ang), parts)).view(complex)

    X0 = 2j / (n * zn)
    X1 = -1j * zc * (zk + 1.0) / (n * zn) + s1
    X2 = -zc * (zk - 1.0) / (n * zn) + s2
    return HolomorphicLift(*(X.reshape(za.shape) if za.ndim else complex(X[0])
                             for X in (X0, X1, X2)))


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


def integrate_lift_numeric(data: JorgeMeeksData, z) -> HolomorphicLift:
    """Quadrature value of F(z) = int_0^z alpha along the segment [0, z].

    The segment must keep distance > PATH_CLEARANCE from every puncture.
    A 1-D array z integrates every point along its own segment in one
    batched pass and gives array fields.
    """
    zs = _check_finite(z)
    ends = zs.reshape(-1)
    moving = ends != 0
    tips = ends[moving]
    dist = _segment_puncture_distance(0j, tips[:, None], data.punctures)
    # the first point, then its puncture, that comes too close
    hits = np.argwhere(dist <= PATH_CLEARANCE)
    if hits.size:
        k, i = hits[0]
        raise PathError(
            f"integration segment [0j, {complex(tips[k])}] "
            f"passes within {dist[k, i]:.3g} of puncture {data.punctures[i]:.6g}"
        )
    val = np.zeros((3, moving.size), dtype=complex)
    if moving.any():
        val[:, moving] = integrate_polyline(lambda w: alpha(data, w), [0j, tips])
    if zs.ndim == 0:
        return HolomorphicLift(*(complex(v) for v in val[:, 0]))
    return HolomorphicLift(val[0], val[1], val[2])


def loop_integral(
    data: JorgeMeeksData, j, radius: float | None = None, samples: int = 512
):
    """Loop integral of alpha around puncture zeta^j (positively oriented).

    Trapezoid rule on a circle of the given radius (default half the minimal
    puncture spacing); the node count is doubled once and the two values must
    agree for every puncture, which for this analytic periodic integrand
    certifies convergence.  j is an index or a 1-D array of indices; all
    their rings go through one ``alpha`` call, and each index gets the bits
    it gets alone.

    Returns the complex triple of loop integrals, shape (3,) + shape(j).
    """
    n = data.n
    js = np.asarray(j)
    if js.ndim > 1 or js.dtype.kind not in "iu":
        raise ValueError("puncture index must be an integer or a 1-D integer array, "
                         f"got dtype {js.dtype} and shape {js.shape}")
    bad = js[(js < 0) | (js >= n)]
    if bad.size:
        raise ValueError(f"puncture index {bad[0]} out of range for n={n}")
    if radius is None:
        radius = 0.5 * math.sin(math.pi / n)
    if not 0.0 < radius < math.sin(math.pi / n):
        raise ValueError(
            f"radius must lie in (0, sin(pi/n)) = (0, {math.sin(math.pi / n):.6g}) "
            "so the loop encloses exactly one puncture"
        )
    if samples < 64:
        raise ValueError("need at least 64 trapezoid nodes")
    # the coarse rule's nodes are the fine ring's even nodes, bit for bit
    ring = np.exp(1j * np.linspace(0.0, 2 * math.pi, 2 * samples, endpoint=False))
    centers = data.punctures[js][..., None]
    vals = alpha(data, centers + radius * ring) * (1j * radius * ring)
    coarse = vals[..., ::2].mean(axis=-1) * 2 * math.pi
    fine = vals.mean(axis=-1) * 2 * math.pi
    drift = np.max(np.abs(fine - coarse), axis=0)
    unconverged = np.flatnonzero(drift > 1e-10 * (1.0 + np.max(np.abs(fine), axis=0)))
    if unconverged.size:
        raise ValueError(
            f"trapezoid refinement moved the loop integral by {drift.flat[unconverged[0]]:.3g}; "
            "increase samples"
        )
    return fine


def period_residual(data: JorgeMeeksData, j):
    """Max over components of |Re loop integral| about puncture j.

    A float for an index, an array of shape(j) for a 1-D array of indices.
    """
    res = np.max(np.abs(loop_integral(data, j).real), axis=0)
    return float(res) if res.ndim == 0 else res


def f_polar(data: JorgeMeeksData, r, theta):
    """The surface Re F(z) at z = r e^(i theta), from ``lift_closed_form``.

    Scalars give a LorentzVec3; arrays give an ndarray of shape
    broadcast(r, theta) + (3,) in (t, x, y) order, each point with the bits
    it has alone.  |z^n - 1| must stay above PUNCTURE_GUARD.
    """
    ra, ta = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(theta, dtype=float))
    with np.errstate(invalid="ignore"):  # a non-finite r or theta makes z non-finite
        z = ra.reshape(-1) * np.exp(1j * ta.reshape(-1))
    out = np.stack([X.real for X in lift_closed_form(data, z)], axis=-1)
    return LorentzVec3(*out[0].tolist()) if ra.ndim == 0 else out.reshape(ra.shape + (3,))
