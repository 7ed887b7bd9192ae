"""Verification toolkit for the extended surface family.

One closed-form kernel for the u-partials and Jacobian minors
(``surface_partials``), immersion certification, contour solving for the
height function, level-curve assembly, monotonicity and sector certificates
for every height of an order at once (that kernel's slopes on a fixed wedge
grid and a pinwheel lemma), polyline embeddedness scans, boundary-approach
divergence probes, and a finite-difference zero-mean-curvature residual.

Everything here consumes the domain check and the surface evaluator from
``extension`` and the Chebyshev kernels and factored denominator from
``chebyshev``; reports are plain frozen dataclasses, and
``EmbeddednessReport.as_dict`` serializes a scan with its height records.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .chebyshev import MAX_DEGREE, check_order, eval_T, eval_U, factor_product, invert_T, psi
from .extension import (
    domain_factors,
    eval_extended_grid,
    group_elements,
    omega_lower_bound,
    x2_log_gap,
)
from .geometry import (DEFAULT_TOLERANCE, check_tolerance, polyline_self_intersections,
                       polyline_set_scan)
from .weierstrass import lorentz_cross, lorentz_inner

DESCENT_THRESHOLD = -1e3
# properness probes walk the log of the boundary gap down to a floor; at the
# interior floor x2 ~ ((n-1)/n^2) log gap is below -1500 for every n <= 128
LOG_GAP_START = math.log(0.5)
CORNER_LOG_GAP_FLOOR = math.log(1.05e-12)
INTERIOR_LOG_GAP_FLOOR = -2.0e5
# mean_curvature_residual rejects points where |EG - F^2| is at most this
FOLD_DET_GUARD = 1e-6
# region_Dh_certificate's rounding allowance where two sectors of D_1 share a line
SECTOR_SLACK = 1e-13
# the slice certificates evaluate U_{2n-2} (surface_partials)
_CHAIN_MAX_ORDER = MAX_DEGREE // 2 + 1

# lower-bound margins for the zero-mean-curvature verification grid, per n:
# the residual of the finite-difference stencil blows up approaching the
# domain boundary, faster for small n, so the gap is graded
ZMC_BASE_MARGIN = {2: 0.22, 3: 0.18, 4: 0.16, 5: 0.12, 6: 0.075}


class FoldProximityError(ValueError):
    """Induced metric too close to degenerate for curvature differencing.

    n, the first point (u, theta) with |EG - F^2| <= guard and the guard are
    attributes and in the message.
    """

    def __init__(self, n, u, theta, guard):
        self.n, self.u, self.theta, self.guard = n, u, theta, guard
        super().__init__(f"n={n}: (u, theta) = ({u!r}, {theta!r}) has an induced "
                         f"metric with |EG - F^2| <= {guard:g}; move off the fold")


# ---------------------------------------------------------------------------
# closed-form derivatives
# ---------------------------------------------------------------------------

def surface_partials(n: int, u, theta):
    """Closed-form u-partials and Jacobian minors (f_u, J01, J02).

    f_u has shape broadcast(u, theta) + (3,) in (t, x, y) order, with dx0/du =
    -U_{n-1} sin(n theta) / Psi^2.  The minors det d(x0, xk)/d(u, theta) are
    J01 = U_{n-2} sin((n-1) theta) / Psi^2 and J02 = -U_{n-2} cos((n-1)
    theta) / Psi^2; along the contour x0 = h, dxk/dtheta = J0k / (dx0/du).
    """
    ua, ta, factors = domain_factors(n, u, theta)
    psi2 = factor_product(factors) ** 2
    u_n2, u_n1, u_2n2 = eval_U(n - 2, ua), eval_U(n - 1, ua), eval_U(2 * n - 2, ua)
    sin_n1, cos_n1 = np.sin((n - 1) * ta), np.cos((n - 1) * ta)
    x0 = -u_n1 * np.sin(n * ta) / psi2
    x1 = (np.sin((2 * n - 1) * ta) + 2.0 * u_n2 * sin_n1 + u_2n2 * np.sin(ta)) / (2.0 * psi2)
    x2 = (-np.cos((2 * n - 1) * ta) - 2.0 * u_n2 * cos_n1 + u_2n2 * np.cos(ta)) / (2.0 * psi2)
    return np.stack([x0, x1, x2], axis=-1), u_n2 * sin_n1 / psi2, -u_n2 * cos_n1 / psi2


# ---------------------------------------------------------------------------
# immersion certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Rectangular (u, theta) grid description."""

    u_min: float
    u_max: float
    u_count: int
    theta_min: float = 0.0
    theta_max: float = 2.0 * math.pi
    theta_count: int = 128

    def nodes(self):
        u = np.linspace(self.u_min, self.u_max, self.u_count)
        t = np.linspace(self.theta_min, self.theta_max, self.theta_count)
        return np.meshgrid(u, t, indexing="ij")


@dataclass(frozen=True)
class ImmersionReport:
    n: int
    u_count: int
    theta_count: int
    min_certified_bound: float
    min_observed: float
    passed: bool


def immersion_certificate(n: int, grid_spec: GridSpec) -> ImmersionReport:
    """Positive lower bound for max(|J01|, |J02|) over a grid.

    The two cross-plane Jacobians cannot vanish together: their max is at
    least U_{n-2}(u) / (sqrt(2) Psi^2), which stays positive right of the
    branch point of U_{n-2}.  The report carries the grid minimum of both
    the analytic bound and the observed max.
    """
    uu, tt = grid_spec.nodes()
    _, j01, j02 = surface_partials(n, uu, tt)
    bound = eval_U(n - 2, uu) / (math.sqrt(2.0) * psi(n, uu, tt) ** 2)
    observed = np.maximum(np.abs(j01), np.abs(j02))
    ok = bool(np.all(bound > 0.0) and np.all(observed >= bound * (1.0 - 1e-9)))
    return ImmersionReport(
        n=n,
        u_count=grid_spec.u_count,
        theta_count=grid_spec.theta_count,
        min_certified_bound=float(bound.min()),
        min_observed=float(observed.min()),
        passed=ok,
    )


# ---------------------------------------------------------------------------
# contour lines of the height coordinate
# ---------------------------------------------------------------------------

def contour_u(n: int, h: float, theta):
    """Height-h contour in the fundamental wedge: T_n^{-1} of cos + sin/(nh).

    The solution u of x0(u, theta) = h for theta in (0, pi/n), h > 0.
    """
    check_order(n, 2)
    if not math.isfinite(h):
        raise ValueError(f"contour_u needs a finite height, got {h!r}")
    if h <= 0.0:
        raise ValueError("contour_u needs h > 0; use mirror symmetry for h < 0")
    ta = np.asarray(theta, dtype=float)
    if np.any((ta <= 0.0) | (ta >= math.pi / n)):
        raise ValueError("theta must lie strictly inside (0, pi/n)")
    if not math.isfinite(1.0 / (n * h)):
        raise ValueError(f"height {h!r} is too small: 1/(nh) overflows")
    return invert_T(n, np.cos(n * ta) + np.sin(n * ta) / (n * h))


def _fundamental_arc_thetas(n: int, m: int, tip_frac: float = 0.0):
    # cosine clustering: the contour has infinite slope at both endpoints.
    # tip_frac > 0 floors the grid away from theta = 0, where evaluation noise
    # grows like 1/theta at large h; curve_monotonicity_report's sampled
    # fields use it, and its verdict covers the whole open arc
    i = np.arange(m)
    start = tip_frac * (math.pi / n)
    return start + (math.pi / n - start) * 0.5 * (1.0 - np.cos(math.pi * (i + 0.5) / m))


@dataclass(frozen=True, eq=False)
class LevelCurve:
    """Sampled connected component of a height slice.

    For h != 0 the parameter is theta on the fundamental arc (the rotated
    copies keep the same parameter); for h = 0 the component is a straight
    ray parametrized by u.  points holds (t, x, y) rows.
    """

    n: int
    h: float
    copy_index: int
    is_ray: bool
    params: np.ndarray
    points: np.ndarray


def level_curve(n: int, h: float, samples: int, u_max: float = 10.0):
    """All connected components of the height-h slice as sampled polylines.

    h > 0: n rotated copies of the fundamental arc; h < 0: the mirror image
    of the slice at -h; h = 0: the 2n straight rays, each parametrized by u
    from just above its lower endpoint (1 for even rays, cos(pi/n) for odd)
    up to u_max, geometrically clustered toward the divergent end.
    """
    check_order(n, 2)
    if samples < 16:
        raise ValueError("need at least 16 samples per curve")
    if not math.isfinite(h):
        raise ValueError(f"height must be finite, got {h}")
    if not math.isfinite(u_max):
        raise ValueError(f"n={n}: u_max must be finite, got {u_max!r}")
    if h != 0.0:
        # copy k is R^k of the arc at |h|; the mirror S carries +|h| to -|h|
        thetas = _fundamental_arc_thetas(n, samples)
        base = eval_extended_grid(n, contour_u(n, abs(h), thetas), thetas)
        copies = base @ group_elements(n)[int(h < 0.0)::2].transpose(0, 2, 1)
        return [
            LevelCurve(n=n, h=h, copy_index=k, is_ray=False,
                       params=thetas.copy(), points=points)
            for k, points in enumerate(copies)
        ]
    # the 2n rays at theta = k pi/n as one (2n, samples) evaluation, so the
    # theta-only terms cost once per ray.  Keep a relative gap >= 1e-3 to the
    # lower endpoint: odd rays end at the wedge corner where the coordinates
    # diverge at pole rate, and closer samples lose the height invariant to
    # cancellation noise
    angles = np.arange(2 * n) * math.pi / n
    lo = np.where(np.arange(2 * n) % 2, math.cos(math.pi / n), 1.0)[:, None]
    us = lo + (u_max - lo) * np.geomspace(1e-3, 1.0, samples)
    with np.errstate(over="ignore", invalid="ignore"):  # caught below
        pts = eval_extended_grid(n, us, angles[:, None])
    finite = np.isfinite(pts).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"n={n}, u_max={u_max!r}: ray {np.argmin(finite)} leaves float64")
    return [
        LevelCurve(n=n, h=0.0, copy_index=k, is_ray=True, params=us[k], points=pts[k])
        for k in range(2 * n)
    ]


# ---------------------------------------------------------------------------
# monotonicity and sector certificates: the slice facts of one order
# ---------------------------------------------------------------------------

def _check_chain_order(n: int) -> None:
    check_order(n, 3)
    if n > _CHAIN_MAX_ORDER:
        raise ValueError(f"order n={n} is past {_CHAIN_MAX_ORDER}, the largest the slice "
                         f"sign chains accept")


def _slice_facts(n: int):
    # (passed, gap_x1, gap_x2) for every h at once: the kernel slopes against
    # their reduced form, worst relative gap per component, and the reduced
    # form's four factors > 0, on 32 angles x 32 gaps 1e-6..10 above cos(theta)
    _check_chain_order(n)
    thetas = _fundamental_arc_thetas(n, 32)
    u = np.cos(thetas) + np.geomspace(1e-6, 10.0, 32)[:, None]
    f_u, j01, j02 = surface_partials(n, u, thetas)
    u_n2, u_n1 = eval_U(n - 2, u), eval_U(n - 1, u)
    sin_n1, sin_n = np.sin((n - 1) * thetas), np.sin(n * thetas)
    ratio = u_n2 / u_n1 / sin_n
    reduced = np.stack([-ratio * sin_n1, ratio * np.cos((n - 1) * thetas)])
    slopes = np.stack([j01, j02]) / f_u[..., 0]
    gaps = np.max(np.abs(slopes - reduced) / np.abs(reduced), axis=(1, 2))
    positive = all(bool(np.all(f > 0.0)) for f in (u_n2, u_n1, sin_n1, sin_n))
    return positive and bool(np.all(gaps < 1e-12)), float(gaps[0]), float(gaps[1])


@dataclass(frozen=True)
class MonotonicityReport:
    n: int
    h: float
    grid_size: int
    x1_strictly_decreasing: bool
    x1_below_minus_h: bool
    x2_unimodal: bool
    x2_argmax_theta: float
    x2_argmax_expected: float
    x2_argmax_cell_offset: int
    derivative_max_error_x1: float
    derivative_max_error_x2: float
    passed: bool


def curve_monotonicity_report(n: int, h: float) -> MonotonicityReport:
    """Monotone x1 / unimodal x2 structure of the fundamental arc.

    Along x0 = h the slopes J0k / (dx0/du) reduce pointwise to

        dx1/dtheta = -(U_{n-2} / U_{n-1}) sin((n-1) theta) / sin(n theta)
        dx2/dtheta = +(U_{n-2} / U_{n-1}) cos((n-1) theta) / sin(n theta).

    Each arc with h > 0 lies in the wedge 0 < theta < pi/n, u > cos(theta)
    (T_n(u) - cos(n theta) = sin(n theta)/(nh) > 0), where U_{n-2}, U_{n-1}
    (largest zeros cos(pi/(n-1)), cos(pi/n)), sin((n-1) theta) and sin(n
    theta) are positive.  So x1 falls from its exact tip limit -h (the
    rational part tends to -h, the log sum cancels under j <-> n - j) and x2
    turns once, at pi/(2(n-1)), for every h at once.  It passes when, on 32
    angles x 32 gaps of that wedge, both sheets, the factors are positive and
    the kernel slopes match the reduced ratios to 1e-12 relative
    (derivative_max_error_*).  The other fields sample the arc at grid_size =
    1000 angles, floored at 1e-4 of the wedge; at large h they see rounding.
    """
    passed, err1, err2 = _slice_facts(n)
    grid_size = 1000
    thetas = _fundamental_arc_thetas(n, grid_size, tip_frac=1e-4)
    xs, ys = eval_extended_grid(n, contour_u(n, h, thetas), thetas)[:, 1:].T
    decreasing = bool(np.all(np.diff(xs) < 0.0))
    below = bool(np.all(xs < -h))
    imax = int(np.argmax(ys))
    unimodal = bool(np.all(np.diff(ys)[:imax] > 0.0) and np.all(np.diff(ys)[imax:] < 0.0))
    expected = math.pi / (2.0 * (n - 1))
    iexp = int(np.argmin(np.abs(thetas - expected)))
    return MonotonicityReport(
        n=n, h=h, grid_size=grid_size,
        x1_strictly_decreasing=decreasing,
        x1_below_minus_h=below,
        x2_unimodal=unimodal,
        x2_argmax_theta=float(thetas[imax]),
        x2_argmax_expected=expected,
        x2_argmax_cell_offset=abs(imax - iexp),
        derivative_max_error_x1=err1,
        derivative_max_error_x2=err2,
        passed=passed,
    )


def upsilon(n: int, u):
    """The h-derivative of Phi, (1 + U_{2n-2} + 2 U_{n-1}) / (2 U_{n-1}).

    The identity 2 T_{n-1} U_{n-1} = U_{2n-2} + 1 reduces it to 1 + T_{n-1}(u).
    """
    check_order(n, 3)
    return 1.0 + eval_T(n - 1, u)


@dataclass(frozen=True)
class RegionReport:
    n: int
    h: float
    theta0: float
    copies_outside: bool
    phi_at_theta0: float
    upsilon_min: float
    passed: bool


def _sector(c: float, s: float, h: float):
    # D_h = {p : g . p > o} over the rows g of the normals and the offsets o
    return np.array([[-1.0, 0.0], [c, -s]]), np.array([h, -h])


def region_Dh_certificate(n: int, h: float) -> RegionReport:
    """Containment of the fundamental arc in its sector, and of no other copy.

    D_h = {x < -h, phi_h > 0}, phi_h = x cos(2 pi/n) - y sin(2 pi/n) + h.  The
    arc is a graph with x1 < -h (``curve_monotonicity_report``), and on the
    same wedge dphi_h/dtheta = -(U_{n-2} / U_{n-1}) sin((n-1) theta + 2 pi/n)
    / sin(n theta) turns from - to + only at theta0 = (n-2) pi / ((n-1) n),
    where (n-1) theta0 + 2 pi/n = pi.  So phi_at_theta0 = Phi(h) > 0, the one
    contour point at h, settles phi_h > 0.  Phi rises from 0 at the rate
    upsilon, which increases on u >= cos(theta0) from 2 sin^2(pi/n).

    copies_outside is the pinwheel lemma.  For a_j at angle pi + 2 pi j/n,
    R^k D_h is P_{-k} of the pieces P_j = {a_j . p > h > a_{j-1} . p}.  Proof:
    a_j . p > h holds on a cyclic run of j, never on all n (the a_j sum to 0),
    and p lies in P_j only if the run starts at j.  D_h = h D_1, and rotations
    commute with scaling, so it is checked once, at h = 1: per copy, a line of
    D_1 or R^k D_1 has the other wedge, apex and edges, beyond it, up to the
    absolute SECTOR_SLACK at the line that adjacent pieces share.  Rounding
    moves those ties by at most 3.1e-15 for n = 3..65; moving the phi_h line
    out by a relative 1e-11, or R built for n + 1, fails.  It passes when the
    slope facts, upsilon_min > 0, copies_outside and phi_at_theta0 > 0 hold.
    """
    passed = _slice_facts(n)[0]
    c, s = math.cos(2.0 * math.pi / n), math.sin(2.0 * math.pi / n)
    normals, offsets = _sector(c, s, 1.0)
    apex = np.linalg.solve(normals, offsets)
    # edge i leaves the apex along line i, into the half-plane of the other
    edges = normals[:, ::-1] * np.array([[-1.0, 1.0], [1.0, -1.0]])
    # columns of lines[k - 1]: copy k's normals; D_1 is beyond a line if its apex and edges are
    lines = group_elements(n)[2::2, 1:, 1:] @ normals.T
    beyond = np.any((apex @ lines <= offsets + SECTOR_SLACK)
                    & np.all(edges @ lines <= SECTOR_SLACK, axis=1), axis=1)
    # turned by R^-k = R^(n-k), D_1's lines against copy k are copy n-k's against D_1
    copies_outside = bool(np.all(beyond | beyond[::-1]))
    theta0 = (n - 2) * math.pi / ((n - 1) * n)
    p0 = eval_extended_grid(n, contour_u(n, h, theta0), theta0)
    phi0 = float(p0[1] * c - p0[2] * s + h)
    ups_min = upsilon(n, math.cos(theta0))
    ok = passed and phi0 > 0.0 and ups_min > 0.0 and copies_outside
    return RegionReport(n=n, h=h, theta0=theta0, copies_outside=copies_outside,
                        phi_at_theta0=phi0, upsilon_min=ups_min, passed=ok)


# ---------------------------------------------------------------------------
# embeddedness scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HeightScan:
    h: float
    self_intersections: int
    cross_intersections: int
    min_cross_distance: float
    sector_disjoint: bool | None
    rays_collinear: bool | None
    ray_speed_positive: bool | None
    passed: bool


@dataclass(frozen=True, eq=False)
class EmbeddednessReport:
    n: int
    samples: int
    tolerance: float
    records: tuple
    passed: bool

    def as_dict(self):
        return asdict(self)


def _scan_height(n: int, h: float, samples: int, tol: float) -> HeightScan:
    xy = np.stack([c.points[:, 1:3] for c in level_curve(n, h, samples)])
    self_hits = len(polyline_self_intersections(xy[0], tol))
    # rotation carries copy a to copy a+k, so copy 0 against copy k covers the
    # pairs of class k; R^k turns (0, n-k) into (k, 0), so k <= n/2 covers them all
    cross_hits, min_cross = polyline_set_scan(xy[:1], xy[1:n // 2 + 1], tol)
    # the mirrored slice is an isometric image: its sector statement is that of |h|
    sector = region_Dh_certificate(n, abs(h)).passed
    ok = self_hits == 0 and cross_hits == 0 and sector and min_cross > 0.0
    return HeightScan(
        h=h, self_intersections=self_hits, cross_intersections=cross_hits,
        min_cross_distance=float(min_cross), sector_disjoint=sector,
        rays_collinear=None, ray_speed_positive=None, passed=ok,
    )


def _scan_rays(n: int, samples: int, tol: float) -> HeightScan:
    rays = level_curve(n, 0.0, samples)
    t = np.stack([r.points[:, 0] for r in rays])
    xy = np.stack([r.points[:, 1:3] for r in rays])
    # ray k runs along (sin, cos)(k pi/n): its distance off that line is
    # |x cos - y sin|, and its height t is 0
    angles = np.arange(2 * n)[:, None] * math.pi / n
    x, y = xy[..., 0], xy[..., 1]
    off = np.abs(x * np.cos(angles) - y * np.sin(angles))
    collinear = bool(np.max(off) < tol and np.max(np.abs(t)) < tol)
    # every even ray has the params of ray 0 and every odd ray those of ray 1
    us = np.stack([rays[0].params, rays[1].params])
    speed = eval_U(n - 2, us) / (eval_T(n, us) - np.array([[1.0], [-1.0]]))
    speed_ok = bool(np.all(speed > 0.0))
    cross_hits, min_cross = polyline_set_scan(xy, tol=tol)
    origin_free = bool(np.min(x * x + y * y + t * t) > 0.0)
    ok = cross_hits == 0 and collinear and speed_ok and origin_free
    return HeightScan(
        h=0.0, self_intersections=0, cross_intersections=cross_hits,
        min_cross_distance=float(min_cross), sector_disjoint=None,
        rays_collinear=collinear, ray_speed_positive=speed_ok, passed=ok,
    )


def embeddedness_scan(
    n: int, heights, samples: int = 2048, tol: float = DEFAULT_TOLERANCE
) -> EmbeddednessReport:
    """Self- and cross-intersection sweep of the sampled height slices.

    Nonzero heights get a polyline self-test of the fundamental arc, direct
    segment tests of copy 0 against copies 1..n/2, one per rotation class of
    copy pairs, and the sector certificate; height zero checks that the 2n
    rays are straight, positively traversed, pairwise disjoint, and miss the
    origin (their common limit).  Any hit is counted (a copy pair's once per
    class); a clean report is sampled evidence beside the sector certificate,
    whose verdict is one per order (h enters it at one contour point).  A
    nonzero height needs n <= 65, the orders that certificate reaches; past
    that the scan raises ValueError before it evaluates any slice.
    """
    check_order(n, 3)
    tol = check_tolerance(tol)
    heights = list(heights)
    if not heights:
        raise ValueError("embeddedness scan needs at least one height")
    if any(h != 0.0 for h in heights):
        _check_chain_order(n)
    records = []
    for h in heights:
        if h == 0.0:
            records.append(_scan_rays(n, samples, tol))
        else:
            records.append(_scan_height(n, float(h), samples, tol))
    return EmbeddednessReport(
        n=n, samples=samples, tolerance=tol,
        records=tuple(records), passed=all(r.passed for r in records),
    )


# ---------------------------------------------------------------------------
# properness probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PropernessReport:
    n: int
    theta_target: float
    case: str
    coordinate: str
    log_gaps: np.ndarray
    values: np.ndarray
    min_value: float
    crossed_threshold: bool
    monotone_tail: bool
    log_slope: float | None
    log_slope_expected: float | None
    passed: bool


def properness_probe(n: int, theta_target: float, approach_samples: int) -> PropernessReport:
    """Divergence tracking along u dropping to the boundary at fixed theta.

    The probe walks the log gap l = log(u - cos theta) linearly from
    LOG_GAP_START down to a floor and certifies descent below
    DESCENT_THRESHOLD plus a strictly decreasing tail.

    Interior targets (theta < pi/n) watch the planar coordinate x2 =
    ((n-1)/n^2) l + R(e^l) with R analytic at 0.  It is evaluated from l by
    ``x2_log_gap``, so the walk reaches INTERIOR_LOG_GAP_FLOOR = -2e5, far
    past where e^l underflows, and x2 crosses -1e3 for every order
    n = 2..128 (at n = 128 it ends near -1551).  The log slope is fitted
    against l over the last 20 samples; its limit is (n-1)/n^2.

    The wedge corner theta = pi/n watches x1, which blows up at pole rate
    because the denominator vanishes to second order there; its walk stops
    at the gap 1.05e-12 (CORNER_LOG_GAP_FLOOR) and uses the direct
    evaluator.
    """
    check_order(n, 2)
    if approach_samples < 32:
        raise ValueError("need at least 32 approach samples")
    wedge = math.pi / n
    if not 0.0 <= theta_target <= wedge * (1.0 + 1e-12):
        raise ValueError("theta_target must lie in [0, pi/n]")
    corner = theta_target >= wedge * (1.0 - 1e-12)
    floor = CORNER_LOG_GAP_FLOOR if corner else INTERIOR_LOG_GAP_FLOOR
    log_gaps = np.linspace(LOG_GAP_START, floor, approach_samples)
    if corner:
        u = math.cos(theta_target) + np.exp(log_gaps)
        coord = eval_extended_grid(n, u, np.full(approach_samples, theta_target))[:, 1]
    else:
        coord = x2_log_gap(n, log_gaps, theta_target)

    crossed = bool(np.any(coord < DESCENT_THRESHOLD))
    tail = coord[-10:]
    monotone = bool(np.all(np.diff(tail) < 0.0))
    slope = expected = None
    if not corner:
        fit = np.polyfit(log_gaps[-20:], coord[-20:], 1)
        slope = float(fit[0])
        expected = (n - 1) / n ** 2
    return PropernessReport(
        n=n, theta_target=theta_target,
        case="corner" if corner else "interior",
        coordinate="x1" if corner else "x2",
        log_gaps=log_gaps, values=coord,
        min_value=float(np.min(coord)),
        crossed_threshold=crossed,
        monotone_tail=monotone,
        log_slope=slope,
        log_slope_expected=expected,
        passed=crossed and monotone,
    )


# ---------------------------------------------------------------------------
# endpoint extrapolation
# ---------------------------------------------------------------------------

def neville_to_zero(xs, ys) -> float:
    """Polynomial extrapolation of samples (xs, ys) to x = 0."""
    x = np.asarray(xs, dtype=float)
    tab = np.asarray(ys, dtype=float).copy()
    m = len(x)
    for level in range(1, m):
        for i in range(m - level):
            tab[i] = (x[i + level] * tab[i] - x[i] * tab[i + 1]) / (
                x[i + level] - x[i]
            )
    return float(tab[0])


@dataclass(frozen=True)
class ContourEndpoints:
    u_at_zero: float
    u_at_wedge: float
    x1_at_zero: float


def contour_endpoint_limits(n: int, h: float) -> ContourEndpoints:
    """Extrapolated contour boundary values: u -> 1, u -> cos(pi/n), x1 -> -h.

    The theta -> 0 end is smooth, so plain Neville on a dyadic theta
    sequence of 8 levels converges fast; the theta -> pi/n end behaves like a
    square root, so the extrapolation variable there is sqrt(pi/n - theta).
    Shrinking theta much below pi/n * 1e-2 buys nothing: cancellation noise
    in x1 grows like h^2 n^2 eps / theta and floors the achievable error.
    """
    check_order(n, 2)
    wedge = math.pi / n
    th = wedge * 1e-2 * 2.0 ** (-np.arange(8))
    u = contour_u(n, h, th)
    u0 = neville_to_zero(th, u)
    x1_0 = neville_to_zero(th, eval_extended_grid(n, u, th)[:, 1])
    deltas = wedge * 1e-2 * 4.0 ** (-np.arange(8))
    u1 = neville_to_zero(np.sqrt(deltas), contour_u(n, h, wedge - deltas))
    return ContourEndpoints(u_at_zero=u0, u_at_wedge=u1, x1_at_zero=x1_0)


# ---------------------------------------------------------------------------
# zero mean curvature residual
# ---------------------------------------------------------------------------

def mean_curvature_residual(n: int, u, theta, step: float = 1e-3):
    """|E g - 2 F f + G e| / (|EG - F^2| + 1) by central differences.

    First and second fundamental forms come from a 3x3 stencil of the
    surface; the normal is the unnormalized Lorentz cross product of the
    first derivatives, which keeps the residual finite near the fold
    without dividing by a vanishing norm.  Points where |EG - F^2| <=
    FOLD_DET_GUARD are rejected as fold-proximate.
    """
    ua, ta, _ = domain_factors(n, u, theta)
    s = float(step)
    offsets = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    stencil = dict(zip(offsets, eval_extended_grid(
        n, np.stack([ua + i * s for i, _ in offsets]), np.stack([ta + j * s for _, j in offsets]))))
    fu = (stencil[1, 0] - stencil[-1, 0]) / (2.0 * s)
    ft = (stencil[0, 1] - stencil[0, -1]) / (2.0 * s)
    fuu = (stencil[1, 0] - 2.0 * stencil[0, 0] + stencil[-1, 0]) / s ** 2
    ftt = (stencil[0, 1] - 2.0 * stencil[0, 0] + stencil[0, -1]) / s ** 2
    fut = (stencil[1, 1] - stencil[1, -1] - stencil[-1, 1] + stencil[-1, -1]) / (
        4.0 * s ** 2
    )
    E, F, G = lorentz_inner(fu, fu), lorentz_inner(fu, ft), lorentz_inner(ft, ft)
    det = E * G - F * F
    fold = np.abs(det) <= FOLD_DET_GUARD
    if fold.any():
        k = np.flatnonzero(fold)[0]
        raise FoldProximityError(n, float(ua.flat[k]), float(ta.flat[k]), FOLD_DET_GUARD)
    normal = lorentz_cross(fu, ft)
    e2 = lorentz_inner(normal, fuu)
    f2 = lorentz_inner(normal, fut)
    g2 = lorentz_inner(normal, ftt)
    out = np.abs(E * g2 - 2.0 * F * f2 + G * e2) / (np.abs(det) + 1.0)
    return float(out) if out.ndim == 0 else out


def zmc_verification_grid(n: int, nu: int = 40, ntheta: int = 120):
    """Mixed causal-type grid for residual sweeps, avoiding fragile zones.

    Rows run from a margin above the domain's lower edge up to u = 2.5,
    skipping the fold band |u - 1| < 0.05.  The margin is graded by n and
    bumped near the puncture directions theta = 2 pi j / n, where the
    stencil otherwise straddles steep log terms.  Returns flat (u, theta)
    arrays.
    """
    margin = ZMC_BASE_MARGIN.get(n, 0.1)
    thetas = np.linspace(0.0, 2.0 * math.pi, ntheta, endpoint=False)
    lower = omega_lower_bound(n, thetas)
    ray_step = 2.0 * math.pi / n
    dist = np.abs((thetas + ray_step / 2.0) % ray_step - ray_step / 2.0)
    col_margin = np.where(dist <= 0.5 * math.pi / n, margin + 0.1, margin)
    lo = lower + col_margin
    rows = np.linspace(0.0, 1.0, nu)[:, None]
    uu = lo[None, :] + rows * (2.5 - lo[None, :])
    tt = np.broadcast_to(thetas[None, :], uu.shape)
    keep = np.abs(uu - 1.0) >= 0.05
    return uu[keep], tt[keep]
