"""Derivatives, contours, level curves, certificates, curvature residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zmcnoid import analysis as an
from zmcnoid import extension as ext
from zmcnoid import geometry as geo
from zmcnoid.chebyshev import eval_T, eval_U, psi


def central_diff(f, x, step):
    return (f(x + step) - f(x - step)) / (2.0 * step)


def sample_wedge(rng, n, count, gap_lo=1e-3, gap_hi=3.0):
    theta = rng.uniform(0.0, math.pi / n, count)
    gap = np.exp(rng.uniform(math.log(gap_lo), math.log(gap_hi), count))
    return np.cos(theta) + gap, theta


# ---------------------------------------------------------------------------
# closed-form partials
# ---------------------------------------------------------------------------

def test_x0_u_vanishes_on_symmetry_spoke():
    assert an.x0_u(3, 2.0, 0.0) == 0.0


def test_x0_u_matches_finite_difference():
    got = an.x0_u(3, 1.4, 0.5)
    fd = central_diff(lambda u: ext.eval_extended_grid(3, u, 0.5)[0], 1.4, 1e-5)
    assert abs(got - fd) < 1e-7


def test_x0_u_negative_inside_wedge():
    assert an.x0_u(4, 1.2, math.pi / 8) < 0.0


def test_x1_u_vanishes_at_theta_zero():
    # every numerator term carries a sine of a multiple of theta
    assert an.x1_u(2, 1.5, 0.0) == 0.0


def test_x1_x2_u_match_finite_difference():
    for col, func in ((1, an.x1_u), (2, an.x2_u)):
        got = func(3, 1.3, 0.6)
        fd = central_diff(lambda u: ext.eval_extended_grid(3, u, 0.6)[col], 1.3, 1e-5)
        assert abs(got - fd) < 1e-7


def test_partials_finite_in_timelike_region():
    u, theta = 0.98, math.pi / 5 - 0.05
    assert u > ext.omega_lower_bound(5, theta)
    for func in (an.x0_u, an.x1_u, an.x2_u):
        assert math.isfinite(func(5, u, theta))


def test_partials_match_finite_difference_sampled():
    rng = np.random.default_rng(401)
    for n in (2, 4, 6, 8):
        u, theta = sample_wedge(rng, n, 100, gap_lo=5e-2)
        step = 1e-6 * np.minimum(u - ext.omega_lower_bound(n, theta), 1.0)
        for col, func in ((0, an.x0_u), (1, an.x1_u), (2, an.x2_u)):
            got = func(n, u, theta)
            fd = (ext.eval_extended_grid(n, u + step, theta)[:, col]
                  - ext.eval_extended_grid(n, u - step, theta)[:, col]) / (2.0 * step)
            rel = np.abs(got - fd) / np.maximum(1.0, np.abs(got))
            assert np.max(rel) < 1e-6, (n, col)


def test_partials_reject_out_of_domain():
    with pytest.raises(ext.OutOfDomainError):
        an.x0_u(3, 0.3, 0.1)


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

def test_jacobians_spot_values():
    assert an.jacobian01(3, 1.2, 0.0) == 0.0
    want = -eval_U(1, 1.2) / psi(3, 1.2, 0.0) ** 2
    got = an.jacobian02(3, 1.2, 0.0)
    assert got < 0.0
    assert abs(got - want) < 1e-14


def test_jacobians_match_fd_determinants():
    n, u, theta = 4, 1.5, 0.3
    step = 1e-5
    cols = {}
    for c in range(3):
        du = (ext.eval_extended_grid(n, u + step, theta)[c]
              - ext.eval_extended_grid(n, u - step, theta)[c]) / (2.0 * step)
        dt = (ext.eval_extended_grid(n, u, theta + step)[c]
              - ext.eval_extended_grid(n, u, theta - step)[c]) / (2.0 * step)
        cols[c] = (du, dt)
    det01 = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
    det02 = cols[0][0] * cols[2][1] - cols[0][1] * cols[2][0]
    assert abs(an.jacobian01(n, u, theta) - det01) < 1e-6
    assert abs(an.jacobian02(n, u, theta) - det02) < 1e-6


def test_jacobians_not_both_zero_in_timelike_region():
    j1 = an.jacobian01(6, 0.95, math.pi / 6)
    j2 = an.jacobian02(6, 0.95, math.pi / 6)
    assert max(abs(j1), abs(j2)) > 0.0


def test_jacobian_sum_identity():
    rng = np.random.default_rng(402)
    for n in (2, 3, 5, 8):
        u, theta = sample_wedge(rng, n, 300)
        lhs = an.jacobian01(n, u, theta) ** 2 + an.jacobian02(n, u, theta) ** 2
        rhs = eval_U(n - 2, u) ** 2 / psi(n, u, theta) ** 4
        assert np.min(lhs) > 0.0
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-10


def test_immersion_certificate_spacelike_grid():
    rep = an.immersion_certificate(
        3, an.GridSpec(u_min=1.01, u_max=5.0, u_count=200, theta_count=200)
    )
    assert rep.passed
    assert rep.min_certified_bound > 0.0
    assert rep.min_observed >= rep.min_certified_bound * (1.0 - 1e-9)


def test_immersion_certificate_n2_bound_is_constant_numerator():
    rep = an.immersion_certificate(
        2, an.GridSpec(u_min=1.05, u_max=3.0, u_count=40, theta_count=40)
    )
    assert rep.passed
    assert rep.min_certified_bound > 0.0


def test_immersion_certificate_across_fold():
    # narrow column through the timelike strip at the n=8 wedge center
    spec = an.GridSpec(u_min=0.93, u_max=1.2, u_count=60,
                       theta_min=0.38, theta_max=0.405, theta_count=16)
    rep = an.immersion_certificate(8, spec)
    assert rep.passed
    assert rep.min_certified_bound > 0.0


# ---------------------------------------------------------------------------
# contour function
# ---------------------------------------------------------------------------

def test_contour_roundtrip_single():
    u = an.contour_u(3, 0.01, math.pi / 6)
    v = ext.eval_extended_grid(3, u, math.pi / 6)
    assert abs(v[0] - 0.01) < 1e-10


def test_contour_endpoint_trends():
    # u -> 1 at the tip and cos(pi/n) at the wedge corner, from above
    for n, h in ((3, 0.7), (5, 0.02)):
        wedge = math.pi / n
        assert abs(an.contour_u(n, h, 1e-8 * wedge) - 1.0) < 1e-3
        assert abs(an.contour_u(n, h, wedge * (1 - 1e-8)) - math.cos(wedge)) < 1e-3


def test_contour_monotone_decreasing_in_h():
    thetas = np.linspace(0.1, 0.9, 30) * (math.pi / 4)
    prev = an.contour_u(4, 0.05, thetas)
    for h in (0.2, 1.0, 5.0, 25.0):
        cur = an.contour_u(4, h, thetas)
        assert np.all(cur < prev)
        prev = cur


def test_contour_stays_above_cos_theta():
    thetas = np.linspace(1e-4, 1.0 - 1e-4, 500) * (math.pi / 5)
    assert np.all(an.contour_u(5, 0.3, thetas) > np.cos(thetas))


def test_contour_validation():
    with pytest.raises(ValueError):
        an.contour_u(3, -1.0, 0.3)
    with pytest.raises(ValueError):
        an.contour_u(3, 1.0, math.pi / 3 + 0.01)
    with pytest.raises(ValueError):
        an.contour_u(3, 0.0, 0.3)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 8),
    h=st.floats(0.01, 2.0),
    frac=st.floats(0.1, 0.9),
)
def test_contour_roundtrip_property(n, h, frac):
    theta = frac * math.pi / n
    u = an.contour_u(n, h, theta)
    v = ext.eval_extended_grid(n, u, theta)
    assert abs(v[0] - h) < 1e-10


def test_contour_endpoint_extrapolation():
    for n, h in ((3, 0.5), (5, 10.0), (8, 0.01)):
        ep = an.contour_endpoint_limits(n, h)
        assert abs(ep.u_at_zero - 1.0) < 1e-6, (n, h)
        assert abs(ep.u_at_wedge - math.cos(math.pi / n)) < 1e-6, (n, h)
        assert abs(ep.x1_at_zero - (-h)) < 1e-6, (n, h)


def test_neville_exact_on_polynomial():
    xs = np.array([0.4, 0.2, 0.1, 0.05])
    ys = 3.0 - 2.0 * xs + xs ** 2
    assert abs(an.neville_to_zero(xs, ys) - 3.0) < 1e-12


# ---------------------------------------------------------------------------
# level curves
# ---------------------------------------------------------------------------

def test_level_curve_positive_height():
    curves = an.level_curve(3, 1.0, 64)
    assert len(curves) == 3
    for k, c in enumerate(curves):
        assert c.copy_index == k
        assert not c.is_ray
        assert np.max(np.abs(c.points[:, 0] - 1.0)) < 1e-10
        assert np.all(np.diff(c.params) > 0.0)


def test_level_curve_negative_height_is_mirror():
    plus = an.level_curve(3, 0.5, 64)
    minus = an.level_curve(3, -0.5, 64)
    S = ext.reflection_matrix()
    for cp, cm in zip(plus, minus):
        assert np.max(np.abs(cm.points - cp.points @ S.T)) < 1e-14
        assert np.max(np.abs(cm.points[:, 0] + 0.5)) < 1e-10


def test_level_curve_rays():
    rays = an.level_curve(6, 0.0, 64)
    assert len(rays) == 12
    first = rays[0]
    assert first.is_ray
    # ray k=0 runs along the y-axis of the display plane
    assert np.max(np.abs(first.points[:, 0])) < 1e-9
    assert np.max(np.abs(first.points[:, 1])) < 1e-9
    assert np.all(np.diff(first.points[:, 2]) > 0.0)
    for ray in rays:
        k = ray.copy_index
        d = np.array([math.sin(k * math.pi / 6), math.cos(k * math.pi / 6)])
        xy = ray.points[:, 1:3]
        off = xy - np.outer(xy @ d, d)
        assert np.max(np.linalg.norm(off, axis=1)) < 1e-9


def test_level_curve_tip_approaches_minus_h():
    curves = an.level_curve(4, 0.5, 512)
    first = curves[0]
    assert abs(first.points[0, 1] + 0.5) < 1e-2
    ep = an.contour_endpoint_limits(4, 0.5)
    assert abs(ep.x1_at_zero + 0.5) < 1e-6


def test_level_curve_samples_property():
    # sample i pairs the parameter params[i] with the (t, x, y) row points[i]
    c = an.level_curve(3, 0.2, 16)[0]
    assert c.params.shape == (16,)
    assert c.points.shape == (16, 3)
    assert np.max(np.abs(c.points[:, 0] - 0.2)) < 1e-10
    u = an.contour_u(3, 0.2, c.params[0])
    assert np.max(np.abs(c.points[0] - ext.eval_extended_grid(3, u, c.params[0]))) < 1e-12


def test_level_curve_validation():
    with pytest.raises(ValueError):
        an.level_curve(3, 1.0, 8)
    with pytest.raises(ValueError):
        an.level_curve(1, 1.0, 64)


# ---------------------------------------------------------------------------
# monotonicity and sector certificates
# ---------------------------------------------------------------------------

def test_monotonicity_small_h():
    rep = an.curve_monotonicity_report(6, 0.01)
    assert rep.x1_strictly_decreasing
    assert rep.x1_below_minus_h
    assert rep.passed


def test_monotonicity_argmax_location():
    rep = an.curve_monotonicity_report(4, 1.0)
    assert rep.x2_unimodal
    assert rep.x2_argmax_expected == math.pi / 6
    assert rep.x2_argmax_cell_offset <= 2
    assert rep.derivative_max_error_x1 < 1e-6
    assert rep.derivative_max_error_x2 < 1e-6


def test_contour_x2_derivative_zero_at_argmax():
    # cos((n-1) theta) factor kills the derivative at theta = pi/(2(n-1))
    val = an.contour_x2_derivative(3, 0.5, math.pi / 4)
    assert abs(val) < 1e-8


def test_monotonicity_validation():
    with pytest.raises(ValueError):
        an.curve_monotonicity_report(2, 0.5)
    with pytest.raises(ValueError):
        an.curve_monotonicity_report(4, 0.0)


def test_region_certificate_basic():
    rep = an.region_Dh_certificate(6, 1.0)
    assert rep.arc_inside
    assert rep.phi_min > 0.0
    assert rep.phi_argmin_cell_offset <= 2
    assert rep.upsilon_min > 0.0
    assert rep.passed


def test_region_certificate_small_h_limit():
    # the contour point at theta0 escapes to u ~ h^(-1/n), so the sector
    # clearance Phi(h) = phi_h(theta0) decays to zero like h^(1/n)
    phis = [an.region_Dh_certificate(3, h).phi_at_theta0
            for h in (1e-2, 1e-4, 1e-6, 1e-8)]
    assert all(p > 0.0 for p in phis)
    assert all(a > b for a, b in zip(phis, phis[1:]))
    assert phis[-1] < 5e-3
    ratio = phis[1] / phis[2]  # h falls by 1e2, Phi by ~ (1e2)^(1/3)
    assert 3.0 < ratio < 7.0


def test_region_certificate_large_h_large_n():
    # the theta -> 0 tip margin shrinks like h at representation-noise scale
    rep = an.region_Dh_certificate(8, 10.0)
    assert rep.passed


def test_upsilon_spot_value():
    # U_8(1) = 9 and U_4(1) = 5: (1 + 9 + 10) / 10
    assert abs(an.upsilon(5, 1.0) - 2.0) < 1e-12


def test_theta0_matches_phi_formula():
    rep = an.region_Dh_certificate(5, 0.3)
    assert abs(rep.theta0 - 3.0 * math.pi / 20.0) < 1e-15


# ---------------------------------------------------------------------------
# embeddedness scans
# ---------------------------------------------------------------------------

def test_embeddedness_scan_nonzero_heights():
    rep = an.embeddedness_scan(3, [0.01, -0.5, 1.0], samples=512)
    assert rep.passed
    for rec in rep.records:
        assert rec.self_intersections == 0
        assert rec.cross_intersections == 0
        assert rec.sector_disjoint
        assert rec.min_cross_distance > 0.0


def test_embeddedness_scan_rays():
    rep = an.embeddedness_scan(6, [0.0], samples=256)
    rec = rep.records[0]
    assert rec.rays_collinear
    assert rec.ray_speed_positive
    assert rec.cross_intersections == 0
    assert rec.min_cross_distance > 0.0
    assert rep.passed


def test_embeddedness_scan_needs_n3():
    with pytest.raises(ValueError):
        an.embeddedness_scan(2, [1.0])


def test_embeddedness_scan_rejects_bad_tolerance():
    for tol in (math.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match=f"got {tol!r}"):
            an.embeddedness_scan(3, [0.1], tol=tol)


def test_embeddedness_scan_rejects_empty_heights():
    # no slice scanned is no evidence; a vacuous pass would be a false certificate
    for heights in ([], (), iter([])):
        with pytest.raises(ValueError, match="at least one height"):
            an.embeddedness_scan(3, heights)


def test_embeddedness_slices_match_all_pairs_oracle():
    # unpruned, every pair of segments over the polyline pairs the scan
    # covers: copy 0 against each other copy (rotation carries copy a to
    # a+k), and every pair of distinct rays
    for h in (0.1, -1.0, 0.0):
        rec = an.embeddedness_scan(5, [h], samples=256).records[0]
        xy = [c.points[:, 1:3] for c in an.level_curve(5, h, 256)]
        pairs = ([(p, q) for k, p in enumerate(xy) for q in xy[k + 1:]] if h == 0.0
                 else [(xy[0], q) for q in xy[1:]])
        d = np.concatenate([
            geo.segment_pair_distance(p[:-1, None], p[1:, None], q[None, :-1], q[None, 1:]).ravel()
            for p, q in pairs
        ])
        assert rec.cross_intersections == int(np.count_nonzero(d < an.SCAN_TOLERANCE))
        assert rec.min_cross_distance == float(d.min())


def test_in_sector_predicate():
    assert an._in_sector(np.array([-2.0]), np.array([0.0]), 1.0, 3)[0]
    assert not an._in_sector(np.array([-0.5]), np.array([0.0]), 1.0, 3)[0]


# ---------------------------------------------------------------------------
# properness probes
# ---------------------------------------------------------------------------

def test_properness_interior_slope_and_tail():
    rep = an.properness_probe(3, 0.2, 400)
    assert rep.case == "interior"
    assert rep.coordinate == "x2"
    assert rep.monotone_tail
    assert rep.min_value < -5.0
    assert abs(rep.log_slope - 2.0 / 9.0) < 0.05 * (2.0 / 9.0)
    # logarithmic descent: reaching -1e3 needs a boundary gap near exp(-4500);
    # the probe walks the log of the gap and never forms the gap itself, so
    # the threshold certificate fires
    assert rep.crossed_threshold
    assert rep.passed


def test_properness_corner_certifies_descent():
    rep = an.properness_probe(3, math.pi / 3, 400)
    assert rep.case == "corner"
    assert rep.coordinate == "x1"
    assert rep.crossed_threshold
    assert rep.monotone_tail
    assert rep.min_value < -1e3
    assert rep.passed


def test_properness_slope_expected_value():
    rep = an.properness_probe(5, 0.0, 400)
    assert rep.log_slope_expected == 4.0 / 25.0
    assert abs(rep.log_slope - 4.0 / 25.0) < 0.05 * (4.0 / 25.0)


def test_properness_validation():
    with pytest.raises(ValueError):
        an.properness_probe(3, 0.2, 16)
    with pytest.raises(ValueError):
        an.properness_probe(3, math.pi / 3 + 0.1, 64)


# ---------------------------------------------------------------------------
# mean curvature
# ---------------------------------------------------------------------------

def test_zmc_residual_n2_graph():
    assert an.mean_curvature_residual(2, 1.5, 0.7) < 1e-4


def test_zmc_residual_spacelike_and_timelike():
    assert an.mean_curvature_residual(3, 2.0, 0.4) < 1e-4
    assert an.mean_curvature_residual(3, 0.9, math.pi / 3) < 1e-4


def test_zmc_residual_rejects_fold_proximity():
    with pytest.raises(an.FoldProximityError):
        an.mean_curvature_residual(3, 1.0 + 1e-7, 1.0)


def test_zmc_grid_properties():
    u, theta = an.zmc_verification_grid(4, nu=12, ntheta=36)
    assert u.shape == theta.shape
    assert np.all(u > ext.omega_lower_bound(4, theta))
    assert np.all(np.abs(u - 1.0) >= 0.05)
    res = an.mean_curvature_residual(4, u, theta)
    assert np.max(res) < 1e-4


def test_zmc_grid_covers_both_causal_types():
    u, _ = an.zmc_verification_grid(3, nu=15, ntheta=45)
    assert np.any(u > 1.0) and np.any(u < 1.0)


# ---------------------------------------------------------------------------
# sampled inequalities
# ---------------------------------------------------------------------------

def test_height_nonnegative_on_fundamental_domain():
    rng = np.random.default_rng(403)
    for n in (2, 3, 5, 8):
        u, theta = sample_wedge(rng, n, 2000)
        vals = ext.eval_extended_grid(n, u, theta)
        assert np.min(vals[:, 0]) > -1e-12


def test_far_factor_lower_bound_on_fundamental_domain():
    # the factors u - cos(theta - 2 pi j/n) for j = 2..n-1 stay above
    # 2 sin^2(pi/n) on the fundamental wedge: the nearest spoke is j = 0 or 1
    rng = np.random.default_rng(404)
    for n in (3, 4, 6, 8):
        u, theta = sample_wedge(rng, n, 1000, gap_lo=1e-6)
        factors = ext.log_factors(n, u, theta)
        floor = 2.0 * math.sin(math.pi / n) ** 2
        for j in range(2, n):
            assert np.min(factors[j]) >= floor - 1e-12, (n, j)
