"""Derivatives, contours, level curves, certificates, curvature residuals."""

import dataclasses
import hashlib
import json
import math
import re
import types

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
    assert an.surface_partials(3, 2.0, 0.0)[0][0] == 0.0


def test_x0_u_matches_finite_difference():
    got = an.surface_partials(3, 1.4, 0.5)[0][0]
    fd = central_diff(lambda u: ext.eval_extended_grid(3, u, 0.5)[0], 1.4, 1e-5)
    assert abs(got - fd) < 1e-7


def test_x0_u_negative_inside_wedge():
    assert an.surface_partials(4, 1.2, math.pi / 8)[0][0] < 0.0


def test_x1_u_vanishes_at_theta_zero():
    # every numerator term carries a sine of a multiple of theta
    assert an.surface_partials(2, 1.5, 0.0)[0][1] == 0.0


def test_x1_x2_u_match_finite_difference():
    f_u = an.surface_partials(3, 1.3, 0.6)[0]
    for col in (1, 2):
        got = f_u[col]
        fd = central_diff(lambda u: ext.eval_extended_grid(3, u, 0.6)[col], 1.3, 1e-5)
        assert abs(got - fd) < 1e-7


def test_partials_finite_in_timelike_region():
    u, theta = 0.98, math.pi / 5 - 0.05
    assert u > ext.omega_lower_bound(5, theta)
    for value in an.surface_partials(5, u, theta)[0]:
        assert math.isfinite(value)


def test_partials_match_finite_difference_sampled():
    rng = np.random.default_rng(401)
    for n in (2, 4, 6, 8):
        u, theta = sample_wedge(rng, n, 100, gap_lo=5e-2)
        step = 1e-6 * np.minimum(u - ext.omega_lower_bound(n, theta), 1.0)
        f_u = an.surface_partials(n, u, theta)[0]
        for col in range(3):
            got = f_u[:, col]
            fd = (ext.eval_extended_grid(n, u + step, theta)[:, col]
                  - ext.eval_extended_grid(n, u - step, theta)[:, col]) / (2.0 * step)
            rel = np.abs(got - fd) / np.maximum(1.0, np.abs(got))
            assert np.max(rel) < 1e-6, (n, col)


def test_surface_partials_shapes():
    f_u, j01, j02 = an.surface_partials(3, 1.5, 0.2)
    assert f_u.shape == (3,) and np.ndim(j01) == 0 and np.ndim(j02) == 0
    f_u, j01, j02 = an.surface_partials(3, np.full((4, 1), 1.5), np.linspace(0.0, 0.3, 5))
    assert f_u.shape == (4, 5, 3) and j01.shape == j02.shape == (4, 5)


def test_partials_reject_out_of_domain():
    with pytest.raises(ext.OutOfDomainError):
        an.surface_partials(3, 0.3, 0.1)


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

def test_jacobians_spot_values():
    _, j01, got = an.surface_partials(3, 1.2, 0.0)
    assert j01 == 0.0
    want = -eval_U(1, 1.2) / psi(3, 1.2, 0.0) ** 2
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
    _, j01, j02 = an.surface_partials(n, u, theta)
    assert abs(j01 - det01) < 1e-6
    assert abs(j02 - det02) < 1e-6


def test_jacobians_not_both_zero_in_timelike_region():
    _, j1, j2 = an.surface_partials(6, 0.95, math.pi / 6)
    assert max(abs(j1), abs(j2)) > 0.0


def test_jacobian_sum_identity():
    rng = np.random.default_rng(402)
    for n in (2, 3, 5, 8):
        u, theta = sample_wedge(rng, n, 300)
        _, j01, j02 = an.surface_partials(n, u, theta)
        lhs = j01 ** 2 + j02 ** 2
        rhs = eval_U(n - 2, u) ** 2 / psi(n, u, theta) ** 4
        assert np.min(lhs) > 0.0
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-10


def test_immersion_certificate_spacelike_grid(immersed_on_grid):
    assert immersed_on_grid(3, (1.01, 5.0, 200), (0.0, 2.0 * math.pi, 200))


def test_immersion_certificate_n2_bound_is_constant_numerator(immersed_on_grid):
    assert immersed_on_grid(2, (1.05, 3.0, 40), (0.0, 2.0 * math.pi, 40))


def test_immersion_certificate_across_fold(immersed_on_grid):
    # narrow column through the timelike strip at the n=8 wedge center
    assert immersed_on_grid(8, (0.93, 1.2, 60), (0.38, 0.405, 16))


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


@pytest.mark.parametrize("theta", [math.nan, np.array([0.3, math.nan])])
def test_contour_rejects_a_nan_angle(theta):
    # a NaN angle compares False both ways, so a check written as
    # "theta <= 0 or theta >= pi/n" let it through as a NaN u
    with pytest.raises(ValueError, match=r"^theta must lie strictly inside \(0, pi/n\)$"):
        an.contour_u(3, 1.0, theta)


@pytest.mark.parametrize("h", [math.nan, math.inf])
def test_contour_rejects_a_non_finite_height_first(h):
    # nan was once called too small, and inf gave cos(theta), a point on the
    # domain edge that the certificates then rejected as out of the domain
    with pytest.raises(ValueError, match=f"^contour_u needs a finite height, got {h!r}$"):
        an.contour_u(3, h, 0.1)
    with pytest.raises(ValueError, match="^contour_u needs a finite height"):
        an.region_Dh_certificate(3, h)


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


def test_contour_endpoint_extrapolation(contour_limits):
    for n, h in ((3, 0.5), (5, 10.0), (8, 0.01)):
        u_at_zero, u_at_wedge, x1_at_zero = contour_limits(n, h)
        assert abs(u_at_zero - 1.0) < 1e-6, (n, h)
        assert abs(u_at_wedge - math.cos(math.pi / n)) < 1e-6, (n, h)
        assert abs(x1_at_zero - (-h)) < 1e-6, (n, h)


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


def _per_copy_level_curve(n, h, samples):
    # each copy by an iterated R^k, and the -h slice as the mirror image of
    # each copy of the +|h| slice
    thetas = an._fundamental_arc_thetas(n, samples)
    base = ext.eval_extended_grid(n, an.contour_u(n, abs(h), thetas), thetas)
    rot, mat, copies = ext.rotation_matrix(n), np.eye(3), []
    for _ in range(n):
        copies.append(base @ mat.T)
        mat = rot @ mat
    if h < 0.0:
        copies = [c @ ext.reflection_matrix().T for c in copies]
    return thetas, copies


@pytest.mark.parametrize("n", range(3, 18))
def test_copies_and_mirrors_equal_the_per_copy_construction(n):
    # a numpy height must pick the mirrors too
    for h in (0.01, -0.01, 1.0, np.float64(-1.0), 10.0, -10.0):
        for samples in (64, 2048):
            thetas, copies = _per_copy_level_curve(n, h, samples)
            curves = an.level_curve(n, h, samples)
            assert [c.copy_index for c in curves] == list(range(n))
            for c, points in zip(curves, copies):
                assert np.array_equal(c.params, thetas)
                assert np.array_equal(c.points, points)


def _in_sector(x, y, h, n):
    c, s = math.cos(2.0 * math.pi / n), math.sin(2.0 * math.pi / n)
    return (x < -h) & (x * c - y * s + h > 0.0)


def _sampled_sector(n, h, samples=2000):
    # sampled corroboration of the slice facts and region_Dh_certificate on
    # an arc floored at 1e-4 of the wedge: is the arc inside D_h, the least
    # phi_h, how many cells its argmin lies from theta0, do the n - 1 copies
    # by an iterated R miss D_h, does x1 fall and stay below -h, is x2
    # unimodal, and how many cells its argmax lies from pi/(2(n-1))
    start = 1e-4 * (math.pi / n)
    cosines = np.cos(math.pi * (np.arange(samples) + 0.5) / samples)
    thetas = start + (math.pi / n - start) * 0.5 * (1.0 - cosines)
    pts = ext.eval_extended_grid(n, an.contour_u(n, h, thetas), thetas)
    x, y = pts[:, 1], pts[:, 2]
    phi = x * math.cos(2.0 * math.pi / n) - y * math.sin(2.0 * math.pi / n) + h
    # the samples nearest theta0 and the turn of x2
    near = np.argmin(np.abs(thetas[:, None] - [(n - 2) * math.pi / ((n - 1) * n),
                                               math.pi / (2.0 * (n - 1))]), axis=0)
    offset = abs(int(np.argmin(phi)) - int(near[0]))
    rot, copy, outside = ext.rotation_matrix(n), pts, True
    for _ in range(1, n):
        copy = copy @ rot.T
        outside &= not np.any(_in_sector(copy[:, 1], copy[:, 2], h, n))
    top, dy = int(np.argmax(y)), np.diff(y)
    return (bool(np.all(_in_sector(x, y, h, n))), float(phi.min()), offset, outside,
            bool(np.all(np.diff(x) < 0.0) and np.all(x < -h)),
            bool(np.all(dy[:top] > 0.0) and np.all(dy[top:] < 0.0)),
            abs(top - int(near[1])))


@pytest.mark.parametrize("n", range(3, 18))
def test_sector_copies_equal_the_iterated_rotation(n):
    # the lemma and the sampled arc turned by an iterated R both keep the copies out
    for h in (0.01, 1.0, 10.0, 1e3):
        assert an.region_Dh_certificate(n, h).copies_outside, (n, h)
        assert _sampled_sector(n, h)[3], (n, h)


@pytest.mark.parametrize("n", range(3, 18))
def test_rotated_sector_points_miss_the_sector(n):
    # the pinwheel lemma on random points of D_h: the apex (-h, h tan(pi/n))
    # plus multiples of the edge directions (0, -1) and -(sin, cos)(2 pi/n)
    # over six decades, turned by every R^k, k = 1..n-1
    rng = np.random.default_rng(n)
    turns = ext.group_elements(n)[2::2, 1:, 1:]
    t = 2.0 * math.pi / n
    for h in (1e-3, 0.01, 1.0, 10.0, 1e3):
        a, b = h * 10.0 ** rng.uniform(-3.0, 3.0, (2, 10_000))
        x, y = -h - b * math.sin(t), h * math.tan(math.pi / n) - a - b * math.cos(t)
        assert np.all(_in_sector(x, y, h, n)), (n, h)
        moved = np.stack([x, y], axis=-1) @ turns.transpose(0, 2, 1)
        assert not np.any(_in_sector(moved[..., 0], moved[..., 1], h, n)), (n, h)


def _phi_line_moved_out(sector):
    # the phi_h line a relative 1e-9 farther out widens D_h across the line
    # it shares with its neighbour
    def moved(c, s, h):
        normals, offsets = sector(c, s, h)
        return normals, offsets * np.array([1.0, 1.0 + 1e-9])
    return moved


@pytest.mark.parametrize("name, mutate", [
    ("group_elements", lambda group: lambda n: group(n + 1)),
    ("_sector", _phi_line_moved_out),
], ids=["rotation_for_n_plus_1", "phi_line_moved_out"])
@pytest.mark.parametrize("n", range(3, 66))
def test_broken_pinwheels_fail_the_certificate(monkeypatch, name, mutate, n):
    monkeypatch.setattr(an, name, mutate(getattr(an, name)))
    for h in (0.01, 1.0, 10.0, 1e3):
        rep = an.region_Dh_certificate(n, h)
        assert not rep.copies_outside and not rep.passed, (n, h)


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


def _per_ray_level_curve(n, samples, u_max):
    # the h = 0 slice one ray at a time, as (params, points) per ray: the
    # oracle for the stacked evaluation, which must reproduce it bit for bit
    rays = []
    for k in range(2 * n):
        lo = 1.0 if k % 2 == 0 else math.cos(math.pi / n)
        us = lo + (u_max - lo) * np.geomspace(1e-3, 1.0, samples)
        rays.append((us, ext.eval_extended_grid(n, us, np.full(samples, k * math.pi / n))))
    return rays


@pytest.mark.parametrize("n", range(2, 18))
def test_stacked_rays_equal_the_per_ray_loop(n):
    for samples in (16, 512, 2048):
        for u_max in (2, 10, 1e6):
            rays = an.level_curve(n, 0.0, samples, u_max)
            assert [r.copy_index for r in rays] == list(range(2 * n))
            for ray, (us, pts) in zip(rays, _per_ray_level_curve(n, samples, u_max)):
                assert ray.is_ray and ray.h == 0.0
                assert np.array_equal(ray.params, us), (samples, u_max, ray.copy_index)
                assert np.array_equal(ray.points, pts), (samples, u_max, ray.copy_index)


def _per_ray_scan_record(n, samples, tol):
    # the h = 0 record of embeddedness_scan checked ray by ray
    rays = _per_ray_level_curve(n, samples, 10.0)
    collinear = speed_ok = True
    for k, (us, pts) in enumerate(rays):
        d = np.array([math.sin(k * math.pi / n), math.cos(k * math.pi / n)])
        xy = pts[:, 1:3]
        off = xy - np.outer(xy @ d, d)
        collinear &= bool(np.max(np.linalg.norm(off, axis=1)) < tol)
        collinear &= bool(np.max(np.abs(pts[:, 0])) < tol)
        speed_ok &= bool(np.all(eval_U(n - 2, us) / (eval_T(n, us) - (-1.0) ** k) > 0.0))
    hits, dist = geo.polyline_set_scan(np.stack([p[:, 1:3] for _, p in rays]), tol=tol)
    origin_free = all(float(np.min(np.linalg.norm(p, axis=1))) > 0.0 for _, p in rays)
    return dict(h=0.0, self_intersections=0, cross_intersections=hits,
                min_cross_distance=dist, sector_disjoint=None, rays_collinear=collinear,
                ray_speed_positive=speed_ok,
                passed=hits == 0 and collinear and speed_ok and origin_free)


@pytest.mark.parametrize("n", range(3, 9))
def test_ray_scan_record_equals_the_per_ray_checks(n):
    record = an.embeddedness_scan(n, [0.0]).as_dict()["records"][0]
    assert record == _per_ray_scan_record(n, 2048, geo.DEFAULT_TOLERANCE)


def _patched_rays(monkeypatch, edit):
    # level_curve's one evaluator call, with edit applied to its output;
    # returns the list of the (u, theta) arguments it was called with
    calls, real = [], an.eval_extended_grid

    def evaluate(n, u, theta):
        calls.append((u, theta))
        out = real(n, u, theta)
        edit(out)
        return out
    monkeypatch.setattr(an, "eval_extended_grid", evaluate)
    return calls


@pytest.mark.parametrize("n", [2, 3, 8])
def test_ray_slice_is_one_evaluation(monkeypatch, n):
    calls = _patched_rays(monkeypatch, lambda out: None)
    an.level_curve(n, 0.0, 64)
    assert len(calls) == 1
    u, theta = calls[0]
    assert np.shape(u) == (2 * n, 64) and np.shape(theta) == (2 * n, 1)


def test_ray_errors_name_the_first_nonfinite_ray(monkeypatch):
    def spoil(out):
        out[7, 3, 2] = np.inf
        out[5, 40, 1] = np.nan
    _patched_rays(monkeypatch, spoil)
    with pytest.raises(ValueError, match=r"^n=4, u_max=10\.0: ray 5 leaves float64$"):
        an.level_curve(4, 0.0, 64)


@pytest.mark.parametrize("column", [0, 1, 2])
def test_ray_scan_catches_a_ray_off_its_line(monkeypatch, column):
    # a bump of 1e-6 in t, x or y of one sample of ray 3 leaves the line (or
    # the slice t = 0), far above the 1e-9 tolerance and far below any gap
    def bump(out):
        out[3, 100, column] += 1e-6
    _patched_rays(monkeypatch, bump)
    rec = an.embeddedness_scan(4, [0.0], samples=256).records[0]
    assert not rec.rays_collinear and not rec.passed
    assert rec.ray_speed_positive and rec.cross_intersections == 0


def test_level_curve_tip_approaches_minus_h(contour_limits):
    curves = an.level_curve(4, 0.5, 512)
    first = curves[0]
    assert abs(first.points[0, 1] + 0.5) < 1e-2
    assert abs(contour_limits(4, 0.5)[2] + 0.5) < 1e-6


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


@pytest.mark.parametrize("samples", [16.5, 64.0, 8])
def test_level_curve_names_a_bad_sample_count(samples):
    # 16.5 once got "theta must lie strictly inside (0, pi/n)"; the scan passes samples on
    message = rf"^samples must be an integer >= 16 per curve, got {re.escape(repr(samples))}$"
    for curves in (lambda: an.level_curve(3, 1.0, samples),
                   lambda: an.embeddedness_scan(3, [1.0], samples=samples)):
        with pytest.raises(ValueError, match=message):
            curves()


# ---------------------------------------------------------------------------
# monotonicity and sector certificates
# ---------------------------------------------------------------------------

def test_monotonicity_small_h():
    assert _sampled_sector(6, 0.01, 1000)[4]  # x1 falls and stays below -h
    assert an._slice_facts(6)[0]


def test_monotonicity_argmax_location():
    *_, unimodal, offset = _sampled_sector(4, 1.0, 1000)
    assert unimodal and offset <= 2
    assert max(an._slice_facts(4)[1:]) < 1e-6


def test_contour_x2_derivative_zero_at_argmax():
    # cos((n-1) theta) factor kills the derivative at theta = pi/(2(n-1))
    theta = math.pi / 4
    f_u, _, j02 = an.surface_partials(3, an.contour_u(3, 0.5, theta), theta)
    val = j02 / f_u[0]
    assert abs(val) < 1e-8


def test_contour_slopes_match_reduced_ratio():
    # J0k / (dx0/du) on x0 = h reduces to -(U_{n-2} / U_{n-1}) sin((n-1) theta)
    # / sin(n theta) for x1 and to +(...) cos((n-1) theta) / sin(n theta) for x2
    for n in range(3, 13):
        tg = np.linspace(0.05 * math.pi / n, 0.95 * math.pi / n, 257)
        for h in (0.01, 1.0, 100.0):
            u = an.contour_u(n, h, tg)
            f_u, j01, j02 = an.surface_partials(n, u, tg)
            ratio = eval_U(n - 2, u) / eval_U(n - 1, u) / np.sin(n * tg)
            for got, want in ((j01 / f_u[:, 0], -ratio * np.sin((n - 1) * tg)),
                              (j02 / f_u[:, 0], ratio * np.cos((n - 1) * tg))):
                assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14, (n, h)


def test_region_certificate_basic():
    rep = an.region_Dh_certificate(6, 1.0)
    inside, phi_min, offset, *_ = _sampled_sector(6, 1.0)
    assert inside
    assert phi_min > 0.0
    assert offset <= 2
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


@pytest.mark.parametrize("n", range(3, 9))
def test_sign_chains_certify_every_height(n):
    # the verdicts are per-order facts about the kernel slopes, so they hold
    # at h = 1e3 and 1e4 too, where the sampled arc sees rounding at its tip;
    # up to h = 10 the sampled fields and the sampled sector agree with them
    passed, *gaps = an._slice_facts(n)
    assert passed and max(gaps) < 1e-15
    for h in (0.01, 0.5, 1.0, 10.0, 100.0, 1e3, 1e4):
        region = an.region_Dh_certificate(n, h)
        assert region.passed and region.copies_outside, (n, h)
        if h <= 10.0:
            inside, phi_min, offset, *_ = _sampled_sector(n, h)
            *_, falls, unimodal, turn = _sampled_sector(n, h, 1000)
            assert falls and unimodal and turn <= 2 and offset <= 2
            assert inside and phi_min > 0.0


@pytest.mark.parametrize("minor", [1, 2])
def test_sign_chains_catch_a_flipped_minor(monkeypatch, minor):
    kernel = an.surface_partials

    def flipped(n, u, theta):
        out = list(kernel(n, u, theta))
        out[minor] = -out[minor]
        return tuple(out)

    monkeypatch.setattr(an, "surface_partials", flipped)
    assert not an._slice_facts(4)[0]
    assert not an.region_Dh_certificate(4, 1.0).passed


@pytest.mark.parametrize("term", ["dx0_du", "J01", "J02"])
def test_slope_terms_off_by_1e_9_fail_both_certificates(monkeypatch, term):
    # the slice facts hold the kernel's slopes J0k / (dx0/du) to their reduced
    # form at 1e-12, so a relative 1e-9 in any one of the three terms shows at
    # every order the certificates accept
    kernel = an.surface_partials

    def scaled(n, u, theta):
        f_u, j01, j02 = kernel(n, u, theta)
        if term == "dx0_du":
            return f_u * np.array([1.0 + 1e-9, 1.0, 1.0]), j01, j02
        if term == "J01":
            return f_u, j01 * (1.0 + 1e-9), j02
        return f_u, j01, j02 * (1.0 + 1e-9)

    monkeypatch.setattr(an, "surface_partials", scaled)
    for n in range(3, 66):
        assert not an.region_Dh_certificate(n, 1.0).passed, n
        assert not an._slice_facts(n)[0], n


@pytest.mark.parametrize("n", range(3, 66))
def test_slice_verdicts_do_not_depend_on_h(n):
    # h enters the verdicts only through phi_at_theta0; the slope facts take
    # no height, so they hold for tiny and tall arcs alike
    passed, *gaps = an._slice_facts(n)
    assert passed and max(gaps) < 1e-15, n
    for h in (1e-8, 0.01, 1.0, 1e4):
        region = an.region_Dh_certificate(n, h)
        assert region.passed and region.phi_at_theta0 > 0.0, (n, h)


@pytest.mark.xfail(raises=ext.BoundaryProximityError, strict=True,
                   reason="from n = 7 on, the h = 1e12 contour point at theta0 lies "
                          "sin(theta0) / (n^2 h) < 1e-14 above the domain edge")
def test_region_certificate_at_h_1e12():
    for n in range(3, 66):
        assert an.region_Dh_certificate(n, 1e12).passed, n


def test_region_certificate_evaluates_one_contour_point(monkeypatch):
    # a per-height sampled arc would call contour_u again, or on an array
    calls = []
    contour = an.contour_u

    def spy(n, h, theta):
        calls.append((n, h, theta))
        return contour(n, h, theta)

    monkeypatch.setattr(an, "contour_u", spy)
    for n, h in ((3, 0.01), (8, 1.0), (65, 1e4)):
        calls.clear()
        assert an.region_Dh_certificate(n, h).passed
        assert calls == [(n, h, (n - 2) * math.pi / ((n - 1) * n))], (n, h)


def test_upsilon_matches_chebyshev_quotient_oracle():
    # (1 + U_{2n-2} + 2 U_{n-1}) / (2 U_{n-1}) reduces to 1 + T_{n-1}, which
    # rises on u >= cos(theta0) from 2 sin^2(pi/n); worst gap measured 3.3e-13
    for n in range(3, 20):
        lo = math.cos((n - 2) * math.pi / ((n - 1) * n))
        u = lo + (1e3 - lo) * np.geomspace(1e-9, 1.0, 4000)
        want = (1.0 + eval_U(2 * n - 2, u) + 2.0 * eval_U(n - 1, u)) / (2.0 * eval_U(n - 1, u))
        got = an.upsilon(n, u)
        assert np.max(np.abs(got - want) / want) < 1e-12, n
        assert np.all(np.diff(got) > 0.0), n
        assert abs(an.upsilon(n, lo) - 2.0 * math.sin(math.pi / n) ** 2) < 1e-14, n
    assert an.region_Dh_certificate(5, 1.0).upsilon_min == an.upsilon(5, math.cos(3 * math.pi / 20))


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


@pytest.mark.parametrize("n", [66, 129])
def test_orders_past_the_sign_chains_are_rejected_at_entry(monkeypatch, n):
    # surface_partials evaluates U_{2n-2}, so the chains reach n = 65; past
    # it the error names the order, not a degree the caller never passed
    def never(*args):
        raise AssertionError("evaluated a slice")

    for name in ("level_curve", "contour_u", "surface_partials"):
        monkeypatch.setattr(an, name, never)
    message = f"^order n={n} is past 65, the largest supported order$"
    for certify in (lambda: an.embeddedness_scan(n, [0.0, 1.0], samples=64),
                    lambda: an.region_Dh_certificate(n, 1.0)):
        with pytest.raises(ValueError, match=message):
            certify()
    monkeypatch.undo()
    assert an.embeddedness_scan(65, [1.0], samples=64).passed
    # the h = 0 rays keep their range
    assert an.embeddedness_scan(66, [0.0], samples=64).passed


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
        assert rec.cross_intersections == int(np.count_nonzero(d < geo.DEFAULT_TOLERANCE))
        assert rec.min_cross_distance == float(d.min())


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("samples", [256, 2048])
def test_embeddedness_half_scan_matches_every_copy(n, samples):
    # copy 0 walks against copies 1..n/2 only; the scan over all n - 1 copies
    # meets the same count (0 here) and the same minimum, bit for bit
    heights = [0.01, -0.01, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0]
    report = an.embeddedness_scan(n, heights, samples=samples, tol=1e-9)
    for h, rec in zip(heights, report.records):
        xy = np.stack([c.points[:, 1:3] for c in an.level_curve(n, h, samples)])
        hits, distance = geo.polyline_set_scan(xy[:1], xy[1:], 1e-9)
        assert (rec.cross_intersections, rec.min_cross_distance) == (hits, distance), (n, h)


def test_embeddedness_counts_a_crossing_once_per_rotation_class(monkeypatch):
    # copy 0 is the chord x = -1, |y| <= 2 and copy k its turn by 2 pi k/6:
    # chords 0 and k cross at |y| = tan(pi k/6) when that is below 2, so the
    # classes {1, 5} and {2, 4} cross and {3} does not; the scan counts each
    # class's crossing once
    n = 6
    y = np.linspace(-2.0, 2.0, 257)
    chord = np.stack([np.zeros_like(y), -np.ones_like(y), y], axis=1)
    turns = [np.array([[1, 0, 0], [0, math.cos(a), math.sin(a)], [0, -math.sin(a), math.cos(a)]])
             for a in 2 * math.pi * np.arange(n) / n]
    copies = [types.SimpleNamespace(points=chord @ turn) for turn in turns]
    monkeypatch.setattr(an, "level_curve", lambda n, h, samples: copies)
    rec, = an.embeddedness_scan(n, [0.5], samples=257).records
    assert rec.self_intersections == 0 and rec.sector_disjoint
    assert rec.cross_intersections == 2 and rec.min_cross_distance == 0.0
    assert not rec.passed
    xy = np.stack([c.points[:, 1:3] for c in copies])
    assert [geo.polyline_set_scan(xy[:1], xy[k:k + 1])[0] for k in range(1, n)] == [1, 1, 0, 1, 1]


def test_mirrored_slices_scan_like_their_positive_twins():
    # the -h slice is the h slice with x negated exactly, so every box gap
    # and segment distance of its scan is bitwise the same
    for n in range(3, 9):
        heights = (0.01, 0.1, 1.0, 10.0)
        records = an.embeddedness_scan(n, [*heights, *(-h for h in heights)]).records
        for h, twin, mirror in zip(heights, records, records[len(heights):]):
            assert (twin.h, mirror.h) == (h, -h)
            moved = dataclasses.replace(mirror, h=h)
            assert dataclasses.asdict(moved) == dataclasses.asdict(twin), (n, h)


def test_embeddedness_scan_certifies_large_height():
    # the sampled sector test used to fail here on tip rounding
    assert an.embeddedness_scan(8, [1e3]).passed


# SHA-256 of each record dump of the embed benchmark's slices: n = 3..8 with
# |h| cycling over 0.01, 0.1, 1, 10, both signs, and h = 0
EMBED_RECORD_DIGESTS = {
    (3, 0.01): "b72e1c151917b6aa00a081546119e6b2a8c077be8dcdc18aecb631c164ca39cb",
    (3, -0.01): "53e193493e41fcc5b825c53178c4ccbfc142c6dc59101bc8baabba60d6b1c125",
    (3, 0.0): "72d4478d65dbc98653d3ce128dfcbccd47821a61f4b45852ec2a24c83ad69799",
    (4, 0.1): "1695edf4e9750e5d7268bf27fe65d890ab744c987c8a23873d030fa5507c6f77",
    (4, -0.1): "fc696d9d78b2dc90f41069e7cbca5623a942c43ca6307ddfb887823c2583cc64",
    (4, 0.0): "f53e7b15addf794681aab7130ff060b767d66899cc10fef1cf1ea007737009bc",
    (5, 1.0): "8e6762d9a6c06fbcbd9a01c85d95cf2755867a7403169ab5e5d595b0dcefd64f",
    (5, -1.0): "16ca96c785edd1bfc6996fe271f9aa94ca663edf41174aab0ed995aa250d01d7",
    (5, 0.0): "41d8eb0b9c9df0d9fc3f607206ba3cc1a212c4a58ff72a04f64ce3bf21d0d983",
    (6, 10.0): "de476a81e393b3f06d4b193bd3633e04421f0c16d3117ced91eb018efe1ad934",
    (6, -10.0): "5c28826f9d56d0d04c342cfd62139d06bff8b04ff5989b710c9c6a761bf1b0b5",
    (6, 0.0): "8128fd9f02db970c04898a9a6f4b11cd1129ca142517638281c14e7ee81c2252",
    (7, 0.01): "54e7be501715636d536481eeeee7d440d2de9a2a8613cb436d4bc8a224c1acfc",
    (7, -0.01): "ac235db263d681dac3bd1de0f5314a477d4f4ba667ebe983d444571b97a8b0c0",
    (7, 0.0): "a632ac72c994933a55a331bb2fc44e94f31569c78968125d1ad1369f35c241df",
    (8, 0.1): "3b3f4644781e80e1895feaa82f19ce736dc7fef24503b9ece386e20515fe9461",
    (8, -0.1): "aab1b8f294b5e94a54469137db3d571269874ce89133a0b5b4db77b53b53145c",
    (8, 0.0): "a7ae72cf8999efb7c8f92225584d0e171073b0b9bf8e854282148d2bdf1d46ab",
}


@pytest.mark.parametrize("n, h", list(EMBED_RECORD_DIGESTS))
def test_embed_slice_records_are_pinned(n, h):
    report = an.embeddedness_scan(n, [h], samples=2048, tol=1e-9)
    dump = json.dumps(report.as_dict(), sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == EMBED_RECORD_DIGESTS[n, h]


def test_embed_slices_skip_the_self_walk(monkeypatch):
    # every nonzero arc of the embed slices is x-monotone with steps far above
    # tol, so its self scan needs no walk; the (5, 1e4) arc, whose sample 0
    # is rounded off the slice (x runs back there), walks and meets its hit
    self_walks = []
    walk = geo._walk

    def spy(a, b, tol, nearest, **kw):
        if b is None and not nearest:
            self_walks.append(a.shape)
        return walk(a, b, tol, nearest, **kw)

    monkeypatch.setattr(geo, "_walk", spy)
    for n, h in EMBED_RECORD_DIGESTS:
        assert an.embeddedness_scan(n, [h]).passed
    assert self_walks == []
    record, = an.embeddedness_scan(5, [1e4]).records
    assert self_walks == [(1, 2048, 2)]
    assert record.self_intersections == 1 and not record.passed


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
    # the error names the first fold-proximate point and the guard
    u = np.array([2.0, 1.0 + 1e-7, 1.0 - 1e-7])
    theta = np.array([0.4, 1.0, 1.0])
    with pytest.raises(an.FoldProximityError) as info:
        an.mean_curvature_residual(3, u, theta)
    err = info.value
    assert (err.n, err.u, err.theta, err.guard) == (3, 1.0 + 1e-7, 1.0, 1e-6)
    assert err.guard == an.FOLD_DET_GUARD
    assert f"({1.0 + 1e-7!r}, 1.0)" in str(err) and "1e-06" in str(err)


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
