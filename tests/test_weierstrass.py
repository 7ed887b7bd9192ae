"""Closed-form lift and polar surface against the quadrature oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zmcnoid import weierstrass as ws
from zmcnoid.quadrature import integrate_polyline
from zmcnoid.extension import reflection_matrix, rotation_matrix


def sample_off_puncture(rng, n, count, lo=0.05, hi=0.95):
    """Random points in an annulus, rejecting the puncture neighborhoods."""
    out = []
    while len(out) < count:
        r = rng.uniform(lo, hi, 4 * count)
        t = rng.uniform(0.0, 2 * math.pi, 4 * count)
        z = r * np.exp(1j * t)
        keep = np.abs(z ** n - 1.0) > 1e-2
        out.extend(z[keep][: count - len(out)])
    return np.array(out)


# ---------------------------------------------------------------------------
# construction and alpha
# ---------------------------------------------------------------------------

def test_data_rejects_small_n():
    with pytest.raises(ValueError):
        ws.JorgeMeeksData(1)
    with pytest.raises(ValueError):
        ws.JorgeMeeksData(0)


def test_punctures_are_roots_of_unity():
    for n in range(2, 9):
        data = ws.JorgeMeeksData(n)
        assert np.max(np.abs(data.punctures ** n - 1.0)) < 1e-14


def test_alpha_n2_at_origin():
    a = ws.alpha(ws.JorgeMeeksData(2), 0j)
    assert abs(a[0]) < 1e-15
    assert abs(a[1] - 1j) < 1e-15
    assert abs(a[2] + 1.0) < 1e-15


def test_alpha_rejects_punctures():
    data = ws.JorgeMeeksData(3)
    with pytest.raises(ws.PunctureError):
        ws.alpha(data, 1.0 + 0j)
    with pytest.raises(ws.PunctureError):
        ws.alpha(data, data.punctures[1] * (1 + 1e-14))


def test_alpha_null_form():
    rng = np.random.default_rng(201)
    for n in range(2, 9):
        z = sample_off_puncture(rng, n, 200)
        a = ws.alpha(ws.JorgeMeeksData(n), z)
        form = -a[0] ** 2 + a[1] ** 2 + a[2] ** 2
        scale = (np.abs(a) ** 2).sum(axis=0)
        assert np.max(np.abs(form) / scale) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    r=st.floats(0.05, 0.95),
    t=st.floats(0.0, 2 * math.pi),
)
def test_alpha_null_form_property(n, r, t):
    z = r * complex(math.cos(t), math.sin(t))
    if abs(z ** n - 1.0) < 1e-2:
        return
    a = ws.alpha(ws.JorgeMeeksData(n), z)
    scale = float((np.abs(a) ** 2).sum())
    assert abs(-a[0] ** 2 + a[1] ** 2 + a[2] ** 2) < 1e-12 * scale


# ---------------------------------------------------------------------------
# closed-form lift vs quadrature
# ---------------------------------------------------------------------------

def test_lift_base_point_normalization():
    for n in range(2, 9):
        F = ws.lift_closed_form(ws.JorgeMeeksData(n), 0j)
        assert max(abs(F.X0.real), abs(F.X1.real), abs(F.X2.real)) < 1e-13


def test_lift_n2_matches_polar_on_real_axis():
    data = ws.JorgeMeeksData(2)
    F = ws.lift_closed_form(data, 0.5 + 0j)
    p = ws.f_polar(data, 0.5, 0.0)
    assert abs(F.X0.real - p[0]) < 1e-12
    assert abs(F.X1.real - p[1]) < 1e-12
    assert abs(F.X2.real - p[2]) < 1e-12


def test_lift_matches_quadrature_single_point():
    data = ws.JorgeMeeksData(3)
    z = 0.3 + 0.2j
    F = ws.lift_closed_form(data, z)
    Q = ws.integrate_lift_numeric(data, z)
    assert abs(F.X0.real - Q.X0.real) < 1e-9
    assert abs(F.X1.real - Q.X1.real) < 1e-9
    assert abs(F.X2.real - Q.X2.real) < 1e-9


def test_lift_matches_quadrature_sampled():
    rng = np.random.default_rng(202)
    for n in (2, 3, 5, 8):
        data = ws.JorgeMeeksData(n)
        pts = sample_off_puncture(rng, n, 40)
        # straight segment from 0 must clear the punctures for the oracle
        pts = [z for z in pts
               if min(ws._segment_puncture_distance(0j, complex(z), complex(p))
                      for p in data.punctures) > 0.06][:25]
        assert len(pts) >= 10
        for z in pts:
            F = ws.lift_closed_form(data, z)
            Q = ws.integrate_lift_numeric(data, z)
            err = max(abs(F.X0.real - Q.X0.real),
                      abs(F.X1.real - Q.X1.real),
                      abs(F.X2.real - Q.X2.real))
            assert err < 1e-8, (n, z, err)


def test_quadrature_empty_path_is_zero():
    Q = ws.integrate_lift_numeric(ws.JorgeMeeksData(2), 0j)
    assert Q.X0 == 0 and Q.X1 == 0 and Q.X2 == 0


def test_quadrature_real_parts_path_independent():
    data = ws.JorgeMeeksData(3)
    direct = ws.integrate_lift_numeric(data, 0.5 + 0j)
    detour = integrate_polyline(lambda w: ws.alpha(data, w), [0, 0.3j, 0.5])
    assert abs(direct.X0.real - detour[0].real) < 1e-9
    assert abs(direct.X1.real - detour[1].real) < 1e-9
    assert abs(direct.X2.real - detour[2].real) < 1e-9


def test_quadrature_rejects_path_through_puncture():
    data = ws.JorgeMeeksData(3)
    with pytest.raises(ws.PathError):
        ws.integrate_lift_numeric(data, 2.0 + 0j)


def test_batched_lift_matches_pointwise_and_checks_every_path():
    data = ws.JorgeMeeksData(4)
    z = np.array([0.3 + 0.2j, 0j, -0.4 + 0.1j])
    batch = ws.integrate_lift_numeric(data, z)
    for k, zk in enumerate(z):
        single = ws.integrate_lift_numeric(data, zk)
        assert [f[k] for f in batch] == list(single)
    assert ws.integrate_lift_numeric(data, np.array([0j])).X1.tolist() == [0j]
    with pytest.raises(ws.PathError, match=r"\[0j, \(1\.1\+0\.04j\)\]"):
        ws.integrate_lift_numeric(data, np.array([0.5 + 0j, 1.1 + 0.04j]))


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

def test_period_residual_examples():
    loops = (ws.loop_integral(ws.JorgeMeeksData(2), 0, radius=0.3),
             ws.loop_integral(ws.JorgeMeeksData(5), 3, radius=0.2))
    for loop in loops:
        assert np.max(np.abs(loop.real)) < 1e-8


def test_period_residual_all_punctures():
    for n in (2, 3, 4, 6):
        data = ws.JorgeMeeksData(n)
        for j in range(n):
            assert ws.period_residual(data, j) < 1e-8, (n, j)


def end_flux(n):
    # the flux Im of the loop integral about end j, column j: 4 pi c (0, sin, cos)(theta_j)
    # with c = (n-1)/n^2 the log coefficient of the closed form and theta_j = 2 pi j/n
    theta = 2.0 * math.pi * np.arange(n) / n
    return 4.0 * math.pi * (n - 1) / n ** 2 * np.stack([0.0 * theta, np.sin(theta), np.cos(theta)])


def test_loop_integral_imaginary_part_pinned():
    # residue calculus: around zeta^j the first component integrates to 0
    # exactly, while the second has a double pole whose residue is
    # i (n-1)/n^2 (conj(w) - w), giving a purely imaginary loop value
    n, j = 3, 1
    loop = ws.loop_integral(ws.JorgeMeeksData(n), j, radius=0.1)
    expected = 4 * math.pi * (n - 1) / n ** 2 * math.sin(2 * math.pi * j / n)
    assert np.max(np.abs(loop.real)) < 1e-8
    assert abs(loop[0]) < 1e-10
    assert abs(loop[1].imag - expected) < 1e-8
    assert abs(loop[1].imag - 2.4183991523122903) < 1e-8
    # and the third's residue is (n-1)/n^2 (conj(w) + w): Im is the flux of end j
    assert np.max(np.abs(loop.imag - end_flux(n)[:, j])) < 1e-8


@pytest.mark.parametrize("n", range(2, 9))
def test_end_fluxes_follow_the_log_coefficient_and_balance(n):
    # measured at most 1.1e-15 off the formula, and 8.9e-16 off balance
    flux = ws.loop_integral(ws.JorgeMeeksData(n), np.arange(n)).imag
    assert np.max(np.abs(flux - end_flux(n))) < 1e-14
    assert np.max(np.abs(flux.sum(axis=1))) < 1e-14


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_jumps_by_the_flux_across_each_log_cut(n):
    # Im F jumps by the flux where the principal log of z - zeta_j jumps,
    # along Im z = Im zeta_j left of zeta_j.  Another puncture's cut on that
    # line passes both sides of zeta_j or neither, so the jump just left of
    # zeta_j minus the jump just right of it is puncture j's alone (measured
    # within 5.1e-13 of the loop integral)
    data = ws.JorgeMeeksData(n)
    eps = 0.5 * math.sin(math.pi / n)
    z = data.punctures[:, None] + np.array([-eps, eps])
    above, below = (np.stack(ws.lift_closed_form(data, z + d)).imag for d in (1e-13j, -1e-13j))
    jump = above - below
    loops = ws.loop_integral(data, np.arange(n))
    assert np.max(np.abs(jump[..., 0] - jump[..., 1] - loops.imag)) < 5e-12


def test_loop_integral_rejects_a_rule_that_has_not_converged(monkeypatch):
    # for alpha the drift falls like 2^-N inside the allowed radius, so it
    # never fires there; a kinked integrand converges only like N^-2
    monkeypatch.setattr(ws, "alpha", lambda data, z: np.stack([np.abs(z.imag - 0.1)] * 3))
    with pytest.raises(ValueError, match=r"^trapezoid refinement moved the loop integral "
                                         r"by \S+; increase samples$"):
        ws.loop_integral(ws.JorgeMeeksData(3), 0)


def test_batched_loop_integral_keeps_the_guard_for_each_puncture(monkeypatch):
    # only puncture 0's ring crosses the kink at Im z = 0.1
    monkeypatch.setattr(ws, "alpha", lambda data, z: np.stack([np.abs(z.imag - 0.1)] * 3))
    data = ws.JorgeMeeksData(3)
    ws.loop_integral(data, np.array([1, 2]))
    for js in (np.arange(3), np.array([1, 2, 0])):
        with pytest.raises(ValueError, match=r"^trapezoid refinement moved the loop integral "
                                             r"by \S+; increase samples$"):
            ws.loop_integral(data, js)


def test_batched_loops_give_the_bits_of_single_calls():
    rng = np.random.default_rng(208)
    for n in range(2, 9):
        data = ws.JorgeMeeksData(n)
        loops = ws.loop_integral(data, np.arange(n))
        residuals = ws.period_residual(data, np.arange(n))
        assert loops.shape == (3, n) and residuals.shape == (n,)
        for j in range(n):
            assert np.array_equal(loops[:, j], ws.loop_integral(data, j)), (n, j)
            assert residuals[j] == ws.period_residual(data, j), (n, j)
        # the rings rely on alpha giving a point the same bits alone or in an array
        z = np.concatenate([sample_off_puncture(rng, n, 10), 1.0 / sample_off_puncture(rng, n, 10)])
        a = ws.alpha(data, z.reshape(4, 5)).reshape(3, -1)
        for k in range(len(z)):
            assert a[:, k].tolist() == ws.alpha(data, complex(z[k])).tolist(), (n, k)


def test_loop_integral_rejects_bad_index_arrays():
    data = ws.JorgeMeeksData(3)
    with pytest.raises(ValueError, match=r"^puncture index 3 out of range for n=3$"):
        ws.loop_integral(data, np.array([0, 3]))
    for js in (np.array([0.0, 1.0]), np.zeros((2, 2), dtype=int)):
        with pytest.raises(ValueError, match="1-D integer array"):
            ws.loop_integral(data, js)


def test_loop_integral_validation():
    data = ws.JorgeMeeksData(3)
    with pytest.raises(ValueError):
        ws.loop_integral(data, 3)
    with pytest.raises(ValueError):
        ws.loop_integral(data, 0, radius=math.sin(math.pi / 3) + 0.01)
    with pytest.raises(ValueError):
        ws.loop_integral(data, 0, samples=32)


# ---------------------------------------------------------------------------
# polar form
# ---------------------------------------------------------------------------

def test_polar_fold_identity():
    rng = np.random.default_rng(203)
    for n in (2, 3, 5, 8):
        data = ws.JorgeMeeksData(n)
        r = rng.uniform(0.1, 0.9, 100)
        t = rng.uniform(0.0, 2 * math.pi, 100)
        keep = (r ** (2 * n) - 2 * r ** n * np.cos(n * t) + 1.0) > 1e-3
        inner = ws.f_polar(data, r[keep], t[keep])
        outer = ws.f_polar(data, 1.0 / r[keep], t[keep])
        assert np.max(np.abs(inner - outer)) < 1e-11


def test_polar_matches_closed_form_lift():
    data = ws.JorgeMeeksData(3)
    p = ws.f_polar(data, 0.5, 0.7)
    F = ws.lift_closed_form(data, 0.5 * complex(math.cos(0.7), math.sin(0.7)))
    assert abs(p[0] - F.X0.real) < 1e-11
    assert abs(p[1] - F.X1.real) < 1e-11
    assert abs(p[2] - F.X2.real) < 1e-11


def test_polar_n2_graph_relation():
    p = ws.f_polar(ws.JorgeMeeksData(2), 0.5, math.pi / 3)
    assert abs(p[0] - p[1] * math.tanh(2 * p[2])) < 1e-11


def test_polar_symmetries():
    rng = np.random.default_rng(204)
    S = reflection_matrix()
    for n in (2, 3, 4, 7):
        data = ws.JorgeMeeksData(n)
        R = rotation_matrix(n)
        r = rng.uniform(0.1, 0.9, 50)
        t = rng.uniform(0.0, 2 * math.pi, 50)
        keep = (r ** (2 * n) - 2 * r ** n * np.cos(n * t) + 1.0) > 1e-3
        base = ws.f_polar(data, r[keep], t[keep])
        mirrored = ws.f_polar(data, r[keep], -t[keep])
        rotated = ws.f_polar(data, r[keep], t[keep] + 2 * math.pi / n)
        assert np.max(np.abs(mirrored - base @ S.T)) < 1e-11
        assert np.max(np.abs(rotated - base @ R.T)) < 1e-11


def test_polar_puncture_guard():
    with pytest.raises(ws.PunctureError):
        ws.f_polar(ws.JorgeMeeksData(3), 1.0, 0.0)


def test_puncture_errors_name_the_point_and_guard():
    data = ws.JorgeMeeksData(3)
    z = np.array([0.5 + 0j, data.punctures[1] * (1 + 1e-14), 1.0 + 0j])
    with pytest.raises(ws.PunctureError) as err:
        ws.alpha(data, z)
    assert (err.value.n, err.value.z, err.value.guard) == (3, complex(z[1]), ws.PUNCTURE_GUARD)
    assert "n=3" in str(err.value) and repr(complex(z[1])) in str(err.value)
    with pytest.raises(ws.PunctureError) as err:
        ws.f_polar(data, np.array([0.5, 1.0]), np.array([0.0, 2 * math.pi / 3]))
    assert (err.value.n, err.value.guard) == (3, ws.PUNCTURE_GUARD)
    assert abs(err.value.z - data.punctures[1]) < 1e-15
    assert repr(err.value.z) in str(err.value)


def test_arrays_give_the_bits_of_scalar_calls():
    rng = np.random.default_rng(206)
    for n in range(2, 18):
        data = ws.JorgeMeeksData(n)
        r = rng.uniform(0.05, 3.0, 40)
        t = rng.uniform(0.0, 2 * math.pi, 40)
        keep = np.abs((r * np.exp(1j * t)) ** n - 1.0) > 1e-3
        r, t = r[keep].reshape(-1, 1), t[keep].reshape(-1, 1)
        z = r * np.exp(1j * t)
        lift = ws.lift_closed_form(data, z)
        polar = ws.f_polar(data, r, t)
        assert lift.X0.shape == z.shape and polar.shape == z.shape + (3,)
        for k in range(len(z)):
            single = ws.lift_closed_form(data, complex(z[k, 0]))
            assert [complex(X[k, 0]) for X in lift] == list(single), (n, k)
            assert polar[k, 0].tolist() == list(ws.f_polar(data, float(r[k, 0]), float(t[k, 0]))), (n, k)


def test_polar_matches_mpmath_around_the_punctures_on_the_fold():
    # within 1e-6..1e-2 of a puncture, on and around |z| = 1, where the
    # surface changes type; relative to the largest component
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50

    def exact(n, r, t):
        z = mp.mpf(r) * mp.expj(mp.mpf(t))
        zn = z ** n - 1
        c = mp.mpf(n - 1) / n ** 2
        logs = [mp.log(z - mp.expj(2 * mp.pi * j / n)) for j in range(n)]
        x1 = mp.im(z * (z ** (n - 2) + 1) / (n * zn)) + c * sum(
            2 * mp.sin(2 * mp.pi * j / n) * mp.re(L) for j, L in enumerate(logs))
        x2 = mp.re(-z * (z ** (n - 2) - 1) / (n * zn)) + c * sum(
            2 * mp.cos(2 * mp.pi * j / n) * mp.re(L) for j, L in enumerate(logs))
        return np.array([float(mp.re(2j / (n * zn))), float(x1), float(x2)])

    offsets = [1e-6, -3e-5, 1e-4, -1e-3, 1e-2]
    for n in (2, 3, 5, 8):
        data = ws.JorgeMeeksData(n)
        worst = 0.0
        for dr in [0.0] + offsets + [-d for d in offsets]:
            for dt in offsets + [-d for d in offsets]:
                for j in (0, n - 1):
                    r, t = 1.0 + dr, 2 * math.pi * j / n + dt
                    want = exact(n, r, t)
                    got = np.array(ws.f_polar(data, r, t))
                    worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
        assert worst < 1e-9, (n, worst)


def test_alpha_matches_mpmath_in_both_annuli():
    # alpha's definition at 50 digits, relative to the largest component, at
    # the float inputs; inside and outside the unit circle with |z^n - 1| > 1e-2
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50

    def error(n, z, got):
        w = mp.mpc(z.real, z.imag)
        den, g = (w ** n - 1) ** 2, w ** (n - 1)
        want = (-2j * g / den, 1j * (1 + g * g) / den, -(1 - g * g) / den)
        err = max(abs(mp.mpc(a) - b) for a, b in zip(got, want)) / max(abs(b) for b in want)
        return float(err), float(abs(w ** n - 1))

    rng = np.random.default_rng(209)
    for n in (2, 3, 5, 8):
        data = ws.JorgeMeeksData(n)
        inner = sample_off_puncture(rng, n, 300)
        for z in (inner, 1.0 / inner):
            worst = max(error(n, x, a)[0] for x, a in zip(z, ws.alpha(data, z).T))
            assert worst < 2e-15, (n, worst)
        # near a puncture the rounding of z^n - 1 itself dominates, so the
        # error grows like 1/|z^n - 1|
        d = 10.0 ** rng.uniform(-11.0, -2.0, 50) * np.exp(2j * math.pi * rng.random(50)) / n
        z = data.punctures[rng.integers(0, n, 50)] * (1.0 + d)
        worst = max(err * gap for err, gap in (error(n, x, a) for x, a in zip(z, ws.alpha(data, z).T)))
        assert worst < 4e-15, (n, worst)


def test_alpha_far_out_matches_mpmath_without_warnings():
    # at n = 3 the components are about 1/z^2 and 2/z^4; alpha stays finite
    # until z^n - 1 itself leaves float64
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    data = ws.JorgeMeeksData(3)
    tiny = np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (1e51, 1e60, 1e75, 1e100):
            for z in (complex(r), r * complex(math.cos(0.3), math.sin(0.3))):
                w = mp.mpc(z.real, z.imag)
                den = (w ** 3 - 1) ** 2
                want = (-2j * w ** 2 / den, 1j * (1 + w ** 4) / den, -(1 - w ** 4) / den)
                for a, b in zip(ws.alpha(data, z), want):
                    assert np.isfinite(a), (z, a)
                    if abs(b) >= tiny:
                        assert abs(mp.mpc(a) - b) <= 1e-14 * abs(b), (z, a, b)
                    else:  # underflows, like a0 at 1e100
                        assert abs(a) < tiny, (z, a, b)
        with pytest.raises(ValueError, match=r"^n=3: z = \(1e\+120\+0j\) has z\^n - 1 beyond float64$"):
            ws.alpha(data, 1e120)


def test_alpha_rejects_non_finite_points():
    data = ws.JorgeMeeksData(3)
    for z in (math.nan, complex(0.2, math.inf)):
        with pytest.raises(ValueError, match="not finite"):
            ws.alpha(data, z)
    with pytest.raises(ValueError, match=r"z = \(nan\+0j\) is not finite"):
        ws.alpha(data, np.array([0.5, math.nan, 0.3]))


def test_lift_rejects_non_finite_points():
    data = ws.JorgeMeeksData(3)
    for z in (math.nan, complex(math.inf), np.array([0.1j, complex(-math.inf, 0.0)])):
        with pytest.raises(ValueError, match="not finite"):
            ws.lift_closed_form(data, z)


def test_polar_rejects_non_finite_points():
    data = ws.JorgeMeeksData(3)
    for r, t in ((math.inf, 0.3), (0.5, math.inf), (math.nan, 0.3), (np.array([0.5, 0.5]), np.array([0.3, -math.inf]))):
        with pytest.raises(ValueError, match="not finite"):
            ws.f_polar(data, r, t)


def test_overflowing_powers_are_rejected_before_any_warning():
    # the rational parts need z^n - 1; where that leaves float64 the point is
    # named instead of returning NaN fields after RuntimeWarnings
    data = ws.JorgeMeeksData(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^n=3: z = \(.+\) has z\^n - 1 beyond float64$"):
            ws.f_polar(data, 1e200, 0.3)
        with pytest.raises(ValueError, match=r"^n=3: z = \(1e\+120\+0j\) has z\^n - 1 beyond"):
            ws.lift_closed_form(data, 1e120)
        with pytest.raises(ValueError, match=r"z = \(1e\+120\+0j\)"):
            ws.alpha(data, np.array([0.5, 1e120]))
        # alpha needs only z^(n-1) and z^n - 1, so it is finite wherever z^n - 1 is
        for z in (1e100, 1e60):
            assert np.all(np.isfinite(ws.alpha(data, np.array([0.5, z]))))
        z = np.array([0.5 + 0.2j, 1e50])
        q = 1.0 / (z * z * z - 1.0)
        G = z * z * q
        assert np.array_equal(ws.alpha(data, z), np.stack(
            [-2j * G * q, 1j * (q * q + G * G), G * G - q * q]))
        # still finite here, with pinned bits
        assert ws.f_polar(data, 1e60, 0.3) == ws.LorentzVec3(
            5.222179397516556e-181, 2.842170943040401e-14, -1.4210854715202004e-14)


def test_quadrature_rejects_non_finite_points_before_the_path():
    data = ws.JorgeMeeksData(3)
    for z in (math.nan, np.array([0.5, complex(math.inf, 0.0)])):
        # the end itself is named, not a quadrature node on its segment
        with pytest.raises(ValueError, match=r"^z = \((nan|inf)\+0j\) is not finite$") as err:
            ws.integrate_lift_numeric(data, z)
        assert not isinstance(err.value, ws.PathError)
    # a finite end near a puncture is still the path's to reject
    with pytest.raises(ws.PathError):
        ws.integrate_lift_numeric(data, data.punctures[1] * (1 - 1e-13))


def test_polar_scalar_returns_named_tuple():
    p = ws.f_polar(ws.JorgeMeeksData(2), 0.5, 0.3)
    assert isinstance(p, ws.LorentzVec3)
    arr = ws.f_polar(ws.JorgeMeeksData(2), np.array([0.5, 0.6]), 0.3)
    assert arr.shape == (2, 3)


# ---------------------------------------------------------------------------
# companion Euclidean minimal surface (Re X1, Re X2, -Im X0) of the lift
# ---------------------------------------------------------------------------

def test_companion_base_value():
    # X0(0) = 2i/(n * (0 - 1)) makes the height exactly 2/n; the horizontal
    # components vanish because the base-point logs are purely imaginary
    for n in (2, 3, 5):
        F = ws.lift_closed_form(ws.JorgeMeeksData(n), 0j)
        assert abs(F.X1.real) < 1e-13
        assert abs(F.X2.real) < 1e-13
        assert abs(-F.X0.imag - 2.0 / n) < 1e-13


def test_companion_regular_on_fold_circle():
    F = ws.lift_closed_form(ws.JorgeMeeksData(3), np.exp(0.5j))
    e = (F.X1.real, F.X2.real, -F.X0.imag)
    assert all(math.isfinite(c) for c in e)
    assert np.linalg.norm(e) < 10.0


def test_companion_grows_near_end():
    # simple pole of the lift at the end: norm ~ 2/(n^2 d) at distance d,
    # so the 10 threshold is reached around d = 0.02
    data = ws.JorgeMeeksData(3)
    lifts = [ws.lift_closed_form(data, s * data.punctures[1]) for s in (0.9, 0.95, 0.98)]
    norms = [np.linalg.norm((F.X1.real, F.X2.real, -F.X0.imag)) for F in lifts]
    assert norms[0] < norms[1] < norms[2]
    assert norms[2] > 10.0


# ---------------------------------------------------------------------------
# Lorentz helpers
# ---------------------------------------------------------------------------

def test_lorentz_inner_signature():
    assert ws.lorentz_inner((1, 0, 0), (1, 0, 0)) == -1.0
    assert ws.lorentz_inner((0, 1, 0), (0, 1, 0)) == 1.0
    assert ws.lorentz_inner((0, 0, 1), (0, 0, 1)) == 1.0
    assert ws.lorentz_inner((1, 1, 0), (1, 1, 0)) == 0.0


def test_lorentz_inner_contracts_complex_vectors():
    # the null form of alpha, unconjugated: zero, where the conjugated form
    # -|a0|^2 + |a1|^2 + |a2|^2 is not
    a = ws.alpha(ws.JorgeMeeksData(4), np.array([0.3 + 0.2j, -0.5j, 1.7 + 0.4j]))
    form = ws.lorentz_inner(a.T, a.T)
    assert np.iscomplexobj(form)
    assert np.all(np.abs(form) < 1e-12 * (np.abs(a) ** 2).sum(axis=0))
    assert np.array_equal(form, -a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def test_lorentz_cross_orthogonality():
    rng = np.random.default_rng(205)
    for _ in range(20):
        v = rng.standard_normal(3)
        w = rng.standard_normal(3)
        c = ws.lorentz_cross(v, w)
        assert abs(ws.lorentz_inner(c, v)) < 1e-12
        assert abs(ws.lorentz_inner(c, w)) < 1e-12
