"""Domain membership, analytic extension values, symmetry group."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zmcnoid import extension as ext
from zmcnoid import weierstrass as ws
from zmcnoid.analysis import INTERIOR_LOG_GAP_FLOOR
from zmcnoid.chebyshev import eval_T, psi


def sample_omega(rng, n, count, gap_lo=1e-3, gap_hi=3.0):
    theta = rng.uniform(0.0, 2.0 * math.pi, count)
    gap = np.exp(rng.uniform(math.log(gap_lo), math.log(gap_hi), count))
    return ext.omega_lower_bound(n, theta) + gap, theta


# ---------------------------------------------------------------------------
# domain membership: u > omega_lower_bound(n, theta)
# ---------------------------------------------------------------------------

def test_in_omega_examples():
    assert 1.5 > ext.omega_lower_bound(3, 2.8)
    assert not math.cos(math.pi / 3) - 0.01 > ext.omega_lower_bound(3, math.pi / 3)


def test_in_omega_admits_u_equal_one_off_spokes():
    # the lower edge max_j cos(theta - 2 pi j/n) stays below 1 except on the
    # spokes theta = 2 pi j / n, so u = 1 points belong between spokes
    assert 1.0 > ext.omega_lower_bound(3, math.pi / 3)
    assert not 1.0 > ext.omega_lower_bound(3, 0.0)


def test_omega_lower_bound_equals_the_max_over_every_spoke():
    # the closed form reads two spokes; the oracle stacks all n cosines
    rng = np.random.default_rng(16)
    for n in (2, 3, 5, 8, 17, 64, 129):
        spokes = 2.0 * math.pi * np.arange(n) / n
        theta = np.concatenate([
            2.0 * math.pi * np.arange(768) / 768, rng.uniform(0.0, 2.0 * math.pi, 2000),
            rng.uniform(-20.0, 20.0, 2000), spokes + math.pi / n,
            spokes, np.nextafter(spokes, np.inf), np.nextafter(spokes, -np.inf),
        ])
        stack = np.cos(theta - spokes[:, None]).max(axis=0)
        assert np.array_equal(ext.omega_lower_bound(n, theta), stack), n


def test_omega_lower_bound_scalar_and_array():
    assert abs(ext.omega_lower_bound(2, 0.0) - 1.0) < 1e-15
    vals = ext.omega_lower_bound(4, np.array([0.0, math.pi / 4]))
    assert vals.shape == (2,)
    assert abs(vals[0] - 1.0) < 1e-15
    assert abs(vals[1] - math.cos(math.pi / 4)) < 1e-15


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_infinity_maps_to_origin():
    # u -> inf is the centre z = 0 of the disk, which the surface sends to
    # the origin (Re F(0) = 0)
    theta = np.linspace(0.0, 2.0 * math.pi, 16)
    for n in (2, 3, 7):
        assert np.max(np.abs(ext.eval_extended_grid(n, 1e15, theta))) < 1e-12


def test_height_closed_form_spot_value():
    # T_2(1) = 1 and cos(pi/2) = 0, so the height is sin(pi/2) / (2 * 1)
    v = ext.eval_extended_grid(2, 1.0, math.pi / 4)
    assert abs(v[0] - 0.5) < 1e-14


def test_extension_restricts_to_polar_surface():
    r = 0.6
    u = 0.5 * (r + 1.0 / r)
    v = ext.eval_extended_grid(3, u, 1.1)
    p = ws.f_polar(ws.JorgeMeeksData(3), r, 1.1)
    assert max(abs(v[i] - p[i]) for i in range(3)) < 1e-11


def test_extension_restriction_sampled():
    rng = np.random.default_rng(301)
    for n in (2, 4, 6):
        data = ws.JorgeMeeksData(n)
        r = rng.uniform(0.15, 0.9, 50)
        t = rng.uniform(0.0, 2.0 * math.pi, 50)
        keep = (r ** (2 * n) - 2 * r ** n * np.cos(n * t) + 1.0) > 1e-3
        r, t = r[keep], t[keep]
        got = ext.eval_extended_grid(n, 0.5 * (r + 1.0 / r), t)
        want = ws.f_polar(data, r, t)
        assert np.max(np.abs(got - want)) < 1e-11


def test_out_of_domain_raises():
    with pytest.raises(ext.OutOfDomainError):
        ext.eval_extended_grid(3, 0.4, 0.0)


def test_boundary_guard_raises():
    with pytest.raises(ext.BoundaryProximityError):
        ext.eval_extended_grid(2, 1.0 + 5e-15, 0.0)


def test_guard_errors_name_the_point():
    u = np.array([[2.0, 0.4], [0.3, 3.0]])
    theta = np.array([[0.0, 0.1], [0.2, 0.3]])
    with pytest.raises(ext.OutOfDomainError) as out:
        ext.eval_extended_grid(3, u, theta)
    with pytest.raises(ext.BoundaryProximityError) as near:
        ext.eval_extended_grid(2, 1.0 + 5e-15, 0.0)
    for err, want in ((out.value, (3, 0.4, 0.1, 0.0)),
                      (near.value, (2, 1.0 + 5e-15, 0.0, ext.LOG_FACTOR_GUARD))):
        assert isinstance(err, ValueError)
        assert (err.n, err.u, err.theta, err.guard) == want
        assert f"n={want[0]}: (u, theta) = ({want[1]!r}, {want[2]!r})" in str(err)
        assert f"<= {want[3]:g}" in str(err)


def theta_layouts(thetas, shape):
    # theta as its own row, as a (1, ntheta) row and broadcast to the grid
    return thetas, thetas[None, :], np.broadcast_to(thetas, shape)


@pytest.mark.parametrize("n", [2, 3, 5, 17])
def test_grid_evaluation_ignores_the_theta_layout(n):
    rng = np.random.default_rng(1204 + n)
    thetas = np.sort(rng.uniform(0.0, 2.0 * math.pi, 48))
    u = ext.omega_lower_bound(n, thetas) + rng.uniform(1e-3, 3.0, (16, 48))
    want = ext.eval_extended_grid(n, u, np.tile(thetas, (16, 1)))
    for theta in theta_layouts(thetas, u.shape):
        assert np.array_equal(ext.eval_extended_grid(n, u, theta), want)
    # and a scalar u against a theta row
    assert np.array_equal(ext.eval_extended_grid(n, 2.5, thetas),
                          ext.eval_extended_grid(n, np.full(48, 2.5), thetas))


def test_guard_errors_name_the_same_point_for_any_theta_layout():
    thetas = np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)
    u = np.full((4, 6), 2.0)
    u[1, 0] = 1.0 + 5e-15  # theta = 0: the factor at j = 0 is 5e-15 > 0

    def named(u):
        # (class, n, u, theta, guard) of the error, over every theta layout
        out = set()
        for theta in (*theta_layouts(thetas, u.shape), np.tile(thetas, (4, 1))):
            with pytest.raises(ext.DomainGuardError) as err:
                ext.eval_extended_grid(3, u, theta)
            e = err.value
            out.add((type(e), e.n, e.u, e.theta, e.guard))
        return out

    assert named(u) == {(ext.BoundaryProximityError, 3, 1.0 + 5e-15, 0.0, ext.LOG_FACTOR_GUARD)}
    u[3, 1] = u[2, 3] = 0.1  # the first in C order is named
    assert named(u) == {(ext.OutOfDomainError, 3, 0.1, thetas[3], 0.0)}


def test_points_on_the_edge_are_out_of_the_domain():
    # a factor of exactly 0 is out, under both the domain and the log guard
    for check in (ext.domain_factors, ext.eval_extended_grid):
        with pytest.raises(ext.OutOfDomainError) as err:
            check(3, np.array([2.0, 1.0]), 0.0)
        assert (err.value.u, err.value.theta, err.value.guard) == (1.0, 0.0, 0.0)


def test_stacked_points_keep_the_bits_of_their_own_call():
    # the verify checks join the points of several evaluations into one
    # contiguous stack; every row must keep the bits it has alone
    rng = np.random.default_rng(2901)
    for n in range(2, 18):
        theta = rng.uniform(0.0, 2.0 * math.pi, (3, 64))
        u = ext.omega_lower_bound(n, theta) + 10.0 ** rng.uniform(-6.0, 3.0, (3, 64))
        stack = ext.eval_extended_grid(n, u, theta)
        for k in range(3):
            assert stack[k].tobytes() == ext.eval_extended_grid(n, u[k], theta[k]).tobytes(), (n, k)
        # a stack of u against one shared theta row
        rows = u[0] + np.array([[0.0], [1.0], [5.0]])
        shared = ext.eval_extended_grid(n, rows, theta[0])
        for k in range(3):
            assert shared[k].tobytes() == ext.eval_extended_grid(n, rows[k], theta[0]).tobytes()


def test_a_stacked_step_gives_the_partials_of_separate_calls():
    rng = np.random.default_rng(2902)
    for n in (2, 3, 5, 8, 17):
        u, theta = sample_omega(rng, n, 200, gap_lo=1e-2)
        s = 1e-3 * (u - ext.omega_lower_bound(n, theta))
        (fu, fu2), (ft, ft2) = ext.first_partials_grid(n, u, theta, np.stack([s, 2.0 * s]))
        for got, step in (((fu, ft), s), ((fu2, ft2), 2.0 * s)):
            want = ext.first_partials_grid(n, u, theta, step)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], n


def test_height_alone_has_the_bits_and_errors_of_the_evaluator():
    rng = np.random.default_rng(2903)
    for n in (2, 3, 7, 17):
        u, theta = sample_omega(rng, n, 100, gap_lo=1e-6)
        rows = u + np.array([[0.0], [0.5], [2.0]])
        for args in ((u, theta), (rows, theta), (float(u[0]), float(theta[0]))):
            x0 = np.asarray(ext._height(n, *args)[0])
            assert x0.tobytes() == ext.eval_extended_grid(n, *args)[..., 0].tobytes(), n
    for args in ((3, np.array([2.0, 0.4]), np.array([0.0, 0.1])), (2, 1.0 + 5e-15, 0.0)):
        errors = []
        for evaluate in (ext._height, ext.eval_extended_grid):
            with pytest.raises(ext.DomainGuardError) as err:
                evaluate(*args)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1] and errors[0][0] is not ext.DomainGuardError


def test_psi_factored_matches_direct_difference():
    rng = np.random.default_rng(302)
    for n in (2, 3, 5, 8):
        u, theta = sample_omega(rng, n, 200, gap_lo=1e-2)
        direct = eval_T(n, u) - np.cos(n * theta)
        got = psi(n, u, theta)
        assert np.min(got) > 0.0
        assert np.max(np.abs(got - direct) / np.maximum(1.0, np.abs(direct))) < 1e-11


def _x2_oracle(mp, n, log_gap, theta):
    """x2 from the unfactored formula in the module docstring, in mpmath.

    T_n(u) - cos(n theta) and the rational numerator cancel down to the gap
    g = e^log_gap, so the working precision is |log_gap|/ln 10 digits plus a
    margin.  cos(k theta) is taken as T_k(a) with a = cos(theta) rounded to
    60 digits: that evaluates x2 at an angle within 1e-60 of theta, and only
    polynomial arithmetic has to run at the full precision.
    """
    def cheb_t(k, x):
        prev, cur = mp.mpf(1), x
        for _ in range(k - 1):
            prev, cur = cur, 2 * x * cur - prev
        return cur

    with mp.workdps(int(abs(log_gap) / math.log(10)) + 40):
        with mp.workdps(60):
            a = mp.cos(mp.mpf(theta))
            g = mp.exp(mp.mpf(log_gap))
        u = a + g
        num = -cheb_t(n - 1, u) * a + u * cheb_t(n - 1, a)
        rational = num / (n * (cheb_t(n, u) - cheb_t(n, a)))
        nearest = u - a
        with mp.workdps(60):
            logs = mp.log(nearest)
            for j in range(1, n):
                s = 2 * mp.pi * j / n
                logs += mp.log(u - mp.cos(mp.mpf(theta) - s)) * mp.cos(s)
            return mp.mpf(n - 1) / n ** 2 * logs + rational


def test_x2_log_gap_matches_mpmath_oracle():
    mp = pytest.importorskip("mpmath")
    for n in (2, 3, 5, 8):
        for theta in (0.0, 0.2 * math.pi / n):
            for log_gap in (math.log(1e-12), -4500.0, INTERIOR_LOG_GAP_FLOOR):
                want = _x2_oracle(mp, n, log_gap, theta)
                got = ext.x2_log_gap(n, log_gap, theta)
                assert abs((got - want) / want) < 1e-13, (n, theta, log_gap, got)


def test_x2_log_gap_matches_grid_evaluator():
    rng = np.random.default_rng(306)
    for n in (2, 3, 5, 8):
        theta = rng.uniform(0.0, math.pi / n, 200)
        log_gap = rng.uniform(math.log(1e-2), math.log(2.0), 200)
        direct = ext.eval_extended_grid(n, np.cos(theta) + np.exp(log_gap), theta)[:, 2]
        got = ext.x2_log_gap(n, log_gap, theta)
        assert np.max(np.abs(got - direct) / np.maximum(1.0, np.abs(direct))) < 1e-11
    with pytest.raises(ValueError):
        ext.x2_log_gap(3, -1.0, math.pi / 3)
    with pytest.raises(ValueError):
        ext.x2_log_gap(3, -math.inf, 0.0)


def test_decay_toward_infinity():
    rng = np.random.default_rng(303)
    theta = rng.uniform(0.0, 2.0 * math.pi, 64)
    for n in (2, 3, 6):
        norms = {
            u: np.max(np.linalg.norm(ext.eval_extended_grid(n, u, theta), axis=-1))
            for u in (1e2, 1e3, 1e4)
        }
        C = 1.25 * 1e2 * norms[1e2]
        for u in (1e3, 1e4):
            assert norms[u] < C / u


def test_n2_graph_identity_both_causal_parts():
    rng = np.random.default_rng(304)
    u, theta = sample_omega(rng, 2, 1000)
    u[::2] = ext.omega_lower_bound(2, theta[::2]) + np.exp(
        rng.uniform(math.log(1e-3), math.log(0.5), 500)
    )
    pts = ext.eval_extended_grid(2, u, theta)
    assert np.min(u[::2]) < 1.0  # the sample really reaches the timelike part
    resid = pts[..., 0] - pts[..., 1] * np.tanh(2.0 * pts[..., 2])
    assert np.max(np.abs(resid)) < 1e-10


# ---------------------------------------------------------------------------
# causal classification
# ---------------------------------------------------------------------------

def test_causal_type_examples():
    assert ext.causal_type_grid(3, 1.5, 0.4) == ext.CausalType.SPACELIKE
    assert ext.causal_type_grid(3, 0.9, math.pi / 3) == ext.CausalType.TIMELIKE
    assert ext.causal_type_grid(4, 1.0, 0.2) == ext.CausalType.LIGHTLIKE


def test_causal_type_agrees_with_u_threshold():
    # the metric determinant definition must reproduce the u <=> 1 split
    rng = np.random.default_rng(305)
    for n in (2, 3, 5):
        theta = rng.uniform(0.05, 2.0 * math.pi - 0.05, 200)
        u_hi = np.maximum(ext.omega_lower_bound(n, theta), 1.0) + rng.uniform(0.08, 2.0, 200)
        codes = ext.causal_type_grid(n, u_hi, theta)
        assert np.all(codes == int(ext.CausalType.SPACELIKE))
        # timelike strip is widest at the wedge centers theta = (2k+1) pi/n
        centers = (2 * rng.integers(0, n, 200) + 1) * math.pi / n
        theta_c = centers + rng.uniform(-0.15, 0.15, 200) * math.pi / n
        lo = ext.omega_lower_bound(n, theta_c)
        u_lo = lo + 0.25 * (0.92 - lo)
        assert np.all(u_lo > lo) and np.all(u_lo < 0.92)
        codes = ext.causal_type_grid(n, u_lo, theta_c)
        assert np.all(codes == int(ext.CausalType.TIMELIKE))


# ---------------------------------------------------------------------------
# isometry group
# ---------------------------------------------------------------------------

def test_group_order_and_words():
    for n in (2, 3, 5):
        els = ext.group_elements(n)
        assert len(els) == 2 * n
        for a in range(len(els)):
            for b in range(a + 1, len(els)):
                assert np.max(np.abs(els[a] - els[b])) > 1e-6


def test_group_preserves_lorentz_form():
    J = np.diag([-1.0, 1.0, 1.0])
    for g in ext.group_elements(5):
        assert np.max(np.abs(g.T @ J @ g - J)) < 1e-13


def test_group_is_one_stack_with_a_drift_guard(monkeypatch):
    for n in (2, 3, 17):
        els = ext.group_elements(n)
        assert isinstance(els, np.ndarray) and els.shape == (2 * n, 3, 3)
    # R^0 and S R^0 are exact; R^1 = 1e-12 too long is element 2
    rotation = ext.rotation_matrix
    monkeypatch.setattr(ext, "rotation_matrix", lambda n: rotation(n) * (1.0 + 1e-12))
    with pytest.raises(AssertionError, match=re.escape(
            "group element 2 distorts the Lorentz form by 2.00018e-12")):
        ext.group_elements(5)


def test_generator_relations():
    for n in (2, 3, 6):
        S = ext.reflection_matrix()
        R = ext.rotation_matrix(n)
        eye = np.eye(3)
        assert np.max(np.abs(S @ S - eye)) < 1e-13
        assert np.max(np.abs(np.linalg.matrix_power(R, n) - eye)) < 1e-13
        assert np.max(np.abs(S @ R @ S - np.linalg.inv(R))) < 1e-13


def test_group_is_lorentz_invariant_on_vectors():
    rng = np.random.default_rng(306)
    v = rng.standard_normal(3)
    w = rng.standard_normal(3)
    base = ws.lorentz_inner(v, w)
    for g in ext.group_elements(4):
        assert abs(ws.lorentz_inner(g @ v, g @ w) - base) < 1e-12


# ---------------------------------------------------------------------------
# symmetries of the surface
# ---------------------------------------------------------------------------

def symmetry_residual(n, u, theta):
    """Largest Euclidean norm of f(u, -theta) - S f and f(u, theta + 2 pi/n) - R f."""
    base = ext.eval_extended_grid(n, u, theta)
    mirrored = ext.eval_extended_grid(n, u, -theta)
    rotated = ext.eval_extended_grid(n, u, theta + 2.0 * math.pi / n)
    res_s = np.linalg.norm(mirrored - base @ ext.reflection_matrix().T, axis=-1)
    res_r = np.linalg.norm(rotated - base @ ext.rotation_matrix(n).T, axis=-1)
    return np.maximum(res_s, res_r)


def test_symmetry_residual_examples():
    assert symmetry_residual(3, 2.0, 0.0) < 1e-12
    assert symmetry_residual(4, 1.2, 0.3) < 1e-10
    assert symmetry_residual(6, 0.97, math.pi / 6 + 0.1) < 1e-10


def test_symmetry_residual_sampled():
    rng = np.random.default_rng(307)
    for n in (2, 3, 5, 8):
        u, theta = sample_omega(rng, n, 100, gap_lo=1e-2)
        # both symmetry images must stay clear of the boundary too
        ok = (u > ext.omega_lower_bound(n, -theta) + 1e-3)
        assert np.all(symmetry_residual(n, u[ok], theta[ok]) < 1e-10)


def test_fundamental_domain_membership():
    # on the fundamental wedge 0 <= theta <= pi/n the lower edge of Omega_n
    # is cos(theta), so the wedge is u > cos(theta) there
    for n in (3, 5, 8):
        theta = np.linspace(0.0, math.pi / n, 50)
        assert np.max(np.abs(ext.omega_lower_bound(n, theta) - np.cos(theta))) < 1e-15
    assert 1.1 > ext.omega_lower_bound(3, math.pi / 6)
    assert not 0.9 > ext.omega_lower_bound(3, 0.0)
    assert math.cos(0.2) + 1e-6 > ext.omega_lower_bound(5, 0.2)


def test_fold_reconstructs_orbit():
    rng = np.random.default_rng(308)
    for n in (2, 3, 5):
        for _ in range(50):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            u = rng.uniform(1.05, 3.0)
            th0, g = ext.fold_to_fundamental(n, theta)
            assert -1e-15 <= th0 <= math.pi / n + 1e-15
            want = ext.eval_extended_grid(n, u, theta)
            got = g @ ext.eval_extended_grid(n, u, th0)
            assert np.max(np.abs(want - got)) < 1e-9
        # an array folds exactly as its elements do one at a time
        thetas = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, (8, 8))
        folded, mats = ext.fold_to_fundamental(n, thetas)
        assert folded.shape == (8, 8) and mats.shape == (8, 8, 3, 3)
        for idx in np.ndindex(thetas.shape):
            th0, g = ext.fold_to_fundamental(n, float(thetas[idx]))
            assert folded[idx] == th0
            assert np.array_equal(mats[idx], g)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 8),
    theta=st.floats(0.0, 2.0 * math.pi, allow_nan=False),
    gap=st.floats(0.05, 2.0),
)
def test_fold_image_is_in_closed_fundamental_wedge(n, theta, gap):
    th0, g = ext.fold_to_fundamental(n, theta)
    assert 0.0 - 1e-15 <= th0 <= math.pi / n + 1e-15
    u = 1.0 + gap
    want = ext.eval_extended_grid(n, u, theta)
    got = g @ ext.eval_extended_grid(n, u, th0)
    assert np.max(np.abs(want - got)) < 1e-9
