"""Pins the Gauss-Kronrod tables and exercises the adaptive driver."""

import math

import numpy as np
import pytest

from zmcnoid import quadrature as qd
from zmcnoid import weierstrass as ws


def monomial_integral(d):
    # integral of x^d over [-1, 1]
    return 0.0 if d % 2 else 2.0 / (d + 1)


def test_weight_sums():
    assert abs(qd.KRONROD_WEIGHTS.sum() - 2.0) < 1e-13
    assert abs(qd.GAUSS_WEIGHTS.sum() - 2.0) < 1e-13


def test_node_symmetry():
    assert np.max(np.abs(qd.KRONROD_NODES + qd.KRONROD_NODES[::-1])) == 0.0
    assert np.max(np.abs(qd.KRONROD_WEIGHTS - qd.KRONROD_WEIGHTS[::-1])) == 0.0


def test_embedded_gauss_matches_legendre():
    # odd-index Kronrod abscissae must be the Gauss-Legendre 7-point rule
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(qd.KRONROD_NODES[1::2] - nodes)) < 5e-15
    assert np.max(np.abs(qd.GAUSS_WEIGHTS - weights)) < 5e-15


def test_kronrod_polynomial_exactness_to_degree_22():
    for d in range(23):
        got = float(qd.KRONROD_NODES ** d @ qd.KRONROD_WEIGHTS)
        assert abs(got - monomial_integral(d)) < 5e-14, d


def test_kronrod_not_exact_at_degree_24():
    got = float(qd.KRONROD_NODES ** 24 @ qd.KRONROD_WEIGHTS)
    assert abs(got - monomial_integral(24)) > 1e-10


def test_gauss_polynomial_exactness_to_degree_13():
    gauss_nodes = qd.KRONROD_NODES[1::2]
    for d in range(14):
        got = float(gauss_nodes ** d @ qd.GAUSS_WEIGHTS)
        assert abs(got - monomial_integral(d)) < 5e-14, d


def test_segment_polynomial():
    val = qd.integrate_segment(lambda z: 3.0 * z ** 2, 0j, 1 + 1j)
    assert abs(val - (1 + 1j) ** 3) < 1e-12


def test_segment_near_pole():
    pole = 0.5 + 0.01j
    exact = np.log(1 - pole) - np.log(-pole)
    val = qd.integrate_segment(lambda z: 1.0 / (z - pole), 0j, 1 + 0j,
                               abs_tol=1e-12)
    assert abs(val - exact) < 5e-12


def test_depth_cap_raises():
    pole = 0.5 + 1e-6j
    with pytest.raises(qd.QuadratureError):
        qd.integrate_segment(lambda z: 1.0 / (z - pole), 0j, 1 + 0j,
                             abs_tol=1e-13, max_depth=3)


def test_polyline_accumulates():
    val = qd.integrate_polyline(lambda z: z, [0j, 1 + 0j, 1 + 1j])
    assert abs(val - 1j) < 1e-13


def test_polyline_skips_repeated_vertices():
    val = qd.integrate_polyline(lambda z: z, [0j, 0j, 1 + 0j, 1 + 0j, 1 + 1j])
    assert abs(val - 1j) < 1e-13


def test_polyline_rejects_degenerate_input():
    with pytest.raises(ValueError):
        qd.integrate_polyline(lambda z: z, [1j])
    with pytest.raises(ValueError):
        qd.integrate_polyline(lambda z: z, [1j, 1j, 1j])


def test_vector_integrand_componentwise():
    # stacked monomials integrate to independent components
    val = qd.integrate_segment(lambda z: np.stack([np.ones_like(z), z, z * z]),
                               0j, 2 + 0j)
    assert np.max(np.abs(val - np.array([2.0, 2.0, 8.0 / 3.0]))) < 1e-12


def test_error_estimate_positive_for_nonpolynomial():
    _, err = qd._gk_estimate(lambda z: np.exp(z) / (z + 1.3), -1 + 0j, 1 + 0j)
    assert np.all(err >= 0.0)
    assert np.max(err) > 0.0


# ---------------------------------------------------------------------------
# the level-synchronous driver against the depth-first stack driver
# ---------------------------------------------------------------------------

class OracleDepthError(Exception):
    pass


def oracle_gk(func, a, b):
    # one Gauss-Kronrod panel with scalar complex endpoints
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = func(mid + half * qd.KRONROD_NODES)
    kron = (vals * qd.KRONROD_WEIGHTS).sum(axis=-1) * half
    gauss = (vals[..., 1::2] * qd.GAUSS_WEIGHTS).sum(axis=-1) * half
    return kron, np.abs(kron - gauss)


def oracle_segment(func, a, b, abs_tol=1e-11, max_depth=40):
    """Depth-first stack driver, one segment at a time; returns (value, depth).

    Its values equal the batched driver's bit for bit for integrands with a
    leading component axis of length > 1, such as alpha.  numpy's complex
    multiply rounds a lone product (a scalar integrand's sum times half)
    differently from a vector one, so the tests here use vector integrands.
    """
    a, b = complex(a), complex(b)
    total, err = oracle_gk(func, a, b)
    if np.max(err) <= abs_tol:
        return total, 0
    stack = [(a, b, total, err, 0)]
    acc = np.zeros_like(total)
    deepest = 0
    while stack:
        lo, hi, est, est_err, depth = stack.pop()
        deepest = max(deepest, depth)
        if np.max(est_err) <= abs_tol * abs(hi - lo) / abs(b - a):
            acc = acc + est
            continue
        if depth >= max_depth:
            raise OracleDepthError((lo, hi))
        mid = 0.5 * (lo + hi)
        left, lerr = oracle_gk(func, lo, mid)
        right, rerr = oracle_gk(func, mid, hi)
        stack.append((lo, mid, left, lerr, depth + 1))
        stack.append((mid, hi, right, rerr, depth + 1))
    return acc, deepest


def clear_points(rng, data, count):
    # off-puncture points whose segment from 0 clears every puncture by 0.06
    z = rng.uniform(0.05, 2.5, 4 * count) * np.exp(1j * rng.uniform(0, 2 * math.pi, 4 * count))
    gap = ws._segment_puncture_distance(0j, z[:, None], data.punctures).min(axis=1)
    return z[gap > 0.06][:count]


def test_batched_alpha_segments_equal_stack_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8):
        data = ws.JorgeMeeksData(n)
        z = clear_points(rng, data, 30)
        f = lambda w: ws.alpha(data, w)
        want = np.array([oracle_segment(f, 0j, zk)[0] for zk in z]).T
        assert np.array_equal(qd.integrate_segment(f, 0j, z), want)
        lift = ws.integrate_lift_numeric(data, z)
        assert np.array_equal(np.array(lift), want)
        # two-segment paths: the segment sums add in path order
        path = qd.integrate_polyline(f, [0j, 0.5 * z, z])
        legs = [oracle_segment(f, 0j, 0.5 * zk)[0] + oracle_segment(f, 0.5 * zk, zk)[0]
                for zk in z]
        assert np.array_equal(path, np.array(legs).T)


POLES = (0.5 + 1e-3j, 0.3 - 2e-3j, 0.71 + 5e-3j)


def near_pole(z):
    return np.stack([1.0 / (z - p) for p in POLES])


def test_batched_near_pole_equals_stack_oracle():
    a = np.array([0j, 0.1 + 0j, -0.2 + 0.01j, 0j])
    b = np.array([1 + 0j, 0.9 + 1e-3j, 1.1 + 0j, 1e-3 + 0j])
    results = [oracle_segment(near_pole, ak, bk, abs_tol=1e-11) for ak, bk in zip(a, b)]
    assert min(depth for _, depth in results[:3]) >= 6
    got = qd.integrate_segment(near_pole, a, b, abs_tol=1e-11)
    assert np.array_equal(got, np.array([value for value, _ in results]).T)
    single = qd.integrate_segment(near_pole, a[0], b[0], abs_tol=1e-11)
    assert single.shape == (3,) and np.array_equal(single, results[0][0])
    assert qd.integrate_segment(near_pole, a[:0], b[:0]).shape == (3, 0)


def test_root_accepts_at_abs_tol_when_its_share_rounds_below():
    f = lambda z: np.stack([np.exp(z) / (z + 1.3), z ** 3, np.cos(z)])
    b = 1.375 + 0.25j
    value, err = oracle_gk(f, 0j, b)
    tol = float(np.max(err))
    assert tol * abs(b) / abs(b) < tol  # only the root rule accepts the root
    assert np.array_equal(qd.integrate_segment(f, 0j, b, abs_tol=tol), value)
    assert np.array_equal(qd.integrate_segment(f, 0j, np.array([b, b]), abs_tol=tol),
                          np.stack([value, value], axis=-1))


def test_depth_cap_is_exact_and_names_the_interval():
    _, depth = oracle_segment(near_pole, 0j, 1 + 0j, abs_tol=1e-11)
    ok = qd.integrate_segment(near_pole, 0j, 1 + 0j, abs_tol=1e-11, max_depth=depth)
    assert np.array_equal(ok, oracle_segment(near_pole, 0j, 1 + 0j, 1e-11, depth)[0])
    with pytest.raises(OracleDepthError) as want:
        oracle_segment(near_pole, 0j, 1 + 0j, abs_tol=1e-11, max_depth=depth - 1)
    with pytest.raises(qd.QuadratureError) as got:
        qd.integrate_segment(near_pole, np.array([0.9 + 0j, 0j]), 1 + 0j,
                             abs_tol=1e-11, max_depth=depth - 1)
    err = got.value
    assert err.segment == (0j, 1 + 0j)
    assert err.interval == want.value.args[0]
    assert err.abs_tol == 1e-11 and err.max_depth == depth - 1
    for text in (repr(err.interval[0]), "1e-11", f"depth {depth - 1}"):
        assert text in str(err)


def test_segment_that_cannot_converge_raises_after_bounded_work():
    # 1e-4 from the path, rounding noise in the panels exceeds the share of a
    # 1e-12 tolerance on every interval near the pole, at every depth
    pole = 0.5 + 1e-4j
    points = []

    def f(z):
        points.append(z.size)
        return 1.0 / (z - pole)

    with pytest.raises(OracleDepthError):
        oracle_segment(f, 0j, 1 + 0j, abs_tol=1e-12)
    points.clear()
    with pytest.raises(qd.QuadratureError) as got:
        qd.integrate_segment(f, 0j, 1 + 0j, abs_tol=1e-12)
    assert got.value.max_depth == 40
    lo, hi = got.value.interval
    assert abs(hi - lo) == 2.0 ** -40
    assert sum(points) < 15 * 2 * qd.REFINE_WIDTH * 2 * 40
