"""Chebyshev recurrence versus independent trig/hyperbolic oracles, and the order rule."""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zmcnoid
from zmcnoid import analysis as an
from zmcnoid import chebyshev as cb
from zmcnoid import extension as ext
from zmcnoid import meshio as mio
from zmcnoid import weierstrass as ws


# ---------------------------------------------------------------------------
# oracles: closed forms that never touch the recurrence
# ---------------------------------------------------------------------------

def oracle_T(n, x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    inside = np.abs(x) <= 1
    out[inside] = np.cos(n * np.arccos(x[inside]))
    hi = x > 1
    out[hi] = np.cosh(n * np.arccosh(x[hi]))
    lo = x < -1
    out[lo] = (-1.0) ** n * np.cosh(n * np.arccosh(-x[lo]))
    return out


def oracle_U(n, x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    inside = np.abs(x) < 1
    phi = np.arccos(x[inside])
    out[inside] = np.sin((n + 1) * phi) / np.sin(phi)
    hi = x > 1
    a = np.arccosh(x[hi])
    out[hi] = np.sinh((n + 1) * a) / np.sinh(a)
    lo = x < -1
    a = np.arccosh(-x[lo])
    out[lo] = (-1.0) ** n * np.sinh((n + 1) * a) / np.sinh(a)
    out[x == 1.0] = n + 1
    out[x == -1.0] = (-1.0) ** n * (n + 1)
    return out


def test_trig_oracle_agreement_first_kind():
    rng = np.random.default_rng(101)
    x = rng.uniform(-1, 1, 1000)
    for n in range(0, 13):
        assert np.max(np.abs(cb.eval_T(n, x) - oracle_T(n, x))) < 1e-11


def test_trig_oracle_agreement_second_kind():
    rng = np.random.default_rng(102)
    # keep clear of the removable singularity at |x| = 1 where the oracle
    # itself loses digits
    x = rng.uniform(-0.999, 0.999, 1000)
    for n in range(0, 13):
        assert np.max(np.abs(cb.eval_U(n, x) - oracle_U(n, x))) < 1e-11


def test_hyperbolic_oracle_agreement_outside_interval():
    rng = np.random.default_rng(103)
    x = rng.uniform(1.0001, 4.0, 500)
    for n in range(0, 13):
        rel = np.abs(cb.eval_T(n, x) - oracle_T(n, x)) / np.maximum(1.0, np.abs(oracle_T(n, x)))
        assert np.max(rel) < 1e-12
        relu = np.abs(cb.eval_U(n, x) - oracle_U(n, x)) / np.maximum(1.0, np.abs(oracle_U(n, x)))
        assert np.max(relu) < 1e-12


def test_exact_integer_values_at_one():
    for n in range(0, 30):
        assert cb.eval_T(n, 1.0) == 1.0
        assert cb.eval_U(n, 1.0) == n + 1


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(104)
    x = rng.uniform(-0.95, 3.5, 400)
    for n in range(1, 13):
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        fd = (cb.eval_T(n, x + h) - cb.eval_T(n, x - h)) / (2 * h)
        cf = cb.eval_T_derivative(n, x)
        rel = np.abs(cf - fd) / np.maximum(1.0, np.abs(cf))
        assert np.max(rel) < 1e-7


def test_derivative_is_n_times_U():
    x = np.linspace(-2, 4, 50)
    for n in range(1, 10):
        np.testing.assert_allclose(cb.eval_T_derivative(n, x), n * cb.eval_U(n - 1, x), rtol=0, atol=0)


# ---------------------------------------------------------------------------
# inverse on the monotone branch
# ---------------------------------------------------------------------------

def test_invert_roundtrip_dense():
    rng = np.random.default_rng(105)
    y = np.concatenate([
        rng.uniform(-1, 1, 300),
        np.exp(rng.uniform(0, math.log(1e3), 300)),
        [-1.0, 0.0, 1.0, 1e3],
    ])
    for n in range(2, 13):
        u = cb.invert_T(n, y)
        back = cb.eval_T(n, u)
        assert np.max(np.abs(back - y) / np.maximum(1.0, np.abs(y))) < 1e-9


def test_invert_branch_endpoints():
    # y = -1 sits at the critical point of T_n, where the root is quadratic:
    # u-accuracy there is sqrt-limited, so the contract is 1e-10, not 1e-12
    for n in range(2, 13):
        assert abs(cb.invert_T(n, -1.0) - math.cos(math.pi / n)) < 1e-10
        assert abs(cb.invert_T(n, 1.0) - 1.0) < 1e-12


def test_invert_matches_mpmath_oracle():
    # the round-trip tests above go back through eval_T, the recurrence that
    # invert_T's Newton step uses; this reference shares no code with it
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    ys = (-1.0, -1.0 + 1e-15, -0.5, 0.0, 1.0 - 1e-12, 1.0, 1.0 + 1e-12,
          2.0, 1e3, 1e100, 1e300)
    for n in (2, 3, 5, 8, 12, 17, 64):
        for y in ys:
            exact = mp.mpf(y)
            if exact <= 1:
                ref = mp.cos(mp.acos(exact) / n)
            else:
                ref = mp.cosh(mp.acosh(exact) / n)
            u = cb.invert_T(n, y)
            scale = max(abs(float(ref)), 1.0)
            assert abs(mp.mpf(u) - ref) <= 4 * math.ulp(scale), (n, y, u)


def test_invert_rejects_out_of_range():
    with pytest.raises(ValueError):
        cb.invert_T(3, -1.0000001)
    with pytest.raises(ValueError):
        cb.invert_T(1, 0.5)


@given(
    n=st.integers(min_value=2, max_value=12),
    y=st.floats(min_value=-1.0, max_value=1e3, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_invert_roundtrip_property(n, y):
    u = cb.invert_T(n, y)
    assert u >= math.cos(math.pi / n) - 1e-12
    assert abs(cb.eval_T(n, u) - y) < 1e-9 * max(1.0, abs(y))


def test_monotone_on_branch():
    for n in range(2, 13):
        u = np.linspace(math.cos(math.pi / n), 4.0, 1000)
        t = cb.eval_T(n, u)
        assert np.all(np.diff(t) > 0)
        v = np.linspace(math.cos(math.pi / (n - 1)) if n >= 3 else -1.0, 4.0, 1000)
        assert np.all(np.diff(cb.eval_U(n - 1, v)) > 0)


def test_second_kind_positive_right_of_branch_point():
    for n in range(2, 13):
        u = np.linspace(math.cos(math.pi / n) + 1e-9, 4.0, 1000)
        for m in range(0, n):
            assert np.all(cb.eval_U(m, u) > 0)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def test_psi_factorization_residual_small():
    # both sides reach |T_n(4)| ~ 1e5 by n = 6; past that the float64
    # subtraction floor |T_n|*eps exceeds 1e-10, so the absolute contract
    # only covers moderate degrees
    rng = np.random.default_rng(106)
    u = rng.uniform(-4, 4, 2000)
    theta = rng.uniform(0, 2 * math.pi, 2000)
    for n in range(2, 7):
        residual = np.abs(cb.eval_T(n, u) - np.cos(n * theta) - cb.psi(n, u, theta))
        assert np.max(residual) < 1e-10


def test_psi_factorization_scale_relative_high_degree():
    rng = np.random.default_rng(108)
    u = rng.uniform(-4, 4, 500)
    theta = rng.uniform(0, 2 * math.pi, 500)
    for n in range(7, 13):
        scale = 1.0 + np.abs(cb.eval_T(n, u))
        residual = np.abs(cb.eval_T(n, u) - np.cos(n * theta) - cb.psi(n, u, theta))
        assert np.max(residual / scale) < 1e-13


@given(
    n=st.integers(min_value=2, max_value=6),
    u=st.floats(min_value=-4, max_value=4),
    theta=st.floats(min_value=0, max_value=2 * math.pi),
)
@settings(max_examples=300, deadline=None)
def test_psi_factorization_property(n, u, theta):
    assert abs(cb.eval_T(n, u) - np.cos(n * theta) - cb.psi(n, u, theta)) < 1e-10


def test_kaw_identity_residual_small():
    # U_{2m}(x) - 1 = 2 T_{m+1}(x) U_{m-1}(x) for m >= 1
    rng = np.random.default_rng(107)
    x = rng.uniform(-4, 4, 2000)
    for m in range(1, 13):
        residual = np.abs(cb.eval_U(2 * m, x) - 1.0
                          - 2.0 * cb.eval_T(m + 1, x) * cb.eval_U(m - 1, x))
        if m < 4:
            assert np.max(residual) < 1e-10
        else:
            scale = 1.0 + np.abs(cb.eval_U(2 * m, x))
            assert np.max(residual / scale) < 1e-13


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        cb.eval_T(cb.MAX_DEGREE + 1, 0.5)
    with pytest.raises(ValueError):
        cb.eval_T(-1, 0.5)
    with pytest.raises(ValueError):
        cb.eval_U(-1, 0.5)


def test_scalar_in_scalar_out():
    assert isinstance(cb.eval_T(5, 0.3), float)
    assert isinstance(cb.eval_U(5, 0.3), float)
    assert isinstance(cb.invert_T(4, 2.0), float)
    assert isinstance(cb.psi(4, 2.0, 0.3), float)
    assert isinstance(cb.eval_T(5, np.linspace(0, 1, 4)), np.ndarray)


# ---------------------------------------------------------------------------
# the order rule: every public entry that takes an order n checks it
# ---------------------------------------------------------------------------

ORDER_ENTRIES = {
    cb.difference_factors: (1, 1.0, 0.5), cb.psi: (1, 1.0, 0.5), cb.invert_T: (2, 0.5),
    ext.omega_lower_bound: (2, 0.5), ext.domain_factors: (2, 2.0, 0.5),
    ext.x2_log_gap: (2, -1.0, 0.1), ext.eval_extended_grid: (2, 2.0, 0.5),
    ext.first_partials_grid: (2, 2.0, 0.5), ext.first_fundamental_grid: (2, 2.0, 0.5),
    ext.causal_type_grid: (2, 2.0, 0.5), ext.rotation_matrix: (2,),
    ext.group_elements: (2,), ext.fold_to_fundamental: (2, 0.5),
    an.surface_partials: (2, 2.0, 0.5), an.immersion_certificate: (2, an.GridSpec(1.5, 2.0, 4)),
    an.contour_u: (2, 1.0, 0.1), an.level_curve: (2, 1.0, 16),
    an.properness_probe: (2, 0.1, 32), an.contour_endpoint_limits: (2, 1.0),
    an.mean_curvature_residual: (2, 2.0, 0.5), an.zmc_verification_grid: (2,),
    an.curve_monotonicity_report: (3, 1.0), an.upsilon: (3, 1.0),
    an.region_Dh_certificate: (3, 1.0), an.embeddedness_scan: (3, [1.0], 64),
    mio.tessellate: (2, 3.0, 0.02, (8, 8)), ws.JorgeMeeksData: (2,),
}
# functions whose n is a polynomial degree; _check_degree holds their rule
DEGREE_ENTRIES = {cb.eval_T, cb.eval_U, cb.eval_T_derivative}


@pytest.mark.parametrize("entry", ORDER_ENTRIES, ids=lambda f: f.__qualname__)
def test_order_entries_share_one_rule(entry):
    least, *args = ORDER_ENTRIES[entry]
    entry(least, *args)
    for bad in (least - 1, 2.5):
        message = f"^order n must be an integer >= {least}, got {bad!r}$"
        with pytest.raises(ValueError, match=message):
            entry(bad, *args)


def test_the_order_table_lists_every_function_that_takes_n():
    takes_n = set()
    for info in pkgutil.iter_modules(zmcnoid.__path__):
        module = importlib.import_module(f"zmcnoid.{info.name}")
        takes_n.update(
            f for name, f in vars(module).items()
            if inspect.isfunction(f) and not name.startswith("_")
            and f.__module__ == module.__name__
            and list(inspect.signature(f).parameters)[:1] == ["n"])
    assert takes_n == set(ORDER_ENTRIES) - {ws.JorgeMeeksData} | DEGREE_ENTRIES | {cb.check_order}
